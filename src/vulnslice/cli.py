"""The ``vulnslice`` command: pipeline stages over persistent artifacts.

Stages read their predecessor's artifact files from the output
directory and write their own atomically:

    parse     -> ast.jsonl, parse_report.json
    extract   -> syvc.jsonl
    slice     -> sevc.jsonl, slice_report.json
    vectorize -> embeddings.json, vectors.bin (+ .idx)
    label     -> labels.jsonl, review.jsonl
    train     -> checkpoint.bin, train_report.json
    detect    -> detect.jsonl (exit code 1 when anything is flagged)
    evaluate  -> metrics.json (+ table on stdout)
    explain   -> explain.jsonl
    pipeline  -> all of the above in order

One root seed drives every stochastic stage and is recorded in every
artifact header. Flags can also be set through VULNSLICE_* environment
variables (e.g. VULNSLICE_SEED=7 mirrors --seed 7). An empty variable
counts as unset, and a bad value is a usage error (exit 2), as it would
be on the command line.

Only vectorize and the stages after it import numpy (through bgru,
vectorize, embeddings and evaluation); parse, extract and slice run
on the numpy-free program-analysis layers and never load it.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
from dataclasses import dataclass, field, fields, replace

from . import artifacts
from .artifacts import StageError, derive_seed
from .candidates import (
    ALL_KINDS,
    CharacteristicSet,
    SyVC,
    default_fc_calls,
    extract_syvcs,
    load_fc_calls,
    syvc_record,
)
from .frontend import ProgramModel, dump_ast, load_program
from .graphs import GraphError, build_call_graph, build_pdgs
from .labeling import (
    Annotation,
    GroundTruth,
    apply_labels,
    parse_diff,
    review_queue,
)
from .presets import MODE_HASH, MODE_SKIPGRAM, PRESETS, Hyperparams
from .slicing import (
    SeVC,
    SevcStatement,
    SliceConsistencyError,
    assemble_sevc,
    interprocedural_slices,
    sevc_record,
)

# The numpy-backed names the stages use, as name -> "module:attribute"
# in this package. Module __getattr__ resolves them on first access, and
# main binds them before it runs a stage that imports numpy, so
# getattr(cli, name) and patches by name work as for an eager import.
# predict and bgru_forward stay here although the stages use
# forward_batch: perfbench/child.py wraps them by name.
LAZY_NAMES = {
    "train_model": "bgru:train",
    "forward_batch": "bgru:forward_batch",
    "load_checkpoint": "bgru:load_checkpoint",
    "save_checkpoint": "bgru:save_checkpoint",
    "explain_trace": "bgru:explain",
    "predict": "bgru:predict",
    "bgru_forward": "bgru:bgru_forward",
    "symbolize": "vectorize:symbolize",
    "encode": "vectorize:encode",
    "save_vectors": "vectorize:save_vectors",
    "load_vectors": "vectorize:load_vectors",
    "truncation_window": "vectorize:truncation_window",
    "SampleVector": "vectorize:SampleVector",
    "train_embeddings": "embeddings:train_embeddings",
    "hash_table": "embeddings:hash_table",
    "compute_metrics": "evaluation:compute_metrics",
    "count_confusion": "evaluation:count_confusion",
    "format_metrics_table": "evaluation:format_metrics_table",
    "split_by_program": "evaluation:split_by_program",
}

# stages that run on the program-analysis layers alone
NUMPY_FREE_STAGES = ("parse", "extract", "slice")


def __getattr__(name: str):
    target = LAZY_NAMES.get(name)
    if target is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module, attribute = target.split(":")
    value = getattr(importlib.import_module(f".{module}", __package__), attribute)
    globals()[name] = value
    return value


def _bind_lazy_names() -> None:
    """Bind every lazy name; one already bound (say, wrapped) stays."""
    for name in LAZY_NAMES:
        if name not in globals():
            __getattr__(name)


ENV_PREFIX = "VULNSLICE_"

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_ERROR = 2


@dataclass
class RunConfig:
    manifest: str
    out: str = "out"
    seed: int = 0
    theta: int | None = None
    dim: int | None = None
    kinds: tuple[str, ...] = ALL_KINDS
    preset: str = "desk"
    threshold: float | None = None
    strict_review: bool = False
    fc_list: str | None = None
    embed_mode: str = MODE_SKIPGRAM
    epochs: int | None = None
    hidden: int | None = None
    layers: int | None = None
    deps: str = "ddcd"  # ddcd = data+control backward slices, dd = data only
    delta: float = 0.6

    def hyperparams(self) -> Hyperparams:
        base = PRESETS[self.preset]
        dim = self.dim if self.dim is not None else base.input_dim
        theta = self.theta if self.theta is not None else base.seq_len * dim
        if theta % dim != 0:
            raise StageError(f"theta={theta} is not divisible by dimension={dim}")
        overrides = {
            "threshold": self.threshold,
            "epochs": self.epochs,
            "hidden_dim": self.hidden,
            "layers": self.layers,
        }
        return replace(
            base,
            input_dim=dim,
            seq_len=theta // dim,
            seed=derive_seed(self.seed, "train"),
            **{name: value for name, value in overrides.items() if value is not None},
        )

    def characteristic_set(self) -> CharacteristicSet:
        calls = (
            load_fc_calls(self.fc_list)
            if self.fc_list is not None
            else default_fc_calls()
        )
        return CharacteristicSet(fc_calls=calls, enabled=self.kinds)

    def path(self, name: str) -> str:
        return os.path.join(self.out, name)


@dataclass
class ManifestProgram:
    path: str  # relative program id
    source_paths: list[str]  # absolute source files
    program_class: str | None = None
    vulnerable_lines: tuple[int, ...] = ()
    diff_path: str | None = None


@dataclass
class Manifest:
    root: str
    programs: list[ManifestProgram] = field(default_factory=list)
    fc_list: str | None = None


def load_manifest(path: str) -> Manifest:
    if not os.path.exists(path):
        raise StageError(f"manifest not found: {path}")
    with open(path, "r", encoding="utf-8") as handle:
        raw = json.load(handle)
    base = os.path.dirname(os.path.abspath(path))
    root = os.path.normpath(os.path.join(base, raw.get("corpus_root", ".")))
    manifest = Manifest(root=root)
    if raw.get("fc_list"):
        fc = os.path.join(root, raw["fc_list"])
        if not os.path.exists(fc):
            raise StageError(f"manifest fc_list does not exist: {fc}")
        manifest.fc_list = fc
    for record in raw.get("programs", []):
        rel = record["path"]
        full = os.path.join(root, rel)
        if os.path.isdir(full):
            sources = sorted(
                os.path.join(full, f)
                for f in os.listdir(full)
                if f.endswith((".c", ".cpp", ".h"))
            )
        elif os.path.exists(full):
            sources = [full]
        else:
            raise StageError(f"manifest program does not exist: {full}")
        if not sources:
            raise StageError(f"manifest program has no C sources: {full}")
        diff_path = None
        if record.get("diff"):
            diff_path = os.path.join(root, record["diff"])
            if not os.path.exists(diff_path):
                raise StageError(f"manifest diff does not exist: {diff_path}")
        manifest.programs.append(
            ManifestProgram(
                path=rel,
                source_paths=sources,
                program_class=record.get("class"),
                vulnerable_lines=tuple(record.get("vulnerable_lines", [])),
                diff_path=diff_path,
            )
        )
    if not manifest.programs:
        raise StageError(f"manifest lists no programs: {path}")
    return manifest


def _parse_programs(manifest: Manifest) -> list[ProgramModel]:
    models = []
    for prog in manifest.programs:
        model = load_program(prog.source_paths, name=prog.path)
        # manifest-relative file names keep artifacts portable
        rel = {p: os.path.relpath(p, manifest.root) for p in prog.source_paths}
        for fn in model.functions:
            fn.file_path = rel[fn.file_path]
        model.files = [rel[f] for f in model.files]
        for diag in model.diagnostics:
            # messages start with the file name, as "file:line: ..."
            diag.message = rel[diag.file] + diag.message[len(diag.file):]
            diag.file = rel[diag.file]
        models.append(model)
    return models


def _ground_truth(manifest: Manifest) -> GroundTruth:
    truth = GroundTruth()
    for prog in manifest.programs:
        rel_files = [
            os.path.relpath(p, manifest.root) for p in prog.source_paths
        ]
        if prog.diff_path is not None:
            with open(prog.diff_path, "r", encoding="utf-8") as handle:
                report = parse_diff(handle.read())
            alias = rel_files[0] if len(report.files) <= 1 else None
            truth.add_diff(report, file_alias=alias)
            for rel in rel_files:
                if rel not in truth.diff_marks:
                    truth.diff_marks.setdefault(rel, [])
            continue
        if prog.program_class is None:
            raise StageError(
                f"program {prog.path} needs either a class or a diff"
            )
        for rel in rel_files:
            truth.add_annotation(
                Annotation(
                    file=rel,
                    program_class=prog.program_class,
                    vulnerable_lines=frozenset(prog.vulnerable_lines),
                )
            )
    return truth


# --------------------------------------------------------------------------
# stages
# --------------------------------------------------------------------------


def stage_parse(config: RunConfig) -> None:
    manifest = load_manifest(config.manifest)
    models = _parse_programs(manifest)
    ast_records = []
    diagnostics = []
    functions = statements = 0
    for model in models:
        for record in dump_ast(model):
            record["program"] = model.name
            ast_records.append(record)
        for diag in model.diagnostics:
            diagnostics.append(
                {"program": model.name, "file": diag.file, "line": diag.line,
                 "message": diag.message}
            )
        functions += len(model.functions)
        statements += sum(len(f.all_statements()) for f in model.functions)
    artifacts.write_jsonl(
        config.path("ast.jsonl"), "ast-dump", config.seed, ast_records
    )
    artifacts.write_json(
        config.path("parse_report.json"),
        {
            "seed": config.seed,
            "programs": len(models),
            "functions": functions,
            "statements": statements,
            "diagnostics": diagnostics,
        },
    )
    print(
        f"parsed {len(models)} programs: {functions} functions, "
        f"{statements} statements, {len(diagnostics)} diagnostics"
    )


def stage_extract(config: RunConfig) -> None:
    artifacts.require(config.path("parse_report.json"), "parse")
    manifest = load_manifest(config.manifest)
    cset = config.characteristic_set()
    records = []
    for model in _parse_programs(manifest):
        for syvc in extract_syvcs(model, cset):
            record = syvc_record(syvc)
            # ids are per-program at extraction; renumber corpus-wide so
            # downstream artifacts can join on them
            record["id"] = len(records)
            record["program"] = model.name
            records.append(record)
    artifacts.write_jsonl(
        config.path("syvc.jsonl"), "syvc", config.seed, records
    )
    by_kind: dict[str, int] = {}
    for r in records:
        by_kind[r["kind"]] = by_kind.get(r["kind"], 0) + 1
    summary = ", ".join(f"{k}={by_kind.get(k, 0)}" for k in config.kinds)
    print(f"extracted {len(records)} SyVCs ({summary})")


def stage_slice(config: RunConfig) -> None:
    artifacts.require(config.path("syvc.jsonl"), "extract")
    _, syvc_records = artifacts.read_jsonl(config.path("syvc.jsonl"), "syvc")
    manifest = load_manifest(config.manifest)
    models = {m.name: m for m in _parse_programs(manifest)}
    by_program: dict[str, list[dict]] = {}
    for record in syvc_records:
        by_program.setdefault(record["program"], []).append(record)
    sevc_records = []
    diagnostics = []
    skipped = []  # slice_report.json: what could not be sliced, and why

    def skip(program: str, syvc_id: int | None, exc: Exception) -> None:
        skipped.append({"program": program, "syvc_id": syvc_id, "message": str(exc)})

    for program_name in sorted(by_program):
        model = models.get(program_name)
        if model is None:
            raise StageError(
                f"syvc.jsonl references unknown program {program_name!r}; "
                "re-run the 'extract' stage"
            )
        try:
            pdgs = build_pdgs(model)
        except GraphError as exc:
            # without one function's PDG its callers' slices would stop
            # short, so the whole program is skipped
            skip(program_name, None, exc)
            continue
        if config.deps == "dd":
            pdgs = {
                idx: replace(p, edges=[e for e in p.edges if e.kind == "data"])
                for idx, p in pdgs.items()
            }
        call_graph = build_call_graph(model)
        for record in by_program[program_name]:
            syvc = SyVC.from_record(record)
            try:
                slice_ = interprocedural_slices(model, call_graph, pdgs, syvc)
                sevc = assemble_sevc(model, slice_, syvc, call_graph)
            except SliceConsistencyError as exc:
                skip(program_name, syvc.id, exc)
                continue
            diagnostics.extend(slice_.diagnostics)
            sevc_records.append(sevc_record(sevc))
    artifacts.write_jsonl(
        config.path("sevc.jsonl"), "sevc", config.seed, sevc_records
    )
    artifacts.write_json(
        config.path("slice_report.json"),
        {
            "seed": config.seed,
            "programs": len(by_program),
            "sevcs": len(sevc_records),
            "skipped": skipped,
        },
    )
    print(
        f"sliced {len(sevc_records)} SeVCs "
        f"({len(set(diagnostics))} distinct slice diagnostics, "
        f"{len(skipped)} skipped)"
    )


def _rehydrate_sevcs(config: RunConfig) -> list[SeVC]:
    """Rebuild SeVC objects (with tokens) from sevc.jsonl + reparse."""
    artifacts.require(config.path("sevc.jsonl"), "slice")
    _, records = artifacts.read_jsonl(config.path("sevc.jsonl"), "sevc")
    manifest = load_manifest(config.manifest)
    models = {m.name: m for m in _parse_programs(manifest)}
    stmt_indexes = {
        name: model.statement_index() for name, model in models.items()
    }
    sevcs = []
    for record in records:
        model = models.get(record["program"])
        if model is None:
            raise StageError(
                f"sevc.jsonl references unknown program "
                f"{record['program']!r}; re-run the 'slice' stage"
            )
        index = stmt_indexes[record["program"]]
        statements = []
        for s in record["statements"]:
            st = index.get(s["statement_id"])
            if st is None:
                raise StageError(
                    "sevc.jsonl out of sync with sources; re-run 'slice'"
                )
            statements.append(SevcStatement.from_record(s, list(st.tokens)))
        sevcs.append(
            SeVC.from_record(record, statements, model.user_function_names())
        )
    return sevcs


def stage_vectorize(config: RunConfig) -> None:
    sevcs = _rehydrate_sevcs(config)
    if not sevcs:
        raise StageError("no SeVCs to vectorize; check the 'slice' stage output")
    cset = config.characteristic_set()
    symbolic = [symbolize(sevc, cset) for sevc in sevcs]
    hp = config.hyperparams()
    d = hp.input_dim
    theta = hp.theta
    embed_seed = derive_seed(config.seed, "embeddings")
    if config.embed_mode == MODE_HASH:
        table = hash_table(d, embed_seed)
    else:
        table = train_embeddings(
            [sym.symbols for sym in symbolic], dimension=d, seed=embed_seed
        )
    table.save(config.path("embeddings.json"))
    samples = []
    for sym in symbolic:
        samples.append(encode(sym, table, theta))
    save_vectors(config.path("vectors.bin"), samples, config.seed)
    print(
        f"vectorized {len(samples)} SeVCs (theta={theta}, d={d}, "
        f"mode={config.embed_mode})"
    )


def stage_label(config: RunConfig) -> None:
    sevcs = _rehydrate_sevcs(config)
    manifest = load_manifest(config.manifest)
    truth = _ground_truth(manifest)
    apply_labels(sevcs, truth)
    label_records = [
        {
            "syvc_id": sevc.syvc_id,
            "program": sevc.program,
            "label": sevc.label,
            "needs_review": sevc.needs_review,
        }
        for sevc in sevcs
    ]
    artifacts.write_jsonl(
        config.path("labels.jsonl"), "labels", config.seed, label_records
    )
    artifacts.write_jsonl(
        config.path("review.jsonl"), "review-queue", config.seed,
        review_queue(sevcs),
    )
    positive = sum(1 for r in label_records if r["label"] == 1)
    review = sum(1 for r in label_records if r["needs_review"])
    print(
        f"labeled {len(label_records)} SeVCs: {positive} vulnerable, "
        f"{review} queued for review"
    )


def _labeled_samples(config: RunConfig) -> list[SampleVector]:
    artifacts.require(config.path("vectors.bin"), "vectorize")
    artifacts.require(config.path("labels.jsonl"), "label")
    samples, _ = load_vectors(config.path("vectors.bin"))
    _, label_records = artifacts.read_jsonl(config.path("labels.jsonl"), "labels")
    labels = {r["syvc_id"]: r for r in label_records}
    for sample in samples:
        record = labels.get(sample.syvc_id)
        if record is None:
            raise StageError(
                f"no label for SyVC {sample.syvc_id}; re-run the 'label' stage"
            )
        sample.label = record["label"]
        sample.needs_review = bool(record["needs_review"])
    return samples


def stage_train(config: RunConfig) -> None:
    samples = _labeled_samples(config)
    if config.strict_review:
        samples = [s for s in samples if not s.needs_review]
    hp = config.hyperparams()
    split_seed = derive_seed(config.seed, "split")
    train_side, test_side = split_by_program(samples, ratio=0.8, seed=split_seed)
    params, report = train_model(train_side, hp)
    save_checkpoint(config.path("checkpoint.bin"), params, config.seed)
    artifacts.write_json(
        config.path("train_report.json"),
        {
            "seed": config.seed,
            "train_samples": len(train_side),
            "test_samples": len(test_side),
            "train_programs": sorted({s.program for s in train_side}),
            "test_programs": sorted({s.program for s in test_side}),
            "epoch_losses": report.epoch_losses,
            "epochs": report.epochs,
        },
    )
    print(
        f"trained on {len(train_side)} samples "
        f"({len(report.epoch_losses)} epochs, final loss "
        f"{report.epoch_losses[-1]:.4f}); held out {len(test_side)}"
    )


def _load_model(config: RunConfig):
    """The trained parameters and the detection threshold: --threshold,
    else the checkpoint's."""
    artifacts.require(config.path("checkpoint.bin"), "train")
    hp = config.hyperparams()
    params, _ = load_checkpoint(
        config.path("checkpoint.bin"),
        expect_theta=hp.theta,
        expect_dim=hp.input_dim,
    )
    if config.threshold is not None:
        return params, config.threshold
    return params, params.hp.threshold


def stage_detect(config: RunConfig) -> int:
    artifacts.require(config.path("vectors.bin"), "vectorize")
    artifacts.require(config.path("sevc.jsonl"), "slice")
    samples, _ = load_vectors(config.path("vectors.bin"))
    _, sevc_records = artifacts.read_jsonl(config.path("sevc.jsonl"), "sevc")
    by_id = {r["syvc_id"]: r for r in sevc_records}
    params, threshold = _load_model(config)
    findings = []
    for sample, trace in zip(samples, forward_batch(samples, params, params.hp)):
        prob = trace.final
        if prob < threshold:
            continue
        record = by_id.get(sample.syvc_id, {})
        statements = record.get("statements", [])
        files = sorted({s["file"] for s in statements})
        lines = [s["line"] for s in statements]
        functions = sorted({s["function"] for s in statements})
        findings.append(
            {
                "syvc_id": sample.syvc_id,
                "kind": sample.kind,
                "program": sample.program,
                "probability": round(prob, 6),
                "files": files,
                "functions": functions,
                "lines": lines,
            }
        )
    artifacts.write_jsonl(
        config.path("detect.jsonl"), "detections", config.seed, findings
    )
    for f in findings:
        print(
            f"FLAGGED syvc={f['syvc_id']} kind={f['kind']} "
            f"p={f['probability']:.3f} program={f['program']} "
            f"files={','.join(f['files'])} functions={','.join(f['functions'])} "
            f"lines={f['lines']}"
        )
    print(f"{len(findings)} SeVCs flagged out of {len(samples)}")
    return EXIT_FINDINGS if findings else EXIT_OK


def stage_evaluate(config: RunConfig) -> None:
    samples = _labeled_samples(config)
    params, threshold = _load_model(config)
    split_seed = derive_seed(config.seed, "split")
    _, test_side = split_by_program(samples, ratio=0.8, seed=split_seed)
    # every sample, in the chunks detect uses, so both stages agree to the bit
    final = {
        sample.syvc_id: trace.final
        for sample, trace in zip(samples, forward_batch(samples, params, params.hp))
    }
    predictions = [int(final[s.syvc_id] >= threshold) for s in test_side]
    labels = [int(s.label) for s in test_side]
    counts = count_confusion(predictions, labels)
    report = compute_metrics(counts)
    artifacts.write_json(
        config.path("metrics.json"),
        {
            "seed": config.seed,
            "counts": {
                "TP": counts.tp,
                "FP": counts.fp,
                "TN": counts.tn,
                "FN": counts.fn,
            },
            "metrics": report.as_dict(),
            "test_samples": len(test_side),
        },
    )
    print(format_metrics_table(report, counts))


def stage_explain(config: RunConfig) -> None:
    artifacts.require(config.path("vectors.bin"), "vectorize")
    samples, _ = load_vectors(config.path("vectors.bin"))
    sevcs = {s.syvc_id: s for s in _rehydrate_sevcs(config)}
    params, threshold = _load_model(config)
    cset = config.characteristic_set()
    records = []
    for sample, trace in zip(samples, forward_batch(samples, params, params.hp)):
        sevc = sevcs.get(sample.syvc_id)
        if sevc is None or trace.final < threshold:
            continue
        sym = symbolize(sevc, cset)
        lo, hi = truncation_window(
            len(sym.symbols), sym.anchor_lo, sym.anchor_hi, sample.capacity
        )
        window = sym.symbols[lo:hi]
        critical = explain_trace(trace, window, delta=config.delta)
        records.append(
            {
                "syvc_id": sample.syvc_id,
                "program": sample.program,
                "probability": round(trace.final, 6),
                "critical_tokens": [
                    {
                        "position": c.position,
                        "symbol": c.symbol,
                        "direction": c.direction,
                        "delta": round(c.delta, 6),
                    }
                    for c in critical
                ],
            }
        )
    artifacts.write_jsonl(
        config.path("explain.jsonl"), "explanations", config.seed, records
    )
    total = sum(len(r["critical_tokens"]) for r in records)
    print(
        f"explained {len(records)} flagged SeVCs "
        f"({total} critical tokens at delta={config.delta})"
    )


def stage_pipeline(config: RunConfig) -> int:
    stage_parse(config)
    stage_extract(config)
    stage_slice(config)
    stage_vectorize(config)
    stage_label(config)
    stage_train(config)
    code = stage_detect(config)
    stage_evaluate(config)
    stage_explain(config)
    return code


# --------------------------------------------------------------------------
# argument handling
# --------------------------------------------------------------------------


def _env(name: str, default=None):
    """VULNSLICE_<name>, or ``default`` when it is unset or empty."""
    return os.environ.get(ENV_PREFIX + name) or default


_SWITCH_WORDS = {
    **dict.fromkeys(("1", "true", "yes", "on"), True),
    **dict.fromkeys(("0", "false", "no", "off"), False),
}


def _switch(value: str) -> bool:
    try:
        return _SWITCH_WORDS[value.lower()]
    except KeyError:
        raise argparse.ArgumentTypeError(
            f"invalid switch value {value!r} (use 1/true/yes/on or 0/false/no/off)"
        ) from None


class _SwitchAction(argparse.Action):
    """A flag that takes no value. argparse converts a string default
    (from a VULNSLICE_* variable) with the type, as for any other flag."""

    def __init__(self, option_strings, dest, **kwargs):
        super().__init__(option_strings, dest, nargs=0, type=_switch, **kwargs)

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, True)


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vulnslice",
        description=(
            "Slice-based vulnerability candidate extraction and BGRU "
            "detection for a C subset."
        ),
    )
    sub = parser.add_subparsers(dest="stage", required=True)
    stages = [
        "parse",
        "extract",
        "slice",
        "vectorize",
        "label",
        "train",
        "detect",
        "evaluate",
        "explain",
        "pipeline",
    ]
    for name in stages:
        p = sub.add_parser(name, help=f"run the {name} stage")
        p.add_argument(
            "--manifest",
            default=_env("MANIFEST"),
            required=_env("MANIFEST") is None,
            help="corpus manifest (json)",
        )
        p.add_argument("--out", default=_env("OUT", "out"), help="artifact directory")
        p.add_argument("--seed", type=int, default=_env("SEED", "0"))
        p.add_argument(
            "--theta", type=int, default=_env("THETA"),
            help="total vector length (defaults to preset seq_len * dim)",
        )
        p.add_argument("--dim", type=int, default=_env("DIM"), help="embedding dimension")
        p.add_argument(
            "--kinds",
            default=_env("KINDS", ",".join(ALL_KINDS)),
            help="comma-separated SyVC kinds (FC,AU,PU,AE)",
        )
        p.add_argument(
            "--preset",
            choices=sorted(PRESETS),
            default=_env("PRESET", "desk"),
        )
        p.add_argument("--threshold", type=float, default=_env("THRESHOLD"))
        p.add_argument(
            "--strict-review",
            action=_SwitchAction,
            default=_env("STRICT_REVIEW", "0"),
            help="drop needs-review samples from training",
        )
        p.add_argument("--fc-list", default=_env("FC_LIST"))
        p.add_argument(
            "--embed-mode",
            choices=[MODE_SKIPGRAM, MODE_HASH],
            default=_env("EMBED_MODE", MODE_SKIPGRAM),
        )
        p.add_argument("--epochs", type=int, default=_env("EPOCHS"))
        p.add_argument("--hidden", type=int, default=_env("HIDDEN"))
        p.add_argument("--layers", type=int, default=_env("LAYERS"))
        p.add_argument(
            "--deps",
            choices=["ddcd", "dd"],
            default=_env("DEPS", "ddcd"),
            help="backward-slice dependences: data+control or data only",
        )
        p.add_argument(
            "--delta", type=float, default=_env("DELTA", "0.6"),
            help="activation jump for critical tokens (explain stage)",
        )
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    # every flag's dest is the name of its RunConfig field
    values = {f.name: getattr(args, f.name) for f in fields(RunConfig)}
    values["kinds"] = tuple(k.strip() for k in args.kinds.split(",") if k.strip())
    return RunConfig(**values)


STAGE_FUNCS = {
    "parse": stage_parse,
    "extract": stage_extract,
    "slice": stage_slice,
    "vectorize": stage_vectorize,
    "label": stage_label,
    "train": stage_train,
    "evaluate": stage_evaluate,
    "explain": stage_explain,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
        os.makedirs(config.out, exist_ok=True)
        if args.stage not in NUMPY_FREE_STAGES:
            _bind_lazy_names()
        if args.stage == "pipeline":
            return stage_pipeline(config)
        if args.stage == "detect":
            return stage_detect(config)
        STAGE_FUNCS[args.stage](config)
        return EXIT_OK
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:  # domain errors also exit 2, with their type
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
