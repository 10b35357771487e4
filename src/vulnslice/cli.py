"""The ``vulnslice`` command: pipeline stages over persistent artifacts.

Stages read their predecessor's artifact files from the output
directory and write their own atomically:

    parse     -> ast.jsonl, parse_report.json
    extract   -> syvc.jsonl
    slice     -> sevc.jsonl, slice_report.json
    vectorize -> embeddings.json, vectors.bin (+ .idx),
                 vectorize_report.json
    label     -> labels.jsonl, review.jsonl
    train     -> checkpoint.bin, train_report.json
    detect    -> detect.jsonl (exit code 1 when anything is flagged)
    evaluate  -> metrics.json (from detect.jsonl, labels.jsonl and
                 train_report.json)
    explain   -> explain.jsonl (from detect.jsonl and sevc.jsonl)
    pipeline  -> all of the above in order

parse writes the lines frontend.dump_ast formats, one per AST node of
each function in pre-order, through artifacts.write_jsonl_lines; the
other JSONL artifacts are records that artifacts.write_jsonl encodes.
A syvc, sevc, labels or detect record is its dataclass, written as its
fields; the dataclass's from_record (cls(**record)) reads it back, and
a missing or unknown key is refused by name.

One root seed drives every stochastic stage and is recorded in every
artifact header. One argument parser reads the stage, a positional, and
the flags every stage shares, one per RunConfig field. Flags can also
be set through VULNSLICE_* environment variables (e.g. VULNSLICE_SEED=7
mirrors --seed 7). An empty variable counts as unset, and a bad value is
a usage error (exit 2), as it would be on the command line.

detect is the one stage that scores samples. It records, for each
finding, the BGRU's activation output at every kept symbol, and in its
header the threshold it applied. A finding's activations are those of
its sample scored alone (bgru.bgru_forward), bit for bit at the desk
preset's shapes (see the bgru module docstring): they do not depend on
the other samples in vectors.bin. evaluate counts exactly those
findings as its positive predictions and needs no activations; explain
explains the findings from their activations. Both take detect's
threshold; an explicit --threshold that differs from it is an error
(exit 2) that asks to re-run detect with it.

vectorize skips a SeVC whose anchor statement cannot fit the symbol
window and lists it in vectorize_report.json; detect does not score it,
so evaluate counts it as not flagged.

The corpus stages stream, so their peak memory is that of one program,
not of the corpus. parse, extract and slice parse one program at a time
and drop it before the next. vectorize, label and explain read
sevc.jsonl one program's records at a time (artifacts.iter_jsonl),
parse that program again and drop both before the next; records of one
program apart, or a statement the parse lacks or reads otherwise, mean
a stale sevc.jsonl.
A SeVC holds no tokens: vectorize and explain symbolize it from its
program's parse, and keep only the symbol streams. vectorize writes
each vector as it is encoded; explain builds only the flagged SeVCs.
detect keeps only each SeVC's files, lines and functions, and reads
vectors.bin one record at a time (vectorize.iter_vectors) into
bgru.forward_batch, which keeps only the trimmed rows of each distinct
input. Vectors stay float32 from the store until forward_batch copies a
chunk's rows into its float64 buffer; float32 to float64 is exact, so
the traces are those of a float64 copy bit for bit.

labels.jsonl is the one record of each SeVC's label and review flag,
and train_report.json of the program split that train draws: evaluate
scores every labeled SeVC of a program train did not train on.

A stage process imports only the layers its stage runs. ``import
vulnslice.cli`` loads artifacts and presets alone. Stage code reads each
layer name as an attribute of this module (``_layers.build_pdgs``), and
the module ``__getattr__`` imports the layer on the first such read:

    parse     frontend
    extract   frontend, candidates
    slice     frontend, candidates, graphs, slicing (with symbols)
    vectorize frontend, candidates, symbols, embeddings, vectorize
    label     frontend, symbols, labeling
    train     vectorize (with symbols), bgru, evaluation
    detect    vectorize (with symbols), bgru
    evaluate  evaluation
    explain   frontend, candidates, symbols
    pipeline  each of them, in the first stage that reads it

So only vectorize, train, detect and evaluate import numpy (through
embeddings, vectorize, bgru and evaluation), and train, detect and
evaluate, which parse nothing, load no frontend: symbols takes the
token kinds and roles from the small lexicon module. The stages that
read sevc.jsonl decode it into symbols.SeVC, so they load neither the
PDG builder nor the slicer. Only vectorize and train, which derive
seeds, load hashlib (and with it OpenSSL).

main runs a stage, or the pipeline, with automatic cyclic garbage
collection off, and restores the caller's setting when it returns. A
parse pass allocates tens of thousands of tokens and AST nodes that
live until the stage ends, and the collector would re-walk them all,
at about a third of the pass's time, to free nothing. Freeing stays
with reference counting, which is enough because stage data holds no
reference cycles: the cyclic garbage a stage leaves is the same few
objects (the argument parser's) whatever the corpus size, and
tests/test_cli.py::test_stage_data_leaves_no_cyclic_garbage enforces it.

The same holds at interpreter exit: main registers gc.freeze with
atexit (once, however often it runs), so every object still alive
moves to the permanent generation, which the collections CPython runs
while it tears down modules never walk; reference counting still
frees what the teardown releases, and the stages close their files
with ``with``. On a 2-vCPU VM the exit of a scan stage process on a
250-program corpus went from 8-17 ms to 2-4 ms (tools/stage_rss.py
splits each process's wall time). It is an exit handler, not the end
of main, because a caller that runs main in process (a test,
tools/stage_profile.py, perfbench/child.py) keeps collecting cycles
after it returns; gc.disable() would not do, as finalization collects
regardless, and os._exit would skip the other exit handlers and the
flushes of open files.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import importlib
import itertools
import json
import os
import stat
import sys
from collections.abc import Callable, Container, Iterator
from dataclasses import MISSING, dataclass, field, fields, replace
from typing import TYPE_CHECKING

from . import artifacts
from .artifacts import StageError, derive_seed
from .presets import ALL_KINDS, MODE_HASH, MODE_SKIPGRAM, PRESETS, Hyperparams

if TYPE_CHECKING:
    from .candidates import CharacteristicSet, SyVC
    from .frontend import ProgramModel
    from .symbols import SeVC

# Every layer name the stages use, as name -> "module:attribute" in this
# package. Module __getattr__ resolves them on first access, and stage
# code reads them as _layers.<name>, so getattr(cli, name) and patches by
# name work as for an eager import, and a stage process imports only the
# layers it reads. predict and bgru_forward stay here although the
# stages use forward_batch: perfbench/child.py wraps them by name.
LAZY_NAMES = {
    "load_program": "frontend:load_program",
    "dump_ast": "frontend:dump_ast",
    "CharacteristicSet": "candidates:CharacteristicSet",
    "SyVC": "candidates:SyVC",
    "default_fc_calls": "candidates:default_fc_calls",
    "extract_syvcs": "candidates:extract_syvcs",
    "load_fc_calls": "candidates:load_fc_calls",
    "GraphError": "graphs:GraphError",
    "build_call_graph": "graphs:build_call_graph",
    "build_pdgs": "graphs:build_pdgs",
    "SeVC": "symbols:SeVC",
    "SliceConsistencyError": "slicing:SliceConsistencyError",
    "assemble_sevc": "slicing:assemble_sevc",
    "interprocedural_slices": "slicing:interprocedural_slices",
    "MARK_DELETED": "labeling:MARK_DELETED",
    "apply_labels": "labeling:apply_labels",
    "mark_lines": "labeling:mark_lines",
    "parse_diff": "labeling:parse_diff",
    "review_queue": "labeling:review_queue",
    "ActivationTrace": "symbols:ActivationTrace",
    "EncodingError": "symbols:EncodingError",
    "symbolize": "symbols:symbolize",
    "truncation_window": "symbols:truncation_window",
    "explain_trace": "symbols:explain",
    "train_model": "bgru:train",
    "forward_batch": "bgru:forward_batch",
    "load_checkpoint": "bgru:load_checkpoint",
    "save_checkpoint": "bgru:save_checkpoint",
    "predict": "bgru:predict",
    "bgru_forward": "bgru:bgru_forward",
    "encode": "vectorize:encode",
    "save_vectors": "vectorize:save_vectors",
    "load_vectors": "vectorize:load_vectors",
    "iter_vectors": "vectorize:iter_vectors",
    "train_embeddings": "embeddings:train_embeddings",
    "hash_table": "embeddings:hash_table",
    "compute_metrics": "evaluation:compute_metrics",
    "count_confusion": "evaluation:count_confusion",
    "format_metrics_table": "evaluation:format_metrics_table",
    "split_by_program": "evaluation:split_by_program",
}


def __getattr__(name: str):
    target = LAZY_NAMES.get(name)
    if target is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module, attribute = target.split(":")
    value = getattr(importlib.import_module(f".{module}", __package__), attribute)
    globals()[name] = value
    return value


# this module, through whose __getattr__ stage code reads layer names
_layers = sys.modules[__name__]


ENV_PREFIX = "VULNSLICE_"

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_ERROR = 2


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


def _delta(value: str) -> float:
    delta = float(value)
    if not delta > 0:  # NaN too: at 0 or below every token would be critical
        raise argparse.ArgumentTypeError(f"invalid delta {value!r} (must be positive)")
    return delta


def _seed(value: str) -> int:
    problem = f"invalid seed {value!r} (must be an integer from 0 to 2**64 - 1)"
    try:
        seed = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(problem) from None
    if not 0 <= seed < 2**64:  # vectors.bin's header stores it as a uint64
        raise argparse.ArgumentTypeError(problem)
    return seed


def _kinds(value: str) -> tuple[str, ...]:
    kinds = tuple(k.strip() for k in value.split(",") if k.strip())
    if not kinds:
        raise argparse.ArgumentTypeError(f"invalid kind list {value!r} (names no kind)")
    unknown = [k for k in kinds if k not in ALL_KINDS]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"invalid kind list {value!r} (unknown {', '.join(unknown)}; "
            f"use {', '.join(ALL_KINDS)})"
        )
    repeated = sorted({k for k in kinds if kinds.count(k) > 1})
    if repeated:
        raise argparse.ArgumentTypeError(
            f"invalid kind list {value!r} (repeats {', '.join(repeated)})"
        )
    return kinds


class _SwitchAction(argparse.Action):
    """A flag that takes no value. argparse converts a string default
    (from a VULNSLICE_* variable) with the type, as for any other flag."""

    def __init__(self, option_strings, dest, **kwargs):
        super().__init__(option_strings, dest, nargs=0, type=_switch, **kwargs)

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, True)


@dataclass
class RunConfig:
    """One run's settings. Each field is the flag ``--name-with-dashes``
    and the variable ``VULNSLICE_NAME``; its metadata holds the flag's
    other argparse keywords. A field without a default is required."""

    manifest: str = field(metadata={"help": "corpus manifest (json)"})
    out: str = field(default="out", metadata={"help": "artifact directory"})
    seed: int = field(default=0, metadata={"type": _seed})
    theta: int | None = field(default=None, metadata={
        "type": int, "help": "total vector length (defaults to preset seq_len * dim)"})
    dim: int | None = field(
        default=None, metadata={"type": int, "help": "embedding dimension"})
    kinds: tuple[str, ...] = field(default=ALL_KINDS, metadata={
        "type": _kinds, "help": "comma-separated SyVC kinds (FC,AU,PU,AE)"})
    preset: str = field(default="desk", metadata={"choices": sorted(PRESETS)})
    threshold: float | None = field(default=None, metadata={
        "type": float,
        "help": "flag at this probability or above (default: the checkpoint's); "
        "evaluate and explain take detect's and refuse a different one"})
    strict_review: bool = field(default=False, metadata={
        "action": _SwitchAction, "help": "drop needs-review samples from training"})
    fc_list: str | None = None
    embed_mode: str = field(
        default=MODE_SKIPGRAM, metadata={"choices": [MODE_SKIPGRAM, MODE_HASH]})
    epochs: int | None = field(default=None, metadata={"type": int})
    hidden: int | None = field(default=None, metadata={"type": int})
    layers: int | None = field(default=None, metadata={"type": int})
    deps: str = field(default="ddcd", metadata={
        "choices": ["ddcd", "dd"],
        "help": "backward-slice dependences: data+control or data only"})
    delta: float = field(default=0.6, metadata={
        "type": _delta, "help": "activation jump for critical tokens (explain stage)"})

    def hyperparams(self) -> Hyperparams:
        """The run's BGRU settings, with the preset's seed: only train
        draws from one, and it derives its own. Each flag value that
        ``Hyperparams`` would refuse is a ``StageError`` that names it."""
        base = PRESETS[self.preset]
        dim = self.dim if self.dim is not None else base.input_dim
        theta = self.theta if self.theta is not None else base.seq_len * dim
        positive = {"dimension": dim, "theta": theta, "hidden": self.hidden,
                    "layers": self.layers, "epochs": self.epochs}
        for flag, value in positive.items():
            if value is not None and value < 1:
                raise StageError(f"{flag}={value} must be positive")
        if self.threshold is not None and not 0.0 < self.threshold < 1.0:
            raise StageError(f"threshold={self.threshold} must be in (0, 1)")
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
            **{name: value for name, value in overrides.items() if value is not None},
        )

    def characteristic_set(self) -> CharacteristicSet:
        calls = (
            _layers.load_fc_calls(self.fc_list)
            if self.fc_list is not None
            else _layers.default_fc_calls()
        )
        return _layers.CharacteristicSet(fc_calls=calls, enabled=self.kinds)

    def path(self, name: str) -> str:
        return os.path.join(self.out, name)


# an annotated program's class; a "good" one lists no vulnerable lines
PROGRAM_CLASSES = ("good", "bad", "mixed")


@dataclass
class ManifestProgram:
    path: str  # relative program id
    source_paths: list[str]  # absolute source files
    files: list[str]  # the same files, manifest-relative
    program_class: str | None = None
    vulnerable_lines: tuple[int, ...] = ()
    diff_path: str | None = None


def _text(record: dict, key: str, where: str) -> str | None:
    value = record.get(key)
    if value is not None and not isinstance(value, str):
        raise StageError(f"{where}: {key!r} must be a string")
    return value


def load_manifest(path: str) -> list[ManifestProgram]:
    """A corpus manifest's programs. A malformed manifest is a StageError
    that names the file and, where there is one, the program record."""
    if not os.path.exists(path):
        raise StageError(f"manifest not found: {path}")
    with open(path, "r", encoding="utf-8") as handle:
        try:
            raw = json.load(handle)
        except ValueError as exc:
            raise StageError(f"manifest {path} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict) or not isinstance(raw.get("programs", []), list):
        raise StageError(f"manifest {path} must be a JSON object with a 'programs' list")
    base = os.path.dirname(os.path.abspath(path))
    corpus_root = _text(raw, "corpus_root", f"manifest {path}") or "."
    root = os.path.normpath(os.path.join(base, corpus_root))
    if "fc_list" in raw:
        raise StageError(f"manifest {path} names an 'fc_list'; pass that file with --fc-list")
    programs = []
    owners: dict[str, int] = {}  # manifest-relative source file -> its record
    for number, record in enumerate(raw.get("programs", [])):
        where = f"manifest {path}, programs[{number}]"
        if not isinstance(record, dict) or _text(record, "path", where) is None:
            raise StageError(f"{where}: a program record needs a 'path' string")
        lines = record.get("vulnerable_lines", [])
        if not isinstance(lines, list) or not all(type(n) is int for n in lines):
            raise StageError(f"{where}: 'vulnerable_lines' must be a list of line numbers")
        program_class = _text(record, "class", where)
        if program_class not in (None, *PROGRAM_CLASSES):
            raise StageError(
                f"{where}: 'class' must be one of {', '.join(PROGRAM_CLASSES)}, "
                f"not {program_class!r}"
            )
        if program_class == "good" and lines:
            raise StageError(f"{where}: a 'good' program cannot list 'vulnerable_lines'")
        rel = record["path"]
        full = os.path.join(root, rel)
        try:
            is_dir = stat.S_ISDIR(os.stat(full).st_mode)
        except (OSError, ValueError):
            raise StageError(f"manifest program does not exist: {full}") from None
        # named from the corpus root: relpath (two abspath calls) only for
        # a path that leaves the root, since within it the two agree
        name = os.path.normpath(rel)
        if os.path.isabs(name) or name == os.pardir or name.startswith(os.pardir + os.sep):
            name = os.path.relpath(full, root)
        if is_dir:
            # its regular files with a C suffix, and broken links, which load_program
            # names unreadable; no FIFO or link to one: open would block on it
            names = sorted(
                entry.name
                for entry in os.scandir(full)
                if entry.name.endswith((".c", ".cpp", ".h"))
                and (entry.is_file() or entry.is_symlink() and not os.path.exists(entry.path))
            )
            if not names:
                raise StageError(f"manifest program has no C sources: {full}")
            sources = [os.path.join(full, n) for n in names]
            files = [os.path.normpath(os.path.join(name, n)) for n in names]
        else:
            sources, files = [full], [name]
        for rel_file in files:
            first = owners.setdefault(rel_file, number)
            if first != number:  # it would be labeled, and sliced, twice
                raise StageError(
                    f"manifest {path}: programs[{first}] and programs[{number}] "
                    f"both hold the source file {rel_file}"
                )
        diff_path = None
        if _text(record, "diff", where):
            diff_path = os.path.join(root, record["diff"])
            if not os.path.exists(diff_path):
                raise StageError(f"manifest diff does not exist: {diff_path}")
        programs.append(
            ManifestProgram(
                path=rel,
                source_paths=sources,
                files=files,
                program_class=program_class,
                vulnerable_lines=tuple(lines),
                diff_path=diff_path,
            )
        )
    if not programs:
        raise StageError(f"manifest lists no programs: {path}")
    return programs


def _parse_program(prog: ManifestProgram) -> ProgramModel:
    # manifest-relative file names keep artifacts portable
    return _layers.load_program(prog.source_paths, name=prog.path, names=prog.files)


def _parse_programs(programs: list[ManifestProgram]) -> Iterator[ProgramModel]:
    """Each manifest program parsed, one at a time, in manifest order."""
    return map(_parse_program, programs)


def _program_named(
    programs: list[ManifestProgram], artifact: str, stage: str
) -> Callable[[str], ManifestProgram]:
    """A lookup of manifest programs by name that refuses a name the
    manifest does not hold: ``artifact`` is stale, and ``stage`` rewrites it."""
    by_name = {prog.path: prog for prog in programs}

    def lookup(name: str) -> ManifestProgram:
        prog = by_name.get(name)
        if prog is None:
            raise StageError(
                f"{artifact} references unknown program {name!r}; "
                f"re-run the '{stage}' stage"
            )
        return prog

    return lookup


def _ground_truth(programs: list[ManifestProgram]) -> dict[str, dict[int, str]]:
    """labeling's file -> {pre-patch line: mark} map, over every source file."""
    truth: dict[str, dict[int, str]] = {}
    for prog in programs:
        if prog.diff_path is None:
            if prog.program_class is None:
                raise StageError(
                    f"program {prog.path} needs either a class or a diff"
                )
            for rel in prog.files:
                truth[rel] = dict.fromkeys(prog.vulnerable_lines, _layers.MARK_DELETED)
            continue
        with open(prog.diff_path, "r", encoding="utf-8") as handle:
            marks = _layers.parse_diff(handle.read())
        if not marks:
            raise StageError(
                f"program {prog.path}: its diff only adds lines, "
                "so it marks no vulnerable line"
            )
        owner = {}  # the diff's file name -> the program's source file
        names = list(dict.fromkeys(mark.file for mark in marks))
        for name in names:
            # a one-file diff of a one-file program may name it anything
            matches = prog.files if len(prog.files) == len(names) == 1 else [
                rel for rel in prog.files if rel == name or rel.endswith("/" + name)
            ]
            if len(matches) != 1:
                raise StageError(
                    f"program {prog.path}: diff file {name} matches "
                    f"{len(matches)} of its source files, not 1"
                )
            owner[name] = matches[0]
        for rel in prog.files:
            truth[rel] = _layers.mark_lines(
                mark for mark in marks if owner[mark.file] == rel
            )
    return truth


# --------------------------------------------------------------------------
# stages
# --------------------------------------------------------------------------


def stage_parse(config: RunConfig) -> None:
    programs = load_manifest(config.manifest)
    ast_lines = []
    diagnostics = []
    functions = statements = 0
    for model in _parse_programs(programs):  # each model is dropped once dumped
        ast_lines.extend(_layers.dump_ast(model))
        for diag in model.diagnostics:
            diagnostics.append(
                {"program": model.name, "file": diag.file, "line": diag.line,
                 "message": diag.message}
            )
        functions += len(model.functions)
        statements += sum(len(f.all_statements()) for f in model.functions)
    artifacts.write_jsonl_lines(
        config.path("ast.jsonl"), "ast-dump", config.seed, ast_lines
    )
    artifacts.write_json(
        config.path("parse_report.json"),
        {
            "seed": config.seed,
            "programs": len(programs),
            "functions": functions,
            "statements": statements,
            "diagnostics": diagnostics,
        },
    )
    print(
        f"parsed {len(programs)} programs: {functions} functions, "
        f"{statements} statements, {len(diagnostics)} diagnostics"
    )


def stage_extract(config: RunConfig) -> None:
    artifacts.require(config.path("parse_report.json"), "parse")
    programs = load_manifest(config.manifest)
    cset = config.characteristic_set()
    records = []
    for model in _parse_programs(programs):
        # ids are per-program at extraction; renumber corpus-wide so
        # downstream artifacts can join on them
        first = len(records)
        records.extend(
            {**vars(syvc), "id": first + i}
            for i, syvc in enumerate(_layers.extract_syvcs(model, cset))
        )
    artifacts.write_jsonl(
        config.path("syvc.jsonl"), "syvc", config.seed, records
    )
    by_kind: dict[str, int] = {}
    for r in records:
        by_kind[r["kind"]] = by_kind.get(r["kind"], 0) + 1
    summary = ", ".join(f"{k}={by_kind.get(k, 0)}" for k in config.kinds)
    print(f"extracted {len(records)} SyVCs ({summary})")


def stage_slice(config: RunConfig) -> None:
    _, syvcs = artifacts.read_jsonl(
        config.path("syvc.jsonl"), "syvc", "extract", _layers.SyVC.from_record
    )
    program_named = _program_named(load_manifest(config.manifest), "syvc.jsonl", "extract")
    by_program: dict[str, list[SyVC]] = {}
    for syvc in syvcs:
        by_program.setdefault(syvc.program, []).append(syvc)
    sevcs = []
    diagnostics = set()  # slice_report.json: (program, message) of unresolved calls
    skipped = []  # slice_report.json: what could not be sliced, and why
    graph_diagnostics = []  # slice_report.json: e.g. dead code the CFG pruned

    def skip(program: str, syvc_id: int | None, exc: Exception) -> None:
        skipped.append({"program": program, "syvc_id": syvc_id, "message": str(exc)})

    for program_name in sorted(by_program):  # one parsed program at a time
        model = _parse_program(program_named(program_name))
        try:
            pdgs = _layers.build_pdgs(model)
        except _layers.GraphError as exc:
            # without one function's PDG its callers' slices would stop
            # short, so the whole program is skipped
            skip(program_name, None, exc)
            continue
        if config.deps == "dd":
            pdgs = {
                idx: replace(p, edges=[e for e in p.edges if e.kind == "data"])
                for idx, p in pdgs.items()
            }
        for fn in model.functions:
            graph_diagnostics.extend(
                {"program": program_name, "function": fn.name, "message": message}
                for message in pdgs[fn.index].diagnostics
            )
        call_graph = _layers.build_call_graph(model)
        for syvc in by_program[program_name]:
            try:
                slice_ = _layers.interprocedural_slices(model, call_graph, pdgs, syvc)
                sevc = _layers.assemble_sevc(model, slice_, syvc, call_graph)
            except _layers.SliceConsistencyError as exc:
                skip(program_name, syvc.id, exc)
                continue
            diagnostics.update((program_name, message) for message in slice_.diagnostics)
            sevcs.append(sevc)
    artifacts.write_jsonl(config.path("sevc.jsonl"), "sevc", config.seed, sevcs)
    artifacts.write_json(
        config.path("slice_report.json"),
        {
            "seed": config.seed,
            "programs": len(by_program),
            "sevcs": len(sevcs),
            "skipped": skipped,
            "graph_diagnostics": graph_diagnostics,
            "slice_diagnostics": [
                {"program": program, "message": message}
                for program, message in sorted(diagnostics)
            ],
        },
    )
    print(
        f"sliced {len(sevcs)} SeVCs "
        f"({len(diagnostics)} distinct slice diagnostics, "
        f"{len(skipped)} skipped)"
    )


def _sevcs_by_program(
    config: RunConfig, wanted: Container[int] | None = None
) -> Iterator[tuple[ProgramModel, list[SeVC]]]:
    """sevc.jsonl's SeVCs, one program at a time: for each program's
    records, in file order, parse the program and yield it with its
    SeVCs. ``wanted`` limits the SeVCs built to those syvc ids; every
    program is parsed all the same."""
    program_named = _program_named(load_manifest(config.manifest), "sevc.jsonl", "slice")
    _, all_sevcs = artifacts.iter_jsonl(
        config.path("sevc.jsonl"), "sevc", "slice", _layers.SeVC.from_record
    )
    done = set()
    for name, group in itertools.groupby(all_sevcs, key=lambda sevc: sevc.program):
        if name in done:
            raise StageError(
                f"sevc.jsonl holds the records of program {name!r} apart from "
                "each other; re-run the 'slice' stage"
            )
        done.add(name)
        model = _parse_program(program_named(name))
        index = model.statement_index()
        sevcs = []
        for sevc in group:
            if wanted is not None and sevc.syvc_id not in wanted:
                continue
            for s in sevc.statements:
                st = index.get(s.statement_id)
                # an edit can keep every id, so the text is compared too
                if st is None or st.text != s.text:
                    held, reads = (
                        ("", "does not") if st is None
                        else (f" as {s.text!r}", f"now reads as {st.text!r}")
                    )
                    raise StageError(
                        f"sevc.jsonl out of sync with sources: SyVC {sevc.syvc_id} holds "
                        f"statement {s.statement_id}{held}, which program {name!r} "
                        f"{reads}; re-run the 'slice' stage"
                    )
            sevcs.append(sevc)
        yield model, sevcs


def stage_vectorize(config: RunConfig) -> None:
    hp = config.hyperparams()  # a bad flag fails before the corpus is parsed
    cset = config.characteristic_set()
    # only the symbol streams outlive each program's parse
    symbolic = [
        _layers.symbolize(sevc, model, cset)
        for model, sevcs in _sevcs_by_program(config)
        for sevc in sevcs
    ]
    if not symbolic:
        raise StageError("no SeVCs to vectorize; check the 'slice' stage output")
    d = hp.input_dim
    theta = hp.theta
    embed_seed = derive_seed(config.seed, "embeddings")
    if config.embed_mode == MODE_HASH:
        table = _layers.hash_table(d, embed_seed)
    else:
        table = _layers.train_embeddings(
            [sym.symbols for sym in symbolic], dimension=d, seed=embed_seed
        )
    table.save(config.path("embeddings.json"))
    fits = []
    skipped = []  # vectorize_report.json: SeVCs whose anchor the window cuts
    for sym in symbolic:
        try:
            # the window encode will cut: a SeVC it cannot encode is skipped
            _layers.truncation_window(
                len(sym.symbols), sym.anchor_lo, sym.anchor_hi, hp.seq_len
            )
        except _layers.EncodingError as exc:
            skipped.append(
                {"program": sym.program, "syvc_id": sym.syvc_id, "message": str(exc)}
            )
            continue
        fits.append(sym)
    artifacts.write_json(
        config.path("vectorize_report.json"),
        {"seed": config.seed, "vectors": len(fits), "skipped": skipped},
    )
    if not fits:
        raise StageError("no SeVC could be vectorized; see vectorize_report.json")
    # each vector is written as it is encoded: the store is never in memory
    _layers.save_vectors(
        config.path("vectors.bin"),
        (_layers.encode(sym, table, theta) for sym in fits),
        config.seed,
    )
    print(
        f"vectorized {len(fits)} SeVCs (theta={theta}, d={d}, "
        f"mode={config.embed_mode})"
        + (f", {len(skipped)} skipped" if skipped else "")
    )


def stage_label(config: RunConfig) -> None:
    truth = _ground_truth(load_manifest(config.manifest))
    label_records = []
    queue = []
    for _, sevcs in _sevcs_by_program(config):  # each program's SeVCs as they stream
        labels = _layers.apply_labels(sevcs, truth)
        label_records.extend(
            _Label(sevc.syvc_id, sevc.program, label, needs_review)
            for sevc, (label, needs_review) in zip(sevcs, labels)
        )
        queue.extend(_layers.review_queue(sevcs, labels))
    artifacts.write_jsonl(
        config.path("labels.jsonl"), "labels", config.seed, label_records
    )
    artifacts.write_jsonl(
        config.path("review.jsonl"), "review-queue", config.seed, queue
    )
    positive = sum(r.label for r in label_records)
    review = sum(r.needs_review for r in label_records)
    print(
        f"labeled {len(label_records)} SeVCs: {positive} vulnerable, "
        f"{len(queue)} in review.jsonl, {review} needing review"
    )


@dataclass
class _Label:
    """A labels.jsonl record."""

    syvc_id: int
    program: str
    label: int
    needs_review: bool

    def __post_init__(self):
        if self.label not in (0, 1):
            raise ValueError(f"label {self.label!r} is not 0 or 1")

    @classmethod
    def from_record(cls, record: dict) -> _Label:
        return cls(**record)


def _labels(config: RunConfig) -> list[_Label]:
    """Every labels.jsonl record; a malformed one asks to re-run label."""
    _, labels = artifacts.read_jsonl(
        config.path("labels.jsonl"), "labels", "label", _Label.from_record
    )
    return labels


def stage_train(config: RunConfig) -> None:
    hp = replace(config.hyperparams(), seed=derive_seed(config.seed, "train"))
    artifacts.require(config.path("vectors.bin"), "vectorize")
    samples, _ = _layers.load_vectors(config.path("vectors.bin"))
    for flag, held, wanted in (("--dim", samples[0].dimension, hp.input_dim),
                               ("--theta", samples[0].theta, hp.theta)):
        if held != wanted:
            raise StageError(
                f"vectors.bin holds vectors at {flag[2:]} {held}, not at {flag} "
                f"{wanted}; re-run the 'vectorize' stage with it"
            )
    labels = {r.syvc_id: r for r in _labels(config)}
    unlabeled = [s.syvc_id for s in samples if s.syvc_id not in labels]
    if unlabeled:
        raise StageError(f"no label for SyVC {unlabeled[0]}; re-run the 'label' stage")
    if config.strict_review:
        samples = [s for s in samples if not labels[s.syvc_id].needs_review]
    split_seed = derive_seed(config.seed, "split")
    train_side, test_side = _layers.split_by_program(samples, ratio=0.8, seed=split_seed)
    dataset = [(s, labels[s.syvc_id].label) for s in train_side]
    params, report = _layers.train_model(dataset, hp)
    _layers.save_checkpoint(config.path("checkpoint.bin"), params, config.seed)
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


def _finding_place(record: dict) -> tuple[int, tuple[list, list, list]]:
    """A sevc.jsonl record's SyVC id, with the SeVC's files, lines and
    functions: all a finding needs of it."""
    statements = record["statements"]
    return record["syvc_id"], (
        sorted({s["file"] for s in statements}),
        [s["line"] for s in statements],
        sorted({s["function"] for s in statements}),
    )


def stage_detect(config: RunConfig) -> int:
    artifacts.require(config.path("vectors.bin"), "vectorize")
    stored, _ = _layers.iter_vectors(config.path("vectors.bin"))
    _, places = artifacts.iter_jsonl(
        config.path("sevc.jsonl"), "sevc", "slice", _finding_place
    )
    where = dict(places)
    artifacts.require(config.path("checkpoint.bin"), "train")
    hp = config.hyperparams()
    params, _ = _layers.load_checkpoint(
        config.path("checkpoint.bin"), expect_theta=hp.theta, expect_dim=hp.input_dim
    )
    threshold = params.hp.threshold if config.threshold is None else config.threshold
    samples = []  # each sample's (syvc_id, kind, program), in store order

    def values():  # forward_batch reads each sample's values once, then drops them
        for sample in stored:
            samples.append((sample.syvc_id, sample.kind, sample.program))
            yield sample

    traces = _layers.forward_batch(values(), params, params.hp)
    stale = [syvc_id for syvc_id, _, _ in samples if syvc_id not in where]
    if stale:
        raise StageError(
            f"vectors.bin holds {len(stale)} SyVCs that sevc.jsonl does not "
            f"(first {stale[0]}); re-run the 'vectorize' stage"
        )
    findings = []
    for (syvc_id, kind, program), trace in zip(samples, traces):
        prob = trace.final
        if prob < threshold:
            continue
        files, lines, functions = where[syvc_id]
        findings.append(
            _Finding(
                syvc_id, kind, program, round(prob, 6), files, functions, lines,
                # the activation at every kept symbol; explain works from these
                trace.outputs.tolist(),
            )
        )
    artifacts.write_jsonl(
        config.path("detect.jsonl"), "detections", config.seed, findings,
        threshold=threshold,
    )
    for f in findings:
        print(
            f"FLAGGED syvc={f.syvc_id} kind={f.kind} "
            f"p={f.probability:.3f} program={f.program} "
            f"files={','.join(f.files)} functions={','.join(f.functions)} "
            f"lines={f.lines}"
        )
    print(f"{len(findings)} SeVCs flagged out of {len(samples)}")
    return EXIT_FINDINGS if findings else EXIT_OK


def _stale_detections(problem: str) -> StageError:
    return StageError(f"detect.jsonl {problem}; re-run the 'detect' stage")


@dataclass
class _Finding:
    """A detect.jsonl record."""

    syvc_id: int
    kind: str
    program: str
    probability: float
    files: list[str]
    functions: list[str]
    lines: list[int]
    activations: list[float] | None = None  # None when an older detect wrote it

    @classmethod
    def from_record(cls, record: dict) -> _Finding:
        return cls(**record)


def _detections(config: RunConfig, activations: bool = False) -> list[_Finding]:
    """detect.jsonl's findings, with their ``activations`` if asked; an
    old file or another --threshold is stale, and a malformed record
    asks to re-run detect."""
    header, findings = artifacts.read_jsonl(
        config.path("detect.jsonl"), "detections", "detect", _Finding.from_record
    )
    if activations and any(f.activations is None for f in findings):
        raise _stale_detections("holds no activations (written by an older detect)")
    threshold = header.get("threshold")
    if threshold is None:
        raise _stale_detections("holds no threshold (written by an older detect)")
    if config.threshold is not None and config.threshold != threshold:
        raise _stale_detections(
            f"flags at threshold {threshold}, not at --threshold {config.threshold}"
        )
    return findings


def stage_evaluate(config: RunConfig) -> None:
    flagged = {f.syvc_id for f in _detections(config)}
    label_records = _labels(config)
    if not flagged <= {r.syvc_id for r in label_records}:
        raise _stale_detections("flags a SyVC that labels.jsonl does not hold")
    # held out: every program train did not train on
    train_report = artifacts.read_json(
        config.path("train_report.json"), "train", keys=("train_programs",)
    )
    trained = set(train_report["train_programs"])
    test_side = [r for r in label_records if r.program not in trained]
    # detect scored every sample: its findings are the positive predictions
    predictions = [int(r.syvc_id in flagged) for r in test_side]
    counts = _layers.count_confusion(predictions, [r.label for r in test_side])
    report = _layers.compute_metrics(counts)
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
    print(_layers.format_metrics_table(report, counts))


def stage_explain(config: RunConfig) -> None:
    findings = _detections(config, activations=True)
    cset = config.characteristic_set()
    # only the flagged SeVCs are built, and symbolized while their program is parsed
    flagged = {finding.syvc_id for finding in findings}
    symbolic = {
        sevc.syvc_id: _layers.symbolize(sevc, model, cset)
        for model, sevcs in _sevcs_by_program(config, flagged)
        for sevc in sevcs
    }
    capacity = config.hyperparams().seq_len
    records = []
    for finding in findings:
        sym = symbolic.get(finding.syvc_id)
        if sym is None:
            raise _stale_detections(
                f"flags SyVC {finding.syvc_id}, which sevc.jsonl does not hold"
            )
        lo, hi = _layers.truncation_window(
            len(sym.symbols), sym.anchor_lo, sym.anchor_hi, capacity
        )
        trace = _layers.ActivationTrace(finding.activations)
        if len(trace.outputs) != hi - lo:
            raise _stale_detections(
                f"holds {len(trace.outputs)} activations for SyVC "
                f"{finding.syvc_id}, whose kept symbol window has {hi - lo}"
            )
        critical = _layers.explain_trace(trace, sym.symbols[lo:hi], delta=config.delta)
        records.append(
            {
                "syvc_id": finding.syvc_id,
                "program": finding.program,
                "probability": finding.probability,
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


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vulnslice",
        description=(
            "Slice-based vulnerability candidate extraction and BGRU "
            "detection for a C subset."
        ),
    )
    parser.add_argument("stage", help="the stage to run", choices=[
        "parse", "extract", "slice", "vectorize", "label",
        "train", "detect", "evaluate", "explain", "pipeline",
    ])
    for f in fields(RunConfig):
        default = _env(f.name.upper(), None if f.default is MISSING else f.default)
        parser.add_argument(
            "--" + f.name.replace("_", "-"),
            default=default,
            required=f.default is MISSING and default is None,
            **f.metadata,
        )
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    # every flag's dest is the name of its RunConfig field
    return RunConfig(**{f.name: getattr(args, f.name) for f in fields(RunConfig)})


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
    # no cyclic GC while a stage runs, nor over its leftovers at exit
    # (see the module docstring); re-registering keeps one handler
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    collecting = gc.isenabled()
    gc.disable()
    try:
        args = build_arg_parser().parse_args(argv)
        try:
            config = config_from_args(args)
            os.makedirs(config.out, exist_ok=True)
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
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
