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
A syvc, sevc, labels, detect or explain record is its dataclass,
written as its fields; the dataclass's from_record (cls(**record))
reads back those a later stage reads, and a missing or unknown key, a
sevc statement's too, is refused by name.

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

label labels each SeVC against the ground truth that labeling builds
from the manifest's classes, vulnerable lines and diffs, and refuses a
vulnerable line that holds no token in any file of its program: one
past the end of each, or blank, a comment or a preprocessor line (after
frontend.scrub) in each that reaches it. labels.jsonl is the one record
of each SeVC's label and review flag, and train_report.json of the
program split that train draws: evaluate scores every labeled SeVC of a
program train did not train on.

Each stage's body is a module of the stages package, and this module
reads each stage function as a lazy name (``cli.stage_parse`` is
``stages.parse.stage_parse``), so a stage process compiles and imports
this module, its own stage module and the layers its stage runs, and
``import vulnslice.cli`` loads artifacts and presets alone. Stage code
reads each layer name as an attribute of this module
(``cli.build_pdgs``), and the module ``__getattr__`` imports the layer
on the first such read:

    stage     stages.*           layers
    parse     parse              frontend
    extract   extract            frontend, candidates
    slice     slice              frontend, candidates, graphs, slicing (with symbols)
    vectorize vectorize, shared  frontend, candidates, symbols, embeddings, vectorize
    label     label, shared      frontend, symbols, labeling
    train     train, shared      vectorize (with symbols), bgru, evaluation
    detect    detect, shared     vectorize (with symbols), bgru
    evaluate  evaluate, shared   evaluation
    explain   explain, shared    frontend, candidates, symbols
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
import json
import os
import stat
import sys
from collections.abc import Callable, Iterator
from dataclasses import MISSING, dataclass, field, fields, replace
from typing import TYPE_CHECKING

from .artifacts import StageError
from .presets import ALL_KINDS, MODE_HASH, MODE_SKIPGRAM, PRESETS, Hyperparams

if TYPE_CHECKING:
    from .candidates import CharacteristicSet
    from .frontend import ProgramModel

# Every layer name the stages use, and each stage function, as name ->
# "module:attribute" in this package. Module __getattr__ resolves them on
# first access, and the stage modules read them as cli.<name> (this
# module as _layers.<name>), so getattr(cli, name) and patches by name
# work as for an eager import, and a stage process imports only its own
# stage module and the layers it reads. predict and bgru_forward stay
# here although the stages use forward_batch: perfbench/child.py wraps
# them by name.
LAZY_NAMES = {
    "load_program": "frontend:load_program",
    "dump_ast": "frontend:dump_ast",
    "CharacteristicSet": "candidates:CharacteristicSet",
    "SyVC": "candidates:SyVC",
    "extract_syvcs": "candidates:extract_syvcs",
    "load_fc_calls": "candidates:load_fc_calls",
    "GraphError": "graphs:GraphError",
    "build_call_graph": "graphs:build_call_graph",
    "build_pdgs": "graphs:build_pdgs",
    "SeVC": "symbols:SeVC",
    "SliceConsistencyError": "slicing:SliceConsistencyError",
    "assemble_sevc": "slicing:assemble_sevc",
    "interprocedural_slices": "slicing:interprocedural_slices",
    "apply_labels": "labeling:apply_labels",
    "ground_truth": "labeling:ground_truth",
    "review_queue": "labeling:review_queue",
    "ActivationTrace": "symbols:ActivationTrace",
    "EncodingError": "symbols:EncodingError",
    "symbolize": "symbols:symbolize",
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
    "scrub": "frontend:scrub",
    "LexError": "frontend:LexError",
    "stage_parse": "stages.parse:stage_parse",
    "stage_extract": "stages.extract:stage_extract",
    "stage_slice": "stages.slice:stage_slice",
    "stage_vectorize": "stages.vectorize:stage_vectorize",
    "stage_label": "stages.label:stage_label",
    "stage_train": "stages.train:stage_train",
    "stage_detect": "stages.detect:stage_detect",
    "stage_evaluate": "stages.evaluate:stage_evaluate",
    "stage_explain": "stages.explain:stage_explain",
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
        # without --fc-list, CharacteristicSet's own default list
        calls = {} if self.fc_list is None else {"fc_calls": _layers.load_fc_calls(self.fc_list)}
        return _layers.CharacteristicSet(enabled=self.kinds, **calls)

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
        if not isinstance(lines, list) or not all(type(n) is int and n > 0 for n in lines):
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


# --------------------------------------------------------------------------
# the pipeline; each stage's body is in its module under stages/
# --------------------------------------------------------------------------


def stage_pipeline(config: RunConfig) -> int:
    _layers.stage_parse(config)
    _layers.stage_extract(config)
    _layers.stage_slice(config)
    _layers.stage_vectorize(config)
    _layers.stage_label(config)
    _layers.stage_train(config)
    code = _layers.stage_detect(config)
    _layers.stage_evaluate(config)
    _layers.stage_explain(config)
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


# The stages main runs for their artifacts alone (detect and pipeline
# return an exit code). main calls the function a caller sets here, or
# else cli.stage_<name>: a lazy name, so importing cli imports no stage.
STAGE_FUNCS: dict[str, Callable[[RunConfig], None] | None] = dict.fromkeys(
    ("parse", "extract", "slice", "vectorize", "label", "train", "evaluate", "explain")
)


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
                return _layers.stage_detect(config)
            (STAGE_FUNCS[args.stage] or getattr(_layers, f"stage_{args.stage}"))(config)
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
    # python -m vulnslice.cli: the stage modules import this module by name
    sys.modules[f"{__package__}.cli"] = _layers
    sys.exit(main())
