"""CLI stage wiring: artifacts, exit codes, reproducibility."""

import builtins
import dis
import gc
import hashlib
import importlib
import inspect
import json
import os
import pkgutil
import re
import shutil
import subprocess
import sys
import tracemalloc
from dataclasses import fields

import pytest

from vulnslice import artifacts, bgru, cli
from vulnslice.artifacts import derive_seed
from vulnslice.bgru import forward_batch, load_checkpoint
from vulnslice.cli import main
from vulnslice.data import mini_corpus_manifest
from vulnslice.embeddings import EmbeddingTable, hash_vector
from vulnslice.evaluation import compute_metrics, count_confusion, split_by_program
from vulnslice.frontend import ProgramModel
from vulnslice.frontend import parser as frontend_parser
from vulnslice.stages import explain, shared
from vulnslice.vectorize import load_vectors, symbolize, truncation_window

from test_bgru_reference import reference_train
from test_embeddings import reference_train_embeddings
from test_vectorize import edit_index, empty_store, set_field

TINY_PROGRAMS = {
    "leak.c": (
        "void leak(char *input)\n"
        "{\n"
        "    char room[8];\n"
        "    strcpy(room, input);\n"
        "    printf(\"%s\", room);\n"
        "}\n"
    ),
    "guarded.c": (
        "void guarded(char *input)\n"
        "{\n"
        "    if (strlen(input) < 8)\n"
        "    {\n"
        "        char room[8];\n"
        "        strncpy(room, input, 8);\n"
        "        printf(\"%s\", room);\n"
        "    }\n"
        "}\n"
    ),
    "reader.c": (
        "void reader(void)\n"
        "{\n"
        "    char line[16];\n"
        "    gets(line);\n"
        "    puts(line);\n"
        "}\n"
    ),
    "safe_reader.c": (
        "void safe_reader(void)\n"
        "{\n"
        "    char line[16];\n"
        "    fgets(line, 16, stdin);\n"
        "    puts(line);\n"
        "}\n"
    ),
    "patched.c": (
        "void patched(char *next)\n"
        "{\n"
        "    char keep[8];\n"
        "    strncpy(keep, next, 8);\n"
        "    puts(keep);\n"
        "}\n"
    ),
}

PATCH_DIFF = """--- a/patched.c
+++ b/patched.c
@@ -2,5 +2,5 @@
 {
     char keep[8];
-    strcpy(keep, next);
+    strncpy(keep, next, 8);
     puts(keep);
"""


@pytest.fixture()
def corpus(tmp_path):
    root = tmp_path / "corpus"
    root.mkdir()
    for name, text in TINY_PROGRAMS.items():
        (root / name).write_text(text)
    (root / "patched.diff").write_text(PATCH_DIFF)
    manifest = {
        "corpus_root": ".",
        "programs": [
            {"path": "leak.c", "class": "bad", "vulnerable_lines": [4]},
            {"path": "guarded.c", "class": "good"},
            {"path": "reader.c", "class": "bad", "vulnerable_lines": [4]},
            {"path": "safe_reader.c", "class": "good"},
            {"path": "patched.c", "diff": "patched.diff"},
        ],
    }
    (root / "manifest.json").write_text(json.dumps(manifest))
    return root


def run(corpus_root, out, stage, *extra):
    return main(
        [
            stage,
            "--manifest",
            str(corpus_root / "manifest.json"),
            "--out",
            str(out),
            "--seed",
            "5",
            "--embed-mode",
            "hash",
            "--epochs",
            "4",
            *extra,
        ]
    )


def test_stage_sequencing_and_artifacts(tmp_path, corpus, capsys):
    out = tmp_path / "out"
    # stages demand their predecessors
    assert run(corpus, out, "extract") == 2
    assert "parse" in capsys.readouterr().err
    assert run(corpus, out, "parse") == 0
    assert run(corpus, out, "extract") == 0
    assert run(corpus, out, "slice") == 0
    assert run(corpus, out, "vectorize") == 0
    assert run(corpus, out, "label") == 0
    assert run(corpus, out, "train") == 0
    code = run(corpus, out, "detect")
    assert code in (0, 1)
    assert run(corpus, out, "evaluate") == 0
    assert run(corpus, out, "explain") == 0
    for name in [
        "ast.jsonl",
        "parse_report.json",
        "syvc.jsonl",
        "sevc.jsonl",
        "slice_report.json",
        "embeddings.json",
        "vectors.bin",
        "vectors.bin.idx",
        "labels.jsonl",
        "review.jsonl",
        "checkpoint.bin",
        "train_report.json",
        "detect.jsonl",
        "metrics.json",
        "explain.jsonl",
    ]:
        assert (out / name).exists(), name


def test_missing_artifact_message_names_stage(tmp_path, corpus, capsys):
    out = tmp_path / "out"
    assert run(corpus, out, "train") == 2
    err = capsys.readouterr().err
    assert "vectorize" in err or "label" in err


def test_extract_kind_filter(tmp_path, corpus, capsys):
    out = tmp_path / "out"
    run(corpus, out, "parse")
    assert run(corpus, out, "extract", "--kinds", "FC") == 0
    records = [
        json.loads(line)
        for line in (out / "syvc.jsonl").read_text().splitlines()[1:]
    ]
    assert records and all(r["kind"] == "FC" for r in records)


def test_diff_mode_labels(tmp_path, corpus):
    out = tmp_path / "out"
    for stage in ("parse", "extract", "slice", "vectorize", "label"):
        assert run(corpus, out, stage) == 0
    labels = {
        r["syvc_id"]: r
        for r in (
            json.loads(line)
            for line in (out / "labels.jsonl").read_text().splitlines()[1:]
        )
    }
    sevcs = [
        json.loads(line)
        for line in (out / "sevc.jsonl").read_text().splitlines()[1:]
    ]
    patched = [s for s in sevcs if s["program"] == "patched.c"]
    assert patched
    # the diff marks pre-patch line 4; SeVCs containing it are vulnerable
    for record in patched:
        lines = {s["line"] for s in record["statements"]}
        expected = 1 if 4 in lines else 0
        assert labels[record["syvc_id"]]["label"] == expected


def test_rerun_stage_byte_identical(tmp_path, corpus):
    out = tmp_path / "out"
    for stage in ("parse", "extract", "slice", "vectorize", "label", "train"):
        assert run(corpus, out, stage) == 0
    first = {}
    for name in ["syvc.jsonl", "sevc.jsonl", "vectors.bin", "checkpoint.bin"]:
        first[name] = (out / name).read_bytes()
    for stage in ("parse", "extract", "slice", "vectorize", "label", "train"):
        assert run(corpus, out, stage) == 0
    for name, payload in first.items():
        assert (out / name).read_bytes() == payload, name


def test_pipeline_equals_stage_by_stage(tmp_path, corpus):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert run(corpus, out_a, "pipeline") in (0, 1)
    for stage in (
        "parse",
        "extract",
        "slice",
        "vectorize",
        "label",
        "train",
        "detect",
        "evaluate",
        "explain",
    ):
        assert run(corpus, out_b, stage) in (0, 1)
    names = sorted(os.listdir(out_a))
    assert names == sorted(os.listdir(out_b))
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_env_variable_overrides(tmp_path, corpus, monkeypatch, capsys):
    out = tmp_path / "out"
    monkeypatch.setenv("VULNSLICE_MANIFEST", str(corpus / "manifest.json"))
    monkeypatch.setenv("VULNSLICE_OUT", str(out))
    monkeypatch.setenv("VULNSLICE_KINDS", "AU")
    assert main(["parse"]) == 0
    assert main(["extract"]) == 0
    records = [
        json.loads(line)
        for line in (out / "syvc.jsonl").read_text().splitlines()[1:]
    ]
    assert records and all(r["kind"] == "AU" for r in records)


STAGE_NAMES = ("parse", "extract", "slice", "vectorize", "label",
               "train", "detect", "evaluate", "explain", "pipeline")


def parse_config(*argv, stage="parse"):
    return cli.config_from_args(cli.build_arg_parser().parse_args([stage, *argv]))


def test_help_names_every_stage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "{" + ",".join(STAGE_NAMES) + "}" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, problem",
    [(["scan", "--manifest", "m.json"], "argument stage: invalid choice: 'scan'"),
     (["--manifest", "m.json"], "the following arguments are required: stage")],
    ids=["unknown", "missing"],
)
def test_an_unknown_or_missing_stage_is_a_usage_error(capsys, argv, problem):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert problem in capsys.readouterr().err


@pytest.mark.parametrize("name, value", [("THETA", "abc"), ("DELTA", "x"), ("SEED", "7.5")])
def test_bad_env_value_is_a_usage_error(monkeypatch, capsys, name, value):
    monkeypatch.setenv("VULNSLICE_" + name, value)
    with pytest.raises(SystemExit) as exc:
        main(["parse", "--manifest", "m.json"])
    assert exc.value.code == 2
    assert f"--{name.lower()}: invalid" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, env",
    [
        (["--kinds", "FC,FC"], None),
        (["--kinds", "FC, AU,FC"], None),
        (["--kinds", ""], None),
        (["--kinds", ","], None),
        (["--kinds", "FC,XX"], None),
        (["--kinds", "fc"], None),
        ([], "AU,AU"),
        ([], " , "),
        ([], "PU,BO"),
    ],
    ids=["repeated", "repeated-apart", "empty", "comma", "unknown", "lower-case",
         "env-repeated", "env-empty-list", "env-unknown"],
)
def test_repeated_or_empty_kinds_are_a_usage_error(monkeypatch, capsys, argv, env):
    monkeypatch.delenv("VULNSLICE_KINDS", raising=False)
    if env is not None:
        monkeypatch.setenv("VULNSLICE_KINDS", env)
    with pytest.raises(SystemExit) as exc:
        main(["extract", "--manifest", "m.json", *argv])
    assert exc.value.code == 2
    assert "--kinds: invalid kind list" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, env",
    [(["--seed", "-1"], None), ([], "-1"), (["--seed", str(2**64)], None)],
    ids=["flag", "env", "2**64"],
)
def test_seed_out_of_range_is_a_usage_error(monkeypatch, capsys, argv, env):
    monkeypatch.delenv("VULNSLICE_SEED", raising=False)
    if env is not None:
        monkeypatch.setenv("VULNSLICE_SEED", env)
    with pytest.raises(SystemExit) as exc:
        main(["parse", "--manifest", "m.json", *argv])
    assert exc.value.code == 2
    assert "--seed: invalid seed" in capsys.readouterr().err


def test_the_largest_seed_reaches_the_vector_store_header(tmp_path, corpus):
    largest = 2**64 - 1
    out = tmp_path / "out"
    names = ("parse", "extract", "slice", "vectorize")
    assert stages(corpus / "manifest.json", out, *names,
                  extra=("--seed", str(largest), "--embed-mode", "hash")) == 0
    assert load_vectors(str(out / "vectors.bin"))[1] == largest


@pytest.mark.parametrize("dim", ["0", "-3"])
def test_dimension_must_be_positive(tmp_path, corpus, capsys, dim):
    with pytest.raises(artifacts.StageError, match=f"dimension={dim} must be positive"):
        parse_config("--manifest", "m.json", "--dim", dim).hyperparams()
    out = tmp_path / "out"
    for stage in ("parse", "extract", "slice"):
        assert run(corpus, out, stage) == 0
    capsys.readouterr()
    assert run(corpus, out, "vectorize", "--dim", dim) == 2
    assert capsys.readouterr().err == f"error: dimension={dim} must be positive\n"


@pytest.mark.parametrize("flag, value", [
    ("theta", "0"), ("theta", "-32"), ("hidden", "0"), ("layers", "0"), ("epochs", "0"),
    ("threshold", "1.5"),
])
def test_theta_and_hidden_must_be_positive(tmp_path, corpus, capsys, flag, value):
    """Every BGRU flag value the presets' Hyperparams refuses is refused
    up front, by its flag name and value."""
    bound = "must be in (0, 1)" if flag == "threshold" else "must be positive"
    message = f"{flag}={value} {bound}"
    with pytest.raises(artifacts.StageError, match=re.escape(message)):
        parse_config("--manifest", "m.json", f"--{flag}", value).hyperparams()
    out = tmp_path / "out"
    for stage in ("parse", "extract", "slice"):
        assert run(corpus, out, stage) == 0
    capsys.readouterr()
    assert run(corpus, out, "vectorize", f"--{flag}", value) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_vectorize_rejects_a_bad_flag_before_parsing(tmp_path, corpus, monkeypatch):
    out = tmp_path / "out"
    for stage in ("parse", "extract", "slice"):
        assert run(corpus, out, stage) == 0
    parsed = []
    real = cli._parse_program
    monkeypatch.setattr(cli, "_parse_program", lambda p: parsed.append(p.path) or real(p))
    assert run(corpus, out, "vectorize", "--theta", "0") == 2
    assert parsed == []
    assert run(corpus, out, "vectorize") == 0
    # each program that holds a SeVC, once, in sevc.jsonl's order
    assert parsed == sorted({r["program"] for r in read_records(out / "sevc.jsonl")})


@pytest.mark.parametrize(
    "value, expected",
    [("1", True), ("true", True), ("Yes", True), ("ON", True),
     ("0", False), ("False", False), ("no", False), ("OFF", False)],
)
def test_strict_review_env_words(monkeypatch, value, expected):
    monkeypatch.setenv("VULNSLICE_STRICT_REVIEW", value)
    assert parse_config("--manifest", "m.json").strict_review is expected
    assert parse_config("--manifest", "m.json", "--strict-review").strict_review is True


@pytest.mark.parametrize("value", ["maybe", "2", "nope"])
def test_bad_strict_review_env_is_a_usage_error(monkeypatch, capsys, value):
    monkeypatch.setenv("VULNSLICE_STRICT_REVIEW", value)
    with pytest.raises(SystemExit) as exc:
        main(["train", "--manifest", "m.json"])
    assert exc.value.code == 2
    assert "--strict-review: invalid" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-1", "nan", "-inf"])
def test_delta_must_be_positive(tmp_path, monkeypatch, capsys, value):
    """At delta <= 0 every position would be a critical token."""
    for argv, env in (([f"--delta={value}"], None), ([], value)):
        monkeypatch.delenv("VULNSLICE_DELTA", raising=False)
        if env is not None:
            monkeypatch.setenv("VULNSLICE_DELTA", env)
        # tmp_path holds no artifacts: the flag is refused before any is read
        with pytest.raises(SystemExit) as exc:
            main(["explain", "--manifest", "m.json", "--out", str(tmp_path), *argv])
        assert exc.value.code == 2
        assert f"--delta: invalid delta {value!r} (must be positive)" in capsys.readouterr().err


def test_empty_env_value_counts_as_unset(monkeypatch):
    for name in ("SEED", "THETA", "DELTA", "OUT"):
        monkeypatch.setenv("VULNSLICE_" + name, "")
    config = parse_config("--manifest", "m.json")
    assert (config.seed, config.theta, config.delta, config.out) == (0, None, 0.6, "out")


# for each RunConfig field: a value other than its default, as given on
# the command line (None for a switch), and as the field must then hold it
FLAG_VALUES = {
    "manifest": ("other.json", "other.json"),
    "out": ("elsewhere", "elsewhere"),
    "seed": ("7", 7),
    "theta": ("96", 96),
    "dim": ("8", 8),
    "kinds": ("FC, AE", ("FC", "AE")),
    "preset": ("paper", "paper"),
    "threshold": ("0.25", 0.25),
    "strict_review": (None, True),
    "fc_list": ("calls.txt", "calls.txt"),
    "embed_mode": ("hash", "hash"),
    "epochs": ("3", 3),
    "hidden": ("5", 5),
    "layers": ("2", 2),
    "deps": ("dd", "dd"),
    "delta": ("0.25", 0.25),
}


@pytest.mark.parametrize("field", fields(cli.RunConfig), ids=lambda f: f.name)
def test_each_flag_reaches_its_config_field(monkeypatch, field):
    for name in list(os.environ):
        if name.startswith(cli.ENV_PREFIX):
            monkeypatch.delenv(name)
    given, expected = FLAG_VALUES[field.name]
    flag = ["--" + field.name.replace("_", "-")] + ([given] if given else [])
    for stage in STAGE_NAMES:  # every stage takes every flag
        default = getattr(parse_config("--manifest", "m.json", stage=stage), field.name)
        config = parse_config("--manifest", "m.json", *flag, stage=stage)
        assert getattr(config, field.name) == expected, stage
        assert expected != default, stage


def test_bad_manifest_is_error(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["parse", "--manifest", str(missing), "--out", str(tmp_path)]) == 2
    assert "manifest" in capsys.readouterr().err


BAD_LEAK = {"path": "leak.c", "class": "bad", "vulnerable_lines": [4]}
GOOD_LEAK = {"path": "leak.c", "class": "good"}
GOOD_ROOT = {"path": ".", "class": "good"}  # a directory program of every file
SHARED_LEAK = "programs[0] and programs[1] both hold the source file leak.c"


@pytest.mark.parametrize(
    "manifest, problem",
    [
        ("{not json", "is not valid JSON"),
        ([{"path": "leak.c"}], "must be a JSON object with a 'programs' list"),
        ({"programs": {"path": "leak.c"}}, "must be a JSON object with a 'programs' list"),
        ({"corpus_root": 3, "programs": []}, "'corpus_root' must be a string"),
        ({"programs": ["leak.c"]}, "programs[0]: a program record needs a 'path' string"),
        ({"programs": [{"path": "leak.c", "class": "bad"}, {"class": "good"}]},
         "programs[1]: a program record needs a 'path' string"),
        ({"programs": [{"path": "leak.c", "class": "bad", "vulnerable_lines": 5}]},
         "programs[0]: 'vulnerable_lines' must be a list of line numbers"),
        ({"programs": [{"path": "leak.c", "class": "bad", "vulnerable_lines": ["4"]}]},
         "programs[0]: 'vulnerable_lines' must be a list of line numbers"),
        ({"programs": [{"path": "leak.c", "class": "mixed", "vulnerable_lines": [0, -4]}]},
         "programs[0]: 'vulnerable_lines' must be a list of line numbers"),
        ({"programs": [{"path": "leak.c", "class": ["bad"]}]}, "programs[0]: 'class' must be"),
        ({"programs": [{"path": "patched.c", "diff": 7}]}, "programs[0]: 'diff' must be"),
        ({"fc_list": "calls.txt", "programs": [{"path": "leak.c", "class": "bad"}]},
         "names an 'fc_list'; pass that file with --fc-list"),
        ({"programs": [{"path": "leak.c", "class": "bad"}, {"path": "guarded.c", "class": "wild"}]},
         "programs[1]: 'class' must be one of good, bad, mixed, not 'wild'"),
        ({"programs": [{"path": "guarded.c", "class": "good", "vulnerable_lines": [3]}]},
         "programs[0]: a 'good' program cannot list 'vulnerable_lines'"),
        # labels are keyed by source file: a file under two records would take
        # the marks of whichever came last, and be sliced twice
        ({"programs": [BAD_LEAK, GOOD_LEAK]}, SHARED_LEAK),
        ({"programs": [GOOD_LEAK, BAD_LEAK]}, SHARED_LEAK),
        ({"programs": [BAD_LEAK, GOOD_ROOT]}, SHARED_LEAK),
        ({"programs": [GOOD_ROOT, BAD_LEAK]}, SHARED_LEAK),
    ],
    ids=["not-json", "list", "programs-object", "root-number", "record-string",
         "no-path", "lines-number", "lines-strings", "lines-below-1", "class-list",
         "diff-number", "fc-list", "class-wild", "good-with-lines", "file-bad-then-good",
         "file-good-then-bad", "file-then-directory", "directory-then-file"],
)
def test_a_malformed_manifest_is_an_error_that_names_it(tmp_path, corpus, capsys, manifest, problem):
    path = corpus / "malformed.json"
    path.write_text(manifest if isinstance(manifest, str) else json.dumps(manifest))
    assert main(["parse", "--manifest", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: manifest {path}") and problem in err


def test_detect_exit_codes(tmp_path, corpus):
    out = tmp_path / "out"
    for stage in ("parse", "extract", "slice", "vectorize", "label", "train"):
        assert run(corpus, out, stage) == 0
    # threshold above any probability: no findings, exit 0
    assert run(corpus, out, "detect", "--threshold", "0.999999") == 0
    detections = (out / "detect.jsonl").read_text().splitlines()[1:]
    assert detections == []
    # threshold at epsilon: everything flagged, exit 1
    assert run(corpus, out, "detect", "--threshold", "0.000001") == 1


def test_ast_dump_records_shape(tmp_path, corpus):
    out = tmp_path / "out"
    run(corpus, out, "parse")
    lines = (out / "ast.jsonl").read_text().splitlines()
    header = json.loads(lines[0])
    assert header["artifact"] == "ast-dump" and header["seed"] == 5
    node = json.loads(lines[1])
    for field in ("id", "kind", "span", "parent_id", "program"):
        assert field in node


def read_records(path):
    return [json.loads(line) for line in path.read_text().splitlines()[1:]]


def test_detect_and_explain_agree(tmp_path, corpus):
    out = tmp_path / "out"
    assert run(corpus, out, "pipeline") in (0, 1)
    detected = {r["syvc_id"]: r["probability"] for r in read_records(out / "detect.jsonl")}
    explained = {r["syvc_id"]: r["probability"] for r in read_records(out / "explain.jsonl")}
    assert detected
    assert explained == detected


def test_a_finding_trace_is_its_sample_scored_alone(tmp_path):
    """A sample's trace depends only on its input: each finding's
    activations are those of its vectors.bin sample scored alone, bit for
    bit, wherever it sits in the store."""
    out = tmp_path / "out"
    # a threshold near 0 flags every SeVC, so every trace is checked
    flags = ["--embed-mode", "hash", "--epochs", "1", "--threshold", "0.000001"]
    assert stages(mini_corpus_manifest(), out, "parse", "extract", "slice", "vectorize",
                  "label", "train", "detect", extra=flags) == 1
    samples, _ = load_vectors(str(out / "vectors.bin"))
    params, _ = load_checkpoint(str(out / "checkpoint.bin"))
    findings = {r["syvc_id"]: r["activations"] for r in read_records(out / "detect.jsonl")}
    assert len(findings) == len(samples) > params.hp.batch_size
    for sample in samples:
        alone = bgru.bgru_forward(sample, params, params.hp)
        assert findings[sample.syvc_id] == alone.outputs.tolist(), sample.syvc_id


def test_hash_lookup_cache_keeps_vectors_bytes(tmp_path, corpus, monkeypatch):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    stages = ("parse", "extract", "slice", "vectorize")
    for stage in stages:
        assert run(corpus, out_a, stage) == 0
    # every lookup recomputed from scratch, as before memoization
    monkeypatch.setattr(
        EmbeddingTable,
        "lookup",
        lambda self, symbol: hash_vector(symbol, self.dimension, self.seed),
    )
    for stage in stages:
        assert run(corpus, out_b, stage) == 0
    assert (out_a / "vectors.bin").read_bytes() == (out_b / "vectors.bin").read_bytes()


def test_skipgram_vectorize_matches_reference_trainer(tmp_path, corpus, monkeypatch):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    stages = ("parse", "extract", "slice", "vectorize")
    for stage in stages:
        assert run(corpus, out_a, stage, "--embed-mode", "skipgram") == 0
    monkeypatch.setattr(cli, "train_embeddings", reference_train_embeddings)
    for stage in stages:
        assert run(corpus, out_b, stage, "--embed-mode", "skipgram") == 0
    for name in ("embeddings.json", "vectors.bin"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


@pytest.mark.parametrize("layers", ["1", "2"])
def test_train_matches_the_reference_engine(tmp_path, monkeypatch, layers):
    out_a = tmp_path / "a"
    flags = ["--embed-mode", "hash", "--epochs", "3", "--layers", layers]
    assert stages(mini_corpus_manifest(), out_a, "parse", "extract", "slice",
                  "vectorize", "label", "train", extra=flags) == 0
    out_b = tmp_path / "b"
    shutil.copytree(out_a, out_b)
    monkeypatch.setattr(cli, "train_model", reference_train)
    assert stages(mini_corpus_manifest(), out_b, "train", extra=flags) == 0
    for name in ("checkpoint.bin", "train_report.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def write_corpus(root, programs):
    root.mkdir(parents=True)
    for name, text in programs.items():
        (root / name).write_text(text)
    manifest = {
        "corpus_root": ".",
        "programs": [{"path": name, "class": "good"} for name in programs],
    }
    (root / "manifest.json").write_text(json.dumps(manifest))


def parse_only(root, out):
    return main(
        ["parse", "--manifest", str(root / "manifest.json"), "--out", str(out),
         "--seed", "5"]
    )


def test_file_that_does_not_lex_is_skipped_with_a_diagnostic(tmp_path):
    root = tmp_path / "corpus"
    write_corpus(
        root,
        {"leak.c": TINY_PROGRAMS["leak.c"], "broken.c": "int a; /* never closed\nint b;\n"},
    )
    out = tmp_path / "out"
    assert parse_only(root, out) == 0
    report = json.loads((out / "parse_report.json").read_text())
    assert report["diagnostics"] == [
        {
            "program": "broken.c",
            "file": "broken.c",
            "line": 1,
            "message": "broken.c:1: unterminated block comment (file skipped)",
        }
    ]
    assert report["functions"] == 1
    assert {r["program"] for r in read_records(out / "ast.jsonl")} == {"leak.c"}


def test_parse_report_is_the_same_wherever_the_corpus_lies(tmp_path):
    programs = {
        "leak.c": TINY_PROGRAMS["leak.c"],
        "broken.c": "int a; /* never closed\n",
        "mixed.c": "void s(int x){switch (x) {case 1: break;}}\nvoid ok(){int a;}\n",
    }
    reports = []
    for place in ("first", os.path.join("second", "deeper")):
        root = tmp_path / place / "corpus"
        write_corpus(root, programs)
        assert parse_only(root, tmp_path / place / "out") == 0
        reports.append((tmp_path / place / "out" / "parse_report.json").read_bytes())
    assert reports[0] == reports[1]
    report = json.loads(reports[0])
    assert [(d["file"], d["line"]) for d in report["diagnostics"]] == [
        ("broken.c", 1),
        ("mixed.c", 1),
    ]
    assert report["diagnostics"][1]["message"].startswith("mixed.c:1: 'switch'")
    assert str(tmp_path).encode() not in reports[0]


def test_a_directory_named_like_a_source_is_not_a_source(tmp_path):
    """A directory program lists its regular files only: a directory
    ``inner.c/`` in it is neither read nor named."""
    root = tmp_path / "corpus"
    (root / "prog" / "inner.c").mkdir(parents=True)
    (root / "prog" / "inner.c" / "deeper.c").write_text(TINY_PROGRAMS["reader.c"])
    (root / "prog" / "leak.c").write_text(TINY_PROGRAMS["leak.c"])
    (root / "prog" / "guarded.c").write_text(TINY_PROGRAMS["guarded.c"])
    (root / "manifest.json").write_text(
        json.dumps({"programs": [{"path": "prog", "class": "good"}]})
    )
    [prog] = cli.load_manifest(str(root / "manifest.json"))
    assert prog.files == [os.path.join("prog", "guarded.c"), os.path.join("prog", "leak.c")]
    out = tmp_path / "out"
    assert parse_only(root, out) == 0
    report = json.loads((out / "parse_report.json").read_text())
    assert report["functions"] == 2 and report["diagnostics"] == []


def test_a_broken_link_in_a_directory_program_is_named_in_a_diagnostic(tmp_path):
    """A C-suffixed link with no target is listed, so load_program names
    it as unreadable instead of the program silently losing a file."""
    root = tmp_path / "corpus"
    (root / "prog").mkdir(parents=True)
    (root / "prog" / "a.c").write_text(TINY_PROGRAMS["leak.c"])
    os.symlink(tmp_path / "nonexistent" / "b.c", root / "prog" / "b.c")
    (root / "manifest.json").write_text(
        json.dumps({"programs": [{"path": "prog", "class": "good"}]})
    )
    out = tmp_path / "out"
    assert parse_only(root, out) == 0
    [diagnostic] = json.loads((out / "parse_report.json").read_text())["diagnostics"]
    assert diagnostic["file"] == os.path.join("prog", "b.c")
    assert diagnostic["message"].startswith(
        os.path.join("prog", "b.c") + ": cannot read: "
    ) and diagnostic["message"].endswith(" (file skipped)")


def test_a_fifo_in_a_directory_program_is_neither_read_nor_named(tmp_path):
    """open would block on a FIFO, or on a link to one: neither is listed."""
    root = tmp_path / "corpus"
    (root / "prog").mkdir(parents=True)
    (root / "prog" / "a.c").write_text(TINY_PROGRAMS["leak.c"])
    os.mkfifo(root / "prog" / "c.c")
    os.symlink(root / "prog" / "c.c", root / "prog" / "d.c")
    (root / "manifest.json").write_text(
        json.dumps({"programs": [{"path": "prog", "class": "good"}]})
    )
    [prog] = cli.load_manifest(str(root / "manifest.json"))
    assert prog.files == [os.path.join("prog", "a.c")]


def test_a_source_that_cannot_be_read_is_skipped_with_a_diagnostic(tmp_path, monkeypatch):
    """A read error (here a refused permission, which a root user cannot
    get from chmod) skips the file, not the corpus."""
    root = tmp_path / "corpus"
    write_corpus(root, {"leak.c": TINY_PROGRAMS["leak.c"], "locked.c": TINY_PROGRAMS["reader.c"]})
    real_open = builtins.open

    def refusing_open(path, *args, **kwargs):
        if os.path.basename(path) == "locked.c":
            raise PermissionError(13, "Permission denied", path)
        return real_open(path, *args, **kwargs)

    monkeypatch.setattr(frontend_parser, "open", refusing_open, raising=False)
    out = tmp_path / "out"
    assert parse_only(root, out) == 0
    report = json.loads((out / "parse_report.json").read_text())
    assert report["diagnostics"] == [
        {
            "program": "locked.c",
            "file": "locked.c",
            "line": 0,
            "message": "locked.c: cannot read: Permission denied (file skipped)",
        }
    ]
    assert report["functions"] == 1


def test_manifest_file_names_are_the_relpaths_from_the_corpus_root(tmp_path):
    """Each source file's name is ``os.path.relpath`` of its path from
    the corpus root, for every way a record can name a program."""
    corpus = tmp_path / "corpus"
    for rel in ("top.c", "nested/deep/n.c", "dir/a.c", "dir/b.h", "dir/notes.txt",
                "slash/s.c", "back.c", "../outside/x.c", "../outdir/y.c", "../abs/z.c"):
        path = corpus / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(TINY_PROGRAMS["leak.c"])
    (tmp_path / "meta").mkdir()
    manifest = tmp_path / "meta" / "manifest.json"
    paths = [
        "top.c",  # a file program
        "nested/deep/n.c",  # nested
        "./nested/../dir",  # a directory program, by a path to normalize
        "slash/",  # a trailing slash
        "../outside/x.c",  # outside the corpus root
        "../outdir",  # a directory outside it
        "../corpus/back.c",  # out of the root and back into it
        str(tmp_path / "abs" / "z.c"),  # absolute
    ]
    manifest.write_text(json.dumps({
        "corpus_root": "../corpus",
        "programs": [{"path": p, "class": "good"} for p in paths],
    }))
    programs = cli.load_manifest(str(manifest))
    root = str(corpus)
    for prog in programs:
        assert prog.files == [os.path.relpath(p, root) for p in prog.source_paths], prog.path
    assert [prog.files for prog in programs] == [
        ["top.c"],
        [os.path.join("nested", "deep", "n.c")],
        [os.path.join("dir", "a.c"), os.path.join("dir", "b.h")],
        [os.path.join("slash", "s.c")],
        [os.path.join("..", "outside", "x.c")],
        [os.path.join("..", "outdir", "y.c")],
        ["back.c"],
        [os.path.join("..", "abs", "z.c")],
    ]


def stages(manifest, out, *names, extra=()):
    """Run the named stages in order; the first non-zero exit code, or 0."""
    for name in names:
        code = main([name, "--manifest", str(manifest), "--out", str(out), "--seed", "5", *extra])
        if code:
            return code
    return 0


@pytest.mark.parametrize(
    "bad, syvc_id, message",
    [
        # the strcpy candidate sits after a return, outside the CFG
        ("void f(char *s){ char buf[8]; return; strcpy(buf, s); }", 4,
         "anchor statement 3 not in PDG of function 0"),
        # a for without a condition or a break never leaves its body
        ("void spin(){ int a; for(;;){ a = a + 1; } }", None,
         "CFG nodes [0, 1, 2] of function 0 have no path to exit (bad.c:spin)"),
        ("void stray(){ int a; a = a + 1; break; }", None,
         "'break' outside a loop at statement 3 (bad.c:stray)"),
    ],
)
def test_one_bad_candidate_or_function_does_not_abort_slice(
    tmp_path, capsys, bad, syvc_id, message
):
    alone, both = tmp_path / "alone", tmp_path / "both"
    write_corpus(alone, {"leak.c": TINY_PROGRAMS["leak.c"]})
    write_corpus(both, {"leak.c": TINY_PROGRAMS["leak.c"], "bad.c": bad + "\n"})
    assert stages(alone / "manifest.json", tmp_path / "out-alone", "parse", "extract", "slice") == 0
    capsys.readouterr()
    out = tmp_path / "out"
    assert stages(both / "manifest.json", out, "parse", "extract", "slice") == 0
    assert "1 skipped" in capsys.readouterr().out
    report = json.loads((out / "slice_report.json").read_text())
    assert report["skipped"] == [{"program": "bad.c", "syvc_id": syvc_id, "message": message}]
    sevcs = read_records(out / "sevc.jsonl")
    assert [r for r in sevcs if r["program"] == "leak.c"] == read_records(
        tmp_path / "out-alone" / "sevc.jsonl"
    )
    # the bad program's reachable candidates are still sliced
    assert len(sevcs) == 3 + (syvc_id is not None)
    assert report["sevcs"] == len(sevcs) and report["programs"] == 2


def test_a_for_without_a_condition_is_sliced(tmp_path):
    loop = (
        "void wait(char *s)\n"
        "{\n"
        "    char buf[8];\n"
        "    for (;;) { if (s[0]) break; }\n"
        "    strcpy(buf, s);\n"
        "}\n"
    )
    root = tmp_path / "corpus"
    write_corpus(root, {"loop.c": loop})
    out = tmp_path / "out"
    assert stages(root / "manifest.json", out, "parse", "extract", "slice") == 0
    assert json.loads((out / "slice_report.json").read_text())["skipped"] == []
    sevcs = {r["kind"]: r for r in read_records(out / "sevc.jsonl")}
    assert sorted(sevcs) == ["AU", "FC"]
    # the strcpy post-dominates the loop, so it is not control dependent on it
    strcpy = sevcs["FC"]["statements"]
    assert [(s["line"], s["region"]) for s in strcpy] == [
        (1, "backward"), (3, "backward"), (5, "anchor")
    ]


@pytest.mark.parametrize("deps", ["ddcd", "dd"])
def test_slice_report_lists_dead_code_the_cfg_pruned(tmp_path, deps):
    dead = (
        "void dead(char *s)\n"
        "{\n"
        "    char buf[8];\n"
        "    strcpy(buf, s);\n"
        "    return;\n"
        "    buf[0] = 0;\n"
        "}\n"
    )
    root = tmp_path / "corpus"
    write_corpus(root, {"leak.c": TINY_PROGRAMS["leak.c"], "dead.c": dead})
    out = tmp_path / "out"
    assert stages(
        root / "manifest.json", out, "parse", "extract", "slice", extra=["--deps", deps]
    ) == 0
    report = json.loads((out / "slice_report.json").read_text())
    # statements: 0 the signature, 1 buf, 2 strcpy, 3 return, 4 the dead store
    assert report["graph_diagnostics"] == [
        {"program": "dead.c", "function": "dead",
         "message": "unreachable statements pruned from CFG: [4]"}
    ]


def test_slice_report_lists_the_slice_diagnostics_slice_counts(tmp_path, capsys):
    out = tmp_path / "out"
    assert stages(mini_corpus_manifest(), out, "parse", "extract", "slice") == 0
    assert "(75 distinct slice diagnostics, 0 skipped)" in capsys.readouterr().out
    records = json.loads((out / "slice_report.json").read_text())["slice_diagnostics"]
    pairs = [(r["program"], r["message"]) for r in records]
    assert pairs == sorted(set(pairs))
    assert len({message for _, message in pairs}) == 32
    malloc = "call to unresolved function 'malloc' at statement 3 skipped"
    assert {"program": "allocarith_bad_0.c", "message": malloc} in records


def test_slice_of_an_unknown_program_names_extract(tmp_path, capsys):
    root = tmp_path / "corpus"
    write_corpus(root, {"leak.c": TINY_PROGRAMS["leak.c"], "reader.c": TINY_PROGRAMS["reader.c"]})
    out = tmp_path / "out"
    assert stages(root / "manifest.json", out, "parse", "extract") == 0
    write_corpus(tmp_path / "smaller", {"leak.c": TINY_PROGRAMS["leak.c"]})
    capsys.readouterr()
    assert stages(tmp_path / "smaller" / "manifest.json", out, "slice") == 2
    err = capsys.readouterr().err
    assert "unknown program 'reader.c'" in err and "re-run the 'extract' stage" in err


def stage_after_leak_edit(tmp_path, capsys, stage, edited):
    """Run the stages before ``stage``, rewrite leak.c as ``edited``,
    and run ``stage``: its exit code and stderr."""
    root = tmp_path / "corpus"
    # train splits by program, so it needs two
    write_corpus(root, {name: TINY_PROGRAMS[name] for name in ("leak.c", "guarded.c")})
    out = tmp_path / "out"
    # a threshold near 0 flags every SeVC, so explain builds the stale one
    flags = ["--embed-mode", "hash", "--epochs", "1", "--threshold", "0.000001"]
    before = ("parse", "extract", "slice")
    if stage == "explain":
        before += ("vectorize", "label", "train", "detect")
    assert stages(root / "manifest.json", out, *before, extra=flags) == int(stage == "explain")
    (root / "leak.c").write_text(edited)
    capsys.readouterr()
    return stages(root / "manifest.json", out, stage, extra=flags), capsys.readouterr().err


@pytest.mark.parametrize("stage", ["vectorize", "label", "explain"])
def test_vectorize_of_stale_statement_ids_names_slice(tmp_path, capsys, stage):
    edited = "void leak(char *input)\n{\n}\n"
    assert stage_after_leak_edit(tmp_path, capsys, stage, edited) == (
        2,
        "error: sevc.jsonl out of sync with sources: SyVC 0 holds statement 1, "
        "which program 'leak.c' does not; re-run the 'slice' stage\n",
    )


@pytest.mark.parametrize("stage", ["vectorize", "label", "explain"])
def test_a_stale_statement_text_names_slice(tmp_path, capsys, stage):
    """An edit that keeps every statement id is caught by the text."""
    edited = TINY_PROGRAMS["leak.c"].replace("strcpy(room, input);", "gets(room);")
    assert stage_after_leak_edit(tmp_path, capsys, stage, edited) == (
        2,
        "error: sevc.jsonl out of sync with sources: SyVC 0 holds statement 2 as "
        "'strcpy ( room , input ) ;', which program 'leak.c' now reads as "
        "'gets ( room ) ;'; re-run the 'slice' stage\n",
    )


def drop_or_add_key(path, key, index=0):
    """Drop ``key`` from record ``index`` of a jsonl artifact (from its
    first statement for ``line`` or ``statements.<key>``), or add it to a
    record that lacks it; the record's line number."""
    lines = path.read_text().splitlines()
    record = json.loads(lines[index + 1])
    held = record
    if key == "line" or key.startswith("statements."):
        held, key = record["statements"][0], key.removeprefix("statements.")
    if key in held:
        del held[key]
    else:
        held[key] = 0
    lines[index + 1] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")
    return index + 2


def first_held_out_label(out):
    """The index in labels.jsonl of the first record that train holds out."""
    held_out = json.loads((out / "train_report.json").read_text())["test_programs"]
    records = read_records(out / "labels.jsonl")
    return next(i for i, r in enumerate(records) if r["program"] in held_out)


WRITERS = {"syvc.jsonl": "extract", "sevc.jsonl": "slice", "labels.jsonl": "label",
           "detect.jsonl": "detect"}


@pytest.mark.parametrize(
    "artifact, key, stage",
    [
        ("syvc.jsonl", "span", "slice"),
        ("sevc.jsonl", "kind", "vectorize"),
        ("sevc.jsonl", "kind", "label"),
        ("sevc.jsonl", "kind", "explain"),
        ("sevc.jsonl", "line", "detect"),
        ("labels.jsonl", "label", "evaluate"),
        ("labels.jsonl", "label", "train"),
        ("labels.jsonl", "needs_review", "train"),
        ("detect.jsonl", "syvc_id", "evaluate"),
        ("detect.jsonl", "syvc_id", "explain"),
        ("detect.jsonl", "probability", "explain"),
        # a key the record's type does not have
        ("syvc.jsonl", "extra", "slice"),
        ("labels.jsonl", "extra", "evaluate"),
        ("detect.jsonl", "extra", "explain"),
        # a key of a sevc.jsonl statement, which is a record of its own
        ("sevc.jsonl", "statements.text", "vectorize"),
        ("sevc.jsonl", "statements.text", "label"),
        ("sevc.jsonl", "statements.extra", "explain"),
    ],
)
def test_a_malformed_record_names_the_stage_that_writes_it(
    tmp_path, corpus, capsys, artifact, key, stage
):
    out = detected(tmp_path, corpus, "--threshold", "0.000001")
    # train reads every label, those of the programs it holds out too
    index = first_held_out_label(out) if stage == "train" else 0
    line = drop_or_add_key(out / artifact, key, index)
    capsys.readouterr()
    assert run(corpus, out, stage, "--threshold", "0.000001") == 2
    err = capsys.readouterr().err
    # a record's key is named as such; detect reads a statement's line itself
    name = key.removeprefix("statements.")
    problem = ("KeyError('line')" if key == "line"
               else f"{'unknown' if name == 'extra' else 'missing'} key {name!r}"
               + (" in statements[0]" if name != key else ""))
    assert err == (f"error: {out / artifact} line {line} is malformed ({problem}); "
                   f"re-run the '{WRITERS[artifact]}' stage\n"), err
    assert "__init__" not in err, err


def touched(record):
    """``record`` once each of its attributes has been read, as a
    cached_property adds its value to the instance on first read."""
    for name in dir(record):
        if not name.startswith("__"):
            getattr(record, name)
    return record


def test_a_record_is_the_fields_of_its_dataclass(tmp_path, corpus):
    """Each record line holds its type's fields and nothing else, and
    encodes back to itself: so no record type may hold another attribute
    (artifacts.encode_record writes an instance's vars)."""
    out = detected(tmp_path, corpus, "--threshold", "0.000001")
    decoders = {
        "syvc.jsonl": cli.SyVC.from_record,
        "sevc.jsonl": cli.SeVC.from_record,
        "labels.jsonl": shared._Label.from_record,
        "detect.jsonl": shared._Finding.from_record,
        "explain.jsonl": lambda record: explain._Explanation(**record),
    }
    for artifact, decode in decoders.items():
        lines = (out / artifact).read_text().splitlines()[1:]
        assert lines, artifact
        for line in lines:
            record = touched(decode(json.loads(line)))
            for part in [record, *getattr(record, "statements", [])]:  # a SeVC's too
                assert sorted(vars(part)) == sorted(f.name for f in fields(part)), artifact
            assert sorted(json.loads(line)) == sorted(f.name for f in fields(record))
            assert artifacts.encode_record(record) == line, artifact


def test_a_label_that_is_not_0_or_1_names_label(tmp_path, corpus, capsys):
    out = detected(tmp_path, corpus)
    lines = (out / "labels.jsonl").read_text().splitlines()
    lines[1] = json.dumps({**json.loads(lines[1]), "label": 2})
    (out / "labels.jsonl").write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run(corpus, out, "evaluate") == 2
    assert capsys.readouterr().err == (
        f"error: {out / 'labels.jsonl'} line 2 is malformed "
        "(ValueError('label 2 is not 0 or 1')); re-run the 'label' stage\n"
    )


def test_a_train_report_without_its_programs_names_train(tmp_path, corpus, capsys):
    out = detected(tmp_path, corpus)
    report = json.loads((out / "train_report.json").read_text())
    del report["train_programs"]
    (out / "train_report.json").write_text(json.dumps(report))
    capsys.readouterr()
    assert run(corpus, out, "evaluate") == 2
    assert capsys.readouterr().err == (
        f"error: {out / 'train_report.json'} has no 'train_programs' key; "
        "re-run the 'train' stage\n"
    )


@pytest.mark.parametrize(
    "corrupt",
    [
        empty_store,
        lambda p: edit_index(p, lambda ls: [set_field(ls[0], "kept_symbols", 0)] + ls[1:]),
        lambda p: edit_index(p, lambda ls: [set_field(ls[0], "kept_symbols", 10**6)] + ls[1:]),
    ],
    ids=["empty", "keeps-none", "keeps-too-many"],
)
@pytest.mark.parametrize("stage", ["train", "detect"])
def test_a_corrupt_vector_store_names_vectorize(tmp_path, corpus, capsys, corrupt, stage):
    out = detected(tmp_path, corpus)
    corrupt(str(out / "vectors.bin"))
    capsys.readouterr()
    assert run(corpus, out, stage) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith("; re-run the 'vectorize' stage\n"), err


def test_a_sevc_across_files_and_functions_is_one_symbol_stream(tmp_path):
    """symbolize reads each statement's tokens from the program's parse,
    whichever file holds it, and names user functions of every file."""
    root = tmp_path / "corpus"
    (root / "prog").mkdir(parents=True)
    (root / "prog" / "a.c").write_text(
        "void handle(char *input){ char dst[16]; sink_copy(dst, input); }\n"
    )
    (root / "prog" / "b.c").write_text(
        "void sink_copy(char *dst, char *src){ strcpy(dst, src); }\n"
    )
    manifest = root / "manifest.json"
    manifest.write_text(json.dumps({"programs": [{"path": "prog", "class": "good"}]}))
    out = tmp_path / "out"
    assert stages(manifest, out, "parse", "extract", "slice") == 0
    config = parse_config("--manifest", str(manifest), "--out", str(out))
    [(model, sevcs)] = shared._sevcs_by_program(config)
    [fc] = [sevc for sevc in sevcs if sevc.kind == "FC"]
    assert [(s.file, s.function) for s in fc.statements] == (
        [("prog/a.c", "handle")] * 3 + [("prog/b.c", "sink_copy")] * 2
    )
    assert " ".join(symbolize(fc, model, config.characteristic_set()).symbols) == (
        "void F1 ( char * V1 ) char V2 [ 16 ] ; F2 ( V2 , V1 ) ; "
        "void F2 ( char * V2 , char * V3 ) strcpy ( V2 , V3 ) ;"
    )


# The front half's artifacts on the mini corpus at --seed 101, by SHA-256.
# A change to any of these formats updates its digest and says so in CHANGES.md.
FRONT_HALF_SHA256 = {
    "ast.jsonl": "dd4e1ab8f6587d17d3d649a5d9342de6d2c6805d92f03ca6c167149562d98109",
    "parse_report.json": "4a40cca75e34d4bc622ea1b75aed06221025383cc50b31d1d7b2c0c50532eb6a",
    "syvc.jsonl": "501cc4ee6ce9fb1cad9e75c06749a9c602780acb5b60d9f75cd693dd205f1dfc",
    "sevc.jsonl": "d912e89ab6f867ca3507bf99e1d62632b523cfe9a0f359643a23eefca828938b",
    "slice_report.json": "e8babce301cb30619a5ca25540425397453770826cf262aa5c737af9f06fb2a4",
}


def test_the_front_half_keeps_its_bytes(tmp_path):
    out = tmp_path / "out"
    for stage in ("parse", "extract", "slice"):
        argv = [stage, "--manifest", mini_corpus_manifest(), "--out", str(out), "--seed", "101"]
        assert main(argv) == 0
    digests = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in FRONT_HALF_SHA256
    }
    assert digests == FRONT_HALF_SHA256


# What vectorize and label write on the mini corpus at --seed 101
# --embed-mode hash, by SHA-256: no float the BLAS rounds is among them,
# so the digests hold on every machine.
BACK_HALF_SHA256 = {
    "labels.jsonl": "774fadc729f044dee5f063ad21e8ac8674cf41e4cac61fa4d264fb6b9881859d",
    "review.jsonl": "d9b05c8d513945e579575940d985e4eaf7609bf98303ff428c6788d4e076fc37",
    "vectors.bin.idx": "8cb0812dce42ef4ce89c6c2b8f0c063a0643218237a280bef10d94fc1fe7e750",
}


def test_the_back_half_records_keep_their_bytes(tmp_path):
    out = tmp_path / "out"
    for stage in ("parse", "extract", "slice", "vectorize", "label"):
        argv = [stage, "--manifest", mini_corpus_manifest(), "--out", str(out),
                "--seed", "101", "--embed-mode", "hash"]
        assert main(argv) == 0
    digests = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in BACK_HALF_SHA256
    }
    assert digests == BACK_HALF_SHA256


# What explain writes on the mini corpus at --seed 101 for a detect.jsonl
# that flags every SeVC with activations that step by fixed amounts, so
# no float a BLAS rounds is among its inputs, by SHA-256.
EXPLAIN_SHA256 = "200799d04d24a8dbd145faabd7e7c6ad731df71839d4248a9accbae448b43397"


def test_the_explain_records_keep_their_bytes(tmp_path):
    out = tmp_path / "out"
    flags = ["--manifest", mini_corpus_manifest(), "--out", str(out), "--seed", "101"]
    for stage in ("parse", "extract", "slice"):
        assert main([stage, *flags]) == 0
    config = parse_config(*flags, stage="explain")
    cset = config.characteristic_set()
    findings = []
    for model, sevcs in shared._sevcs_by_program(config):
        for sevc in sevcs:
            kept = symbolize(sevc, model, cset).kept(config.hyperparams().seq_len)
            # rises of 0.7 and falls of 0.8, each critical at delta 0.6, between small steps
            activations = [(0.1, 0.8, 0.9, 0.5, 0.1)[i % 5] for i in range(len(kept))]
            findings.append({
                "syvc_id": sevc.syvc_id, "kind": sevc.kind, "program": sevc.program,
                "probability": 0.9, "files": [], "functions": [], "lines": [],
                "activations": activations,
            })
    artifacts.write_jsonl(
        str(out / "detect.jsonl"), "detections", 101, findings, threshold=0.5
    )
    assert main(["explain", *flags]) == 0
    assert hashlib.sha256((out / "explain.jsonl").read_bytes()).hexdigest() == EXPLAIN_SHA256


def test_data_only_slices_are_subsets_of_data_and_control_slices(tmp_path):
    ddcd, dd = tmp_path / "ddcd", tmp_path / "dd"
    assert stages(mini_corpus_manifest(), ddcd, "parse", "extract", "slice") == 0
    shutil.copytree(ddcd, dd)
    assert stages(mini_corpus_manifest(), dd, "slice", extra=["--deps", "dd"]) == 0

    def statements(out):
        return {
            r["syvc_id"]: {s["statement_id"] for s in r["statements"]}
            for r in read_records(out / "sevc.jsonl")
        }

    full, data = statements(ddcd), statements(dd)
    assert len(full) == 117 and full.keys() == data.keys()
    assert all(data[k] <= full[k] for k in full)
    assert any(data[k] != full[k] for k in full)


def fresh_env() -> dict:
    """The environment of a fresh stage process: this checkout's package,
    and no VULNSLICE_* flag defaults."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return {k: v for k, v in env.items() if not k.startswith(cli.ENV_PREFIX)}


STAGE_PROBE = """
import json
import sys

from vulnslice import cli

code = cli.main(sys.argv[2:]) if sys.argv[2:] else None
loaded = sorted(
    m for m in sys.modules if m.startswith("vulnslice.") or m in ("numpy", "hashlib")
)
with open(sys.argv[1], "w") as handle:
    json.dump({"code": code, "modules": loaded}, handle)
"""

# The modules a stage process loads beyond vulnslice.cli, artifacts and
# presets: its own stage module (with the stages package), the module of
# the helpers it shares with other stages if it uses them, and the layers
# its stage uses and what they import. hashlib, which loads OpenSSL, comes
# only with the stages that derive a seed.
FRONTEND = {"lexicon", "frontend", "frontend.lexer", "frontend.parser"}
SLICER = FRONTEND | {"candidates", "data", "graphs", "slicing", "symbols"}
# what symbolizes the SeVCs of sevc.jsonl: no PDG builder, no slicer
SYMBOLIZER = FRONTEND | {"candidates", "data", "symbols"}
MODEL = {"lexicon", "symbols", "vectorize", "bgru", "numpy"}


def own_modules(stage, *, shares=True):
    """A stage's own module, with the stages package and, if it ``shares``
    helpers, stages.shared."""
    return {"stages", f"stages.{stage}"} | ({"stages.shared"} if shares else set())


STAGE_MODULES = {
    None: set(),  # import vulnslice.cli alone
    "parse": own_modules("parse", shares=False) | FRONTEND,
    "extract": own_modules("extract", shares=False) | FRONTEND | {"candidates", "data"},
    "slice": own_modules("slice", shares=False) | (SLICER - {"data"}),
    "vectorize": own_modules("vectorize")
    | SYMBOLIZER | {"embeddings", "vectorize", "numpy", "hashlib"},
    "label": own_modules("label") | FRONTEND | {"symbols", "labeling"},
    "train": own_modules("train") | MODEL | {"evaluation", "hashlib"},
    "detect": own_modules("detect") | MODEL,
    "evaluate": own_modules("evaluate") | {"evaluation", "numpy"},
    "explain": own_modules("explain") | SYMBOLIZER,
}


def test_each_stage_process_loads_only_its_layers(tmp_path, capsys):
    """Each stage alone in a fresh process, as the benchmark runs them: it
    loads exactly its layers and writes what the in-process pipeline does.
    In one process, the layers an earlier stage imported would hide what a
    later stage loads."""
    in_process, by_stage = tmp_path / "pipeline", tmp_path / "stages"
    # a threshold near 0 flags every SeVC, so explain has work
    flags = ["--manifest", mini_corpus_manifest(), "--seed", "5", "--embed-mode", "hash",
             "--epochs", "1", "--threshold", "0.000001"]
    capsys.readouterr()
    assert main(["pipeline", *flags, "--out", str(in_process)]) == 1
    pipeline_stdout = capsys.readouterr().out
    stdout = ""
    for stage, extra in STAGE_MODULES.items():
        argv = [] if stage is None else [stage, *flags, "--out", str(by_stage)]
        probe = tmp_path / "probe.json"
        result = subprocess.run(
            [sys.executable, "-c", STAGE_PROBE, str(probe), *argv],
            env=fresh_env(), capture_output=True, text=True, timeout=300,
        )
        assert result.returncode == 0, result.stderr
        stdout += result.stdout
        report = json.loads(probe.read_text())
        assert report["code"] == (None if stage is None else int(stage == "detect")), stage
        expected = {"vulnslice.artifacts", "vulnslice.cli", "vulnslice.presets"}
        expected |= {m if m in ("numpy", "hashlib") else f"vulnslice.{m}" for m in extra}
        assert set(report["modules"]) == expected, stage
    assert stdout == pipeline_stdout
    names = sorted(os.listdir(in_process))
    assert names == sorted(os.listdir(by_stage))
    for name in names:
        assert (in_process / name).read_bytes() == (by_stage / name).read_bytes(), name


def _globals_read(code) -> set[str]:
    """The global names a code object and the functions nested in it read."""
    names = {i.argval for i in dis.get_instructions(code) if i.opname == "LOAD_GLOBAL"}
    for const in code.co_consts:
        if inspect.iscode(const):
            names |= _globals_read(const)
    return names


def test_every_global_a_cli_function_reads_is_bound():
    """A function of cli or of a stage module reads a layer name as an
    attribute of cli (through its __getattr__), never as a bare global,
    which would be a NameError in a fresh stage process and would escape
    a patch of cli; every other global it reads is bound at import, so
    the function works when called without main (as old_explain_records
    calls _sevcs_by_program)."""
    modules = [cli] + [
        importlib.import_module(f"vulnslice.stages.{info.name}")
        for info in pkgutil.iter_modules([os.path.dirname(shared.__file__)])
    ]
    functions = []
    for module in modules:
        owners = [module] + [
            v for v in vars(module).values()
            if isinstance(v, type) and v.__module__ == module.__name__
        ]
        functions += [
            (module, value) for owner in owners for value in vars(owner).values()
            if inspect.isfunction(value) and value.__module__ == module.__name__
        ]
    assert {f.__name__ for _, f in functions} >= {
        "stage_slice", "stage_explain", "_sevcs_by_program", "characteristic_set", "main",
    }
    for module, function in functions:
        read = _globals_read(inspect.unwrap(function).__code__)
        bare = read & set(cli.LAZY_NAMES)
        assert not bare, (function.__qualname__, bare)
        unbound = read - (set(vars(module)) - set(cli.LAZY_NAMES)) - set(dir(builtins))
        assert not unbound, (function.__qualname__, unbound)


def test_lazy_names_are_the_layer_attributes():
    for name, target in cli.LAZY_NAMES.items():
        module, attribute = target.split(":")
        layer = importlib.import_module(f"vulnslice.{module}")
        assert getattr(cli, name) is getattr(layer, attribute), name
    with pytest.raises(AttributeError):
        cli.not_a_lazy_name


def test_names_patched_before_main_are_the_ones_the_stage_calls(
    tmp_path, corpus, monkeypatch
):
    out = tmp_path / "out"
    for stage in ("parse", "extract", "slice", "vectorize", "label", "train"):
        assert run(corpus, out, stage) == 0
    # back to the state of a fresh process: no lazy name bound yet
    for name in cli.LAZY_NAMES:
        monkeypatch.delattr(cli, name)
    calls = []
    for name in ("iter_vectors", "load_checkpoint"):
        def recording(*args, _name=name, _real=getattr(cli, name), **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(cli, name, recording)
    assert run(corpus, out, "detect") in (0, 1)
    assert calls == ["iter_vectors", "load_checkpoint"]


def old_explain_records(config):
    """explain.jsonl's records computed as the explain stage once did: a
    second forward pass over every sample of vectors.bin."""
    hp = config.hyperparams()
    samples, _ = load_vectors(config.path("vectors.bin"))
    params, _ = load_checkpoint(
        config.path("checkpoint.bin"), expect_theta=hp.theta, expect_dim=hp.input_dim
    )
    threshold = params.hp.threshold if config.threshold is None else config.threshold
    cset = config.characteristic_set()
    symbolic = {
        sevc.syvc_id: symbolize(sevc, model, cset)
        for model, sevcs in shared._sevcs_by_program(config)
        for sevc in sevcs
    }
    records = []
    for sample, trace in zip(samples, forward_batch(samples, params, params.hp)):
        if trace.final < threshold:
            continue
        sym = symbolic[sample.syvc_id]
        lo, hi = truncation_window(
            len(sym.symbols), sym.anchor_lo, sym.anchor_hi, sample.capacity
        )
        critical = bgru.explain(trace, sym.symbols[lo:hi], delta=config.delta)
        records.append(
            {
                "syvc_id": sample.syvc_id,
                "program": sample.program,
                "probability": round(trace.final, 6),
                "critical_tokens": [
                    {"position": c.position, "symbol": c.symbol,
                     "direction": c.direction, "delta": round(c.delta, 6)}
                    for c in critical
                ],
            }
        )
    return records


@pytest.mark.parametrize(
    "flags",
    [(), ("--delta", "0.02"), ("--threshold", "0.000001", "--delta", "0.02"),
     # 12 symbols: long SeVCs are truncated around their anchor
     ("--theta", "192", "--threshold", "0.000001", "--delta", "0.02")],
    ids=["defaults", "small-delta", "everything-flagged", "truncated"],
)
def test_explain_equals_a_second_forward_pass(tmp_path, corpus, flags):
    out = tmp_path / "out"
    assert run(corpus, out, "pipeline", *flags) in (0, 1)
    config = cli.config_from_args(cli.build_arg_parser().parse_args(
        ["explain", "--manifest", str(corpus / "manifest.json"), "--out", str(out),
         "--seed", "5", "--embed-mode", "hash", "--epochs", "4", *flags]
    ))
    expected = old_explain_records(config)
    assert expected
    assert read_records(out / "explain.jsonl") == expected
    if config.delta < 0.6:
        assert any(r["critical_tokens"] for r in expected)
    if config.theta == 192:
        samples, _ = load_vectors(config.path("vectors.bin"))
        assert any(s.kept_symbols == 12 for s in samples)


def detected(tmp_path, corpus, *flags):
    out = tmp_path / "out"
    assert run(corpus, out, "pipeline", *flags) in (0, 1)
    return out


def rewrite_detections(out, change):
    """Apply ``change(header, records)`` to detect.jsonl in place."""
    header, records = artifacts.read_jsonl(str(out / "detect.jsonl"))
    change(header, records)
    extra = {k: v for k, v in header.items() if k not in ("artifact", "version", "seed")}
    artifacts.write_jsonl(
        str(out / "detect.jsonl"), header["artifact"], header["seed"], records, **extra
    )


def test_detect_records_its_threshold_and_explain_takes_it(tmp_path, corpus, capsys):
    out = detected(tmp_path, corpus)
    at_checkpoint_threshold = read_records(out / "detect.jsonl")
    assert run(corpus, out, "detect", "--threshold", "0.55") == 1
    header, findings = artifacts.read_jsonl(str(out / "detect.jsonl"))
    assert header["threshold"] == 0.55
    flagged = [f["syvc_id"] for f in findings]
    assert 0 < len(flagged) < len(at_checkpoint_threshold)
    # without --threshold, explain covers what detect flagged at 0.55,
    # not what the checkpoint's 0.5 would flag
    assert run(corpus, out, "explain") == 0
    assert [r["syvc_id"] for r in read_records(out / "explain.jsonl")] == flagged
    assert run(corpus, out, "explain", "--threshold", "0.55") == 0
    capsys.readouterr()
    assert run(corpus, out, "explain", "--threshold", "0.5") == 2
    err = capsys.readouterr().err
    assert "threshold 0.55" in err and "re-run the 'detect' stage" in err


def old_metrics(config):
    """metrics.json as the evaluate stage once computed it: a second
    forward pass over vectors.bin, at the threshold detect applied, on a
    program split drawn again, with the labels of labels.jsonl."""
    header, _ = artifacts.read_jsonl(config.path("detect.jsonl"))
    samples, _ = load_vectors(config.path("vectors.bin"))
    _, label_records = artifacts.read_jsonl(config.path("labels.jsonl"))
    labels = {r["syvc_id"]: r["label"] for r in label_records}
    params, _ = load_checkpoint(config.path("checkpoint.bin"))
    traces = forward_batch(samples, params, params.hp)
    final = {sample.syvc_id: trace.final for sample, trace in zip(samples, traces)}
    _, test_side = split_by_program(samples, ratio=0.8, seed=derive_seed(config.seed, "split"))
    counts = count_confusion(
        [int(final[s.syvc_id] >= header["threshold"]) for s in test_side],
        [labels[s.syvc_id] for s in test_side],
    )
    return {
        "seed": config.seed,
        "counts": {"TP": counts.tp, "FP": counts.fp, "TN": counts.tn, "FN": counts.fn},
        "metrics": compute_metrics(counts).as_dict(),
        "test_samples": len(test_side),
    }


@pytest.mark.parametrize(
    "manifest, flags",
    [("tiny", ()), ("tiny", ("--threshold", "0.55")), ("tiny", ("--threshold", "0.000001")),
     ("mini", ("--epochs", "8"))],
    ids=["tiny", "tiny-0.55", "tiny-everything-flagged", "mini"],
)
def test_evaluate_equals_a_second_forward_pass(tmp_path, corpus, manifest, flags):
    path = corpus / "manifest.json" if manifest == "tiny" else mini_corpus_manifest()
    argv = ["--manifest", str(path), "--out", str(tmp_path / "out"), "--seed", "5",
            "--embed-mode", "hash", "--epochs", "4", *flags]
    assert main(["pipeline", *argv]) in (0, 1)
    config = cli.config_from_args(cli.build_arg_parser().parse_args(["evaluate", *argv]))
    expected = old_metrics(config)
    assert json.loads((tmp_path / "out" / "metrics.json").read_text()) == expected
    counts = expected["counts"]
    assert sum(counts.values()) == expected["test_samples"] > 0
    if "0.000001" in flags:
        assert counts["TN"] == counts["FN"] == 0
    if manifest == "mini":
        assert counts["TP"] > 0 and counts["TN"] > 0


def test_evaluate_takes_detect_findings_and_threshold(tmp_path, corpus, capsys):
    out = detected(tmp_path, corpus)
    metrics = (out / "metrics.json").read_bytes()
    assert run(corpus, out, "evaluate", "--threshold", "0.5") == 0
    assert (out / "metrics.json").read_bytes() == metrics
    capsys.readouterr()
    assert run(corpus, out, "evaluate", "--threshold", "0.55") == 2
    err = capsys.readouterr().err
    assert "threshold 0.5, not at --threshold 0.55" in err
    assert "re-run the 'detect' stage" in err
    rewrite_detections(out, lambda header, records: [r.pop("activations") for r in records])
    (out / "metrics.json").unlink()
    assert run(corpus, out, "evaluate") == 0  # only explain reads activations
    assert (out / "metrics.json").read_bytes() == metrics
    rewrite_detections(out, lambda header, records: records.append({**records[0], "syvc_id": 999}))
    assert run(corpus, out, "evaluate") == 2
    assert "flags a SyVC that labels.jsonl does not hold" in capsys.readouterr().err
    rewrite_detections(out, lambda header, records: header.pop("threshold"))
    assert run(corpus, out, "evaluate") == 2
    assert "holds no threshold (written by an older detect)" in capsys.readouterr().err
    (out / "detect.jsonl").unlink()
    assert run(corpus, out, "evaluate") == 2
    assert "run the 'detect' stage first" in capsys.readouterr().err


MOVED_PROGRAM = (
    "void moved_copy(char *input)\n"
    "{\n"
    "    char room[8];\n"
    "    strcpy(room, input);\n"
    "}\n"
)
# the only "-" line comes back as a "+": a move inside a vulnerable file,
# so every SeVC of moved.c (each holds line 4) is label 1 and needs review
MOVED_DIFF = """--- a/moved.c
+++ b/moved.c
@@ -3,3 +3,3 @@
     char room[8];
-    strcpy(room, input);
 }
+    strcpy(room, input);
"""


ADD_ONLY_DIFF = """--- a/reader.c
+++ b/reader.c
@@ -4,2 +4,3 @@
     gets(line);
+    line[15] = 0;
     puts(line);
"""


def test_label_refuses_a_diff_that_only_adds_lines(tmp_path, capsys):
    root = tmp_path / "corpus"
    root.mkdir()
    for name in ("reader.c", "safe_reader.c"):
        (root / name).write_text(TINY_PROGRAMS[name])
    (root / "reader.diff").write_text(ADD_ONLY_DIFF)
    manifest = {"programs": [
        {"path": "reader.c", "diff": "reader.diff"},
        {"path": "safe_reader.c", "class": "good"},
    ]}
    (root / "manifest.json").write_text(json.dumps(manifest))
    out = tmp_path / "out"
    for stage in ("parse", "extract", "slice"):
        assert run(root, out, stage) == 0
    capsys.readouterr()
    assert run(root, out, "label") == 2
    assert capsys.readouterr().err == (
        "error: program reader.c: its diff only adds lines, "
        "so it marks no vulnerable line\n"
    )
    assert not (out / "labels.jsonl").exists()


@pytest.mark.parametrize(
    "record, problem",
    [
        ({"path": "leak.c", "class": "bad"},
         "program leak.c: its class is 'bad', but it marks no vulnerable line"),
        ({"path": "leak.c", "class": "mixed", "vulnerable_lines": []},
         "program leak.c: its class is 'mixed', but it marks no vulnerable line"),
        ({"path": "leak.c"}, "program leak.c needs either a class or a diff"),
        ({"path": "leak.c", "class": "bad", "vulnerable_lines": [99]},
         "program leak.c: vulnerable line 99 is past the end of "
         "its longest source file, leak.c (6 lines)"),
    ],
    ids=["bad-without-lines", "mixed-without-lines", "no-class-no-diff",
         "line-past-the-end"],
)
def test_label_refuses_a_program_that_marks_no_line(tmp_path, capsys, record, problem):
    """Such a program would be labeled all 0 without a word; parse through
    slice take it, as its manifest is well formed."""
    root = tmp_path / "corpus"
    root.mkdir()
    for name in ("leak.c", "guarded.c"):
        (root / name).write_text(TINY_PROGRAMS[name])
    manifest = {"programs": [record, {"path": "guarded.c", "class": "good"}]}
    (root / "manifest.json").write_text(json.dumps(manifest))
    out = tmp_path / "out"
    for stage in ("parse", "extract", "slice"):
        assert run(root, out, stage) == 0
    capsys.readouterr()
    assert run(root, out, "label") == 2
    assert capsys.readouterr().err == f"error: {problem}\n"
    assert not (out / "labels.jsonl").exists()


def test_a_vulnerable_line_may_lie_in_any_file_of_a_program(tmp_path, capsys):
    """prog/ holds a.c (6 lines) and b.c (9 lines): line 10 lies past the
    end of both, and line 7 lies in b.c and labels its SeVCs."""
    root = tmp_path / "corpus"
    (root / "prog").mkdir(parents=True)
    (root / "prog" / "a.c").write_text(TINY_PROGRAMS["leak.c"])
    (root / "prog" / "b.c").write_text(TINY_PROGRAMS["guarded.c"])
    (root / "safe_reader.c").write_text(TINY_PROGRAMS["safe_reader.c"])
    out = tmp_path / "out"

    def label(line):
        manifest = {"programs": [
            {"path": "prog", "class": "bad", "vulnerable_lines": [line]},
            {"path": "safe_reader.c", "class": "good"},
        ]}
        (root / "manifest.json").write_text(json.dumps(manifest))
        for stage in ("parse", "extract", "slice"):
            assert run(root, out, stage) == 0
        capsys.readouterr()
        return run(root, out, "label")

    assert label(10) == 2
    assert capsys.readouterr().err == (
        "error: program prog: vulnerable line 10 is past the end of "
        "its longest source file, prog/b.c (9 lines)\n"
    )
    assert not (out / "labels.jsonl").exists()
    assert label(7) == 0
    _, labels = artifacts.read_jsonl(str(out / "labels.jsonl"))
    _, sevcs = artifacts.read_jsonl(str(out / "sevc.jsonl"))
    holds_b7 = {
        sevc["syvc_id"]: any(
            (s["file"], s["line"]) == ("prog/b.c", 7) for s in sevc["statements"]
        )
        for sevc in sevcs
    }
    assert any(holds_b7.values())
    assert all(record["label"] == holds_b7[record["syvc_id"]] for record in labels)


# leak.c with a line of each kind that holds no token once comments and
# preprocessor lines are blanked
TOKENLESS_LEAK = (
    "#define ROOM 8\n"
    "void leak(char *input)\n"
    "{\n"
    "    char room[8];\n"
    "\n"
    "    /* copy the input\n"
    "       into the room */\n"
    "    strcpy(room, input); /* unchecked */\n"
    "}\n"
)


@pytest.mark.parametrize("line", [5, 7, 1], ids=["blank", "block-comment", "define"])
def test_label_refuses_a_vulnerable_line_that_holds_no_token(tmp_path, capsys, line):
    """Line 5 is blank, line 7 ends a /* ... */ comment and line 1 is a
    #define: none is part of a statement, so each would label nothing;
    line 8, which holds a statement and a comment, labels its SeVCs."""
    root = tmp_path / "corpus"
    root.mkdir()
    (root / "leak.c").write_text(TOKENLESS_LEAK)
    (root / "guarded.c").write_text(TINY_PROGRAMS["guarded.c"])
    out = tmp_path / "out"

    def label(vulnerable):
        manifest = {"programs": [
            {"path": "leak.c", "class": "bad", "vulnerable_lines": [vulnerable]},
            {"path": "guarded.c", "class": "good"},
        ]}
        (root / "manifest.json").write_text(json.dumps(manifest))
        for stage in ("parse", "extract", "slice"):
            assert run(root, out, stage) == 0
        capsys.readouterr()
        return run(root, out, "label")

    assert label(line) == 2
    assert capsys.readouterr().err == (
        f"error: program leak.c: vulnerable line {line} holds no token in any of its "
        "source files (it is blank, a comment or a preprocessor line)\n"
    )
    assert not (out / "labels.jsonl").exists()
    assert label(8) == 0
    _, labels = artifacts.read_jsonl(str(out / "labels.jsonl"))
    assert any(record["label"] for record in labels)


TWO_FILE_DIFF = """--- a/b.c
+++ b/b.c
@@ -3,2 +3,2 @@
-    strcpy(buf, s);
+    strncpy(buf, s, 8);
     puts(buf);
"""


def test_diff_marks_land_on_the_file_the_diff_names(tmp_path, capsys):
    """prog/ holds a.c and b.c, and the diff removes b.c's line 3: the
    SeVCs that hold prog/b.c:3 are vulnerable, and no SeVC of a.c is.
    A diff that deletes b.c marks all of b.c, and one that renames b.c
    marks b.c, whose lines its hunk counts; one of c.c is refused."""
    root = tmp_path / "corpus"
    (root / "prog").mkdir(parents=True)
    (root / "prog" / "a.c").write_text(TINY_PROGRAMS["leak.c"])
    (root / "prog" / "b.c").write_text(
        "void copy(char *buf, char *s)\n{\n    strcpy(buf, s);\n    puts(buf);\n}\n"
    )
    (root / "prog.diff").write_text(TWO_FILE_DIFF)
    manifest = {"programs": [
        {"path": "prog", "diff": "prog.diff"},
        {"path": "safe_reader.c", "class": "good"},
    ]}
    (root / "safe_reader.c").write_text(TINY_PROGRAMS["safe_reader.c"])
    (root / "manifest.json").write_text(json.dumps(manifest))
    out = tmp_path / "out"
    for stage in ("parse", "extract", "slice", "label"):
        assert run(root, out, stage) == 0
    labels = {r["syvc_id"]: r["label"] for r in read_records(out / "labels.jsonl")}
    files = set()
    for sevc in read_records(out / "sevc.jsonl"):
        held = {(s["file"], s["line"]) for s in sevc["statements"]}
        files |= {file for file, _ in held}
        assert labels[sevc["syvc_id"]] == int(("prog/b.c", 3) in held), held
    assert {"prog/a.c", "prog/b.c"} <= files and sum(labels.values()) > 0
    # a diff that deletes b.c marks every line of it
    deletion = ["--- a/b.c", "+++ /dev/null", "@@ -1,5 +0,0 @@"]
    deletion += ["-" + line for line in (root / "prog" / "b.c").read_text().splitlines()]
    (root / "prog.diff").write_text("\n".join(deletion) + "\n")
    assert run(root, out, "label") == 0
    labels = {r["syvc_id"]: r["label"] for r in read_records(out / "labels.jsonl")}
    for sevc in read_records(out / "sevc.jsonl"):
        held = {s["file"] for s in sevc["statements"]}
        assert labels[sevc["syvc_id"]] == int("prog/b.c" in held), held
    (root / "prog.diff").write_text("--- a/b.c\n+++ b/c.c\n@@ -4,2 +4,1 @@\n-    puts(buf);\n }\n")
    assert run(root, out, "label") == 0
    labels = {r["syvc_id"]: r["label"] for r in read_records(out / "labels.jsonl")}
    for sevc in read_records(out / "sevc.jsonl"):
        held = {(s["file"], s["line"]) for s in sevc["statements"]}
        assert labels[sevc["syvc_id"]] == int(("prog/b.c", 4) in held), held
    assert sum(labels.values()) > 0
    (root / "prog.diff").write_text(TWO_FILE_DIFF.replace("b.c", "c.c"))
    capsys.readouterr()
    assert run(root, out, "label") == 2
    assert capsys.readouterr().err == (
        "error: program prog: diff file c.c matches 0 of its source files, not 1\n"
    )


def test_vectorize_skips_a_sevc_whose_anchor_cannot_fit(tmp_path, capsys):
    """a.c's printf of 28 arguments is longer than the desk preset's 50
    symbols: vectorize skips its SeVC and still encodes the strcpy of
    b.c (and of its copy c.c, so that train has two programs to split),
    and evaluate counts the skipped SeVC as not flagged."""
    args = ", ".join(["n"] * 27)
    programs = {
        "a.c": f'void many(int n)\n{{\n    printf("%d", {args});\n}}\n',
        "b.c": "void copy(char *buf, char *s)\n{\n    strcpy(buf, s);\n}\n",
    }
    programs["c.c"] = programs["b.c"]
    both, alone = tmp_path / "both", tmp_path / "alone"
    for root, names in ((both, ("a.c", "b.c", "c.c")), (alone, ("b.c",))):
        root.mkdir()
        for name in names:
            (root / name).write_text(programs[name])
        (root / "manifest.json").write_text(json.dumps({"programs": [
            {"path": name, "class": "bad", "vulnerable_lines": [3]} for name in names
        ]}))
    front = ("parse", "extract", "slice", "vectorize")
    assert all(run(alone, tmp_path / "out-alone", stage) == 0 for stage in front)
    out = tmp_path / "out"
    capsys.readouterr()
    assert all(run(both, out, stage) == 0 for stage in front)
    assert "vectorized 2 SeVCs (theta=800, d=16, mode=hash), 1 skipped" in capsys.readouterr().out
    sevcs = read_records(out / "sevc.jsonl")
    printf = [r["syvc_id"] for r in sevcs if r["program"] == "a.c"]
    report = json.loads((out / "vectorize_report.json").read_text())
    assert report == {"seed": 5, "vectors": 2, "skipped": [
        {"program": "a.c", "syvc_id": printf[0],
         "message": "anchor span [6,65) cannot survive forward-short truncation to 50 "
                    "symbols (stream has 65); increase the symbol capacity"},
    ]}
    samples, _ = load_vectors(str(out / "vectors.bin"))
    reference, _ = load_vectors(str(tmp_path / "out-alone" / "vectors.bin"))
    assert [s.program for s in samples] == ["b.c", "c.c"]
    assert samples[0].values.tobytes() == reference[0].values.tobytes()
    for stage in ("label", "train"):
        assert run(both, out, stage) == 0
    assert run(both, out, "detect", "--threshold", "0.000001") == 1
    # every program held out: b.c's and c.c's SeVCs are flagged, a.c's
    # was never scored
    report = json.loads((out / "train_report.json").read_text())
    (out / "train_report.json").write_text(json.dumps({**report, "train_programs": []}))
    assert run(both, out, "evaluate") == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["counts"] == {"TP": 2, "FP": 0, "TN": 0, "FN": 1}
    # a one-symbol window fits no anchor: nothing is left to vectorize
    capsys.readouterr()
    assert run(alone, tmp_path / "out-alone", "vectorize", "--theta", "16") == 2
    assert capsys.readouterr().err == (
        "error: no SeVC could be vectorized; see vectorize_report.json\n"
    )


def test_a_file_cut_off_mid_statement_skips_only_its_function(tmp_path):
    root = tmp_path / "corpus"
    write_corpus(root, {"a.c": "void f(int a) { if (a)", "leak.c": TINY_PROGRAMS["leak.c"]})
    out = tmp_path / "out"
    assert parse_only(root, out) == 0
    report = json.loads((out / "parse_report.json").read_text())
    assert report["functions"] == 1
    assert report["diagnostics"] == [
        {
            "program": "a.c",
            "file": "a.c",
            "line": 1,
            "message": "a.c:1: unexpected end of file (function skipped)",
        }
    ]


def test_evaluate_holds_out_exactly_the_programs_train_did_not_train_on(tmp_path, capsys):
    """--strict-review drops moved.c from training, so train splits one
    program fewer than labels.jsonl holds. evaluate scores every labeled
    SeVC outside train_report.json's train_programs, moved.c's included.
    With detect.jsonl cut to the SeVCs of trained programs, it predicts
    no positive: it scores none of them."""
    root = tmp_path / "corpus"
    shutil.copytree(os.path.dirname(mini_corpus_manifest()), root)
    (root / "moved.c").write_text(MOVED_PROGRAM)
    (root / "moved.diff").write_text(MOVED_DIFF)
    manifest = json.loads((root / "manifest.json").read_text())
    manifest["programs"].append({"path": "moved.c", "diff": "moved.diff"})
    (root / "manifest.json").write_text(json.dumps(manifest))
    out = tmp_path / "out"
    argv = ["--manifest", str(root / "manifest.json"), "--out", str(out), "--strict-review",
            "--embed-mode", "hash", "--epochs", "2", "--seed", "101", "--threshold", "0.000001"]
    capsys.readouterr()
    assert main(["pipeline", *argv]) == 1
    labels = read_records(out / "labels.jsonl")
    moved = [r for r in labels if r["program"] == "moved.c"]
    assert moved and all(r["label"] == 1 and r["needs_review"] for r in moved)
    positive = sum(r["label"] for r in labels)
    queued = len(read_records(out / "review.jsonl"))
    assert (
        f"labeled {len(labels)} SeVCs: {positive} vulnerable, {queued} in review.jsonl, "
        f"{len(moved)} needing review\n"
    ) in capsys.readouterr().out
    report = json.loads((out / "train_report.json").read_text())
    trained = set(report["train_programs"])
    assert "moved.c" not in trained | set(report["test_programs"])
    held_out = [r for r in labels if r["program"] not in trained]
    assert len(held_out) == report["test_samples"] + len(moved)

    def keep_trained(header, records):
        records[:] = [f for f in records if f["program"] in trained]

    rewrite_detections(out, keep_trained)
    assert main(["evaluate", *argv]) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["test_samples"] == len(held_out)
    assert metrics["counts"] == {
        "TP": 0, "FP": 0,
        "TN": sum(1 - r["label"] for r in held_out), "FN": sum(r["label"] for r in held_out),
    }


def test_evaluate_without_a_train_report_names_train(tmp_path, corpus, capsys):
    out = detected(tmp_path, corpus)
    (out / "train_report.json").unlink()
    capsys.readouterr()
    assert run(corpus, out, "evaluate") == 2
    assert "missing artifact train_report.json; run the 'train' stage first" in (
        capsys.readouterr().err
    )
    (out / "train_report.json").write_text("{")
    assert run(corpus, out, "evaluate") == 2
    err = capsys.readouterr().err
    assert "train_report.json is not valid JSON" in err and "re-run the 'train' stage" in err


def test_sevc_and_vector_records_hold_no_label(tmp_path, corpus):
    out = detected(tmp_path, corpus)
    records = read_records(out / "sevc.jsonl") + [
        json.loads(line) for line in (out / "vectors.bin.idx").read_text().splitlines()
    ]
    assert records and not any({"label", "needs_review"} & set(r) for r in records)


@pytest.mark.parametrize("flag, value", [("--theta", "400"), ("--dim", "8")])
def test_train_at_another_theta_or_dim_than_vectorize_names_vectorize(
    tmp_path, corpus, capsys, flag, value
):
    out = tmp_path / "out"
    for stage in ("parse", "extract", "slice", "vectorize", "label"):
        assert run(corpus, out, stage) == 0
    capsys.readouterr()
    assert run(corpus, out, "train", flag, value) == 2
    err = capsys.readouterr().err
    assert f"not at {flag} {value}; re-run the 'vectorize' stage" in err
    assert not (out / "checkpoint.bin").exists()


def test_explain_without_detect_names_detect(tmp_path, corpus, capsys):
    out = detected(tmp_path, corpus)
    (out / "detect.jsonl").unlink()
    capsys.readouterr()
    assert run(corpus, out, "explain") == 2
    assert "run the 'detect' stage first" in capsys.readouterr().err


def test_explain_of_findings_without_activations_names_detect(tmp_path, corpus, capsys):
    out = detected(tmp_path, corpus)

    def as_an_older_detect_wrote_it(header, records):
        del header["threshold"]
        for record in records:
            del record["activations"]

    rewrite_detections(out, as_an_older_detect_wrote_it)
    capsys.readouterr()
    assert run(corpus, out, "explain") == 2
    err = capsys.readouterr().err
    assert "holds no activations" in err and "re-run the 'detect' stage" in err


def test_explain_of_a_finding_missing_from_sevc_jsonl_names_detect(tmp_path, corpus, capsys):
    out = detected(tmp_path, corpus)
    gone = read_records(out / "detect.jsonl")[0]["syvc_id"]
    header, sevcs = artifacts.read_jsonl(str(out / "sevc.jsonl"))
    artifacts.write_jsonl(
        str(out / "sevc.jsonl"), header["artifact"], header["seed"],
        [r for r in sevcs if r["syvc_id"] != gone],
    )
    capsys.readouterr()
    assert run(corpus, out, "explain") == 2
    err = capsys.readouterr().err
    assert f"flags SyVC {gone}, which sevc.jsonl does not hold" in err
    assert "re-run the 'detect' stage" in err


def test_explain_of_a_wrong_activation_count_names_detect(tmp_path, corpus, capsys):
    out = detected(tmp_path, corpus)
    rewrite_detections(out, lambda header, records: records[0]["activations"].append(0.5))
    capsys.readouterr()
    assert run(corpus, out, "explain") == 2
    err = capsys.readouterr().err
    assert "activations for SyVC" in err and "re-run the 'detect' stage" in err


def test_detect_of_a_stale_sevc_jsonl_names_vectorize(tmp_path, corpus, capsys):
    out = detected(tmp_path, corpus)
    header, sevcs = artifacts.read_jsonl(str(out / "sevc.jsonl"))
    # a re-sliced sevc.jsonl that no longer holds every SyVC of vectors.bin
    artifacts.write_jsonl(
        str(out / "sevc.jsonl"), header["artifact"], header["seed"], sevcs[:2]
    )
    capsys.readouterr()
    assert run(corpus, out, "detect") == 2
    err = capsys.readouterr().err
    assert f"vectors.bin holds {len(sevcs) - 2} SyVCs that sevc.jsonl does not" in err
    assert "re-run the 'vectorize' stage" in err


@pytest.mark.parametrize(
    "name, stage, producer",
    [("syvc.jsonl", "slice", "extract"), ("sevc.jsonl", "detect", "slice"),
     ("sevc.jsonl", "explain", "slice"), ("labels.jsonl", "train", "label"),
     ("detect.jsonl", "explain", "detect")],
)
def test_a_truncated_jsonl_artifact_names_the_stage_that_writes_it(
    tmp_path, corpus, capsys, name, stage, producer
):
    out = detected(tmp_path, corpus, "--threshold", "0.000001")
    lines = (out / name).read_text().splitlines()
    # cut inside the last record, as a copy cut short would leave it
    (out / name).write_text("\n".join(lines[:-1] + [lines[-1][:20]]))
    capsys.readouterr()
    assert run(corpus, out, stage, "--threshold", "0.000001") == 2
    err = capsys.readouterr().err
    assert f"{out / name} line {len(lines)} is not valid JSON" in err
    assert f"re-run the '{producer}' stage" in err


def test_a_sevc_jsonl_cut_at_a_line_boundary_names_slice(tmp_path, capsys):
    out = tmp_path / "out"
    manifest = mini_corpus_manifest()
    assert stages(manifest, out, "parse", "extract", "slice") == 0
    lines = (out / "sevc.jsonl").read_text().splitlines(keepends=True)
    # the header and the first 50 of 117 records: every line is whole
    (out / "sevc.jsonl").write_text("".join(lines[:51]))
    capsys.readouterr()
    assert stages(manifest, out, "label") == 2
    captured = capsys.readouterr()
    assert "labeled" not in captured.out
    assert f"{out / 'sevc.jsonl'} holds 50 records, its header counts 117" in captured.err
    assert "re-run the 'slice' stage" in captured.err


def test_slice_builds_each_statement_index_once(tmp_path, corpus, monkeypatch):
    out = tmp_path / "out"
    assert run(corpus, out, "parse") == 0
    assert run(corpus, out, "extract") == 0
    built = {}  # id of each index slice used -> its program; all kept alive
    real = ProgramModel.statement_index

    def recording(model):
        index = real(model)
        built[id(index)] = (model.name, index)
        return index

    monkeypatch.setattr(ProgramModel, "statement_index", recording)
    assert run(corpus, out, "slice") == 0
    programs = [name for name, _ in built.values()]
    assert sorted(programs) == sorted({r["program"] for r in read_records(out / "syvc.jsonl")})


@pytest.mark.parametrize("collecting", [True, False], ids=["gc-on", "gc-off"])
def test_main_runs_a_stage_without_cyclic_gc_and_restores_the_setting(
    tmp_path, monkeypatch, collecting
):
    """When main returns, in process, the collector is as it was and
    nothing is frozen (main leaves the freeze to exit), so the caller
    keeps collecting cycles."""
    seen = []

    def restored():
        return gc.isenabled() is collecting and gc.get_freeze_count() == 0

    def stage(code=None, error=None):
        def run_stage(config):
            seen.append(gc.isenabled())
            if error is not None:
                raise error
            return code

        return run_stage

    argv = ["--manifest", "unused.json", "--out", str(tmp_path / "out")]
    monkeypatch.delenv(cli.ENV_PREFIX + "MANIFEST", raising=False)
    try:
        if not collecting:
            gc.disable()
        monkeypatch.setitem(cli.STAGE_FUNCS, "parse", stage())
        assert main(["parse", *argv]) == 0
        assert restored()
        monkeypatch.setattr(cli, "stage_detect", stage(code=1))
        assert main(["detect", *argv]) == 1
        assert restored()
        for error in (cli.StageError("stop"), ValueError("stop")):
            monkeypatch.setitem(cli.STAGE_FUNCS, "parse", stage(error=error))
            assert main(["parse", *argv]) == 2
            assert restored()
        with pytest.raises(SystemExit) as usage:
            main(["parse"])  # no --manifest
        assert usage.value.code == 2 and restored()
    finally:
        gc.enable()
    assert seen == [False] * 4


# Runs main on its arguments twice, counting the heap freezes at exit
# from a handler registered before main's, which so runs after it.
EXIT_PROBE = """
import atexit
import gc
import sys

from vulnslice import cli

freezes = []
freeze = gc.freeze
gc.freeze = lambda: freezes.append(1) or freeze()
atexit.register(lambda: print(f"froze {len(freezes)}: {gc.get_freeze_count() > 0}"))
codes = [cli.main(sys.argv[1:]) for _ in range(2)]
sys.exit(codes[-1])
"""


def test_a_stage_process_freezes_its_heap_once_at_exit(tmp_path, corpus, capsys):
    """main has gc.freeze run at exit, once however often it ran, so the
    collections of interpreter shutdown walk nothing the stage left
    alive; the process still prints and writes all that the same run in
    process does."""
    flags = ["pipeline", "--manifest", str(corpus / "manifest.json"), "--seed", "5",
             "--embed-mode", "hash", "--epochs", "1"]
    in_process, fresh = tmp_path / "in_process", tmp_path / "fresh"
    capsys.readouterr()
    code = main([*flags, "--out", str(in_process)])
    stdout = capsys.readouterr().out
    result = subprocess.run(
        [sys.executable, "-c", EXIT_PROBE, *flags, "--out", str(fresh)],
        env=fresh_env(), capture_output=True, text=True, timeout=300,
    )
    assert (result.returncode, result.stderr) == (code, ""), result.stderr
    assert result.stdout == stdout * 2 + "froze 1: True\n"
    names = sorted(os.listdir(in_process))
    assert "explain.jsonl" in names and names == sorted(os.listdir(fresh))
    for name in names:
        assert (in_process / name).read_bytes() == (fresh / name).read_bytes(), name


def test_stage_data_leaves_no_cyclic_garbage(tmp_path, corpus):
    """main runs stages with the cyclic collector off, so the garbage a
    stage leaves in reference cycles must not grow with the corpus: after
    a warm-up run, a 2-program corpus and the 40-program mini corpus
    leave the same count."""
    small = corpus / "small.json"
    small.write_text(json.dumps({"corpus_root": ".", "programs": [
        {"path": "leak.c", "class": "bad", "vulnerable_lines": [4]},
        {"path": "guarded.c", "class": "good"},
    ]}))
    manifests = {"small": str(small), "mini": mini_corpus_manifest()}
    flags = ["--seed", "5", "--embed-mode", "hash", "--epochs", "1"]

    def cyclic_garbage(stage, name):
        out = tmp_path / name
        gc.collect()
        assert main([stage, "--manifest", manifests[name], "--out", str(out), *flags]) in (0, 1)
        return gc.collect()

    for name in manifests:  # every stage's inputs
        cyclic_garbage("pipeline", name)
    for stage in [*cli.STAGE_FUNCS, "detect", "pipeline"]:
        cyclic_garbage(stage, "small")  # warm-up
        assert cyclic_garbage(stage, "small") == cyclic_garbage(stage, "mini"), stage


def test_vectorize_and_detect_memory_grows_by_under_2_kb_per_sevc(tmp_path, corpus):
    """vectorize and detect hold one program's parse at a time and never
    the whole vector store: their tracemalloc peak grows by under 2 KB
    per extra SeVC at the desk preset's theta of 800, where one float64
    vector alone takes 6.4 KB and one float32 vector 3.2 KB.

    vectorize is measured from the 2-program corpus to the mini corpus,
    and both stages from the mini corpus to the same 40 programs listed
    twice (234 SeVCs of the same lengths). detect is not measured from
    the 2-program corpus: the forward pass holds one chunk's buffers,
    about 2.5 MB at the mini corpus's longest SeVCs and less at the
    2-program corpus's shorter ones, a one-time cost that would swamp
    111 extra SeVCs. The second copy's SeVCs repeat the first copy's
    inputs, which forward_batch keeps once; a distinct input costs
    detect its trimmed float32 rows besides (1.4 KB at the mini corpus's
    mean of 23 symbols)."""
    mini = os.path.dirname(mini_corpus_manifest())
    with open(mini_corpus_manifest(), encoding="utf-8") as handle:
        programs = json.load(handle)["programs"]
    twice = tmp_path / "twice"
    for copy in ("a", "b"):
        shutil.copytree(mini, twice / copy)
    (twice / "manifest.json").write_text(json.dumps({"programs": [
        {**p, "path": f"{copy}/{p['path']}"} for copy in ("a", "b") for p in programs
    ]}))
    small = corpus / "small.json"
    small.write_text(json.dumps({"corpus_root": ".", "programs": [
        {"path": "leak.c", "class": "bad", "vulnerable_lines": [4]},
        {"path": "guarded.c", "class": "good"},
    ]}))
    manifests = {"small": str(small), "mini": mini_corpus_manifest(),
                 "twice": str(twice / "manifest.json")}
    flags = ["--seed", "5", "--embed-mode", "hash", "--epochs", "1"]

    def argv(stage, name):
        return [stage, "--manifest", manifests[name], "--out", str(tmp_path / name), *flags]

    def peak(stage, name):
        tracemalloc.start()
        try:
            assert main(argv(stage, name)) in (0, 1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    sevcs = {}
    for name in manifests:
        assert main(argv("pipeline", name)) in (0, 1)
        sevcs[name] = len(read_records(tmp_path / name / "sevc.jsonl"))
    assert sevcs["twice"] == 2 * sevcs["mini"] == 234
    for stage, pairs in (("vectorize", [("small", "mini"), ("mini", "twice")]),
                         ("detect", [("mini", "twice")])):
        peak(stage, "small")  # warm-up: imports and lazy names
        for fewer, more in pairs:
            growth = (peak(stage, more) - peak(stage, fewer)) / (sevcs[more] - sevcs[fewer])
            assert growth < 2048, (stage, fewer, more, growth)


def test_vectorize_of_an_empty_store_writes_only_its_report(tmp_path, corpus, capsys):
    """When the window fits no SeVC's anchor, vectorize exits 2, leaves no
    vectors.bin (not even one that counts 0 records) and no temp file,
    and still lists every skip."""
    out = tmp_path / "out"
    for stage in ("parse", "extract", "slice"):
        assert run(corpus, out, stage) == 0
    capsys.readouterr()
    assert run(corpus, out, "vectorize", "--theta", "16") == 2
    assert capsys.readouterr().err == (
        "error: no SeVC could be vectorized; see vectorize_report.json\n"
    )
    sevcs = read_records(out / "sevc.jsonl")
    assert not (out / "vectors.bin").exists() and not (out / "vectors.bin.idx").exists()
    assert not [name for name in os.listdir(out) if name.startswith(".tmp-artifact-")]
    report = json.loads((out / "vectorize_report.json").read_text())
    assert report["vectors"] == 0
    assert [s["syvc_id"] for s in report["skipped"]] == [r["syvc_id"] for r in sevcs]


def test_a_program_whose_sevc_records_are_apart_names_slice(tmp_path, corpus, capsys):
    out = tmp_path / "out"
    for stage in ("parse", "extract", "slice"):
        assert run(corpus, out, stage) == 0
    header, records = artifacts.read_jsonl(str(out / "sevc.jsonl"))
    programs = [r["program"] for r in records]
    first = programs[0]
    assert programs.count(first) > 1
    # the first program's first record moved to the end
    artifacts.write_jsonl(
        str(out / "sevc.jsonl"), header["artifact"], header["seed"],
        records[1:] + records[:1],
    )
    capsys.readouterr()
    assert run(corpus, out, "label") == 2
    assert capsys.readouterr().err == (
        f"error: sevc.jsonl holds the records of program {first!r} apart from "
        "each other; re-run the 'slice' stage\n"
    )
