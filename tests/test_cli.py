"""CLI stage wiring: artifacts, exit codes, reproducibility."""

import importlib
import json
import os
import shutil
import subprocess
import sys
from dataclasses import fields

import pytest

from vulnslice import cli
from vulnslice.cli import main
from vulnslice.data import mini_corpus_manifest
from vulnslice.embeddings import EmbeddingTable, hash_vector

from test_embeddings import reference_train_embeddings

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


def parse_config(*argv):
    return cli.config_from_args(cli.build_arg_parser().parse_args(["parse", *argv]))


@pytest.mark.parametrize("name, value", [("THETA", "abc"), ("DELTA", "x"), ("SEED", "7.5")])
def test_bad_env_value_is_a_usage_error(monkeypatch, capsys, name, value):
    monkeypatch.setenv("VULNSLICE_" + name, value)
    with pytest.raises(SystemExit) as exc:
        main(["parse", "--manifest", "m.json"])
    assert exc.value.code == 2
    assert f"--{name.lower()}: invalid" in capsys.readouterr().err


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
    default = getattr(parse_config("--manifest", "m.json"), field.name)
    assert getattr(parse_config("--manifest", "m.json", *flag), field.name) == expected
    assert expected != default


def test_bad_manifest_is_error(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["parse", "--manifest", str(missing), "--out", str(tmp_path)]) == 2
    assert "manifest" in capsys.readouterr().err


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
        ("void spin(){ int a; for(;;){ a = a + 1; } }", None,
         "'for' without a condition is outside the subset (bad.c:spin)"),
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


def test_vectorize_of_stale_statement_ids_names_slice(tmp_path, capsys):
    root = tmp_path / "corpus"
    write_corpus(root, {"leak.c": TINY_PROGRAMS["leak.c"]})
    out = tmp_path / "out"
    assert stages(root / "manifest.json", out, "parse", "extract", "slice") == 0
    (root / "leak.c").write_text("void leak(char *input)\n{\n}\n")
    capsys.readouterr()
    assert stages(root / "manifest.json", out, "vectorize", extra=["--embed-mode", "hash"]) == 2
    assert "re-run 'slice'" in capsys.readouterr().err


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


NUMPY_PROBE = """
import sys
from vulnslice import cli

assert "numpy" not in sys.modules, "import vulnslice.cli"
manifest, out = sys.argv[1:]
for stage in ("parse", "extract", "slice"):
    assert cli.main([stage, "--manifest", manifest, "--out", out]) == 0, stage
    assert "numpy" not in sys.modules, stage
assert cli.main(["vectorize", "--manifest", manifest, "--out", out, "--embed-mode", "hash"]) == 0
assert "numpy" in sys.modules, "vectorize"
"""


def test_front_half_stages_do_not_import_numpy(tmp_path):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    env = {k: v for k, v in env.items() if not k.startswith(cli.ENV_PREFIX)}
    result = subprocess.run(
        [sys.executable, "-c", NUMPY_PROBE, mini_corpus_manifest(), str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr


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
    for name in ("load_vectors", "load_checkpoint"):
        def recording(*args, _name=name, _real=getattr(cli, name), **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(cli, name, recording)
    assert run(corpus, out, "detect") in (0, 1)
    assert calls == ["load_vectors", "load_checkpoint"]
