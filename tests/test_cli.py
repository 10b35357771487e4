"""CLI stage wiring: artifacts, exit codes, reproducibility."""

import json
import os
import shutil

import pytest

from vulnslice.cli import main
from vulnslice.embeddings import EmbeddingTable, hash_vector

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
