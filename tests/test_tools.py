"""The repository's tools reproduce the data that is checked in."""

import importlib.util
import json
import os
import subprocess
import sys

from vulnslice.data import data_path

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_mini_corpus_generator_writes_the_bundled_corpus(tmp_path, capsys):
    """tools/gen_mini_corpus.py regenerates src/vulnslice/data/mini_corpus/
    byte for byte, so neither can drift from the other; perfbench's
    generated corpora are built from the same templates."""
    path = os.path.join(REPO_ROOT, "tools", "gen_mini_corpus.py")
    spec = importlib.util.spec_from_file_location("gen_mini_corpus", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.OUT_DIR = str(tmp_path)
    module.main()
    bundled = data_path("mini_corpus")
    names = sorted(os.listdir(bundled))
    assert len(names) == 41  # 40 programs and manifest.json
    assert sorted(os.listdir(tmp_path)) == names
    for name in names:
        with open(os.path.join(bundled, name), "rb") as handle:
            assert (tmp_path / name).read_bytes() == handle.read(), name


def test_stage_rss_reports_each_stage_process(tmp_path):
    """tools/stage_rss.py runs every stage, then the pipeline, each in a
    process of its own, and prints each one's peak RSS."""
    root = tmp_path / "corpus"
    root.mkdir()
    for name in ("a.c", "b.c"):  # train splits by program: it needs two
        (root / name).write_text(
            "void leak(char *input)\n{\n    char buf[8];\n    strcpy(buf, input);\n}\n"
        )
    (root / "manifest.json").write_text(json.dumps({"programs": [
        {"path": name, "class": "bad", "vulnerable_lines": [4]} for name in ("a.c", "b.c")
    ]}))
    tool = os.path.join(REPO_ROOT, "tools", "stage_rss.py")
    result = subprocess.run(
        [sys.executable, tool, str(root / "manifest.json"), str(tmp_path / "out"),
         "--embed-mode", "hash", "--epochs", "1", "--threshold", "0.000001"],
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    header, *rows = result.stdout.splitlines()
    assert header.split() == ["stage", "peak_rss_mb", "wall_s", "exit"]
    stages = ["parse", "extract", "slice", "vectorize", "label", "train",
              "detect", "evaluate", "explain", "pipeline"]
    assert [row.split()[0] for row in rows] == stages
    for row in rows:
        stage, rss_mb, wall_s, code = row.split()
        assert float(rss_mb) > 1 and float(wall_s) > 0
        # detect, and the pipeline that ends in it, exit 1 on findings
        assert int(code) == (1 if stage in ("detect", "pipeline") else 0), row
    assert (tmp_path / "out" / "explain.jsonl").exists()
