"""The repository's tools reproduce the data that is checked in."""

import importlib.util
import json
import os
import shutil
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


def two_program_corpus(tmp_path):
    """A corpus of two small bad programs: train splits by program, so it
    needs two."""
    root = tmp_path / "corpus"
    root.mkdir()
    for name in ("a.c", "b.c"):
        (root / name).write_text(
            "void leak(char *input)\n{\n    char buf[8];\n    strcpy(buf, input);\n}\n"
        )
    (root / "manifest.json").write_text(json.dumps({"programs": [
        {"path": name, "class": "bad", "vulnerable_lines": [4]} for name in ("a.c", "b.c")
    ]}))
    return root


def test_stage_rss_reports_each_stage_process(tmp_path):
    """tools/stage_rss.py runs every stage, then the pipeline, each in a
    process of its own, and prints each one's peak RSS and wall time,
    split into start-up, main and exit."""
    root = two_program_corpus(tmp_path)
    tool = os.path.join(REPO_ROOT, "tools", "stage_rss.py")
    result = subprocess.run(
        [sys.executable, tool, str(root / "manifest.json"), str(tmp_path / "out"),
         "--embed-mode", "hash", "--epochs", "1", "--threshold", "0.000001"],
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    header, *rows = result.stdout.splitlines()
    assert header.split() == ["stage", "peak_rss_mb", "wall_s", "startup_ms", "main_ms",
                              "exit_ms", "exit"]
    stages = ["parse", "extract", "slice", "vectorize", "label", "train",
              "detect", "evaluate", "explain", "pipeline"]
    assert [row.split()[0] for row in rows] == stages
    for row in rows:
        stage, rss_mb, wall_s, *parts_ms, code = row.split()
        assert float(rss_mb) > 1 and float(wall_s) > 0
        parts = [float(ms) / 1000 for ms in parts_ms]
        assert all(part > 0 for part in parts), row
        # the parts are rounded to 0.1 ms and the wall time to 10 ms
        assert abs(sum(parts) - float(wall_s)) <= 0.0052, row
        # detect, and the pipeline that ends in it, exit 1 on findings
        assert int(code) == (1 if stage in ("detect", "pipeline") else 0), row
    assert (tmp_path / "out" / "explain.jsonl").exists()


def test_stage_rss_stops_at_a_stage_that_fails(tmp_path):
    """A process that exits 2 ends the run, and the tool exits 2; the
    row still splits that process's time."""
    tool = os.path.join(REPO_ROOT, "tools", "stage_rss.py")
    result = subprocess.run(
        [sys.executable, tool, str(tmp_path / "missing.json"), str(tmp_path / "out")],
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 2
    header, row = result.stdout.splitlines()
    stage, _, _, startup_ms, main_ms, exit_ms, code = row.split()
    assert (stage, code) == ("parse", "2") and float(startup_ms) > 0
    assert float(main_ms) >= 0 and float(exit_ms) > 0
    assert "manifest not found" in result.stderr


def test_stage_rss_compiles_from_source_and_leaves_no_bytecode(tmp_path):
    """tools/stage_rss.py runs its processes as in a fresh checkout, from
    a copy of src/ without __pycache__, so a checkout's cached bytecode
    cannot hide the compile time from the start-up column; even where
    the environment lets Python write bytecode, a run leaves no
    __pycache__ under the checkout's src/."""
    checkout = tmp_path / "checkout"
    shutil.copytree(os.path.join(REPO_ROOT, "src"), checkout / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (checkout / "tools").mkdir()
    shutil.copy(os.path.join(REPO_ROOT, "tools", "stage_rss.py"), checkout / "tools")
    root = two_program_corpus(tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    result = subprocess.run(
        [sys.executable, str(checkout / "tools" / "stage_rss.py"), str(root / "manifest.json"),
         str(tmp_path / "out"), "--embed-mode", "hash", "--epochs", "1"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert len(result.stdout.splitlines()) == 11  # the header and ten processes
    cached = [directory for directory, _, _ in os.walk(checkout / "src")
              if os.path.basename(directory) == "__pycache__"]
    assert cached == []


def test_stage_profile_times_each_stage_and_its_layer_calls(tmp_path):
    """tools/stage_profile.py runs the stages warm in one process and
    prints each stage's wall time, its layer calls and artifact I/O."""
    tool = os.path.join(REPO_ROOT, "tools", "stage_profile.py")
    manifest = os.path.join(data_path("mini_corpus"), "manifest.json")
    result = subprocess.run(
        [sys.executable, tool, manifest, str(tmp_path / "out"), "1",
         "parse,extract,slice,vectorize", "--embed-mode", "hash"],
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    header, *rows = result.stdout.splitlines()
    assert header == "best of 1 warm rounds, in ms"
    stages = {}
    for row in rows:
        if not row.startswith(" "):
            stage, wall_ms = row.split()
            stages[stage] = layers = {}
            assert float(wall_ms) > 0
        elif row.split()[0] == "(stage":
            layers["(stage code)"] = float(row.split()[-1])
        else:
            label, calls, self_ms = row.split()
            layers[label] = (int(calls), float(self_ms))
    assert list(stages) == ["parse", "extract", "slice", "vectorize"]
    for layers in stages.values():  # every stage parses the corpus once
        assert layers["frontend.load_program"][0] == 40
        # a stage function is not timed as a layer: its own time is the stage code
        assert "(stage code)" in layers and not any(k.startswith("stages.") for k in layers)
    assert stages["parse"]["artifacts.write_jsonl_lines"][0] == 1
    assert stages["extract"]["candidates.extract_syvcs"][0] == 40
    assert stages["slice"]["slicing.assemble_sevc"][0] == 117
    assert stages["vectorize"]["vectorize.encode"][0] == 117
    assert (tmp_path / "out" / "vectors.bin").exists()


def test_same_bytes_compares_two_source_trees(tmp_path):
    """tools/same_bytes.py finds no difference between the checkout and a
    copy of it, and names the stream a changed ``print`` alters."""
    tool = os.path.join(REPO_ROOT, "tools", "same_bytes.py")
    src = os.path.join(REPO_ROOT, "src")
    copy = tmp_path / "copy"
    shutil.copytree(src, copy, ignore=shutil.ignore_patterns("__pycache__"))
    manifest = os.path.join(data_path("mini_corpus"), "manifest.json")

    def same_bytes(change_src, stages):
        return subprocess.run(
            [sys.executable, tool, src, str(change_src), manifest, stages, "--seed", "101"],
            capture_output=True, text=True, timeout=300,
        )

    result = same_bytes(copy, "parse,extract,slice")
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout == "same bytes: 5 files; exit codes parse 0, extract 0, slice 0\n"
    parse_py = copy / "vulnslice" / "stages" / "parse.py"
    text = parse_py.read_text()
    assert text.count('f"parsed {') == 1
    parse_py.write_text(text.replace('f"parsed {', 'f"Parsed {'))
    result = same_bytes(copy, "parse")
    assert result.returncode == 1, result.stdout + result.stderr
    assert result.stdout.splitlines() == [
        "parse stdout: first at byte 0 (line 1): parent b'parsed 40 programs: "
        "48 functions, 198 statements, 0 diagnostics', change b'Parsed 40 programs: "
        "48 functions, 198 statements, 0 diagnostics'",
        "1 differences",
    ]
