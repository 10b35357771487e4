"""Tests of the benchmark itself: generator, span arithmetic, tiny workload runs.

Run from the repository root: ``python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import json
import os
import re

import pytest

import corpus
import run
import workloads
from tracing import Tracer, self_times, summarize


def _tree(root: str) -> dict[str, bytes]:
    files = {}
    for name in sorted(os.listdir(root)):
        with open(os.path.join(root, name), "rb") as handle:
            files[name] = handle.read()
    return files


def test_generator_same_count_and_seed_give_same_bytes(tmp_path):
    corpus.generate(str(tmp_path / "a"), 40, seed=5)
    corpus.generate(str(tmp_path / "b"), 40, seed=5)
    corpus.generate(str(tmp_path / "c"), 40, seed=6)
    a, b, c = (_tree(str(tmp_path / d)) for d in "abc")
    assert len(a) == 41  # programs plus manifest.json
    assert a == b
    assert a != c


def test_generator_ground_truth_and_neutral_names(tmp_path):
    manifest = corpus.generate(str(tmp_path), 60, seed=11)
    with open(manifest, encoding="utf-8") as handle:
        programs = json.load(handle)["programs"]
    assert {p["class"] for p in programs} == {"good", "bad", "mixed"}
    for program in programs:
        with open(tmp_path / program["path"], encoding="utf-8") as handle:
            text = handle.read()
        assert not re.search(r"bad|good|flaw|patch|vuln|safe|fix", text, re.I)
        lines = text.splitlines()
        vulnerable = program.get("vulnerable_lines", [])
        assert bool(vulnerable) == (program["class"] != "good")
        for line in vulnerable:
            assert lines[line - 1].startswith("    ")  # a statement, not a header


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["a.inner", 2.0, 3.0, 1],
        ["b", 3.5, 6.0, 0],  # overlaps a: the union 1..6 is covered once
        ["c", 9.0, 12.0, 0],  # runs past its parent: only 9..10 counts
    ]
    assert self_times(spans) == pytest.approx([10 - 5 - 1, 3 - 1, 1, 2.5, 3])
    summary = summarize(spans)
    assert summary["a"]["calls"] == 1
    assert summary["root"]["self_s"] == pytest.approx(4.0)


def test_tracer_records_nested_spans_and_boundary_counts():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def leaf(items, scale=2):
        return [x * scale for x in items]

    traced_leaf = tracer.wrap("leaf", leaf, count=lambda args, out: len(out) * args["scale"])

    def outer():
        return traced_leaf([1, 2, 3]) + traced_leaf([4])

    assert tracer.wrap("outer", outer)() == [2, 4, 6, 8]
    names = [s[0] for s in tracer.spans]
    assert names == ["outer", "leaf", "leaf"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 0]
    # outer spans ticks 0..5, each leaf one tick
    assert self_times(tracer.spans) == [3.0, 1.0, 1.0]
    assert tracer.counters["leaf"] == 8


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Shrink the workloads and keep every file the run writes under tmp_path.

    The BGRU trains for one epoch, so the detector is not fit to pass the
    F1 gate; the tests use that to check the failure accounting.
    """
    monkeypatch.setattr(run, "WORK_ROOT", str(tmp_path / "work"))
    monkeypatch.setattr(run, "TRACE_ROOT", str(tmp_path / "traces"))
    monkeypatch.setattr(workloads, "CACHE_ROOT", str(tmp_path / "cache"))
    monkeypatch.setattr(workloads.ScanCorpus, "programs", 16)
    monkeypatch.setenv("VULNSLICE_EPOCHS", "1")
    return tmp_path


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_untraced_run_of_each_workload(tiny, name, capsys):
    values, samples, attempted, failed, correct = run.run(name, seed=3, seconds=0, trace=False)
    assert attempted == len(workloads.WORKLOADS[name].stages)
    spec = {m["name"] for m in run.load_spec()["end_to_end"]}
    assert spec <= set(values)
    assert all(values[m] > 0 for m in spec - {"f1"})
    assert samples["setup_s"] >= run.SETUP_PROBES
    assert not os.listdir(tiny / "work")
    # the failed F1 check is one failed operation
    assert not correct and failed == 1
    assert "F1" in capsys.readouterr().err


def test_tiny_traced_run_reports_every_layer_metric(tiny):
    values, _, attempted, failed, correct = run.run("mini-pipeline", seed=3, seconds=0, trace=True)
    # reference and traced pipelines, two three-stage scaling runs, the paper kernel
    assert attempted == 2 * 1 + 2 * 3 + 1
    assert failed == 2 and not correct  # both pipelines miss the F1 gate
    assert {m["name"] for m in run.load_spec()["per_layer"]} <= set(values)
    assert values["cli.vectorize_s"] > values["embeddings.train_embeddings_s"] > 0
    assert values["cli.train_s"] > values["bgru.loss_and_gradients_s"] > 0
    assert values["labeling.apply_labels_s"] > 0
    assert values["bgru.paper_fwdbwd_samples_per_s"] > 0
    assert values["bgru.train_samples_per_s"] > 0
    # parse, extract, slice, vectorize, label and explain each parse the 40 programs
    assert values["frontend.load_program_calls"] == 6 * 40
    assert os.listdir(tiny / "traces")


def test_later_repetitions_must_reproduce_the_first(tiny):
    work = tiny / "front"
    work.mkdir()
    launcher = workloads.Launcher(run.child_env(), str(work))
    front = workloads.FrontHalf(launcher, str(work), seed=3, programs=8)
    first = front.run_rep(str(work / "r0"))
    assert not first.errors and first.sevcs > 0
    assert set(first.digests) == {"syvc.jsonl", "sevc.jsonl"}
    assert not front.run_rep(str(work / "r1"), reference=first).errors
    first.digests["sevc.jsonl"] = "0" * 64
    again = front.run_rep(str(work / "r2"), reference=first)
    assert again.errors == ["outputs differ from the first repetition: ['sevc.jsonl']"]
    assert again.failed_ops == 1


def test_generator_deals_exact_shares(tmp_path):
    sizes = []
    for seed in (1, 2):
        manifest = corpus.generate(str(tmp_path / str(seed)), 50, seed)
        with open(manifest, encoding="utf-8") as handle:
            programs = json.load(handle)["programs"]
        sizes.append(sum((tmp_path / str(seed) / p["path"]).read_text().count("\n")
                         for p in programs))
        assert sorted(corpus._program_sizes(50, corpus.random.Random(seed))) == (
            [1] * 30 + [2] * 15 + [3] * 5)
    # same function count and template mix: line counts differ only by the templates
    # left over in the last, partly dealt deck
    assert abs(sizes[0] - sizes[1]) < 0.1 * sizes[0]


def test_calibrated_process_is_paused_for_calibrations(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "SLICE_S", 0.05)
    launcher = workloads.Launcher(run.child_env(), str(tmp_path))
    probe = launcher.probe(calibrated=True)
    assert probe.exit_code == 0
    assert len(probe.segments) >= 2
    assert all(calibration > 0 for _, _, calibration in probe.segments)
    # the pauses do not count
    assert probe.wall_s < probe.end - probe.launch
    assert probe.setup_s <= probe.wall_s
    expected = sum((end - start) * workloads.REFERENCE_CALIBRATION_S / calibration
                   for start, end, calibration in probe.segments)
    assert probe.running_s(normalized=True) == pytest.approx(expected)
    plain = launcher.probe()
    assert [segment[2] for segment in plain.segments] == [None]
    assert plain.wall_s == pytest.approx(plain.end - plain.launch)


def test_cli_exit_2_is_a_failed_operation(tiny, monkeypatch, capsys):
    monkeypatch.setattr(workloads, "MINI_MANIFEST", str(tiny / "missing.json"))
    _, _, attempted, failed, correct = run.run("mini-pipeline", seed=3, seconds=0, trace=False)
    assert (attempted, failed, correct) == (1, 1, False)
    assert "pipeline exited 2: error: manifest not found" in capsys.readouterr().err
