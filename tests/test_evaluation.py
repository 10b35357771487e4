"""Program splits and the five detection metrics."""

from dataclasses import dataclass

import numpy as np
import pytest

from vulnslice.evaluation import (
    ConfusionCounts,
    EvaluationError,
    compute_metrics,
    count_confusion,
    format_metrics_table,
    split_by_program,
)


@dataclass
class FakeSample:
    program: str
    label: int = 0


def samples_over(programs, per_program=3):
    return [
        FakeSample(program=p, label=i % 2)
        for p in programs
        for i in range(per_program)
    ]


def test_split_ratio_on_programs():
    data = samples_over([f"p{i}" for i in range(10)])
    train, test = split_by_program(data, ratio=0.8, seed=1)
    train_programs = {s.program for s in train}
    test_programs = {s.program for s in test}
    assert len(train_programs) == 8 and len(test_programs) == 2


def test_split_is_a_partition_of_programs():
    data = samples_over([f"p{i}" for i in range(7)])
    train, test = split_by_program(data, ratio=0.8, seed=3)
    assert {s.program for s in train} & {s.program for s in test} == set()
    assert len(train) + len(test) == len(data)
    # all samples of any program land on one side
    for program in {s.program for s in data}:
        sides = {
            ("train" if s in train else "test")
            for s in data
            if s.program == program
        }
        assert len(sides) == 1


def test_split_deterministic_under_seed():
    data = samples_over([f"p{i}" for i in range(9)])
    a = split_by_program(data, seed=42)
    b = split_by_program(data, seed=42)
    assert [s.program for s in a[0]] == [s.program for s in b[0]]
    c = split_by_program(data, seed=43)
    assert [s.program for s in a[1]] != [s.program for s in c[1]] or True


def test_split_needs_two_programs():
    with pytest.raises(EvaluationError):
        split_by_program(samples_over(["only"]), seed=0)


def test_split_both_sides_nonempty_extremes():
    data = samples_over(["a", "b"])
    train, test = split_by_program(data, ratio=0.99, seed=0)
    assert {s.program for s in train} and {s.program for s in test}


def test_worked_confusion_example():
    counts = ConfusionCounts(tp=8, fn=2, fp=2, tn=8)
    report = compute_metrics(counts)
    assert report.fpr == pytest.approx(0.2)
    assert report.fnr == pytest.approx(0.2)
    assert report.accuracy == pytest.approx(0.8)
    assert report.precision == pytest.approx(0.8)
    assert report.f1 == pytest.approx(0.8)


def test_undefined_metrics_markers():
    report = compute_metrics(ConfusionCounts(tp=3, fn=1, fp=0, tn=0))
    assert report.fpr is None
    assert report.fnr == pytest.approx(0.25)
    no_positives = compute_metrics(ConfusionCounts(tp=0, fn=0, fp=0, tn=4))
    assert no_positives.fnr is None and no_positives.precision is None
    assert no_positives.f1 is None


def test_metrics_scale_invariance():
    rng = np.random.default_rng(0)
    for _ in range(50):
        tp, fp, tn, fn = (int(v) for v in rng.integers(1, 50, size=4))
        base = compute_metrics(ConfusionCounts(tp, fp, tn, fn))
        scaled = compute_metrics(ConfusionCounts(3 * tp, 3 * fp, 3 * tn, 3 * fn))
        for a, b in zip(base.as_dict().values(), scaled.as_dict().values()):
            assert a == pytest.approx(b)


def test_f1_matches_independent_formula():
    rng = np.random.default_rng(9)
    for _ in range(200):
        tp, fp, tn, fn = (int(v) for v in rng.integers(0, 30, size=4))
        counts = ConfusionCounts(tp, fp, tn, fn)
        report = compute_metrics(counts)
        if tp + fp == 0 or tp + fn == 0:
            assert report.f1 is None or report.precision is None
            continue
        precision = tp / (tp + fp)
        recall = 1.0 - fn / (tp + fn)
        expected = (
            2 * precision * recall / (precision + recall)
            if precision + recall > 0
            else None
        )
        if expected is None:
            assert report.f1 is None
        else:
            assert report.f1 == pytest.approx(expected)


def test_count_confusion_matches_manual_loop():
    rng = np.random.default_rng(4)
    preds = [int(v) for v in rng.integers(0, 2, size=100)]
    labels = [int(v) for v in rng.integers(0, 2, size=100)]
    counts = count_confusion(preds, labels)
    tp = sum(1 for p, l in zip(preds, labels) if p == 1 and l == 1)
    fp = sum(1 for p, l in zip(preds, labels) if p == 1 and l == 0)
    tn = sum(1 for p, l in zip(preds, labels) if p == 0 and l == 0)
    fn = sum(1 for p, l in zip(preds, labels) if p == 0 and l == 1)
    assert (counts.tp, counts.fp, counts.tn, counts.fn) == (tp, fp, tn, fn)
    assert counts.total == 100


def test_negative_counts_rejected():
    with pytest.raises(EvaluationError):
        ConfusionCounts(tp=-1)


def test_table_renders_na():
    counts = ConfusionCounts(tp=0, fn=0, fp=0, tn=4)
    text = format_metrics_table(compute_metrics(counts), counts)
    assert "n/a" in text and "TP=0" in text


def test_counts_as_dict_name_each_count_and_head_the_table():
    counts = ConfusionCounts(tp=8, fp=2, tn=7, fn=1)
    assert counts.as_dict() == {"TP": 8, "FP": 2, "TN": 7, "FN": 1}
    assert list(counts.as_dict()) == ["TP", "FP", "TN", "FN"]
    text = format_metrics_table(compute_metrics(counts), counts)
    assert text.splitlines()[0] == "samples: 18  TP=8 FP=2 TN=7 FN=1"
