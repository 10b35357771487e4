"""Program-level dataset splits, confusion counting, and the five metrics.

Splits partition programs, never samples, so no program leaks across
the train/test boundary. Metrics with a zero denominator report the
undefined marker (None, rendered "n/a") instead of crashing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


class EvaluationError(Exception):
    pass


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int = 0
    fp: int = 0
    tn: int = 0
    fn: int = 0

    def __post_init__(self):
        if min(self.tp, self.fp, self.tn, self.fn) < 0:
            raise EvaluationError("confusion counts must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    def as_dict(self) -> dict:
        return {"TP": self.tp, "FP": self.fp, "TN": self.tn, "FN": self.fn}


@dataclass(frozen=True)
class MetricsReport:
    fpr: float | None
    fnr: float | None
    accuracy: float | None
    precision: float | None
    f1: float | None

    def as_dict(self) -> dict:
        return {
            "FPR": self.fpr,
            "FNR": self.fnr,
            "A": self.accuracy,
            "P": self.precision,
            "F1": self.f1,
        }


def split_by_program(
    samples: Sequence, ratio: float = 0.8, seed: int = 0
) -> tuple[list, list]:
    """Split samples by their source program id, ratio on programs.

    Every sample of a program lands on one side. Requires at least two
    programs; both sides end up non-empty.
    """
    programs = sorted({s.program for s in samples})
    if len(programs) < 2:
        raise EvaluationError(
            f"need at least 2 programs to split, got {len(programs)}"
        )
    if not 0.0 < ratio < 1.0:
        raise EvaluationError("split ratio must be in (0, 1)")
    rng = np.random.default_rng(seed)
    order = [programs[i] for i in rng.permutation(len(programs))]
    n_train = int(ratio * len(order))
    n_train = max(1, min(len(order) - 1, n_train))
    train_programs = set(order[:n_train])
    train = [s for s in samples if s.program in train_programs]
    test = [s for s in samples if s.program not in train_programs]
    return train, test


def count_confusion(
    predictions: Sequence[int], labels: Sequence[int]
) -> ConfusionCounts:
    if len(predictions) != len(labels):
        raise EvaluationError("prediction/label length mismatch")
    tp = fp = tn = fn = 0
    for pred, label in zip(predictions, labels):
        if label == 1:
            if pred == 1:
                tp += 1
            else:
                fn += 1
        else:
            if pred == 1:
                fp += 1
            else:
                tn += 1
    return ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn)


def _ratio(num: int, den: int) -> float | None:
    return num / den if den > 0 else None


def compute_metrics(counts: ConfusionCounts) -> MetricsReport:
    """FPR, FNR, accuracy, precision, F1 from confusion counts.

    F1 = 2 * P * (1 - FNR) / (P + (1 - FNR)); undefined whenever a
    needed denominator is zero.
    """
    fpr = _ratio(counts.fp, counts.fp + counts.tn)
    fnr = _ratio(counts.fn, counts.tp + counts.fn)
    accuracy = _ratio(counts.tp + counts.tn, counts.total)
    precision = _ratio(counts.tp, counts.tp + counts.fp)
    f1 = None
    if precision is not None and fnr is not None:
        recall = 1.0 - fnr
        if precision + recall > 0:
            # algebraically 2*P*R/(P+R); the integer form keeps exact
            # values exact (e.g. the 8/2/2/8 example gives 0.8, not
            # 0.8 plus rounding noise)
            f1 = 2.0 * counts.tp / (2.0 * counts.tp + counts.fp + counts.fn)
    return MetricsReport(
        fpr=fpr, fnr=fnr, accuracy=accuracy, precision=precision, f1=f1
    )


def format_metrics_table(report: MetricsReport, counts: ConfusionCounts) -> str:
    def cell(value: float | None) -> str:
        return "n/a" if value is None else f"{100.0 * value:6.2f}%"

    cells = " ".join(f"{name}={value}" for name, value in counts.as_dict().items())
    lines = [
        f"samples: {counts.total}  {cells}",
        "metric   value",
        "-------  -------",
    ]
    for name, value in report.as_dict().items():
        lines.append(f"{name:<7}  {cell(value)}")
    return "\n".join(lines)
