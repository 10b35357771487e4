"""The evaluate stage: metrics.json, from detect.jsonl, labels.jsonl and
train_report.json."""

from __future__ import annotations

from typing import TYPE_CHECKING

from .. import artifacts, cli
from .shared import _detections, _labels, _stale_detections

if TYPE_CHECKING:
    from ..cli import RunConfig


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
    counts = cli.count_confusion(predictions, [r.label for r in test_side])
    report = cli.compute_metrics(counts)
    artifacts.write_json(
        config.path("metrics.json"),
        {
            "seed": config.seed,
            "counts": counts.as_dict(),
            "metrics": report.as_dict(),
            "test_samples": len(test_side),
        },
    )
    print(cli.format_metrics_table(report, counts))
