"""The explain stage: explain.jsonl, from detect.jsonl and sevc.jsonl."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .. import artifacts, cli
from .shared import _detections, _sevcs_by_program, _stale_detections

if TYPE_CHECKING:
    from ..cli import RunConfig
    from ..symbols import CriticalToken


@dataclass
class _Explanation:
    """An explain.jsonl record."""

    syvc_id: int
    program: str
    probability: float
    critical_tokens: list[CriticalToken]


def stage_explain(config: RunConfig) -> None:
    findings = _detections(config, activations=True)
    cset = config.characteristic_set()
    # only the flagged SeVCs are built, and symbolized while their program is parsed
    flagged = {finding.syvc_id for finding in findings}
    symbolic = {
        sevc.syvc_id: cli.symbolize(sevc, model, cset)
        for model, sevcs in _sevcs_by_program(config, flagged)
        for sevc in sevcs
    }
    capacity = config.hyperparams().seq_len
    records = []
    for finding in findings:
        sym = symbolic.get(finding.syvc_id)
        if sym is None:
            raise _stale_detections(
                f"flags SyVC {finding.syvc_id}, which sevc.jsonl does not hold"
            )
        kept = sym.kept(capacity)
        if len(finding.activations) != len(kept):
            raise _stale_detections(
                f"holds {len(finding.activations)} activations for SyVC "
                f"{finding.syvc_id}, whose kept symbol window has {len(kept)}"
            )
        trace = cli.ActivationTrace(finding.activations)
        records.append(
            _Explanation(
                finding.syvc_id, finding.program, finding.probability,
                cli.explain_trace(trace, kept, delta=config.delta),
            )
        )
    artifacts.write_jsonl(
        config.path("explain.jsonl"), "explanations", config.seed, records
    )
    total = sum(len(r.critical_tokens) for r in records)
    print(
        f"explained {len(records)} flagged SeVCs "
        f"({total} critical tokens at delta={config.delta})"
    )
