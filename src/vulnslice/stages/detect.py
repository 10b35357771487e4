"""The detect stage: detect.jsonl, and exit code 1 when anything is flagged."""

from __future__ import annotations

from typing import TYPE_CHECKING

from .. import artifacts, cli
from ..artifacts import StageError
from .shared import _Finding

if TYPE_CHECKING:
    from ..cli import RunConfig


def _finding_place(record: dict) -> tuple[int, tuple[list, list, list]]:
    """A sevc.jsonl record's SyVC id, with the SeVC's files, lines and
    functions: all a finding needs of it."""
    statements = record["statements"]
    return record["syvc_id"], (
        sorted({s["file"] for s in statements}),
        [s["line"] for s in statements],
        sorted({s["function"] for s in statements}),
    )


def stage_detect(config: RunConfig) -> int:
    artifacts.require(config.path("vectors.bin"), "vectorize")
    stored, _ = cli.iter_vectors(config.path("vectors.bin"))
    _, places = artifacts.iter_jsonl(
        config.path("sevc.jsonl"), "sevc", "slice", _finding_place
    )
    where = dict(places)
    artifacts.require(config.path("checkpoint.bin"), "train")
    hp = config.hyperparams()
    params, _ = cli.load_checkpoint(
        config.path("checkpoint.bin"), expect_theta=hp.theta, expect_dim=hp.input_dim
    )
    threshold = params.hp.threshold if config.threshold is None else config.threshold
    samples = []  # each sample's (syvc_id, kind, program), in store order

    def values():  # forward_batch reads each sample's values once, then drops them
        for sample in stored:
            samples.append((sample.syvc_id, sample.kind, sample.program))
            yield sample

    traces = cli.forward_batch(values(), params, params.hp)
    stale = [syvc_id for syvc_id, _, _ in samples if syvc_id not in where]
    if stale:
        raise StageError(
            f"vectors.bin holds {len(stale)} SyVCs that sevc.jsonl does not "
            f"(first {stale[0]}); re-run the 'vectorize' stage"
        )
    findings = []
    for (syvc_id, kind, program), trace in zip(samples, traces):
        prob = trace.final
        if prob < threshold:
            continue
        files, lines, functions = where[syvc_id]
        findings.append(
            _Finding(
                syvc_id, kind, program, round(prob, 6), files, functions, lines,
                # the activation at every kept symbol; explain works from these
                trace.outputs.tolist(),
            )
        )
    artifacts.write_jsonl(
        config.path("detect.jsonl"), "detections", config.seed, findings,
        threshold=threshold,
    )
    for f in findings:
        print(
            f"FLAGGED syvc={f.syvc_id} kind={f.kind} "
            f"p={f.probability:.3f} program={f.program} "
            f"files={','.join(f.files)} functions={','.join(f.functions)} "
            f"lines={f.lines}"
        )
    print(f"{len(findings)} SeVCs flagged out of {len(samples)}")
    return cli.EXIT_FINDINGS if findings else cli.EXIT_OK
