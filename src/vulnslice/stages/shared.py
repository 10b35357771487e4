"""What several stages read: sevc.jsonl program by program (vectorize,
label and explain), labels.jsonl (label writes it; train and evaluate
read it) and detect.jsonl (detect writes it; evaluate and explain read
it)."""

from __future__ import annotations

import itertools
from collections.abc import Container, Iterator
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .. import artifacts, cli
from ..artifacts import StageError

if TYPE_CHECKING:
    from ..cli import RunConfig
    from ..frontend import ProgramModel
    from ..symbols import SeVC


def _sevcs_by_program(
    config: RunConfig, wanted: Container[int] | None = None
) -> Iterator[tuple[ProgramModel, list[SeVC]]]:
    """sevc.jsonl's SeVCs, one program at a time: for each program's
    records, in file order, parse the program and yield it with its
    SeVCs. Every record is decoded into its SeVC, so a malformed one is
    refused whatever ``wanted`` holds; ``wanted`` limits to those syvc
    ids only the SeVCs checked against the parse and yielded. Every
    program is parsed all the same."""
    program_named = cli._program_named(cli.load_manifest(config.manifest), "sevc.jsonl", "slice")
    _, all_sevcs = artifacts.iter_jsonl(
        config.path("sevc.jsonl"), "sevc", "slice", cli.SeVC.from_record
    )
    done = set()
    for name, group in itertools.groupby(all_sevcs, key=lambda sevc: sevc.program):
        if name in done:
            raise StageError(
                f"sevc.jsonl holds the records of program {name!r} apart from "
                "each other; re-run the 'slice' stage"
            )
        done.add(name)
        model = cli._parse_program(program_named(name))
        index = model.statement_index()
        sevcs = []
        for sevc in group:
            if wanted is not None and sevc.syvc_id not in wanted:
                continue
            for s in sevc.statements:
                st = index.get(s.statement_id)
                # an edit can keep every id, so the text is compared too
                if st is None or st.text != s.text:
                    held, reads = (
                        ("", "does not") if st is None
                        else (f" as {s.text!r}", f"now reads as {st.text!r}")
                    )
                    raise StageError(
                        f"sevc.jsonl out of sync with sources: SyVC {sevc.syvc_id} holds "
                        f"statement {s.statement_id}{held}, which program {name!r} "
                        f"{reads}; re-run the 'slice' stage"
                    )
            sevcs.append(sevc)
        yield model, sevcs


@dataclass
class _Label:
    """A labels.jsonl record."""

    syvc_id: int
    program: str
    label: int
    needs_review: bool

    def __post_init__(self):
        if self.label not in (0, 1):
            raise ValueError(f"label {self.label!r} is not 0 or 1")

    @classmethod
    def from_record(cls, record: dict) -> _Label:
        return cls(**record)


def _labels(config: RunConfig) -> list[_Label]:
    """Every labels.jsonl record; a malformed one asks to re-run label."""
    _, labels = artifacts.read_jsonl(
        config.path("labels.jsonl"), "labels", "label", _Label.from_record
    )
    return labels


def _stale_detections(problem: str) -> StageError:
    return StageError(f"detect.jsonl {problem}; re-run the 'detect' stage")


@dataclass
class _Finding:
    """A detect.jsonl record."""

    syvc_id: int
    kind: str
    program: str
    probability: float
    files: list[str]
    functions: list[str]
    lines: list[int]
    activations: list[float] | None = None  # None when an older detect wrote it

    @classmethod
    def from_record(cls, record: dict) -> _Finding:
        return cls(**record)


def _detections(config: RunConfig, activations: bool = False) -> list[_Finding]:
    """detect.jsonl's findings, with their ``activations`` if asked; an
    old file or another --threshold is stale, and a malformed record
    asks to re-run detect."""
    header, findings = artifacts.read_jsonl(
        config.path("detect.jsonl"), "detections", "detect", _Finding.from_record
    )
    if activations and any(f.activations is None for f in findings):
        raise _stale_detections("holds no activations (written by an older detect)")
    threshold = header.get("threshold")
    if threshold is None:
        raise _stale_detections("holds no threshold (written by an older detect)")
    if config.threshold is not None and config.threshold != threshold:
        raise _stale_detections(
            f"flags at threshold {threshold}, not at --threshold {config.threshold}"
        )
    return findings
