"""Ground-truth labels for SeVCs from unified diffs and line annotations.

Diff mode follows the three-step rule: mark the "-" lines of a patch as
deleted/modified (or moved, when an identical line reappears as a "+"
somewhere else in the same file's hunks), label a SeVC 1 when it
contains a marked deleted/modified line, and queue for human review the
SeVCs whose only marked lines are moves inside a known-vulnerable file.
Diffs that only add lines carry no vulnerable-line information and are
flagged ineligible.

Annotation mode is the test-suite style: "good" programs label every
SeVC 0; "bad"/"mixed" programs label a SeVC 1 exactly when it contains
an annotated vulnerable line.

``apply_labels`` returns each SeVC's (label, needs_review) pair and
stores nothing on the SeVC: labels.jsonl is the pairs' one record.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .slicing import SeVC

MARK_DELETED = "deleted-or-modified"
MARK_MOVED = "moved"

CLASS_GOOD = "good"
CLASS_BAD = "bad"
CLASS_MIXED = "mixed"


class DiffParseError(Exception):
    pass


class LabelingError(Exception):
    pass


@dataclass(frozen=True)
class DiffMark:
    file: str
    line: int  # pre-patch line number of the "-" line
    mark: str  # MARK_DELETED | MARK_MOVED


@dataclass
class DiffReport:
    marks: list[DiffMark] = field(default_factory=list)
    eligible: bool = True


@dataclass(frozen=True)
class Annotation:
    file: str
    program_class: str  # good | bad | mixed
    vulnerable_lines: frozenset[int] = frozenset()

    def __post_init__(self):
        if self.program_class not in (CLASS_GOOD, CLASS_BAD, CLASS_MIXED):
            raise LabelingError(
                f"unknown program class {self.program_class!r} for {self.file}"
            )
        if self.program_class == CLASS_GOOD and self.vulnerable_lines:
            raise LabelingError(
                f"'good' program {self.file} cannot list vulnerable lines"
            )


_HUNK_RE = re.compile(
    r"^@@ -(?P<old>\d+)(?:,(?P<old_count>\d+))? \+(?P<new>\d+)(?:,(?P<new_count>\d+))? @@"
)


def parse_diff(diff_text: str) -> DiffReport:
    """Mark the "-" lines of a unified diff.

    A "-" line whose whitespace-normalized content reappears on a "+"
    line elsewhere in the same file's hunks is a move; ambiguity counts
    as a move. A diff with no "-" lines at all is ineligible.
    """
    current_file: str | None = None
    old_file: str | None = None
    old_line = 0
    in_hunk = False
    removed: list[tuple[str, int, str]] = []  # (file, pre-patch line, content)
    added: dict[str, list[str]] = {}
    for raw in diff_text.splitlines():
        if raw.startswith("--- "):
            old_file = raw[4:].split("\t")[0].strip().removeprefix("a/")
            in_hunk = False
            continue
        if raw.startswith("+++ "):
            name = raw[4:].split("\t")[0].strip().removeprefix("b/")
            # a deleted file's new name is /dev/null: mark its old one
            current_file = old_file if name == "/dev/null" else name
            in_hunk = False
            continue
        if raw.startswith("@@"):
            m = _HUNK_RE.match(raw)
            if m is None:
                raise DiffParseError(f"malformed hunk header: {raw!r}")
            if current_file is None:
                raise DiffParseError("hunk before any file header")
            old_line = int(m.group("old"))
            in_hunk = True
            continue
        if not in_hunk:
            continue
        if raw.startswith("-"):
            removed.append((current_file, old_line, raw[1:].strip()))
            old_line += 1
        elif raw.startswith("+"):
            added.setdefault(current_file, []).append(raw[1:].strip())
        elif raw.startswith(" ") or raw == "":
            old_line += 1
        elif raw.startswith("\\"):
            continue  # "\ No newline at end of file"
        else:
            raise DiffParseError(f"unexpected diff line: {raw!r}")
    if not removed:
        return DiffReport(marks=[], eligible=False)
    marks = []
    for file, line, content in removed:
        moved = content != "" and content in added.get(file, [])
        marks.append(
            DiffMark(file=file, line=line, mark=MARK_MOVED if moved else MARK_DELETED)
        )
    return DiffReport(marks=marks, eligible=True)


@dataclass
class GroundTruth:
    """Per-file labeling knowledge assembled from a corpus manifest."""

    annotations: dict[str, Annotation] = field(default_factory=dict)
    diff_marks: dict[str, list[DiffMark]] = field(default_factory=dict)

    def add_annotation(self, annotation: Annotation) -> None:
        self.annotations[annotation.file] = annotation

    def add_diff(self, report: DiffReport, file_alias: str | None = None) -> None:
        for mark in report.marks:
            name = file_alias if file_alias is not None else mark.file
            self.diff_marks.setdefault(name, []).append(
                DiffMark(name, mark.line, mark.mark)
            )

    def knows(self, file: str) -> bool:
        return file in self.annotations or file in self.diff_marks


def label_sevc(sevc: SeVC, truth: GroundTruth) -> tuple[int, bool]:
    """Label one SeVC; returns (label, needs_review).

    Raises LabelingError when the SeVC touches files the ground truth
    does not cover.
    """
    touched = sorted({s.file for s in sevc.statements})
    unknown = [f for f in touched if not truth.knows(f)]
    if unknown:
        raise LabelingError(
            "no ground truth for file(s): " + ", ".join(unknown)
        )
    lines = sevc.lines_by_file()

    deleted_hit = False
    moved_hit = False
    annotation_hit = False
    for file, line in sorted(lines):
        for mark in truth.diff_marks.get(file, []):
            if mark.line != line:
                continue
            if mark.mark == MARK_DELETED:
                deleted_hit = True
            else:
                moved_hit = True
        note = truth.annotations.get(file)
        if (
            note is not None
            and note.program_class != CLASS_GOOD
            and line in note.vulnerable_lines
        ):
            annotation_hit = True

    if deleted_hit or annotation_hit:
        return 1, False
    if moved_hit:
        return 1, True
    return 0, False


def apply_labels(sevcs: list[SeVC], truth: GroundTruth) -> list[tuple[int, bool]]:
    """The (label, needs_review) of each SeVC, in order."""
    return [label_sevc(sevc, truth) for sevc in sevcs]


def review_queue(sevcs: list[SeVC], labels: list[tuple[int, bool]]) -> list[dict]:
    """Every label-1 SeVC of ``apply_labels``'s pairs, for the manual audit step."""
    return [
        {
            "syvc_id": sevc.syvc_id,
            "kind": sevc.kind,
            "program": sevc.program,
            "needs_review": needs_review,
            "files": sorted({s.file for s in sevc.statements}),
            "lines": sorted(s.line for s in sevc.statements),
        }
        for sevc, (label, needs_review) in zip(sevcs, labels)
        if label == 1
    ]
