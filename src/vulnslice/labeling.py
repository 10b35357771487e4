"""Ground-truth labels for SeVCs from unified diffs and line annotations.

The ground truth is one map, file -> {pre-patch line: mark}, with every
file of the corpus as a key. Both labeling sources fill it:

- Diff mode follows the three-step rule. A patch's "-" lines are marked
  deleted/modified, or moved when an identical line reappears as a "+"
  somewhere else in the same file's hunks. Each mark is keyed by the
  file of the "---" header, whose lines the hunk numbers count: a diff
  that renames a file marks the file it renames. A diff that only adds
  lines marks nothing.
- Annotation mode is the test-suite style: a "bad" or "mixed" program's
  files map its annotated vulnerable lines to the deleted mark, and a
  "good" program's files map to nothing.

``ground_truth`` builds it from the manifest's programs, and refuses,
naming the program, one that marks no line: no class and no diff, a
"bad" or "mixed" class without vulnerable lines, or an add-only diff.

A SeVC is label 1 when it holds a deleted/modified line. It is label 1
and queued for human review when its only marked lines are moves
inside a known-vulnerable file. Otherwise it is label 0.

``apply_labels`` returns each SeVC's (label, needs_review) pair and
stores nothing on the SeVC: labels.jsonl is the pairs' one record.
"""

from __future__ import annotations

import re
from collections.abc import Iterable
from dataclasses import dataclass

from .artifacts import StageError
from .symbols import SeVC

MARK_DELETED = "deleted-or-modified"
MARK_MOVED = "moved"


class DiffParseError(Exception):
    pass


class LabelingError(Exception):
    pass


@dataclass(frozen=True)
class DiffMark:
    file: str  # the file of the "---" header
    line: int  # pre-patch line number of the "-" line
    mark: str  # MARK_DELETED | MARK_MOVED


_HUNK_RE = re.compile(
    r"^@@ -(?P<old>\d+)(?:,(?P<old_count>\d+))? \+(?P<new>\d+)(?:,(?P<new_count>\d+))? @@"
)


def parse_diff(diff_text: str) -> list[DiffMark]:
    """Mark the "-" lines of a unified diff; none when it only adds lines.

    A "-" line whose whitespace-normalized content reappears on a "+"
    line elsewhere in the same file's hunks is a move; ambiguity counts
    as a move.
    """
    file: str | None = None
    old_line = 0
    in_hunk = False
    removed: list[tuple[str, int, str]] = []  # (file, pre-patch line, content)
    added: dict[str, list[str]] = {}
    for raw in diff_text.splitlines():
        if raw.startswith("--- "):
            file = raw[4:].split("\t")[0].strip().removeprefix("a/")
            in_hunk = False
            continue
        if raw.startswith("+++ "):
            in_hunk = False
            continue
        if raw.startswith("@@"):
            m = _HUNK_RE.match(raw)
            if m is None:
                raise DiffParseError(f"malformed hunk header: {raw!r}")
            if file is None:
                raise DiffParseError("hunk before any file header")
            old_line = int(m.group("old"))
            in_hunk = True
            continue
        if not in_hunk:
            continue
        if raw.startswith("-"):
            removed.append((file, old_line, raw[1:].strip()))
            old_line += 1
        elif raw.startswith("+"):
            added.setdefault(file, []).append(raw[1:].strip())
        elif raw.startswith(" ") or raw == "":
            old_line += 1
        elif raw.startswith("\\"):
            continue  # "\ No newline at end of file"
        else:
            raise DiffParseError(f"unexpected diff line: {raw!r}")
    marks = []
    for file, line, content in removed:
        moved = content != "" and content in added.get(file, [])
        marks.append(DiffMark(file, line, MARK_MOVED if moved else MARK_DELETED))
    return marks


def mark_lines(marks: Iterable[DiffMark]) -> dict[int, str]:
    """One file's {pre-patch line: mark}; a line marked both ways is deleted."""
    lines: dict[int, str] = {}
    for mark in marks:
        if lines.get(mark.line) != MARK_DELETED:
            lines[mark.line] = mark.mark
    return lines


def ground_truth(programs: Iterable) -> dict[str, dict[int, str]]:
    """The file -> {pre-patch line: mark} map over every source file of
    a corpus manifest's programs (``cli.ManifestProgram``)."""
    truth: dict[str, dict[int, str]] = {}
    for prog in programs:
        if prog.diff_path is None:
            if prog.program_class is None:
                raise StageError(f"program {prog.path} needs either a class or a diff")
            if prog.program_class != "good" and not prog.vulnerable_lines:
                raise StageError(
                    f"program {prog.path}: its class is {prog.program_class!r}, "
                    "but it marks no vulnerable line"
                )
            for rel in prog.files:
                truth[rel] = dict.fromkeys(prog.vulnerable_lines, MARK_DELETED)
            continue
        with open(prog.diff_path, "r", encoding="utf-8") as handle:
            marks = parse_diff(handle.read())
        if not marks:
            raise StageError(
                f"program {prog.path}: its diff only adds lines, "
                "so it marks no vulnerable line"
            )
        owner = {}  # the diff's file name -> the program's source file
        names = list(dict.fromkeys(mark.file for mark in marks))
        for name in names:
            # a one-file diff of a one-file program may name it anything
            matches = prog.files if len(prog.files) == len(names) == 1 else [
                rel for rel in prog.files if rel == name or rel.endswith("/" + name)
            ]
            if len(matches) != 1:
                raise StageError(
                    f"program {prog.path}: diff file {name} matches "
                    f"{len(matches)} of its source files, not 1"
                )
            owner[name] = matches[0]
        for rel in prog.files:
            truth[rel] = mark_lines(mark for mark in marks if owner[mark.file] == rel)
    return truth


def label_sevc(sevc: SeVC, truth: dict[str, dict[int, str]]) -> tuple[int, bool]:
    """Label one SeVC; returns (label, needs_review).

    Raises LabelingError when the SeVC touches files the ground truth
    does not cover.
    """
    unknown = sorted({s.file for s in sevc.statements} - truth.keys())
    if unknown:
        raise LabelingError(
            "no ground truth for file(s): " + ", ".join(unknown)
        )
    marks = {truth[s.file].get(s.line) for s in sevc.statements}
    if MARK_DELETED in marks:
        return 1, False
    if MARK_MOVED in marks:
        return 1, True
    return 0, False


def apply_labels(
    sevcs: list[SeVC], truth: dict[str, dict[int, str]]
) -> list[tuple[int, bool]]:
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
