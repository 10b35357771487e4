"""The label stage: labels.jsonl and review.jsonl."""

from __future__ import annotations

from typing import TYPE_CHECKING

from .. import artifacts, cli
from ..artifacts import StageError
from .shared import _Label, _sevcs_by_program

if TYPE_CHECKING:
    from ..cli import ManifestProgram, RunConfig


def _refuse_lines_without_tokens(programs: list[ManifestProgram]) -> None:
    """A class-based program's vulnerable line must hold a token in one of
    its source files; a line past the end of all of them, or blank, a
    comment or a preprocessor line in each that reaches it, would label
    nothing. A file that cannot be read counts no lines, one that cannot
    be lexed counts a token on each of its lines, and a program with no
    readable file is left to parse's diagnostic."""
    for prog in programs:
        if prog.diff_path is not None or not prog.vulnerable_lines:
            continue
        lengths = {}
        with_tokens = set()  # the line numbers that hold a token in some file
        for rel, source in zip(prog.files, prog.source_paths):
            try:
                with open(source, "r", encoding="utf-8", errors="replace") as handle:
                    lines = handle.readlines()
            except OSError:
                continue
            lengths[rel] = len(lines)
            try:
                # the same lines, with comments and preprocessor lines blanked
                scrubbed = cli.scrub("".join(lines)).split("\n")
            except cli.LexError:
                with_tokens.update(range(1, len(lines) + 1))
                continue
            with_tokens.update(
                number for number, text in enumerate(scrubbed[:len(lines)], 1) if text.strip()
            )
        if not lengths:
            continue
        longest = max(lengths, key=lengths.get)
        for line in prog.vulnerable_lines:
            if line > lengths[longest]:
                raise StageError(
                    f"program {prog.path}: vulnerable line {line} is past the end of "
                    f"its longest source file, {longest} ({lengths[longest]} lines)"
                )
            if line not in with_tokens:
                raise StageError(
                    f"program {prog.path}: vulnerable line {line} holds no token in any "
                    "of its source files (it is blank, a comment or a preprocessor line)"
                )


def stage_label(config: RunConfig) -> None:
    programs = cli.load_manifest(config.manifest)
    truth = cli.ground_truth(programs)
    _refuse_lines_without_tokens(programs)
    label_records = []
    queue = []
    for _, sevcs in _sevcs_by_program(config):  # each program's SeVCs as they stream
        labels = cli.apply_labels(sevcs, truth)
        label_records.extend(
            _Label(sevc.syvc_id, sevc.program, label, needs_review)
            for sevc, (label, needs_review) in zip(sevcs, labels)
        )
        queue.extend(cli.review_queue(sevcs, labels))
    artifacts.write_jsonl(
        config.path("labels.jsonl"), "labels", config.seed, label_records
    )
    artifacts.write_jsonl(
        config.path("review.jsonl"), "review-queue", config.seed, queue
    )
    positive = sum(r.label for r in label_records)
    review = sum(r.needs_review for r in label_records)
    print(
        f"labeled {len(label_records)} SeVCs: {positive} vulnerable, "
        f"{len(queue)} in review.jsonl, {review} needing review"
    )
