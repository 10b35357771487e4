"""Diff parsing marks and the labeling rules for both ground-truth modes."""

import pytest

from vulnslice.frontend import tokenize
from vulnslice.labeling import (
    Annotation,
    DiffParseError,
    GroundTruth,
    LabelingError,
    apply_labels,
    label_sevc,
    parse_diff,
    review_queue,
)
from vulnslice.slicing import SeVC, SevcStatement


def make_sevc(rows, anchor=0, syvc_id=0):
    statements = []
    for i, (file, line, text) in enumerate(rows):
        statements.append(
            SevcStatement(
                file=file,
                function="f",
                statement_id=i,
                line=line,
                text=text,
                region="anchor" if i == anchor else "forward",
                tokens=tokenize(text),
            )
        )
    return SeVC(
        syvc_id=syvc_id,
        kind="FC",
        anchor_statement=anchor,
        statements=statements,
        program="prog",
    )


DIFF_DELETE = """--- a/vuln.c
+++ b/vuln.c
@@ -8,4 +8,3 @@
 context line
-strcpy(buf, input);
 more context
 tail line
"""

DIFF_MOVED = """--- a/vuln.c
+++ b/vuln.c
@@ -3,5 +3,5 @@
 keep
-x = 1;
 mid
+x = 1;
 bottom
"""

DIFF_ADD_ONLY = """--- a/vuln.c
+++ b/vuln.c
@@ -3,2 +3,3 @@
 keep
+if (len < cap)
 bottom
"""


def test_parse_diff_single_deletion():
    report = parse_diff(DIFF_DELETE)
    assert report.eligible
    assert len(report.marks) == 1
    mark = report.marks[0]
    assert (mark.file, mark.line, mark.mark) == ("vuln.c", 9, "deleted-or-modified")


def test_parse_diff_moved_line():
    report = parse_diff(DIFF_MOVED)
    assert report.eligible
    assert [m.mark for m in report.marks] == ["moved"]
    assert report.marks[0].line == 4


def test_parse_diff_add_only_ineligible():
    report = parse_diff(DIFF_ADD_ONLY)
    assert not report.eligible
    assert report.marks == []


def test_parse_diff_malformed_hunk_raises():
    with pytest.raises(DiffParseError):
        parse_diff("--- a/x.c\n+++ b/x.c\n@@ broken @@\n-x\n")


def test_parse_diff_tracks_pre_patch_lines_across_hunks():
    text = """--- a/m.c
+++ b/m.c
@@ -2,3 +2,2 @@
 a
-b
 c
@@ -10,3 +9,2 @@
 d
-e
 f
"""
    report = parse_diff(text)
    assert [(m.line, m.mark) for m in report.marks] == [
        (3, "deleted-or-modified"),
        (11, "deleted-or-modified"),
    ]


def truth_with_diff(diff_text, file="vuln.c"):
    truth = GroundTruth()
    truth.add_diff(parse_diff(diff_text), file_alias=file)
    return truth


def test_label_sevc_hits_deleted_line():
    truth = truth_with_diff(DIFF_DELETE)
    sevc = make_sevc([("vuln.c", 9, "strcpy(buf, input);"), ("vuln.c", 12, "x;")])
    assert label_sevc(sevc, truth) == (1, False)


def test_label_sevc_misses_marked_lines():
    truth = truth_with_diff(DIFF_DELETE)
    sevc = make_sevc([("vuln.c", 2, "int a;")])
    assert label_sevc(sevc, truth) == (0, False)


def test_label_sevc_moved_only_needs_review():
    truth = truth_with_diff(DIFF_MOVED)
    sevc = make_sevc([("vuln.c", 4, "x = 1;")])
    assert label_sevc(sevc, truth) == (1, True)


def test_label_sevc_unknown_file_raises():
    truth = truth_with_diff(DIFF_DELETE)
    sevc = make_sevc([("elsewhere.c", 1, "int a;")])
    with pytest.raises(LabelingError) as err:
        label_sevc(sevc, truth)
    assert "elsewhere.c" in str(err.value)


def test_annotation_good_program_is_zero():
    truth = GroundTruth()
    truth.add_annotation(Annotation("ok.c", "good"))
    sevc = make_sevc([("ok.c", 4, "strcpy(a, b);")])
    assert label_sevc(sevc, truth) == (0, False)


def test_annotation_bad_program_needs_line_hit():
    truth = GroundTruth()
    truth.add_annotation(Annotation("bad.c", "bad", frozenset({7})))
    hit = make_sevc([("bad.c", 7, "gets(buf);")])
    miss = make_sevc([("bad.c", 3, "int a;")])
    assert label_sevc(hit, truth) == (1, False)
    assert label_sevc(miss, truth) == (0, False)


def test_annotation_good_with_lines_rejected():
    with pytest.raises(LabelingError):
        Annotation("x.c", "good", frozenset({3}))


def test_annotation_unknown_class_rejected():
    with pytest.raises(LabelingError):
        Annotation("x.c", "wild")


def test_no_false_zero_on_deleted_lines():
    # any SeVC containing a deleted/modified line is labeled 1
    truth = truth_with_diff(DIFF_DELETE)
    for extra in [[], [("vuln.c", 1, "int a;")], [("vuln.c", 40, "y;")]]:
        rows = [("vuln.c", 9, "strcpy(buf, input);")] + extra
        assert label_sevc(make_sevc(rows), truth)[0] == 1


def test_labels_idempotent():
    truth = truth_with_diff(DIFF_DELETE)
    sevc = make_sevc([("vuln.c", 9, "strcpy(buf, input);")])
    first = label_sevc(sevc, truth)
    second = label_sevc(sevc, truth)
    assert first == second


def test_apply_labels_and_review_queue():
    truth = GroundTruth()
    truth.add_annotation(Annotation("bad.c", "bad", frozenset({5})))
    truth.add_diff(parse_diff(DIFF_MOVED), file_alias="moved.c")
    sevcs = [
        make_sevc([("bad.c", 5, "gets(b);")], syvc_id=0),
        make_sevc([("bad.c", 2, "int a;")], syvc_id=1),
        make_sevc([("moved.c", 4, "x = 1;")], syvc_id=2),
    ]
    labels = apply_labels(sevcs, truth)
    assert labels == [(1, False), (0, False), (1, True)]
    queue = review_queue(sevcs, labels)
    assert [q["syvc_id"] for q in queue] == [0, 2]
    assert queue[1]["needs_review"] is True
