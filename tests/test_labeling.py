"""Diff parsing marks and the labeling rules for both ground-truth modes."""

import pytest

from vulnslice.artifacts import StageError
from vulnslice.cli import ManifestProgram
from vulnslice.labeling import (
    MARK_DELETED,
    DiffMark,
    DiffParseError,
    LabelingError,
    apply_labels,
    ground_truth,
    label_sevc,
    mark_lines,
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
    marks = parse_diff(DIFF_DELETE)
    assert len(marks) == 1
    mark = marks[0]
    assert (mark.file, mark.line, mark.mark) == ("vuln.c", 9, "deleted-or-modified")


def test_parse_diff_moved_line():
    marks = parse_diff(DIFF_MOVED)
    assert [m.mark for m in marks] == ["moved"]
    assert marks[0].line == 4


def test_parse_diff_add_only_ineligible():
    assert parse_diff(DIFF_ADD_ONLY) == []


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
    assert [(m.line, m.mark) for m in parse_diff(text)] == [
        (3, "deleted-or-modified"),
        (11, "deleted-or-modified"),
    ]


def truth_with_diff(diff_text, file="vuln.c"):
    return {file: mark_lines(parse_diff(diff_text))}


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
    truth = {"ok.c": {}}
    sevc = make_sevc([("ok.c", 4, "strcpy(a, b);")])
    assert label_sevc(sevc, truth) == (0, False)


def test_annotation_bad_program_needs_line_hit():
    truth = {"bad.c": {7: MARK_DELETED}}
    hit = make_sevc([("bad.c", 7, "gets(buf);")])
    miss = make_sevc([("bad.c", 3, "int a;")])
    assert label_sevc(hit, truth) == (1, False)
    assert label_sevc(miss, truth) == (0, False)


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
    truth = {"bad.c": {5: MARK_DELETED}, "moved.c": mark_lines(parse_diff(DIFF_MOVED))}
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


def test_parse_diff_keys_marks_by_the_pre_patch_file():
    # a rename: the hunk counts the lines of b.c, which the patch renames
    marks = parse_diff("--- a/b.c\n+++ b/c.c\n@@ -3,2 +3,1 @@\n-    puts(s);\n }\n")
    assert marks == [DiffMark("b.c", 3, MARK_DELETED)]
    # a deletion: every line of the old file is marked
    marks = parse_diff("--- a/b.c\n+++ /dev/null\n@@ -1,2 +0,0 @@\n-int a;\n-int b;\n")
    assert [(m.file, m.line) for m in marks] == [("b.c", 1), ("b.c", 2)]


def test_a_line_marked_deleted_and_moved_counts_as_deleted():
    # two sections of one file: line 3 moves in the first, is deleted in the second
    diff = (
        "--- a/f.c\n+++ b/f.c\n@@ -3,2 +3,2 @@\n-x = 1;\n keep\n+x = 1;\n"
        "--- a/f.c\n+++ b/f.c\n@@ -3,1 +3,0 @@\n-y = 2;\n"
    )
    assert [m.mark for m in parse_diff(diff)] == ["moved", "deleted-or-modified"]
    for marks in (parse_diff(diff), parse_diff(diff)[::-1]):
        truth = {"f.c": mark_lines(marks)}
        assert label_sevc(make_sevc([("f.c", 3, "x = 1;")]), truth) == (1, False)


def program(path, files=None, diff=None, **fields):
    return ManifestProgram(
        path=path, source_paths=[], files=files or [path], diff_path=diff, **fields
    )


def test_ground_truth_maps_every_file_of_each_source(tmp_path):
    diff = tmp_path / "vuln.diff"
    diff.write_text(DIFF_DELETE)
    truth = ground_truth([
        program("bad.c", program_class="bad", vulnerable_lines=(4, 7)),
        program("ok", files=["ok/a.c", "ok/b.c"], program_class="good"),
        # a one-file diff of a one-file program may name it anything
        program("patched.c", diff=str(diff)),
    ])
    assert truth == {
        "bad.c": {4: MARK_DELETED, 7: MARK_DELETED},
        "ok/a.c": {},
        "ok/b.c": {},
        "patched.c": {9: MARK_DELETED},
    }


@pytest.mark.parametrize(
    "record, problem",
    [
        ({"program_class": "bad"},
         "program p.c: its class is 'bad', but it marks no vulnerable line"),
        ({"program_class": "mixed"},
         "program p.c: its class is 'mixed', but it marks no vulnerable line"),
        ({}, "program p.c needs either a class or a diff"),
        ({"diff": DIFF_ADD_ONLY},
         "program p.c: its diff only adds lines, so it marks no vulnerable line"),
        ({"diff": DIFF_DELETE, "files": ["p/a.c", "p/b.c"]},
         "program p.c: diff file vuln.c matches 0 of its source files, not 1"),
    ],
    ids=["bad-without-lines", "mixed-without-lines", "no-class-no-diff", "add-only-diff",
         "diff-of-another-file"],
)
def test_ground_truth_refuses_a_program_by_name(tmp_path, record, problem):
    if "diff" in record:
        (tmp_path / "p.diff").write_text(record.pop("diff"))
        record["diff"] = str(tmp_path / "p.diff")
    with pytest.raises(StageError) as refused:
        ground_truth([program("good.c", program_class="good"), program("p.c", **record)])
    assert str(refused.value) == problem
