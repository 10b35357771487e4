"""Artifact files: JSONL bytes, and the errors a bad one raises."""

import json
import os
import stat

import pytest

from vulnslice import artifacts


def test_write_jsonl_bytes_equal_per_record_dumps(tmp_path):
    records = [
        {"b": {"z": [1, 2.5, None], "a": "é ü   \U0001f600"}, "a": None},
        {"x": [{"k": 1e-7, "j": -0.0, "i": 1e300}], "y": [[], {}], "n": float("nan")},
        {"id": 3, "text": 'quote " and \\ backslash\n', "ok": True, "no": False},
        {},
    ]
    path = tmp_path / "records.jsonl"
    artifacts.write_jsonl(str(path), "demo", 7, records)
    header = {"artifact": "demo", "version": 1, "seed": 7, "record_count": 4}
    expected = [json.dumps(header, sort_keys=True)]
    expected += [json.dumps(record, sort_keys=True) for record in records]
    assert path.read_bytes() == ("\n".join(expected) + "\n").encode("utf-8")


@pytest.mark.parametrize(
    "records",
    [
        [{"b": [1, 2.5, None], "a": 'é \U0001f600 " \\'}, {"n": float("nan")}, {}],
        [],
    ],
    ids=["records", "none"],
)
def test_write_jsonl_lines_of_encoded_records_writes_the_same_bytes(tmp_path, records):
    by_records = tmp_path / "records.jsonl"
    by_lines = tmp_path / "lines.jsonl"
    artifacts.write_jsonl(str(by_records), "demo", 7, records, threshold=0.5)
    encode = json.JSONEncoder(sort_keys=True).encode
    lines = [encode(record) for record in records]
    artifacts.write_jsonl_lines(str(by_lines), "demo", 7, lines, threshold=0.5)
    assert by_lines.read_bytes() == by_records.read_bytes()
    header, read = artifacts.read_jsonl(str(by_lines), "demo")
    assert (header["record_count"], header["threshold"]) == (len(records), 0.5)
    assert len(read) == len(records)


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"artifact": "demo"}\n{"id": 1}\n\n{"id": \n', "line 4 is not valid JSON"),
        ('{"artifact": "demo"}\n[1, 2]\n', "line 2 is not a JSON object"),
        ('\n\n', "is empty"),
        ('{"artifact": "other"}\n', "holds artifact 'other', expected 'demo'"),
        ('{"artifact": "demo", "record_count": 3}\n{"id": 1}\n{"id": 2}\n',
         "holds 2 records, its header counts 3"),
        ('{"artifact": "demo"}\n{"id": 1}\n', "has no record count in its header"),
    ],
    ids=["cut-record", "not-an-object", "empty", "wrong-artifact", "cut-at-a-line",
         "no-count"],
)
def test_read_jsonl_errors_name_the_file_line_and_stage(tmp_path, text, message):
    path = tmp_path / "demo.jsonl"
    path.write_text(text)
    with pytest.raises(artifacts.StageError) as caught:
        artifacts.read_jsonl(str(path), "demo", "make-demo")
    assert message in str(caught.value) and str(path) in str(caught.value)
    assert str(caught.value).endswith("; re-run the 'make-demo' stage")


def test_read_jsonl_of_a_missing_artifact_asks_to_run_its_stage(tmp_path):
    with pytest.raises(artifacts.StageError, match="missing artifact demo.jsonl; run the 'make-demo' stage first"):
        artifacts.read_jsonl(str(tmp_path / "demo.jsonl"), "demo", "make-demo")


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_artifacts_get_the_mode_a_plain_open_gives(tmp_path, umask):
    """Not the owner-only 0o600 of the temp file they are written through."""
    previous = os.umask(umask)
    try:
        artifacts.write_json(str(tmp_path / "a.json"), {})
        artifacts.atomic_write_bytes(str(tmp_path / "b.bin"), b"")
        with open(tmp_path / "plain", "w"):
            pass
    finally:
        os.umask(previous)
    modes = {name: stat.S_IMODE(os.stat(tmp_path / name).st_mode)
             for name in ("a.json", "b.bin", "plain")}
    assert modes == dict.fromkeys(modes, 0o666 & ~umask)
    assert os.umask(previous) == previous  # the umask is left as it was
