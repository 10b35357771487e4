"""Artifact writers: JSONL bytes."""

import json

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
    header = {"artifact": "demo", "version": 1, "seed": 7}
    expected = [json.dumps(header, sort_keys=True)]
    expected += [json.dumps(record, sort_keys=True) for record in records]
    assert path.read_bytes() == ("\n".join(expected) + "\n").encode("utf-8")
