"""Artifact files shared between CLI stages.

Every artifact is either line-delimited JSON with a header line or a
binary file with its own header; all of them record the root seed, and
all writes go through a temp file + rename so readers never see a
partial artifact. No artifact embeds timestamps: re-running a stage
with unchanged inputs and seed must reproduce identical bytes.
"""

from __future__ import annotations

import json
import os
import tempfile
from collections.abc import Callable, Iterable, Iterator, Sequence
from contextlib import contextmanager
from dataclasses import MISSING, fields, is_dataclass
from typing import IO, Any


class StageError(Exception):
    """A stage cannot run; the message says what to run first."""


def derive_seed(root_seed: int, tag: str) -> int:
    """Stable sub-seed for one pipeline stage."""
    import hashlib  # here: only vectorize and train draw a seed and load OpenSSL

    digest = hashlib.blake2b(
        tag.encode("utf-8"), key=str(root_seed).encode("ascii"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") % (2**32)


@contextmanager
def atomic_open(path: str, mode: str) -> Iterator[IO]:
    """Write `path` through a temp file beside it, renamed over it on success.

    `mode` is "w" (UTF-8 text) or "wb". If the body or the rename fails,
    the temp file is removed and any previous `path` is left as it was.
    The file gets the permissions a plain ``open`` would give it
    (0o666 less the umask), not the temp file's owner-only 0o600.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-artifact-")
    encoding = None if "b" in mode else "utf-8"
    try:
        os.fchmod(fd, 0o666 & ~_umask())
        with os.fdopen(fd, mode, encoding=encoding) as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _umask() -> int:
    # the umask can only be read by setting it, so set it straight back
    mask = os.umask(0o022)
    os.umask(mask)
    return mask


def atomic_write_text(path: str, text: str) -> None:
    with atomic_open(path, "w") as handle:
        handle.write(text)


def atomic_write_bytes(path: str, payload: bytes) -> None:
    with atomic_open(path, "wb") as handle:
        handle.write(payload)


# json.dumps(record, sort_keys=True) from one encoder, not one per record.
# A dataclass record is encoded as its vars(): its fields only as long as
# its type adds no other attribute (as a cached_property would), so none may.
encode_record = json.JSONEncoder(sort_keys=True, default=vars).encode


def write_jsonl(
    path: str, artifact: str, seed: int, records: Sequence[Any], **header_fields
) -> None:
    """``write_jsonl_lines`` of the records, dicts or dataclasses, each
    encoded by ``encode_record`` as it is written."""
    _write_lines(path, artifact, seed, len(records), map(encode_record, records), header_fields)


def write_jsonl_lines(
    path: str, artifact: str, seed: int, lines: Sequence[str], **header_fields
) -> None:
    """One header line (artifact, version, seed, ``header_fields`` and the
    record count), then the given record lines, already JSON-encoded.
    The lines are written one by one, never joined into one string."""
    _write_lines(path, artifact, seed, len(lines), lines, header_fields)


def _write_lines(
    path: str, artifact: str, seed: int, count: int, lines: Iterable[str],
    header_fields: dict,
) -> None:
    header = {
        "artifact": artifact, "version": 1, "seed": seed, **header_fields,
        "record_count": count,
    }
    with atomic_open(path, "w") as handle:
        handle.write(json.dumps(header, sort_keys=True))
        handle.write("\n")
        for line in lines:
            handle.write(line)
            handle.write("\n")


def iter_jsonl(
    path: str, expect_artifact: str | None = None, stage: str | None = None,
    decode: Callable[[dict], Any] | None = None,
) -> tuple[dict, Iterator[Any]]:
    """The header of a ``write_jsonl`` artifact, and an iterator that
    reads its records one line at a time, each passed through ``decode``
    if one is given.

    ``stage`` is the stage that writes it: a missing, empty or corrupt
    artifact raises a ``StageError`` that asks to run it. A wrong
    artifact name raises here; a corrupt record, or one whose ``decode``
    raises ``KeyError``, ``TypeError`` or ``ValueError``, raises when the
    iterator reaches it (naming the keys it or a record nested in it
    lacks or should not hold when ``decode`` is a record dataclass's
    ``from_record``), and a record count that is not the header's (as a
    copy cut short at a line boundary leaves it) when the iterator ends.
    """
    if stage is not None:
        require(path, stage)
    elif not os.path.exists(path):
        raise StageError(f"missing artifact {path}")
    rerun = f"; re-run the '{stage}' stage" if stage is not None else ""
    values = _json_objects(path, rerun)
    _, header = next(values, (0, None))
    if header is None:
        raise StageError(f"artifact {path} is empty{rerun}")
    if expect_artifact is not None and header.get("artifact") != expect_artifact:
        values.close()
        raise StageError(
            f"{path} holds artifact {header.get('artifact')!r}, "
            f"expected {expect_artifact!r}{rerun}"
        )
    return header, _counted(values, header, path, rerun, decode)


def _json_objects(path: str, rerun: str) -> Iterator[tuple[int, dict]]:
    """The line number and JSON object of each non-blank line of ``path``,
    in order."""
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, 1):
            if not line.strip():
                continue
            try:
                value = json.loads(line)
            except json.JSONDecodeError as exc:
                raise StageError(
                    f"{path} line {number} is not valid JSON ({exc.msg}){rerun}"
                ) from None
            if not isinstance(value, dict):
                raise StageError(f"{path} line {number} is not a JSON object{rerun}")
            yield number, value


def _counted(
    records: Iterator[tuple[int, dict]], header: dict, path: str, rerun: str,
    decode: Callable[[dict], Any] | None,
) -> Iterator[Any]:
    """The decoded records, then a check of their count against the header's."""
    count = 0
    for number, record in records:
        count += 1
        if decode is not None:
            try:
                record = decode(record)
            except (KeyError, TypeError, ValueError) as exc:
                # a record dataclass's from_record is bound to its type
                problem = _key_problem(record, getattr(decode, "__self__", None)) or repr(exc)
                raise StageError(f"{path} line {number} is malformed ({problem}){rerun}") from None
        yield record
    if "record_count" not in header:
        raise StageError(f"{path} has no record count in its header{rerun}")
    if header["record_count"] != count:
        raise StageError(
            f"{path} holds {count} records, its header counts "
            f"{header['record_count']}{rerun}"
        )


def _key_problem(record: dict, record_type: Any) -> str | None:
    """The keys ``record`` lacks or should not hold, when ``record_type``
    is a record dataclass, or else those of the first malformed item of
    a list field whose metadata names the items' ``"record"`` type; None
    when there are none."""
    if not (isinstance(record_type, type) and is_dataclass(record_type)):
        return None
    names = {f.name for f in fields(record_type)}
    required = {f.name for f in fields(record_type)
                if f.default is MISSING and f.default_factory is MISSING}
    problems = [
        f"{what} key{'s' if len(keys) > 1 else ''} {', '.join(map(repr, sorted(keys)))}"
        for what, keys in (("missing", required - record.keys()),
                           ("unknown", record.keys() - names))
        if keys
    ]
    if problems:
        return "; ".join(problems)
    for f in fields(record_type):
        items = record.get(f.name) if "record" in f.metadata else None
        for i, item in enumerate(items if isinstance(items, list) else ()):
            problem = isinstance(item, dict) and _key_problem(item, f.metadata["record"])
            if problem:
                return f"{problem} in {f.name}[{i}]"
    return None


def read_jsonl(
    path: str, expect_artifact: str | None = None, stage: str | None = None,
    decode: Callable[[dict], Any] | None = None,
) -> tuple[dict, list[Any]]:
    """The header and the records of a ``write_jsonl`` artifact, with the
    errors of ``iter_jsonl``."""
    header, records = iter_jsonl(path, expect_artifact, stage, decode)
    return header, list(records)


def write_json(path: str, payload: dict) -> None:
    atomic_write_text(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def read_json(path: str, stage: str, keys: Sequence[str] = ()) -> dict:
    """A ``write_json`` artifact; a missing or corrupt one, or one without
    each of ``keys``, asks to run ``stage``."""
    with open(require(path, stage), "r", encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except ValueError as exc:
            raise StageError(
                f"{path} is not valid JSON ({exc}); re-run the '{stage}' stage"
            ) from None
    for key in keys:
        if not isinstance(payload, dict) or key not in payload:
            raise StageError(f"{path} has no {key!r} key; re-run the '{stage}' stage")
    return payload


def require(path: str, stage_to_run: str) -> str:
    if not os.path.exists(path):
        raise StageError(
            f"missing artifact {os.path.basename(path)}; "
            f"run the '{stage_to_run}' stage first"
        )
    return path
