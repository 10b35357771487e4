"""Symbolization rules, truncation branches, vector store round-trip."""

import json
import os
import struct
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest

from vulnslice.candidates import CharacteristicSet, extract_syvcs
from vulnslice.embeddings import hash_table
from vulnslice.frontend import parse_source
from vulnslice.graphs import build_call_graph, build_pdgs
from vulnslice.slicing import assemble_sevc, interprocedural_slices
from vulnslice.vectorize import (
    EncodingError,
    SampleVector,
    SymbolicSeVC,
    encode,
    load_vectors,
    save_vectors,
    symbolize,
    truncation_window,
)


def sevc_from(source, pick=None, name="prog"):
    """The first SeVC of a parsed source (of the picked SyVCs), with the
    program it was sliced from and the characteristic set."""
    model = parse_source(source)
    model.name = name
    cset = CharacteristicSet()
    syvcs = extract_syvcs(model, cset)
    if pick is not None:
        syvcs = [s for s in syvcs if pick(s)]
    syvc = syvcs[0]
    pdgs = build_pdgs(model)
    call_graph = build_call_graph(model)
    slice_ = interprocedural_slices(model, call_graph, pdgs, syvc)
    return assemble_sevc(model, slice_, syvc, call_graph), model, cset


def build_sevc(statements, anchor_id, user_functions=()):
    """SeVC straight from tokenized statements (no slicing involved), and
    a stand-in for the parsed program that symbolize reads: each
    statement's tokens by id, and the user functions."""
    from vulnslice.frontend import tokenize
    from vulnslice.slicing import SeVC, SevcStatement

    rows = [
        SevcStatement(
            file="mem.c", function="f", statement_id=i, line=i + 1, text=text, region=region
        )
        for i, (text, region) in enumerate(statements)
    ]
    index = {i: SimpleNamespace(tokens=tokenize(text)) for i, (text, _) in enumerate(statements)}
    program = SimpleNamespace(
        statement_index=lambda: index,
        functions=[SimpleNamespace(name=name) for name in user_functions],
    )
    sevc = SeVC(syvc_id=0, kind="AE", anchor_statement=anchor_id, statements=rows)
    return sevc, program


def test_symbolize_variables_and_user_functions():
    sevc, program = build_sevc([("int x = foo ( y ) ;", "anchor")], 0, user_functions=["foo"])
    # mark foo as a callee the way the parser would
    for tok in program.statement_index()[0].tokens:
        if tok.text == "foo":
            tok.role = "callee"
    sym = symbolize(sevc, program, CharacteristicSet())
    assert sym.symbols == ["int", "V1", "=", "F1", "(", "V2", ")", ";"]


def test_symbolize_keeps_library_calls_and_constants():
    sevc, program = build_sevc(
        [
            ("data = dataBuffer - 8 ;", "backward"),
            ("memset ( data , 'A' , 100 - 1 ) ;", "anchor"),
        ],
        1,
    )
    for tok in program.statement_index()[1].tokens:
        if tok.text == "memset":
            tok.role = "callee"
    sym = symbolize(sevc, program, CharacteristicSet())
    assert sym.symbols == [
        "V1", "=", "V2", "-", "8", ";",
        "memset", "(", "V1", ",", "'A'", ",", "100", "-", "1", ")", ";",
    ]
    assert sym.anchor_lo == 6 and sym.anchor_hi == 17


def test_symbolize_alpha_renaming_invariance():
    src_a = "void f(char *alpha){char buf[4]; strcpy(buf, alpha);}"
    src_b = "void f(char *omega){char tmp[4]; strcpy(tmp, omega);}"
    sevc_a, model_a, cset = sevc_from(src_a, pick=lambda s: s.kind == "AU")
    sevc_b, model_b, _ = sevc_from(src_b, pick=lambda s: s.kind == "AU")
    assert symbolize(sevc_a, model_a, cset).symbols == symbolize(sevc_b, model_b, cset).symbols


def test_symbolize_collapses_string_literals():
    sevc, program = build_sevc([('printf ( "%s deep" , msg ) ;', "anchor")], 0)
    sym = symbolize(sevc, program, CharacteristicSet())
    assert '"STR"' in sym.symbols
    assert all("deep" not in s for s in sym.symbols)


def test_symbolize_identical_streams_from_different_sevcs():
    a = build_sevc([("x = y + 1 ;", "anchor")], 0)
    b = build_sevc([("p = q + 1 ;", "anchor")], 0)
    cset = CharacteristicSet()
    assert symbolize(*a, cset).symbols == symbolize(*b, cset).symbols


# --------------------------------------------------------------------------
# truncation branches
# --------------------------------------------------------------------------


def test_padding_branch():
    table = hash_table(2, seed=1)
    sym = SymbolicSeVC(0, ["a", "b", "c"], 0, 1)
    vec = encode(sym, table, theta=10)
    assert vec.values.shape == (10,)
    assert np.all(vec.values[6:] == 0.0)
    assert np.any(vec.values[:6] != 0.0)
    assert vec.kept_symbols == 3


def test_branch_forward_short_drops_leftmost():
    # backward=6, anchor=1, forward=1, capacity=6 -> keep the last 6
    lo, hi = truncation_window(8, 6, 7, 6)
    assert (lo, hi) == (2, 8)


def test_branch_backward_short_drops_rightmost():
    lo, hi = truncation_window(8, 1, 2, 6)
    assert (lo, hi) == (0, 6)


def test_branch_split_drops_both_sides():
    # backward=5, anchor=1, forward=5, capacity=8: e=3 -> 2 left, 1 right
    lo, hi = truncation_window(11, 5, 6, 8)
    assert (lo, hi) == (2, 10)


def test_anchor_must_survive():
    # anchor spans the whole stream; cannot fit in capacity 3
    with pytest.raises(EncodingError):
        truncation_window(10, 1, 9, 3)


def test_encode_requires_divisible_theta():
    table = hash_table(3, seed=0)
    sym = SymbolicSeVC(0, ["a"], 0, 1)
    with pytest.raises(EncodingError):
        encode(sym, table, theta=10)


def test_encoding_laws_randomized():
    rng = np.random.default_rng(42)
    table_cache = {}
    for _ in range(300):
        b = int(rng.integers(0, 12))
        a = int(rng.integers(1, 5))
        f = int(rng.integers(0, 12))
        d = int(rng.integers(1, 5))
        capacity = int(rng.integers(2, 16))
        theta = capacity * d
        symbols = (
            [f"b{i}" for i in range(b)]
            + [f"a{i}" for i in range(a)]
            + [f"f{i}" for i in range(f)]
        )
        sym = SymbolicSeVC(0, symbols, b, b + a)
        if d not in table_cache:
            table_cache[d] = hash_table(d, seed=9)
        table = table_cache[d]
        n = len(symbols)
        try:
            vec = encode(sym, table, theta)
        except EncodingError:
            # only legitimate when the anchor really cannot survive
            if n <= capacity:
                raise
            if 2 * f < capacity:
                assert n - capacity > b
            elif 2 * b < capacity:
                assert b + a > capacity
            else:
                e = n - capacity
                assert (e + 1) // 2 > b or e // 2 > f
            continue
        assert vec.values.shape == (theta,)
        kept = vec.kept_symbols
        assert kept == min(n, capacity)
        assert np.all(vec.values[kept * d :] == 0.0)
        # branch selection
        if n > capacity:
            if 2 * f < capacity:
                window = symbols[n - capacity :]
            elif 2 * b < capacity:
                window = symbols[:capacity]
            else:
                e = n - capacity
                window = symbols[(e + 1) // 2 : n - e // 2]
            # anchor retained entirely
            assert all(f"a{i}" in window for i in range(a))
            expected = np.concatenate([table.lookup(s) for s in window])
            assert np.allclose(vec.values[: kept * d], expected)


def test_alpha_invariant_vectors():
    src_a = "void f(char *alpha){char buf[4]; strcpy(buf, alpha);}"
    src_b = "void f(char *omega){char tmp[4]; strcpy(tmp, omega);}"
    sevc_a, model_a, cset = sevc_from(src_a, pick=lambda s: s.kind == "AU")
    sevc_b, model_b, _ = sevc_from(src_b, pick=lambda s: s.kind == "AU")
    table = hash_table(4, seed=3)
    va = encode(symbolize(sevc_a, model_a, cset), table, 64)
    vb = encode(symbolize(sevc_b, model_b, cset), table, 64)
    assert np.array_equal(va.values, vb.values)


# --------------------------------------------------------------------------
# vector store
# --------------------------------------------------------------------------


def test_vector_store_roundtrip(tmp_path):
    table = hash_table(4, seed=5)
    samples = []
    for i, (text, kind) in enumerate([("a b c", "FC"), ("d e", "AU"), ("f", "PU")]):
        sym = SymbolicSeVC(i, text.split(), 0, 1, kind=kind, program=f"p{i}")
        samples.append(encode(sym, table, 16))
    path = str(tmp_path / "vectors.bin")
    save_vectors(path, samples, seed=77)
    loaded, seed = load_vectors(path)
    assert seed == 77
    assert len(loaded) == 3
    for orig, back in zip(samples, loaded):
        for f in fields(SampleVector):
            if f.name != "values":
                assert getattr(back, f.name) == getattr(orig, f.name), f.name
        assert np.allclose(back.values, orig.values, atol=1e-6)


def test_vector_store_writes_are_atomic(tmp_path, monkeypatch):
    table = hash_table(4, seed=5)
    sym = SymbolicSeVC(0, ["a", "b"], 0, 1, kind="FC", program="p")
    samples = [encode(sym, table, 16)]
    path = tmp_path / "vectors.bin"
    save_vectors(str(path), samples, seed=1)
    before = {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)}
    assert sorted(before) == ["vectors.bin", "vectors.bin.idx"]

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk full"):
        save_vectors(str(path), samples * 2, seed=2)
    after = {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)}
    assert after == before


def test_vector_store_rejects_garbage(tmp_path):
    path = str(tmp_path / "bad.bin")
    with open(path, "wb") as fh:
        fh.write(b"NOPE" + b"\x00" * 32)
    with pytest.raises(EncodingError):
        load_vectors(path)



def drop_index(path):
    os.remove(path + ".idx")


def edit_index(path, edit):
    with open(path + ".idx") as fh:
        lines = fh.read().splitlines()
    with open(path + ".idx", "w") as fh:
        fh.write("\n".join(edit(lines)) + "\n")


def append_bytes(path, payload):
    with open(path, "ab") as fh:
        fh.write(payload)


def truncate(path, size):
    with open(path, "r+b") as fh:
        fh.truncate(size)


def strip_field(line, name):
    record = json.loads(line)
    del record[name]
    return json.dumps(record)


def set_field(line, name, value):
    return json.dumps({**json.loads(line), name: value})


def zero_dimension(path):
    with open(path, "r+b") as fh:
        fh.seek(12)  # magic, version, theta, then the dimension
        fh.write(struct.pack("<I", 0))


def empty_store(path):
    """The header alone, counting 0 records, and an empty index."""
    truncate(path, 32)  # magic, then version, theta, dimension, count, seed
    with open(path, "r+b") as fh:
        fh.seek(16)
        fh.write(struct.pack("<Q", 0))
    open(path + ".idx", "w").close()


@pytest.mark.parametrize(
    "corrupt, problem",
    [
        (drop_index, "index sidecar .idx is missing"),
        (lambda p: edit_index(p, lambda ls: ls[:1] + ["{not json"] + ls[2:]), "bad index line 2"),
        (lambda p: edit_index(p, lambda ls: [strip_field(ls[0], "kind")] + ls[1:]), "bad index line 1"),
        (lambda p: edit_index(p, lambda ls: [strip_field(ls[0], "row")] + ls[1:]), "bad index line 1"),
        (lambda p: edit_index(p, lambda ls: [ls[1], ls[0], ls[2]]), "index line 1 is for row 1"),
        (lambda p: edit_index(p, lambda ls: ls[:2]), "index rows do not match header count"),
        (lambda p: append_bytes(p + ".idx", b"\xff\n"), "index sidecar .idx is not text"),
        (lambda p: append_bytes(p, b"\x00"), "bytes after the last record"),
        (lambda p: truncate(p, 40), "truncated vector store"),
        (lambda p: truncate(p, 6), "truncated vector store header"),
        (empty_store, "empty vector store"),
        (zero_dimension, "theta 16 is not a multiple of dimension 0"),
        (lambda p: edit_index(p, lambda ls: [set_field(ls[0], "kept_symbols", 0)] + ls[1:]),
         "index line 1 keeps 0 of 4 symbols"),
        (lambda p: edit_index(p, lambda ls: ls[:2] + [set_field(ls[2], "kept_symbols", 10**6)]),
         "index line 3 keeps 1000000 of 4 symbols"),
    ],
    ids=["missing-idx", "idx-not-json", "idx-lacks-field", "idx-lacks-row",
         "rows-out-of-order", "rows-short", "idx-not-text", "trailing-bytes", "short-records",
         "short-header", "empty", "zero-dimension", "keeps-none", "keeps-too-many"],
)
def test_vector_store_rejects_corrupt_store_naming_vectorize(tmp_path, corrupt, problem):
    table = hash_table(4, seed=5)
    samples = [
        encode(SymbolicSeVC(i, ["a", "b"], 0, 1, kind="FC", program="p"), table, 16)
        for i in range(3)
    ]
    path = str(tmp_path / "vectors.bin")
    save_vectors(path, samples, seed=1)
    corrupt(path)
    with pytest.raises(EncodingError, match="re-run the 'vectorize' stage") as exc:
        load_vectors(path)
    assert problem in str(exc.value)

