"""Embedding training determinism and geometry, hashed fallback."""

import numpy as np
import pytest

from vulnslice.embeddings import (
    EmbeddingError,
    EmbeddingTable,
    hash_table,
    hash_vector,
    train_embeddings,
)


def cosine(a, b):
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))


def test_empty_corpus_raises():
    with pytest.raises(EmbeddingError):
        train_embeddings([], dimension=8, seed=0)
    with pytest.raises(EmbeddingError):
        train_embeddings([[]], dimension=8, seed=0)


def test_single_symbol_corpus():
    table = train_embeddings([["x", "x", "x"]], dimension=4, seed=0)
    assert set(table.vectors) == {"x"}
    assert table.vectors["x"].shape == (4,)


def test_vectors_have_positive_norm():
    corpus = [["a", "b", "c", "a"], ["b", "c", "d"]]
    table = train_embeddings(corpus, dimension=6, seed=1)
    for sym, vec in table.vectors.items():
        assert np.linalg.norm(vec) > 0, sym


def test_same_seed_same_table():
    corpus = [["V1", "=", "V2", ";"], ["memset", "(", "V1", ")", ";"]] * 3
    a = train_embeddings(corpus, dimension=10, seed=42)
    b = train_embeddings(corpus, dimension=10, seed=42)
    assert set(a.vectors) == set(b.vectors)
    for sym in a.vectors:
        assert np.array_equal(a.vectors[sym], b.vectors[sym])


def test_different_seed_different_table():
    corpus = [["V1", "=", "V2", ";"]] * 5
    a = train_embeddings(corpus, dimension=10, seed=1)
    b = train_embeddings(corpus, dimension=10, seed=2)
    assert any(
        not np.array_equal(a.vectors[s], b.vectors[s]) for s in a.vectors
    )


def test_shared_contexts_draw_symbols_together():
    # V1 and V2 appear in interchangeable contexts; memset appears in a
    # disjoint context, so cosine(V1,V2) should beat cosine(V1,memset).
    rng = np.random.default_rng(3)
    corpus = []
    for _ in range(220):
        var = "V1" if rng.random() < 0.5 else "V2"
        corpus.append(["int", var, "=", "8", ";"])
        corpus.append([var, "+", "1", ";"])
        corpus.append(["memset", "(", "buf", ",", "0", ")", ";"])
    table = train_embeddings(corpus, dimension=12, seed=5)
    v1, v2, ms = table.vectors["V1"], table.vectors["V2"], table.vectors["memset"]
    assert cosine(v1, v2) > cosine(v1, ms)


def test_oov_lookup_is_total_and_deterministic():
    table = train_embeddings([["a", "b"]], dimension=5, seed=9)
    first = table.lookup("never-seen")
    second = table.lookup("never-seen")
    assert first.shape == (5,)
    assert np.array_equal(first, second)


def test_hash_vector_depends_on_seed_and_symbol():
    a = hash_vector("x", 8, seed=1)
    b = hash_vector("x", 8, seed=2)
    c = hash_vector("y", 8, seed=1)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.isclose(np.linalg.norm(a), 1.0)


def test_hash_table_mode():
    table = hash_table(6, seed=4)
    assert table.mode == "hash"
    assert np.array_equal(table.lookup("q"), hash_vector("q", 6, 4))


def test_table_save_load_roundtrip(tmp_path):
    corpus = [["a", "b", "c"], ["b", "c", "d"]]
    table = train_embeddings(corpus, dimension=7, seed=11)
    path = str(tmp_path / "table.json")
    table.save(path)
    loaded = EmbeddingTable.load(path)
    assert loaded.dimension == 7
    assert loaded.seed == 11
    assert loaded.mode == table.mode
    for sym in table.vectors:
        assert np.allclose(loaded.vectors[sym], table.vectors[sym])


def test_hash_lookups_are_memoized_read_only():
    for table in (hash_table(6, seed=4), train_embeddings([["a"]], dimension=6, seed=4)):
        first = table.lookup("q")
        assert table.lookup("q") is first
        assert np.array_equal(first, hash_vector("q", 6, table.seed))
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0] = 1.0
