"""Embedding training determinism and geometry, hashed fallback."""

import os

import numpy as np
import pytest

from vulnslice import cli
from vulnslice.artifacts import derive_seed
from vulnslice.data import mini_corpus_manifest
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


# --------------------------------------------------------------------------
# the trainer against its pair-by-pair reference
# --------------------------------------------------------------------------


def reference_train_embeddings(
    corpus,
    dimension=30,
    seed=0,
    window=5,
    negatives=5,
    epochs=5,
    initial_lr=0.025,
    min_lr=1e-4,
):
    """Skip-gram with one draw and one set of numpy calls per pair.

    The trainer must return this table bit for bit: it reads the same
    generator stream and does the same float operations in the same order.
    """
    sentences = [s for s in corpus if s]
    counts = {}
    for sentence in sentences:
        for symbol in sentence:
            counts[symbol] = counts.get(symbol, 0) + 1
    vocab = sorted(counts, key=lambda s: (-counts[s], s))
    index = {s: i for i, s in enumerate(vocab)}
    v = len(vocab)

    rng = np.random.default_rng(seed)
    table_weights = np.array([counts[s] ** 0.75 for s in vocab], dtype=np.float64)
    table_cdf = np.cumsum(table_weights / table_weights.sum())

    center_vecs = (rng.random((v, dimension)) - 0.5) / dimension
    context_vecs = np.zeros((v, dimension), dtype=np.float64)

    total_tokens = sum(len(s) for s in sentences)
    scheduled = max(1, total_tokens * epochs)
    done = 0
    for _ in range(epochs):
        for sentence in sentences:
            ids = [index[s] for s in sentence]
            for pos, center in enumerate(ids):
                lr = max(min_lr, initial_lr * (1.0 - done / scheduled))
                done += 1
                reach = int(rng.integers(1, window + 1))
                lo = max(0, pos - reach)
                hi = min(len(ids), pos + reach + 1)
                for ctx_pos in range(lo, hi):
                    if ctx_pos == pos:
                        continue
                    context = ids[ctx_pos]
                    targets = np.empty(negatives + 1, dtype=np.int64)
                    labels = np.zeros(negatives + 1)
                    targets[0] = context
                    labels[0] = 1.0
                    draws = rng.random(negatives)
                    targets[1:] = np.searchsorted(table_cdf, draws)
                    cv = center_vecs[center]
                    out = context_vecs[targets]
                    logits = np.clip(out @ cv, -60.0, 60.0)
                    scores = 1.0 / (1.0 + np.exp(-logits))
                    gradient = (labels - scores) * lr
                    center_grad = gradient @ out
                    np.add.at(context_vecs, targets, np.outer(gradient, cv))
                    center_vecs[center] = cv + center_grad
    return EmbeddingTable(
        dimension=dimension,
        vectors={s: center_vecs[index[s]].copy() for s in vocab},
        seed=seed,
    )


def assert_same_table(got, want):
    assert (got.dimension, got.seed, got.mode) == (want.dimension, want.seed, want.mode)
    assert list(got.vectors) == list(want.vectors)
    for sym, vec in want.vectors.items():
        assert np.array_equal(got.vectors[sym], vec), sym


WORDS = [["V1", "=", "V2", ";"], ["memset", "(", "V1", ",", "0", ")", ";"]] * 3


@pytest.mark.parametrize(
    "corpus, options",
    [
        ([["a"], ["b"], ["a"], ["c"]], {}),
        ([["a"], ["b", "c", "a"], ["d"], ["c", "a"]], {}),
        ([["x", "y", "x", "x", "z", "x", "x"], ["x", "x"]], {}),
        ([["a", "b"] * 6, ["b", "a", "a"]], {}),
        (WORDS, {"dimension": 1}),
        (WORDS, {"window": 1}),
        (WORDS, {"negatives": 0}),
        (WORDS, {"dimension": 1, "window": 1, "negatives": 0, "epochs": 1}),
        (WORDS, {"window": 50, "negatives": 12, "epochs": 2}),
        (WORDS, {"initial_lr": 2.0}),
        ([["a", "b"] * 6, ["b", "a", "a"]], {"initial_lr": 1.0, "negatives": 12}),
    ],
    ids=[
        "single-token-sentences",
        "single-token-sentences-mixed",
        "repeat-in-window",
        "two-symbol-vocabulary",
        "dimension-1",
        "window-1",
        "negatives-0",
        "all-minimal",
        "window-wider-than-sentences",
        "saturated-scores",
        "saturated-scores-repeated-draws",
    ],
)
def test_trainer_matches_reference_bit_for_bit(corpus, options):
    options = {"dimension": 6, "seed": 13, **options}
    assert_same_table(
        train_embeddings(corpus, **options),
        reference_train_embeddings(corpus, **options),
    )


def test_trainer_matches_reference_on_mini_corpus(tmp_path, monkeypatch):
    calls = []

    def recording(corpus, **options):
        table = train_embeddings(corpus, **options)
        calls.append((corpus, options, table))
        return table

    monkeypatch.setattr(cli, "train_embeddings", recording)
    for stage in ("parse", "extract", "slice", "vectorize"):
        args = [stage, "--manifest", mini_corpus_manifest()]
        assert cli.main(args + ["--out", str(tmp_path), "--seed", "101"]) == 0
    [(corpus, options, table)] = calls
    assert options["seed"] == derive_seed(101, "embeddings")
    assert_same_table(table, reference_train_embeddings(corpus, **options))


@pytest.mark.parametrize(
    "option", [{"window": 0}, {"negatives": -1}, {"epochs": 0}]
)
def test_trainer_rejects_bad_arguments(option):
    with pytest.raises(EmbeddingError, match=next(iter(option))):
        train_embeddings(WORDS, dimension=4, seed=0, **option)


def test_table_save_is_atomic(tmp_path, monkeypatch):
    path = tmp_path / "table.json"
    train_embeddings([["a", "b"]], dimension=3, seed=1).save(str(path))
    before = path.read_bytes()

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk full"):
        train_embeddings([["c", "d"]], dimension=3, seed=2).save(str(path))
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["table.json"]
