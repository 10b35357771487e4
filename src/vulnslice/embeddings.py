"""Token embeddings: skip-gram with negative sampling, plus a hashed mode.

The skip-gram trainer is deliberately single-threaded and seeded so the
same corpus and seed always produce the same table, bit for bit. It
draws the negatives of all pairs of one window at once: one call for
k * negatives doubles reads the same generator stream as k calls for
`negatives` each, so the draws, and the float operations of each
(center, context) pair, are those of a pair-by-pair loop. The
"hash" mode derives every vector from a keyed blake2 digest instead of
training; it is the fast deterministic fallback used by tests and as
the out-of-vocabulary rule at encode time.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .artifacts import atomic_write_text
from .presets import MODE_HASH, MODE_SKIPGRAM


class EmbeddingError(Exception):
    pass


def hash_vector(symbol: str, dimension: int, seed: int) -> np.ndarray:
    """Deterministic unit-norm vector for a symbol, keyed by the seed."""
    digest = hashlib.blake2b(
        symbol.encode("utf-8"), key=str(seed).encode("ascii"), digest_size=8
    ).digest()
    rng = np.random.default_rng(int.from_bytes(digest, "big"))
    vec = rng.standard_normal(dimension)
    norm = float(np.linalg.norm(vec))
    return vec / norm if norm > 0 else vec


@dataclass
class EmbeddingTable:
    """Symbol -> d-vector lookup with a total OOV fallback."""

    dimension: int
    vectors: dict[str, np.ndarray] = field(default_factory=dict)
    seed: int = 0
    mode: str = MODE_SKIPGRAM
    # hash_vector results by symbol; read-only, since callers share them
    _hashed: dict[str, np.ndarray] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def lookup(self, symbol: str) -> np.ndarray:
        if self.mode != MODE_HASH:
            hit = self.vectors.get(symbol)
            if hit is not None:
                return hit
        vec = self._hashed.get(symbol)
        if vec is None:
            vec = hash_vector(symbol, self.dimension, self.seed)
            vec.flags.writeable = False
            self._hashed[symbol] = vec
        return vec

    def save(self, path: str) -> None:
        payload = {
            "dimension": self.dimension,
            "seed": self.seed,
            "mode": self.mode,
            "vectors": {
                sym: [float(x) for x in vec]
                for sym, vec in sorted(self.vectors.items())
            },
        }
        atomic_write_text(path, json.dumps(payload, sort_keys=True) + "\n")

    @classmethod
    def load(cls, path: str) -> "EmbeddingTable":
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        return cls(
            dimension=payload["dimension"],
            vectors={
                sym: np.asarray(vec, dtype=np.float64)
                for sym, vec in payload["vectors"].items()
            },
            seed=payload["seed"],
            mode=payload["mode"],
        )


def hash_table(dimension: int, seed: int) -> EmbeddingTable:
    return EmbeddingTable(dimension=dimension, seed=seed, mode=MODE_HASH)


def train_embeddings(
    corpus: list[list[str]],
    dimension: int = 30,
    seed: int = 0,
    window: int = 5,
    negatives: int = 5,
    epochs: int = 5,
    initial_lr: float = 0.025,
    min_lr: float = 1e-4,
) -> EmbeddingTable:
    """Train skip-gram with negative sampling over symbol sequences.

    Window offsets are sampled uniformly in [1, window] per center (the
    usual dynamic window), negatives from the unigram^0.75 table, and
    the learning rate decays linearly over all scheduled updates.
    """
    sentences = [s for s in corpus if s]
    if not sentences:
        raise EmbeddingError("cannot train embeddings on an empty corpus")
    if dimension < 1:
        raise EmbeddingError(f"embedding dimension must be >= 1, got {dimension}")
    if window < 1:
        raise EmbeddingError(f"window must be >= 1, got {window}")
    if negatives < 0:
        raise EmbeddingError(f"negatives must be >= 0, got {negatives}")
    if epochs < 1:
        raise EmbeddingError(f"epochs must be >= 1, got {epochs}")

    counts: dict[str, int] = {}
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

    encoded = [[index[s] for s in sentence] for sentence in sentences]
    width = negatives + 1
    labels = np.zeros(width)
    labels[0] = 1.0
    # per-pair buffers, reused so each pair allocates nothing
    rows = np.empty((width, dimension))
    scores = np.empty(width)
    gradient = np.empty(width)
    gradient_column = gradient[:, None]  # outer products as a broadcast
    updates = np.empty((width, dimension))
    center_grad = np.empty(dimension)
    # one row per (center, context) pair of a window: context, then negatives
    most_pairs = min(2 * window, max(len(s) for s in sentences))
    window_targets = np.empty((most_pairs, width), dtype=np.int64)

    total_tokens = sum(len(s) for s in sentences)
    scheduled = max(1, total_tokens * epochs)
    done = 0
    for _ in range(epochs):
        for ids in encoded:
            for pos, center in enumerate(ids):
                lr = max(min_lr, initial_lr * (1.0 - done / scheduled))
                done += 1
                reach = int(rng.integers(1, window + 1))
                lo = max(0, pos - reach)
                contexts = ids[lo:pos] + ids[pos + 1:pos + reach + 1]
                if not contexts:
                    continue
                k = len(contexts)
                targets = window_targets[:k]
                targets[:, 0] = contexts
                # the same stream as one rng.random(negatives) per pair
                targets[:, 1:] = np.searchsorted(
                    table_cdf, rng.random(k * negatives)
                ).reshape(k, negatives)
                cv = center_vecs[center]
                for pair in targets:
                    context_vecs.take(pair, 0, rows)
                    np.dot(rows, cv, out=scores)
                    # no upper clamp: above 60 the sigmoid is exactly 1.0
                    np.maximum(scores, -60.0, out=scores)
                    np.negative(scores, out=scores)
                    np.exp(scores, out=scores)
                    np.add(scores, 1.0, out=scores)
                    np.divide(1.0, scores, out=scores)
                    np.subtract(labels, scores, out=gradient)
                    np.multiply(gradient, lr, out=gradient)
                    np.multiply(gradient_column, cv, out=updates)
                    np.dot(gradient, rows, out=center_grad)
                    # add.at accumulates correctly when a negative draw
                    # repeats an index
                    np.add.at(context_vecs, pair, updates)
                    cv += center_grad
    return EmbeddingTable(
        dimension=dimension,
        vectors={s: center_vecs[index[s]].copy() for s in vocab},
        seed=seed,
        mode=MODE_SKIPGRAM,
    )
