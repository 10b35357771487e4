"""Differential tests: BGRU training against the engine it replaced.

``loss_and_gradients`` used to run every layer's two directions over
every scan step, concatenate the top layer's states into whole
(T, B, 2H) features, read each sample's last step out of them, and
build the top layer's gradient by flipping a zero (T, B, 2H) buffer
that held the dense layer's gradient at those steps. The loss reads
the top layer only at each sample's last step, which the reversed
direction reaches at its first scan step, so the top layer now runs
that direction one step. That engine (``_layer_forward``,
``_layer_backward``, ``_forward`` and ``loss_and_gradients``) is kept
here, unchanged apart from its helpers coming from ``bgru``, as the
reference. Losses and gradients must be equal bit for bit at 1, 2 and
3 layers, with lengths of 1, equal lengths and mixed lengths, in
evaluation mode and in training mode with and without dropout; and
``bgru.train`` must give the same parameters and epoch losses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from vulnslice import bgru
from vulnslice.bgru import (
    PRESETS,
    Hyperparams,
    ModelError,
    _Batch,
    _check_input,
    _head,
    _sigmoid,
    init_params,
    loss_and_gradients,
    train,
)
from vulnslice.vectorize import SampleVector

# --- the replaced code ----------------------------------------------------


@dataclass
class _LayerCache:
    xs: np.ndarray  # (2, T, B, in)
    gates: np.ndarray  # (2, T, B, 3H)
    hs: np.ndarray  # (2, T+1, B, H); hs[:, t] is h_{t-1}
    mask: np.ndarray | None  # dropout mask on the layer's output


def reference_layer_forward(batch, x, weights, keep):
    W, Uzr, Uh, bias = weights
    steps, width = x.shape[0], x.shape[1]
    h = Uh.shape[-1]
    UzrT = Uzr.transpose(0, 2, 1)
    UhT = Uh.transpose(0, 2, 1)
    xs = np.stack([x, batch.flip(x)])
    gates = np.matmul(xs.reshape(2, steps * width, -1), W.transpose(0, 2, 1))
    gates += bias[:, None, :]
    gates = gates.reshape(2, steps, width, 3 * h)
    hs = np.zeros((2, steps + 1, width, h))
    for t in range(steps):
        g = gates[:, t]
        h_prev = hs[:, t]
        zr = g[..., : 2 * h]
        zr += h_prev @ UzrT
        zr[...] = _sigmoid(zr)
        z, r, c = g[..., :h], g[..., h : 2 * h], g[..., 2 * h :]
        c += (r * h_prev) @ UhT
        np.tanh(c, out=c)
        hs[:, t + 1] = (1.0 - z) * h_prev + z * c
    out = np.concatenate([hs[0, 1:], batch.flip(hs[1, 1:])], axis=-1)
    cache = _LayerCache(xs, gates, hs, None) if keep else None
    return out, cache


def reference_layer_backward(cache, d_out, weights, prefix, grads):
    W, Uzr, Uh, _ = weights
    gates, hs = cache.gates, cache.hs
    steps, width, h = hs.shape[1] - 1, hs.shape[2], hs.shape[3]
    carry = np.zeros((2, width, h))
    for t in range(steps - 1, -1, -1):
        g = gates[:, t]
        z, r, c = g[..., :h], g[..., h : 2 * h], g[..., 2 * h :]
        h_prev = hs[:, t]
        dh = d_out[:, t] + carry
        np.multiply(r, h_prev, out=d_out[:, t])
        da_z = dh * (c - h_prev) * z * (1.0 - z)
        da_h = dh * z * (1.0 - c * c)
        d_rh = da_h @ Uh
        da_r = d_rh * h_prev * r * (1.0 - r)
        carry = dh * (1.0 - z) + d_rh * r
        g[..., :h] = da_z
        g[..., h : 2 * h] = da_r
        g[..., 2 * h :] = da_h
        carry += g[..., : 2 * h] @ Uzr
    rows = steps * width
    da = gates.reshape(2, rows, 3 * h)
    daT = da.transpose(0, 2, 1)
    grads[prefix + ".W"] = daT @ cache.xs.reshape(2, rows, -1)
    grads[prefix + ".U"] = daT[:, : 2 * h] @ hs[:, :steps].reshape(2, rows, h)
    grads[prefix + ".Uh"] = daT[:, 2 * h :] @ d_out.reshape(2, rows, h)
    grads[prefix + ".b"] = da.sum(axis=1)
    return (da @ W).reshape(2, steps, width, -1)


def reference_forward(batch, params, hp, train_mode, rng, keep):
    p = params.arrays
    current = batch.x
    caches = []
    for layer in range(hp.layers):
        weights = tuple(p[f"l{layer}.{name}"] for name in ("W", "U", "Uh", "b"))
        current, cache = reference_layer_forward(batch, current, weights, keep)
        if layer < hp.layers - 1 and train_mode and hp.dropout > 0.0:
            if rng is None:
                raise ModelError("training mode needs an RNG for dropout")
            kept = 1.0 - hp.dropout
            mask = (rng.random(current.shape) < kept) / kept
            current = current * mask
            if cache is not None:
                cache.mask = mask
        caches.append((weights, cache))
    return current, caches


def reference_loss_and_gradients(batch, params, hp, rng=None, train_mode=False):
    if not batch:
        raise ModelError("empty batch")
    for idx, (_, label) in enumerate(batch):
        if label not in (0, 1):
            raise ModelError(f"sample {idx}: label must be 0 or 1, got {label!r}")
    p = params.arrays
    matrices = [np.asarray(x, dtype=np.float64) for x, _ in batch]
    for i, x in enumerate(matrices):
        _check_input(i, x, hp)
    padded = _Batch.pad(matrices, hp)
    labels = np.array([label for _, label in batch], dtype=np.float64)
    feat, caches = reference_forward(padded, params, hp, train_mode, rng, keep=True)
    last = (padded.lengths - 1, np.arange(len(batch)))
    feat_last = feat[last]  # (B, 2H)
    u, prob = _head(feat_last, p)
    eps = 1e-12
    losses = -(
        labels * np.log(np.maximum(prob, eps))
        + (1.0 - labels) * np.log(np.maximum(1.0 - prob, eps))
    )
    bad = np.flatnonzero(~np.isfinite(losses))
    if bad.size:
        raise ModelError(f"non-finite loss for sample {bad[0]}")
    scale = 1.0 / len(batch)
    total = float(np.sum(losses * scale))

    grads = {}
    d_head_pre = (prob - labels) * scale  # (B,)
    grads["head.w"] = d_head_pre @ u
    grads["head.b"] = np.array([d_head_pre.sum()])
    da_dense = np.outer(d_head_pre, p["head.w"]) * (1.0 - u * u)
    grads["dense.W"] = da_dense.T @ feat_last
    grads["dense.b"] = da_dense.sum(axis=0)
    d_current = feat
    d_current[...] = 0.0
    d_current[last] = da_dense @ p["dense.W"]

    h = hp.hidden_dim
    for layer in range(hp.layers - 1, -1, -1):
        weights, cache = caches[layer]
        if cache.mask is not None:
            d_current = d_current * cache.mask
        d_out = np.stack([d_current[..., :h], padded.flip(d_current[..., h:])])
        d_xs = reference_layer_backward(cache, d_out, weights, f"l{layer}", grads)
        if layer > 0:
            d_current = d_xs[0] + padded.flip(d_xs[1])
    return total, {key: grads[key] for key in p}


def reference_train(dataset, hp):
    """``bgru.train`` with every step taken by the reference engine."""
    real = bgru.loss_and_gradients
    bgru.loss_and_gradients = reference_loss_and_gradients
    try:
        return train(dataset, hp)
    finally:
        bgru.loss_and_gradients = real


# --- the comparisons ------------------------------------------------------


def small_hp(**kwargs):
    base = dict(
        input_dim=4, seq_len=10, hidden_dim=5, layers=1, dense_dim=3,
        dropout=0.0, batch_size=4, epochs=3, learning_rate=0.01, seed=1,
    )
    base.update(kwargs)
    return Hyperparams(**base)


DESK_SHAPE = dict(input_dim=16, hidden_dim=32, dense_dim=16, batch_size=16)

LENGTHS = {
    "mixed": (6, 1, 9, 3, 1, 7),
    "all-one": (1, 1, 1),
    "equal": (5, 5, 5, 5),
    "single": (8,),
    "single-step": (1,),
}


def labelled(rng, lengths, input_dim):
    return [
        (rng.standard_normal((n, input_dim)), i % 2) for i, n in enumerate(lengths)
    ]


def assert_same_result(got, want):
    (loss, grads), (ref_loss, ref_grads) = got, want
    assert repr(loss) == repr(ref_loss)
    assert list(grads) == list(ref_grads)
    for key in ref_grads:
        assert grads[key].shape == ref_grads[key].shape, key
        assert grads[key].tobytes() == ref_grads[key].tobytes(), key


def both_engines(batch, params, hp, mode, seed=0):
    """(loss, gradients) from the engine and from the reference, each
    with its own dropout RNG of the same seed."""
    results = []
    for engine in (loss_and_gradients, reference_loss_and_gradients):
        kwargs = {}
        if mode != "eval":
            kwargs = dict(rng=np.random.default_rng(seed), train_mode=True)
        results.append(engine(batch, params, hp, **kwargs))
    return results


@pytest.mark.parametrize("lengths", list(LENGTHS), ids=list(LENGTHS))
@pytest.mark.parametrize("mode", ["eval", "train", "train-dropout"])
@pytest.mark.parametrize("layers", [1, 2, 3])
def test_loss_and_gradients_equal_the_reference(layers, mode, lengths):
    hp = small_hp(layers=layers, dropout=0.3 if mode == "train-dropout" else 0.0)
    params = init_params(hp, seed=layers)
    rng = np.random.default_rng(10 * layers + len(LENGTHS[lengths]))
    batch = labelled(rng, LENGTHS[lengths], hp.input_dim)
    assert_same_result(*both_engines(batch, params, hp, mode, seed=layers))


@pytest.mark.parametrize("layers", [1, 2, 3])
def test_loss_and_gradients_equal_the_reference_at_the_desk_shapes(layers):
    hp = small_hp(layers=layers, seq_len=50, dropout=0.2, **DESK_SHAPE)
    params = init_params(hp, seed=7)
    rng = np.random.default_rng(layers)
    for width in (1, 3, 16):
        lengths = [int(n) for n in rng.integers(1, hp.seq_len + 1, size=width)]
        batch = labelled(rng, lengths, hp.input_dim)
        for mode in ("eval", "train-dropout"):
            assert_same_result(*both_engines(batch, params, hp, mode, seed=width))


def test_loss_and_gradients_equal_the_reference_at_the_paper_shapes():
    hp = PRESETS["paper"]
    params = init_params(hp, seed=3)
    rng = np.random.default_rng(3)
    batch = labelled(rng, (7, 1, 4, 7), hp.input_dim)
    assert_same_result(*both_engines(batch, params, hp, "train-dropout"))


def store_samples(rng, hp, lengths):
    """SampleVectors as vectorize stores them: float32, zero-padded to theta."""
    samples = []
    for i, n in enumerate(lengths):
        values = np.zeros(hp.theta, dtype=np.float32)
        values[: n * hp.input_dim] = rng.standard_normal(n * hp.input_dim)
        samples.append(
            SampleVector(
                values=values, theta=hp.theta, dimension=hp.input_dim,
                syvc_id=i, kept_symbols=n, program=f"p{i % 5}.c", kind="FC",
            )
        )
    return samples


@pytest.mark.parametrize("layers", [1, 2])
def test_training_gives_the_reference_parameters(layers):
    hp = small_hp(
        layers=layers, seq_len=30, dropout=0.2, epochs=4, seed=11, **DESK_SHAPE
    )
    rng = np.random.default_rng(layers)
    lengths = [int(n) for n in rng.integers(1, hp.seq_len + 1, size=30)]
    lengths[:3] = [1, 1, hp.seq_len]
    dataset = [(s, i % 2) for i, s in enumerate(store_samples(rng, hp, lengths))]
    params, report = train(dataset, hp)
    ref_params, ref_report = reference_train(dataset, hp)
    assert [repr(x) for x in report.epoch_losses] == [
        repr(x) for x in ref_report.epoch_losses
    ]
    for key, value in ref_params.arrays.items():
        assert params.arrays[key].tobytes() == value.tobytes(), key
