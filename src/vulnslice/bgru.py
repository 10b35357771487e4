"""Bidirectional GRU sequence classifier, written directly in numpy.

Structure: stacked bidirectional GRU layers, a shared per-timestep
dense layer (tanh), and a scalar sigmoid activation head. The
activation output of every timestep forms the trace used for
explanations; the classification probability is the activation output
at the last non-padding timestep.

Training is minibatch gradient descent with the Adamax update, binary
cross-entropy on the final activation, and backpropagation through
time across all layers and both directions. Everything is float64 and
seeded: the same dataset and seed reproduce the same parameters bit
for bit. Dropout sits between stacked layers and is active only in
training mode.

GRU cell (per direction), with h_0 = 0:

    z_t = sigmoid(Wz x_t + Uz h_{t-1} + bz)
    r_t = sigmoid(Wr x_t + Ur h_{t-1} + br)
    c_t = tanh(Wh x_t + Uh (r_t * h_{t-1}) + bh)
    h_t = (1 - z_t) * h_{t-1} + z_t * c_t

Batched layout. There is one engine; a single sample is a batch of
one. A batch of B samples is padded at the end to its longest length
T and laid out time-major, (T, B, .). Each layer stacks its two
directions on a leading axis, (2, T, B, .): direction 0 reads every
sample forward, direction 1 reads every sample reversed over its own
length, so its padding stays at the end too. Both directions are then
forward scans with trailing padding, and one timestep loop runs them
together. Padding comes after a sample's last valid step, so it never
reaches a valid output, and the gradient it receives is exactly zero.
The reversal is an involution per column, so the same index map takes
direction 1 back to the original time order.

Training reads the top layer only at each sample's last valid step,
which direction 1 reaches at its first scan step. So in
loss_and_gradients the top layer runs both directions at step 0 and
direction 0 alone from step 1 on, forward and in BPTT; the steps it
skips would feed nothing the loss reads and get an exact zero
gradient. Lower layers, whose every step the layer above reads, and
inference (forward_batch), which reads every step, run both directions
at every step.

Which rows each GEMM runs over. A GEMM can round an output row another
way when it is given another count of rows (see inference below), so
the GEMMs that make one output row per input row keep all T*B rows of
both directions, which gives the bits of the full two-direction scan:
the input projection x W + b, although in training the top layer's
direction 1 reads only step 0's B rows, and the input gradient da @ W,
with direction 1's skipped rows set to zero first. Layer 0 computes no
input gradient, since nothing reads it. The weight-gradient GEMMs and
the bias sums add up over the rows, so each direction adds only the
rows it ran: all T*B for direction 0, and for direction 1 its first B
rows in the top layer while training, all T*B otherwise; its rows
after those hold exact zeros. numpy's stacked matmul makes one BLAS
call per direction, so a direction's GEMM gives the same bits alone as
stacked.

Gate fusion (Appleyard et al., arXiv 1604.01946). Each layer's GRU
weights are stored as the engine multiplies by them: the direction is
the leading axis and each gate an (out, in) block of rows, so
W = [Wz;Wr;Wh] is (2, 3H, in), U = [Uz;Ur] is (2, 2H, H), Uh is
(2, H, H) and b = [bz|br|bh] is (2, 3H). One GEMM over all T*B rows
gives every input projection before the loop; each step then does one
matmul against [Uz;Ur] and one against Uh, through transposed views.
The projection buffer (2, T, B, 3H) is reused: it holds x W + b, then
the gate activations z|r|c written in place step by step, then, during
BPTT, the gate pre-activation gradients. Hidden states carry a leading
zero row, so h_{t-1} is a view. The BPTT loop only carries dh back
through time; the weight gradients, in the stored layout, are
accumulated afterwards as GEMMs and sums over the rows each direction
ran.

Inference goes through forward_batch, which keeps no BPTT caches. It
scores each distinct input once, in chunks of batch_size grouped by
length, and its contract is one sentence: a trace is that of its input
scored in a chunk of batch_size copies of itself. So bgru_forward(x),
which is forward_batch([x]), gives x's trace inside any corpus, at the
cost of a full chunk: batch_size rows for one sample. The contract
holds bit for bit wherever the bits of a trace depend only on its input
and the chunk's width: not on the other samples in the chunk, the
sample's column, or how far the chunk is padded. Measured with numpy
2.4.6 and OpenBLAS 0.3.31, this holds at the desk preset's shapes with
the presets' width of 16, where each row of a GEMM is computed on its
own. It does not hold everywhere: the head's u @ head.w, a
matrix-vector product per timestep, rounds the last width % 4 rows of
a wide enough head another way, and GEMMs with few rows, or large
enough to be split across threads (the paper preset, not measured),
round a row by the row count. There a trace agrees with its contract to
about 1e-16; tests/test_bgru.py keeps the chunk of copies as its oracle.

detect, the one CLI stage that scores samples, runs forward_batch over
the whole vectors.bin list, whose values stay float32 until _Batch.pad
copies a sample's kept rows into its float64 buffer, and records each
finding's trace: evaluate counts detect's findings, and explain reads
their traces. ActivationTrace, CriticalToken and explain live in the
numpy-free symbols module (re-exported here).
"""

from __future__ import annotations

import json
import math
import os
import struct
from collections.abc import Iterable
from dataclasses import asdict, dataclass, field

import numpy as np

from . import artifacts
from .presets import PRESETS, Hyperparams, ModelError  # noqa: F401  re-exported
from .symbols import ActivationTrace, CriticalToken, explain  # noqa: F401  re-exported
from .vectorize import SampleVector


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # clamp below at -60 with a ufunc (np.clip costs more than the math
    # here) so exp cannot overflow; above 60 the result rounds to exactly
    # 1.0 with a clamp or without one
    return 1.0 / (1.0 + np.exp(-np.maximum(x, -60.0)))


def _param_shapes(hp: Hyperparams) -> dict[str, tuple[int, ...]]:
    """Every trainable array's shape, in canonical key order."""
    h = hp.hidden_dim
    shapes: dict[str, tuple[int, ...]] = {}
    for layer in range(hp.layers):
        in_dim = hp.input_dim if layer == 0 else 2 * h
        shapes[f"l{layer}.W"] = (2, 3 * h, in_dim)
        shapes[f"l{layer}.U"] = (2, 2 * h, h)
        shapes[f"l{layer}.Uh"] = (2, h, h)
        shapes[f"l{layer}.b"] = (2, 3 * h)
    shapes["dense.W"] = (hp.dense_dim, 2 * h)
    shapes["dense.b"] = (hp.dense_dim,)
    shapes["head.w"] = (hp.dense_dim,)
    shapes["head.b"] = (1,)
    return shapes


def param_keys(hp: Hyperparams) -> list[str]:
    return list(_param_shapes(hp))


@dataclass
class BgruParams:
    """All trainable arrays, keyed canonically (see param_keys)."""

    arrays: dict[str, np.ndarray]
    hp: Hyperparams

    def zeros_like(self) -> dict[str, np.ndarray]:
        return {k: np.zeros_like(v) for k, v in self.arrays.items()}

    def __getitem__(self, key: str) -> np.ndarray:
        return self.arrays[key]


def init_params(hp: Hyperparams, seed: int | None = None) -> BgruParams:
    """Glorot-uniform weights, zero biases. Each gate's (out, in) block
    is drawn on its own: per layer, direction f then b, gates z, r, h,
    W before U; then dense.W and head.w."""
    rng = np.random.default_rng(hp.seed if seed is None else seed)
    arrays = {key: np.zeros(shape) for key, shape in _param_shapes(hp).items()}
    h = hp.hidden_dim
    blocks = []
    for layer in range(hp.layers):
        W, U, Uh = (arrays[f"l{layer}.{name}"] for name in ("W", "U", "Uh"))
        for d in range(2):
            for k, recurrent in enumerate((U[d, :h], U[d, h:], Uh[d])):
                blocks += [W[d, k * h : (k + 1) * h], recurrent]
    for block in blocks + [arrays["dense.W"], arrays["head.w"]]:
        limit = np.sqrt(6.0 / (block.shape[-1] + block.shape[0]))
        block[...] = rng.uniform(-limit, limit, size=block.shape)
    return BgruParams(arrays, hp)


# --------------------------------------------------------------------------
# batched forward / backward
# --------------------------------------------------------------------------


def _check_input(i: int, x: np.ndarray, hp: Hyperparams) -> None:
    """Refuse a matrix that is not (steps >= 1, input_dim), by its index."""
    if x.ndim != 2 or x.shape[1] != hp.input_dim:
        raise ModelError(
            f"sample {i}: shape {x.shape} does not match input "
            f"dimension {hp.input_dim}"
        )
    if x.shape[0] < 1:
        raise ModelError(f"sample {i} has no timesteps")


@dataclass
class _Batch:
    """Samples padded at the end into one time-major (T, B, d) buffer."""

    x: np.ndarray  # (T, B, d), zero after each sample's length
    lengths: np.ndarray  # (B,)
    rev: np.ndarray  # (T, B): t -> length-1-t inside a sample, t on padding
    cols: np.ndarray  # (1, B): column index that pairs with rev

    @classmethod
    def pad(cls, matrices: list[np.ndarray], hp: Hyperparams) -> "_Batch":
        """Pad matrices that _check_input accepted; each one's rows are
        converted to float64 as they are copied in."""
        lengths = np.array([x.shape[0] for x in matrices])
        steps = int(lengths.max())
        buf = np.zeros((steps, len(matrices), hp.input_dim))
        for b, x in enumerate(matrices):
            buf[: len(x), b] = x
        t = np.arange(steps)[:, None]
        rev = np.where(t < lengths, lengths - 1 - t, t)
        return cls(buf, lengths, rev, np.arange(len(matrices))[None, :])

    def flip(self, seq: np.ndarray) -> np.ndarray:
        """Reverse each sample of seq (T, B, ...) over its own length.

        An involution: it maps time order to the backward direction's
        scan order and back. Padding stays where it is.
        """
        return seq[self.rev, self.cols]


@dataclass
class _LayerCache:
    """What BPTT needs of one layer; gates holds z|r|c after the forward."""

    xs: np.ndarray  # (2, T, B, in)
    gates: np.ndarray  # (2, T, B, 3H)
    hs: np.ndarray  # (2, T+1, B, H); hs[:, t] is h_{t-1}
    both: int  # leading scan steps run by both directions; direction 0 ran the rest
    mask: np.ndarray | None  # dropout mask on the layer's output


def _layer_forward(
    batch: _Batch, x: np.ndarray, weights, keep: bool, both: int
) -> tuple[np.ndarray, _LayerCache | None]:
    """One layer over x (T, B, in) -> (hidden states (2, T+1, B, H), cache).

    Both directions run the first ``both`` scan steps and direction 0
    alone the rest; direction 1's later states stay zero.
    """
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
        n = 2 if t < both else 1
        g = gates[:n, t]
        h_prev = hs[:n, t]
        zr = g[..., : 2 * h]
        zr += h_prev @ UzrT[:n]
        zr[...] = _sigmoid(zr)
        z, r, c = g[..., :h], g[..., h : 2 * h], g[..., 2 * h :]
        c += (r * h_prev) @ UhT[:n]
        np.tanh(c, out=c)
        hs[:n, t + 1] = (1.0 - z) * h_prev + z * c
    cache = _LayerCache(xs, gates, hs, both, None) if keep else None
    return hs, cache


def _layer_backward(
    cache: _LayerCache,
    d_out: np.ndarray,
    weights,
    prefix: str,
    grads: dict[str, np.ndarray],
    d_input: bool,
) -> np.ndarray | None:
    """BPTT for both directions of one layer.

    d_out is (2, T, B, H), each direction in its own scan order, and
    zero wherever the forward did not run; it is used up: once step t
    has read its slot, the slot keeps r_t * h_{t-1} for gUh. Writes the
    layer's weight gradients into grads and, with d_input, returns
    d xs, shape (2, T, B, in), also in scan order.
    """
    W, Uzr, Uh, _ = weights
    gates, hs, both = cache.gates, cache.hs, cache.both
    steps, width, h = hs.shape[1] - 1, hs.shape[2], hs.shape[3]
    carry = np.zeros((2, width, h))
    for t in range(steps - 1, -1, -1):
        n = 2 if t < both else 1
        g = gates[:n, t]
        z, r, c = g[..., :h], g[..., h : 2 * h], g[..., 2 * h :]
        h_prev = hs[:n, t]
        dh = d_out[:n, t] + carry[:n]
        np.multiply(r, h_prev, out=d_out[:n, t])
        da_z = dh * (c - h_prev) * z * (1.0 - z)
        da_h = dh * z * (1.0 - c * c)
        d_rh = da_h @ Uh[:n]
        da_r = d_rh * h_prev * r * (1.0 - r)
        carry[:n] = dh * (1.0 - z) + d_rh * r
        g[..., :h] = da_z
        g[..., h : 2 * h] = da_r
        g[..., 2 * h :] = da_h
        carry[:n] += g[..., : 2 * h] @ Uzr[:n]
    rows = steps * width
    # a direction's weight gradients sum over the rows it ran; its rows
    # are in scan order, so direction 1 ran its first both * B, and the
    # rows after them would add exact zeros
    parts = []
    for d, k in ((0, rows), (1, both * width)):
        da = gates[d].reshape(rows, 3 * h)[:k]
        daT = da.T
        parts.append((
            daT @ cache.xs[d].reshape(rows, -1)[:k],
            daT[: 2 * h] @ hs[d, :steps].reshape(rows, h)[:k],
            daT[2 * h :] @ d_out[d].reshape(rows, h)[:k],
            da.sum(axis=0),
        ))
    for name, pair in zip(("W", "U", "Uh", "b"), zip(*parts)):
        grads[f"{prefix}.{name}"] = np.stack(pair)
    if not d_input:
        return None
    # where direction 1 did not run, its rows still hold x W + b; its
    # gradient there is zero, and the GEMM keeps its shape
    gates[1, both:] = 0.0
    return (gates.reshape(2, rows, 3 * h) @ W).reshape(2, steps, width, -1)


def _forward(
    batch: _Batch,
    params: BgruParams,
    hp: Hyperparams,
    train_mode: bool,
    rng: np.random.Generator | None,
    keep: bool,
    last_only: bool = False,
) -> tuple[np.ndarray, list]:
    """Top-layer features and, with keep, per-layer caches.

    The features are (T, B, 2H), or with last_only each sample's
    features at its last step, (B, 2H). Direction 1 reaches that step
    first, so with last_only the top layer runs it one step.
    """
    p = params.arrays
    current = batch.x
    steps = current.shape[0]
    caches = []
    for layer in range(hp.layers):
        weights = tuple(p[f"l{layer}.{name}"] for name in ("W", "U", "Uh", "b"))
        ends_only = last_only and layer == hp.layers - 1
        both = 1 if ends_only else steps
        hs, cache = _layer_forward(batch, current, weights, keep, both)
        if ends_only:
            ends = hs[0, batch.lengths, batch.cols[0]]
            current = np.concatenate([ends, hs[1, 1]], axis=-1)
        else:
            current = np.concatenate([hs[0, 1:], batch.flip(hs[1, 1:])], axis=-1)
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


def _head(feat: np.ndarray, p: dict) -> tuple[np.ndarray, np.ndarray]:
    """(dense activations, head probabilities) for features (..., 2H)."""
    u = np.tanh(feat @ p["dense.W"].T + p["dense.b"])
    return u, _sigmoid(u @ p["head.w"] + p["head.b"][0])


def _sample_matrix(sample: np.ndarray | SampleVector, hp: Hyperparams) -> np.ndarray:
    """A SampleVector's kept rows, as a view in its own dtype (float32 as
    loaded from the store); any other input as float64."""
    if isinstance(sample, SampleVector):
        if sample.dimension != hp.input_dim:
            raise ModelError(
                f"sample dimension {sample.dimension} != model input "
                f"{hp.input_dim}"
            )
        return sample.matrix()[: sample.kept_symbols]
    return np.asarray(sample, dtype=np.float64)


def forward_batch(
    samples: Iterable[np.ndarray | SampleVector],
    params: BgruParams,
    hp: Hyperparams,
) -> list[ActivationTrace]:
    """Activation traces for samples, in input order.

    The batched inference entry point: it keeps no BPTT caches.
    SampleVector inputs are trimmed to their non-padding timesteps, so
    each trace's final entry is the last meaningful position. Every
    input is checked before any is scored, and a bad one is named by
    its index in samples.

    samples is read once, in order, and of each distinct input only its
    trimmed rows are kept: an iterator that reads its samples one at a
    time (as vectorize.iter_vectors does) is never held whole.

    Each distinct input (its step count and exact bytes: float32 for a
    SampleVector from the store, float64 otherwise; float32 to float64
    is exact, so equal bytes are equal values either way) is scored
    once: the distinct inputs, sorted by step count, are cut into chunks
    of batch_size rows, the last one filled to full width by repeating
    its final row. Each sample gets its own copy of its input's trace,
    which is, where the module docstring says so, that of its input
    scored in a chunk of batch_size copies of itself.
    """
    inputs: list[np.ndarray] = []  # each distinct input, by first appearance
    first: dict[tuple[int, bytes], int] = {}
    owner: list[int] = []  # each sample's input
    for i, sample in enumerate(samples):
        x = _sample_matrix(sample, hp)
        _check_input(i, x, hp)
        data = x.tobytes()
        j = first.setdefault((len(x), data), len(inputs))
        if j == len(inputs):
            # the key's bytes hold the rows: a view of the sample would
            # keep its whole padded vector alive
            inputs.append(np.frombuffer(data, dtype=x.dtype).reshape(x.shape))
        owner.append(j)
    width = hp.batch_size
    order = sorted(range(len(inputs)), key=lambda j: len(inputs[j]))
    order += order[-1:] * (-len(order) % width)
    outputs: dict[int, np.ndarray] = {}
    for k in range(0, len(order), width):
        chunk = order[k : k + width]
        for j, trace in zip(chunk, _score([inputs[j] for j in chunk], params, hp)):
            outputs[j] = trace
    return [ActivationTrace(outputs=outputs[j].copy()) for j in owner]


def _score(
    matrices: list[np.ndarray], params: BgruParams, hp: Hyperparams
) -> list[np.ndarray]:
    """Each matrix's head probabilities at its own steps, as one chunk."""
    batch = _Batch.pad(matrices, hp)
    feat, _ = _forward(batch, params, hp, train_mode=False, rng=None, keep=False)
    _, probs = _head(feat, params.arrays)
    return [probs[: batch.lengths[b], b] for b in range(len(matrices))]


def bgru_forward(
    sample: np.ndarray | SampleVector,
    params: BgruParams,
    hp: Hyperparams,
) -> ActivationTrace:
    """Activation trace for one sample (matrix or SampleVector).

    It is the sample's trace inside any corpus: forward_batch scores a
    chunk of hp.batch_size copies of it, so one sample costs a full chunk.
    """
    return forward_batch([sample], params, hp)[0]


def loss_and_gradients(
    batch: list[tuple[np.ndarray, int]],
    params: BgruParams,
    hp: Hyperparams,
    rng: np.random.Generator | None = None,
    train_mode: bool = False,
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean binary cross-entropy and gradients over a batch.

    Batch entries are (timesteps x input_dim matrix, 0/1 label). The
    loss reads the activation at each sample's final timestep, so only
    the top-layer features there are built: direction 0's state at that
    step and direction 1's after its first scan step, the one step the
    top layer runs that direction (see the module docstring). The top
    layer's gradient is zero but at those two steps.
    """
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
    feat_last, caches = _forward(
        padded, params, hp, train_mode, rng, keep=True, last_only=True
    )  # (B, 2H)
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

    grads: dict[str, np.ndarray] = {}
    d_head_pre = (prob - labels) * scale  # (B,)
    grads["head.w"] = d_head_pre @ u
    grads["head.b"] = np.array([d_head_pre.sum()])
    da_dense = np.outer(d_head_pre, p["head.w"]) * (1.0 - u * u)
    grads["dense.W"] = da_dense.T @ feat_last
    grads["dense.b"] = da_dense.sum(axis=0)
    d_feat = da_dense @ p["dense.W"]

    # the top layer's gradient, in scan order, is zero but at the two
    # steps the features were read from
    h = hp.hidden_dim
    steps, width = padded.x.shape[:2]
    d_out = np.zeros((2, steps, width, h))
    d_out[0, padded.lengths - 1, padded.cols[0]] = d_feat[:, :h]
    d_out[1, 0] = d_feat[:, h:]
    for layer in range(hp.layers - 1, -1, -1):
        weights, cache = caches[layer]
        d_xs = _layer_backward(cache, d_out, weights, f"l{layer}", grads, layer > 0)
        if d_xs is not None:
            d_current = d_xs[0] + padded.flip(d_xs[1])
            mask = caches[layer - 1][1].mask
            if mask is not None:
                d_current = d_current * mask
            d_out = np.stack([d_current[..., :h], padded.flip(d_current[..., h:])])
    return total, {key: grads[key] for key in p}


# --------------------------------------------------------------------------
# Adamax
# --------------------------------------------------------------------------


@dataclass
class AdamaxState:
    m: dict[str, np.ndarray]
    u: dict[str, np.ndarray]
    t: int = 0

    @classmethod
    def fresh(cls, params: BgruParams) -> "AdamaxState":
        return cls(m=params.zeros_like(), u=params.zeros_like(), t=0)


def adamax_step(
    params: BgruParams,
    grads: dict[str, np.ndarray],
    state: AdamaxState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> BgruParams:
    """One Adamax update, in place; returns the updated params.

    theta -= lr/(1 - beta1^t) * m / max(u, eps); the eps only guards the
    all-zero-gradient corner, so a single unit step moves by exactly
    lr * g / |g| components when the state is fresh.
    """
    state.t += 1
    correction = 1.0 - beta1**state.t
    for key, g in grads.items():
        m = state.m[key]
        u = state.u[key]
        m *= beta1
        m += (1.0 - beta1) * g
        np.maximum(beta2 * u, np.abs(g), out=u)
        params.arrays[key] -= (lr / correction) * m / np.maximum(u, eps)
    return params


# --------------------------------------------------------------------------
# training / prediction / explanation
# --------------------------------------------------------------------------


@dataclass
class TrainReport:
    epoch_losses: list[float] = field(default_factory=list)
    epochs: int = 0


def _dataset_matrices(
    dataset: list[tuple[SampleVector, int]], hp: Hyperparams
) -> list[tuple[np.ndarray, int]]:
    pairs = []
    for i, (sample, label) in enumerate(dataset):
        if label not in (0, 1):
            raise ModelError(f"dataset sample {i} has no 0/1 label")
        # converted once here, not once per step that draws the sample
        matrix = np.asarray(_sample_matrix(sample, hp), dtype=np.float64)
        pairs.append((matrix, int(label)))
    return pairs


def train(
    dataset: list[tuple[SampleVector, int]], hp: Hyperparams
) -> tuple[BgruParams, TrainReport]:
    """Seeded minibatch Adamax training over (sample vector, 0/1 label) pairs."""
    if not dataset:
        raise ModelError("cannot train on an empty dataset")
    seeds = np.random.SeedSequence(hp.seed).spawn(3)
    params = init_params(hp, seed=seeds[0])
    shuffle_rng = np.random.default_rng(seeds[1])
    dropout_rng = np.random.default_rng(seeds[2])
    state = AdamaxState.fresh(params)
    pairs = _dataset_matrices(dataset, hp)
    report = TrainReport(epochs=hp.epochs)
    for _ in range(hp.epochs):
        order = shuffle_rng.permutation(len(pairs))
        epoch_loss = 0.0
        batches = 0
        for start in range(0, len(order), hp.batch_size):
            chosen = [pairs[i] for i in order[start : start + hp.batch_size]]
            loss, grads = loss_and_gradients(
                chosen, params, hp, rng=dropout_rng, train_mode=True
            )
            adamax_step(params, grads, state, hp.learning_rate)
            epoch_loss += loss
            batches += 1
        report.epoch_losses.append(epoch_loss / max(1, batches))
    return params, report


def predict(
    sample: np.ndarray | SampleVector,
    params: BgruParams,
    hp: Hyperparams,
    threshold: float | None = None,
) -> tuple[int, float]:
    """(label, probability) for one sample; label 1 iff prob >= threshold.

    Scored by bgru_forward, as a full chunk of copies of the sample.
    """
    cut = hp.threshold if threshold is None else threshold
    trace = bgru_forward(sample, params, hp)
    prob = trace.final
    return (1 if prob >= cut else 0), prob


# --------------------------------------------------------------------------
# checkpoints
# --------------------------------------------------------------------------

_CKPT_MAGIC = b"BGRU"
_CKPT_VERSION = 2


def save_checkpoint(path: str, params: BgruParams, root_seed: int) -> None:
    hp = params.hp
    keys = param_keys(hp)
    header = {
        "version": _CKPT_VERSION,
        "seed": root_seed,
        "theta": hp.theta,
        "hyperparams": asdict(hp),
        "keys": keys,
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    parts = [_CKPT_MAGIC, struct.pack("<I", len(blob)), blob]
    for key in keys:
        arr = params.arrays[key]
        parts.append(struct.pack("<B", arr.ndim))
        parts += [struct.pack("<I", dim) for dim in arr.shape]
        parts.append(arr.astype("<f8").tobytes())
    artifacts.atomic_write_bytes(path, b"".join(parts))


class _Reader:
    """Bounds-checked reads from an open checkpoint file: a count past
    the bytes left is refused before anything is read or allocated."""

    def __init__(self, path: str, handle):
        self.path = path
        self.handle = handle
        self.left = os.fstat(handle.fileno()).st_size

    def fail(self, problem: str) -> ModelError:
        return ModelError(
            f"{self.path}: {problem}; re-run the 'train' stage to rewrite it"
        )

    def _claim(self, size: int, what: str) -> None:
        if size > self.left:
            raise self.fail(f"checkpoint truncated inside {what}")
        self.left -= size

    def take(self, count: int, what: str) -> bytes:
        self._claim(count, what)
        return self.handle.read(count)

    def uint(self, fmt: str, what: str) -> int:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))[0]

    def floats(self, count: int, what: str) -> np.ndarray:
        self._claim(8 * count, what)
        return np.fromfile(self.handle, dtype="<f8", count=count)


def load_checkpoint(
    path: str, expect_theta: int | None = None, expect_dim: int | None = None
) -> tuple[BgruParams, int]:
    """Load (params, root_seed).

    Refuses dimension mismatches, and raises ModelError for a
    truncated, oversized or otherwise corrupt file.
    """
    with open(path, "rb") as handle:
        reader = _Reader(path, handle)
        if reader.take(len(_CKPT_MAGIC), "the magic number") != _CKPT_MAGIC:
            raise reader.fail("not a checkpoint file")
        blob = reader.take(reader.uint("<I", "the header length"), "the header")
        try:
            header = json.loads(blob.decode("utf-8"))
            version, seed = header["version"], header["seed"]
            keys = header["keys"]
            hp = Hyperparams(**header["hyperparams"])
        except (ValueError, KeyError, TypeError, ModelError) as exc:
            raise reader.fail(f"unreadable checkpoint header ({exc})") from None
        if version != _CKPT_VERSION:
            raise reader.fail(f"unsupported checkpoint version {version!r}")
        if expect_theta is not None and hp.theta != expect_theta:
            raise ModelError(
                f"{path}: checkpoint theta {hp.theta} != expected {expect_theta}"
            )
        if expect_dim is not None and hp.input_dim != expect_dim:
            raise ModelError(
                f"{path}: checkpoint input dimension {hp.input_dim} != "
                f"expected {expect_dim}"
            )
        shapes = _param_shapes(hp)
        if keys != list(shapes):
            raise reader.fail("parameter blocks do not match the hyperparameters")
        arrays: dict[str, np.ndarray] = {}
        for key, expected in shapes.items():
            rank = reader.uint("<B", f"block {key}")
            shape = tuple(reader.uint("<I", f"block {key}") for _ in range(rank))
            if shape != expected:
                raise reader.fail(f"block {key} has shape {shape}, expected {expected}")
            block = reader.floats(math.prod(shape), f"block {key}")
            arrays[key] = block.reshape(shape).astype(np.float64, copy=False)
        if reader.left:
            raise reader.fail(f"{reader.left} trailing bytes after the last block")
    return BgruParams(arrays, hp), seed
