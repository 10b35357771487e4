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

Gate fusion (Appleyard et al., arXiv 1604.01946). Per layer the gate
weights are stacked as W = [Wz|Wr|Wh] of shape (2, in, 3H),
U = [Uz|Ur] of shape (2, H, 2H) and Uh of shape (2, H, H). One GEMM
over all T*B rows gives every input projection before the loop; each
step then does one matmul against [Uz|Ur] and one against Uh. The
projection buffer (2, T, B, 3H) is reused: it holds x W + b, then the
gate activations z|r|c written in place step by step, then, during
BPTT, the gate pre-activation gradients. Hidden states carry a
leading zero row, so h_{t-1} is a view. The BPTT loop only carries
dh back through time; the weight gradients gW, gU and gb are
accumulated afterwards as GEMMs and sums over the T*B rows.

Inference goes through forward_batch, which keeps no BPTT caches and
works in chunks of batch_size. Batching changes the order of BLAS
summations, so a sample's trace in a batch agrees with its trace
alone to about 1e-15, not bit for bit. The same samples in the same
chunks give identical bits, which is why every CLI stage that scores
samples runs forward_batch over the whole vectors.bin list.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass, field

import numpy as np

from . import artifacts
from .presets import PRESETS, Hyperparams, ModelError  # noqa: F401  re-exported
from .vectorize import SampleVector


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # clip to [-60, 60] with ufuncs: np.clip costs more than the math here
    return 1.0 / (1.0 + np.exp(-np.minimum(np.maximum(x, -60.0), 60.0)))


def _param_shapes(hp: Hyperparams) -> dict[str, tuple[int, ...]]:
    """Every trainable array's shape, in canonical key order."""
    h = hp.hidden_dim
    shapes: dict[str, tuple[int, ...]] = {}
    for layer in range(hp.layers):
        in_dim = hp.input_dim if layer == 0 else 2 * h
        for direction in ("f", "b"):
            for gate in ("z", "r", "h"):
                prefix = f"l{layer}.{direction}."
                shapes[f"{prefix}W{gate}"] = (h, in_dim)
                shapes[f"{prefix}U{gate}"] = (h, h)
                shapes[f"{prefix}b{gate}"] = (h,)
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
    """Glorot-uniform weights, zero biases, in canonical key order."""
    rng = np.random.default_rng(hp.seed if seed is None else seed)
    arrays: dict[str, np.ndarray] = {}
    for key, shape in _param_shapes(hp).items():
        if key.rsplit(".", 1)[1].startswith("b"):
            arrays[key] = np.zeros(shape)
            continue
        fan_in = shape[-1] if len(shape) > 1 else shape[0]
        fan_out = shape[0]
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        arrays[key] = rng.uniform(-limit, limit, size=shape)
    return BgruParams(arrays, hp)


@dataclass
class ActivationTrace:
    """Per-timestep activation outputs; the final one is the verdict."""

    outputs: np.ndarray  # shape (T,), each in (0, 1)

    @property
    def final(self) -> float:
        return float(self.outputs[-1])


# --------------------------------------------------------------------------
# batched forward / backward
# --------------------------------------------------------------------------


@dataclass
class _Batch:
    """Samples padded at the end into one time-major (T, B, d) buffer."""

    x: np.ndarray  # (T, B, d), zero after each sample's length
    lengths: np.ndarray  # (B,)
    rev: np.ndarray  # (T, B): t -> length-1-t inside a sample, t on padding
    cols: np.ndarray  # (1, B): column index that pairs with rev

    @classmethod
    def pad(cls, matrices: list[np.ndarray], hp: Hyperparams) -> "_Batch":
        for i, x in enumerate(matrices):
            if x.ndim != 2 or x.shape[1] != hp.input_dim:
                raise ModelError(
                    f"sample {i}: shape {x.shape} does not match input "
                    f"dimension {hp.input_dim}"
                )
            if x.shape[0] < 1:
                raise ModelError(f"sample {i} has no timesteps")
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
    mask: np.ndarray | None  # dropout mask on the layer's output


def _stacked_weights(p: dict, layer: int):
    """(W, Uzr, Uh, b) of one layer, stacked over the f and b directions."""
    W, Uzr, Uh, b = [], [], [], []
    for direction in ("f", "b"):
        pre = f"l{layer}.{direction}."
        W.append(np.concatenate([p[pre + "Wz"], p[pre + "Wr"], p[pre + "Wh"]]).T)
        Uzr.append(np.concatenate([p[pre + "Uz"], p[pre + "Ur"]]).T)
        Uh.append(p[pre + "Uh"].T)
        b.append(np.concatenate([p[pre + "bz"], p[pre + "br"], p[pre + "bh"]]))
    return np.stack(W), np.stack(Uzr), np.stack(Uh), np.stack(b)[:, None, :]


def _layer_forward(
    batch: _Batch, x: np.ndarray, weights, keep: bool
) -> tuple[np.ndarray, _LayerCache | None]:
    """Both directions of one layer over x (T, B, in) -> ((T, B, 2H), cache)."""
    W, Uzr, Uh, bias = weights
    steps, width = x.shape[0], x.shape[1]
    h = Uh.shape[-1]
    xs = np.stack([x, batch.flip(x)])
    gates = np.matmul(xs.reshape(2, steps * width, -1), W)
    gates += bias
    gates = gates.reshape(2, steps, width, 3 * h)
    hs = np.zeros((2, steps + 1, width, h))
    for t in range(steps):
        g = gates[:, t]
        h_prev = hs[:, t]
        zr = g[..., : 2 * h]
        zr += h_prev @ Uzr
        zr[...] = _sigmoid(zr)
        z, r, c = g[..., :h], g[..., h : 2 * h], g[..., 2 * h :]
        c += (r * h_prev) @ Uh
        np.tanh(c, out=c)
        hs[:, t + 1] = (1.0 - z) * h_prev + z * c
    out = np.concatenate([hs[0, 1:], batch.flip(hs[1, 1:])], axis=-1)
    cache = _LayerCache(xs, gates, hs, None) if keep else None
    return out, cache


def _layer_backward(
    cache: _LayerCache,
    d_out: np.ndarray,
    weights,
    prefix: str,
    grads: dict[str, np.ndarray],
) -> np.ndarray:
    """BPTT for both directions of one layer.

    d_out is (2, T, B, H), each direction in its own scan order; it is
    used up: once step t has read its slot, the slot keeps r_t * h_{t-1}
    for gUh. Writes the layer's weight gradients into grads and returns
    d xs, shape (2, T, B, in), also in scan order.
    """
    W, Uzr, Uh, _ = weights
    gates, hs = cache.gates, cache.hs
    steps, width, h = hs.shape[1] - 1, hs.shape[2], hs.shape[3]
    UzrT = Uzr.transpose(0, 2, 1)
    UhT = Uh.transpose(0, 2, 1)
    carry = np.zeros((2, width, h))
    for t in range(steps - 1, -1, -1):
        g = gates[:, t]
        z, r, c = g[..., :h], g[..., h : 2 * h], g[..., 2 * h :]
        h_prev = hs[:, t]
        dh = d_out[:, t] + carry
        np.multiply(r, h_prev, out=d_out[:, t])
        da_z = dh * (c - h_prev) * z * (1.0 - z)
        da_h = dh * z * (1.0 - c * c)
        d_rh = da_h @ UhT
        da_r = d_rh * h_prev * r * (1.0 - r)
        carry = dh * (1.0 - z) + d_rh * r
        g[..., :h] = da_z
        g[..., h : 2 * h] = da_r
        g[..., 2 * h :] = da_h
        carry += g[..., : 2 * h] @ UzrT
    rows = steps * width
    da = gates.reshape(2, rows, 3 * h)
    # gradients in the parameters' own (out, in) layout, so each gate's
    # block is a contiguous run of rows
    daT = da.transpose(0, 2, 1)
    gW = daT @ cache.xs.reshape(2, rows, -1)
    gUzr = daT[:, : 2 * h] @ hs[:, :steps].reshape(2, rows, h)
    gUh = daT[:, 2 * h :] @ d_out.reshape(2, rows, h)
    gb = da.sum(axis=1)
    for i, direction in enumerate(("f", "b")):
        pre = f"{prefix}.{direction}."
        for k, gate in enumerate(("z", "r", "h")):
            block = slice(k * h, (k + 1) * h)
            grads[pre + "W" + gate] = gW[i][block]
            grads[pre + "b" + gate] = gb[i][block]
        grads[pre + "Uz"] = gUzr[i][:h]
        grads[pre + "Ur"] = gUzr[i][h:]
        grads[pre + "Uh"] = gUh[i]
    return (da @ W.transpose(0, 2, 1)).reshape(2, steps, width, -1)


def _forward(
    batch: _Batch,
    params: BgruParams,
    hp: Hyperparams,
    train_mode: bool,
    rng: np.random.Generator | None,
    keep: bool,
) -> tuple[np.ndarray, list]:
    """Top-layer features (T, B, 2H) and, with keep, per-layer caches."""
    p = params.arrays
    current = batch.x
    caches = []
    for layer in range(hp.layers):
        weights = _stacked_weights(p, layer)
        current, cache = _layer_forward(batch, current, weights, keep)
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
    if isinstance(sample, SampleVector):
        if sample.dimension != hp.input_dim:
            raise ModelError(
                f"sample dimension {sample.dimension} != model input "
                f"{hp.input_dim}"
            )
        steps = max(1, min(sample.kept_symbols, sample.capacity))
        return sample.matrix()[:steps]
    return np.asarray(sample, dtype=np.float64)


def forward_batch(
    samples: list[np.ndarray | SampleVector],
    params: BgruParams,
    hp: Hyperparams,
) -> list[ActivationTrace]:
    """Activation traces for samples, in order, in chunks of hp.batch_size.

    The batched inference entry point: it keeps no BPTT caches.
    SampleVector inputs are trimmed to their non-padding timesteps, so
    each trace's final entry is the last meaningful position.
    """
    traces: list[ActivationTrace] = []
    for start in range(0, len(samples), hp.batch_size):
        chunk = samples[start : start + hp.batch_size]
        batch = _Batch.pad([_sample_matrix(s, hp) for s in chunk], hp)
        feat, _ = _forward(batch, params, hp, train_mode=False, rng=None, keep=False)
        _, probs = _head(feat, params.arrays)
        traces += [
            ActivationTrace(outputs=probs[:n, b].copy())
            for b, n in enumerate(batch.lengths)
        ]
    return traces


def bgru_forward(
    sample: np.ndarray | SampleVector,
    params: BgruParams,
    hp: Hyperparams,
) -> ActivationTrace:
    """Activation trace for one sample (matrix or SampleVector)."""
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
    loss reads the activation at each sample's final timestep.
    """
    if not batch:
        raise ModelError("empty batch")
    for idx, (_, label) in enumerate(batch):
        if label not in (0, 1):
            raise ModelError(f"sample {idx}: label must be 0 or 1, got {label!r}")
    p = params.arrays
    padded = _Batch.pad([np.asarray(x, dtype=np.float64) for x, _ in batch], hp)
    labels = np.array([label for _, label in batch], dtype=np.float64)
    feat, caches = _forward(padded, params, hp, train_mode, rng, keep=True)
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

    grads: dict[str, np.ndarray] = {}
    d_head_pre = (prob - labels) * scale  # (B,)
    grads["head.w"] = d_head_pre @ u
    grads["head.b"] = np.array([d_head_pre.sum()])
    da_dense = np.outer(d_head_pre, p["head.w"]) * (1.0 - u * u)
    grads["dense.W"] = da_dense.T @ feat_last
    grads["dense.b"] = da_dense.sum(axis=0)
    # the features are dead once their last steps are read: their buffer
    # becomes the gradient, which is zero but at those steps
    d_current = feat
    d_current[...] = 0.0
    d_current[last] = da_dense @ p["dense.W"]

    h = hp.hidden_dim
    for layer in range(hp.layers - 1, -1, -1):
        weights, cache = caches[layer]
        if cache.mask is not None:
            d_current = d_current * cache.mask
        d_out = np.stack([d_current[..., :h], padded.flip(d_current[..., h:])])
        d_xs = _layer_backward(cache, d_out, weights, f"l{layer}", grads)
        if layer > 0:
            d_current = d_xs[0] + padded.flip(d_xs[1])
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
    seed: int = 0
    samples: int = 0


def _dataset_matrices(
    dataset: list[SampleVector], hp: Hyperparams
) -> list[tuple[np.ndarray, int]]:
    pairs = []
    for i, sample in enumerate(dataset):
        if sample.label not in (0, 1):
            raise ModelError(f"dataset sample {i} has no 0/1 label")
        pairs.append((_sample_matrix(sample, hp), int(sample.label)))
    return pairs


def train(
    dataset: list[SampleVector], hp: Hyperparams
) -> tuple[BgruParams, TrainReport]:
    """Seeded minibatch Adamax training over labeled sample vectors."""
    if not dataset:
        raise ModelError("cannot train on an empty dataset")
    seeds = np.random.SeedSequence(hp.seed).spawn(3)
    params = init_params(hp, seed=seeds[0])
    shuffle_rng = np.random.default_rng(seeds[1])
    dropout_rng = np.random.default_rng(seeds[2])
    state = AdamaxState.fresh(params)
    pairs = _dataset_matrices(dataset, hp)
    report = TrainReport(epochs=hp.epochs, seed=hp.seed, samples=len(pairs))
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
    """(label, probability) for one sample; label 1 iff prob >= threshold."""
    cut = hp.threshold if threshold is None else threshold
    trace = bgru_forward(sample, params, hp)
    prob = trace.final
    return (1 if prob >= cut else 0), prob


@dataclass(frozen=True)
class CriticalToken:
    position: int  # timestep (0-based) of the critical token
    symbol: str
    direction: str  # "vulnerable" | "not-vulnerable"
    delta: float


def explain(
    trace: ActivationTrace, symbols: list[str], delta: float = 0.6
) -> list[CriticalToken]:
    """Tokens whose activation jump crosses +-delta between timesteps.

    A rise of at least delta marks the right-hand token as critical
    toward vulnerable; a fall of at least delta marks it critical
    toward not vulnerable.
    """
    outputs = trace.outputs
    if len(symbols) != len(outputs):
        raise ModelError(
            f"{len(symbols)} symbols vs {len(outputs)} trace steps; "
            "pass the kept (non-padding) symbol window"
        )
    report: list[CriticalToken] = []
    for t in range(len(outputs) - 1):
        jump = float(outputs[t + 1] - outputs[t])
        if jump >= delta:
            report.append(CriticalToken(t + 1, symbols[t + 1], "vulnerable", jump))
        elif jump <= -delta:
            report.append(
                CriticalToken(t + 1, symbols[t + 1], "not-vulnerable", jump)
            )
    return report




# --------------------------------------------------------------------------
# checkpoints
# --------------------------------------------------------------------------

_CKPT_MAGIC = b"BGRU"
_CKPT_VERSION = 1


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
    """Bounds-checked cursor over a checkpoint's bytes."""

    def __init__(self, path: str, data: bytes):
        self.path = path
        self.data = data
        self.offset = 0

    def fail(self, problem: str) -> ModelError:
        return ModelError(
            f"{self.path}: {problem}; re-run the 'train' stage to rewrite it"
        )

    def take(self, count: int, what: str) -> bytes:
        end = self.offset + count
        if end > len(self.data):
            raise self.fail(f"checkpoint truncated inside {what}")
        chunk = self.data[self.offset : end]
        self.offset = end
        return chunk

    def uint(self, fmt: str, what: str) -> int:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))[0]


def load_checkpoint(
    path: str, expect_theta: int | None = None, expect_dim: int | None = None
) -> tuple[BgruParams, int]:
    """Load (params, root_seed).

    Refuses dimension mismatches, and raises ModelError for a
    truncated, oversized or otherwise corrupt file.
    """
    with open(path, "rb") as handle:
        reader = _Reader(path, handle.read())
    if reader.take(len(_CKPT_MAGIC), "the magic number") != _CKPT_MAGIC:
        raise reader.fail("not a checkpoint file")
    header_len = reader.uint("<I", "the header length")
    try:
        header = json.loads(reader.take(header_len, "the header").decode("utf-8"))
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
        count = int(np.prod(shape))
        data = reader.take(8 * count, f"block {key}")
        arrays[key] = np.frombuffer(data, dtype="<f8").reshape(shape).astype(np.float64)
    if reader.offset != len(reader.data):
        raise reader.fail(
            f"{len(reader.data) - reader.offset} trailing bytes after the last block"
        )
    return BgruParams(arrays, hp), seed
