"""BGRU forward/backward math, Adamax arithmetic, training behavior."""

import dataclasses
import itertools
import json
import tracemalloc

import numpy as np
import pytest

from vulnslice import bgru
from vulnslice.bgru import (
    ActivationTrace,
    AdamaxState,
    BgruParams,
    CriticalToken,
    Hyperparams,
    ModelError,
    PRESETS,
    adamax_step,
    bgru_forward,
    explain,
    forward_batch,
    init_params,
    load_checkpoint,
    loss_and_gradients,
    param_keys,
    predict,
    save_checkpoint,
    train,
)
from vulnslice.vectorize import SampleVector


def small_hp(**kwargs):
    base = dict(
        input_dim=4,
        seq_len=10,
        hidden_dim=5,
        layers=1,
        dense_dim=3,
        dropout=0.0,
        batch_size=4,
        epochs=2,
        learning_rate=0.01,
        seed=1,
    )
    base.update(kwargs)
    return Hyperparams(**base)


def test_presets_exist():
    paper = PRESETS["paper"]
    assert (paper.dropout, paper.batch_size, paper.epochs) == (0.2, 16, 20)
    assert (paper.dense_dim, paper.learning_rate) == (256, 0.002)
    assert (paper.hidden_dim, paper.layers) == (500, 2)
    assert paper.theta == 15000
    desk = PRESETS["desk"]
    assert desk.layers == 1 and desk.seq_len <= 100


def test_invalid_hyperparams_rejected():
    with pytest.raises(ModelError):
        small_hp(threshold=0.0)
    with pytest.raises(ModelError):
        small_hp(dropout=1.0)
    with pytest.raises(ModelError):
        small_hp(hidden_dim=0)


def test_zero_parameters_give_half_trace():
    hp = small_hp()
    params = init_params(hp)
    for key in params.arrays:
        params.arrays[key][:] = 0.0
    x = np.random.default_rng(0).standard_normal((6, hp.input_dim))
    trace = bgru_forward(x, params, hp)
    assert np.allclose(trace.outputs, 0.5)


def test_zero_weights_keep_hidden_at_zero():
    # with zero weights the candidate is tanh(0)=0 and h stays 0, so the
    # dense layer sees zeros at every timestep: outputs are constant
    hp = small_hp(layers=2)
    params = init_params(hp)
    for key in params.arrays:
        if key.startswith("l"):
            params.arrays[key][:] = 0.0
    x = np.random.default_rng(1).standard_normal((7, hp.input_dim))
    trace = bgru_forward(x, params, hp)
    assert np.allclose(trace.outputs, trace.outputs[0])


def test_forward_matches_independent_scalar_recurrence():
    """Re-derive the trace with plain-python loops over scalars."""
    hp = small_hp(input_dim=3, hidden_dim=2, dense_dim=2, layers=1)
    params = init_params(hp)
    rng = np.random.default_rng(5)
    T = 4
    x = rng.standard_normal((T, 3))

    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    H = 2

    def gate(name, d, k):
        """Gate k's (out, in) block of direction d in a fused array."""
        return params[f"l0.{name}"][d][k * H : (k + 1) * H]

    def cell(d, seq):
        Wz, Wr, Wh = (gate("W", d, k) for k in range(3))
        Uz, Ur = gate("U", d, 0), gate("U", d, 1)
        bz, br, bh = (gate("b", d, k) for k in range(3))
        Uh = params["l0.Uh"][d]
        h = [0.0] * 2
        outs = []
        for t in range(len(seq)):
            nh = [0.0, 0.0]
            z = [0.0, 0.0]
            r = [0.0, 0.0]
            for i in range(2):
                az = bz[i]
                ar = br[i]
                for j in range(3):
                    az += Wz[i][j] * seq[t][j]
                    ar += Wr[i][j] * seq[t][j]
                for j in range(2):
                    az += Uz[i][j] * h[j]
                    ar += Ur[i][j] * h[j]
                z[i] = sig(az)
                r[i] = sig(ar)
            for i in range(2):
                ah = bh[i]
                for j in range(3):
                    ah += Wh[i][j] * seq[t][j]
                for j in range(2):
                    ah += Uh[i][j] * (r[j] * h[j])
                c = np.tanh(ah)
                nh[i] = (1 - z[i]) * h[i] + z[i] * c
            h = nh
            outs.append(list(h))
        return outs

    fwd = cell(0, [list(row) for row in x])
    bwd_rev = cell(1, [list(row) for row in x[::-1]])
    bwd = bwd_rev[::-1]
    expected = []
    for t in range(T):
        feat = fwd[t] + bwd[t]
        dense = [
            np.tanh(
                sum(params["dense.W"][i][j] * feat[j] for j in range(4))
                + params["dense.b"][i]
            )
            for i in range(2)
        ]
        o = sig(
            sum(params["head.w"][i] * dense[i] for i in range(2))
            + params["head.b"][0]
        )
        expected.append(o)
    trace = bgru_forward(x, params, hp)
    assert np.allclose(trace.outputs, expected, atol=1e-12)


def test_loss_at_half_is_ln2():
    hp = small_hp()
    params = init_params(hp)
    for key in params.arrays:
        params.arrays[key][:] = 0.0
    x = np.zeros((3, hp.input_dim))
    loss, _ = loss_and_gradients([(x, 1)], params, hp)
    assert np.isclose(loss, np.log(2.0))


def test_duplicated_sample_mean_invariance():
    hp = small_hp()
    params = init_params(hp)
    x = np.random.default_rng(2).standard_normal((5, hp.input_dim))
    loss1, grads1 = loss_and_gradients([(x, 1)], params, hp)
    loss2, grads2 = loss_and_gradients([(x, 1), (x, 1)], params, hp)
    assert np.isclose(loss1, loss2)
    for key in grads1:
        assert np.allclose(grads1[key], grads2[key])


def test_bad_label_rejected():
    hp = small_hp()
    params = init_params(hp)
    x = np.zeros((2, hp.input_dim))
    with pytest.raises(ModelError):
        loss_and_gradients([(x, 2)], params, hp)


def test_gradients_match_finite_differences_sampled():
    rng = np.random.default_rng(11)
    for trial in range(3):
        hp = small_hp(
            input_dim=int(rng.integers(2, 5)),
            hidden_dim=int(rng.integers(2, 6)),
            dense_dim=int(rng.integers(2, 5)),
            layers=int(rng.integers(1, 3)),
        )
        params = init_params(hp, seed=trial)
        batch = [
            (rng.standard_normal((int(rng.integers(2, 8)), hp.input_dim)), int(rng.integers(0, 2)))
            for _ in range(2)
        ]
        _, grads = loss_and_gradients(batch, params, hp)
        h = 1e-5
        for key, arr in params.arrays.items():
            flat = arr.reshape(-1)
            for idx in range(0, flat.size, max(1, flat.size // 5)):
                old = flat[idx]
                flat[idx] = old + h
                lp, _ = loss_and_gradients(batch, params, hp)
                flat[idx] = old - h
                lm, _ = loss_and_gradients(batch, params, hp)
                flat[idx] = old
                numeric = (lp - lm) / (2 * h)
                analytic = grads[key].reshape(-1)[idx]
                assert abs(numeric - analytic) <= 1e-4 * max(
                    abs(numeric), abs(analytic), 1e-4
                ), (key, idx)


def mixed_batch(hp):
    """Samples of mixed lengths, the shortest a single timestep."""
    rng = np.random.default_rng(21)
    lengths = (6, 1, 9, 3, 1, 7)
    return [
        (rng.standard_normal((n, hp.input_dim)), i % 2)
        for i, n in enumerate(lengths)
    ]


def test_batched_traces_match_single_sample_traces():
    for layers in (1, 2, 3):
        hp = small_hp(layers=layers, batch_size=4)  # two chunks, one of them filled
        params = init_params(hp)
        samples = [x for x, _ in mixed_batch(hp)]
        batched = forward_batch(samples, params, hp)
        assert len(batched) == len(samples)
        for x, trace in zip(samples, batched):
            single = bgru_forward(x, params, hp)
            assert trace.outputs.shape == (len(x),)
            assert np.array_equal(trace.outputs, single.outputs), (layers, len(x))


def chunk_traces(matrices, params, hp):
    """Each matrix's head probabilities, scored as one padded chunk."""
    batch = bgru._Batch.pad(matrices, hp)
    feat, _ = bgru._forward(batch, params, hp, train_mode=False, rng=None, keep=False)
    _, probs = bgru._head(feat, params.arrays)
    return [probs[:n, b].copy() for b, n in enumerate(batch.lengths)]


def copies_trace(x, params, hp):
    """forward_batch's contract, kept as its oracle: x scored in a chunk
    of batch_size copies of itself."""
    return chunk_traces([x] * hp.batch_size, params, hp)[0]


def in_order_traces(samples, params, hp):
    """The chunk plan forward_batch replaced, kept as its oracle for the
    samples in full chunks: consecutive chunks of batch_size in input
    order, each padded to its longest sample."""
    traces = []
    for start in range(0, len(samples), hp.batch_size):
        traces += chunk_traces(samples[start : start + hp.batch_size], params, hp)
    return traces


def repeating_samples(rng, hp, n):
    """n inputs of 1 to seq_len steps; about half repeat an earlier one."""
    samples = []
    for _ in range(n):
        if samples and rng.random() < 0.5:
            samples.append(samples[int(rng.integers(0, len(samples)))].copy())
        else:
            steps = int(rng.integers(1, hp.seq_len + 1))
            samples.append(rng.standard_normal((steps, hp.input_dim)))
    return samples


def check_against_the_oracles(hp, exact):
    """Every sample's trace against copies_trace, and each sample in a
    full chunk against in_order_traces as well."""
    params = init_params(hp, seed=hp.layers)
    rng = np.random.default_rng(100 * hp.layers + hp.batch_size)
    bs = hp.batch_size
    for n in sorted({1, 2, bs - 1, bs, bs + 1, 3 * bs + 1, 50}):
        samples = repeating_samples(rng, hp, n)
        traces = forward_batch(samples, params, hp)
        assert len(traces) == n
        walk = in_order_traces(samples[: n - n % bs], params, hp)
        for i, (x, trace) in enumerate(zip(samples, traces)):
            wants = [copies_trace(x, params, hp)] + walk[i : i + 1]
            for want in wants:
                if exact:
                    assert np.array_equal(trace.outputs, want), (n, i)
                else:
                    np.testing.assert_allclose(trace.outputs, want, rtol=0, atol=1e-15)


DESK_SHAPE = dict(input_dim=16, hidden_dim=32, dense_dim=16)


@pytest.mark.parametrize("batch_size", [4, 5, 16])
@pytest.mark.parametrize("layers", [1, 2, 3])
def test_forward_batch_equals_the_in_order_walk_bit_for_bit(layers, batch_size):
    check_against_the_oracles(small_hp(layers=layers, batch_size=batch_size), exact=True)


@pytest.mark.parametrize("layers", [1, 2, 3])
def test_forward_batch_is_bit_for_bit_at_the_desk_shapes(layers):
    hp = small_hp(layers=layers, batch_size=16, seq_len=50, **DESK_SHAPE)
    check_against_the_oracles(hp, exact=True)


@pytest.mark.parametrize(
    "layers, batch_size, exact",
    [
        # the head rounds its last width % 4 rows by the column
        pytest.param(1, 5, False, id="1-5"),
        # exact on these samples, though a GEMM of few rows can round a
        # row by the row count
        pytest.param(2, 4, True, id="2-4"),
    ],
)
def test_forward_batch_agrees_where_the_blas_rounds_by_position(layers, batch_size, exact):
    hp = small_hp(layers=layers, batch_size=batch_size, seq_len=50, **DESK_SHAPE)
    check_against_the_oracles(hp, exact)


@pytest.mark.parametrize("batch_size", [4, 5, 16])
def test_forward_batch_scores_each_distinct_input_once(monkeypatch, batch_size):
    hp = small_hp(batch_size=batch_size)
    params = init_params(hp)
    widths = []
    real = bgru._forward

    def counting(batch, *args, **kwargs):
        widths.append(batch.x.shape[1])
        return real(batch, *args, **kwargs)

    monkeypatch.setattr(bgru, "_forward", counting)
    rng = np.random.default_rng(batch_size)
    pool = [rng.standard_normal((int(rng.integers(1, 11)), hp.input_dim)) for _ in range(6)]
    for n in (3, batch_size, 2 * batch_size + 1, 50):
        samples = [pool[int(rng.integers(0, len(pool)))].copy() for _ in range(n)]
        widths.clear()
        traces = forward_batch(samples, params, hp)
        distinct = len({x.tobytes() for x in samples})
        assert widths == [batch_size] * -(-distinct // batch_size)
        # a repeated input's traces are copies, not one shared array
        outputs = [trace.outputs for trace in traces]
        assert not any(
            np.shares_memory(a, b) for a, b in itertools.combinations(outputs, 2)
        )


def test_forward_batch_reads_an_iterator_of_float32_samples_once():
    """Vectors loaded from the store are float32 SampleVectors, which an
    iterator may yield one at a time: their traces are those of the same
    values as float64 matrices in a list, bit for bit."""
    hp = small_hp(batch_size=4)
    params = init_params(hp)
    rng = np.random.default_rng(17)
    matrices = [x.astype(np.float32) for x in repeating_samples(rng, hp, 11)]
    stored = []
    for i, x in enumerate(matrices):
        values = np.zeros(hp.theta, dtype=np.float32)
        values[: x.size] = x.ravel()
        stored.append(SampleVector(values, hp.theta, hp.input_dim, syvc_id=i,
                                   kept_symbols=len(x)))
    read = []

    def once():
        for sample in stored:
            read.append(sample.syvc_id)
            yield sample

    got = forward_batch(once(), params, hp)
    want = forward_batch([x.astype(np.float64) for x in matrices], params, hp)
    assert read == list(range(11))
    for a, b in zip(got, want, strict=True):
        assert a.outputs.tobytes() == b.outputs.tobytes()


def old_sigmoid(x):
    """bgru._sigmoid as it was, clamped to [-60, 60]."""
    return 1.0 / (1.0 + np.exp(-np.minimum(np.maximum(x, -60.0), 60.0)))


def test_sigmoid_without_its_upper_clamp_gives_the_same_bits():
    """Above 60, 1 / (1 + exp(-x)) rounds to exactly 1.0, so the upper
    clamp changed no result: not on 2e6 values around and far past the
    clamp, nor at the edges."""
    rng = np.random.default_rng(60)
    edges = [np.inf, -np.inf, np.nan, 60.0, -60.0, 745.0, -745.0, 1e308, -1e308,
             np.nextafter(60.0, 0.0), np.nextafter(60.0, np.inf), 36.8, 37.0, 0.0, -0.0]
    x = np.concatenate([rng.uniform(-100.0, 100.0, 10**6),
                        rng.standard_normal(10**6) * 1e3, edges])
    assert bgru._sigmoid(x).tobytes() == old_sigmoid(x).tobytes()


def test_a_bad_input_is_named_by_its_index_in_samples():
    hp = small_hp(batch_size=4)
    params = init_params(hp)
    rng = np.random.default_rng(6)
    samples = [rng.standard_normal((3, hp.input_dim)) for _ in range(9)]
    samples[6] = rng.standard_normal((3, 5))
    with pytest.raises(
        ModelError, match=r"^sample 6: shape \(3, 5\) does not match input dimension 4$"
    ):
        forward_batch(samples, params, hp)
    samples[6] = np.zeros((0, hp.input_dim))
    with pytest.raises(ModelError, match=r"^sample 6 has no timesteps$"):
        forward_batch(samples, params, hp)
    # training names a sample by its index in the minibatch
    batch = [(samples[0], 0), (rng.standard_normal((3, 5)), 1)]
    with pytest.raises(ModelError, match=r"^sample 1: shape \(3, 5\)"):
        loss_and_gradients(batch, params, hp)


def test_batched_gradients_equal_mean_of_single_samples():
    hp = small_hp(layers=2)
    params = init_params(hp, seed=4)
    batch = mixed_batch(hp)
    loss, grads = loss_and_gradients(batch, params, hp)
    singles = [loss_and_gradients([pair], params, hp) for pair in batch]
    assert abs(loss - np.mean([s_loss for s_loss, _ in singles])) <= 1e-12
    assert list(grads) == param_keys(hp)
    for key in grads:
        mean = np.mean([s_grads[key] for _, s_grads in singles], axis=0)
        assert grads[key].shape == params.arrays[key].shape
        np.testing.assert_allclose(grads[key], mean, rtol=0, atol=1e-12, err_msg=key)


def test_inference_mode_deterministic_despite_dropout():
    hp = small_hp(layers=2, dropout=0.5)
    params = init_params(hp)
    x = np.random.default_rng(3).standard_normal((6, hp.input_dim))
    a = bgru_forward(x, params, hp)
    b = bgru_forward(x, params, hp)
    assert np.array_equal(a.outputs, b.outputs)


def test_activation_outputs_in_open_interval():
    hp = small_hp(layers=2)
    params = init_params(hp)
    x = np.random.default_rng(4).standard_normal((8, hp.input_dim)) * 3
    trace = bgru_forward(x, params, hp)
    assert np.all(trace.outputs > 0.0) and np.all(trace.outputs < 1.0)


# --------------------------------------------------------------------------
# Adamax
# --------------------------------------------------------------------------


def scalar_params():
    hp = small_hp()
    arrays = {"w": np.array([0.0])}
    return BgruParams(arrays, hp)


def test_adamax_zero_gradient_keeps_params():
    params = scalar_params()
    state = AdamaxState(m={"w": np.zeros(1)}, u={"w": np.zeros(1)})
    for _ in range(5):
        adamax_step(params, {"w": np.zeros(1)}, state, lr=0.002)
    assert params["w"][0] == 0.0


def test_adamax_single_step_closed_form():
    params = scalar_params()
    state = AdamaxState(m={"w": np.zeros(1)}, u={"w": np.zeros(1)})
    adamax_step(params, {"w": np.ones(1)}, state, lr=0.002)
    # m = 0.1, u = 1, delta = -0.002 * (0.1 / (1 - 0.9)) / 1 = -0.002
    assert np.isclose(state.m["w"][0], 0.1)
    assert state.u["w"][0] == 1.0
    assert np.isclose(params["w"][0], -0.002)


def test_adamax_two_steps_match_independent_arithmetic():
    params = scalar_params()
    state = AdamaxState(m={"w": np.zeros(1)}, u={"w": np.zeros(1)})
    adamax_step(params, {"w": np.ones(1)}, state, lr=0.002)
    adamax_step(params, {"w": np.ones(1)}, state, lr=0.002)
    # independent scalar re-derivation
    b1, b2, lr = 0.9, 0.999, 0.002
    m = u = 0.0
    w = 0.0
    for t in (1, 2):
        m = b1 * m + (1 - b1) * 1.0
        u = max(b2 * u, 1.0)
        w -= lr / (1 - b1**t) * m / u
    assert np.isclose(params["w"][0], w)


# --------------------------------------------------------------------------
# training, prediction, explanation
# --------------------------------------------------------------------------


def synthetic_dataset(n=60, d=4, L=8, seed=0):
    """Separable toy set of (sample, label) pairs: class 1 carries a fixed
    motif at the end."""
    rng = np.random.default_rng(seed)
    motif = rng.standard_normal(d) * 2.0
    samples = []
    for i in range(n):
        label = i % 2
        steps = int(rng.integers(4, L + 1))
        x = rng.standard_normal((L, d)) * 0.3
        if label:
            x[steps - 2] = motif
        values = np.zeros(L * d)
        values[: steps * d] = x[:steps].reshape(-1)
        sample = SampleVector(
            values=values,
            theta=L * d,
            dimension=d,
            syvc_id=i,
            kept_symbols=steps,
            program=f"prog{i % 10}",
        )
        samples.append((sample, label))
    return samples


def test_training_learns_separable_set():
    hp = small_hp(
        input_dim=4, seq_len=8, hidden_dim=8, dense_dim=6,
        epochs=30, batch_size=8, learning_rate=0.01, seed=7,
    )
    data = synthetic_dataset()
    params, report = train(data, hp)
    assert report.epoch_losses[0] > report.epoch_losses[-1]
    correct = sum(predict(s, params, hp)[0] == label for s, label in data)
    assert correct >= int(0.95 * len(data))


def test_training_deterministic_same_seed():
    hp = small_hp(input_dim=4, seq_len=8, epochs=3, seed=13)
    data = synthetic_dataset(n=20)
    params_a, report_a = train(data, hp)
    params_b, report_b = train(data, hp)
    assert report_a.epoch_losses == report_b.epoch_losses
    for key in params_a.arrays:
        assert np.array_equal(params_a.arrays[key], params_b.arrays[key])


def test_empty_dataset_rejected():
    with pytest.raises(ModelError):
        train([], small_hp())


def test_a_pair_without_a_0_1_label_is_rejected():
    hp = small_hp(input_dim=4, seq_len=8)
    (sample, _), *rest = synthetic_dataset(n=4)
    with pytest.raises(ModelError, match="dataset sample 0 has no 0/1 label"):
        train([(sample, None), *rest], hp)


def test_threshold_zero_predicts_all_positive():
    hp = small_hp(input_dim=4, seq_len=8)
    params = init_params(hp)
    data = synthetic_dataset(n=10)
    for sample, _ in data:
        label, prob = predict(sample, params, hp, threshold=1e-12)
        assert label == 1 and prob > 0


def test_explain_rising_jump_marks_vulnerable():
    trace = ActivationTrace(outputs=np.array([0.2, 0.85]))
    report = explain(trace, ["a", "b"], delta=0.6)
    assert report == [CriticalToken(1, "b", "vulnerable", pytest.approx(0.65))]


def test_explain_constant_trace_empty():
    trace = ActivationTrace(outputs=np.array([0.4, 0.4, 0.4]))
    assert explain(trace, ["a", "b", "c"]) == []


def test_explain_falling_jump_marks_not_vulnerable():
    trace = ActivationTrace(outputs=np.array([0.9, 0.1]))
    report = explain(trace, ["a", "b"], delta=0.6)
    assert len(report) == 1
    assert report[0].direction == "not-vulnerable"
    assert report[0].position == 1


def test_explain_rounds_each_delta_and_compares_the_unrounded_jump():
    # jumps of +0.7123456789, -0.6123456789 and +0.5999996: the last one
    # rounds to 0.6 but is below delta=0.6, so it is not critical
    trace = ActivationTrace(outputs=np.array([0.0, 0.7123456789, 0.1, 0.6999996]))
    report = explain(trace, ["a", "b", "c", "d"], delta=0.6)
    assert report == [
        CriticalToken(1, "b", "vulnerable", 0.712346),
        CriticalToken(2, "c", "not-vulnerable", -0.612346),
    ]
    assert [token.delta for token in report] == [round(token.delta, 6) for token in report]


def test_explain_length_mismatch_raises():
    trace = ActivationTrace(outputs=np.array([0.5, 0.5]))
    with pytest.raises(ModelError):
        explain(trace, ["only-one"])


def test_checkpoint_roundtrip_and_dimension_guard(tmp_path):
    hp = small_hp(input_dim=4, seq_len=8)
    params = init_params(hp)
    path = str(tmp_path / "model.bin")
    save_checkpoint(path, params, root_seed=99)
    loaded, seed = load_checkpoint(path, expect_theta=hp.theta, expect_dim=4)
    assert seed == 99
    for key in param_keys(hp):
        assert np.array_equal(loaded.arrays[key], params.arrays[key])
    with pytest.raises(ModelError):
        load_checkpoint(path, expect_theta=hp.theta + 4)
    with pytest.raises(ModelError):
        load_checkpoint(path, expect_dim=5)


def saved_checkpoint(tmp_path):
    hp = small_hp(input_dim=4, seq_len=8)
    path = tmp_path / "model.bin"
    save_checkpoint(str(path), init_params(hp), root_seed=99)
    return path, path.read_bytes()


def claiming_hidden_dim(data, hidden_dim):
    """The checkpoint with its header and its first block's shape
    claiming ``hidden_dim``, and its blocks' bytes as they were."""
    header_end = 8 + int.from_bytes(data[4:8], "little")
    header = json.loads(data[8:header_end])
    header["hyperparams"]["hidden_dim"] = hidden_dim
    blob = json.dumps(header, sort_keys=True).encode()
    # the first block is l0.W, rank 3, shape (2, 3 * hidden_dim, input_dim)
    second_dim = header_end + 1 + 4
    return (data[:4] + len(blob).to_bytes(4, "little") + blob + data[header_end:second_dim]
            + (3 * hidden_dim).to_bytes(4, "little") + data[second_dim + 4:])


def peak_of(function):
    """The tracemalloc peak of calling ``function``, and what it returned or raised."""
    tracemalloc.start()
    try:
        try:
            result = function()
        except Exception as exc:
            result = exc
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "corrupt, problem",
    [
        (lambda data: data[:-100], "truncated inside block dense.W"),
        (lambda data: data[:6], "truncated inside the header length"),
        (lambda data: data[:40], "truncated inside the header"),
        (lambda data: data + b"junk", "4 trailing bytes after the last block"),
        # the header claims more bytes than the file holds
        (lambda data: data[:4] + (10**6).to_bytes(4, "little") + data[8:],
         "truncated inside the header"),
        # blocks of 192 MB claimed: refused before any is allocated
        (lambda data: claiming_hidden_dim(data, 10**6), "truncated inside block l0.W"),
    ],
    ids=["truncated", "cut-length", "cut-header", "trailing", "oversized", "huge-block"],
)
def test_corrupt_checkpoint_raises_model_error(tmp_path, corrupt, problem):
    path, data = saved_checkpoint(tmp_path)
    path.write_bytes(corrupt(data))
    peak, error = peak_of(lambda: load_checkpoint(str(path)))
    assert isinstance(error, ModelError)
    assert problem in str(error)
    # one error, reported once: never wrapped in another
    assert str(error).count("re-run the 'train' stage") == 1
    assert peak < 2**20


def test_loading_a_checkpoint_holds_one_copy_of_its_parameters(tmp_path):
    """Each block is read straight into its array: no copy of the file's
    bytes, or of a block's, is held besides."""
    hp = dataclasses.replace(PRESETS["desk"], hidden_dim=256, dense_dim=64)
    path = tmp_path / "model.bin"
    save_checkpoint(str(path), init_params(hp), root_seed=99)
    peak, (params, _) = peak_of(lambda: load_checkpoint(str(path)))
    assert params.hp == hp
    assert peak < 1.25 * path.stat().st_size


def test_checkpoint_block_shape_mismatch_raises_model_error(tmp_path):
    path, data = saved_checkpoint(tmp_path)
    header_end = 8 + int.from_bytes(data[4:8], "little")
    # the first block is l0.W, rank 3, shape (2, 15, 4): claim (2, 4, 15) instead
    second_dim = header_end + 1 + 4
    patched = bytearray(data)
    patched[second_dim : second_dim + 8] = (4).to_bytes(4, "little") + (15).to_bytes(4, "little")
    path.write_bytes(bytes(patched))
    with pytest.raises(ModelError, match="re-run the 'train' stage"):
        load_checkpoint(str(path))


def test_checkpoint_of_an_older_version_names_train(tmp_path):
    """Version 1 stored 18 per-gate arrays a layer; no converter reads it."""
    path, data = saved_checkpoint(tmp_path)
    header_end = 8 + int.from_bytes(data[4:8], "little")
    header = json.loads(data[8:header_end])
    assert header["version"] == 2 and header["keys"][:4] == ["l0.W", "l0.U", "l0.Uh", "l0.b"]
    blob = json.dumps({**header, "version": 1}, sort_keys=True).encode()
    path.write_bytes(data[:4] + len(blob).to_bytes(4, "little") + blob + data[header_end:])
    with pytest.raises(ModelError, match="unsupported checkpoint version 1; re-run the 'train' stage"):
        load_checkpoint(str(path))


def test_checkpoint_header_records_every_hyperparameter(tmp_path):
    path, data = saved_checkpoint(tmp_path)
    header = json.loads(data[8 : 8 + int.from_bytes(data[4:8], "little")])
    hp = small_hp(input_dim=4, seq_len=8)
    assert header["hyperparams"] == dataclasses.asdict(hp)
    assert header["theta"] == hp.theta and header["seed"] == 99
