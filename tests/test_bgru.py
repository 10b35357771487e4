"""BGRU forward/backward math, Adamax arithmetic, training behavior."""

import dataclasses
import json

import numpy as np
import pytest

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

    def cell(prefix, seq):
        h = [0.0] * 2
        outs = []
        for t in range(len(seq)):
            nh = [0.0, 0.0]
            z = [0.0, 0.0]
            r = [0.0, 0.0]
            for i in range(2):
                az = params[f"{prefix}.bz"][i]
                ar = params[f"{prefix}.br"][i]
                for j in range(3):
                    az += params[f"{prefix}.Wz"][i][j] * seq[t][j]
                    ar += params[f"{prefix}.Wr"][i][j] * seq[t][j]
                for j in range(2):
                    az += params[f"{prefix}.Uz"][i][j] * h[j]
                    ar += params[f"{prefix}.Ur"][i][j] * h[j]
                z[i] = sig(az)
                r[i] = sig(ar)
            for i in range(2):
                ah = params[f"{prefix}.bh"][i]
                for j in range(3):
                    ah += params[f"{prefix}.Wh"][i][j] * seq[t][j]
                for j in range(2):
                    ah += params[f"{prefix}.Uh"][i][j] * (r[j] * h[j])
                c = np.tanh(ah)
                nh[i] = (1 - z[i]) * h[i] + z[i] * c
            h = nh
            outs.append(list(h))
        return outs

    fwd = cell("l0.f", [list(row) for row in x])
    bwd_rev = cell("l0.b", [list(row) for row in x[::-1]])
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
    hp = small_hp(layers=2, batch_size=4)  # two chunks, one of them short
    params = init_params(hp)
    samples = [x for x, _ in mixed_batch(hp)]
    batched = forward_batch(samples, params, hp)
    assert len(batched) == len(samples)
    for x, trace in zip(samples, batched):
        single = bgru_forward(x, params, hp)
        assert trace.outputs.shape == (len(x),)
        np.testing.assert_allclose(trace.outputs, single.outputs, rtol=0, atol=1e-12)


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
    a = bgru_forward(x, params, hp, train_mode=False)
    b = bgru_forward(x, params, hp, train_mode=False)
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
    """Separable toy set: class 1 carries a fixed motif at the end."""
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
        samples.append(
            SampleVector(
                values=values,
                theta=L * d,
                dimension=d,
                syvc_id=i,
                kept_symbols=steps,
                anchor_lo=0,
                anchor_hi=1,
                label=label,
                program=f"prog{i % 10}",
            )
        )
    return samples


def test_training_learns_separable_set():
    hp = small_hp(
        input_dim=4, seq_len=8, hidden_dim=8, dense_dim=6,
        epochs=30, batch_size=8, learning_rate=0.01, seed=7,
    )
    data = synthetic_dataset()
    params, report = train(data, hp)
    assert report.epoch_losses[0] > report.epoch_losses[-1]
    correct = sum(predict(s, params, hp)[0] == s.label for s in data)
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


def test_threshold_zero_predicts_all_positive():
    hp = small_hp(input_dim=4, seq_len=8)
    params = init_params(hp)
    data = synthetic_dataset(n=10)
    for sample in data:
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


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda data: data[:-100],  # cut inside the parameter blocks
        lambda data: data[:6],  # cut inside the header length
        lambda data: data[:40],  # cut inside the header
        lambda data: data + b"junk",  # trailing bytes
        lambda data: data[:4] + (10**6).to_bytes(4, "little") + data[8:],  # oversized header
    ],
    ids=["truncated", "cut-length", "cut-header", "trailing", "oversized"],
)
def test_corrupt_checkpoint_raises_model_error(tmp_path, corrupt):
    path, data = saved_checkpoint(tmp_path)
    path.write_bytes(corrupt(data))
    with pytest.raises(ModelError, match="re-run the 'train' stage"):
        load_checkpoint(str(path))


def test_checkpoint_block_shape_mismatch_raises_model_error(tmp_path):
    path, data = saved_checkpoint(tmp_path)
    header_end = 8 + int.from_bytes(data[4:8], "little")
    # the first block is l0.f.Wz, rank 2, shape (5, 4): claim (4, 5) instead
    first_dim = header_end + 1
    patched = bytearray(data)
    patched[first_dim : first_dim + 8] = (4).to_bytes(4, "little") + (5).to_bytes(4, "little")
    path.write_bytes(bytes(patched))
    with pytest.raises(ModelError, match="re-run the 'train' stage"):
        load_checkpoint(str(path))


def test_checkpoint_header_records_every_hyperparameter(tmp_path):
    path, data = saved_checkpoint(tmp_path)
    header = json.loads(data[8 : 8 + int.from_bytes(data[4:8], "little")])
    hp = small_hp(input_dim=4, seq_len=8)
    assert header["hyperparams"] == dataclasses.asdict(hp)
    assert header["theta"] == hp.theta and header["seed"] == 99
