"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a single PASS line (visible with ``pytest -s`` or on
failure); a failing assertion is the corresponding FAIL. Criteria
involving randomness use fixed seeds and bounded wall-clock budgets.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pytest

from vulnslice.bgru import Hyperparams, init_params, loss_and_gradients, predict, train
from vulnslice.candidates import (
    ALL_KINDS,
    CharacteristicSet,
    extract_syvcs,
)
from vulnslice.cli import main as cli_main
from vulnslice.data import handcrafted_dir, mini_corpus_manifest, running_example_path
from vulnslice.embeddings import hash_table
from vulnslice.evaluation import ConfusionCounts, compute_metrics
from vulnslice.frontend import (
    IDENTIFIER,
    OPERATOR,
    ROLE_CALLEE,
    ROLE_DECLARED,
    load_program,
    parse_source,
)
from vulnslice.graphs import (
    build_call_graph,
    build_cfg,
    build_pdgs,
    compute_control_deps,
    compute_data_deps,
    extract_def_use,
)
from vulnslice.labeling import (
    MARK_DELETED,
    label_sevc,
    mark_lines,
    parse_diff,
)
from vulnslice.slicing import (
    assemble_sevc,
    backward_slice,
    forward_slice,
    interprocedural_slices,
)
from vulnslice.vectorize import EncodingError, SampleVector, SymbolicSeVC, encode

from oracles import (
    oracle_backward_slice,
    oracle_control_deps,
    oracle_data_deps,
    oracle_forward_slice,
    random_pdg,
    random_structured_source,
)
from test_labeling import make_sevc


def report(line: str) -> None:
    print(f"\n{line}")


# --------------------------------------------------------------------------
# criterion 1: SyVC extraction equals brute-force rule application
# --------------------------------------------------------------------------


def brute_force_syvcs(model, cset):
    """Independent statement-level application of the four textual rules."""
    found = set()
    assign_ops = {"="}
    for fn in model.functions:
        for st in fn.all_statements():
            texts = [t.text for t in st.tokens]
            if "FC" in cset.enabled:
                for i, tok in enumerate(st.tokens):
                    if tok.role == ROLE_CALLEE and tok.text in cset.fc_calls:
                        found.add(("FC", st.id, (i, i + 1)))
            if st.kind == "declaration":
                has_brackets = "[" in texts and "]" in texts
                has_star = "*" in texts
                for i, tok in enumerate(st.tokens):
                    if tok.role != ROLE_DECLARED:
                        continue
                    if "AU" in cset.enabled and has_brackets:
                        found.add(("AU", st.id, (i, i + 1)))
                    if "PU" in cset.enabled and has_star:
                        found.add(("PU", st.id, (i, i + 1)))
            if "AE" in cset.enabled and st.kind in ("expression", "call"):
                eq = next(
                    (
                        i
                        for i, t in enumerate(st.tokens)
                        if t.kind == OPERATOR and t.text in assign_ops
                    ),
                    None,
                )
                if eq is not None and any(
                    t.kind == IDENTIFIER for t in st.tokens[eq + 1 :]
                ):
                    span_end = len(st.tokens)
                    if texts and texts[-1] == ";":
                        span_end -= 1
                    found.add(("AE", st.id, (0, span_end)))
    return found


def test_criterion_1_syvc_oracle_on_handcrafted_corpus():
    start = time.time()
    corpus = handcrafted_dir()
    paths = sorted(
        os.path.join(corpus, name)
        for name in os.listdir(corpus)
        if name.endswith(".c")
    )
    model = load_program(paths, name="handcrafted")
    assert model.diagnostics == []
    assert len(model.functions) == 30
    cset = CharacteristicSet()
    got = {(s.kind, s.statement_id, s.span) for s in extract_syvcs(model, cset)}
    want = brute_force_syvcs(model, cset)
    missing = want - got
    extra = got - want
    assert not missing and not extra, (sorted(missing), sorted(extra))
    elapsed = time.time() - start
    assert elapsed < 5.0
    report(
        f"ACCEPTANCE 1 PASS: {len(got)} SyVCs over 30 functions match the "
        f"brute-force enumeration exactly ({elapsed:.2f}s < 5s)"
    )


# --------------------------------------------------------------------------
# criterion 2: dependence edges equal exhaustive path oracles
# --------------------------------------------------------------------------


def test_criterion_2_dependence_oracles_300_cfgs():
    start = time.time()
    rng = np.random.default_rng(20240)
    checked = 0
    control_edges = data_edges = 0
    while checked < 300:
        source = random_structured_source(rng, max_nodes=6)
        model = parse_source(source)
        fn = model.functions[0]
        cfg = build_cfg(fn)
        if len(cfg.nodes) > 8 + 2:  # statements + entry/exit budget
            continue
        checked += 1
        facts = extract_def_use(fn)
        got_control = {(e.src, e.dst) for e in compute_control_deps(cfg)}
        want_control = oracle_control_deps(cfg)
        assert got_control == want_control, source
        got_data = {
            (e.src, e.dst, e.variable) for e in compute_data_deps(cfg, facts)
        }
        want_data = oracle_data_deps(cfg, facts)
        assert got_data == want_data, source
        control_edges += len(got_control)
        data_edges += len(got_data)
    elapsed = time.time() - start
    assert elapsed < 60.0
    report(
        f"ACCEPTANCE 2 PASS: 300 structured CFGs, 0 discrepancies "
        f"({data_edges} data / {control_edges} control edges checked, "
        f"{elapsed:.1f}s < 60s)"
    )


# --------------------------------------------------------------------------
# criterion 3: slices equal closures; interprocedural equals inline oracle
# --------------------------------------------------------------------------

FIXTURE_A = {
    "source": open(running_example_path()).read(),
    "pick": lambda s: s.kind == "PU" and s.anchor_text == "data",
    "inlined": """void func_inlined()
{
    char dataBuffer[100];
    char *data = dataBuffer;
    memset(data, 'A', 100 - 1);
    data[100 - 1] = '\\0';
    char *line = data;
    if (line != NULL)
        printf("%s\\n", line);
}
""",
    "anchor_line": 4,
    "mapping": {
        3: [("func", 9)],
        4: [("func", 10)],
        5: [("func", 11)],
        6: [("func", 12)],
        7: [("func", 13), ("printLine", 1)],
        8: [("printLine", 3)],
        9: [("printLine", 4)],
    },
}

FIXTURE_B = {
    "source": """void scale(int n, int k)
{
    int r = 0;
    r = n * k;
    printf("%d", r);
}
void driver()
{
    int a = 2;
    int b = 21;
    scale(a, b);
}
""",
    "pick": lambda s: s.kind == "AE" and "n * k" in s.anchor_text,
    "inlined": """void driver_inlined()
{
    int a = 2;
    int b = 21;
    int n = a;
    int k = b;
    int r = 0;
    r = n * k;
    printf("%d", r);
}
""",
    "anchor_line": 8,
    "mapping": {
        3: [("driver", 9)],
        4: [("driver", 10)],
        5: [("driver", 11), ("scale", 1)],
        6: [("driver", 11), ("scale", 1)],
        7: [("scale", 3)],
        8: [("scale", 4)],
        9: [("scale", 5)],
    },
}

FIXTURE_C = {
    "source": """int pickSize(int flag)
{
    int sz = 16;
    if (flag > 0)
        sz = 64;
    return sz;
}
void build(int flag)
{
    int cap = pickSize(flag);
    char *buf = malloc(cap);
    buf[0] = 'A';
}
""",
    "pick": lambda s: s.kind == "FC" and s.anchor_text == "malloc",
    "inlined": """void build_inlined(int flag)
{
    int p_flag = flag;
    int sz = 16;
    if (p_flag > 0)
        sz = 64;
    int cap = sz;
    char *buf = malloc(cap);
    buf[0] = 'A';
}
""",
    "anchor_line": 8,
    "mapping": {
        1: [("build", 8)],
        3: [("build", 10), ("pickSize", 1)],
        4: [("pickSize", 3)],
        5: [("pickSize", 4)],
        6: [("pickSize", 5)],
        7: [("pickSize", 6), ("build", 10)],
        8: [("build", 11)],
        9: [("build", 12)],
    },
}


# a for without a condition, left by its break, in the callee
FIXTURE_D = {
    "source": """int waitLen(char *s)
{
    int n = 0;
    for (;;)
    {
        if (s[n] == 0)
            break;
        n = n + 1;
    }
    return n;
}
void copy(char *s)
{
    char buf[8];
    int len = waitLen(s);
    memcpy(buf, s, len);
}
""",
    "pick": lambda s: s.kind == "FC" and s.anchor_text == "memcpy",
    "inlined": """void copy_inlined(char *s)
{
    char buf[8];
    char *p_s = s;
    int n = 0;
    for (;;)
    {
        if (p_s[n] == 0)
            break;
        n = n + 1;
    }
    int len = n;
    memcpy(buf, s, len);
}
""",
    "anchor_line": 13,
    "mapping": {
        1: [("copy", 12)],
        3: [("copy", 14)],
        4: [("copy", 15), ("waitLen", 1)],
        5: [("waitLen", 3)],
        8: [("waitLen", 6)],
        9: [("waitLen", 7)],
        10: [("waitLen", 8)],
        12: [("waitLen", 10), ("copy", 15)],
        13: [("copy", 16)],
    },
}

def interprocedural_sevc(source, pick, name="fixture"):
    model = parse_source(source)
    model.name = name
    syvcs = [s for s in extract_syvcs(model, CharacteristicSet()) if pick(s)]
    assert len(syvcs) == 1
    pdgs = build_pdgs(model)
    call_graph = build_call_graph(model)
    slice_ = interprocedural_slices(model, call_graph, pdgs, syvcs[0])
    return assemble_sevc(model, slice_, syvcs[0], call_graph)


def inline_oracle_members(fixture):
    """Slice the hand-inlined twin intraprocedurally, map lines back."""
    model = parse_source(fixture["inlined"])
    fn = model.functions[0]
    pdgs = build_pdgs(model)
    pdg = pdgs[0]
    anchor = next(
        st.id
        for st in fn.all_statements()
        if st.line_first == fixture["anchor_line"]
    )
    fwd = set(forward_slice(pdg, anchor))
    bwd = set(backward_slice(pdg, anchor))
    lines = {
        st.line_first
        for st in fn.all_statements()
        if st.id in (fwd | bwd)
    }
    mapped = set()
    for line in lines:
        assert line in fixture["mapping"], f"unmapped inlined line {line}"
        mapped.update(fixture["mapping"][line])
    return mapped


def test_criterion_3_slice_oracles():
    start = time.time()
    rng = np.random.default_rng(31337)
    for _ in range(200):
        pdg = random_pdg(rng, max_nodes=12)
        anchor = int(rng.choice([n for n in pdg.nodes if n != pdg.exit]))
        assert set(forward_slice(pdg, anchor)) == oracle_forward_slice(pdg, anchor)
        assert set(backward_slice(pdg, anchor)) == oracle_backward_slice(
            pdg, anchor
        )
    fixtures = {"A": FIXTURE_A, "B": FIXTURE_B, "C": FIXTURE_C, "D": FIXTURE_D}
    for label, fixture in fixtures.items():
        sevc = interprocedural_sevc(fixture["source"], fixture["pick"], label)
        got = {(s.function, s.line) for s in sevc.statements}
        want = inline_oracle_members(fixture)
        assert got == want, (label, sorted(got), sorted(want))
    elapsed = time.time() - start
    report(
        f"ACCEPTANCE 3 PASS: 200 random PDG slices match transitive "
        f"closures; 4 interprocedural fixtures match the inline-then-slice "
        f"oracle ({elapsed:.1f}s)"
    )


# --------------------------------------------------------------------------
# criterion 4: running-example fidelity
# --------------------------------------------------------------------------

# Hand-drawn dependence edges of the bundled two-function program
# ((function, line) pairs; "data"/"control" as drawn):
RUNNING_EDGES = [
    (("func", 9), ("func", 10), "data"),  # dataBuffer
    (("func", 10), ("func", 11), "data"),  # data -> memset
    (("func", 10), ("func", 12), "data"),  # data -> element write
    (("func", 10), ("func", 13), "data"),  # data -> printLine call
    (("func", 12), ("func", 13), "data"),  # element write feeds the call
    (("printLine", 1), ("printLine", 3), "data"),  # line param -> guard
    (("printLine", 1), ("printLine", 4), "data"),  # line param -> printf
    (("printLine", 3), ("printLine", 4), "control"),
]
# the call binds func:13's argument to printLine's parameter (line 1)
RUNNING_CALL_BINDINGS = [(("func", 13), ("printLine", 1))]


def test_criterion_4_running_example_fidelity():
    source = open(running_example_path()).read()
    sevc = interprocedural_sevc(
        source, lambda s: s.kind == "PU" and s.anchor_text == "data", "running"
    )
    rows = [(s.function, s.line) for s in sevc.statements]
    # every func statement precedes every printLine statement
    func_positions = [i for i, (f, _) in enumerate(rows) if f == "func"]
    print_positions = [i for i, (f, _) in enumerate(rows) if f == "printLine"]
    assert func_positions and print_positions
    assert max(func_positions) < min(print_positions)
    # the SeVC contains exactly the statements connected to the anchor
    # through the hand-drawn edges (plus call bindings), both directions
    anchor = ("func", 10)
    adjacency: dict[tuple, set[tuple]] = {}
    for a, b, _ in RUNNING_EDGES:
        adjacency.setdefault(a, set()).add(b)
        adjacency.setdefault(b, set()).add(a)
    for a, b in RUNNING_CALL_BINDINGS:
        adjacency.setdefault(a, set()).add(b)
        adjacency.setdefault(b, set()).add(a)
    connected = {anchor}
    frontier = [anchor]
    while frontier:
        for nxt in adjacency.get(frontier.pop(), ()):
            if nxt not in connected:
                connected.add(nxt)
                frontier.append(nxt)
    assert set(rows) == connected, (sorted(rows), sorted(connected))
    report(
        "ACCEPTANCE 4 PASS: running-example SeVC keeps func before "
        f"printLine and covers all {len(connected)} hand-connected "
        "statements"
    )


# --------------------------------------------------------------------------
# criterion 5: encoding laws over 1,000 random configurations
# --------------------------------------------------------------------------


def test_criterion_5_encoding_laws_quickcheck():
    start = time.time()
    rng = np.random.default_rng(555)
    tables = {}
    checked = 0
    truncated = 0
    for _ in range(1000):
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
        n = len(symbols)
        sym = SymbolicSeVC(0, symbols, b, b + a)
        table = tables.setdefault(d, hash_table(d, seed=5))
        try:
            vec = encode(sym, table, theta)
        except EncodingError:
            # legal only when the anchor truly cannot survive its branch
            assert n > capacity
            if 2 * f < capacity:
                assert n - capacity > b
            elif 2 * b < capacity:
                assert b + a > capacity
            else:
                e = n - capacity
                assert (e + 1) // 2 > b or e // 2 > f
            continue
        checked += 1
        # length law
        assert vec.values.shape == (theta,)
        # padding tail is exactly zeros
        assert np.all(vec.values[vec.kept_symbols * d :] == 0.0)
        if n <= capacity:
            assert vec.kept_symbols == n
            continue
        truncated += 1
        # branch selection at symbol granularity
        if 2 * f < capacity:
            window = symbols[n - capacity :]
        elif 2 * b < capacity:
            window = symbols[:capacity]
        else:
            e = n - capacity
            window = symbols[(e + 1) // 2 : n - e // 2]
        expected = np.concatenate([table.lookup(s) for s in window])
        assert np.array_equal(vec.values[: len(window) * d], expected)
        # anchor retention
        assert all(f"a{i}" in window for i in range(a))
    elapsed = time.time() - start
    assert elapsed < 10.0
    report(
        f"ACCEPTANCE 5 PASS: encoding laws hold on {checked} encodable "
        f"configurations ({truncated} truncated) out of 1000 "
        f"({elapsed:.1f}s < 10s)"
    )


# --------------------------------------------------------------------------
# criterion 6: gradients vs central finite differences
# --------------------------------------------------------------------------


def batch_loss_via_forward(batch, params, hp):
    """Mean BCE computed from plain forward traces (no backward code)."""
    from vulnslice.bgru import bgru_forward

    total = 0.0
    for x, label in batch:
        prob = bgru_forward(x, params, hp).final
        total += -(
            label * np.log(prob) + (1 - label) * np.log(1.0 - prob)
        ) / len(batch)
    return total


def test_criterion_6_gradient_check_20_instances():
    start = time.time()
    rng = np.random.default_rng(66)
    h = 1e-5
    worst = 0.0
    for trial in range(20):
        hp = Hyperparams(
            input_dim=int(rng.integers(2, 7)),
            seq_len=10,
            hidden_dim=int(rng.integers(2, 9)),
            layers=int(rng.integers(1, 3)),
            dense_dim=int(rng.integers(2, 7)),
            dropout=0.0,
            batch_size=2,
            epochs=1,
            learning_rate=0.01,
            seed=trial,
        )
        params = init_params(hp)
        batch = [
            (
                rng.standard_normal((int(rng.integers(2, 11)), hp.input_dim)),
                int(rng.integers(0, 2)),
            )
            for _ in range(2)
        ]
        loss, grads = loss_and_gradients(batch, params, hp)
        assert np.isclose(loss, batch_loss_via_forward(batch, params, hp))
        for key, arr in params.arrays.items():
            flat = arr.reshape(-1)
            grad_flat = grads[key].reshape(-1)
            for idx in range(flat.size):
                old = flat[idx]
                flat[idx] = old + h
                lp = batch_loss_via_forward(batch, params, hp)
                flat[idx] = old - h
                lm = batch_loss_via_forward(batch, params, hp)
                flat[idx] = old
                numeric = (lp - lm) / (2 * h)
                analytic = grad_flat[idx]
                scale = max(abs(numeric), abs(analytic), 1e-4)
                rel = abs(numeric - analytic) / scale
                worst = max(worst, rel)
                assert rel <= 1e-4, (key, idx, numeric, analytic)
    elapsed = time.time() - start
    assert elapsed < 60.0
    report(
        f"ACCEPTANCE 6 PASS: 20 instances, every parameter gradient within "
        f"1e-4 of central differences (worst {worst:.2e}, {elapsed:.1f}s < 60s)"
    )


# --------------------------------------------------------------------------
# criterion 7: learning sanity on a separable synthetic set
# --------------------------------------------------------------------------


def separable_dataset(n=200, d=4, L=10, seed=77):
    rng = np.random.default_rng(seed)
    motif = np.array([2.5, -2.5, 2.5, -2.5])
    samples = []
    for i in range(n):
        label = i % 2
        steps = int(rng.integers(5, L + 1))
        x = rng.standard_normal((L, d)) * 0.25
        if label:
            x[steps - 2] = motif + rng.standard_normal(d) * 0.05
        values = np.zeros(L * d)
        values[: steps * d] = x[:steps].reshape(-1)
        sample = SampleVector(
            values=values,
            theta=L * d,
            dimension=d,
            syvc_id=i,
            kept_symbols=steps,
            program=f"p{i % 20}",
        )
        samples.append((sample, label))
    return samples


def test_criterion_7_learning_sanity():
    start = time.time()
    data = separable_dataset()
    hp = Hyperparams(
        input_dim=4,
        seq_len=10,
        hidden_dim=8,
        layers=1,
        dense_dim=8,
        dropout=0.0,
        batch_size=16,
        epochs=40,
        learning_rate=0.01,
        seed=7,
    )
    assert hp.epochs <= 200
    params, train_report = train(data, hp)
    # loss strictly decreases over the first five epochs
    losses = train_report.epoch_losses[:5]
    assert all(b < a for a, b in zip(losses, losses[1:])), losses
    preds = [predict(s, params, hp)[0] for s, _ in data]
    labels = [label for _, label in data]
    tp = sum(1 for p, l in zip(preds, labels) if p == 1 and l == 1)
    fp = sum(1 for p, l in zip(preds, labels) if p == 1 and l == 0)
    fn = sum(1 for p, l in zip(preds, labels) if p == 0 and l == 1)
    f1 = 2 * tp / (2 * tp + fp + fn)
    assert f1 >= 0.95, f1
    params_again, _ = train(data, hp)
    for key in params.arrays:
        assert np.array_equal(params.arrays[key], params_again.arrays[key])
    elapsed = time.time() - start
    assert elapsed < 300.0
    report(
        f"ACCEPTANCE 7 PASS: separable set reaches F1={f1:.3f} >= 0.95 in "
        f"{hp.epochs} epochs; same-seed retrain bit-identical "
        f"({elapsed:.0f}s < 300s)"
    )


# --------------------------------------------------------------------------
# criterion 8: end-to-end desk-scale run on the bundled mini corpus
# --------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [101, 303, 606])
def test_criterion_8_end_to_end_mini_corpus(tmp_path, seed):
    start = time.time()
    out = tmp_path / f"run{seed}"
    code = cli_main(
        [
            "pipeline",
            "--manifest",
            mini_corpus_manifest(),
            "--out",
            str(out),
            "--seed",
            str(seed),
        ]
    )
    assert code in (0, 1)
    metrics = json.loads((out / "metrics.json").read_text())
    f1 = metrics["metrics"]["F1"]
    assert f1 is not None and f1 >= 0.80, metrics
    elapsed = time.time() - start
    assert elapsed < 900.0  # per-seed share of the 15-minute budget
    report(
        f"ACCEPTANCE 8 PASS (seed {seed}): held-out F1={f1:.3f} >= 0.80 on "
        f"the mini corpus ({elapsed:.0f}s)"
    )


# --------------------------------------------------------------------------
# criterion 9: metrics vs independent recomputation
# --------------------------------------------------------------------------


def test_criterion_9_metrics_oracle():
    counts = ConfusionCounts(tp=8, fn=2, fp=2, tn=8)
    worked = compute_metrics(counts)
    assert worked.fpr == 0.2
    assert worked.fnr == 0.2
    assert worked.accuracy == 0.8
    assert worked.precision == 0.8
    assert worked.f1 == pytest.approx(0.8, abs=0)
    rng = np.random.default_rng(999)
    for _ in range(1000):
        tp, fp, tn, fn = (int(v) for v in rng.integers(0, 200, size=4))
        got = compute_metrics(ConfusionCounts(tp, fp, tn, fn)).as_dict()
        # independent recomputation, plain python arithmetic
        want = {
            "FPR": fp / (fp + tn) if fp + tn else None,
            "FNR": fn / (tp + fn) if tp + fn else None,
            "A": (tp + tn) / (tp + fp + tn + fn) if tp + fp + tn + fn else None,
            "P": tp / (tp + fp) if tp + fp else None,
        }
        if want["P"] is None or want["FNR"] is None:
            want["F1"] = None
        else:
            recall = 1 - want["FNR"]
            want["F1"] = (
                2 * want["P"] * recall / (want["P"] + recall)
                if want["P"] + recall > 0
                else None
            )
        for key, expected in want.items():
            if expected is None:
                assert got[key] is None, key
            else:
                assert got[key] == pytest.approx(expected, rel=1e-12), key
    report(
        "ACCEPTANCE 9 PASS: worked confusion example exact; 1000 random "
        "counts match the independent recomputation"
    )


# --------------------------------------------------------------------------
# criterion 10: diff labeling fixtures vs hand-assigned ground truth
# --------------------------------------------------------------------------


def diff_fixture_cases():
    """10 diff fixtures with hand-assigned expectations."""
    cases = []

    # 1. plain deletion, SeVC contains the line -> 1
    cases.append(
        dict(
            name="delete-hit",
            diff="--- a/f.c\n+++ b/f.c\n@@ -4,3 +4,2 @@\n keep\n-gets(buf);\n tail\n",
            file="f.c",
            sevc_lines=[5],
            expect=(1, False),
        )
    )
    # 2. plain deletion, SeVC elsewhere -> 0
    cases.append(
        dict(
            name="delete-miss",
            diff="--- a/f.c\n+++ b/f.c\n@@ -4,3 +4,2 @@\n keep\n-gets(buf);\n tail\n",
            file="f.c",
            sevc_lines=[2],
            expect=(0, False),
        )
    )
    # 3. modification (delete + different add) -> deleted-or-modified -> 1
    cases.append(
        dict(
            name="modify",
            diff=(
                "--- a/f.c\n+++ b/f.c\n@@ -7,3 +7,3 @@\n keep\n"
                "-strcpy(dst, src);\n+strncpy(dst, src, 8);\n tail\n"
            ),
            file="f.c",
            sevc_lines=[8],
            expect=(1, False),
        )
    )
    # 4. moved line in a known-vulnerable file -> 1 + needs-review
    cases.append(
        dict(
            name="moved",
            diff=(
                "--- a/f.c\n+++ b/f.c\n@@ -3,5 +3,5 @@\n keep\n-x = 1;\n mid\n"
                "+x = 1;\n tail\n"
            ),
            file="f.c",
            sevc_lines=[4],
            expect=(1, True),
        )
    )
    # 5. whitespace-normalized move still counts as a move
    cases.append(
        dict(
            name="moved-whitespace",
            diff=(
                "--- a/f.c\n+++ b/f.c\n@@ -3,5 +3,5 @@\n keep\n-   x = 1;\n mid\n"
                "+x = 1;\n tail\n"
            ),
            file="f.c",
            sevc_lines=[4],
            expect=(1, True),
        )
    )
    # 6. second hunk keeps pre-patch numbering
    cases.append(
        dict(
            name="multi-hunk",
            diff=(
                "--- a/f.c\n+++ b/f.c\n@@ -2,3 +2,2 @@\n a\n-b;\n c\n"
                "@@ -10,3 +9,2 @@\n d\n-free(p);\n f\n"
            ),
            file="f.c",
            sevc_lines=[11],
            expect=(1, False),
        )
    )
    # 7. deletion plus an unrelated addition is not a move
    cases.append(
        dict(
            name="delete-with-unrelated-add",
            diff=(
                "--- a/f.c\n+++ b/f.c\n@@ -5,4 +5,4 @@\n keep\n-sprintf(b, fmt);\n"
                "+snprintf(b, 8, fmt);\n tail\n"
            ),
            file="f.c",
            sevc_lines=[6],
            expect=(1, False),
        )
    )
    # 8. no-newline marker is tolerated
    cases.append(
        dict(
            name="no-newline-marker",
            diff=(
                "--- a/f.c\n+++ b/f.c\n@@ -8,2 +8,1 @@\n keep\n-system(cmd);\n"
                "\\ No newline at end of file\n"
            ),
            file="f.c",
            sevc_lines=[9],
            expect=(1, False),
        )
    )
    # 9. deletion at hunk start
    cases.append(
        dict(
            name="delete-first",
            diff="--- a/f.c\n+++ b/f.c\n@@ -1,2 +1,1 @@\n-memcpy(a, b, n);\n keep\n",
            file="f.c",
            sevc_lines=[1],
            expect=(1, False),
        )
    )
    # 10. SeVC spanning marked and unmarked lines still labels 1
    cases.append(
        dict(
            name="spanning",
            diff="--- a/f.c\n+++ b/f.c\n@@ -4,3 +4,2 @@\n keep\n-gets(buf);\n tail\n",
            file="f.c",
            sevc_lines=[2, 5, 9],
            expect=(1, False),
        )
    )
    return cases


def test_criterion_10_diff_labeling_fixtures():
    cases = diff_fixture_cases()
    assert len(cases) == 10
    for case in cases:
        marks = parse_diff(case["diff"])
        assert marks, case["name"]
        truth = {case["file"]: mark_lines(marks)}
        sevc = make_sevc(
            [(case["file"], line, "text;") for line in case["sevc_lines"]]
        )
        got = label_sevc(sevc, truth)
        assert got == case["expect"], (case["name"], got)

    # add-only diff: produces no marks
    add_only = parse_diff(
        "--- a/f.c\n+++ b/f.c\n@@ -3,2 +3,3 @@\n keep\n+if (n < 8)\n tail\n"
    )
    assert add_only == []

    # annotation-mode companions: good -> 0, bad -> line-dependent
    truth = {"good.c": {}, "bad.c": {7: MARK_DELETED}}
    assert label_sevc(make_sevc([("good.c", 7, "x;")]), truth) == (0, False)
    assert label_sevc(make_sevc([("bad.c", 7, "x;")]), truth) == (1, False)
    assert label_sevc(make_sevc([("bad.c", 8, "x;")]), truth) == (0, False)
    report(
        "ACCEPTANCE 10 PASS: 10 diff fixtures labeled as hand-assigned; "
        "add-only diff marks no line; moved lines queue for review"
    )
