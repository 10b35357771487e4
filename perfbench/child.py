"""One benchmark child process: a ``vulnslice`` CLI call, a set-up probe or a kernel.

usage:
    python3 perfbench/child.py META cli TRACE ARGS...   run vulnslice.cli.main(ARGS)
    python3 perfbench/child.py META probe               import the CLI, stop before main
    python3 perfbench/child.py META paper SEED          paper-shape BGRU kernel timings
    python3 perfbench/child.py META calibrate           fixed work that uses no program code

META is a pickle file the child writes for the parent: the monotonic
time at which ``main`` was entered, and with TRACE=1 the spans and
counters recorded around the program's layer boundaries. The parent
takes the launch time, so ``main_entered - launch`` is the process's
set-up time (interpreter start plus imports).
"""

from __future__ import annotations

import os
import pickle
import sys
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
# one T=500 forward+backward takes over ten seconds in numpy
PAPER_FORWARD_SAMPLES = 1
PAPER_FWDBWD_SAMPLES = 1


def monotonic() -> float:
    # CLOCK_MONOTONIC is system-wide, so parent and child times compare
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def install_tracing(tracer) -> None:
    """Wrap each layer's public functions where the CLI looks them up."""
    from vulnslice import artifacts, bgru, cli, embeddings

    for stage in list(cli.STAGE_FUNCS) + ["detect", "pipeline"]:
        tracer.patch(cli, f"stage_{stage}", f"cli.{stage}")
        if stage in cli.STAGE_FUNCS:
            cli.STAGE_FUNCS[stage] = getattr(cli, f"stage_{stage}")

    def tokens(args, result):
        return sum(len(s) for s in args["corpus"]) * args["epochs"]

    patches = [
        (cli, "load_program", "frontend.load_program",
         lambda args, model: len(model.diagnostics)),
        (cli, "extract_syvcs", "candidates.extract_syvcs",
         lambda args, syvcs: len(syvcs)),
        (cli, "build_pdgs", "graphs.build_pdgs", None),
        (cli, "build_call_graph", "graphs.build_call_graph", None),
        (cli, "interprocedural_slices", "slicing.interprocedural_slices",
         lambda args, slice_: len(slice_.diagnostics)),
        (cli, "assemble_sevc", "slicing.assemble_sevc",
         lambda args, sevc: len(sevc.statements)),
        (cli, "symbolize", "vectorize.symbolize", None),
        (cli, "encode", "vectorize.encode", None),
        (cli, "save_vectors", "vectorize.save_vectors", None),
        (cli, "load_vectors", "vectorize.load_vectors", None),
        (cli, "train_embeddings", "embeddings.train_embeddings", tokens),
        (embeddings.EmbeddingTable, "lookup", "embeddings.lookup", None),
        (cli, "apply_labels", "labeling.apply_labels", None),
        (cli, "train_model", "bgru.train",
         lambda args, result: len(args["dataset"]) * args["hp"].epochs),
        (bgru, "loss_and_gradients", "bgru.loss_and_gradients", None),
        (bgru, "adamax_step", "bgru.adamax_step", None),
        (cli, "predict", "bgru.predict", None),
        (bgru, "bgru_forward", "bgru.forward", None),
        (cli, "bgru_forward", "bgru.forward", None),
        (cli, "explain_trace", "bgru.explain", None),
        (cli, "load_checkpoint", "bgru.load_checkpoint", None),
        (artifacts, "write_jsonl", "artifacts.write_jsonl", None),
        (artifacts, "read_jsonl", "artifacts.read_jsonl", None),
    ]
    for owner, attribute, name, count in patches:
        tracer.patch(owner, attribute, name, count)


def run_cli(trace: bool, argv: list[str]) -> tuple[int, dict]:
    from vulnslice import cli

    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer(clock=monotonic)
        install_tracing(tracer)
    meta = {"main_entered": monotonic()}
    code = cli.main(argv)
    if tracer is not None:
        meta["spans"] = tracer.spans
        meta["counters"] = dict(tracer.counters)
    return code, meta


def run_paper_kernel(seed: int) -> dict:
    """Samples/s of the BGRU forward and forward+backward at the paper preset."""
    import numpy as np

    from vulnslice.bgru import PRESETS, bgru_forward, init_params, loss_and_gradients

    hp = PRESETS["paper"]
    rng = np.random.default_rng(seed)
    params = init_params(hp, seed=seed)

    def sample():
        return rng.standard_normal((hp.seq_len, hp.input_dim))

    inputs = [sample() for _ in range(PAPER_FORWARD_SAMPLES)]
    start = monotonic()
    for x in inputs:
        bgru_forward(x, params, hp)
    forward_s = monotonic() - start
    batch = [(sample(), int(rng.integers(0, 2))) for _ in range(PAPER_FWDBWD_SAMPLES)]
    start = monotonic()
    loss_and_gradients(batch, params, hp)
    fwdbwd_s = monotonic() - start
    return {
        "forward_samples_per_s": PAPER_FORWARD_SAMPLES / forward_s,
        "fwdbwd_samples_per_s": PAPER_FWDBWD_SAMPLES / fwdbwd_s,
    }


def calibrate() -> None:
    """A fixed mix of interpreter and small-matrix numpy work, like a CLI stage's.

    It imports nothing of the program, so a change to the program leaves
    its time alone; only the machine's speed moves it.
    """
    import numpy as np

    counts: dict[str, int] = {}
    line = "if ( n > cap ) { memcpy ( dst , src , n * sizeof ( int ) ) ; }"
    for i in range(2000):
        for token in line.split():
            key = f"{token}{i % 13}"
            counts[key] = counts.get(key, 0) + len(token)
    rng = np.random.default_rng(0)
    weights = rng.standard_normal((3, 32, 32)) * 0.1
    state = np.zeros(32)
    for _ in range(750):
        z = 1.0 / (1.0 + np.exp(-(weights[0] @ state)))
        state = (1.0 - z) * state + z * np.tanh(weights[1] @ state + weights[2] @ z)


def main() -> int:
    meta_path, mode, rest = sys.argv[1], sys.argv[2], sys.argv[3:]
    code = 0
    if mode == "cli":
        code, meta = run_cli(rest[0] == "1", rest[1:])
    elif mode == "probe":
        import vulnslice.cli  # noqa: F401  the imports a CLI process pays for

        meta = {"main_entered": monotonic()}
    elif mode == "calibrate":
        calibrate()
        meta = {}
    elif mode == "paper":
        meta = run_paper_kernel(int(rest[0]))
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    with open(meta_path, "wb") as handle:
        pickle.dump(meta, handle, protocol=pickle.HIGHEST_PROTOCOL)
    return code


if __name__ == "__main__":
    sys.exit(main())
