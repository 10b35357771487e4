"""Benchmark for the ``vulnslice`` CLI.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. ``--trace 0`` makes one untimed warm-up
process, then repeats the workload for ``--seconds`` (at least once;
another repetition starts only if one more as long as the last still
fits) and reports the end-to-end metrics; ``--trace 1`` makes one
untraced reference repetition, one traced repetition, a scaling run of
the scan front half and the paper-shape BGRU kernel, and reports the
per-layer metrics. The last
line of standard output is the JSON result; the lines before it are a
human-readable table and the environment record. Traced runs also
write their spans to ``.bench_traces/``.

End-to-end metrics (tracing off), per workload. Times are
speed-normalized: on a shared host the machine runs a third or more
slower for seconds to minutes at a time, which raw wall times of
separate runs cannot tell from a change of the program. So every timed
process is paused every few seconds (SIGSTOP, SIGCONT) while a fixed
calibration process that runs no program code is timed, and each
stretch of its running is scaled by the reference calibration time over
the calibration time measured right before it (``workloads.Proc``). A
change to the program moves these times as it moves raw wall time; the
machine's speed largely does not. The unnormalized wall time is printed
in the table too.

- ``wall_s``: launch to exit of the workload's CLI processes, summed;
  with several repetitions, each process's median over them. Every
  repetition does the same work on the same input and writes the same
  bytes.
- ``sevcs_per_s``: SeVCs the workload carries through, over ``wall_s``.
- ``setup_s``: launch until ``main`` is entered (interpreter start and
  imports), per process as the median over the workload's processes and
  extra set-up probes, times the workload's process count.
- ``peak_rss_mb``: the largest peak RSS of any of those processes.
- ``f1``: held-out F1 from ``metrics.json`` (mini-pipeline), F1 of
  ``detect.jsonl`` against an untimed ``label`` run (scan-corpus).

Per-layer metrics (traced run): ``cli.<stage>_s`` is the duration of
the stage's span, which holds the layer calls the stage makes; stages
do not nest in one another, so they and set-up account for the wall
time, and ``trace.unaccounted_frac`` is the rest. Every other ``_s``
metric is a self time: the span's duration minus the time its traced
children cover. ``_calls`` count spans; counts such as
``candidates.syvcs`` are taken at the same call boundaries. Rates divide
a count by the whole span time. ``<layer>.scale_ratio`` is the layer's
per-program time on the scan front half at N programs over that at N/4
(1.0 is linear). ``trace.overhead_frac`` compares the traced repetition
with the untraced one made in the same run.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import shutil
import signal
import statistics
import sys

import numpy

import workloads
from tracing import summarize

REPO_ROOT = workloads.REPO_ROOT
WORK_ROOT = os.path.join(REPO_ROOT, ".bench_work")
TRACE_ROOT = os.path.join(REPO_ROOT, ".bench_traces")
# Child processes run single-threaded BLAS: the program's matrices are
# small (desk hidden size 32), and one thread keeps timings steady on a
# shared machine. It never exceeds nproc.
BLAS_THREADS = 1
SETUP_PROBES = 7
STAGES = ("parse", "extract", "slice", "vectorize", "label", "train",
          "detect", "evaluate", "explain")
SCALE_LAYERS = {
    "frontend": ("frontend.load_program",),
    "candidates": ("candidates.extract_syvcs",),
    "graphs": ("graphs.build_pdgs", "graphs.build_call_graph"),
    "slicing": ("slicing.interprocedural_slices", "slicing.assemble_sevc"),
}


def environment() -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
    }


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env.pop("PYTHONPATH", None)  # the child puts the checkout's src/ first
    return env


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


# --------------------------------------------------------------------------
# end-to-end metrics (tracing off)
# --------------------------------------------------------------------------


def end_to_end(reps, probes) -> tuple[dict, dict]:
    """Metric values and their sample counts."""
    complete = [rep for rep in reps if not rep.errors] or reps
    # each stage's median over the repetitions, so a burst of machine noise
    # in one repetition's stage does not move the sum
    per_stage = zip(*[[p.running_s(normalized=True) for p in rep.procs] for rep in complete])
    wall = sum(median(list(times)) for times in per_stage)
    processes = [p for rep in reps for p in rep.procs] + probes
    per_process_setup = [
        p.running_s(until=p.meta["main_entered"], normalized=True)
        for p in processes if "main_entered" in p.meta
    ]
    values = {
        "wall_s": wall,
        "sevcs_per_s": complete[0].sevcs / wall,
        # every CLI process pays the same imports, so the workload's set-up
        # is its process count times the median per-process set-up
        "setup_s": len(complete[0].procs) * median(per_process_setup),
        "peak_rss_mb": max(p.peak_rss_mb for rep in reps for p in rep.procs),
        "f1": median([rep.f1 for rep in complete]),
    }
    samples = {name: len(complete) for name in values}
    samples["setup_s"] = len(per_process_setup)
    per_stage = zip(*[[p.wall_s for p in rep.procs] for rep in complete])
    values["unnormalized_wall_s"] = sum(median(list(times)) for times in per_stage)
    samples["unnormalized_wall_s"] = len(complete)
    return values, samples


# --------------------------------------------------------------------------
# per-layer metrics (traced run)
# --------------------------------------------------------------------------


def layer_summary(rep) -> tuple[dict, dict, list]:
    """Span summary and counters merged over a repetition's processes."""
    spans: list = []
    counters: dict[str, float] = {}
    for proc in rep.procs:
        offset = len(spans)
        for name, start, end, parent in proc.meta.get("spans", []):
            spans.append([name, start, end, parent + offset if parent >= 0 else -1])
        for key, value in proc.meta.get("counters", {}).items():
            counters[key] = counters.get(key, 0.0) + value
    return summarize(spans), counters, spans


def per_layer(summary, counters, ref, traced, scale_reps, paper) -> dict:

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    def self_s(name):
        return summary.get(name, {}).get("self_s", 0.0)

    def total_s(name):
        return summary.get(name, {}).get("total_s", 0.0)

    def ratio(part, whole):
        return part / whole if whole > 0 else 0.0

    def percentile_us(name, q):
        durations = sorted(summary.get(name, {}).get("durations", []))
        if not durations:
            return 0.0
        return durations[min(len(durations) - 1, int(q * len(durations)))] * 1e6

    values: dict[str, float] = {}
    for stage in STAGES:
        # a stage's own time: its span's duration, which holds the layer
        # calls it makes; stages never nest in one another
        values[f"cli.{stage}_s"] = total_s(f"cli.{stage}")
    values.update({
        "frontend.load_program_calls": calls("frontend.load_program"),
        "frontend.load_program_s": self_s("frontend.load_program"),
        "frontend.programs_per_s": ratio(calls("frontend.load_program"),
                                        total_s("frontend.load_program")),
        "frontend.diagnostics": counters.get("frontend.load_program", 0.0),
        "candidates.extract_syvcs_s": self_s("candidates.extract_syvcs"),
        "candidates.syvcs": counters.get("candidates.extract_syvcs", 0.0),
        "graphs.build_pdgs_s": self_s("graphs.build_pdgs"),
        "graphs.build_call_graph_s": self_s("graphs.build_call_graph"),
        "slicing.interprocedural_slices_s": self_s("slicing.interprocedural_slices"),
        "slicing.slice_us_per_syvc": 1e6 * ratio(total_s("slicing.interprocedural_slices"),
                                                calls("slicing.interprocedural_slices")),
        "slicing.assemble_sevc_s": self_s("slicing.assemble_sevc"),
        "slicing.sevc_len_mean": ratio(counters.get("slicing.assemble_sevc", 0.0),
                                      calls("slicing.assemble_sevc")),
        "slicing.diagnostics": counters.get("slicing.interprocedural_slices", 0.0),
        "vectorize.symbolize_calls": calls("vectorize.symbolize"),
        "vectorize.symbolize_s": self_s("vectorize.symbolize"),
        "vectorize.encode_s": self_s("vectorize.encode"),
        "vectorize.save_vectors_s": self_s("vectorize.save_vectors"),
        "vectorize.load_vectors_s": self_s("vectorize.load_vectors"),
        "vectorize.load_vectors_calls": calls("vectorize.load_vectors"),
        "embeddings.train_embeddings_s": self_s("embeddings.train_embeddings"),
        "embeddings.skipgram_tokens_per_s": ratio(
            counters.get("embeddings.train_embeddings", 0.0),
            total_s("embeddings.train_embeddings")),
        "embeddings.lookup_calls": calls("embeddings.lookup"),
        "embeddings.lookup_us": 1e6 * ratio(self_s("embeddings.lookup"),
                                           calls("embeddings.lookup")),
        "labeling.apply_labels_s": self_s("labeling.apply_labels"),
        "bgru.train_s": self_s("bgru.train"),
        "bgru.train_samples_per_s": ratio(counters.get("bgru.train", 0.0),
                                         total_s("bgru.train")),
        "bgru.loss_and_gradients_calls": calls("bgru.loss_and_gradients"),
        "bgru.loss_and_gradients_s": self_s("bgru.loss_and_gradients"),
        "bgru.adamax_step_s": self_s("bgru.adamax_step"),
        "bgru.forward_calls": calls("bgru.forward"),
        "bgru.forward_s": self_s("bgru.forward"),
        "bgru.forward_samples_per_s": ratio(calls("bgru.forward"), total_s("bgru.forward")),
        "bgru.predict_p50_us": percentile_us("bgru.predict", 0.50),
        "bgru.predict_p99_us": percentile_us("bgru.predict", 0.99),
        "bgru.explain_s": self_s("bgru.explain"),
        "bgru.load_checkpoint_calls": calls("bgru.load_checkpoint"),
        "bgru.load_checkpoint_s": self_s("bgru.load_checkpoint"),
        "artifacts.write_jsonl_s": self_s("artifacts.write_jsonl"),
        "artifacts.read_jsonl_s": self_s("artifacts.read_jsonl"),
        "artifacts.read_jsonl_calls": calls("artifacts.read_jsonl"),
        "bgru.paper_forward_samples_per_s": paper.get("forward_samples_per_s", 0.0),
        "bgru.paper_fwdbwd_samples_per_s": paper.get("fwdbwd_samples_per_s", 0.0),
    })

    ref_wall = sum(p.wall_s for p in ref.procs)
    traced_wall = sum(p.wall_s for p in traced.procs)
    traced_setup = sum(p.setup_s or 0.0 for p in traced.procs)
    staged = sum(values[f"cli.{stage}_s"] for stage in STAGES)
    values["trace.overhead_frac"] = (traced_wall - ref_wall) / ref_wall
    # share of the wall time that neither set-up nor a stage holds, taken
    # within the traced repetition so drift between repetitions stays out
    values["trace.unaccounted_frac"] = (traced_wall - traced_setup - staged) / traced_wall

    (small, small_n), (full, full_n) = scale_reps
    small_summary = layer_summary(small)[0]
    full_summary = layer_summary(full)[0]
    for layer, names in SCALE_LAYERS.items():
        t_small = sum(small_summary.get(n, {}).get("self_s", 0.0) for n in names)
        t_full = sum(full_summary.get(n, {}).get("self_s", 0.0) for n in names)
        # per-program cost at N over that at N/4: 1.0 is linear
        values[f"{layer}.scale_ratio"] = ratio(t_full / full_n, t_small / small_n)
    return values


# --------------------------------------------------------------------------
# orchestration
# --------------------------------------------------------------------------


def run(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict, int, int, bool]:
    """(metric values, sample counts, operations attempted, failed, correct)."""
    workdir = os.path.join(WORK_ROOT, f"{name}-seed{seed}-pid{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        launcher = workloads.Launcher(child_env(), workdir)
        workload = workloads.WORKLOADS[name](launcher, workdir, seed)
        extra_failed = 0
        if not trace:
            # warm-up: brings the interpreter and imports into the page cache
            launcher.probe()
            launcher.calibration()
            reps = []
            start = rep_start = workloads.monotonic()
            while True:
                out = os.path.join(workdir, f"rep{len(reps)}")
                reps.append(workload.run_rep(out, reference=reps[0] if reps else None,
                                             calibrated=True))
                if len(reps) > 1:
                    shutil.rmtree(out)
                now = workloads.monotonic()
                # another repetition only if one as long as this one still fits
                if 2 * now - rep_start - start > seconds:
                    break
                rep_start = now
            probes = [launcher.probe(calibrated=True) for _ in range(SETUP_PROBES)]
            values, samples = end_to_end(reps, probes)
        else:
            ref = workload.run_rep(os.path.join(workdir, "ref"))
            traced = workload.run_rep(os.path.join(workdir, "traced"), trace=True)
            scale_reps = []
            for count in (workloads.ScanCorpus.programs // 4, workloads.ScanCorpus.programs):
                scaledir = os.path.join(workdir, f"scale{count}")
                os.makedirs(scaledir)
                front = workloads.FrontHalf(launcher, scaledir, seed, count)
                scale_reps.append((front.run_rep(os.path.join(scaledir, "out"), trace=True), count))
            paper = launcher.run("paper", ["paper", str(seed)])
            extra_failed = int(paper.exit_code != 0)
            summary, counters, spans = layer_summary(traced)
            values = per_layer(summary, counters, ref, traced, scale_reps, paper.meta)
            samples = {key: 1 for key in values}
            write_trace(name, seed, values, summary, counters, spans)
            reps = [ref, traced] + [rep for rep, _ in scale_reps]
        for rep in reps:
            for error in rep.errors:
                print(f"check failed: {error}", file=sys.stderr)
        attempted = sum(len(rep.procs) for rep in reps) + int(trace)
        failed = sum(rep.failed_ops for rep in reps) + extra_failed
        return values, samples, attempted, failed, failed == 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def write_trace(name: str, seed: int, values: dict, summary: dict, counters: dict,
                spans: list) -> None:
    os.makedirs(TRACE_ROOT, exist_ok=True)
    path = os.path.join(TRACE_ROOT, f"{name}-seed{seed}.json.gz")
    payload = {
        "workload": name,
        "seed": seed,
        "environment": environment(),
        "metrics": values,
        "counters": counters,
        "summary": {k: {f: v for f, v in s.items() if f != "durations"}
                    for k, s in summary.items()},
        "spans": spans,  # [name, start, end, parent index]
    }
    with gzip.open(path, "wt", encoding="utf-8") as handle:
        json.dump(payload, handle)


def load_spec() -> dict:
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # on SIGTERM, unwind so the running child is stopped and the work dir removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    required = [workloads.MINI_MANIFEST, workloads.corpus.MINI_GENERATOR,
                os.path.join(REPO_ROOT, "src", "vulnslice", "cli.py")]
    missing = [path for path in required if not os.path.exists(path)]
    if missing:
        print(f"error: not a vulnslice checkout, missing {missing}", file=sys.stderr)
        return 2

    spec = load_spec()
    metric_specs = spec["per_layer" if args.trace else "end_to_end"]
    values, samples, attempted, failed, correct = run(
        args.workload, args.seed, args.seconds, bool(args.trace))
    metrics = {}
    print(f"environment {json.dumps(environment(), sort_keys=True)}")
    print(f"{'metric':40} {'value':>14} {'unit':8} samples")
    for entry in metric_specs:
        value = float(values[entry["name"]])
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"{entry['name']:40} {value:14.6g} {entry['unit']:8} {samples[entry['name']]}")
    if "unnormalized_wall_s" in values:
        print(f"{'(unnormalized wall time)':40} {values['unnormalized_wall_s']:14.6g} "
              f"{'s':8} {samples['unnormalized_wall_s']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
