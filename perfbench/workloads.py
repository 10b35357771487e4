"""The benchmark's workloads: CLI processes to time and checks on their output.

Every workload drives ``vulnslice.cli.main`` in child processes, one per
CLI call, exactly as a user would run the stages. The program only ever
sees input files: the workload seed generates the corpora, and the
program's own ``--seed`` stays at the baseline value PROGRAM_SEED.

- ``mini-pipeline``: one ``pipeline`` process on the bundled 40-program
  mini corpus (desk preset, skip-gram). BGRU training dominates it, so a
  training change shows here and a frontend or slicing change does not.
- ``scan-corpus``: parse, extract, slice, hash-mode vectorize, detect and
  explain on a generated corpus, with a detector trained beforehand.
  BGRU inference, hash lookups and the frontend dominate; no training.
  One repetition takes a few seconds, so a run holds several.

The first repetition of a run is checked in full; every later one must
write byte-identical outputs, which holds because the program is
deterministic for a fixed ``--seed``.

Timed processes run calibrated (``Launcher.run``): they are paused every
SLICE_S seconds for a calibration process, and their times are also
reported normalized to the machine's speed measured that way.

Skip-gram training and labeling run inside ``mini-pipeline``. A third
workload dominated by them (generated programs through parse ... label)
is left out: a mini-pipeline run takes about a minute whatever the run
length, and a third workload's runs would not fit the time the whole
benchmark may take.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import select
import shutil
import signal
import struct
import subprocess
import sys
import threading
from dataclasses import dataclass, field

import corpus
from child import monotonic

REPO_ROOT = corpus.REPO_ROOT
CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py")
MINI_MANIFEST = os.path.join(
    REPO_ROOT, "src", "vulnslice", "data", "mini_corpus", "manifest.json"
)
CACHE_ROOT = os.path.join(REPO_ROOT, ".bench_cache")
PROCESS_TIMEOUT_S = 600.0
# A calibrated process runs at most this long before it is paused, a
# calibration process runs, and it is resumed.
SLICE_S = 2.0
# The calibration's time on the machine the benchmark was written on (a
# 2-vCPU Xeon VM); it only sets the scale of the speed-normalized times.
REFERENCE_CALIBRATION_S = 0.25
# criterion 8 of the acceptance tests: held-out F1 on the mini corpus
F1_GATE = 0.80
# the program seed of the criterion-8 runs and of the recorded baseline
PROGRAM_SEED = 101
# what the timed stages write; later repetitions must reproduce them
OUTPUTS = ("syvc.jsonl", "sevc.jsonl", "vectors.bin", "detect.jsonl", "explain.jsonl")


@dataclass
class Proc:
    """One child process as the parent saw it."""

    stage: str
    exit_code: int
    launch: float
    end: float
    peak_rss_mb: float
    meta: dict
    log: str  # the child's stdout and stderr
    # (start, end, calibration seconds or None) of each stretch the child ran
    segments: list[tuple[float, float, float | None]]

    def running_s(self, until: float | None = None, normalized: bool = False) -> float:
        """Time the child ran (up to ``until``); normalized: in reference-speed seconds.

        Each stretch is scaled by REFERENCE_CALIBRATION_S over the time of
        the calibration process run right before it, so a machine running
        slower or faster for a while moves the result much less.
        """
        total = 0.0
        for start, end, calibration in self.segments:
            end = end if until is None else min(end, until)
            if end > start:
                scale = REFERENCE_CALIBRATION_S / calibration if normalized else 1.0
                total += (end - start) * scale
        return total

    @property
    def wall_s(self) -> float:
        return self.running_s()

    @property
    def setup_s(self) -> float | None:
        entered = self.meta.get("main_entered")
        return None if entered is None else self.running_s(until=entered)


class Launcher:
    """Starts child processes with a pinned environment and records each one."""

    def __init__(self, env: dict, scratch: str):
        self.env = env
        self.scratch = scratch
        self.count = 0

    def run(self, stage: str, mode_args: list[str], calibrated: bool = False) -> Proc:
        """Run one child to its end.

        ``calibrated``: run a calibration process first, and every SLICE_S
        seconds stop the child, run another and resume the child, so each
        stretch of its running has a measure of the machine's speed next
        to it. The pauses do not count in the child's times.
        """
        self.count += 1
        meta_path = os.path.join(self.scratch, f"meta-{self.count}.pkl")
        log_path = os.path.join(self.scratch, f"log-{self.count}-{stage}.txt")
        calibration = self.calibration() if calibrated else None
        segments = []
        with open(log_path, "wb") as log:
            launch = monotonic()
            proc = subprocess.Popen(
                [sys.executable, CHILD, meta_path, *mode_args],
                stdout=log, stderr=subprocess.STDOUT, env=self.env, cwd=REPO_ROOT,
            )
            timer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
            timer.start()
            pidfd = os.pidfd_open(proc.pid)
            poller = select.poll()
            poller.register(pidfd, select.POLLIN)  # readable once the child has exited
            try:
                start = launch
                while not poller.poll(SLICE_S * 1000 if calibrated else None):
                    os.kill(proc.pid, signal.SIGSTOP)
                    stop = monotonic()
                    if poller.poll(0):  # it ended before the signal
                        break
                    segments.append((start, stop, calibration))
                    try:
                        calibration = self.calibration()
                    finally:
                        os.kill(proc.pid, signal.SIGCONT)
                    start = monotonic()
                end = monotonic()
                segments.append((start, end, calibration))
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
                os.close(pidfd)
        proc.returncode = os.waitstatus_to_exitcode(status)
        meta = {}
        if os.path.exists(meta_path):
            with open(meta_path, "rb") as handle:
                meta = pickle.load(handle)
            os.unlink(meta_path)
        # ru_maxrss is in KiB on Linux
        return Proc(stage, proc.returncode, launch, end, usage.ru_maxrss / 1024.0, meta,
                    log_path, segments)

    def calibration(self) -> float:
        """Seconds a fixed, program-independent child process takes right now."""
        proc = self.run("calibrate", ["calibrate"])
        if proc.exit_code != 0:
            raise RuntimeError(f"calibration process exited {proc.exit_code}")
        return proc.wall_s

    def cli(self, stage: str, args: list[str], trace: bool = False,
            calibrated: bool = False) -> Proc:
        return self.run(stage, ["cli", "1" if trace else "0", stage, *args], calibrated)

    def probe(self, calibrated: bool = False) -> Proc:
        return self.run("probe", ["probe"], calibrated)


# --------------------------------------------------------------------------
# artifact readers for the checks (plain file formats, no program imports)
# --------------------------------------------------------------------------


def read_jsonl(path: str) -> list[dict]:
    with open(path, "r", encoding="utf-8") as handle:
        lines = [line for line in handle if line.strip()]
    return [json.loads(line) for line in lines[1:]]  # line 0 is the header


def vector_rows(path: str) -> int:
    with open(path, "rb") as handle:
        head = handle.read(32)
    # b"SVEC", then <version, theta, dim, count, seed>
    return struct.unpack("<IIIQQ", head[4:32])[3]


def expected_labels(manifest_path: str, sevcs: list[dict]) -> dict[int, int]:
    """Independent labeling oracle: 1 iff a slice line is a vulnerable line."""
    with open(manifest_path, "r", encoding="utf-8") as handle:
        programs = json.load(handle)["programs"]
    flawed = {
        (p["path"], line)
        for p in programs
        if p["class"] != "good"
        for line in p.get("vulnerable_lines", ())
    }
    return {
        r["syvc_id"]: int(any((s["file"], s["line"]) in flawed for s in r["statements"]))
        for r in sevcs
    }


def f1_score(flagged: set[int], labels: dict[int, int]) -> float:
    positive = {k for k, v in labels.items() if v == 1}
    tp = len(flagged & positive)
    wrong = len(flagged - positive) + len(positive - flagged)
    return 2 * tp / (2 * tp + wrong) if tp else 0.0


def output_digests(out: str) -> dict[str, str]:
    digests = {}
    for name in OUTPUTS:
        path = os.path.join(out, name)
        if os.path.exists(path):
            with open(path, "rb") as handle:
                digests[name] = hashlib.sha256(handle.read()).hexdigest()
    return digests


def check_dataset(out: str, manifest: str, errors: list[str]) -> list[dict]:
    """Row counts agree and labels match the oracle; returns the SeVC records."""
    sevcs = read_jsonl(os.path.join(out, "sevc.jsonl"))
    syvcs = read_jsonl(os.path.join(out, "syvc.jsonl"))
    labels = {r["syvc_id"]: r["label"] for r in read_jsonl(os.path.join(out, "labels.jsonl"))}
    rows = {
        "syvc.jsonl": len(syvcs),
        "sevc.jsonl": len(sevcs),
        "vectors.bin": vector_rows(os.path.join(out, "vectors.bin")),
        "labels.jsonl": len(labels),
    }
    if len(set(rows.values())) != 1:
        errors.append(f"row counts disagree: {rows}")
    if not sevcs:
        errors.append("no SeVCs")
    if labels != expected_labels(manifest, sevcs):
        errors.append("labels.jsonl disagrees with the manifest's vulnerable lines")
    return sevcs


# --------------------------------------------------------------------------
# workloads
# --------------------------------------------------------------------------


@dataclass
class Rep:
    """One repetition of a workload: its timed processes and check results."""

    out: str
    procs: list[Proc] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    sevcs: int = 0
    f1: float = 0.0
    digests: dict[str, str] = field(default_factory=dict)

    @property
    def failed_ops(self) -> int:
        failed = sum(1 for p in self.procs if not _exit_ok(p))
        return failed + (1 if self.errors and not failed else 0)


def _exit_ok(proc: Proc) -> bool:
    # detect (and pipeline, which ends in detect) exits 1 when it flags findings
    allowed = (0, 1) if proc.stage in ("detect", "pipeline") else (0,)
    return proc.exit_code in allowed


class Workload:
    name = ""
    stages: list[tuple[str, list[str]]] = []
    programs = 0  # size of the generated corpus

    def __init__(self, launcher: Launcher, workdir: str, seed: int):
        self.launcher = launcher
        self.workdir = workdir
        self.seed = seed
        self.manifest = self.prepare()

    def prepare(self) -> str:
        """Make the inputs; returns the manifest path."""
        return corpus.generate(os.path.join(self.workdir, "corpus"), self.programs, self.seed)

    def start_rep(self, out: str) -> None:
        os.makedirs(out)

    def run_rep(self, out: str, trace: bool = False, reference: Rep | None = None,
                calibrated: bool = False) -> Rep:
        """Run the stages into ``out``; check them, or compare them with ``reference``."""
        self.start_rep(out)
        rep = Rep(out=out)
        common = ["--manifest", self.manifest, "--out", out, "--seed", str(PROGRAM_SEED)]
        for stage, extra in self.stages:
            proc = self.launcher.cli(stage, common + extra, trace=trace, calibrated=calibrated)
            rep.procs.append(proc)
            if not _exit_ok(proc):
                with open(proc.log, "r", encoding="utf-8", errors="replace") as handle:
                    tail = handle.read().strip().splitlines()[-1:]
                rep.errors.append(f"{stage} exited {proc.exit_code}: {' '.join(tail)}")
                return rep
        rep.digests = output_digests(out)
        try:
            if reference is None:
                self.check(rep)
            else:
                rep.sevcs, rep.f1 = reference.sevcs, reference.f1
                changed = sorted(k for k in set(rep.digests) | set(reference.digests)
                                 if rep.digests.get(k) != reference.digests.get(k))
                if changed:
                    rep.errors.append(f"outputs differ from the first repetition: {changed}")
        except (OSError, ValueError, KeyError, struct.error) as exc:
            rep.errors.append(f"unreadable output: {type(exc).__name__}: {exc}")
        return rep

    def check(self, rep: Rep) -> None:
        raise NotImplementedError


class MiniPipeline(Workload):
    name = "mini-pipeline"
    stages = [("pipeline", [])]

    def prepare(self) -> str:
        return MINI_MANIFEST

    def check(self, rep: Rep) -> None:
        sevcs = check_dataset(rep.out, self.manifest, rep.errors)
        rep.sevcs = len(sevcs)
        with open(os.path.join(rep.out, "metrics.json"), "r", encoding="utf-8") as handle:
            f1 = json.load(handle)["metrics"]["F1"]
        rep.f1 = f1 or 0.0
        if rep.f1 < F1_GATE:
            rep.errors.append(f"held-out F1 {rep.f1:.3f} < {F1_GATE}")
        flagged = read_jsonl(os.path.join(rep.out, "detect.jsonl"))
        explained = read_jsonl(os.path.join(rep.out, "explain.jsonl"))
        if len(explained) != len(flagged):
            rep.errors.append("explain.jsonl does not cover every flagged SeVC")


FRONT_HALF = [("parse", []), ("extract", []), ("slice", [])]


class ScanCorpus(Workload):
    """Scan unseen generated code with a detector trained on the mini corpus."""

    name = "scan-corpus"
    programs = 250
    embed = ["--embed-mode", "hash"]
    stages = FRONT_HALF + [("vectorize", embed), ("detect", []), ("explain", [])]

    def prepare(self) -> str:
        self.checkpoint = self.fixture_checkpoint()
        return super().prepare()

    def fixture_checkpoint(self) -> str:
        """Detector trained by the code under test, cached per source tree."""
        args = ["--manifest", MINI_MANIFEST, "--seed", str(PROGRAM_SEED), *self.embed]
        digest = hashlib.sha256(json.dumps(args).encode())
        src = os.path.join(REPO_ROOT, "src")
        for base, dirs, files in sorted(os.walk(src)):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
        for key in sorted(self.launcher.env):
            if key.startswith("VULNSLICE_"):
                digest.update(f"{key}={self.launcher.env[key]}".encode())
        final = os.path.join(CACHE_ROOT, f"fixture-{digest.hexdigest()[:16]}")
        checkpoint = os.path.join(final, "checkpoint.bin")
        if os.path.exists(checkpoint):
            return checkpoint
        tmp = os.path.join(CACHE_ROOT, f"tmp-{os.getpid()}")
        shutil.rmtree(tmp, ignore_errors=True)
        proc = self.launcher.cli("pipeline", args + ["--out", tmp])
        if not _exit_ok(proc):
            raise RuntimeError(f"fixture training exited {proc.exit_code}")
        os.makedirs(final, exist_ok=True)
        os.replace(os.path.join(tmp, "checkpoint.bin"), checkpoint)
        shutil.rmtree(tmp, ignore_errors=True)
        return checkpoint

    def start_rep(self, out: str) -> None:
        os.makedirs(out)
        shutil.copyfile(self.checkpoint, os.path.join(out, "checkpoint.bin"))

    def check(self, rep: Rep) -> None:
        # ground truth comes from an untimed label run on the same corpus
        label = self.launcher.cli(
            "label", ["--manifest", self.manifest, "--out", rep.out,
                      "--seed", str(PROGRAM_SEED)]
        )
        if label.exit_code != 0:
            rep.errors.append(f"untimed label run exited {label.exit_code}")
            return
        sevcs = check_dataset(rep.out, self.manifest, rep.errors)
        rep.sevcs = len(sevcs)
        labels = {r["syvc_id"]: r["label"] for r in read_jsonl(os.path.join(rep.out, "labels.jsonl"))}
        flagged = {r["syvc_id"] for r in read_jsonl(os.path.join(rep.out, "detect.jsonl"))}
        rep.f1 = f1_score(flagged, labels)
        if rep.f1 < F1_GATE:
            rep.errors.append(f"scan F1 {rep.f1:.3f} < {F1_GATE}")
        explained = read_jsonl(os.path.join(rep.out, "explain.jsonl"))
        if {r["syvc_id"] for r in explained} != flagged:
            rep.errors.append("explain.jsonl does not cover the flagged SeVCs")


class FrontHalf(Workload):
    """The scan front half (parse through slice) on a generated corpus of a given size."""

    name = "front-half"
    stages = FRONT_HALF

    def __init__(self, launcher: Launcher, workdir: str, seed: int, programs: int):
        self.programs = programs
        super().__init__(launcher, workdir, seed)

    def check(self, rep: Rep) -> None:
        rep.sevcs = len(read_jsonl(os.path.join(rep.out, "sevc.jsonl")))


WORKLOADS = {w.name: w for w in (MiniPipeline, ScanCorpus)}
