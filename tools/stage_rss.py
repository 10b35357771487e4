#!/usr/bin/env python3
"""Peak memory of each ``vulnslice`` stage, each run in a process of its own.

usage: python3 tools/stage_rss.py MANIFEST OUT [stage flags]

Runs parse, extract, slice, vectorize, label, train, detect, evaluate
and explain in order, each as a fresh ``python -m vulnslice.cli``
process that writes into OUT, then ``pipeline`` into OUT once more
(which rewrites the same bytes). The stage flags (for example
``--embed-mode hash --seed 101``) go to every process. For each
process it prints the peak resident set size (``ru_maxrss``) in MB, its
wall time and its exit code. It stops at the first process that exits
2, and then exits 2 itself.

The processes import the ``vulnslice`` package from this checkout's
``src/``.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
STAGES = ("parse", "extract", "slice", "vectorize", "label", "train",
          "detect", "evaluate", "explain", "pipeline")


def run_stage(stage: str, manifest: str, out: str, flags: list[str]) -> tuple[int, float, float]:
    """(exit code, peak RSS in MB, wall seconds) of one stage process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    argv = [sys.executable, "-m", "vulnslice.cli", stage,
            "--manifest", manifest, "--out", out, *flags]
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux
    return proc.returncode, usage.ru_maxrss / 1024.0, wall


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    manifest, out, flags = argv[0], argv[1], argv[2:]
    print(f"{'stage':<10} {'peak_rss_mb':>11} {'wall_s':>7} {'exit':>4}")
    for stage in STAGES:
        code, rss_mb, wall = run_stage(stage, manifest, out, flags)
        print(f"{stage:<10} {rss_mb:>11.1f} {wall:>7.2f} {code:>4}", flush=True)
        if code == 2:
            return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
