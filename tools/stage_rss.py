#!/usr/bin/env python3
"""Peak memory and wall time of each ``vulnslice`` stage, each run in a process of its own.

usage: python3 tools/stage_rss.py MANIFEST OUT [stage flags]

Runs parse, extract, slice, vectorize, label, train, detect, evaluate
and explain in order, each as a fresh Python process that calls
``vulnslice.cli.main`` and writes into OUT, then ``pipeline`` into OUT
once more (which rewrites the same bytes). The stage flags (for example
``--embed-mode hash --seed 101``) go to every process. For each
process it prints the peak resident set size (``ru_maxrss``) in MB, its
wall time and its exit code, and splits the wall time into start-up
(launch until ``main`` is entered: the interpreter and the imports),
``main`` itself, and exit (``main`` returned until the process is gone:
exit handlers and interpreter shutdown). It stops at the first process
that exits 2, and then exits 2 itself.

The processes import the ``vulnslice`` package from a copy of this
checkout's ``src/`` that holds no ``__pycache__``, and write no bytecode
(``PYTHONDONTWRITEBYTECODE=1``), so each one compiles the modules it
imports, as a process in a fresh checkout does; the copy is removed
when the run ends.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
STAGES = ("parse", "extract", "slice", "vectorize", "label", "train",
          "detect", "evaluate", "explain", "pipeline")
# The stage process: it writes the monotonic times at which main was
# entered and returned to the pipe whose descriptor is its first
# argument, then exits with main's code, as ``python -m vulnslice.cli``.
CHILD = """\
import os, sys, time
from vulnslice.cli import main
entered = time.monotonic()
try:
    code = main(sys.argv[2:])
finally:
    os.write(int(sys.argv[1]), f"{entered} {time.monotonic()}".encode())
sys.exit(code)
"""


def run_stage(stage: str, manifest: str, out: str, flags: list[str], src: str) -> dict:
    """One stage process's exit code, peak RSS in MB, and wall, start-up,
    main and exit seconds (the last two None if main was never entered),
    importing the package from ``src``."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    read_end, write_end = os.pipe()
    argv = [sys.executable, "-c", CHILD, str(write_end), stage,
            "--manifest", manifest, "--out", out, *flags]
    with os.fdopen(read_end, "rb") as pipe:
        # CLOCK_MONOTONIC is system-wide, so the child's times compare with these
        start = time.monotonic()
        try:
            proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL,
                                    pass_fds=(write_end,))
        finally:
            os.close(write_end)
        _, status, usage = os.wait4(proc.pid, 0)
        gone = time.monotonic()
        times = pipe.read().split()
    proc.returncode = os.waitstatus_to_exitcode(status)
    entered, returned = map(float, times) if times else (None, None)
    return {
        "exit": proc.returncode,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "wall_s": gone - start,
        "startup_s": None if entered is None else entered - start,
        "main_s": None if entered is None else returned - entered,
        "exit_s": None if entered is None else gone - returned,
    }


def _ms(seconds: float | None) -> str:
    return "-" if seconds is None else f"{seconds * 1000:.1f}"


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    manifest, out, flags = argv[0], argv[1], argv[2:]
    print(f"{'stage':<10} {'peak_rss_mb':>11} {'wall_s':>7} {'startup_ms':>10} "
          f"{'main_ms':>9} {'exit_ms':>7} {'exit':>4}")
    with tempfile.TemporaryDirectory(prefix="stage-rss-") as scratch:
        src = shutil.copytree(SRC, os.path.join(scratch, "src"),
                              ignore=shutil.ignore_patterns("__pycache__"))
        for stage in STAGES:
            run = run_stage(stage, manifest, out, flags, src)
            print(f"{stage:<10} {run['peak_rss_mb']:>11.1f} {run['wall_s']:>7.2f} "
                  f"{_ms(run['startup_s']):>10} {_ms(run['main_s']):>9} "
                  f"{_ms(run['exit_s']):>7} {run['exit']:>4}", flush=True)
            if run["exit"] == 2:
                return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
