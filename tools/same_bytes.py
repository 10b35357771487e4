#!/usr/bin/env python3
"""Do two source trees give the same bytes? Stage by stage, file by file.

usage: python3 tools/same_bytes.py PARENT_SRC CHANGE_SRC MANIFEST STAGE[,STAGE...] [stage flags]

PARENT_SRC and CHANGE_SRC are directories that hold a ``vulnslice``
package, such as a checkout's ``src``. Under each in turn, the tool runs
the comma-separated stages (or ``pipeline``) in order, each as a fresh
``python -m vulnslice.cli`` process with the stage flags (for example
``--seed 101 --embed-mode hash``). Both runs write to the same ``--out``
path in a temporary directory, so the paths in their messages agree; the
first run's directory is moved aside before the second starts.

It then compares every file of the two out directories, and each
stage's stdout, stderr and exit code, and prints each difference. It
exits 0 when there is none, 1 when there is one and 2 on a usage error.
The processes write no bytecode into the source trees.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile


def run_stages(
    src: str, stages: list[str], manifest: str, out: str, flags: list[str]
) -> list[tuple[int, bytes, bytes]]:
    """(exit code, stdout, stderr) of each stage, run under ``src``."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    results = []
    for stage in stages:
        argv = [sys.executable, "-m", "vulnslice.cli", stage,
                "--manifest", manifest, *flags, "--out", out]
        proc = subprocess.run(argv, env=env, capture_output=True)
        results.append((proc.returncode, proc.stdout, proc.stderr))
    return results


def files_under(root: str) -> dict[str, bytes]:
    """Every file under ``root``, by its path relative to it."""
    found = {}
    for directory, _, names in os.walk(root):
        for name in names:
            path = os.path.join(directory, name)
            with open(path, "rb") as handle:
                found[os.path.relpath(path, root)] = handle.read()
    return found


def first_difference(a: bytes, b: bytes) -> str:
    """Where two byte strings first part, with each one's line there."""
    at = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    line = a.count(b"\n", 0, at) + 1

    def line_of(data: bytes) -> bytes:
        start = data.rfind(b"\n", 0, at) + 1
        end = data.find(b"\n", at)
        return data[start : end if end != -1 else len(data)][:200]

    return (f"first at byte {at} (line {line}): "
            f"parent {line_of(a)!r}, change {line_of(b)!r}")


def compare(
    stages: list[str], parent: list, change: list, parent_files: dict, change_files: dict
) -> list[str]:
    """Each difference, as one line."""
    differences = []
    for stage, (code_a, out_a, err_a), (code_b, out_b, err_b) in zip(stages, parent, change):
        if code_a != code_b:
            differences.append(f"{stage}: exit code {code_a} in parent, {code_b} in change")
        for stream, a, b in (("stdout", out_a, out_b), ("stderr", err_a, err_b)):
            if a != b:
                differences.append(f"{stage} {stream}: {first_difference(a, b)}")
    for name in sorted(parent_files.keys() | change_files.keys()):
        a, b = parent_files.get(name), change_files.get(name)
        if a is None or b is None:
            differences.append(f"{name}: only in {'change' if a is None else 'parent'}")
        elif a != b:
            differences.append(f"{name}: {first_difference(a, b)}")
    return differences


def main(argv: list[str]) -> int:
    if len(argv) < 4:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    parent_src, change_src, manifest, stage_list, *flags = argv
    stages = [stage for stage in stage_list.split(",") if stage]
    for src in (parent_src, change_src):
        if not os.path.isdir(os.path.join(src, "vulnslice")):
            print(f"error: {src} holds no vulnslice package", file=sys.stderr)
            return 2
    manifest = os.path.abspath(manifest)
    work = tempfile.mkdtemp(prefix="same-bytes-")
    try:
        out = os.path.join(work, "out")
        parent = run_stages(os.path.abspath(parent_src), stages, manifest, out, flags)
        parent_out = os.path.join(work, "parent-out")
        if os.path.exists(out):
            os.rename(out, parent_out)
        change = run_stages(os.path.abspath(change_src), stages, manifest, out, flags)
        parent_files, change_files = files_under(parent_out), files_under(out)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    differences = compare(stages, parent, change, parent_files, change_files)
    for line in differences:
        print(line)
    if differences:
        print(f"{len(differences)} differences")
        return 1
    codes = ", ".join(f"{stage} {code}" for stage, (code, _, _) in zip(stages, parent))
    print(f"same bytes: {len(parent_files)} files; exit codes {codes}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
