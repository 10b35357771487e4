#!/usr/bin/env python3
"""Where each ``vulnslice`` stage spends its time, warm, in one process.

usage: python3 tools/stage_profile.py MANIFEST OUT ROUNDS STAGE[,STAGE...] [stage flags]

Runs the comma-separated stages in order through ``vulnslice.cli.main``,
writing into OUT, once to warm up (imports, caches) and then ROUNDS
times. The stage flags (for example ``--embed-mode hash --seed 101``) go
to every stage. For each stage it prints its best wall time over the
rounds, and for that round the calls and self time of each layer
function the stage reads through ``cli.LAZY_NAMES`` and of each
``artifacts`` read or write. A call's self time is its time less that
of the timed calls it makes; the time an iterator it returns spends in
each step counts as its own. The rest of the stage is the stage code in
``cli`` itself (the manifest read included). detect's exit code 1 (a
finding) counts as success; the tool stops at the first exit code 2 and
exits 2 itself. The stages' own stdout is dropped.

Rounds repeat the stages in one process, so they measure warm work, as
a long scan would repeat it, and leave out process start and imports
(see ``tools/stage_rss.py`` for a process per stage). Each timed call
adds about 2 microseconds to its stage's wall time. The tool imports the
``vulnslice`` package from this checkout's ``src/``.
"""

from __future__ import annotations

import collections
import contextlib
import inspect
import os
import sys
import time
from collections.abc import Iterator

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from vulnslice import artifacts, cli  # noqa: E402

ARTIFACT_CALLS = ("write_jsonl", "write_jsonl_lines", "write_json",
                  "read_jsonl", "iter_jsonl", "read_json")


class Timer:
    """Self time and calls per label, over nested timed calls."""

    def __init__(self):
        self.self_s: dict[str, float] = collections.defaultdict(float)
        self.calls: dict[str, int] = collections.defaultdict(int)
        self._children = [0.0]  # time in timed calls, per open call

    def _run(self, label: str, step, *args, **kwargs):
        self._children.append(0.0)
        start = time.perf_counter()
        try:
            return step(*args, **kwargs)
        finally:
            spent = time.perf_counter() - start
            self.self_s[label] += spent - self._children.pop()
            self._children[-1] += spent

    def wrap(self, label: str, function):
        def timed(*args, **kwargs):
            self.calls[label] += 1
            result = self._run(label, function, *args, **kwargs)
            if isinstance(result, tuple):  # (header, records), (samples, seed)
                result = tuple(self._iterate(label, r) if isinstance(r, Iterator) else r
                               for r in result)
            return result
        return timed

    def _iterate(self, label: str, iterator: Iterator):
        while True:
            try:
                item = self._run(label, next, iterator)
            except StopIteration:
                return
            yield item

    def reset(self) -> None:
        self.self_s.clear()
        self.calls.clear()


def install(timer: Timer) -> None:
    """Time every layer function the stages read and every artifact read
    or write, where the stage code looks them up."""
    for name, target in cli.LAZY_NAMES.items():
        value = getattr(cli, name)  # imports the layer
        if inspect.isfunction(value):
            setattr(cli, name, timer.wrap(target.replace(":", "."), value))
    for name in ARTIFACT_CALLS:
        setattr(artifacts, name, timer.wrap(f"artifacts.{name}", getattr(artifacts, name)))


def run_round(stages, manifest, out, flags, timer):
    """Each stage's (wall seconds, self seconds by label, calls by label);
    None at the first stage that exits 2."""
    results = []
    for stage in stages:
        timer.reset()
        with open(os.devnull, "w") as quiet, contextlib.redirect_stdout(quiet):
            start = time.perf_counter()
            code = cli.main([stage, "--manifest", manifest, "--out", out, *flags])
            wall = time.perf_counter() - start
        if code not in (cli.EXIT_OK, cli.EXIT_FINDINGS):
            print(f"stage {stage} exited {code}", file=sys.stderr)
            return None
        results.append((wall, dict(timer.self_s), dict(timer.calls)))
    return results


def main(argv: list[str]) -> int:
    if len(argv) < 4 or not argv[2].isdigit() or int(argv[2]) < 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    manifest, out, rounds, stages, flags = (
        argv[0], argv[1], int(argv[2]), argv[3].split(","), argv[4:]
    )
    timer = Timer()
    install(timer)
    best = None
    # the first round warms up and is not counted
    for round_number in range(rounds + 1):
        results = run_round(stages, manifest, out, flags, timer)
        if results is None:
            return 2
        if round_number == 0:
            continue
        best = results if best is None else [
            new if new[0] < old[0] else old for new, old in zip(results, best)
        ]
    print(f"best of {rounds} warm rounds, in ms")
    for stage, (wall, self_s, calls) in zip(stages, best):
        print(f"{stage:<40} {wall * 1e3:>10.2f}")
        for label in sorted(self_s, key=self_s.get, reverse=True):
            print(f"  {label:<30} {calls.get(label, 0):>7} {self_s[label] * 1e3:>10.2f}")
        rest = wall - sum(self_s.values())
        print(f"  {'(stage code)':<30} {'':>7} {rest * 1e3:>10.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
