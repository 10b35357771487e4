"""Seeded SARD-style corpus generator for the benchmark workloads.

Programs reuse the eight vulnerability templates of
``tools/gen_mini_corpus.py`` (imported, not copied), so generated code
stays in the distribution the bundled mini corpus trains on. Each
program holds one to three template functions, each flawed or guarded;
the manifest records the class (good, bad or mixed) and the vulnerable
lines, which is the ground truth the ``label`` stage reads.

The seed decides which program gets which functions, but not how many
of each there are: the shares of one-, two- and three-function programs
are exact, and the functions are dealt from shuffled decks holding every
(template, flawed) pair once. So the corpus size, and with it the
workload's SeVC count, barely moves from seed to seed.

Identifiers are neutral: function names are drawn from a word list
that says nothing about the class, and variable names and capacity
constants are drawn by the seed independently of the class, so no
token of the source text leaks the label. The same (count, seed) gives
the same bytes.
"""

from __future__ import annotations

import importlib.util
import json
import os
import random

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MINI_GENERATOR = os.path.join(REPO_ROOT, "tools", "gen_mini_corpus.py")

VERBS = ("load", "copy", "route", "fill", "parse", "emit", "stage", "merge",
         "scan", "build", "apply", "relay")
NOUNS = ("entry", "block", "field", "chunk", "token", "packet", "line",
         "header", "item", "unit", "node", "page")
CAPS = (16, 32, 64)
# shares of programs holding one, two and three functions
FUNCTIONS_PER_PROGRAM = ((1, 0.6), (2, 0.3), (3, 0.1))


def _load_mini_generator():
    spec = importlib.util.spec_from_file_location("gen_mini_corpus", MINI_GENERATOR)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _program_sizes(count: int, rng: random.Random) -> list[int]:
    """Functions per program, in exactly the FUNCTIONS_PER_PROGRAM shares."""
    sizes: list[int] = []
    reach = 0.0
    for functions, share in FUNCTIONS_PER_PROGRAM:
        reach += share
        sizes.extend([functions] * (round(reach * count) - len(sizes)))
    rng.shuffle(sizes)
    return sizes


def generate(out_dir: str, count: int, seed: int) -> str:
    """Write ``count`` programs and ``manifest.json``; returns the manifest path."""
    mini = _load_mini_generator()
    templates = mini.build_templates()
    pairs = [(pattern, flawed) for pattern in sorted(templates) for flawed in (True, False)]
    rng = random.Random(seed)
    deck: list[tuple[str, bool]] = []
    os.makedirs(out_dir, exist_ok=True)
    programs = []
    for index, functions in enumerate(_program_sizes(count, rng)):
        lines: list[str] = []
        vulnerable: list[int] = []
        flaws = []
        used_names: set[str] = set()
        for _ in range(functions):
            if not deck:
                deck = rng.sample(pairs, len(pairs))
            pattern, flawed = deck.pop()
            bad_fn, good_fn = templates[pattern]
            names = dict(rng.choice(mini.NAME_SETS))
            names["cap"] = rng.choice(CAPS)
            while True:
                fn = f"{rng.choice(VERBS)}_{rng.choice(NOUNS)}{rng.randrange(100)}"
                if fn not in used_names:
                    break
            used_names.add(fn)
            names["fn"] = fn
            body, vuln = (bad_fn if flawed else good_fn)(names)
            if lines:
                lines.append("")
            offset = len(lines)
            vulnerable.extend(offset + line for line in vuln)
            lines.extend(body)
            flaws.append(flawed)
        name = f"p{index:05d}.c"
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        klass = "bad" if all(flaws) else "good" if not any(flaws) else "mixed"
        record = {"path": name, "class": klass}
        if vulnerable:
            record["vulnerable_lines"] = sorted(vulnerable)
        programs.append(record)
    manifest = os.path.join(out_dir, "manifest.json")
    with open(manifest, "w", encoding="utf-8") as handle:
        json.dump({"corpus_root": ".", "programs": programs}, handle, indent=2,
                  sort_keys=True)
        handle.write("\n")
    return manifest
