"""Seeded programming-by-example tasks for the ``pbe-*`` workloads.

Each task is a random target program of 5 to 11 nodes drawn uniformly by
size from one of the two bundled grammars, run on seeded inputs by the
reference evaluator (:func:`generate` says which parts the seed picks).
A target is dropped when it fails on an input, when its output is the
same on every input, when some program of at most three nodes already
fits its examples (such tasks are solved almost at once by every search
and measure nothing but start-up), or when an earlier task has the same
examples.  Each task is written as ``<name>.problem.json``
with a copy of its grammar, so synthkit loads the directory as a suite,
and ``manifest.json`` records the target and why it was kept.
"""

from __future__ import annotations

import json
import random
import string
from dataclasses import dataclass
from pathlib import Path

from reference import RefGrammar, exact_counter, list_programs, sample_program, text_of

TARGET_SIZES = range(5, 12)
TRIVIAL_SIZE = 3
EXAMPLES = 5
INPUT_DRAWS = 4


@dataclass(frozen=True)
class Family:
    """One object language: its grammar file, start symbol and input maker."""

    name: str
    grammar_path: str
    start: str
    max_depth: int

    def inputs(self, rng: random.Random) -> list[dict]:
        if self.start == "Int":
            xs = rng.sample(range(-4, 10), EXAMPLES)
            return [{"x": x} for x in xs]
        alphabet = string.ascii_lowercase[:6] + " -."
        words = set()
        while len(words) < EXAMPLES:
            words.add("".join(rng.choice(alphabet) for _ in range(rng.randint(2, 8))))
        return [{"x": w} for w in sorted(words)]


FAMILIES = (
    Family("arith", "suites/arith/default.herbg", "Int", 4),
    Family("strings", "suites/mini-strings/default.herbg", "S", 4),
)


@dataclass
class Task:
    name: str
    family: Family
    target: tuple
    inputs: list
    outputs: tuple


def _fits(grammar: RefGrammar, target, inputs, small, seen):
    """The target's outputs on ``inputs`` if they make a task worth keeping."""
    outputs = grammar.outputs(target, inputs)
    if outputs is None or len(set(outputs)) == 1 or outputs in seen:
        return None
    if any(grammar.outputs(p, inputs) == outputs for p in small):
        return None
    return outputs


class Catalogue:
    """Candidate targets per task index, from fixed streams; kept once drawn.

    Candidate ``j`` of task ``i`` is the ``j``-th program of ``i``'s target
    size read from the stream ``catalogue/<family>/<i>``, skipping programs
    that never read the input.  No seed enters here, so the catalogue is
    drawn once per run, before anything is timed.
    """

    def __init__(self, family: Family, grammar: RefGrammar):
        self.family = family
        self.grammar = grammar
        self._exact = exact_counter(grammar)
        self.sizes = [k for k in TARGET_SIZES if self._exact(family.start, family.max_depth, k)]
        self.small = list_programs(grammar, family.start, TRIVIAL_SIZE, TRIVIAL_SIZE)
        self._streams: dict[int, random.Random] = {}
        self._drawn: dict[int, list] = {}

    def candidate(self, i: int, j: int):
        drawn = self._drawn.setdefault(i, [])
        stream = self._streams.setdefault(i, random.Random(f"catalogue/{self.family.name}/{i}"))
        size = self.sizes[i % len(self.sizes)]
        while len(drawn) <= j:
            target = sample_program(
                self.grammar, self._exact, self.family.start, self.family.max_depth, size, stream
            )
            if self.grammar.reads_input(target):
                drawn.append(target)
        return drawn[j]


def generate(catalogue: Catalogue, count: int, seed: int) -> list[Task]:
    """``count`` tasks of one family; the same seed gives the same tasks.

    Task ``i`` takes the first candidate target of the catalogue for which
    one of ``INPUT_DRAWS`` seeded input sets passes the filters.  So the
    seed changes every task's examples, while the targets, and with them
    the mix of easy and hard tasks, stay mostly the same from one seed to
    the next; target sizes take turns (arith has odd sizes only).
    """
    family, grammar = catalogue.family, catalogue.grammar
    tasks: list[Task] = []
    seen: set = set()
    for i in range(count):
        draws = random.Random(f"{seed}/{family.name}/{i}")
        for j in range(1000):
            target = catalogue.candidate(i, j)
            for _ in range(INPUT_DRAWS):
                inputs = family.inputs(draws)
                outputs = _fits(grammar, target, inputs, catalogue.small, seen)
                if outputs is not None:
                    break
            if outputs is not None:
                break
        else:
            raise RuntimeError(f"could not draw {family.name} task {i}")
        seen.add(outputs)
        tasks.append(Task(f"{family.name}_{i:03d}", family, target, inputs, outputs))
    return tasks


def write_suite(root: Path, family: Family, tasks: list[Task], out_dir: Path) -> None:
    """Write tasks as a synthkit suite directory with a manifest."""
    out_dir.mkdir(parents=True, exist_ok=True)
    for stale in out_dir.glob("*.problem.json"):
        stale.unlink()
    (out_dir / "default.herbg").write_text((root / family.grammar_path).read_text())
    manifest = []
    for task in tasks:
        problem = {
            "name": task.name,
            "start_symbol": family.start,
            "examples": [
                {"input": env, "output": out} for env, out in zip(task.inputs, task.outputs)
            ],
        }
        (out_dir / f"{task.name}.problem.json").write_text(json.dumps(problem) + "\n")
        manifest.append({
            "name": task.name,
            "target": text_of(task.target),
            "kept": (
                f"{len(set(task.outputs))} distinct outputs on {len(task.inputs)} inputs, "
                f"no evaluation error, no program of <= {TRIVIAL_SIZE} nodes fits"
            ),
        })
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")
