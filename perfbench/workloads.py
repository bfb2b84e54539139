"""The four workloads: what each sets up, runs in one round, and checks.

A round is the workload's whole fixed work, split into units: one unit per
enumeration pass (``enum-*``) or per task and synthesizer (``pbe-*``).
Every round does the same units in the same order, so a run's rounds can
be compared unit by unit.  Every output is checked against
:mod:`reference` after the timed part; a mismatch is a failed operation.
"""

from __future__ import annotations

import gc
import itertools
import random
import signal
import time
from dataclasses import dataclass, field
from pathlib import Path

import reference as ref
import taskgen

BLOCK = 10  # programs per timed request on the enum-* workloads
BACKSTOP_S = 10.0  # wall-clock limit per task, on top of its enumeration budget
PASS_BACKSTOP_S = 45.0  # wall-clock limit per exhaustive enumeration pass
ORDERED = (
    "(ordered (rule 4 (var a) (var b)) (a b))",
    "(ordered (rule 5 (var a) (var b)) (a b))",
)
FORBIDDEN = ("(forbidden (rule 4 (var a) (var a)))",)


@dataclass
class Unit:
    """One timed unit of work: a pass or a task run.

    ``start`` is a ``time.perf_counter`` reading; ``blocks`` holds the
    (start, seconds) of each block of programs a pass emitted (enum-* only).
    """

    start: float
    seconds: float
    programs: int
    solved: bool
    blocks: list = field(default_factory=list)


@dataclass
class RoundResult:
    """The units one round ran, in order, and what failed."""

    units: list = field(default_factory=list)
    failures: list = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.units)

    @property
    def failed(self) -> int:
        return len(self.failures)


@dataclass(frozen=True)
class Scale:
    """Bounds of one size of the benchmark (full, or tiny for smoke runs)."""

    plain: tuple  # ((family, max_depth, max_size), ...)
    constrained: tuple  # (max_depth, max_size)
    topdown_tasks: int  # per family
    bottomup_tasks: int  # per family; the first ``topdown_tasks`` are the same tasks
    probe_budget: int
    bfs_budget: int
    bottom_up_budget: int
    bottom_up_size: int


FULL = Scale((("arith", 4, 9), ("strings", 3, 6)), (4, 7), 70, 140, 300, 600, 300, 11)
SMOKE = Scale((("arith", 3, 5), ("strings", 2, 4)), (3, 5), 6, 6, 60, 100, 100, 7)

_FAMILIES = {family.name: family for family in taskgen.FAMILIES}


class _Alarm(Exception):
    """The wall-clock backstop fired inside a task."""


def _raise_alarm(signum, frame):
    raise _Alarm()


class Workload:
    """Common shape: ``setup`` (timed, repeatable) and ``run_round`` (measured)."""

    def __init__(self, sk, root: Path, seed: int, scale: Scale, work_dir: Path, clock):
        self.sk = sk
        self.clock = clock
        self.root = root
        self.seed = seed
        self.scale = scale
        self.work_dir = work_dir
        self.deadline = float("inf")  # perf_counter reading after which no unit starts
        self.ref_grammars = {
            name: ref.load_grammar(root / family.grammar_path) for name, family in _FAMILIES.items()
        }

    def setup(self):
        raise NotImplementedError

    def run_round(self, state, tracer) -> RoundResult:
        raise NotImplementedError

    def out_of_time(self, result: RoundResult) -> bool:
        """Past the deadline: record that the round stopped short."""
        if time.perf_counter() <= self.deadline:
            return False
        result.failures.append("the run's time limit passed before the round finished")
        return True


# -- enumeration workloads ------------------------------------------------------


@dataclass
class _Pass:
    """One exhaustive enumeration: iterator kind, grammar, bounds, constraints."""

    kind: str
    family: str
    max_depth: int
    max_size: int
    constraints: tuple


class EnumWorkload(Workload):
    """Exhaustive bfs/dfs/mlfs passes; every emitted set is checked exactly."""

    def __init__(self, sk, root, seed, scale, work_dir, clock):
        super().__init__(sk, root, seed, scale, work_dir, clock)
        rng = random.Random(seed)
        self.probabilities = {
            name: ref.seeded_probabilities(g, rng) for name, g in self.ref_grammars.items()
        }
        self.passes = [
            _Pass(kind, family, depth, size, constraints)
            for family, depth, size, constraints in self.pass_bounds()
            for kind in ("bfs", "dfs", "mlfs")
        ]
        rng.shuffle(self.passes)
        self.expected = {}
        for p in self.passes:
            key = (p.family, p.max_depth, p.max_size, p.constraints)
            if key not in self.expected:
                self.expected[key] = self._reference_set(*key)

    def pass_bounds(self):
        raise NotImplementedError

    def _reference_set(self, family, max_depth, max_size, constraints) -> set:
        grammar = self.ref_grammars[family]
        start = _FAMILIES[family].start
        programs = ref.list_programs(grammar, start, max_depth, max_size)
        if len(programs) != ref.count_programs(grammar, start, max_depth, max_size):
            raise AssertionError("reference lister and counter disagree")
        checks = [ref.RefConstraint(text) for text in constraints]
        return {ref.text_of(p) for p in programs if ref.satisfies(checks, p)}

    def setup(self):
        sk = self.sk
        grammars = {
            name: sk.grammar_text.parse_grammar(ref.weighted_text(g, self.probabilities[name]))
            for name, g in self.ref_grammars.items()
        }
        configs = []
        for p in self.passes:
            config = sk.iterators.IteratorConfig(
                p.kind,
                grammars[p.family],
                _FAMILIES[p.family].start,
                max_depth=p.max_depth,
                max_size=p.max_size,
                constraints=tuple(sk.constraints.parse_constraint(t) for t in p.constraints),
            )
            sk.iterators.make_iterator(config)
            configs.append(config)
        return configs

    def run_round(self, configs, tracer) -> RoundResult:
        result = RoundResult()
        for task_id, (p, config) in enumerate(zip(self.passes, configs)):
            if self.out_of_time(result):
                break
            if tracer is not None:
                tracer.task_id = task_id
            gc.collect()
            self.clock.tick()
            start = time.perf_counter()
            texts, blocks = [], []
            finished, _ = _under_backstop(lambda: self._pass(config, texts, blocks), PASS_BACKSTOP_S)
            seconds = sum(duration for _, duration in blocks)
            problem = self._check(p, texts) if finished else f"overran {PASS_BACKSTOP_S} s"
            result.units.append(Unit(start, seconds, len(texts), problem is None, blocks))
            if problem:
                result.failures.append(
                    f"{p.kind} {p.family} d<={p.max_depth} s<={p.max_size}: {problem}"
                )
        return result

    def _pass(self, config, texts, blocks) -> bool:
        """Drain one iterator in timed blocks, keeping each program's text."""
        last = time.perf_counter()
        stream = iter(self.sk.iterators.make_iterator(config))
        while True:
            block = list(itertools.islice(stream, BLOCK))
            now = time.perf_counter()
            blocks.append((last, now - last))
            if not block:
                return True
            # Keep text only: retained trees would make the collector's work
            # in later blocks depend on how much this pass already emitted.
            texts.extend(ref.text_of(program) for program in block)
            del block
            self.clock.tick()
            last = time.perf_counter()

    def _check(self, p: _Pass, texts) -> str | None:
        expected = self.expected[(p.family, p.max_depth, p.max_size, p.constraints)]
        if len(texts) != len(expected):
            return f"emitted {len(texts)} programs, expected {len(expected)}"
        emitted = set(texts)
        if len(emitted) != len(texts):
            return f"{len(texts) - len(emitted)} duplicate programs"
        if emitted != expected:
            return f"{len(emitted - expected)} programs outside the expected set"
        if p.kind == "mlfs":
            log_probs = ref.logs(self.probabilities[p.family])
            values = [ref.log_probability(ref.parse_text(t), log_probs) for t in texts]
            for i, (a, b) in enumerate(zip(values, values[1:])):
                if b > a + 1e-9:
                    return f"log-probability rises at program {i + 1}: {a} -> {b}"
        return None


class EnumPlain(EnumWorkload):
    """No constraints, no examples: splitting and materialization only."""

    def pass_bounds(self):
        return [(family, depth, size, ()) for family, depth, size in self.scale.plain]


class EnumConstrained(EnumWorkload):
    """Commutativity (ordered) and forbidden-pattern constraints on arith."""

    def pass_bounds(self):
        depth, size = self.scale.constrained
        return [("arith", depth, size, ORDERED), ("arith", depth, size, FORBIDDEN)]


# -- programming-by-example workloads --------------------------------------------


class PbeWorkload(Workload):
    """Seeded tasks from both grammars, loaded by synthkit as suites."""

    tasks_per_family = 0
    max_program_size = None

    def __init__(self, sk, root, seed, scale, work_dir, clock):
        super().__init__(sk, root, seed, scale, work_dir, clock)
        self.suite_dirs = {name: work_dir / name for name in _FAMILIES}
        self.catalogues = {
            name: taskgen.Catalogue(family, self.ref_grammars[name])
            for name, family in _FAMILIES.items()
        }
        self.tasks = self._generate()

    def _generate(self) -> dict:
        tasks = {}
        for family in taskgen.FAMILIES:
            drawn = taskgen.generate(
                self.catalogues[family.name], self.tasks_per_family, self.seed
            )
            taskgen.write_suite(self.root, family, drawn, self.suite_dirs[family.name])
            tasks.update((task.name, task) for task in drawn)
        return tasks

    def setup(self):
        sk = self.sk
        self.tasks = self._generate()
        pairs = []
        for family in taskgen.FAMILIES:
            loaded = sk.bench.get_all_problem_grammar_pairs(self.suite_dirs[family.name])
            for problem_file, grammar in loaded:
                pairs.append((family, problem_file, grammar))
                for config in self.configs(family, problem_file, grammar):
                    sk.iterators.make_iterator(config, problem=problem_file.problem)
        random.Random(self.seed).shuffle(pairs)
        return pairs

    def configs(self, family, problem_file, grammar):
        raise NotImplementedError

    def solve(self, family, problem_file, grammar):
        """Yield (label, budget, call) per synthesizer; ``call()`` returns
        (solved, program text or None, enumerated, error or None)."""
        raise NotImplementedError

    def run_round(self, pairs, tracer) -> RoundResult:
        result = RoundResult()
        for task_id, (family, problem_file, grammar) in enumerate(pairs):
            task = self.tasks[problem_file.name]
            for label, budget, call in self.solve(family, problem_file, grammar):
                if self.out_of_time(result):
                    return result
                if tracer is not None:
                    tracer.task_id = task_id
                self.clock.tick()
                start = time.perf_counter()
                outcome, elapsed = _under_backstop(call, BACKSTOP_S + 1.0)
                where = f"{label} {task.name}"
                if outcome is None or elapsed >= BACKSTOP_S:
                    result.units.append(Unit(start, elapsed, 0, False))
                    result.failures.append(f"{where}: overran the {BACKSTOP_S} s backstop")
                    continue
                solved, text, enumerated, error = outcome
                result.units.append(Unit(start, elapsed, enumerated, solved))
                problem = None
                if error is not None:
                    problem = f"error {error}"
                elif enumerated > budget:
                    problem = f"enumerated {enumerated} over the budget {budget}"
                elif solved:
                    problem = self._check_program(task, text)
                if problem:
                    result.failures.append(f"{where}: {problem}")
        return result

    def _check_program(self, task, text) -> str | None:
        program = ref.parse_text(text)
        if ref.depth_of(program) > task.family.max_depth:
            return f"program {text} deeper than {task.family.max_depth}"
        if self.max_program_size is not None and ref.size_of(program) > self.max_program_size:
            return f"program {text} larger than {self.max_program_size}"
        grammar = self.ref_grammars[task.family.name]
        if grammar.outputs(program, task.inputs) != task.outputs:
            return f"program {text} does not fit the examples"
        return None


def _under_backstop(call, limit: float):
    """Run ``call``, interrupting it after ``limit`` seconds of wall time.

    Returns (value, seconds); value is ``None`` when the alarm fired.
    """
    previous = signal.signal(signal.SIGALRM, _raise_alarm)
    signal.setitimer(signal.ITIMER_REAL, limit)
    start = time.perf_counter()
    try:
        value = call()
    except _Alarm:
        value = None
    finally:
        elapsed = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return value, elapsed


class PbeTopDown(PbeWorkload):
    """Each task through ``bench.run_one`` with probe and with bfs."""

    @property
    def tasks_per_family(self):
        return self.scale.topdown_tasks

    def configs(self, family, problem_file, grammar):
        iterators = self.sk.iterators
        uniform = self.sk.grammar.set_uniform_probabilities(grammar)
        return (
            iterators.IteratorConfig("mlfs", uniform, problem_file.start_symbol,
                                     max_depth=family.max_depth,
                                     max_enumerations=self.scale.probe_budget),
            iterators.IteratorConfig("bfs", grammar, problem_file.start_symbol,
                                     max_depth=family.max_depth,
                                     max_enumerations=self.scale.bfs_budget),
        )

    def solve(self, family, problem_file, grammar):
        bench = self.sk.bench
        probe = bench.SynthesizerSpec(
            "probe", max_depth=family.max_depth, max_enumerations=self.scale.probe_budget
        )
        bfs = bench.SynthesizerSpec(
            "bfs", max_depth=family.max_depth, max_enumerations=self.scale.bfs_budget
        )
        for label, spec, budget in (
            ("probe", probe, self.scale.probe_budget * probe.probe_cycles),
            ("bfs", bfs, self.scale.bfs_budget),
        ):
            def call(spec=spec):
                record = bench.run_one(problem_file, grammar, spec, BACKSTOP_S)
                return record.solved, record.program, record.enumerated, record.error

            yield label, budget, call


class PbeBottomUp(PbeWorkload):
    """Each task through ``synth`` with a bottom-up bank and observational equivalence."""

    @property
    def tasks_per_family(self):
        return self.scale.bottomup_tasks

    @property
    def max_program_size(self):
        return self.scale.bottom_up_size

    def configs(self, family, problem_file, grammar):
        return (self.sk.iterators.IteratorConfig(
            "bottom_up", grammar, problem_file.start_symbol,
            max_depth=family.max_depth,
            max_size=self.scale.bottom_up_size,
            max_enumerations=self.scale.bottom_up_budget,
            observational_equivalence=True,
        ),)

    def solve(self, family, problem_file, grammar):
        sk = self.sk
        (config,) = self.configs(family, problem_file, grammar)

        def call():
            try:
                result = sk.iterators.synth(
                    problem_file.problem, config, timeout_seconds=BACKSTOP_S
                )
            except sk.errors.SynthkitError as exc:
                return False, None, 0, exc
            if result.flag != sk.iterators.SynthFlag.optimal_program:
                return False, None, result.stats.enumerated, None
            return True, ref.text_of(result.program), result.stats.enumerated, None

        yield "bottom_up", self.scale.bottom_up_budget, call


WORKLOADS = {
    "enum-plain": EnumPlain,
    "enum-constrained": EnumConstrained,
    "pbe-topdown": PbeTopDown,
    "pbe-bottomup": PbeBottomUp,
}
