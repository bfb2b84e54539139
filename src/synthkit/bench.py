"""Benchmark harness: load problem/grammar suites, run a synthesizer, report.

A suite is a directory of ``<name>.problem.json`` files plus grammars in the
textual format.  A problem uses ``<name>.herbg`` when present, else the
shared ``default.herbg``.  Problem files look like::

    {
      "name": "01_append_excl",
      "start_symbol": "S",
      "examples": [{"input": {"x": "hello"}, "output": "hello!"}],
      "constraints": ["(forbidden (rule 8 (var a) (var a)))"]
    }

Values are typed by their JSON type: numbers are integers, strings are
strings, true/false are booleans.  Reports serialize to JSON with one record
per problem plus the aggregate solved count.
"""

from __future__ import annotations

import json
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path

from .constraints import Constraint, parse_constraint
from .errors import (
    ConfigError,
    ConstraintSyntaxError,
    GrammarTextError,
    SuiteLoadError,
    SynthkitError,
)
from .grammar import Grammar
from .grammar_text import parse_grammar
from .interpreter import Value
from .iterators import (
    ITERATOR_KINDS, IteratorConfig, SynthFlag, check_bounds, check_timeout, synth
)
from .nodes import serialize_node
from .probe import ProbeConfig, probe_with_stats
from .specification import IOExample, Problem


@dataclass
class ProblemFile:
    """One loaded benchmark task."""

    name: str
    start_symbol: str
    problem: Problem
    constraints: tuple[Constraint, ...] = ()


def _to_value(raw, path: Path, context: str) -> Value:
    """A JSON value as an example value: an integral number such as ``1e30``
    becomes an int; :class:`IOExample` checks the value itself."""
    if isinstance(raw, float):
        if not raw.is_integer():
            raise SuiteLoadError(f"{path}: non-integer number in {context}: {raw!r}")
        return int(raw)
    return raw


def load_problem_file(path: Path) -> ProblemFile:
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise SuiteLoadError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise SuiteLoadError(f"{path}: expected a JSON object")
    name = raw.get("name")
    if name is not None and not isinstance(name, str):
        raise SuiteLoadError(f"{path}: name must be a string, got {name!r}")
    name = name or path.name.removesuffix(".problem.json")
    start_symbol = raw.get("start_symbol")
    if not isinstance(start_symbol, str):
        raise SuiteLoadError(f"{path}: missing start_symbol")
    raw_examples = raw.get("examples")
    if not isinstance(raw_examples, list) or not raw_examples:
        raise SuiteLoadError(f"{path}: a problem needs at least one example")
    examples = []
    variables: set[str] | None = None
    for k, entry in enumerate(raw_examples):
        if not isinstance(entry, dict) or "input" not in entry or "output" not in entry:
            raise SuiteLoadError(f"{path}: example {k} needs 'input' and 'output'")
        if not isinstance(entry["input"], dict):
            raise SuiteLoadError(f"{path}: example {k} input must map variables to values")
        env = {
            var: _to_value(v, path, f"example {k} input")
            for var, v in entry["input"].items()
        }
        if variables is None:
            variables = set(env)
        elif set(env) != variables:
            raise SuiteLoadError(f"{path}: example {k} binds a different variable set")
        output = _to_value(entry["output"], path, f"example {k} output")
        try:
            example = IOExample(env, output)
        except ValueError as exc:
            raise SuiteLoadError(f"{path}: example {k} {exc}") from None
        examples.append(example)
    raw_constraints = raw.get("constraints", [])
    if not isinstance(raw_constraints, list):
        raise SuiteLoadError(f"{path}: constraints must be a list of strings")
    constraints = []
    for text in raw_constraints:
        if not isinstance(text, str):
            raise SuiteLoadError(f"{path}: constraint {text!r} is not a string")
        try:
            constraints.append(parse_constraint(text))
        except ConstraintSyntaxError as exc:
            raise SuiteLoadError(f"{path}: {exc}") from None
    return ProblemFile(name, start_symbol, Problem(name, tuple(examples)), tuple(constraints))


def load_grammar_file(path: Path) -> Grammar:
    path = Path(path)
    try:
        return parse_grammar(path.read_text())
    except GrammarTextError as exc:
        raise SuiteLoadError(f"{path}: {exc}") from None


def get_all_problem_grammar_pairs(suite_dir: Path) -> list[tuple[ProblemFile, Grammar]]:
    """Load a suite directory into (problem, grammar) pairs, sorted by name.

    Problems without a dedicated ``<name>.herbg`` fall back to the shared
    ``default.herbg``; a problem with neither is a load error.
    """
    suite_dir = Path(suite_dir)
    if not suite_dir.is_dir():
        raise SuiteLoadError(f"{suite_dir}: not a directory")
    default_path = suite_dir / "default.herbg"
    default_grammar = load_grammar_file(default_path) if default_path.exists() else None
    pairs = []
    for problem_path in sorted(suite_dir.glob("*.problem.json")):
        name = problem_path.name.removesuffix(".problem.json")
        problem = load_problem_file(problem_path)
        dedicated = suite_dir / f"{name}.herbg"
        if dedicated.exists():
            grammar = load_grammar_file(dedicated)
        elif default_grammar is not None:
            grammar = default_grammar
        else:
            raise SuiteLoadError(f"{problem_path}: no grammar ({name}.herbg or default.herbg)")
        pairs.append((problem, grammar))
    return pairs


@dataclass
class SynthesizerSpec:
    """Which synthesizer to run per problem and its budgets."""

    kind: str  # iterator kind or "probe"
    max_depth: int | None = None
    max_size: int | None = None
    max_enumerations: int | None = None
    probe_cycles: int = 3
    allow_evaluation_errors: bool = True

    def __post_init__(self):
        if self.kind not in ITERATOR_KINDS + ("probe",):
            raise SuiteLoadError(f"unknown synthesizer kind {self.kind!r}")
        if self.kind == "probe" and self.max_size is not None:
            raise SuiteLoadError("probe takes no max_size; bound it with max_depth")
        if self.probe_cycles < 0:
            raise SuiteLoadError(f"probe cycles must be non-negative, got {self.probe_cycles}")
        check_bounds(self.kind, self.max_depth, self.max_size, self.max_enumerations)


@dataclass
class ProblemRecord:
    name: str
    solved: bool
    flag: str
    wall_time_seconds: float
    enumerated: int
    program: str | None = None
    error: str | None = None


@dataclass
class SuiteReport:
    problems: list[ProblemRecord] = field(default_factory=list)
    solved_problems: int = 0
    total: int = 0

    def to_json(self) -> str:
        records = []
        for record in self.problems:
            entry = {
                "name": record.name,
                "solved": record.solved,
                "flag": record.flag,
                "wall_time_seconds": record.wall_time_seconds,
                "enumerated": record.enumerated,
                "program": record.program,
            }
            if record.error is not None:
                entry["error"] = record.error
            records.append(entry)
        payload = {
            "problems": records,
            "solved_problems": self.solved_problems,
            "total": self.total,
        }
        return json.dumps(payload, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "SuiteReport":
        payload = json.loads(text)
        problems = [
            ProblemRecord(
                name=entry["name"],
                solved=entry["solved"],
                flag=entry["flag"],
                wall_time_seconds=entry["wall_time_seconds"],
                enumerated=entry["enumerated"],
                program=entry.get("program"),
                error=entry.get("error"),
            )
            for entry in payload["problems"]
        ]
        return cls(problems, payload["solved_problems"], payload["total"])


def _run_probe(problem_file: ProblemFile, grammar: Grammar, spec: SynthesizerSpec, timeout: float):
    config = ProbeConfig(
        probe_cycles=spec.probe_cycles,
        max_depth=spec.max_depth,
        max_enumerations=(
            ProbeConfig.max_enumerations if spec.max_enumerations is None else spec.max_enumerations
        ),
        allow_evaluation_errors=spec.allow_evaluation_errors,
        constraints=problem_file.constraints,
    )
    run = probe_with_stats(
        grammar, problem_file.start_symbol, problem_file.problem, config, timeout
    )
    if run.program is not None:
        flag = SynthFlag.optimal_program
        program = serialize_node(run.program)
    else:
        flag = SynthFlag.no_program
        program = None
    return flag, program, run.enumerated, run.timed_out


def _run_iterator(problem_file: ProblemFile, grammar: Grammar, spec: SynthesizerSpec, timeout: float):
    config = IteratorConfig(
        spec.kind,
        grammar,
        problem_file.start_symbol,
        max_depth=spec.max_depth,
        max_size=spec.max_size,
        max_enumerations=spec.max_enumerations,
        constraints=problem_file.constraints,
    )
    result = synth(
        problem_file.problem,
        config,
        allow_evaluation_errors=spec.allow_evaluation_errors,
        timeout_seconds=timeout,
    )
    program = serialize_node(result.program) if result.program is not None else None
    return result.flag, program, result.stats.enumerated, result.stats.timed_out


def run_one(problem_file: ProblemFile, grammar: Grammar, spec: SynthesizerSpec, timeout: float) -> ProblemRecord:
    check_timeout(timeout)
    started = time.monotonic()
    try:
        if spec.kind == "probe":
            flag, program, enumerated, timed_out = _run_probe(problem_file, grammar, spec, timeout)
        else:
            flag, program, enumerated, timed_out = _run_iterator(problem_file, grammar, spec, timeout)
    except SynthkitError as exc:
        elapsed = min(time.monotonic() - started, timeout)
        return ProblemRecord(
            problem_file.name, False, SynthFlag.no_program.value, elapsed,
            exc.enumerated, None, str(exc),
        )
    if timed_out:
        # A timed-out run is recorded unsolved at exactly the budget.
        return ProblemRecord(
            problem_file.name, False, SynthFlag.no_program.value, timeout, enumerated, None
        )
    elapsed = min(time.monotonic() - started, timeout)
    solved = flag == SynthFlag.optimal_program
    return ProblemRecord(problem_file.name, solved, flag.value, elapsed, enumerated, program)


def run_suite(
    pairs: list[tuple[ProblemFile, Grammar]],
    spec: SynthesizerSpec,
    timeout_seconds: float = 10.0,
    parallelism: int = 1,
) -> SuiteReport:
    """Run the synthesizer over every pair and aggregate the records.

    Problems are independent; with ``parallelism > 1`` they run in a pool
    of that many worker processes, each against its own grammar copy, and
    the report keeps suite order either way.  Workers are spawned, not
    forked, so a caller's threads cannot leave them holding a copied lock.
    A negative timeout or a parallelism below 1 raises ConfigError before
    any problem runs.
    """
    check_timeout(timeout_seconds)
    if parallelism < 1:
        raise ConfigError(f"parallelism must be at least 1, got {parallelism}")
    if parallelism > 1 and len(pairs) > 1:
        problem_files, grammars = zip(*pairs)
        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=parallelism, mp_context=spawn) as pool:
            records = list(pool.map(
                run_one, problem_files, grammars, repeat(spec), repeat(timeout_seconds)
            ))
    else:
        records = [run_one(file, grammar, spec, timeout_seconds) for file, grammar in pairs]
    solved = sum(1 for record in records if record.flag == SynthFlag.optimal_program.value)
    return SuiteReport(records, solved, len(records))
