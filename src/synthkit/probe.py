"""Guided search by grammar reweighting.

Each cycle enumerates programs most-likely-first under the current rule
probabilities and scores every candidate by the fraction of examples it
solves (its fitness).  A program solving all examples ends the search.
Otherwise the probabilities of rules occurring in promising programs --
those with fitness above zero -- are boosted for the next cycle:

    p_new(r)  proportional to  p_old(r) ** (1 - Fit(r))

where ``Fit(r)`` is the best fitness among promising programs using rule
``r`` (0 for unused rules), renormalized within each nonterminal.  The
exponent form is the single extension point of this module.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Optional

from .constraints import Constraint
from .errors import ConfigError
from .grammar import Grammar, set_uniform_probabilities
from .interpreter import output_vector, run_examples, values_equal
# Unused here, but kept as names the benchmark tracer patches on this module.
from .interpreter import evaluate, to_expression  # noqa: F401
from .iterators import IteratorConfig, SynthFlag, make_iterator
from .nodes import Node, RuleNode, node_count, subtrees
from .specification import Problem


@dataclass(frozen=True)
class PromisingProgram:
    """A complete program solving at least one example, with its fitness."""

    program: RuleNode
    fitness: float


@dataclass
class ProbeConfig:
    probe_cycles: int = 3
    max_depth: int | None = None
    max_enumerations: int = 5000
    allow_evaluation_errors: bool = True
    constraints: tuple[Constraint, ...] = ()


@dataclass
class ProbeRun:
    """Full outcome of a probe search, for harnesses that track budgets."""

    program: Node | None
    cycles_completed: int
    enumerated: int
    timed_out: bool = False


def _require_examples(problem: Problem) -> None:
    if not problem.examples:
        raise ValueError("scoring by fitness needs a problem with at least one example")


def fitness(program: Node, grammar: Grammar, problem: Problem) -> float:
    """Fraction of the problem's examples the program solves."""
    _require_examples(problem)
    solved, total = run_examples(grammar, program, problem, allow_errors=True)
    return solved / total


def _collect_promising(
    config: IteratorConfig,
    problem: Problem,
    deadline: float | None = None,
    allow_evaluation_errors: bool = True,
) -> tuple[set[PromisingProgram], SynthFlag, int]:
    grammar = config.grammar
    expected = [example.output for example in problem.examples]
    # Best representative per output vector: max fitness, then fewest nodes.
    by_vector: dict[tuple, tuple[float, int, int, RuleNode]] = {}
    enumerated = 0
    for program in make_iterator(config, deadline=deadline):
        enumerated += 1
        vector = output_vector(grammar, program, problem, allow_evaluation_errors)
        fit = sum(map(values_equal, vector, expected)) / len(expected)
        if fit == 1.0:
            return {PromisingProgram(program, 1.0)}, SynthFlag.optimal_program, enumerated
        if fit <= 0.0:
            continue
        size = node_count(program)
        candidate = (fit, size, enumerated, program)
        held = by_vector.get(vector)
        if held is None or (fit, -size) > (held[0], -held[1]):
            by_vector[vector] = candidate
    promising = {PromisingProgram(prog, fit) for fit, _, _, prog in by_vector.values()}
    flag = SynthFlag.suboptimal_program if promising else SynthFlag.no_program
    return promising, flag, enumerated


def get_promising_programs_with_fitness(
    config: IteratorConfig, problem: Problem, allow_evaluation_errors: bool = True
) -> tuple[set[PromisingProgram], SynthFlag]:
    """Run one enumeration budget and keep the partially solving programs.

    Stops at the first program with fitness 1.0, returning just that program
    under ``optimal_program``.  Otherwise the set holds one representative
    per distinct output vector (highest fitness, then smallest program).
    """
    _require_examples(problem)
    promising, flag, _ = _collect_promising(
        config, problem, allow_evaluation_errors=allow_evaluation_errors
    )
    return promising, flag


def _rules_used(program: Node) -> set[int]:
    return {sub.rule for sub in subtrees(program)}


def modify_grammar_probe(
    promising: Iterable[PromisingProgram], grammar: Grammar
) -> Grammar:
    """Reweight rule probabilities toward high-fitness programs.

    Unused rules keep their probability before renormalization, so an empty
    promising set returns an equivalent grammar.
    """
    if not grammar.has_probabilities:
        raise ConfigError("probe reweighting needs a grammar with probabilities")
    best_fit = {i: 0.0 for i in grammar.indices}
    for entry in promising:
        for rule in _rules_used(entry.program):
            if entry.fitness > best_fit[rule]:
                best_fit[rule] = entry.fitness
    unnormalized = [
        grammar.probability(i) ** (1.0 - best_fit[i]) for i in grammar.indices
    ]
    probabilities = list(unnormalized)
    for symbol in grammar.nonterminals:
        ids = grammar.rules_for(symbol)
        total = sum(unnormalized[i - 1] for i in ids)
        for i in ids:
            probabilities[i - 1] = unnormalized[i - 1] / total
    return grammar.with_probabilities(probabilities)


def probe_with_stats(
    grammar: Grammar,
    start_symbol: str,
    problem: Problem,
    config: ProbeConfig | None = None,
    timeout_seconds: float | None = None,
) -> ProbeRun:
    """Run probe cycles, reporting the budget spent alongside the result.

    A cycle the deadline cut short is not counted as completed, and the
    grammar is not reweighted on its partial promising set.
    """
    _require_examples(problem)
    config = config or ProbeConfig()
    deadline = None if timeout_seconds is None else time.monotonic() + timeout_seconds
    current = grammar if grammar.has_probabilities else set_uniform_probabilities(grammar)
    enumerated = 0
    for cycle in range(config.probe_cycles):
        iterator_config = IteratorConfig(
            "mlfs",
            current,
            start_symbol,
            max_depth=config.max_depth,
            max_enumerations=config.max_enumerations,
            constraints=config.constraints,
        )
        promising, flag, count = _collect_promising(
            iterator_config, problem, deadline, config.allow_evaluation_errors
        )
        enumerated += count
        if flag == SynthFlag.optimal_program:
            (winner,) = promising
            return ProbeRun(winner.program, cycle + 1, enumerated)
        if deadline is not None and time.monotonic() >= deadline:
            return ProbeRun(None, cycle, enumerated, timed_out=True)
        current = modify_grammar_probe(promising, current)
    return ProbeRun(None, config.probe_cycles, enumerated)


def probe(
    grammar: Grammar,
    start_symbol: str,
    problem: Problem,
    config: ProbeConfig | None = None,
    timeout_seconds: float | None = None,
) -> Optional[Node]:
    """The probe loop: enumerate, reweight, repeat; ``None`` if no solution."""
    return probe_with_stats(grammar, start_symbol, problem, config, timeout_seconds).program
