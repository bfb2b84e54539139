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

Short of the deadline, a cycle's outcome depends only on the grammar, the
problem and the config, and the grammar's state is its rule structure plus
its log-probabilities.  So when reweighting returns log-probabilities that
a cycle of the search already had, every later cycle would repeat a
searched one, and the search stops there.  That happens at a fixed point,
where reweighting leaves the grammar as it is (as reweighting an empty
promising set always does), and where rounding makes the grammar swing
between two values a last bit apart.  The grammar is not reweighted after
the last cycle.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from operator import eq
from typing import Iterable, Optional

from .constraints import Constraint
from .errors import ConfigError, SynthkitError
from .grammar import Grammar, set_uniform_probabilities
from .interpreter import EVAL_ERROR, output_key, run_examples, values_equal
# Unused here, but kept as names the benchmark tracer patches on this module.
from .interpreter import evaluate, to_expression  # noqa: F401
from .iterators import IteratorConfig, SynthFlag, check_bounds, check_timeout, make_iterator
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

    def __post_init__(self):
        if self.probe_cycles < 0:
            raise ConfigError(f"probe_cycles must be non-negative, got {self.probe_cycles}")
        check_bounds("mlfs", self.max_depth, None, self.max_enumerations)


@dataclass
class ProbeRun:
    """Full outcome of a probe search, for harnesses that track budgets.

    ``cycles_completed`` counts the cycles run and ``enumerated`` the
    programs they enumerated.  Without a solution, ``cycles_completed``
    below ``probe_cycles`` means either that the deadline cut a cycle short
    (``timed_out``) or, when ``timed_out`` is false, that the search stopped
    at a fixed point: reweighting after the last cycle gave back a grammar
    already searched, so the cycles left would have repeated searched ones.
    """

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
    """Score one mlfs enumeration from the output vectors it hands over.

    Returns the promising programs, the flag and the programs enumerated.
    Without ``allow_evaluation_errors`` a vector holding ``EVAL_ERROR``
    raises the error of the program's first failing example.
    """
    expected = [example.output for example in problem.examples]
    # Best representative per output vector, keyed tag-strictly: max fitness,
    # then fewest nodes, then the earliest.  Programs with one vector have one
    # fitness, so sizes are counted only when a vector comes again; a held
    # size is None until then.
    by_vector: dict[tuple, tuple[float, int | None, RuleNode]] = {}
    enumerated = 0
    try:
        iterator = make_iterator(config, problem=problem, deadline=deadline)
        # Closing the stream closes the iterator; a stand-in that only
        # iterates (a test wraps the iterator this way) is closed the same.
        programs = iter(iterator)
        try:
            for program in programs:
                enumerated += 1
                vector = iterator.last_vector
                if not allow_evaluation_errors and EVAL_ERROR in vector:
                    iterator.code.raise_first_error(program)
                # values_equal implies ==, so a vector no position of which
                # passes == has fitness 0; most vectors are decided here, in C.
                if not any(map(eq, vector, expected)):
                    continue
                # Counted through values_equal rather than solved_counter: the
                # benchmark's smoke test patches values_equal here to check that
                # a wrongly accepted program fails a run.
                fit = sum(map(values_equal, vector, expected)) / len(expected)
                if fit == 1.0:
                    return {PromisingProgram(program, 1.0)}, SynthFlag.optimal_program, enumerated
                if fit <= 0.0:
                    continue
                key = output_key(vector)
                held = by_vector.get(key)
                if held is None or fit > held[0]:
                    by_vector[key] = (fit, None, program)
                elif fit == held[0]:
                    held_size = held[1] or node_count(held[2])
                    size = node_count(program)
                    by_vector[key] = (
                        (fit, size, program) if size < held_size else (fit, held_size, held[2])
                    )
        finally:
            programs.close()
    except SynthkitError as exc:
        exc.enumerated = enumerated
        raise
    promising = {PromisingProgram(prog, fit) for fit, _, prog in by_vector.values()}
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

    Unused rules keep their probability before renormalization.  When no
    rule has a positive best fitness, as for an empty promising set, no
    weight changes and ``grammar`` itself is returned: renormalizing would
    only move some probabilities by a last bit.
    """
    if not grammar.has_probabilities:
        raise ConfigError("probe reweighting needs a grammar with probabilities")
    best_fit = {i: 0.0 for i in grammar.indices}
    for entry in promising:
        for rule in _rules_used(entry.program):
            if entry.fitness > best_fit[rule]:
                best_fit[rule] = entry.fitness
    if not any(best_fit.values()):
        return grammar
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
    """Run at most ``probe_cycles`` probe cycles, reporting the budget spent
    alongside the result.

    A cycle the deadline cut short is not counted as completed, and the
    grammar is not reweighted on its partial promising set.  After an
    unsolved cycle whose reweighting gives back the log-probabilities of
    this or an earlier cycle, the search returns without a program and
    without ``timed_out``: every later cycle would repeat a searched one.
    An error that ends a cycle carries the programs enumerated over all
    cycles so far as its ``enumerated`` attribute.  A negative timeout
    raises ConfigError.
    """
    check_timeout(timeout_seconds)
    _require_examples(problem)
    config = config or ProbeConfig()
    deadline = None if timeout_seconds is None else time.monotonic() + timeout_seconds
    current = grammar if grammar.has_probabilities else set_uniform_probabilities(grammar)
    searched = set()
    enumerated = 0
    for cycle in range(config.probe_cycles):
        searched.add(current.log_probabilities)
        iterator_config = IteratorConfig(
            "mlfs",
            current,
            start_symbol,
            max_depth=config.max_depth,
            max_enumerations=config.max_enumerations,
            constraints=config.constraints,
        )
        try:
            promising, flag, count = _collect_promising(
                iterator_config, problem, deadline, config.allow_evaluation_errors
            )
        except SynthkitError as exc:
            exc.enumerated += enumerated
            raise
        enumerated += count
        if flag == SynthFlag.optimal_program:
            (winner,) = promising
            return ProbeRun(winner.program, cycle + 1, enumerated)
        if deadline is not None and time.monotonic() >= deadline:
            return ProbeRun(None, cycle, enumerated, timed_out=True)
        if cycle + 1 == config.probe_cycles:
            break
        reweighted = modify_grammar_probe(promising, current)
        if reweighted.log_probabilities in searched:
            # Every later cycle would repeat a searched one exactly.
            return ProbeRun(None, cycle + 1, enumerated)
        current = reweighted
    return ProbeRun(None, config.probe_cycles, enumerated)


def probe(
    grammar: Grammar,
    start_symbol: str,
    problem: Problem,
    config: ProbeConfig | None = None,
    timeout_seconds: float | None = None,
) -> Optional[Node]:
    """The probe loop: enumerate, reweight, repeat until solved, out of
    cycles or at a fixed point; ``None`` if no solution."""
    return probe_with_stats(grammar, start_symbol, problem, config, timeout_seconds).program
