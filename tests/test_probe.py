import importlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from synthkit import (
    ConfigError,
    IOExample,
    IteratorConfig,
    Problem,
    ProbeConfig,
    PromisingProgram,
    SynthFlag,
    fitness,
    get_promising_programs_with_fitness,
    modify_grammar_probe,
    parse_constraint,
    parse_grammar,
    parse_node,
    probe,
    probe_with_stats,
    run_examples,
    serialize_node,
    set_uniform_probabilities,
)

from oracles import has_recording


def test_fitness_of_solution(g0, arith_problem):
    assert fitness(parse_node("4{3,4{1,3}}"), g0, arith_problem) == 1.0


def test_fitness_quarter(g0, arith_problem):
    assert fitness(parse_node("4{3,1}"), g0, arith_problem) == 0.25


def test_fitness_half(g0, arith_problem):
    # x*x + 1 hits the examples at x=0 and x=2.
    assert fitness(parse_node("4{5{3,3},1}"), g0, arith_problem) == 0.5


def test_promising_programs_stop_at_optimal(g0_uniform, arith_problem):
    config = IteratorConfig("mlfs", g0_uniform, "Int", max_depth=5, max_enumerations=5000)
    promising, flag = get_promising_programs_with_fitness(config, arith_problem)
    assert flag == SynthFlag.optimal_program
    (winner,) = promising
    assert winner.fitness == 1.0
    assert run_examples(g0_uniform, winner.program, arith_problem) == (4, 4)


def test_promising_programs_small_budget(g0_uniform, arith_problem):
    config = IteratorConfig("mlfs", g0_uniform, "Int", max_depth=5, max_enumerations=3)
    promising, flag = get_promising_programs_with_fitness(config, arith_problem)
    assert flag == SynthFlag.suboptimal_program
    assert {(serialize_node(p.program), p.fitness) for p in promising} == {("1", 0.25)}


def test_promising_programs_empty(g0_uniform):
    unreachable = Problem(
        "unreachable", (IOExample({"x": 0}, 100), IOExample({"x": 1}, 100))
    )
    config = IteratorConfig("mlfs", g0_uniform, "Int", max_depth=5, max_enumerations=3)
    promising, flag = get_promising_programs_with_fitness(config, unreachable)
    assert promising == set()
    assert flag == SynthFlag.no_program


def test_promising_programs_dedup_by_outputs(g0_uniform):
    # 1+x and x+1 produce identical outputs; only one representative stays.
    problem = Problem("shift", tuple(IOExample({"x": x}, x + 1) for x in range(4)))
    config = IteratorConfig("mlfs", g0_uniform, "Int", max_depth=2, max_enumerations=21)
    promising, flag = get_promising_programs_with_fitness(config, problem)
    assert flag == SynthFlag.optimal_program or flag == SynthFlag.suboptimal_program
    texts = {serialize_node(p.program) for p in promising}
    assert not {"4{1,3}", "4{3,1}"} <= texts


def test_modify_grammar_probe_update_arithmetic(g0_uniform):
    promising = {PromisingProgram(parse_node("4{3,1}"), 0.5)}
    updated = modify_grammar_probe(promising, g0_uniform)
    expected = (0.256778, 0.114835, 0.256778, 0.256778, 0.114835)
    for index, value in zip(updated.indices, expected):
        assert updated.probability(index) == pytest.approx(value, abs=1e-6)
    assert sum(updated.probability(i) for i in updated.indices) == pytest.approx(1.0, abs=1e-9)


def test_modify_grammar_probe_empty_set_is_identity(g0_uniform):
    updated = modify_grammar_probe(set(), g0_uniform)
    for i in g0_uniform.indices:
        assert abs(updated.probability(i) - g0_uniform.probability(i)) < 1e-12


def test_modify_grammar_probe_full_fitness_maximizes_boost(g0_uniform):
    updated = modify_grammar_probe({PromisingProgram(parse_node("3"), 1.0)}, g0_uniform)
    # Unnormalized weight of rule 3 is 0.2**0 = 1 against 0.2 for the rest.
    assert updated.probability(3) == pytest.approx(1.0 / 1.8)
    assert updated.probability(1) == pytest.approx(0.2 / 1.8)


def test_modify_grammar_probe_relative_boost(g0_uniform):
    promising = {PromisingProgram(parse_node("4{3,1}"), 0.5)}
    updated = modify_grammar_probe(promising, g0_uniform)
    before = g0_uniform.probability(4) / g0_uniform.probability(5)
    after = updated.probability(4) / updated.probability(5)
    assert after > before


def test_modify_grammar_probe_needs_probabilities(g0):
    with pytest.raises(ConfigError):
        modify_grammar_probe(set(), g0)


def test_modify_grammar_probe_does_not_mutate_input(g0_uniform):
    before = [g0_uniform.probability(i) for i in g0_uniform.indices]
    modify_grammar_probe({PromisingProgram(parse_node("3"), 1.0)}, g0_uniform)
    assert [g0_uniform.probability(i) for i in g0_uniform.indices] == before


@given(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0))
def test_higher_fitness_never_lowers_unnormalized_weight(fit_low, fit_high):
    fit_low, fit_high = sorted((fit_low, fit_high))
    for p in (0.05, 0.2, 0.7, 1.0):
        assert p ** (1.0 - fit_low) <= p ** (1.0 - fit_high) + 1e-12


_ARITH_UNIFORM = set_uniform_probabilities(
    parse_grammar("Int = 1 | 2 | x\nInt = Int + Int\nInt = Int * Int")
)


@given(
    st.sets(
        st.tuples(
            st.sampled_from(["3", "4{3,1}", "5{2,3}", "4{1,4{3,3}}", "2"]),
            st.floats(min_value=0.01, max_value=1.0),
        ),
        max_size=4,
    )
)
def test_modify_grammar_probe_preserves_normalization(entries):
    promising = {PromisingProgram(parse_node(text), fit) for text, fit in entries}
    updated = modify_grammar_probe(promising, _ARITH_UNIFORM)
    for symbol, ids in updated.bytype.items():
        total = sum(updated.probability(i) for i in ids)
        assert abs(total - 1.0) < 1e-9


def test_probe_solves_arithmetic(g0, arith_problem):
    config = ProbeConfig(probe_cycles=3, max_depth=5, max_enumerations=5000)
    program = probe(g0, "Int", arith_problem, config)
    assert program is not None
    assert run_examples(g0, program, arith_problem) == (4, 4)


def test_probe_zero_cycles(g0, arith_problem):
    assert probe(g0, "Int", arith_problem, ProbeConfig(probe_cycles=0, max_depth=5)) is None


def test_negative_probe_cycles_rejected():
    with pytest.raises(ConfigError):
        ProbeConfig(probe_cycles=-3)


def test_probe_negative_timeout_rejected(g0, arith_problem):
    with pytest.raises(ConfigError):
        probe_with_stats(g0, "Int", arith_problem, ProbeConfig(max_depth=3), timeout_seconds=-1.0)


def test_probe_unsatisfiable_keeps_normalization(g0_uniform):
    problem = Problem(
        "contradiction", (IOExample({"x": 0}, 1), IOExample({"x": 0}, 2))
    )
    grammar = g0_uniform
    for _ in range(3):
        config = IteratorConfig("mlfs", grammar, "Int", max_depth=3, max_enumerations=50)
        promising, flag = get_promising_programs_with_fitness(config, problem)
        assert flag != SynthFlag.optimal_program
        grammar = modify_grammar_probe(promising, grammar)
        for symbol, ids in grammar.bytype.items():
            total = sum(grammar.probability(i) for i in ids)
            assert abs(total - 1.0) < 1e-9
    run = probe_with_stats(
        g0_uniform, "Int", problem, ProbeConfig(probe_cycles=3, max_depth=3, max_enumerations=50)
    )
    assert run.program is None
    assert run.cycles_completed == 3


def test_probe_is_deterministic(g0, arith_problem):
    config = ProbeConfig(probe_cycles=2, max_depth=4, max_enumerations=300)
    first = probe(g0, "Int", arith_problem, config)
    second = probe(g0, "Int", arith_problem, config)
    assert serialize_node(first) == serialize_node(second)


def test_probe_timeout(g0, arith_problem):
    run = probe_with_stats(
        g0, "Int", arith_problem, ProbeConfig(max_depth=5), timeout_seconds=0.0
    )
    assert run.program is None
    assert run.timed_out is True
    assert run.cycles_completed == 0


def test_probe_cycle_cut_short_by_the_deadline_is_not_completed(g0_uniform, arith_problem):
    # Every program has a leaf in {1, 2, 3}, so the first cycle emits
    # nothing until the deadline stops it; it must not count as completed.
    forbid_leaves = parse_constraint("(forbidden (domain (1 2 3)))")
    config = ProbeConfig(max_depth=6, constraints=(forbid_leaves,))
    run = probe_with_stats(g0_uniform, "Int", arith_problem, config, timeout_seconds=1.0)
    assert run.timed_out is True
    assert run.cycles_completed == 0
    assert run.enumerated == 0
    assert run.program is None


def test_problems_without_examples_are_rejected(g0):
    empty = Problem("empty")
    with pytest.raises(ValueError):
        probe(g0, "Int", empty, ProbeConfig(max_depth=2))
    with pytest.raises(ValueError):
        fitness(parse_node("1"), g0, empty)


def test_probe_respects_existing_probabilities(g0, arith_problem):
    skewed = g0.with_probabilities([0.05, 0.05, 0.6, 0.25, 0.05])
    config = ProbeConfig(probe_cycles=3, max_depth=5, max_enumerations=5000)
    program = probe(skewed, "Int", arith_problem, config)
    assert program is not None
    assert run_examples(skewed, program, arith_problem) == (4, 4)


def test_probe_propagates_errors_when_not_allowed(strings_grammar):
    from synthkit import EvaluationError, IOExample, Problem

    problem = Problem("one-char", (IOExample({"x": "a"}, "never"),))
    config = ProbeConfig(
        probe_cycles=1,
        max_depth=3,
        max_enumerations=2000,
        allow_evaluation_errors=False,
    )
    with pytest.raises(EvaluationError):
        probe(strings_grammar, "S", problem, config)


def test_probe_error_counts_the_programs_of_earlier_cycles(g0_uniform, monkeypatch):
    # Nothing solves the contradiction, so each cycle spends its budget of
    # 5 programs; scoring the third program of the second cycle raises.
    from synthkit import EvaluationError

    # The package exports the function ``probe``; the module is in sys.modules.
    probe_module = importlib.import_module("synthkit.probe")
    scored = []
    make = probe_module.make_iterator

    class FailingOnTheEighth:
        """An iterator whose eighth program's vector cannot be read."""

        def __init__(self, iterator):
            self.iterator = iterator
            self.code = iterator.code

        def __iter__(self):
            return iter(self.iterator)

        @property
        def last_vector(self):
            scored.append(self.iterator.last_vector)
            if len(scored) == 8:
                raise EvaluationError("injected")
            return self.iterator.last_vector

    monkeypatch.setattr(
        probe_module, "make_iterator", lambda *a, **k: FailingOnTheEighth(make(*a, **k))
    )
    problem = Problem("contradiction", (IOExample({"x": 0}, 1), IOExample({"x": 0}, 2)))
    config = ProbeConfig(probe_cycles=3, max_depth=3, max_enumerations=5)
    assert not has_recording(g0_uniform)
    with pytest.raises(EvaluationError) as raised:
        probe_with_stats(g0_uniform, "Int", problem, config)
    assert raised.value.enumerated == 8


def test_promising_programs_keep_bool_and_int_vectors_apart():
    # x gives (1, 0) and 1 == x gives (True, False): each solves one
    # example, and they are different outputs although Python's == merges them.
    grammar = set_uniform_probabilities(parse_grammar("E = 1 | x\nE = E == E"))
    problem = Problem("mixed", (IOExample({"x": 1}, True), IOExample({"x": 0}, 0)))
    config = IteratorConfig("mlfs", grammar, "E", max_depth=2)
    promising, flag = get_promising_programs_with_fitness(config, problem)
    assert flag == SynthFlag.suboptimal_program
    programs = {serialize_node(entry.program) for entry in promising}
    assert {"2", "3{1,2}"} <= programs


def _promising_by_the_full_loop(config, problem):
    """Representatives as chosen when every positive-fitness program's size
    was counted: per output vector the highest fitness, then the fewest
    nodes, then the earliest.  Also counts the programs that replaced a held
    one by being smaller, and the ties that kept the held one."""
    from synthkit.interpreter import output_key, values_equal
    from synthkit.iterators import make_iterator
    from synthkit.nodes import node_count

    expected = [example.output for example in problem.examples]
    by_vector = {}
    smaller = kept = 0
    iterator = make_iterator(config, problem=problem)
    for program in iterator:
        vector = iterator.last_vector
        fit = sum(map(values_equal, vector, expected)) / len(expected)
        assert fit < 1.0
        if fit <= 0.0:
            continue
        size = node_count(program)
        key = output_key(vector)
        held = by_vector.get(key)
        if held is None or (fit, -size) > (held[0], -held[1]):
            smaller += held is not None
            by_vector[key] = (fit, size, program)
        else:
            kept += 1
    return {PromisingProgram(prog, fit) for fit, _, prog in by_vector.values()}, smaller, kept


def test_promising_representatives_match_the_full_size_loop(strings_grammar):
    # dfs reaches deep programs first, so a smaller program often comes
    # after a larger one with the same outputs.
    problems = [
        Problem("ends", (IOExample({"x": "hello"}, "o!"), IOExample({"x": "ab"}, "b"))),
        Problem("heads", (IOExample({"x": "hello"}, "h"), IOExample({"x": "ab"}, "ab!"))),
    ]
    weightings = [
        [0.3, 0.1, 0.5, 0.1, 0.2, 0.3, 0.5],
        [0.1, 0.6, 0.1, 0.2, 0.7, 0.1, 0.2],
    ]
    smaller = kept = 0
    for problem in problems:
        for weights in weightings:
            grammar = strings_grammar.with_probabilities(weights)
            for kind, max_depth, budget in (("mlfs", 4, 3000), ("dfs", 3, 2000), ("dfs", 4, 3000)):
                config = IteratorConfig(
                    kind, grammar, "S", max_depth=max_depth, max_enumerations=budget
                )
                expected, replaced, ties = _promising_by_the_full_loop(config, problem)
                smaller += replaced
                kept += ties
                promising, flag = get_promising_programs_with_fitness(config, problem)
                assert flag == (SynthFlag.suboptimal_program if expected else SynthFlag.no_program)
                assert {(serialize_node(p.program), p.fitness) for p in promising} == {
                    (serialize_node(p.program), p.fitness) for p in expected
                }
    assert smaller and kept
