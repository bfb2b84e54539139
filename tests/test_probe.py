import hashlib
import importlib
import operator

import pytest
from hypothesis import given
from hypothesis import strategies as st

from synthkit import (
    EVAL_ERROR,
    ConfigError,
    IOExample,
    IteratorConfig,
    Problem,
    ProbeConfig,
    PromisingProgram,
    SynthFlag,
    fitness,
    get_promising_programs_with_fitness,
    make_iterator,
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
from synthkit.bench import get_all_problem_grammar_pairs
from synthkit.probe import ProbeRun, _collect_promising

from conftest import SUITES_DIR

from oracles import has_recording, probe_every_cycle, promising_by_the_full_loop


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
    assert modify_grammar_probe(set(), g0_uniform) is g0_uniform
    zero = {PromisingProgram(parse_node("4{3,1}"), 0.0)}
    assert modify_grammar_probe(zero, g0_uniform) is g0_uniform


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
    # True == 1 and False == 0 let a vector past the == filter; values_equal
    # must still decide its fitness.  1 gives (1, 1): == holds at the first
    # position and fitness is 0.
    iterator = make_iterator(config, problem=problem)
    vectors = [iterator.last_vector for _ in iterator]
    assert (1, 1) in vectors and (True, False) in vectors
    expected, expected_flag, _, _, _ = promising_by_the_full_loop(config, problem)
    assert flag == expected_flag
    assert _texts(promising) == _texts(expected)


def _texts(promising):
    return {(serialize_node(entry.program), entry.fitness) for entry in promising}


def test_promising_programs_match_the_full_loop_on_vectors_with_errors(strings_grammar):
    # substring fails on "a" for most index pairs, so many vectors hold
    # EVAL_ERROR, some of them next to a position that solves its example.
    problem = Problem("short", (IOExample({"x": "a"}, "a!"), IOExample({"x": "hello"}, "el")))
    expected_outputs = [example.output for example in problem.examples]
    grammar = set_uniform_probabilities(strings_grammar)
    for kind, max_depth in (("mlfs", 3), ("dfs", 3), ("mlfs", 4)):
        config = IteratorConfig(kind, grammar, "S", max_depth=max_depth, max_enumerations=3000)
        iterator = make_iterator(config, problem=problem)
        with_errors = [v for v in (iterator.last_vector for _ in iterator) if EVAL_ERROR in v]
        assert with_errors
        assert any(any(map(operator.eq, v, expected_outputs)) for v in with_errors)
        expected, expected_flag, enumerated, _, _ = promising_by_the_full_loop(config, problem)
        promising, flag, count = _collect_promising(config, problem)
        assert (flag, count) == (expected_flag, enumerated)
        assert _texts(promising) == _texts(expected)


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
                expected, expected_flag, _, replaced, ties = promising_by_the_full_loop(
                    config, problem
                )
                smaller += replaced
                kept += ties
                promising, flag = get_promising_programs_with_fitness(config, problem)
                assert flag == expected_flag != SynthFlag.optimal_program
                assert _texts(promising) == _texts(expected)
    assert smaller and kept


# A problem no arith program of depth 2 comes near: its first cycle finds no
# promising program, so reweighting leaves the grammar as it is.
_UNREACHABLE = Problem("unreachable", (IOExample({"x": 0}, 100), IOExample({"x": 1}, 100)))
# Every cycle finds programs solving one example, never both, and boosts
# their rules: the grammar changes every cycle.
_CONTRADICTION = Problem("contradiction", (IOExample({"x": 0}, 1), IOExample({"x": 0}, 2)))
# 2 * x * x: not within the first cycle's 50 programs, found in the second.
_LATER = Problem("twice_square", tuple(IOExample({"x": x}, 2 * x * x) for x in (0, 1, 2, 3)))
# Each cycle's promising programs use all five rules, with fitness 0.2 at
# best, so reweighting keeps the probabilities uniform; but renormalizing
# moves them a last bit up and then back, and the third cycle would search
# the first cycle's grammar again.
_SWING = Problem(
    "swing",
    tuple(IOExample({"x": x}, y) for x, y in ((9, 891), (-1, 1), (5, 175), (6, 288), (8, 640))),
)


def _probe_module():
    # The package exports the function ``probe``; the module is in sys.modules.
    return importlib.import_module("synthkit.probe")


def test_probe_stops_at_a_fixed_point(g0_uniform, monkeypatch):
    probe_module = _probe_module()
    made = []
    make = probe_module.make_iterator
    monkeypatch.setattr(
        probe_module, "make_iterator", lambda *a, **k: made.append(a) or make(*a, **k)
    )
    config = ProbeConfig(probe_cycles=3, max_depth=2, max_enumerations=50)
    one_cycle = IteratorConfig("mlfs", g0_uniform, "Int", max_depth=2, max_enumerations=50)
    _, flag, count, _, _ = promising_by_the_full_loop(one_cycle, _UNREACHABLE)
    assert flag == SynthFlag.no_program and count == 21
    for timeout in (None, 60.0):
        made.clear()
        run = probe_with_stats(g0_uniform, "Int", _UNREACHABLE, config, timeout_seconds=timeout)
        assert run == ProbeRun(None, 1, count, timed_out=False)
        # The second cycle makes no iterator.
        assert len(made) == 1
    assert probe_every_cycle(g0_uniform, "Int", _UNREACHABLE, config) == ProbeRun(None, 3, 3 * count)


def test_probe_from_weighted_rules_stops_after_a_first_cycle_that_finds_nothing(g0):
    # Renormalizing these weights moves some of them by a last bit, so
    # reweighting must hand back the grammar itself, or the search would go
    # on to a second grammar that differs only by rounding.
    grammar = g0.with_probabilities([0.05, 0.05, 0.15, 0.35, 0.4])
    probabilities = [grammar.probability(i) for i in grammar.indices]
    renormalized = grammar.with_probabilities([p / sum(probabilities) for p in probabilities])
    assert renormalized.log_probabilities != grammar.log_probabilities
    assert modify_grammar_probe(set(), grammar) is grammar
    config = ProbeConfig(probe_cycles=3, max_depth=2, max_enumerations=50)
    assert probe_with_stats(grammar, "Int", _UNREACHABLE, config) == ProbeRun(None, 1, 21)


@pytest.mark.parametrize(
    "problem, max_depth, budget, cycles_completed",
    [
        (_UNREACHABLE, 2, 50, 1),
        (_CONTRADICTION, 4, 50, 4),
        (_LATER, 4, 50, 2),
        (_SWING, 4, 300, 2),
    ],
    ids=["nothing_promising", "suboptimal", "solved_later", "rounding_swing"],
)
def test_probe_returns_what_running_every_cycle_returns(
    g0_uniform, problem, max_depth, budget, cycles_completed
):
    config = ProbeConfig(probe_cycles=4, max_depth=max_depth, max_enumerations=budget)
    oracle = probe_every_cycle(g0_uniform, "Int", problem, config)
    run = probe_with_stats(g0_uniform, "Int", problem, config)
    assert run.program == oracle.program and run.timed_out is oracle.timed_out is False
    assert run.cycles_completed == cycles_completed
    if problem is _UNREACHABLE:
        # Four cycles over one grammar.
        assert run.enumerated * 4 == oracle.enumerated
    elif problem is _SWING:
        # Two grammars, each searched twice.
        assert run.enumerated * 2 == oracle.enumerated
    else:
        # The grammar changes every cycle, so nothing is skipped.
        assert run == oracle
    if problem is _LATER:
        assert run_examples(g0_uniform, run.program, problem) == (4, 4)


@pytest.mark.parametrize("suite, stops", [("arith", 0), ("mini-strings", 1)])
def test_probe_matches_running_every_cycle_on_a_suite(suite, stops):
    # Only a run that reaches a fixed point may differ from the oracle, and
    # then only in the cycles it ran and the programs it enumerated.
    stopped = 0
    for problem_file, grammar in get_all_problem_grammar_pairs(SUITES_DIR / suite):
        config = ProbeConfig(
            probe_cycles=3, max_depth=4, max_enumerations=300,
            constraints=problem_file.constraints,
        )
        args = (grammar, problem_file.start_symbol, problem_file.problem, config)
        run, oracle = probe_with_stats(*args), probe_every_cycle(*args)
        assert run.program == oracle.program and run.timed_out is oracle.timed_out is False
        if run.program is None and run.cycles_completed < config.probe_cycles:
            stopped += 1
            assert run.enumerated < oracle.enumerated
        else:
            assert run == oracle
    assert stopped == stops


def test_probe_does_not_reweight_after_its_last_cycle(g0_uniform, monkeypatch):
    probe_module = _probe_module()
    reweighted = []
    modify = probe_module.modify_grammar_probe
    monkeypatch.setattr(
        probe_module, "modify_grammar_probe", lambda *a: reweighted.append(a) or modify(*a)
    )
    for cycles in (1, 2, 3, 5):
        reweighted.clear()
        config = ProbeConfig(probe_cycles=cycles, max_depth=3, max_enumerations=50)
        run = probe_with_stats(g0_uniform, "Int", _CONTRADICTION, config)
        assert (run.program, run.cycles_completed) == (None, cycles)
        assert len(reweighted) == cycles - 1


# Promising sets of mini-strings problems whose last output no program
# gives, so each enumeration keeps its ties: the sha256 prefix of the sorted
# (program, fitness) pairs, and the set's size.
_PROMISING_PINS = {
    "01_append_excl": ("b9a3e74a568855e6", 3),
    "03_identity": ("e809b69ad8abd713", 16),
    "07_first_char": ("356d92c0b9d975c6", 7),
    "09_last_char": ("4b5c439a2d4a6ef0", 15),
}


def test_promising_sets_are_pinned_and_each_tie_subtree_is_walked_once(monkeypatch):
    module = _probe_module()
    counted = module._tie_size
    walked = []

    def tie_size(node, sizes):
        if node.children and id(node) not in sizes:
            walked.append(node)
        return counted(node, sizes)

    monkeypatch.setattr(module, "_tie_size", tie_size)
    walks = 0
    for problem_file, grammar in get_all_problem_grammar_pairs(SUITES_DIR / "mini-strings"):
        pin = _PROMISING_PINS.get(problem_file.problem.name)
        if pin is None:
            continue
        examples = problem_file.problem.examples
        problem = Problem(
            problem_file.problem.name,
            examples[:-1] + (IOExample(examples[-1].input, "never"),),
        )
        config = IteratorConfig(
            "mlfs", set_uniform_probabilities(grammar), problem_file.start_symbol,
            max_depth=4, max_enumerations=1500,
        )
        walked.clear()
        promising, flag = get_promising_programs_with_fitness(config, problem)
        pairs = sorted((serialize_node(p.program), p.fitness) for p in promising)
        assert flag == SynthFlag.suboptimal_program
        assert (hashlib.sha256(repr(pairs).encode()).hexdigest()[:16], len(pairs)) == pin
        # Within the cycle no inner node is walked twice.
        assert len({id(node) for node in walked}) == len(walked)
        walks += len(walked)
    assert walks
