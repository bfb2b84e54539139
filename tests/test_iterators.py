import itertools
import math
import time

import pytest

from synthkit import (
    ConfigError,
    Hole,
    IOExample,
    IteratorConfig,
    Problem,
    ProbeConfig,
    RuleNode,
    SynthFlag,
    UniformHole,
    bottom_up_iterate,
    depth,
    derivation_heuristic,
    execute_on_input,
    make_iterator,
    max_rulenode_log_probability,
    node_count,
    parse_constraint,
    parse_grammar,
    parse_node,
    priority_function,
    probe_with_stats,
    serialize_node,
    synth,
)

from conftest import SUITES_DIR
from oracles import enumerate_programs

LN5 = math.log(0.2)


def emit_all(config, problem=None):
    return [serialize_node(p) for p in make_iterator(config, problem=problem)]


# -- priority function ---------------------------------------------------------


def test_dfs_priority_fresh(g0):
    assert priority_function("dfs", g0, RuleNode(1), 0, False) == -1


def test_dfs_priority_requeued_returns_to_parent(g0):
    assert priority_function("dfs", g0, RuleNode(1), -3, True) == -3


def test_dfs_over_shapes_requeued_descends(g0):
    assert priority_function("dfs", g0, RuleNode(1), -3, True, dfs_over_shapes=True) == -4


def test_bfs_priority_layers_by_depth_then_counter(g0):
    counter = itertools.count()
    leaf = RuleNode(1)
    deep = parse_node("4{3,4{1,3}}")
    assert priority_function("bfs", g0, leaf, 0, False, counter=counter) == (1, 0)
    assert priority_function("bfs", g0, deep, 0, False, counter=counter) == (3, 1)
    # A shallower tree always dequeues first, later counters break ties.
    assert priority_function("bfs", g0, leaf, 0, False, counter=counter) < (3, 1)
    requeued = priority_function("bfs", g0, deep, (3, 1), True, counter=counter)
    assert requeued == (3, 1)


def test_bfs_priority_without_counter_is_config_error(g0):
    with pytest.raises(ConfigError):
        priority_function("bfs", g0, RuleNode(1), 0, False)


def test_mlfs_priority_of_solution_tree(g0_uniform):
    tree = parse_node("4{3,4{1,3}}")
    value = priority_function("mlfs", g0_uniform, tree, 0, False)
    assert value == pytest.approx(-5 * LN5, abs=1e-6)  # 8.047190


def test_mlfs_priority_of_uniform_tree(g0_uniform):
    tree = UniformHole(
        frozenset({4, 5}),
        (Hole(frozenset(range(1, 6))), Hole(frozenset(range(1, 6)))),
    )
    value = priority_function("mlfs", g0_uniform, tree, 0, False)
    assert value == pytest.approx(4.828314, abs=1e-6)


def test_mlfs_priority_without_probabilities(g0):
    with pytest.raises(ConfigError):
        priority_function("mlfs", g0, RuleNode(1), 0, False)


# -- max_rulenode_log_probability ---------------------------------------------


def test_max_log_probability_leaf(g0_uniform):
    value = max_rulenode_log_probability(RuleNode(3), g0_uniform)
    assert value == pytest.approx(-1.609438, abs=1e-6)


def test_max_log_probability_uniform_hole_with_children(g0_uniform):
    tree = UniformHole(
        frozenset({4, 5}),
        (Hole(frozenset(range(1, 6))), Hole(frozenset(range(1, 6)))),
    )
    assert max_rulenode_log_probability(tree, g0_uniform) == pytest.approx(
        -4.828314, abs=1e-6
    )


def test_max_log_probability_certain_rule():
    g = parse_grammar("1.0 : S = x")
    assert max_rulenode_log_probability(RuleNode(1), g) == pytest.approx(0.0)


def test_max_log_probability_mixes_decided_and_max(g0):
    g = g0.with_probabilities([0.4, 0.1, 0.3, 0.15, 0.05])
    tree = UniformHole(frozenset({4, 5}), (RuleNode(2), Hole(frozenset({1, 3}))))
    expected = math.log(0.15) + math.log(0.1) + math.log(0.4)
    assert max_rulenode_log_probability(tree, g) == pytest.approx(expected)


# -- derivation heuristic -------------------------------------------------------


def test_heuristic_ascending_for_bfs(g0):
    assert derivation_heuristic("bfs", g0, [4, 5, 1]) == [1, 4, 5]


def test_heuristic_descending_probability_for_mlfs():
    g = parse_grammar("S = 0.5 : a | 0.3 : b | 0.2 : c")
    assert derivation_heuristic("mlfs", g, [3, 2, 1]) == [1, 2, 3]


def test_heuristic_breaks_probability_ties_by_index(g0_uniform):
    assert derivation_heuristic("mlfs", g0_uniform, [5, 3, 1]) == [1, 3, 5]


def test_heuristic_singleton(g0):
    assert derivation_heuristic("dfs", g0, [4]) == [4]


# -- top-down enumeration -------------------------------------------------------


def test_bfs_depth_one_emits_leaves_in_rule_order(g0):
    assert emit_all(IteratorConfig("bfs", g0, "Int", max_depth=1)) == ["1", "2", "3"]


def test_bfs_depth_two_emits_exactly_21(g0):
    programs = emit_all(IteratorConfig("bfs", g0, "Int", max_depth=2))
    assert len(programs) == 21
    assert len(set(programs)) == 21


def test_next_program_returns_none_after_exhaustion(g0):
    iterator = make_iterator(IteratorConfig("bfs", g0, "Int", max_depth=1))
    seen = [iterator.next_program() for _ in range(3)]
    assert [serialize_node(p) for p in seen] == ["1", "2", "3"]
    assert iterator.next_program() is None
    assert iterator.next_program() is None


@pytest.mark.parametrize("bound", [1, 2, 3])
def test_top_down_kinds_match_brute_force(g0, g0_uniform, bound):
    expected = {serialize_node(p) for p in enumerate_programs(g0, "Int", bound)}
    for kind, grammar in (("bfs", g0), ("dfs", g0), ("mlfs", g0_uniform)):
        got = emit_all(IteratorConfig(kind, grammar, "Int", max_depth=bound))
        assert len(got) == len(set(got)), f"{kind} emitted duplicates"
        assert set(got) == expected, f"{kind} disagrees with brute force"


@pytest.mark.parametrize("bound,size", [(1, 1), (2, 3), (3, 7)])
def test_bottom_up_matches_brute_force(g0, bound, size):
    expected = {serialize_node(p) for p in enumerate_programs(g0, "Int", bound)}
    got = emit_all(IteratorConfig("bottom_up", g0, "Int", max_size=size, max_depth=bound))
    assert len(got) == len(set(got))
    assert set(got) == expected


def test_bfs_depths_never_decrease(g0):
    depths = [depth(p) for p in make_iterator(IteratorConfig("bfs", g0, "Int", max_depth=3))]
    assert depths == sorted(depths)


def test_bfs_depths_never_decrease_deeper(g0):
    config = IteratorConfig("bfs", g0, "Int", max_depth=5, max_enumerations=5000)
    depths = [depth(p) for p in make_iterator(config)]
    assert depths == sorted(depths)
    assert 4 in depths  # the budget reaches past the depth-3 layer


def test_dfs_over_shapes_emits_each_shape_contiguously(g0):
    def shape(program):
        return (
            len(program.children),
            tuple(shape(child) for child in program.children),
        )

    config = IteratorConfig("dfs", g0, "Int", max_depth=3, dfs_over_shapes=True)
    shapes = [shape(p) for p in make_iterator(config)]
    distinct_runs = [key for key, _ in itertools.groupby(shapes)]
    assert len(distinct_runs) == len(set(distinct_runs))


def test_mlfs_probabilities_never_increase(g0):
    grammar = g0.with_probabilities([0.4, 0.1, 0.3, 0.15, 0.05])
    config = IteratorConfig("mlfs", grammar, "Int", max_depth=6, max_enumerations=200)
    values = [
        math.exp(max_rulenode_log_probability(p, grammar))
        for p in make_iterator(config)
    ]
    assert len(values) == 200
    for earlier, later in zip(values, values[1:]):
        assert later <= earlier + 1e-12


def test_constraints_filter_exactly(g0):
    from synthkit import check_program

    forbid = parse_constraint("(forbidden (rule 4 (var a) (var a)))")
    config = IteratorConfig("bfs", g0, "Int", max_depth=3, constraints=(forbid,))
    got = set(emit_all(config))
    everything = {serialize_node(p) for p in enumerate_programs(g0, "Int", 3)}
    expected = {s for s in everything if check_program([forbid], parse_node(s))}
    assert got == expected


def test_max_enumerations_truncates(g0):
    config = IteratorConfig("bfs", g0, "Int", max_depth=3, max_enumerations=5)
    assert len(emit_all(config)) == 5


# -- bottom-up specifics ---------------------------------------------------------


def test_bottom_up_sizes(g0):
    programs = [p for p in bottom_up_iterate(IteratorConfig("bottom_up", g0, "Int", max_size=3))]
    by_size = {}
    for program in programs:
        by_size.setdefault(node_count(program), []).append(serialize_node(program))
    assert sorted(by_size[1]) == ["1", "2", "3"]
    assert 2 not in by_size
    assert len(by_size[3]) == 18


def test_bottom_up_emits_sizes_in_order(g0):
    sizes = [node_count(p) for p in bottom_up_iterate(IteratorConfig("bottom_up", g0, "Int", max_size=5))]
    assert sizes == sorted(sizes)


def test_bottom_up_observational_pruning(g0, arith_problem):
    config = IteratorConfig(
        "bottom_up", g0, "Int", max_size=3, observational_equivalence=True
    )
    programs = [serialize_node(p) for p in bottom_up_iterate(config, arith_problem)]
    assert "4{1,3}" in programs  # 1+x banked first
    assert "4{3,1}" not in programs  # x+1 has the same outputs, dropped
    baseline = emit_all(IteratorConfig("bottom_up", g0, "Int", max_size=3))
    assert len(programs) < len(baseline)


def test_bottom_up_requires_max_size(g0):
    with pytest.raises(ConfigError):
        IteratorConfig("bottom_up", g0, "Int", max_depth=3)


def test_bottom_up_pruning_requires_problem(g0):
    config = IteratorConfig(
        "bottom_up", g0, "Int", max_size=3, observational_equivalence=True
    )
    with pytest.raises(ConfigError):
        make_iterator(config)


def test_bottom_up_exhausts_when_no_rule_applies():
    g = parse_grammar("S = A + A\nA = S * S")  # no terminal rules anywhere
    assert emit_all(IteratorConfig("bottom_up", g, "S", max_size=6)) == []


# -- config validation ------------------------------------------------------------


def test_unknown_kind_rejected(g0):
    with pytest.raises(ConfigError):
        IteratorConfig("beam", g0, "Int")


def test_unknown_start_symbol_rejected(g0):
    from synthkit import GrammarError

    with pytest.raises(GrammarError):
        IteratorConfig("bfs", g0, "Bool")


def test_recursive_grammar_needs_a_bound(g0):
    with pytest.raises(ConfigError):
        IteratorConfig("bfs", g0, "Int")


def test_finite_grammar_needs_no_bound():
    g = parse_grammar("S = a | b")
    assert emit_all(IteratorConfig("bfs", g, "S")) == ["1", "2"]


# -- synth -------------------------------------------------------------------------


def test_synth_finds_optimal_program(g0, arith_problem):
    result = synth(arith_problem, IteratorConfig("bfs", g0, "Int", max_depth=5))
    assert result.flag == SynthFlag.optimal_program
    for x in range(21):
        assert execute_on_input(g0, result.program, {"x": x}) == 2 * x + 1


def test_synth_contradictory_examples(g0):
    problem = Problem(
        "contradiction",
        (IOExample({"x": 0}, 1), IOExample({"x": 0}, 2)),
    )
    result = synth(problem, IteratorConfig("bfs", g0, "Int", max_depth=2))
    assert result.flag == SynthFlag.suboptimal_program
    solved, total = 0, 2
    from synthkit import run_examples

    solved, total = run_examples(g0, result.program, problem)
    assert solved <= 1 and total == 2


def test_synth_zero_budget_returns_no_program(g0, arith_problem):
    config = IteratorConfig("bfs", g0, "Int", max_depth=5, max_enumerations=0)
    result = synth(arith_problem, config)
    assert result.flag == SynthFlag.no_program
    assert result.program is None
    assert result.stats.enumerated == 0


def test_synth_requires_examples(g0):
    with pytest.raises(ValueError):
        synth(Problem("empty"), IteratorConfig("bfs", g0, "Int", max_depth=2))


def test_synth_best_program_is_earliest_on_ties(g0):
    # No depth-1 program solves anything here, so the first emitted program
    # ("1") stays the best suboptimal candidate.
    problem = Problem("none", (IOExample({"x": 0}, 99), IOExample({"x": 1}, 99)))
    result = synth(problem, IteratorConfig("bfs", g0, "Int", max_depth=1))
    assert result.flag == SynthFlag.suboptimal_program
    assert serialize_node(result.program) == "1"


def test_synth_timeout_flags_run(g0, arith_problem):
    config = IteratorConfig("bfs", g0, "Int", max_depth=5)
    result = synth(arith_problem, config, timeout_seconds=0.0)
    assert result.stats.timed_out is True
    assert result.stats.enumerated == 0


def test_synth_timeout_holds_when_propagation_prunes_everything(g0, arith_problem):
    # Every program has a leaf in {1, 2, 3}, so no uniform tree survives
    # propagation and nothing is ever emitted; the deadline must still stop
    # the search, which is checked on every dequeue.
    forbid_leaves = parse_constraint("(forbidden (domain (1 2 3)))")
    config = IteratorConfig("bfs", g0, "Int", max_depth=6, constraints=(forbid_leaves,))
    started = time.monotonic()
    result = synth(arith_problem, config, timeout_seconds=1.0)
    assert time.monotonic() - started < 1.5
    assert result.stats.timed_out is True
    assert result.stats.enumerated == 0
    assert result.flag == SynthFlag.no_program

    probe_config = ProbeConfig(max_depth=6, constraints=(forbid_leaves,))
    started = time.monotonic()
    run = probe_with_stats(g0, "Int", arith_problem, probe_config, timeout_seconds=1.0)
    assert time.monotonic() - started < 1.5
    assert run.timed_out is True
    assert run.program is None


def test_bottom_up_timeout_holds_when_pruning_drops_nearly_everything():
    # No program of the grammar reaches these outputs, and observational
    # equivalence drops most candidates, so emissions are rare; the bank
    # must check the deadline on every candidate, not between emissions.
    grammar = parse_grammar((SUITES_DIR / "mini-strings" / "default.herbg").read_text())
    problem = Problem(
        "unreachable", (IOExample({"x": "hello"}, 1000), IOExample({"x": "sun"}, 999))
    )
    config = IteratorConfig(
        "bottom_up", grammar, "I", max_size=8, observational_equivalence=True
    )
    started = time.monotonic()
    result = synth(problem, config, timeout_seconds=1.0)
    assert time.monotonic() - started < 1.5
    assert result.stats.timed_out is True


def test_mlfs_stays_monotone_under_constraints(g0):
    grammar = g0.with_probabilities([0.4, 0.1, 0.3, 0.15, 0.05])
    forbid = parse_constraint("(forbidden (rule 4 (var a) (var a)))")
    config = IteratorConfig(
        "mlfs", grammar, "Int", max_depth=4, max_enumerations=150, constraints=(forbid,)
    )
    programs = list(make_iterator(config))
    values = [math.exp(max_rulenode_log_probability(p, grammar)) for p in programs]
    for earlier, later in zip(values, values[1:]):
        assert later <= earlier + 1e-12
    from synthkit import check_program

    assert all(check_program([forbid], p) for p in programs)


def test_ordered_constraint_through_iterator(g0):
    from synthkit import check_program

    ordered = parse_constraint("(ordered (rule 4 (var a) (var b)) (a b))")
    config = IteratorConfig("bfs", g0, "Int", max_depth=3, constraints=(ordered,))
    got = set(emit_all(config))
    expected = {
        serialize_node(p)
        for p in enumerate_programs(g0, "Int", 3)
        if check_program([ordered], p)
    }
    assert got == expected


def test_bottom_up_multi_nonterminal_bank(strings_grammar):
    config = IteratorConfig("bottom_up", strings_grammar, "S", max_size=4)
    got = {serialize_node(p) for p in make_iterator(config)}
    expected = {
        serialize_node(p)
        for p in enumerate_programs(strings_grammar, "S", 4)
        if node_count(p) <= 4
    }
    assert got == expected


def test_top_down_max_size_bound(g0):
    got = set(emit_all(IteratorConfig("bfs", g0, "Int", max_size=3, max_depth=3)))
    expected = {
        serialize_node(p)
        for p in enumerate_programs(g0, "Int", 3)
        if node_count(p) <= 3
    }
    assert got == expected
    assert len(got) == 21


def test_synth_aborts_on_error_when_not_allowed(strings_grammar):
    from synthkit import EvaluationError

    problem = Problem("one-char", (IOExample({"x": "a"}, "never"),))
    config = IteratorConfig("bfs", strings_grammar, "S", max_depth=2)
    with pytest.raises(EvaluationError):
        synth(problem, config, allow_evaluation_errors=False)
    result = synth(problem, config, allow_evaluation_errors=True)
    assert result.flag == SynthFlag.suboptimal_program
