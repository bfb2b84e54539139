import hashlib
import itertools
import math
import random
import time
import types
from typing import NamedTuple

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
    set_uniform_probabilities,
    synth,
)

from synthkit import iterators
from synthkit.bench import load_grammar_file, load_problem_file
from synthkit.interpreter import RuleCode
from synthkit.solver import SolverState

from conftest import SUITES_DIR
from oracles import (
    enumerate_programs,
    has_recording,
    queued_uniform_trees,
    reference_assignments_best_first,
    reference_lexicographic_walk,
    unconstrained_copy,
)

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


# The sha256 of each order's serialized programs, one per line.  These were
# computed before the search queue held back the entry that emitted last
# (pushing it back with one heappushpop at the next dequeue), so they pin
# that every order stayed exactly as it was.
ARITH_DEPTH_3_ORDERS = {
    ("bfs", False, 0): (885, "55655507e279014214c79cfac7b1fc94fc0c10e67f0b4cd1952c3c6d64e1aa84"),
    ("bfs", False, 1): (498, "15cc34a802527344612d00ea18ba006082820174422ff5bb93ed3154c322f9f6"),
    ("dfs", False, 0): (885, "d94e85a956845f9f56613ef86ee2a0ed5b1c3ff1f3ea860b0bee7e4dd11e31ec"),
    ("dfs", False, 1): (498, "7e1b0f895c4e01aa70043d71a5e5f4ec2aed1b1d3780105af321e32d60d3e2d7"),
    ("dfs", True, 0): (885, "55655507e279014214c79cfac7b1fc94fc0c10e67f0b4cd1952c3c6d64e1aa84"),
    ("dfs", True, 1): (498, "15cc34a802527344612d00ea18ba006082820174422ff5bb93ed3154c322f9f6"),
    ("mlfs", False, 0): (885, "fe9c7e8f362d93abcd7a4861662f363d4300af5237255d7bfc9702c3771debe6"),
    ("mlfs", False, 1): (498, "9711f5b11719b756db6b48069f5bfc95c48e0175729802f2d84a62b9d1c4308a"),
}


@pytest.mark.parametrize(
    "kind, over, constrained",
    sorted(ARITH_DEPTH_3_ORDERS),
    ids=lambda value: str(value),
)
def test_top_down_orders_on_arith_depth_3_are_pinned(g0, kind, over, constrained):
    grammar = g0.with_probabilities([0.3, 0.1, 0.25, 0.2, 0.15])
    constraints = (
        (parse_constraint("(ordered (rule 4 (var a) (var b)) (a b))"),) if constrained else ()
    )
    config = IteratorConfig(
        kind, grammar, "Int", max_depth=3, constraints=constraints, dfs_over_shapes=over
    )
    programs = emit_all(config)
    count, digest = ARITH_DEPTH_3_ORDERS[kind, over, constrained]
    assert len(programs) == count
    assert hashlib.sha256("\n".join(programs).encode()).hexdigest() == digest


@pytest.mark.parametrize("kind", ["bfs", "dfs", "mlfs"])
def test_programs_of_one_uniform_tree_share_their_leaf_nodes(g0_uniform, kind):
    # At depth 2 every binary program comes from the one uniform tree
    # {+,*}{{1,2,x},{1,2,x}}, whose leaf holes build each rule's node once.
    config = IteratorConfig(kind, g0_uniform, "Int", max_depth=2)
    binary = [p for p in make_iterator(config) if p.children]
    assert len(binary) == 18
    for position in (0, 1):
        for rule in (1, 2, 3):
            leaves = [p.children[position] for p in binary if p.children[position].rule == rule]
            assert len(leaves) == 6
            assert all(leaf is leaves[0] for leaf in leaves)


# -- bfs and dfs over unconstrained trees ---------------------------------------

# Each suite's grammar, start symbol, bounds and a problem: arith has binary
# rules only; mini-strings adds a unary (length), a binary (concat) and two
# ternary ones (replace, substring).
PRODUCT_SUITES = {
    "arith": ("Int", 4, 7, "linear"),
    "mini-strings": ("S", 3, 6, "09_last_char"),
}


def _suite_search(suite, kind, over, with_problem, budget=None):
    """One fresh search over a newly parsed grammar, so no recording is
    replayed, and the problem it scores on, if any."""
    start, max_depth, max_size, problem_name = PRODUCT_SUITES[suite]
    grammar = load_grammar_file(SUITES_DIR / suite / "default.herbg")
    problem = None
    if with_problem:
        problem = load_problem_file(SUITES_DIR / suite / f"{problem_name}.problem.json").problem
    config = IteratorConfig(
        kind, grammar, start, max_depth=max_depth, max_size=max_size,
        max_enumerations=budget, dfs_over_shapes=over,
    )
    return make_iterator(config, problem=problem)


def _drained(search):
    return [(serialize_node(program), search.last_vector) for program in search]


def _walk_paths(monkeypatch):
    """Count the trees that bfs and dfs take as a product over their
    children's programs and the ones they build tuple by tuple: the tuple
    walks that build what they pass (a product's walk only finds its first
    passing tuple)."""
    paths = {"product": 0, "built": 0}
    product_programs = iterators._product_programs
    walk = iterators._walk

    def counted_product(*args):
        paths["product"] += 1
        return product_programs(*args)

    def counted_walk(segments, k, prefix, build):
        paths["built"] += k == 0 and build is not tuple
        return walk(segments, k, prefix, build)

    monkeypatch.setattr(iterators, "_product_programs", counted_product)
    monkeypatch.setattr(iterators, "_walk", counted_walk)
    return paths


@pytest.mark.parametrize("cached_parts", [None, 2], ids=["bounded", "mostly-built"])
@pytest.mark.parametrize("with_problem", [False, True], ids=["plain", "problem"])
@pytest.mark.parametrize("kind, over", [("bfs", False), ("dfs", False), ("dfs", True)])
@pytest.mark.parametrize("suite", sorted(PRODUCT_SUITES))
def test_unconstrained_trees_yield_the_lexicographic_walks_programs(
    suite, kind, over, with_problem, cached_parts, monkeypatch
):
    # Per uniform tree, and over the whole search with and without a
    # budget, bfs and dfs must yield the programs and vectors of the tuple
    # walk that builds every tuple with the memoizing builder.  With the
    # default bound every tree here is a product over its children's
    # programs; with a bound of 2 only the tree that is one leaf hole is,
    # and every other is built tuple by tuple.
    if cached_parts is not None:
        monkeypatch.setattr(iterators, "_CACHED_PARTS", cached_parts)
    walk = iterators._assignments_depth_first
    trees = []

    def kept(state, code=None):
        programs = list(walk(state, code))
        trees.append((state, code, programs))
        return iter(programs)

    with monkeypatch.context() as patch:
        paths = _walk_paths(patch)
        patch.setattr(iterators, "_assignments_depth_first", kept)
        fresh = _drained(_suite_search(suite, kind, over, with_problem))
    for state, code, programs in trees:
        assert [(serialize_node(p), lp, v) for p, lp, v in programs] == [
            (serialize_node(p), lp, v) for p, lp, v in reference_lexicographic_walk(state, code)
        ]
    assert len(trees) >= 9 and sum(len(programs) for *_, programs in trees) == len(fresh) > 3000
    if cached_parts is None:
        assert paths == {"product": len(trees), "built": 0}
    else:
        assert paths == {"product": 1, "built": len(trees) - 1}
    with monkeypatch.context() as patch:
        patch.setattr(iterators, "_assignments_depth_first", reference_lexicographic_walk)
        assert _drained(_suite_search(suite, kind, over, with_problem)) == fresh
    assert all(vector is None for _, vector in fresh) != with_problem
    for budget in (0, 1, 7, 500):
        assert _drained(_suite_search(suite, kind, over, with_problem, budget)) == fresh[:budget]


# Uniform trees whose largest child subtree has 18 programs: (+|*) over
# (+|*) over two leaves, and a leaf; and 49: substring over concat over two
# leaves, a leaf and length over a leaf.
BOUND_TREES = {
    "arith": (
        18,
        UniformHole({4, 5}, (
            UniformHole({4, 5}, (UniformHole({1, 2, 3}), UniformHole({1, 2, 3}))),
            UniformHole({1, 2, 3}),
        )),
    ),
    "mini-strings": (
        49,
        UniformHole({10}, (
            UniformHole({8}, (UniformHole(set(range(1, 8))), UniformHole(set(range(1, 8))))),
            UniformHole({11, 12}),
            UniformHole({13}, (UniformHole(set(range(1, 8))),)),
        )),
    ),
}


@pytest.mark.parametrize("with_problem", [False, True], ids=["plain", "problem"])
@pytest.mark.parametrize("suite", sorted(BOUND_TREES))
def test_a_tree_is_a_product_up_to_the_bound_and_built_by_tuples_past_it(
    suite, with_problem, monkeypatch
):
    # A tree whose largest child subtree has exactly _CACHED_PARTS programs
    # is a product over its children's programs; one program more and it is
    # built tuple by tuple.  Both yield the tuple walk's sequence.
    largest, tree = BOUND_TREES[suite]
    _, _, _, problem_name = PRODUCT_SUITES[suite]
    grammar = load_grammar_file(SUITES_DIR / suite / "default.herbg")
    code = None
    if with_problem:
        problem = load_problem_file(SUITES_DIR / suite / f"{problem_name}.problem.json").problem
        code = RuleCode(grammar, problem)
    state = SolverState(grammar, tree, ())
    assert state.propagate()
    expected = [
        (serialize_node(p), lp, v) for p, lp, v in reference_lexicographic_walk(state, code)
    ]
    assert len(expected) == math.prod(len(state.domain(path)) for path in state.hole_paths())
    for bound, path in ((largest, "product"), (largest - 1, "built")):
        monkeypatch.setattr(iterators, "_CACHED_PARTS", bound)
        with monkeypatch.context() as patch:
            paths = _walk_paths(patch)
            programs = list(iterators._assignments_depth_first(state, code))
        assert paths == {"product": path == "product", "built": path == "built"}
        assert [(serialize_node(p), lp, v) for p, lp, v in programs] == expected


@pytest.mark.parametrize("with_problem", [False, True], ids=["plain", "problem"])
def test_a_product_tree_lists_its_children_only_once_advanced_past_its_first_program(
    g0, with_problem, monkeypatch
):
    # A search peeks every uniform tree as it queues it, so the peek must
    # build the first program alone; the children's lists come with the
    # second program, and they reuse the first program's leaf nodes.
    _, tree = BOUND_TREES["arith"]
    code = RuleCode(g0, Problem([IOExample({"x": 2}, 5)])) if with_problem else None
    state = SolverState(g0, tree, ())
    assert state.propagate()
    expected = list(reference_lexicographic_walk(state, code))
    built = []
    new_node = iterators._new_node

    def counted(pair):
        built.append(pair[0])
        return new_node(pair)

    monkeypatch.setattr(iterators, "_new_node", counted)
    programs = iterators._assignments_depth_first(state, code)
    assert built == []
    first = next(programs)
    assert (serialize_node(first[0]), first[2]) == (serialize_node(expected[0][0]), expected[0][2])
    # (+ (+ 1 1) 1): its root, its (+ 1 1) and one node for all three 1s.
    assert serialize_node(first[0]) == "4{4{1,1},1}" and built == [1, 4, 4]
    rest = list(programs)
    # Then the leaves 2 and x, the (+|*) child's 18 programs and the root of
    # each of the tree's other 107 programs.
    assert len(expected) == 108 and built[3:5] == [2, 3] and len(built) == 3 + 2 + 18 + 107
    assert [(serialize_node(p), v) for p, _, v in [first, *rest]] == [
        (serialize_node(p), v) for p, _, v in expected
    ]
    assert rest[0][0].children[0].children[0] is first[0].children[1]


# -- mlfs ranking the rest of an unconstrained tree -----------------------------

# Each suite's start symbol and enum-plain's bounds for it: arith's trees
# reach 3,888 programs, and mini-strings has unary and ternary roots.
RANK_SUITES = {"arith": ("Int", 4, 9), "mini-strings": ("S", 3, 6)}
# The rules whose probability the "zeros" weights set to 0: *, which every
# arith tree with a binary hole may take; in mini-strings replace, the root
# of a shape class of its own, and both integer literals, so the literal
# holes of substring have two.
ZERO_RULES = {"arith": (5,), "mini-strings": (9, 11, 12)}
WEIGHTS = ("uniform", "seeded", "zeros")


def _weighted(suite, weights):
    """The suite's grammar with uniform probabilities, seeded random ones,
    or seeded random ones under which one rule has probability 0."""
    grammar = load_grammar_file(SUITES_DIR / suite / "default.herbg")
    if weights == "uniform":
        return set_uniform_probabilities(grammar)
    rng = random.Random(len(suite))
    raw = [rng.uniform(0.5, 1.5) for _ in grammar.indices]
    if weights == "zeros":
        for rule in ZERO_RULES[suite]:
            raw[rule - 1] = 0.0
    totals = {lhs: sum(raw[i - 1] for i in ids) for lhs, ids in grammar.bytype.items()}
    return grammar.with_probabilities(
        [raw[i - 1] / totals[grammar.lhs(i)] for i in grammar.indices]
    )


def _ranked_walks(monkeypatch):
    """Count the mlfs walks that rank their rest, and record the ``skip``
    each ranks at, in order."""
    paths = {"ranked": 0, "skips": []}
    rank_order = iterators._rank_order

    def counted(start, steps, skip):
        paths["ranked"] += 1
        paths["skips"].append(skip)
        return rank_order(start, steps, skip)

    monkeypatch.setattr(iterators, "_rank_order", counted)
    return paths


def _ranks(state, grammar, drained):
    """Whether an mlfs walk of the tree without vectors, advanced to its
    end, ranks its rest (:func:`_rank_skip`)."""
    return _rank_skip(state, grammar, drained) is not None


def _rank_skip(state, grammar, drained):
    """The tuples an mlfs walk of the tree without vectors, advanced to its
    end, pops before it ranks its rest, or None where it does not rank.
    It ranks when every site left to test is local, and then each child
    of the root has at most _CACHED_PARTS programs, every log-probability
    of its domains is finite, and the tree has at most _RANKED_MAX tuples,
    more than the heap pops first: up to its first passing one in a search
    that runs to exhaustion (``drained``), else 1/_RANK_AFTER of them, and
    at least up to its first passing one."""
    domains = [state.domain(path) for path in state.hole_paths()]
    count = math.prod(map(len, domains))
    finite = all(math.isfinite(grammar.log_probability(r)) for rules in domains for r in rules)
    sites = state._tested_sites()
    if any(site.children is None for site in sites):
        return None
    if sites and any(
        math.prod(map(len, domains[i : i + node_count(child)])) > iterators._CACHED_PARTS
        for child, i, _, _ in iterators._children(state.root, 0, domains)
    ):
        return None
    popped = 1
    if sites:
        passing = {
            serialize_node(p) for p, _, _ in reference_assignments_best_first(state, grammar)
        }
        heap = reference_assignments_best_first(unconstrained_copy(state), grammar)
        firsts = [k for k, (p, _, _) in enumerate(heap) if serialize_node(p) in passing]
        if not firsts:
            return None
        popped = firsts[0] + 1
    skip = popped if drained else max(popped, count // iterators._RANK_AFTER)
    return skip if finite and skip < count <= iterators._RANKED_MAX else None


def _best_first_items(programs):
    """Walk items comparable bit for bit: text, log-probability as hex,
    vector."""
    return [(serialize_node(p), lp.hex(), v) for p, lp, v in programs]


def _mlfs_search(grammar, start, max_depth, max_size, budget=None, problem=None):
    config = IteratorConfig(
        "mlfs", grammar, start, max_depth=max_depth, max_size=max_size, max_enumerations=budget
    )
    return make_iterator(config, problem=problem)


@pytest.mark.parametrize("switch", ["eighth", "first"])
@pytest.mark.parametrize("weights", WEIGHTS)
@pytest.mark.parametrize("suite", sorted(RANK_SUITES))
def test_unconstrained_mlfs_trees_yield_the_heaps_programs(suite, weights, switch, monkeypatch):
    # Per uniform tree, and over the whole search with and without a
    # budget, mlfs must yield the heap walk's programs with bit-equal
    # log-probabilities, whether a tree ranks its rest after an eighth of
    # its programs or, with the fraction patched, right after its first.
    # The trees are walked under a budget no search here reaches, so that
    # the search does not run to exhaustion and keeps the eighth.
    # Exactly the trees with no open site, finite log-probabilities and at
    # most _RANKED_MAX programs rank; under the "zeros" weights some do not.
    if switch == "first":
        monkeypatch.setattr(iterators, "_RANK_AFTER", 1 << 20)
    start, max_depth, max_size = RANK_SUITES[suite]
    grammar = _weighted(suite, weights)
    walk = iterators._assignments_best_first
    trees = []

    def kept(state, grammar, code, orders, drained):
        programs = list(walk(state, grammar, code, orders, drained))
        trees.append((state, drained, programs))
        return iter(programs)

    with monkeypatch.context() as patch:
        paths = _ranked_walks(patch)
        patch.setattr(iterators, "_assignments_best_first", kept)
        search = _mlfs_search(grammar, start, max_depth, max_size, 1 << 30)
        fresh = [serialize_node(p) for p in search]
    for state, drained, programs in trees:
        assert not drained
        assert _best_first_items(programs) == _best_first_items(
            reference_assignments_best_first(state, grammar)
        )
    ranking = sum(_ranks(state, grammar, drained) for state, drained, _ in trees)
    if weights == "zeros":
        # In arith only the one-leaf tree lacks *; mini-strings ranks more.
        assert paths["ranked"] == ranking >= 1 and len(trees) - ranking >= 5
    else:
        assert paths["ranked"] == ranking >= 10
    with monkeypatch.context() as patch:
        patch.setattr(iterators, "_assignments_best_first", reference_assignments_best_first)
        search = _mlfs_search(grammar, start, max_depth, max_size)
        assert [serialize_node(p) for p in search] == fresh
    assert len(fresh) > 14000
    for budget in (0, 1, 7, 500):
        search = _mlfs_search(grammar, start, max_depth, max_size, budget)
        assert [serialize_node(p) for p in search] == fresh[:budget]


def _walks_with_skips(monkeypatch, skips):
    """Record every mlfs walk, advanced to its end: its state, grammar,
    drained flag, the skips it ranked at (``skips``, :func:`_ranked_walks`)
    and its programs."""
    walk = iterators._assignments_best_first
    walks = []

    def kept(state, grammar, code, orders, drained):
        before = len(skips)
        programs = list(walk(state, grammar, code, orders, drained))
        walks.append((state, grammar, drained, skips[before:], programs))
        return iter(programs)

    monkeypatch.setattr(iterators, "_assignments_best_first", kept)
    return walks


def _drain_mlfs(case, weights, **limits):
    """An mlfs search over a DRAIN_CASES case under the given weights."""
    suite, start, max_depth, max_size, texts = DRAIN_CASES[case]
    config = IteratorConfig(
        "mlfs", _weighted(suite, weights), start, max_depth=max_depth, max_size=max_size,
        constraints=tuple(parse_constraint(text) for text in texts),
        max_enumerations=limits.pop("budget", None),
    )
    return make_iterator(config, **limits)


@pytest.mark.parametrize(
    "case, weights",
    [(suite, weights) for suite in ("arith", "mini-strings") for weights in WEIGHTS]
    + [("ordered", "seeded"), ("forbidden", "seeded")],
)
def test_a_drained_mlfs_search_ranks_each_tree_right_after_its_first_program(
    case, weights, monkeypatch
):
    # With no problem, budget or deadline the search runs to exhaustion,
    # and every tree that can rank ranks right after its first program: its
    # one rank order skips only the tuples popped up to there.  Each tree
    # still yields the reference heap walk's programs, log-probabilities
    # bit for bit, and the whole search equals the same search under a
    # budget it exactly uses up, which ranks at the eighth.
    skips = _ranked_walks(monkeypatch)["skips"]
    with monkeypatch.context() as patch:
        walks = _walks_with_skips(patch, skips)
        fresh = [serialize_node(p) for p in _drain_mlfs(case, weights)]
    ranked = 0
    for state, grammar, drained, made, programs in walks:
        assert drained
        skip = _rank_skip(state, grammar, True)
        assert made == ([] if skip is None else [skip])
        ranked += skip is not None
        if not state._tested_sites():
            assert skip in (None, 1)
        assert _best_first_items(programs) == _best_first_items(
            reference_assignments_best_first(state, grammar)
        )
    assert ranked >= (1 if weights == "zeros" else 5) and len(fresh) > 600
    del skips[:]
    with monkeypatch.context() as patch:
        walks = _walks_with_skips(patch, skips)
        budgeted = [serialize_node(p) for p in _drain_mlfs(case, weights, budget=len(fresh))]
    assert budgeted == fresh
    assert not any(drained for _, _, drained, _, _ in walks)
    for state, grammar, _, made, _ in walks:
        skip = _rank_skip(state, grammar, False)
        assert made == ([] if skip is None else [skip])


def _suite_problem(suite):
    """The suite's problem in PRODUCT_SUITES."""
    name = PRODUCT_SUITES[suite][3]
    return load_problem_file(SUITES_DIR / suite / f"{name}.problem.json").problem


def _replayed(case):
    """A search with a problem and a budget whose key was searched once
    before, so that it replays a recording of a paused search."""
    suite, start, max_depth, max_size, _ = DRAIN_CASES[case]
    problem = _suite_problem(suite)
    grammar = _weighted(suite, "seeded")

    def search():
        config = IteratorConfig(
            "mlfs", grammar, start, max_depth=max_depth, max_size=max_size, max_enumerations=3000
        )
        return make_iterator(config, problem=problem)

    assert sum(1 for _ in search()) == 3000
    assert not has_recording(grammar)
    replay = search()
    assert has_recording(grammar)
    return replay


@pytest.mark.parametrize("case", ["arith", "mini-strings"])
@pytest.mark.parametrize("limit", ["budget", "problem", "deadline", "replay"])
def test_an_mlfs_search_that_may_stop_early_keeps_the_eighth(case, limit, monkeypatch):
    # A search with a budget or a deadline, and a replayed recording's
    # paused search, may stop inside a tree, so each tree that can rank
    # ranks only once the heap has popped an eighth of its tuples; a search
    # with a problem computes vectors and ranks nothing.
    skips = _ranked_walks(monkeypatch)["skips"]
    walks = _walks_with_skips(monkeypatch, skips)
    if limit == "budget":
        search = _drain_mlfs(case, "seeded", budget=1 << 30)
    elif limit == "deadline":
        search = _drain_mlfs(case, "seeded", deadline=_far())
    elif limit == "problem":
        search = _drain_mlfs(case, "seeded", problem=_suite_problem(DRAIN_CASES[case][0]))
    else:
        search = _replayed(case)
        del walks[:], skips[:]
    assert sum(1 for _ in search) > 600
    assert walks and not any(drained for _, _, drained, _, _ in walks)
    ranked = 0
    for state, grammar, _, made, _ in walks:
        skip = None if limit == "problem" else _rank_skip(state, grammar, False)
        assert made == ([] if skip is None else [skip])
        ranked += skip is not None
    assert (ranked > 0) == (limit != "problem")


def _cap_tree(last_leaf):
    """An arith uniform tree of 2**12 times ``len(last_leaf)`` programs: six
    (+|*) holes over six (1|2) leaves and ``last_leaf``."""
    op, leaf = {4, 5}, {1, 2}

    def pair(left, right):
        return UniformHole(op, (left, right))

    def leaves(domain=leaf):
        return pair(UniformHole(leaf), UniformHole(domain))

    return pair(pair(leaves(), leaves()), pair(leaves(), UniformHole(last_leaf)))


@pytest.mark.parametrize("last_leaf, ranked", [({3}, True), ({2, 3}, False)], ids=["cap", "over"])
def test_a_tree_ranks_up_to_the_cap_and_pops_past_it(last_leaf, ranked, monkeypatch):
    # A tree of exactly _RANKED_MAX programs ranks its rest; one of twice
    # that many is popped to its end.  Both yield the heap walk's programs.
    grammar = _weighted("arith", "seeded")
    state = SolverState(grammar, _cap_tree(last_leaf), ())
    assert state.propagate()
    count = math.prod(len(state.domain(path)) for path in state.hole_paths())
    assert count == iterators._RANKED_MAX * len(last_leaf)
    paths = _ranked_walks(monkeypatch)
    programs = list(iterators._assignments_best_first(state, grammar, None, {}))
    assert paths["ranked"] == ranked
    assert _best_first_items(programs) == _best_first_items(
        reference_assignments_best_first(state, grammar)
    )


def test_mlfs_ranks_no_tree_with_vectors_or_a_site_that_is_not_local(monkeypatch):
    # A search with a problem pops every tree to its end, vectors and all.
    # Under an ordered constraint, whose sites are local, a tree with sites
    # left to test ranks too, its rank order kept by the flags its local
    # sites give each tuple; under a nested forbidden pattern, whose sites
    # read deeper than a node's children, only the trees that propagation
    # left with no site to test rank.
    grammar = _weighted("arith", "seeded")
    problem = load_problem_file(SUITES_DIR / "arith" / "linear.problem.json").problem
    paths = _ranked_walks(monkeypatch)
    search = _mlfs_search(grammar, "Int", 4, 7, problem=problem)
    fresh = [(serialize_node(p), search.last_vector) for p in search]
    assert paths["ranked"] == 0
    with monkeypatch.context() as patch:
        patch.setattr(iterators, "_assignments_best_first", reference_assignments_best_first)
        search = _mlfs_search(grammar, "Int", 4, 7, problem=problem)
        assert [(serialize_node(p), search.last_vector) for p in search] == fresh
    walk = iterators._assignments_best_first
    trees = []

    def kept(state, grammar, code, orders, drained):
        ranked = paths["ranked"]
        programs = list(walk(state, grammar, code, orders, drained))
        trees.append((state, drained, paths["ranked"] > ranked, programs))
        return iter(programs)

    monkeypatch.setattr(iterators, "_assignments_best_first", kept)
    for text, local in (
        ("(ordered (rule 4 (var a) (var b)) (a b))", True),
        ("(forbidden (rule 5 (var a) (rule 4 (var a) (var b))))", False),
    ):
        del trees[:]
        constraints = (parse_constraint(text),)
        config = IteratorConfig(
            "mlfs", grammar, "Int", max_depth=4, max_size=7, constraints=constraints
        )
        assert sum(1 for _ in make_iterator(config)) > 1000
        for state, drained, ranked, programs in trees:
            assert ranked == _ranks(state, grammar, drained)
            assert _best_first_items(programs) == _best_first_items(
                reference_assignments_best_first(state, grammar)
            )
        # Here every tree ranks under the ordered constraint, and none with
        # a site to test under the nested one.
        tested = [ranked for state, _, ranked, _ in trees if state._tested_sites()]
        assert tested and all(tested) == any(tested) == local
        assert (sum(ranked for _, _, ranked, _ in trees) == len(trees)) == local


def test_a_ranked_tree_cut_off_by_a_budget_builds_no_root_it_does_not_emit(monkeypatch):
    # The heap emits the first 13 of the tree's 108 programs; the ranked
    # rest lists each child's programs once, and builds a root only when
    # the walk is advanced to it.
    _, tree = BOUND_TREES["arith"]
    grammar = _weighted("arith", "seeded")
    state = SolverState(grammar, tree, ())
    assert state.propagate()
    expected = _best_first_items(reference_assignments_best_first(state, grammar))
    assert len(expected) == 108
    paths = _ranked_walks(monkeypatch)
    built = []
    new_node = iterators._new_node

    def counted(pair):
        node = new_node(pair)
        built.append(node)
        return node

    monkeypatch.setattr(iterators, "_new_node", counted)
    programs = iterators._assignments_best_first(state, grammar, None, {})
    taken = list(itertools.islice(programs, 20))
    assert paths["ranked"] == 1
    assert _best_first_items(taken) == expected[:20]
    size = node_count(state.root)
    assert [id(node) for node in built if node_count(node) == size] == [id(p) for p, _, _ in taken]


# -- bfs and dfs draining a uniform tree ahead of the queue ---------------------

# Each case's suite, start symbol, bounds and constraints: enum-plain's
# bounds on both suites, and enum-constrained's on arith under each of its
# two constraint sets.
DRAIN_CASES = {
    "arith": ("arith", "Int", 4, 9, ()),
    "mini-strings": ("mini-strings", "S", 3, 6, ()),
    "ordered": (
        "arith", "Int", 4, 7,
        ("(ordered (rule 4 (var a) (var b)) (a b))", "(ordered (rule 5 (var a) (var b)) (a b))"),
    ),
    "forbidden": ("arith", "Int", 4, 7, ("(forbidden (rule 4 (var a) (var a)))",)),
}
DRAIN_KINDS = pytest.mark.parametrize(
    "kind, over", [("bfs", False), ("dfs", False), ("dfs", True)],
    ids=["bfs", "dfs", "dfs-over-shapes"],
)


def _drain_search(case, kind, over=False, budget=None, deadline=None):
    """A search without a problem; mlfs runs under seeded probabilities."""
    suite, start, max_depth, max_size, texts = DRAIN_CASES[case]
    if kind == "mlfs":
        grammar = _weighted(suite, "seeded")
    else:
        grammar = load_grammar_file(SUITES_DIR / suite / "default.herbg")
    config = IteratorConfig(
        kind, grammar, start, max_depth=max_depth, max_size=max_size,
        constraints=tuple(parse_constraint(text) for text in texts),
        max_enumerations=budget, dfs_over_shapes=over,
    )
    return make_iterator(config, deadline=deadline)


class _CountedStream:
    """A uniform tree's stream that counts its advances, the one that finds
    it exhausted included, keeps the program it handed over last (``None``
    once exhausted) and notes itself in ``owners`` as each program's tree."""

    def __init__(self, stream, owners):
        self.stream, self.owners = stream, owners
        self.advances, self.last = 0, None

    def __iter__(self):
        return self

    def __next__(self):
        self.advances += 1
        item = next(self.stream, None)
        if item is None:
            self.last = None
            raise StopIteration
        self.last = item[0]
        self.owners[id(item[0])] = self
        return item


class _Emission(NamedTuple):
    text: str
    # Whether the search handed the program over by delegating to its
    # tree's stream, as a drained tree emits all but its first program.
    delegated: bool
    # Whether the tree's stream was advanced past the program before it
    # was emitted, as a program emitted through the queue is.
    advanced: bool
    tree: _CountedStream


def _emissions(search):
    """Run a search whose uniform trees' streams count their advances:
    the streams, one per tree the search queued, and each emission."""
    streams, owners = [], {}
    uniform_programs = search._uniform_programs

    def counted(state):
        streams.append(_CountedStream(uniform_programs(state), owners))
        return streams[-1]

    search._uniform_programs = counted
    run = iter(search)
    emitted = []
    for program in run:
        tree = owners.pop(id(program))
        delegated = run.gi_yieldfrom is not None
        advanced = tree.last is not program
        emitted.append(_Emission(serialize_node(program), delegated, advanced, tree))
    return streams, emitted


def _far():
    """A deadline no search here reaches, which keeps the per-program path."""
    return time.monotonic() + 3600


@DRAIN_KINDS
@pytest.mark.parametrize("case", sorted(DRAIN_CASES))
def test_a_tree_ahead_of_the_queue_drains_and_changes_nothing(case, kind, over):
    # With no problem, deadline or budget, a uniform tree is advanced once,
    # to peek it as it is queued, and emits the rest at once.  Only dfs
    # siblings of equal priority still take turns program by program, until
    # one is exhausted.  Under a deadline every program is advanced to, and
    # the sequence is the same.
    streams, emitted = _emissions(_drain_search(case, kind, over))
    drained = [e.text for e in emitted]
    trees = len(streams)
    advances = trees + sum(e.advanced for e in emitted)
    assert any(e.delegated for e in emitted)
    streams, emitted = _emissions(_drain_search(case, kind, over, deadline=_far()))
    kept = [e.text for e in emitted]
    assert drained == kept and len(kept) > 600
    assert len(streams) == trees
    assert sum(stream.advances for stream in streams) == trees + len(kept)
    assert all(e.advanced and not e.delegated for e in emitted)
    if kind == "dfs" and not over:
        assert trees < advances < trees + len(kept) // 100
    else:
        assert advances == trees


@pytest.mark.parametrize("case", sorted(DRAIN_CASES))
def test_mlfs_advances_once_per_program(case):
    # mlfs keys every program by its own log-probability, so it never drains.
    streams, emitted = _emissions(_drain_search(case, "mlfs"))
    assert sum(stream.advances for stream in streams) == len(streams) + len(emitted)
    assert not any(e.delegated for e in emitted)


def test_a_deadline_inside_a_large_bfs_tree_stops_at_the_same_program(monkeypatch):
    # A clock that ticks once per reading passes the deadline at the 3,500th
    # dequeue, inside the 3,888 programs of the tree bfs emits from the
    # 1,534th program on.  A deadline keeps the per-program path, so the
    # search stops at the 3,474th program, where it stopped when every
    # emission took a round trip through the queue.
    full = [serialize_node(p) for p in _drain_search("arith", "bfs")]
    ticks = itertools.count()
    monkeypatch.setattr(iterators, "time", types.SimpleNamespace(monotonic=lambda: next(ticks)))
    _, emitted = _emissions(_drain_search("arith", "bfs", deadline=3500))
    stopped = [e.text for e in emitted]
    assert len(stopped) == 3474 and stopped == full[:3474]
    # The tree that emitted last still had programs to emit.
    assert emitted[-1].tree.last is not None


@DRAIN_KINDS
def test_a_budget_inside_a_tree_or_at_its_end_emits_the_prefix(kind, over):
    # Under a far deadline every program goes through the queue, and its
    # stream names its tree; a budget ends halfway through the longest run
    # of one tree's programs, or where that run ends.
    full = [serialize_node(p) for p in _drain_search("arith", kind, over)]
    _, emitted = _emissions(_drain_search("arith", kind, over, deadline=_far()))
    assert all(e.advanced and not e.delegated for e in emitted)
    trees = [id(e.tree) for e in emitted]
    runs = [len(list(run)) for _, run in itertools.groupby(trees)]
    longest = runs.index(max(runs))
    end = sum(runs[: longest + 1])
    assert len(trees) == len(full) and runs[longest] > 1000 and end < len(full)
    for budget in (end - runs[longest] // 2, end):
        search = _drain_search("arith", kind, over, budget=budget)
        assert [serialize_node(p) for p in search] == full[:budget]


@pytest.mark.parametrize("far", [False, True], ids=["drained", "far-deadline"])
@pytest.mark.parametrize(
    "kind, over", [("bfs", False), ("dfs", False), ("dfs", True), ("mlfs", False)],
    ids=["bfs", "dfs", "dfs-over-shapes", "mlfs"],
)
@pytest.mark.parametrize("case", ["arith", "mini-strings", "ordered"])
def test_every_queued_uniform_tree_carries_the_key_its_rule_gives(case, kind, over, far):
    # The loop keys a re-enqueued tree itself, without priority_function.
    # After every emitted program each uniform tree the search holds must
    # carry the key the public rules give: mlfs the negated best
    # log-probability of the program it will emit next; bfs and dfs, for
    # the tree that has just emitted, priority_function's re-enqueue value
    # of the key it was dequeued with, and for every other tree the key it
    # was last seen with.
    search = _drain_search(case, kind, over, deadline=_far() if far else None)
    grammar = search.grammar
    last_keys = {}
    requeued = 0
    for _ in search:
        queued, held = queued_uniform_trees(search)
        for item in queued + ([] if held is None else [held]):
            key, _, stream, peeked, _ = item
            if kind == "mlfs":
                assert key == -max_rulenode_log_probability(peeked, grammar)
            elif stream in last_keys:
                expected = last_keys[stream]
                if item is held:
                    requeued += 1
                    expected = priority_function(
                        kind, grammar, peeked, expected, True, dfs_over_shapes=over
                    )
                assert key == expected
            last_keys[stream] = key
    # Under a deadline every tree emits through the queue, so the rule for
    # re-enqueued trees is checked on most programs.
    if far and kind != "mlfs":
        assert requeued > 100


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



@pytest.mark.parametrize(
    "constraints, emitted",
    [
        (("(ordered (rule 4 (var a) (var b)) (a b))",), 1713),
        (("(forbidden (rule 4 (rule 1) (var x)))", "(forbidden (rule 5 (var a) (var a)))"), 1875),
    ],
    ids=["ordered", "two-forbidden"],
)
def test_bottom_up_under_constraints_emits_the_filtered_sequence(g0, constraints, emitted):
    from synthkit import check_program

    def drain(constraints):
        config = IteratorConfig(
            "bottom_up", g0, "Int", max_depth=4, max_size=7, constraints=constraints
        )
        return [serialize_node(p) for p in make_iterator(config)]

    constraints = tuple(parse_constraint(text) for text in constraints)
    unconstrained = drain(())
    assert len(unconstrained) == 3477
    expected = [p for p in unconstrained if check_program(constraints, parse_node(p))]
    assert drain(constraints) == expected
    assert len(expected) == emitted


@pytest.mark.parametrize("budget", [37, 0])
def test_bottom_up_budget_emits_a_prefix(g0, budget):
    everything = emit_all(IteratorConfig("bottom_up", g0, "Int", max_size=5))
    iterator = make_iterator(
        IteratorConfig("bottom_up", g0, "Int", max_size=5, max_enumerations=budget)
    )
    programs = [serialize_node(p) for p in iterator]
    assert programs == everything[:budget]
    assert iterator.next_program() is None

# -- config validation ------------------------------------------------------------


@pytest.mark.parametrize(
    "kind, flags",
    [
        ("bfs", {"observational_equivalence": True, "dfs_over_shapes": True}),
        ("bfs", {"dfs_over_shapes": True}),
        ("mlfs", {"dfs_over_shapes": True}),
        ("bottom_up", {"dfs_over_shapes": True}),
        ("dfs", {"observational_equivalence": True}),
        ("mlfs", {"observational_equivalence": True}),
    ],
)
def test_flags_the_kind_ignores_are_rejected(g0, kind, flags):
    with pytest.raises(ConfigError):
        IteratorConfig(kind, g0, "Int", max_depth=3, max_size=5, **flags)


def test_mlfs_without_probabilities_runs_on_uniform_ones(g0, g0_uniform):
    config = IteratorConfig("mlfs", g0, "Int", max_depth=3)
    assert config.grammar.has_probabilities
    uniform = IteratorConfig("mlfs", g0_uniform, "Int", max_depth=3)
    assert emit_all(config) == emit_all(uniform)


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



@pytest.mark.parametrize(
    "bounds", [{"max_depth": 0}, {"max_size": 0}, {"max_enumerations": -1}]
)
def test_bounds_out_of_range_are_rejected(g0, bounds):
    with pytest.raises(ConfigError):
        IteratorConfig("bfs", g0, "Int", **bounds)


@pytest.mark.parametrize(
    "text, recursive",
    [
        ("S = 1\nS = S + S", True),
        ("S = 1\nS = A + A\nA = 2\nA = S * S", True),
        ("S = A + B\nA = C * C\nB = C + C\nC = 1 | 2", False),
        ("S = A + A\nA = 1\nA = A * A", True),
    ],
    ids=["self", "through-another", "diamond", "reaches-a-recursive-symbol"],
)
def test_only_a_grammar_that_can_recurse_needs_a_bound(text, recursive):
    grammar = parse_grammar(text)
    if recursive:
        with pytest.raises(ConfigError):
            IteratorConfig("bfs", grammar, "S")
    else:
        assert len(emit_all(IteratorConfig("bfs", grammar, "S"))) == 16

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


@pytest.mark.parametrize("timeout", [-1.0, float("nan")])
def test_synth_rejects_a_negative_timeout(g0, arith_problem, timeout):
    config = IteratorConfig("bfs", g0, "Int", max_depth=3)
    with pytest.raises(ConfigError):
        synth(arith_problem, config, timeout_seconds=timeout)


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
    # The search must outlast the timeout: up to size 10 it ends in about
    # 0.9 s on 2 shared CPUs (Python 3.11), up to size 11 in about 2.4 s.
    grammar = parse_grammar((SUITES_DIR / "mini-strings" / "default.herbg").read_text())
    problem = Problem(
        "unreachable", (IOExample({"x": "hello"}, 1000), IOExample({"x": "sun"}, 999))
    )
    config = IteratorConfig(
        "bottom_up", grammar, "I", max_size=11, observational_equivalence=True
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


def test_observational_equivalence_keeps_bool_and_int_vectors_apart():
    # x gives (1, 0) and 1 == x gives (True, False); Python calls those
    # tuples equal, but they are different outputs.
    grammar = parse_grammar("E = 1 | x\nE = E == E")
    problem = Problem("eq", (IOExample({"x": 1}, True), IOExample({"x": 0}, False)))
    for pruning in (False, True):
        config = IteratorConfig(
            "bottom_up", grammar, "E", max_size=3, observational_equivalence=pruning
        )
        result = synth(problem, config)
        assert result.flag == SynthFlag.optimal_program
        assert serialize_node(result.program) == "3{1,2}"
