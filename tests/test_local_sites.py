"""Local constraint sites: which sites are local, which walk each uniform
tree takes, and that every walk still emits exactly the satisfying
programs.

A site is local when its pattern reads only the hole at its own node and
each subtree it compares or repeats is one whole child of that node.  bfs
and dfs take a tree whose sites are all local as one product over its
children's listed programs, filtered by the sites decided on the
children's texts; mlfs decides such a tree's sites from the same
children's texts once it is advanced past its first program, and may rank
its rest.  Any other tree keeps the tuple-tested walk.
"""

import itertools
import math
import random

import pytest

from synthkit import (
    IOExample,
    IteratorConfig,
    Problem,
    UniformHole,
    make_iterator,
    node_count,
    parse_constraint,
    serialize_node,
)
from synthkit import iterators
from synthkit.bench import load_grammar_file
from synthkit.constraints import check_program
from synthkit.interpreter import RuleCode
from synthkit.solver import SolverState, _product_mask

from conftest import SUITES_DIR
from oracles import (
    enumerate_programs,
    reference_assignments_best_first,
    reference_lexicographic_walk,
)

ARITH_LEAF = {1, 2, 3}
# mini-strings: 1 x, 2-7 constants, 8 concat, 9 replace, 10 substring;
# 11 and 12 the integer literals, 13 length.
STRING_LEAF = set(range(1, 8))


def _grammar(suite, seeded=False):
    """The suite's grammar, with seeded random probabilities if asked."""
    grammar = load_grammar_file(SUITES_DIR / suite / "default.herbg")
    if not seeded:
        return grammar
    rng = random.Random(len(suite))
    raw = [rng.uniform(0.5, 1.5) for _ in grammar.indices]
    totals = {lhs: sum(raw[i - 1] for i in ids) for lhs, ids in grammar.bytype.items()}
    return grammar.with_probabilities(
        [raw[i - 1] / totals[grammar.lhs(i)] for i in grammar.indices]
    )


# (suite, tree, constraint, the child positions of a local site at the
# root, or None when it is not local)
CLASSIFIED = [
    (
        "arith",
        UniformHole({4, 5}, (UniformHole(ARITH_LEAF), UniformHole(ARITH_LEAF))),
        "(ordered (rule 4 (var a) (var b)) (a b))",
        (0, 1),
    ),
    (
        "arith",
        UniformHole({4, 5}, (UniformHole(ARITH_LEAF), UniformHole(ARITH_LEAF))),
        "(ordered (domain (4 5) (var a) (var b)) (b a))",
        (0, 1),
    ),
    (
        "arith",
        UniformHole({4, 5}, (UniformHole(ARITH_LEAF), UniformHole(ARITH_LEAF))),
        "(ordered (rule 4 (var a) (var b)) (a b a))",
        (0, 1),
    ),
    (
        "arith",
        UniformHole({4, 5}, (UniformHole(ARITH_LEAF), UniformHole(ARITH_LEAF))),
        "(ordered (rule 4 (var a) (var b)) (a b b))",
        (0, 1),
    ),
    (
        "arith",
        UniformHole({4, 5}, (UniformHole(ARITH_LEAF), UniformHole(ARITH_LEAF))),
        "(forbidden (rule 4 (var a) (var a)))",
        (0, 1),
    ),
    (
        "arith",
        UniformHole({4, 5}, (UniformHole(ARITH_LEAF), UniformHole(ARITH_LEAF))),
        "(forbidden (rule 4))",
        (),
    ),
    (
        "mini-strings",
        UniformHole({9}, tuple(UniformHole(STRING_LEAF) for _ in range(3))),
        "(ordered (rule 9 (var a) (var b) (var c)) (a b c))",
        (0, 1, 2),
    ),
    (
        "mini-strings",
        UniformHole({8}, (UniformHole(STRING_LEAF), UniformHole(STRING_LEAF))),
        "(ordered (rule 8 (var a) (var b)) (a b))",
        (0, 1),
    ),
    (
        "mini-strings",
        UniformHole({10}, (UniformHole(STRING_LEAF), UniformHole({11, 12}), UniformHole({11, 12}))),
        "(forbidden (rule 10 (var a) (rule 11) (rule 11)))",
        None,
    ),
    (
        "mini-strings",
        UniformHole({8}, (
            UniformHole(STRING_LEAF),
            UniformHole({8}, (UniformHole(STRING_LEAF), UniformHole(STRING_LEAF))),
        )),
        "(ordered (rule 8 (var a) (rule 8 (var a) (var b))) (a b))",
        None,
    ),
    (
        "arith",
        UniformHole(ARITH_LEAF),
        "(forbidden (domain (1 2 3)))",
        None,
    ),
]


@pytest.mark.parametrize(
    "suite, tree, text, children", CLASSIFIED, ids=[case[2] for case in CLASSIFIED]
)
def test_a_site_is_local_when_it_reads_its_node_and_whole_children(suite, tree, text, children):
    # Two- and three-variable ordered sites, a forbidden one whose variable
    # repeats and one on a bare rule read only their node's rule and whole
    # children; a pattern with a concrete child or a nested rule reads
    # deeper, and a site at a leaf has no children to read.
    state = SolverState(_grammar(suite), tree, (parse_constraint(text),))
    [site] = [site for site in state._sites if site.at == 0]
    assert site.children == children


@pytest.mark.parametrize(
    "suite, tree, text, children",
    [case for case in CLASSIFIED if case[3] is not None],
    ids=[case[2] for case in CLASSIFIED if case[3] is not None],
)
def test_a_local_sites_mask_over_its_childrens_texts_agrees_with_its_violation(
    suite, tree, text, children
):
    # Whichever way the mask is computed, in C by a comparison of two texts
    # or per tuple, it must pass exactly the tuples of children's texts on
    # which the site is not violated; an ordered site that lists a variable
    # twice compares three texts over two children.
    state = SolverState(_grammar(suite), tree, (parse_constraint(text),))
    [site] = [site for site in state._sites if site.at == 0]
    columns = [["1", "2", "4{1,2}", "4{2,1}", "5{1,1}"][: 5 - k] for k in range(len(tree.children))]
    expected = [
        not site.violated([texts[k] for k in site.children])
        for texts in itertools.product(*columns)
    ]
    assert list(_product_mask(site, columns)) == expected
    assert 0 < sum(expected) < len(expected) or not children


# (suite, start, max_depth, max_size, constraint texts, whether some tree
# is walked by tuples): enum-constrained's two sets at depth 5, mini-strings
# under the sets of the CI's constrained steps, and under the local halves
# of those.  Under the ordered sets some trees are walked by tuples because
# every match breaks a site there, under the CI's sets because a pattern
# reads deeper, and in mini-strings also because a child is too large.
PATH_CASES = [
    ("arith", "Int", 5, 9, (
        "(ordered (rule 4 (var a) (var b)) (a b))",
        "(ordered (rule 5 (var a) (var b)) (a b))",
    ), True),
    ("arith", "Int", 5, 9, ("(forbidden (rule 4 (var a) (var a)))",), False),
    ("arith", "Int", 5, 9, (
        "(ordered (rule 4 (var a) (var b)) (a b a))",
        "(ordered (rule 5 (var a) (var b)) (a b b))",
    ), True),
    ("mini-strings", "S", 3, 6, (
        "(ordered (rule 8 (var a) (var b)) (a b))",
        "(forbidden (rule 10 (var a) (rule 11) (rule 11)))",
    ), True),
    ("mini-strings", "S", 3, 7, (
        "(ordered (rule 9 (var a) (var b) (var c)) (a b c))",
        "(ordered (rule 8 (var a) (rule 8 (var a) (var b))) (a b))",
    ), True),
    ("mini-strings", "S", 3, 7, (
        "(ordered (rule 9 (var a) (var b) (var c)) (a b c))",
        "(ordered (rule 8 (var a) (var b)) (a b))",
    ), True),
]


def _expected_path(state):
    """The walk a tree must take: ``"plain"`` with no site to test,
    ``"local"`` when every site is local and each child of the root has at
    most ``_CACHED_PARTS`` programs, else ``"tested"``."""
    sites = state._tested_sites()
    if not sites:
        return "plain"
    if any(site.children is None for site in sites):
        return "tested"
    domains = [state.domain(path) for path in state.hole_paths()]
    small = all(
        math.prod(map(len, domains[i : i + node_count(child)])) <= iterators._CACHED_PARTS
        for child, i, _, _ in iterators._children(state.root, 0, domains)
    )
    return "local" if small else "tested"


@pytest.mark.parametrize("kind", ["bfs", "dfs", "mlfs"])
@pytest.mark.parametrize(
    "suite, start, max_depth, max_size, texts, tested", PATH_CASES,
    ids=[f"{case[0]}-{i}" for i, case in enumerate(PATH_CASES)],
)
def test_each_tree_takes_the_walk_its_sites_allow_and_keeps_the_reference_sequence(
    suite, start, max_depth, max_size, texts, tested, kind, monkeypatch
):
    # Per uniform tree the walk taken must follow from its sites and size,
    # and its programs must equal the reference walk's: for bfs and dfs
    # the tuple walk that tests every tuple whole, for mlfs the heap over
    # materialized programs, log-probabilities bit for bit.
    grammar = _grammar(suite, seeded=True)
    constraints = tuple(parse_constraint(text) for text in texts)
    config = IteratorConfig(
        kind, grammar, start, max_depth=max_depth, max_size=max_size, constraints=constraints
    )
    walk_name = "_assignments_best_first" if kind == "mlfs" else "_assignments_depth_first"
    walk = getattr(iterators, walk_name)
    taken = {"local": 0}
    trees = []

    def counted(original, local_at):
        def wrapper(*args):
            # A product under no site, or a listing of no text, is the plain walk.
            if args[local_at]:
                taken["local"] += 1
            return original(*args)

        return wrapper

    def kept(state, *args):
        before = taken["local"]
        programs = list(walk(state, *args))
        local = taken["local"] > before
        trees.append((state, local, programs))
        return iter(programs)

    monkeypatch.setattr(iterators, walk_name, kept)
    if kind == "mlfs":
        monkeypatch.setattr(iterators, "_listing", counted(iterators._listing, 6))
    else:
        monkeypatch.setattr(iterators, "_product_programs", counted(iterators._product_programs, 4))
    emitted = [serialize_node(p) for p in make_iterator(config)]
    paths = {"plain": 0, "local": 0, "tested": 0}
    for state, local, programs in trees:
        path = _expected_path(state)
        paths[path] += 1
        assert local == (path == "local")
        if kind == "mlfs":
            expected = reference_assignments_best_first(state, grammar)
            assert [(serialize_node(p), lp.hex()) for p, lp, _ in programs] == [
                (serialize_node(p), lp.hex()) for p, lp, _ in expected
            ]
        else:
            expected = reference_lexicographic_walk(state)
            assert [serialize_node(p) for p, _, _ in programs] == [
                serialize_node(p) for p, _, _ in expected
            ]
    assert sum(len(programs) for *_, programs in trees) == len(emitted) > 500
    assert paths["local"] > 4 and (paths["tested"] > 0) == tested


@pytest.mark.parametrize("kind", ["bfs", "mlfs"])
def test_a_tree_whose_first_root_rule_passes_nowhere_emits_each_program_once(kind, monkeypatch):
    # Under an ordered sum, a sum whose left operand is an operation and
    # whose right one a leaf breaks it everywhere, since "4{" and "5{" sort
    # after every leaf's text; so the root's first rule has no passing
    # tuple, and the walk must start the product at the next rule, past the
    # first program alone.
    grammar = _grammar("arith", seeded=True)
    leaf = UniformHole(ARITH_LEAF)
    tree = UniformHole({4, 5}, (UniformHole({4, 5}, (leaf, leaf)), leaf))
    ordered = parse_constraint("(ordered (rule 4 (var a) (var b)) (a b))")
    state = SolverState(grammar, tree, (ordered,))
    assert state.propagate()
    sites = state._tested_sites()
    assert sorted(site.children for site in sites) == [(), (0, 1)]
    if kind == "mlfs":
        programs = list(iterators._assignments_best_first(state, grammar, None, {}))
        expected = list(reference_assignments_best_first(state, grammar))
    else:
        programs = list(iterators._assignments_depth_first(state))
        expected = list(reference_lexicographic_walk(state))
    texts = [serialize_node(p) for p, _, _ in programs]
    assert texts == [serialize_node(p) for p, _, _ in expected]
    # The sum below takes 6 of its 9 leaf pairs, the product all 9.
    assert len(texts) == len(set(texts)) == (6 + 9) * 3 and all(t.startswith("5{") for t in texts)


@pytest.mark.parametrize("with_code", [False, True])
def test_an_mlfs_tree_lists_its_childrens_facts_only_when_advanced_past_its_first_program(
    with_code, monkeypatch
):
    # A search peeks every queued tree for its first program, found by the
    # tuple test; the children's texts and flags are listed only when the
    # walk goes on, and the heap then decides from them, with vectors or
    # without, as the reference walk does.
    grammar = _grammar("arith", seeded=True)
    leaf = UniformHole(ARITH_LEAF)
    pair = UniformHole({4, 5}, (leaf, leaf))
    ordered = parse_constraint("(ordered (rule 4 (var a) (var b)) (a b))")
    state = SolverState(grammar, UniformHole({4, 5}, (pair, pair)), (ordered,))
    assert state.propagate()
    assert state._tested_sites() and all(s.children for s in state._tested_sites())
    code = RuleCode(grammar, Problem([IOExample({"x": 2}, 5)])) if with_code else None
    listed = []
    listing = iterators._listing

    def counted(*args):
        listed.append(args)
        return listing(*args)

    monkeypatch.setattr(iterators, "_listing", counted)
    walk = iterators._assignments_best_first(state, grammar, code, {})
    first = next(walk)
    assert not listed
    programs = [first, *walk]
    assert listed
    expected = reference_assignments_best_first(state, grammar, code)
    assert [(serialize_node(p), lp.hex(), v) for p, lp, v in programs] == [
        (serialize_node(p), lp.hex(), v) for p, lp, v in expected
    ]
    assert len(programs) > 100


# enum-constrained's ordered set on arith, and mini-strings' ordered concat.
LISTED_CASES = {
    "enum-constrained": ("arith", "Int", 4, 7, (
        "(ordered (rule 4 (var a) (var b)) (a b))",
        "(ordered (rule 5 (var a) (var b)) (a b))",
    )),
    "mini-strings": ("mini-strings", "S", 3, 6, ("(ordered (rule 8 (var a) (var b)) (a b))",)),
}


@pytest.mark.parametrize("kind", ["bfs", "dfs", "mlfs"])
@pytest.mark.parametrize("case", sorted(LISTED_CASES))
def test_each_root_child_is_listed_by_one_walk_per_tree(case, kind, monkeypatch):
    # A walk lists each child of its root at most once, with every column
    # it reads in that one recursive walk: a constrained bfs or dfs product
    # its children's programs, texts and flags, and an mlfs tree that
    # ranks its rest under sites their texts, flags, programs and
    # log-probabilities.  Every tree still yields the reference's programs.
    suite, start, max_depth, max_size, texts = LISTED_CASES[case]
    grammar = _grammar(suite, seeded=True)
    constraints = tuple(parse_constraint(text) for text in texts)
    config = IteratorConfig(
        kind, grammar, start, max_depth=max_depth, max_size=max_size, constraints=constraints
    )
    walk_name = "_assignments_best_first" if kind == "mlfs" else "_assignments_depth_first"
    walk = getattr(iterators, walk_name)
    listing, rank_order = iterators._listing, iterators._rank_order
    calls, depth, ranked = [], [0], [0]
    trees = []

    def counted(node, i, *args):
        # Only the outermost call of a recursive walk lists a root child.
        if not depth[0]:
            calls.append(i)
        depth[0] += 1
        try:
            return listing(node, i, *args)
        finally:
            depth[0] -= 1

    def counted_rank_order(*args):
        ranked[0] += 1
        return rank_order(*args)

    def kept(state, *args):
        del calls[:]
        ranks = ranked[0]
        programs = list(walk(state, *args))
        trees.append((state, list(calls), ranked[0] > ranks, programs))
        return iter(programs)

    monkeypatch.setattr(iterators, "_listing", counted)
    monkeypatch.setattr(iterators, "_rank_order", counted_rank_order)
    monkeypatch.setattr(iterators, walk_name, kept)
    assert sum(1 for _ in make_iterator(config)) > 300
    listed = {"sites": 0, "ranked": 0}
    for state, calls_made, ranks, programs in trees:
        domains = [state.domain(path) for path in state.hole_paths()]
        children = [i for _, i, _, _ in iterators._children(state.root, 0, domains)]
        assert calls_made in ([], children)
        if calls_made and state._tested_sites():
            listed["sites"] += 1
            listed["ranked"] += ranks
        if kind == "mlfs":
            expected = reference_assignments_best_first(state, grammar)
            assert [(serialize_node(p), lp.hex()) for p, lp, _ in programs] == [
                (serialize_node(p), lp.hex()) for p, lp, _ in expected
            ]
        else:
            expected = reference_lexicographic_walk(state)
            assert [serialize_node(p) for p, _, _ in programs] == [
                serialize_node(p) for p, _, _ in expected
            ]
    assert listed["sites"] >= 3
    assert (listed["ranked"] >= 3) == (kind == "mlfs")


def _random_local_constraint(rng, grammar):
    """An ordered constraint over two or three whole children, a forbidden
    one whose variable repeats, or a forbidden bare rule, on a random rule
    of the grammar with children."""
    rule = rng.choice([r for r in grammar.indices if grammar.arity(r) >= 2])
    arity = grammar.arity(rule)
    head = f"rule {rule}"
    if rng.random() < 0.3:
        others = [r for r in grammar.indices if r != rule and grammar.arity(r) == arity]
        if others:
            head = f"domain ({rule} {rng.choice(others)})"
    form = rng.choice(["ordered", "repeated", "bare"])
    names = "abc"[:arity]
    if form == "bare":
        return parse_constraint(f"(forbidden ({head}))")
    if form == "repeated":
        children = ["a", "a"] + [chr(ord("b") + k) for k in range(arity - 2)]
        rng.shuffle(children)
        pattern = " ".join(f"(var {name})" for name in children)
        return parse_constraint(f"(forbidden ({head} {pattern}))")
    pattern = " ".join(f"(var {name})" for name in names)
    compared = rng.sample(names, rng.randint(2, arity))
    return parse_constraint(f"(ordered ({head} {pattern}) ({' '.join(compared)}))")


@pytest.mark.parametrize(
    "suite, start, max_depth, max_size",
    [("arith", "Int", 4, 7), ("mini-strings", "S", 3, 6)],
)
def test_random_local_constraints_emit_exactly_the_satisfying_programs(
    suite, start, max_depth, max_size
):
    # Seeded random local constraints: every iterator must emit each
    # program of the bounds that satisfies them once, and nothing else.
    grammar = _grammar(suite, seeded=True)
    everything = enumerate_programs(grammar, start, max_depth, max_size=max_size)
    rng = random.Random(61)
    local_trees = 0
    for _ in range(6):
        constraints = tuple(
            _random_local_constraint(rng, grammar) for _ in range(rng.randint(1, 3))
        )
        expected = {
            serialize_node(program)
            for program in everything
            if check_program(constraints, program)
        }
        for kind, over in (("bfs", False), ("dfs", False), ("dfs", True), ("mlfs", False)):
            config = IteratorConfig(
                kind, grammar, start, max_depth=max_depth, max_size=max_size,
                constraints=constraints, dfs_over_shapes=over,
            )
            emitted = [serialize_node(p) for p in make_iterator(config)]
            assert len(emitted) == len(set(emitted)), (kind, over, constraints)
            assert set(emitted) == expected, (kind, over, constraints)
        state = SolverState(grammar, _widest_tree(suite), constraints)
        if state.propagate():
            sites = state._tested_sites()
            local_trees += bool(sites) and all(site.children is not None for site in sites)
    assert local_trees > 0


def _widest_tree(suite):
    """A uniform tree whose root and children all have children: two
    levels of binary rules in arith, and of concat in mini-strings."""
    if suite == "arith":
        leaf, op = ARITH_LEAF, {4, 5}
    else:
        leaf, op = STRING_LEAF, {8}
    pair = UniformHole(op, (UniformHole(leaf), UniformHole(leaf)))
    return UniformHole(op, (pair, pair))


@pytest.mark.parametrize("kind", ["bfs", "dfs", "mlfs"])
def test_only_the_sites_propagation_leaves_open_are_decided(kind, monkeypatch):
    # The walks read the sites left to test after propagation and nothing
    # else, so a state whose propagation never ran decides nothing: with
    # propagate patched to report success, a constrained search emits
    # every program, those that break a constraint too.
    grammar = _grammar("arith", seeded=True)
    constraints = (
        parse_constraint("(ordered (rule 4 (var a) (var b)) (a b))"),
        parse_constraint("(forbidden (rule 5 (var a) (var a)))"),
    )
    unconstrained = IteratorConfig(kind, grammar, "Int", max_depth=4, max_size=7)
    everything = sorted(serialize_node(p) for p in make_iterator(unconstrained))
    monkeypatch.setattr(SolverState, "propagate", lambda state: True)
    config = IteratorConfig(
        kind, grammar, "Int", max_depth=4, max_size=7, constraints=constraints
    )
    emitted = list(make_iterator(config))
    assert sorted(serialize_node(p) for p in emitted) == everything
    assert sum(not check_program(constraints, p) for p in emitted) > 1000
