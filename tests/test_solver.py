import dataclasses
import itertools
import random

import pytest

from synthkit import (
    ConfigError,
    Hole,
    IteratorConfig,
    RuleNode,
    SolverStateError,
    UniformHole,
    check_program,
    decompose,
    depth,
    is_uniform,
    make_iterator,
    node_count,
    max_rulenode_log_probability,
    parse_constraint,
    parse_grammar,
    parse_node,
    serialize_node,
)
from synthkit import IOExample, Problem, iterators
from synthkit.interpreter import RuleCode
from synthkit.constraints import Ordered, PatternVar
from synthkit.nodes import subtrees
from synthkit.solver import (
    SolverState,
    _positions,
    _post_site,
    _Site,
    _text_bounds,
    _tuple_test,
    split_first_hole,
    survey,
)

from conftest import SUITES_DIR
from oracles import (
    has_recording,
    queued_uniform_trees,
    expand_completions,
    random_partial_tree,
    reference_assignments_best_first,
    reference_assignments_depth_first,
    reference_materialize,
    reference_max_rulenode_log_probability,
    reference_propagate,
    reference_split_first_hole,
    reference_survey,
    unconstrained_copy,
)

FORBID_PLUS_AA = parse_constraint("(forbidden (rule 4 (var a) (var a)))")
ORDER_PLUS = parse_constraint("(ordered (rule 4 (var a) (var b)) (a b))")

FULL_INT = frozenset({1, 2, 3, 4, 5})


def test_decompose_single_hole(g0):
    trees = decompose(g0, Hole(FULL_INT))
    assert trees == [
        UniformHole(frozenset({1, 2, 3})),
        UniformHole(frozenset({4, 5}), (Hole(FULL_INT), Hole(FULL_INT))),
    ]


def test_decompose_uniform_tree_unchanged(g0):
    tree = RuleNode(
        5,
        (
            UniformHole(frozenset({4, 5}), (RuleNode(1), UniformHole(frozenset({1, 3})))),
            RuleNode(4, (RuleNode(1), RuleNode(1))),
        ),
    )
    assert decompose(g0, tree) == [tree]


def test_decompose_singleton_domain(g0):
    trees = decompose(g0, Hole(frozenset({4})))
    assert trees == [UniformHole(frozenset({4}), (Hole(FULL_INT), Hole(FULL_INT)))]


def test_decompose_nested_holes_multiply(g0):
    tree = RuleNode(4, (Hole(FULL_INT), Hole(frozenset({1, 2}))))
    trees = decompose(g0, tree)
    # Left hole splits into two classes, right hole into one.
    assert len(trees) == 2
    assert all(isinstance(t, RuleNode) and t.rule == 4 for t in trees)


def test_decompose_partition_is_exact(g0):
    rng = random.Random(99)
    for _ in range(100):
        tree = random_partial_tree(g0, "Int", rng, rng.randint(1, 3))
        whole = {serialize_node(p) for p in expand_completions(g0, tree, 3)}
        parts = [
            {serialize_node(p) for p in expand_completions(g0, piece, 3)}
            for piece in decompose(g0, tree)
        ]
        union = set()
        for part in parts:
            assert union.isdisjoint(part)
            union |= part
        assert union == whole


def test_propagate_removes_symmetric_rule(g0):
    tree = UniformHole(frozenset({4}), (RuleNode(3), UniformHole(frozenset({1, 2, 3}))))
    state = SolverState(g0, tree, [FORBID_PLUS_AA])
    assert state.propagate() is True
    assert state.domain((1,)) == (1, 2)


def test_propagate_without_constraints_is_noop(g0):
    tree = UniformHole(frozenset({4, 5}), (UniformHole(frozenset({1, 2, 3})), RuleNode(1)))
    state = SolverState(g0, tree)
    assert state.propagate() is True
    assert state.domain(()) == (4, 5)
    assert state.domain((0,)) == (1, 2, 3)


def test_propagate_wipeout_is_infeasible(g0):
    tree = UniformHole(
        frozenset({4}),
        (UniformHole(frozenset({1, 2, 3})), UniformHole(frozenset({1, 2, 3}))),
    )
    state = SolverState(g0, tree, [parse_constraint("(forbidden (rule 4))")])
    assert state.propagate() is False


def test_propagate_reaches_fixed_point(g0):
    tree = UniformHole(
        frozenset({4, 5}),
        (UniformHole(frozenset({1, 2, 3})), UniformHole(frozenset({1, 3}))),
    )
    state = SolverState(g0, tree, [FORBID_PLUS_AA])
    assert state.propagate() is True
    snapshot = {path: state.domain(path) for path in state.hole_paths()}
    assert state.propagate() is True
    assert snapshot == {path: state.domain(path) for path in state.hole_paths()}


def test_a_site_is_violated_only_in_every_completion(g0):
    covered = UniformHole(frozenset({4, 5}), (RuleNode(3), RuleNode(3)))
    # A domain pattern covering the whole hole matches every completion.
    either = parse_constraint("(forbidden (domain (4 5) (var a) (var a)))")
    assert SolverState(g0, covered, [either]).propagate() is False
    # A rule pattern matches only some, so only its rule is dropped.
    state = SolverState(g0, covered, [FORBID_PLUS_AA])
    assert state.propagate() is True
    assert state.domain(()) == (5,)
    # A repeated variable needs decided, equal subtrees, even equal holes.
    leaf = UniformHole(frozenset({1, 3}))
    state = SolverState(g0, RuleNode(4, (leaf, leaf)), [FORBID_PLUS_AA])
    assert state.propagate() is True
    assert _domains(state) == {(0,): (1, 3), (1,): (1, 3)}
    state.assign((0,), 1)
    assert state.propagate() is True
    assert state.domain((1,)) == (3,)


def test_choice_tuples_are_tested_only_against_the_sites_propagation_left_open(g0):
    leaf = UniformHole(frozenset({1, 3}))
    state = SolverState(g0, UniformHole(frozenset({4, 5}), (leaf, leaf)), [FORBID_PLUS_AA])

    def rules():
        return [state.domain(path) for path in state.hole_paths()]

    # Propagation decides which sites the tuples must answer for.
    assert state.choice_tests(rules()) == [] and state.choice_test(rules()) is None
    assert state.propagate() is True
    # All three holes are undecided, so the site stays open.
    [(last, test)] = state.choice_tests(rules())
    assert last == 2
    assert [test(choices) for choices in [(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 0, 0)]] == [
        False, True, False, True,
    ]
    checkpoint = state.save_state()
    state.assign((), 4)
    state.assign((0,), 1)
    # One undecided hole is left: propagation prunes it and settles the site.
    assert state.propagate() is True
    assert state.domain((1,)) == (3,)
    assert state.choice_tests(rules()) == []
    # Restoring the wider domains opens the site again.
    state.restore_state(checkpoint)
    assert [last for last, _ in state.choice_tests(rules())] == [2]


def test_solver_state_rejects_plain_holes(g0):
    with pytest.raises(ValueError):
        SolverState(g0, Hole(FULL_INT))


def test_save_restore_round_trip(g0):
    tree = UniformHole(frozenset({1, 2, 3}))
    state = SolverState(g0, tree)
    checkpoint = state.save_state()
    state.remove((), 2)
    assert state.domain(()) == (1, 3)
    state.restore_state(checkpoint)
    assert state.domain(()) == (1, 2, 3)


def test_restore_after_infeasible_propagation(g0):
    tree = UniformHole(frozenset({4}), (RuleNode(1), RuleNode(1)))
    state = SolverState(g0, tree, [FORBID_PLUS_AA])
    checkpoint = state.save_state()
    assert state.propagate() is False
    state.restore_state(checkpoint)
    assert state.domain(()) == (4,)


def test_nested_save_restore_lifo(g0):
    state = SolverState(g0, UniformHole(frozenset({1, 2, 3})))
    first = state.save_state()
    state.remove((), 1)
    second = state.save_state()
    state.remove((), 2)
    state.restore_state(second)
    assert state.domain(()) == (2, 3)
    state.restore_state(first)
    assert state.domain(()) == (1, 2, 3)


def test_stale_checkpoint_raises(g0):
    state = SolverState(g0, UniformHole(frozenset({1, 2, 3})))
    early = state.save_state()
    state.remove((), 1)
    late = state.save_state()
    state.restore_state(early)
    with pytest.raises(SolverStateError):
        state.restore_state(late)


def test_checkpoint_from_an_abandoned_branch_is_stale(g0):
    # The trail is long enough again when ``late`` is restored, but it holds
    # other removals than the ones ``late`` was taken after.
    state = SolverState(g0, UniformHole(frozenset({1, 2, 3})))
    early = state.save_state()
    state.remove((), 1)
    late = state.save_state()
    state.restore_state(early)
    state.remove((), 2)
    state.remove((), 3)
    with pytest.raises(SolverStateError):
        state.restore_state(late)
    assert state.domain(()) == (1,)


def test_a_checkpoint_can_be_restored_again(g0):
    state = SolverState(g0, UniformHole(frozenset({1, 2, 3})))
    checkpoint = state.save_state()
    state.remove((), 1)
    state.restore_state(checkpoint)
    state.remove((), 2)
    state.restore_state(checkpoint)
    assert state.domain(()) == (1, 2, 3)


def test_assign_promotes_to_rule_node(g0):
    tree = UniformHole(frozenset({1, 2, 3}))
    state = SolverState(g0, tree)
    state.assign((), 2)
    assert state.current_tree() == RuleNode(2)


def _uniform_trees_to_depth(grammar, bound):
    frontier = [Hole(FULL_INT)]
    found = []
    while frontier:
        tree = frontier.pop()
        for piece in decompose(grammar, tree):
            if depth(piece) > bound:
                continue
            if is_uniform(piece):
                found.append(piece)
            else:
                frontier.append(piece)
    return found


def test_propagate_never_prunes_a_valid_program(g0):
    # Propagation may keep programs the final filter rejects, but a pruned
    # domain must never lose a program that satisfies the constraints.
    constraints_by_kind = [
        [FORBID_PLUS_AA],
        [ORDER_PLUS],
        [parse_constraint("(forbidden (domain (4 5) (var a) (var a)))")],
    ]
    uniform_trees = _uniform_trees_to_depth(g0, 3)
    assert uniform_trees
    for constraints in constraints_by_kind:
        for tree in uniform_trees:
            valid = {
                serialize_node(p)
                for p in expand_completions(g0, tree, 3)
                if check_program(constraints, p)
            }
            state = SolverState(g0, tree, constraints)
            if not state.propagate():
                assert not valid
                continue
            survivors = {
                serialize_node(p)
                for p in expand_completions(g0, state.current_tree(), 3)
            }
            assert valid <= survivors


def test_decompose_bounds_prune_classes(g0):
    trees = decompose(g0, Hole(FULL_INT), max_depth=1)
    assert trees == [UniformHole(frozenset({1, 2, 3}))]


def test_decompose_bounds_can_make_infeasible(g0):
    # A binary-only hole two levels down cannot fit under max_depth=2.
    tree = RuleNode(4, (Hole(frozenset({4, 5})), RuleNode(1)))
    assert decompose(g0, tree, max_depth=2) == []
    assert decompose(g0, Hole(FULL_INT), max_size=2) == [UniformHole(frozenset({1, 2, 3}))]


def test_split_first_hole_refines_like_decompose(g0):
    # Splitting one hole at a time, bounded the way the iterator bounds it,
    # partitions the same depth-limited program set as the full decompose.
    rng = random.Random(5)
    for _ in range(60):
        tree = random_partial_tree(g0, "Int", rng, rng.randint(1, 3))
        whole = {serialize_node(p) for p in expand_completions(g0, tree, 3)}
        frontier = [tree]
        union = set()
        while frontier:
            current = frontier.pop()
            pieces = split_first_hole(g0, current, max_depth=3)
            if pieces is None:
                part = {serialize_node(p) for p in expand_completions(g0, current, 3)}
                assert union.isdisjoint(part)
                union |= part
            else:
                frontier.extend(p for p in pieces if depth(p) <= 3)
        assert union == whole


SPLIT_BOUNDS = [(None, None), (1, None), (2, 4), (3, 5), (3, None), (None, 6), (4, 9)]


def test_split_first_hole_matches_the_build_then_filter_reference(g0):
    # The split checks the bounds before building a piece; the reference
    # builds every piece and drops those whose depth or size is too large.
    # Random trees may already exceed a bound, which must drop every piece.
    strings = parse_grammar((SUITES_DIR / "mini-strings" / "default.herbg").read_text())
    rng = random.Random(23)
    for grammar, start in ((g0, "Int"), (strings, "S")):
        for _ in range(150):
            tree = random_partial_tree(grammar, start, rng, rng.randint(1, 4))
            for max_depth, max_size in SPLIT_BOUNDS:
                assert split_first_hole(grammar, tree, max_depth, max_size) == (
                    reference_split_first_hole(grammar, tree, max_depth, max_size)
                )


def test_split_carries_each_piece_survey(g0):
    # Splitting a surveyed tree walks nothing: each piece's survey comes
    # from its parent's.  Down a chain of splits every carried survey must
    # equal a fresh walk of its piece, the pieces must equal the
    # reference's, and "no holes left" must mean uniform.
    strings = parse_grammar((SUITES_DIR / "mini-strings" / "default.herbg").read_text())
    rng = random.Random(41)
    for grammar, start in ((g0, "Int"), (strings, "S")):
        for _ in range(100):
            tree = random_partial_tree(grammar, start, rng, rng.randint(1, 4))
            assert survey(tree) == reference_survey(tree)
            for max_depth, max_size in SPLIT_BOUNDS:
                frontier = [survey(tree)]
                for _ in range(1 if max_depth is max_size is None else 40):
                    if not frontier:
                        break
                    surveyed = frontier.pop()
                    pieces = split_first_hole(grammar, surveyed, max_depth, max_size)
                    expected = reference_split_first_hole(
                        grammar, surveyed.tree, max_depth, max_size
                    )
                    if expected is None:
                        assert pieces is None and not surveyed.holes
                        continue
                    assert [piece.tree for piece in pieces] == expected
                    for piece in pieces:
                        assert piece == reference_survey(piece.tree)
                        assert (not piece.holes) == is_uniform(piece.tree)
                    frontier.extend(pieces)


def test_decompose_returns_exactly_the_pieces_within_bounds(g0):
    rng = random.Random(31)
    for _ in range(100):
        tree = random_partial_tree(g0, "Int", rng, rng.randint(1, 3))
        unbounded = decompose(g0, tree)
        for max_depth, max_size in SPLIT_BOUNDS:
            if unbounded == [tree]:
                expected = [tree]
            else:
                expected = [
                    piece
                    for piece in unbounded
                    if (max_depth is None or depth(piece) <= max_depth)
                    and (max_size is None or node_count(piece) <= max_size)
                ]
            assert decompose(g0, tree, max_depth, max_size) == expected


def test_decompose_drops_pieces_over_max_size(g0):
    # Both holes fit a binary class alone, but not together: 3 + 2 + 2 > 5.
    tree = RuleNode(4, (Hole(FULL_INT), Hole(FULL_INT)))
    terminals = UniformHole(frozenset({1, 2, 3}))
    binary = UniformHole(frozenset({4, 5}), (Hole(FULL_INT), Hole(FULL_INT)))
    assert decompose(g0, tree, max_size=5) == [
        RuleNode(4, (terminals, terminals)),
        RuleNode(4, (terminals, binary)),
        RuleNode(4, (binary, terminals)),
    ]


PROPAGATION_FORMS = [
    parse_constraint(text)
    for text in (
        "(ordered (rule 4 (var a) (var b)) (a b))",
        "(ordered (rule 5 (var a) (var b)) (a b))",
        "(forbidden (rule 4 (var a) (var a)))",
        "(forbidden (rule 4 (rule 1) (var x)))",
        "(forbidden (domain (4 5) (rule 3) (var y)))",
        "(forbidden (domain (1 2 3)))",
        "(ordered (domain (4 5) (var a) (var b)) (b a))",
        "(forbidden (rule 5 (var a) (rule 4 (var a) (var b))))",
    )
]


def _domains(state):
    return {path: state.domain(path) for path in state.hole_paths()}


def test_local_propagation_matches_whole_tree_lookahead(g0):
    # Both states see the same random assign/remove/save/restore steps; the
    # site-based propagation must agree with whole-tree singleton lookahead
    # on every verdict and, while feasible, on every domain.  A wiped-out
    # state is restored right away, as the iterators do, because how far a
    # failing propagation pruned before it stopped is unspecified.
    rng = random.Random(11)
    trees = _uniform_trees_to_depth(g0, 4)
    verdicts = set()
    for _ in range(150):
        tree = rng.choice(trees)
        constraints = rng.sample(PROPAGATION_FORMS, rng.randint(1, 3))
        local = SolverState(g0, tree, constraints)
        whole = SolverState(g0, tree, constraints)
        checkpoints = []
        for _ in range(40):
            roll = rng.random()
            open_holes = [p for p in local.hole_paths() if len(local.domain(p)) > 1]
            if roll < 0.3 and open_holes:
                path = rng.choice(open_holes)
                rule = rng.choice(local.domain(path))
                local.assign(path, rule)
                whole.assign(path, rule)
            elif roll < 0.4 and open_holes:
                path = rng.choice(open_holes)
                rule = rng.choice(local.domain(path))
                local.remove(path, rule)
                whole.remove(path, rule)
            elif roll < 0.55:
                checkpoints.append((local.save_state(), whole.save_state()))
            elif roll < 0.7 and checkpoints:
                del checkpoints[rng.randrange(len(checkpoints)) + 1 :]
                mine, theirs = checkpoints.pop()
                local.restore_state(mine)
                whole.restore_state(theirs)
            else:
                verdict = local.propagate()
                assert verdict == reference_propagate(whole)
                verdicts.add(verdict)
                if not verdict:
                    if not checkpoints:
                        break
                    mine, theirs = checkpoints.pop()
                    local.restore_state(mine)
                    whole.restore_state(theirs)
            assert _domains(local) == _domains(whole)
    assert verdicts == {True, False}


def _uniform_domains(node, path=()):
    """Each uniform hole's path and domain, read off the tree itself."""
    found = {path: frozenset(node.domain)} if isinstance(node, UniformHole) else {}
    for i, child in enumerate(node.children):
        found.update(_uniform_domains(child, path + (i,)))
    return found


def test_domain_bookkeeping_matches_a_plain_model(g0):
    # Without constraints a state must act like a dict of frozensets with a
    # stack of snapshot copies: assign intersects (so a rule outside the
    # domain empties it), remove drops one rule and raises for a missing
    # one, and a restore, also to an older or already restored checkpoint,
    # brings back the snapshot.  propagate() fails exactly when some domain
    # is empty.
    rng = random.Random(5)
    trees = [t for t in _uniform_trees_to_depth(g0, 3) if len(_uniform_domains(t)) > 1]
    verdicts = set()
    for _ in range(200):
        tree = rng.choice(trees)
        state = SolverState(g0, tree)
        model = _uniform_domains(tree)
        checkpoints = []
        for _ in range(50):
            roll = rng.random()
            path = rng.choice(sorted(model))
            rule = rng.randint(1, 5)
            if roll < 0.25:
                state.assign(path, rule)
                model[path] &= {rule}
            elif roll < 0.45:
                if rule in model[path]:
                    state.remove(path, rule)
                    model[path] -= {rule}
                else:
                    with pytest.raises(KeyError):
                        state.remove(path, rule)
            elif roll < 0.6:
                checkpoints.append((state.save_state(), dict(model)))
            elif roll < 0.8 and checkpoints:
                del checkpoints[rng.randrange(len(checkpoints)) + 1 :]
                checkpoint, snapshot = checkpoints[-1]
                state.restore_state(checkpoint)
                model = dict(snapshot)
            else:
                verdict = state.propagate()
                assert verdict == all(model.values())
                verdicts.add(verdict)
            assert _domains(state) == {p: tuple(sorted(d)) for p, d in model.items()}
    assert verdicts == {True, False}


ENUM_CONSTRAINED_SETS = [
    PROPAGATION_FORMS[:2],
    [PROPAGATION_FORMS[2]],
]


# Rules of mini-strings: x, six constants, concat, replace, substring; 1, 2, length.
MINI_STRINGS_PROBABILITIES = [
    0.2, 0.05, 0.04, 0.03, 0.06, 0.07, 0.05, 0.25, 0.1, 0.15, 0.5, 0.3, 0.2
]

# (grammar, max_depth, max_size, constraints): the enumeration passes of the
# benchmark's enum-plain and enum-constrained workloads.
SEQUENCE_CASES = [
    ("arith", 4, 9, ()),
    ("mini-strings", 3, 6, ()),
    ("arith", 4, 7, ENUM_CONSTRAINED_SETS[0]),
    ("arith", 4, 7, ENUM_CONSTRAINED_SETS[1]),
]


@pytest.mark.parametrize("kind", ["bfs", "dfs", "mlfs"])
def test_iterators_emit_the_same_sequence_under_reference_propagation(g0, kind, monkeypatch):
    # The references rebuild the whole tree for every program and key mlfs
    # entries by max_rulenode_log_probability; the reference split builds
    # every piece and filters it by depth and size afterwards; under
    # constraints the whole-tree lookahead also stands in for the
    # site-based propagation.
    strings = parse_grammar((SUITES_DIR / "mini-strings" / "default.herbg").read_text())
    grammars = {
        "arith": (g0.with_probabilities([0.3, 0.1, 0.25, 0.2, 0.15]), "Int"),
        "mini-strings": (strings.with_probabilities(MINI_STRINGS_PROBABILITIES), "S"),
    }
    priorities = []

    def drain(family, max_depth, max_size, constraints):
        grammar, start = grammars[family]
        config = IteratorConfig(
            kind, grammar, start, max_depth=max_depth, max_size=max_size,
            constraints=tuple(constraints),
        )
        # A replayed search would run none of the patched code.
        assert not has_recording(grammar)
        search = make_iterator(config)
        programs = []
        for program in search:
            programs.append(serialize_node(program))
            if kind == "mlfs":
                # Every uniform tree the search holds is keyed by the
                # program it will emit next.
                queued, held = queued_uniform_trees(search)
                priorities.extend(
                    key == -max_rulenode_log_probability(peeked, grammar)
                    for key, _, _, peeked, _ in queued + ([] if held is None else [held])
                )
        return programs

    reference_splits = []

    def counted_reference_split(*args):
        reference_splits.append(1)
        return reference_split_first_hole(*args)

    for family, max_depth, max_size, constraints in SEQUENCE_CASES:
        local = drain(family, max_depth, max_size, constraints)
        with monkeypatch.context() as patch:
            patch.setattr(iterators, "_assignments_depth_first", reference_assignments_depth_first)
            patch.setattr(iterators, "_assignments_best_first", reference_assignments_best_first)
            assert local and local == drain(family, max_depth, max_size, constraints)
            # The iterator splits through this name, so the reference and
            # its freshly walked surveys replace every split.
            del reference_splits[:]
            patch.setattr(iterators, "split_first_hole", counted_reference_split)
            assert local == drain(family, max_depth, max_size, constraints)
            assert reference_splits
            if constraints:
                patch.setattr(SolverState, "propagate", reference_propagate)
                assert local == drain(family, max_depth, max_size, constraints)
    if kind == "mlfs":
        assert priorities and all(priorities)


def _random_pattern(rng, top):
    """A rule or domain pattern of depth at most 2 over arith's rules; below
    the top also a pattern variable named a or b."""
    if not top and rng.random() < 0.3:
        return f"(var {rng.choice('ab')})"
    if rng.random() < 0.5:
        rules = [rng.choice((4, 5)) if top and rng.random() < 0.75 else rng.randint(1, 5)]
        head = f"rule {rules[0]}"
    else:
        rules = sorted(rng.sample(range(1, 6), rng.randint(1, 4)))
        head = f"domain ({' '.join(map(str, rules))})"
    if top and {4, 5} & set(rules) and rng.random() < 0.7:
        return f"({head} {_random_pattern(rng, False)} {_random_pattern(rng, False)})"
    return f"({head})"


def _random_constraint(rng):
    pattern = _random_pattern(rng, True)
    names = [name for name in "ab" if f"(var {name})" in pattern]
    if names and rng.random() < 0.5:
        rng.shuffle(names)
        return parse_constraint(f"(ordered {pattern} ({' '.join(names)}))")
    return parse_constraint(f"(forbidden {pattern})")


@pytest.mark.parametrize("kind", ["bfs", "dfs"])
def test_propagation_alone_decides_constraints(g0, kind):
    # bfs and dfs check no emitted program against the constraints, so the
    # solver's propagation must reject exactly the programs that break
    # one.  bfs must emit the filtered unconstrained sequence; dfs order
    # depends on what propagation prunes, so it must emit the same set,
    # each program once.
    def drain(constraints):
        config = IteratorConfig(
            kind, g0, "Int", max_depth=4, max_size=7, constraints=tuple(constraints)
        )
        return list(make_iterator(config))

    unconstrained = drain(())
    rng = random.Random(29)
    for _ in range(40):
        constraints = [_random_constraint(rng) for _ in range(rng.randint(1, 2))]
        expected = [serialize_node(p) for p in unconstrained if check_program(constraints, p)]
        emitted = [serialize_node(p) for p in drain(constraints)]
        if kind == "bfs":
            assert emitted == expected, constraints
        else:
            assert len(set(emitted)) == len(emitted), constraints
            assert set(emitted) == set(expected), constraints


def _counting(monkeypatch, names):
    """Count calls of the named SolverState methods."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(SolverState, name)

        def counted(self, *args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(SolverState, name, counted)
    return counts


@pytest.mark.parametrize("kind", ["bfs", "dfs"])
def test_unconstrained_drains_make_no_trail_calls(g0, kind, monkeypatch):
    # Without constraints the choice-tuple walk is one product over the
    # holes' domains: the only propagation is the one each uniform tree
    # gets when it is queued.
    strings = parse_grammar((SUITES_DIR / "mini-strings" / "default.herbg").read_text())
    counts = _counting(
        monkeypatch, ["__init__", "save_state", "assign", "restore_state", "propagate"]
    )
    for grammar, start, max_depth, max_size in [(g0, "Int", 4, 9), (strings, "S", 3, 6)]:
        config = IteratorConfig(kind, grammar, start, max_depth=max_depth, max_size=max_size)
        assert not has_recording(grammar)
        assert sum(1 for _ in make_iterator(config)) > 0
    assert counts["__init__"] > 0
    assert counts["propagate"] == counts["__init__"]
    assert counts["save_state"] == counts["assign"] == counts["restore_state"] == 0


@pytest.mark.parametrize("kind", ["bfs", "dfs", "mlfs"])
def test_constrained_drains_propagate_once_per_uniform_tree(g0, kind, monkeypatch):
    # Every search decides constraints with choice-tuple tests, so under
    # constraints too the only propagation is the one each uniform tree
    # gets when it is queued, and no search touches the trail.
    counts = _counting(
        monkeypatch, ["__init__", "save_state", "assign", "restore_state", "propagate"]
    )
    for constraints in ENUM_CONSTRAINED_SETS:
        config = IteratorConfig(
            kind, g0, "Int", max_depth=4, max_size=7, constraints=tuple(constraints)
        )
        assert not has_recording(g0)
        assert sum(1 for _ in make_iterator(config)) > 0
    assert counts["__init__"] > 0
    assert counts["propagate"] == counts["__init__"]
    assert counts["save_state"] == counts["assign"] == counts["restore_state"] == 0


@pytest.mark.parametrize("kind", ["bfs", "dfs"])
def test_a_constraint_watching_part_of_a_tree_keeps_the_reference_sequence(
    g0, kind, monkeypatch
):
    # Only holes under a multiplication are read here, so the compiled
    # sites of some tree read some of its positions and not others.
    constraint = parse_constraint("(forbidden (rule 5 (var a) (var a)))")
    config = IteratorConfig(
        kind, g0, "Int", max_depth=4, max_size=9, constraints=(constraint,)
    )
    partly_read = 0
    choice_tests = SolverState.choice_tests

    def recording_choice_tests(state, rules, sites=None):
        nonlocal partly_read
        read = set()
        for site in map(state._sites.__getitem__, state._open):
            read.update(hole for hole, _ in site.pattern)
            read.update(hole for holes, _ in site.bound for hole in holes)
        partly_read += 0 < len(read) < len(rules)
        return choice_tests(state, rules, sites)

    monkeypatch.setattr(SolverState, "choice_tests", recording_choice_tests)
    assert not has_recording(g0)
    emitted = [serialize_node(p) for p in make_iterator(config)]
    assert partly_read > 0
    with monkeypatch.context() as patch:
        patch.setattr(iterators, "_assignments_depth_first", reference_assignments_depth_first)
        expected = [serialize_node(p) for p in make_iterator(config)]
    assert emitted and emitted == expected
    assert all(check_program((constraint,), parse_node(text)) for text in emitted)


MINI_STRINGS_CONSTRAINT_SETS = [
    ["(ordered (rule 8 (var a) (var b)) (a b))"],
    ["(forbidden (rule 10 (var a) (rule 11) (rule 11)))"],
    [
        "(ordered (rule 8 (var a) (var b)) (a b))",
        "(forbidden (rule 10 (var a) (rule 11) (rule 11)))",
    ],
    ["(forbidden (rule 9 (var a) (var a) (var b)))", "(forbidden (rule 8 (var a) (rule 1)))"],
]


def _open_after_propagation(domains, site):
    # No completion breaks a site whose pattern no domain can match, or
    # whose outcome turns on at most one hole: propagation pruned that one.
    undecided = 0
    for hole, accepted in site.pattern:
        domain = domains[hole]
        if accepted.isdisjoint(domain):
            return False
        undecided += len(domain) > 1 and not accepted.issuperset(domain)
    undecided += sum(len(domains[hole]) > 1 for holes, _ in site.bound for hole in holes)
    return undecided > 1


def _holes_read(site):
    """The numbers of the holes a site reads: its pattern's, then its bound subtrees'."""
    return [hole for hole, _ in site.pattern] + [hole for holes, _ in site.bound for hole in holes]


# Rules 1 and 10 share a shape, so ``1{`` sorts after ``10{`` though 1 < 10
# and "1" < "10"; rules 5 to 9 are a symbol the start never reaches.
WIDE_TEXT = (
    "Int = Int + Int\nInt = 1 | 2 | x\n"
    "B = true | false | not ( B ) | and ( B , B ) | or ( B , B )\nInt = Int * Int"
)


def _placement_by_bounds(state, site, domains, texts):
    """Where the walk must test an open site, from the least and greatest
    serialized completion of each subtree it compares: ``("bounded",
    None)`` when no completion breaks it, ``("pattern", k)`` with its last
    pattern hole ``k`` when every match breaks it and no variable repeats,
    else ``("kept", last)`` with the last hole it reads.  ``texts`` caches
    each subtree's texts by its holes and their domains."""
    if site.compared is not None:
        paths = state.hole_paths()
        ranges = []
        for k in site.compared:
            holes, _ = site.bound[k]
            key = holes, tuple(domains[hole] for hole in holes)
            if key not in texts:
                # Every tree a search queues is holes only, so the bound
                # subtree's root is its first hole.
                path = paths[holes[0]]
                node = _subtree(state.root, path)
                texts[key] = [
                    serialize_node(
                        reference_materialize(
                            state, {paths[hole]: rule for hole, rule in zip(holes, rules)},
                            node, path,
                        )
                    )
                    for rules in itertools.product(*key[1])
                ]
            ranges.append((min(texts[key]), max(texts[key])))
        pairs = list(zip(ranges, ranges[1:]))
        if all(a[1] <= b[0] for a, b in pairs):
            return "bounded", None
        if not site.repeats and any(a[0] > b[1] for a, b in pairs):
            return "pattern", max((hole for hole, _ in site.pattern), default=-1)
    return "kept", max(_holes_read(site))


def _count_constructions(monkeypatch, built):
    """Record every node the iterators construct, in order, into ``built``."""
    new_node = iterators._new_node

    def counted(pair):
        node = new_node(pair)
        built.append(node)
        return node

    monkeypatch.setattr(iterators, "_new_node", counted)


def _roots_built(state, built):
    """The identities of the constructed nodes that are whole programs of
    the state's uniform tree, in construction order: every node of such a
    tree is a hole, so exactly its programs have its node count."""
    size = node_count(state.root)
    return [id(node) for node in built if node_count(node) == size]


@pytest.mark.parametrize("kind", ["bfs", "dfs"])
def test_the_choice_tuple_walk_tests_each_prefix_where_its_sites_complete(
    g0, kind, monkeypatch
):
    # Per uniform tree, bfs and dfs must yield exactly the reference's
    # programs, which decides every hole through the trail and checks each
    # complete tree.  Each group of sites must be tested on prefixes that
    # end at the position where it completes, once for each prefix whose
    # earlier groups pass, so a failing prefix skips every tuple extending
    # it; and only the programs the walk yields are built: each yielded
    # program's root is constructed exactly once, whether the tree is
    # walked by tuples or as a product over its children's programs.  A
    # tree whose sites are all local is such a product; its tuple walk
    # runs only to the first passing tuple, the program it emits first.
    strings = parse_grammar((SUITES_DIR / "mini-strings" / "default.herbg").read_text())
    walk = iterators._assignments_depth_first
    product_programs = iterators._product_programs
    choice_tests = SolverState.choice_tests
    calls, built, latest = [], [], {}
    seen = {"trees": 0, "early": 0, "skipped": 0, "settled": 0, "bounded": 0, "pattern": 0,
            "kept": 0, "empty": 0, "untested": 0, "local": 0, "tuples": 0}

    def recording_product_programs(*args):
        latest["product"] = True
        return product_programs(*args)

    def recording_choice_tests(state, rules, sites=None):
        groups = choice_tests(state, rules, sites)

        def recorded(last, test):
            def passes(choices):
                verdict = test(choices)
                calls.append((last, choices, verdict))
                return verdict

            return passes

        latest["groups"] = groups
        return [(last, recorded(last, test)) for last, test in groups]

    def checked_walk(state, code=None):
        del calls[:], built[:]
        latest["product"] = False
        programs = list(walk(state, code))
        assert _roots_built(state, built) == [id(p) for p, _, _ in programs]
        expected = list(reference_assignments_depth_first(state, code))
        assert [(serialize_node(p), v) for p, v, _ in programs] == [
            (serialize_node(p), v) for p, v, _ in expected
        ]
        # The reference propagates through the same site reader as the
        # walk, so the walk must also equal what check_program keeps of
        # every assignment of the tree's original domains, in order.
        paths = state.hole_paths()
        original = _uniform_domains(state.root)
        truth = [
            serialize_node(program)
            for rules in itertools.product(*(sorted(original[path]) for path in paths))
            for program in [reference_materialize(state, dict(zip(paths, rules)))]
            if check_program(state.constraints, program)
        ]
        assert [serialize_node(p) for p, _, _ in programs] == truth
        # Only the sites propagation left open are tested.  An open site
        # that no completion breaks by the least and greatest texts of the
        # subtrees it compares is not tested at all; one whose every match
        # those texts make a violation is tested at its last pattern hole;
        # any other at the last position it reads.  When such sites, each
        # reading one pattern hole, accept every rule of that hole between
        # them, no tuple passes: one group tests the empty prefix.
        domains = [state.domain(path) for path in state.hole_paths()]
        assert all(site.last == max(_holes_read(site), default=-1) for site in state._sites)
        completions, texts, excluded = set(), {}, {}
        for site in state._sites:
            if not _open_after_propagation(domains, site):
                seen["settled"] += 1
                continue
            case, at = _placement_by_bounds(state, site, domains, texts)
            seen[case] += 1
            if at is not None:
                completions.add(at)
            if case == "pattern" and len(site.pattern) == 1:
                [(hole, accepted)] = site.pattern
                excluded.setdefault(hole, set()).update(accepted)
        if any(rules.issuperset(domains[hole]) for hole, rules in excluded.items()):
            completions = {-1}
            seen["empty"] += 1
        assert [last for last, _ in latest["groups"]] == sorted(completions)
        # Replay the prefix skip over every tuple of the propagated domains.
        # A product stops its walk at the first passing tuple, so each
        # group has tested a leading part of its prefixes, and the last test
        # passed the last group's.
        product = latest["product"] and programs
        if product and latest["groups"]:
            assert calls[-1][0] == latest["groups"][-1][0] and calls[-1][2]
        ranges = [range(len(state.domain(path))) for path in state.hole_paths()]
        survivors = [()]
        for last, test in latest["groups"]:
            prefixes = [
                prefix + part
                for prefix in survivors
                for part in itertools.product(*ranges[len(prefix) : last + 1])
            ]
            tested = [choices for at, choices, _ in calls if at == last]
            assert tested == (prefixes[: len(tested)] if product else prefixes)
            survivors = [prefix for prefix in prefixes if test(prefix)]
            if last < len(ranges) - 1:
                seen["early"] += 1
                seen["skipped"] += len(survivors) < len(prefixes)
        assert all(len(choices) == last + 1 for last, choices, _ in calls)
        seen["trees"] += 1
        seen["untested"] += not latest["groups"]
        if latest["groups"]:
            seen["local" if latest["product"] else "tuples"] += 1
        return iter(programs)

    cases = []
    rng = random.Random(53)
    for _ in range(16):
        constraints = tuple(_random_constraint(rng) for _ in range(rng.randint(1, 2)))
        cases.append((g0, "Int", 4, 7, constraints))
    for texts in MINI_STRINGS_CONSTRAINT_SETS:
        constraints = tuple(parse_constraint(text) for text in texts)
        cases.append((strings, "S", 3, 6, constraints))
    # The enum-constrained benchmark's constraint sets.
    cases += [(g0, "Int", 4, 7, tuple(constraints)) for constraints in ENUM_CONSTRAINED_SETS]
    # Three compared texts, and a repeated variable.
    constraints = tuple(
        parse_constraint(text)
        for text in (
            "(ordered (rule 9 (var a) (var b) (var c)) (a b c))",
            "(ordered (rule 8 (var a) (rule 8 (var a) (var b))) (a b))",
        )
    )
    cases.append((strings, "S", 3, 6, constraints))
    # Texts whose order a slot's next character decides.  With the
    # forbidden pattern every right operand is decided to x, so a compared
    # text's greatest can equal the next one's least.
    wide = parse_grammar(WIDE_TEXT)
    ordered = parse_constraint("(ordered (rule 1 (var a) (var b)) (a b))")
    right_x = parse_constraint("(forbidden (domain (1 10) (var a) (domain (2 3))))")
    cases += [(wide, "Int", 3, 7, (ordered,)), (wide, "Int", 3, 7, (ordered, right_x))]
    monkeypatch.setattr(SolverState, "choice_tests", recording_choice_tests)
    monkeypatch.setattr(iterators, "_product_programs", recording_product_programs)
    _count_constructions(monkeypatch, built)
    monkeypatch.setattr(iterators, "_assignments_depth_first", checked_walk)
    for grammar, start, max_depth, max_size, constraints in cases:
        config = IteratorConfig(
            kind, grammar, start, max_depth=max_depth, max_size=max_size,
            constraints=constraints,
        )
        assert not has_recording(grammar)
        programs = list(make_iterator(config))
        assert all(check_program(constraints, program) for program in programs)
    assert seen["trees"] > 150
    assert seen["early"] > 60 and seen["skipped"] > 30
    assert seen["settled"] > 100
    assert seen["bounded"] > 0 and seen["pattern"] > 0 and seen["kept"] > 0
    assert seen["empty"] > 0
    # Trees with no site left open take the product path, and so do many
    # with sites left to test; the rest are walked by tuples.
    assert seen["untested"] > 50
    assert seen["local"] > 30 and seen["tuples"] > 40


@pytest.mark.parametrize("kind", ["bfs", "dfs", "mlfs"])
def test_the_empty_enum_constrained_trees_are_rejected_before_any_build(g0, kind, monkeypatch):
    # Under the enum-constrained benchmark's two commutativity constraints,
    # 4 of the 9 uniform trees of arith, depth <= 4, size <= 7, hold no
    # satisfying program: a product is compared with a leaf that its text
    # always exceeds.  The text bounds make every match there a violation,
    # so no walk builds a program of such a tree; bfs and dfs reject it on
    # the rules of hole 0, and mlfs drops it before its heap starts.  Every
    # tree must still yield exactly the reference's programs.
    grammar = g0.with_probabilities([0.3, 0.1, 0.25, 0.2, 0.15])
    walk_name = "_assignments_best_first" if kind == "mlfs" else "_assignments_depth_first"
    walk = getattr(iterators, walk_name)
    choice_tests = SolverState.choice_tests
    trees, built = [], []

    def counting_choice_tests(state, rules, sites=None):
        tree = trees[-1]

        def counted(test):
            def passes(choices):
                tree["tests"] += 1
                return test(choices)

            return passes

        return [(last, counted(test)) for last, test in choice_tests(state, rules, sites)]

    def recorded_walk(state, *args):
        tree = {"state": state, "tests": 0}
        trees.append(tree)
        del built[:]
        tree["programs"] = list(walk(state, *args))
        tree["roots"] = _roots_built(state, built)
        return iter(tree["programs"])

    monkeypatch.setattr(SolverState, "choice_tests", counting_choice_tests)
    _count_constructions(monkeypatch, built)
    monkeypatch.setattr(iterators, walk_name, recorded_walk)
    config = IteratorConfig(
        kind, grammar, "Int", max_depth=4, max_size=7, constraints=tuple(ENUM_CONSTRAINED_SETS[0])
    )
    assert not has_recording(grammar)
    assert sum(1 for _ in make_iterator(config)) == 675
    assert len(trees) == 9
    for tree in trees:
        state = tree["state"]
        if kind == "mlfs":
            expected = reference_assignments_best_first(state, grammar)
        else:
            expected = reference_assignments_depth_first(state)
        assert [(serialize_node(p), v) for p, v, _ in tree["programs"]] == [
            (serialize_node(p), v) for p, v, _ in expected
        ]
        assert tree["roots"] == [id(p) for p, _, _ in tree["programs"]]
    empty = [tree for tree in trees if not tree["programs"]]
    assert len(empty) == 4
    if kind != "mlfs":
        for tree in empty:
            state = tree["state"]
            assert 0 < tree["tests"] <= len(state.domain(state.hole_paths()[0]))


@pytest.mark.parametrize("with_problem", [False, True], ids=["plain", "problem"])
def test_a_product_tree_decides_each_rules_site_masks_once(g0, with_problem, monkeypatch):
    # A bfs product tree with a problem runs its programs and their vectors
    # over the same filtered product, so each root rule's site masks must be
    # built once for both columns, as they are without a problem.
    product_mask = iterators._product_mask
    calls = []

    def counted(site, texts):
        calls.append(site)
        return product_mask(site, texts)

    monkeypatch.setattr(iterators, "_product_mask", counted)
    config = IteratorConfig(
        "bfs", g0, "Int", max_depth=4, max_size=7, constraints=tuple(ENUM_CONSTRAINED_SETS[0])
    )
    problem = Problem([IOExample({"x": 2}, 5)]) if with_problem else None
    search = make_iterator(config, problem)
    programs, vectors = [], []
    for program in search:
        programs.append(program)
        vectors.append(search.last_vector)
    assert len(programs) == 675 and len(calls) == 12
    if with_problem:
        code = RuleCode(g0, problem)
        assert vectors == [code.vector(program) for program in programs]


def _random_probabilities(grammar, rng):
    """Seeded random rule probabilities, now and then a zero."""
    weights = [0.0 if rng.random() < 0.1 else rng.random() for _ in grammar.indices]
    for ids in grammar.bytype.values():
        if not any(weights[i - 1] for i in ids):
            weights[ids[0] - 1] = 1.0
        total = sum(weights[i - 1] for i in ids)
        for i in ids:
            weights[i - 1] /= total
    return grammar.with_probabilities(weights)


def test_max_rulenode_log_probability_equals_the_reference_exactly(g0):
    # The bound reads rules and domain maxima from tables; every value must
    # equal the per-rule walk bit for bit, cached or not.
    strings = parse_grammar((SUITES_DIR / "mini-strings" / "default.herbg").read_text())
    rng = random.Random(12)
    checked = 0
    for grammar, start in [(g0, "Int"), (strings, "S")]:
        with pytest.raises(ConfigError):
            max_rulenode_log_probability(Hole(frozenset(grammar.rules_for(start))), grammar)
        for _ in range(20):
            weighted = _random_probabilities(grammar, rng)
            trees = [random_partial_tree(weighted, start, rng, 5) for _ in range(30)]
            for _ in range(2):
                for tree in trees:
                    expected = reference_max_rulenode_log_probability(tree, weighted)
                    assert max_rulenode_log_probability(tree, weighted) == expected
                    checked += 1
    assert checked == 2400


@pytest.mark.parametrize(
    "kind, dfs_over_shapes",
    [("bfs", False), ("dfs", False), ("dfs", True), ("mlfs", False)],
    ids=["bfs", "dfs", "dfs-over-shapes", "mlfs"],
)
def test_every_queued_tree_is_made_of_holes(g0, kind, dfs_over_shapes, monkeypatch):
    # The uniform-tree enumerations handle holes only: the search starts
    # from a hole and a split replaces a hole with a uniform hole over
    # full-domain holes, so no queued piece and no solver state's tree
    # holds a rule node.
    strings = parse_grammar((SUITES_DIR / "mini-strings" / "default.herbg").read_text())
    trees = []
    split = iterators.split_first_hole
    init = SolverState.__init__

    def recording_split(*args):
        pieces = split(*args)
        trees.extend(piece.tree for piece in pieces)
        return pieces

    def recording_init(state, grammar, tree, constraints=()):
        trees.append(tree)
        init(state, grammar, tree, constraints)

    monkeypatch.setattr(iterators, "split_first_hole", recording_split)
    monkeypatch.setattr(SolverState, "__init__", recording_init)
    cases = [
        (g0, "Int", 4, 7, None, ()),
        (g0, "Int", 4, 7, None, (ORDER_PLUS,)),
        (strings, "S", 3, None, 20000, ()),
    ]
    for grammar, start, max_depth, max_size, budget, constraints in cases:
        config = IteratorConfig(
            kind, grammar, start, max_depth=max_depth, max_size=max_size,
            max_enumerations=budget, constraints=constraints, dfs_over_shapes=dfs_over_shapes,
        )
        # A replayed search would run none of the patched code.
        assert not has_recording(config.grammar)
        assert sum(1 for _ in make_iterator(config)) > 0
    assert len(trees) > 100
    assert not any(isinstance(node, RuleNode) for tree in trees for node in subtrees(tree))


def _variable_occurrences(pattern, at):
    """Name and tree path of every variable occurrence of a pattern posted
    at ``at``, in the pattern's preorder."""
    if isinstance(pattern, PatternVar):
        yield pattern.name, at
        return
    for i, child in enumerate(pattern.children or ()):
        yield from _variable_occurrences(child, at + (i,))


def _subtree(tree, path):
    for index in path:
        tree = tree.children[index]
    return tree


def test_text_bounds_are_the_least_and_greatest_serialized_completions(g0):
    # For each bound subtree of every site of random uniform trees, some
    # with fixed rule nodes and some with narrowed holes, the least and
    # greatest texts the walks' tests read must be the least and greatest
    # serialize_node over every completion of the subtree's holes.
    # mini-strings' rules 10 to 13 have two digits, and the wide grammar
    # puts 1 and 10 in one shape, where "10{" sorts before "1{".
    strings = parse_grammar((SUITES_DIR / "mini-strings" / "default.herbg").read_text())
    cases = [
        (g0, "Int", PROPAGATION_FORMS),
        (strings, "S", [
            parse_constraint(text)
            for text in (
                "(ordered (rule 8 (var a) (var b)) (a b))",
                "(ordered (rule 9 (var a) (var b) (var c)) (a b c))",
                "(ordered (rule 8 (var a) (rule 8 (var a) (var b))) (a b))",
                "(ordered (domain (10 13) (var a) (var b)) (b a))",
            )
        ]),
        (parse_grammar(WIDE_TEXT), "Int", [
            parse_constraint("(ordered (domain (1 10) (var a) (var b)) (a b))"),
            parse_constraint("(ordered (rule 10 (var a) (var b)) (b a))"),
        ]),
    ]
    rng = random.Random(29)
    tails, checked, literal, prefixed = set(), 0, 0, 0
    for grammar, start, constraints in cases:
        for _ in range(80):
            tree = random_partial_tree(grammar, start, rng, 3)
            while not is_uniform(tree):
                tree = rng.choice(decompose(grammar, tree, max_depth=4, max_size=9))
            state = SolverState(grammar, tree, constraints)
            paths = state.hole_paths()
            for path in paths:
                domain = state.domain(path)
                if len(domain) > 1 and rng.random() < 0.3:
                    state.remove(path, rng.choice(domain))
            domains = [state.domain(path) for path in paths]
            number = {path: i for i, path in enumerate(paths)}
            for constraint in constraints:
                for at, node in _positions(tree, ()):
                    site = _post_site(constraint, node, at, number)
                    if site is None:
                        continue
                    occurrences = list(_variable_occurrences(constraint.pattern, at))
                    names = [name for name, _ in occurrences]
                    compared = constraint.variables if isinstance(constraint, Ordered) else ()
                    bound = [
                        path
                        for name, path in occurrences
                        if names.count(name) > 1 or name in compared
                    ]
                    for path, (holes, template), after in zip(bound, site.bound, site.tails):
                        assert len(after) == len(holes)
                        subtree = _subtree(tree, path)
                        texts = [
                            serialize_node(
                                reference_materialize(
                                    state, {paths[hole]: rule for hole, rule in zip(holes, rules)},
                                    subtree, path,
                                )
                            )
                            for rules in itertools.product(*(domains[hole] for hole in holes))
                        ]
                        assert _text_bounds(holes, template, after, domains) == (
                            min(texts), max(texts)
                        )
                        checked += 1
                        tails.update(after)
                        literal += any(c.isdigit() for c in template)
                        prefixed += any(
                            a != b and str(b).startswith(str(a))
                            for hole in holes
                            for a in domains[hole]
                            for b in domains[hole]
                        )
    assert tails == {"{", ",", "}", ""}
    assert checked > 500 and literal > 0 and prefixed > 0


def test_site_templates_read_the_serialized_materialized_subtrees(g0, monkeypatch):
    # A site reads each bound subtree as its template formatted with the
    # holes' rules, through the one tuple test.  For every site of random
    # uniform trees, some with fixed rule nodes, and for every hole of its
    # bound subtrees decided to each rule of its original domain, the texts
    # the test reads must equal serializing the subtrees that the old check
    # materialized.
    texts_read = []
    violated = _Site.violated

    def recording_violated(site, texts):
        texts_read.append(list(texts))
        return violated(site, texts)

    monkeypatch.setattr(_Site, "violated", recording_violated)
    rng = random.Random(16)
    checked = literal = 0
    for _ in range(200):
        tree = random_partial_tree(g0, "Int", rng, 4)
        while not is_uniform(tree):
            tree = rng.choice(decompose(g0, tree, max_depth=5))
        state = SolverState(g0, tree, PROPAGATION_FORMS)
        paths = state.hole_paths()
        number = {path: i for i, path in enumerate(paths)}
        original = [state.domain(path) for path in paths]
        for path, domain in zip(paths, original):
            state.assign(path, rng.choice(domain))
        # Every hole decided to its assigned rule, read from its original domain.
        decided = [domain.index(state.domain(path)[0]) for path, domain in zip(paths, original)]
        reposted = []
        for constraint in PROPAGATION_FORMS:
            for at, node in _positions(tree, ()):
                site = _post_site(constraint, node, at, number)
                if site is None:
                    continue
                reposted.append(site)
                occurrences = list(_variable_occurrences(constraint.pattern, at))
                names = [name for name, _ in occurrences]
                compared = constraint.variables if isinstance(constraint, Ordered) else ()
                bound = [
                    path
                    for name, path in occurrences
                    if names.count(name) > 1 or name in compared
                ]
                assert len(site.bound) == len(bound)
                assert site.last == max(_holes_read(site), default=-1)
                literal += sum(
                    any(c.isdigit() for c in template) for _, template in site.bound
                )
                # With no pattern left to match, the test reads every bound text.
                reader = _tuple_test((dataclasses.replace(site, pattern=()),), original)
                blockers = [(None, None)] + [
                    (hole, rule)
                    for holes, _ in site.bound
                    for hole in holes
                    for rule in original[hole]
                ]
                for blocking, rule in blockers:
                    overrides = None if blocking is None else {paths[blocking]: rule}
                    choices = list(decided)
                    if blocking is not None:
                        choices[blocking] = original[blocking].index(rule)
                    expected = [
                        serialize_node(
                            reference_materialize(state, overrides, _subtree(tree, path), path)
                        )
                        for path in bound
                    ]
                    del texts_read[:]
                    reader(choices)
                    assert texts_read == [expected]
                    checked += 1
        assert reposted == state._sites
    assert checked > 1000 and literal > 0


def test_constrained_mlfs_checks_choices_before_it_builds(g0, monkeypatch):
    # mlfs decides each popped choice tuple against the state's sites
    # before it builds the program.  Per uniform tree it must yield exactly
    # the same walk without constraints filtered by check_program: the
    # same programs in the same order, with the same log-probabilities.
    # It must never call check_program, and it must build a program only
    # to emit it: the roots each tree's walk makes, whether its heap builds
    # them or its ranked rest does, are the programs it yields.
    grammar = g0.with_probabilities([0.3, 0.1, 0.25, 0.2, 0.15])
    best_first = iterators._assignments_best_first
    yielded, built, walks = [], [], []

    def recording(state, grammar, code, orders, drained):
        made, items = [], []
        walks.append((state, made, items))
        programs = best_first(state, grammar, code, orders, drained)
        while True:
            # A search advances one walk at a time, so whatever is built
            # while this walk is advanced is this tree's.
            start = len(built)
            item = next(programs, None)
            made.extend(built[start:])
            if item is None:
                return
            items.append(item)
            yielded.append(item)
            yield item

    def filtered(state, grammar, code, orders, drained):
        for item in best_first(unconstrained_copy(state), grammar, code, orders, drained):
            if check_program(state.constraints, item[0]):
                yielded.append(item)
                yield item

    def refuse(constraints, program):
        raise AssertionError("mlfs called check_program")

    rng = random.Random(41)
    total = 0
    for _ in range(12):
        constraints = tuple(rng.sample(PROPAGATION_FORMS, rng.randint(1, 3)))
        config = IteratorConfig(
            "mlfs", grammar, "Int", max_depth=4, max_size=7, constraints=constraints
        )
        # A replayed search would run none of the patched code.
        assert not has_recording(grammar)
        with monkeypatch.context() as patch:
            patch.setattr(iterators, "check_program", refuse)
            patch.setattr(iterators, "_assignments_best_first", recording)
            _count_constructions(patch, built)
            del yielded[:], built[:], walks[:]
            emitted = list(make_iterator(config))
            for state, made, items in walks:
                assert _roots_built(state, made) == [id(p) for p, _, _ in items]
            assert sum(len(items) for _, _, items in walks) == len(emitted)
            checked = list(yielded)
        with monkeypatch.context() as patch:
            patch.setattr(iterators, "_assignments_best_first", filtered)
            del yielded[:]
            assert list(make_iterator(config)) == emitted
        assert checked == yielded, constraints
        total += len(emitted)
    assert total > 5000


@pytest.mark.parametrize(
    "text",
    [
        "(forbidden (rule 99))",
        "(forbidden (rule 0))",
        "(forbidden (domain (2 6)))",
        "(ordered (rule 4 (var a) (rule 7)) (a))",
    ],
)
def test_a_constraint_naming_a_rule_outside_the_grammar_is_a_config_error(g0, text):
    with pytest.raises(ConfigError, match="outside the grammar"):
        IteratorConfig("bfs", g0, "Int", max_depth=3, constraints=(parse_constraint(text),))


@pytest.mark.parametrize(
    "text",
    [
        "(forbidden (rule 4 (var a)))",
        "(forbidden (rule 1 (var a)))",
        "(forbidden (rule 5 (var a) (rule 4 (var b) (var c) (var d))))",
    ],
)
def test_a_rule_pattern_with_the_wrong_child_count_is_a_config_error(g0, text):
    with pytest.raises(ConfigError, match="child count"):
        IteratorConfig("dfs", g0, "Int", max_depth=3, constraints=(parse_constraint(text),))


@pytest.mark.parametrize(
    "text", ["(forbidden (domain (1 2) (var a)))", "(forbidden (domain (4 5) (var a)))"]
)
def test_a_domain_pattern_no_rule_of_which_takes_its_child_count_is_a_config_error(g0, text):
    with pytest.raises(ConfigError, match="child count"):
        IteratorConfig("mlfs", g0, "Int", max_depth=3, constraints=(parse_constraint(text),))


@pytest.mark.parametrize("kind", ["bfs", "dfs", "mlfs", "bottom_up"])
def test_every_propagation_form_is_a_valid_constraint(g0, kind):
    # A domain pattern needs only one of its rules to take its child count.
    mixed = parse_constraint("(forbidden (domain (1 4) (var a) (var b)))")
    for constraint in PROPAGATION_FORMS + [mixed]:
        IteratorConfig(kind, g0, "Int", max_depth=3, max_size=5, constraints=(constraint,))
