import copy
import dataclasses
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from synthkit import (
    Hole,
    IncompleteTreeError,
    IteratorConfig,
    NodeParseError,
    RuleNode,
    UniformHole,
    depth,
    is_complete,
    is_uniform,
    make_iterator,
    node_count,
    parse_node,
    serialize_node,
)


def rule_trees():
    leaves = st.integers(min_value=1, max_value=9).map(RuleNode)
    return st.recursive(
        leaves,
        lambda children: st.builds(
            RuleNode,
            st.integers(min_value=1, max_value=9),
            st.lists(children, min_size=1, max_size=3).map(tuple),
        ),
        max_leaves=32,
    )


def uniform_example_tree():
    # Root *, left a uniform {+,*} node over children (1, uniform {1,x}), right 1+1.
    return RuleNode(
        5,
        (
            UniformHole(frozenset({4, 5}), (RuleNode(1), UniformHole(frozenset({1, 3})))),
            RuleNode(4, (RuleNode(1), RuleNode(1))),
        ),
    )


def test_depth_single_node():
    assert depth(RuleNode(3)) == 1


def test_depth_nested():
    assert depth(parse_node("4{3,4{1,3}}")) == 3


def test_depth_hole_counts_as_leaf():
    assert depth(Hole(frozenset({1, 2, 3}))) == 1
    assert depth(UniformHole(frozenset({4, 5}), (Hole(frozenset({1})), Hole(frozenset({1}))))) == 2


def test_node_count():
    assert node_count(RuleNode(1)) == 1
    assert node_count(parse_node("4{3,4{1,3}}")) == 5
    assert node_count(Hole(frozenset({1, 2}))) == 1


def test_serialize_leaf():
    assert serialize_node(RuleNode(3)) == "3"


def test_serialize_solution_tree():
    tree = RuleNode(4, (RuleNode(3), RuleNode(4, (RuleNode(1), RuleNode(3)))))
    assert serialize_node(tree) == "4{3,4{1,3}}"


def test_serialize_direct_children():
    assert serialize_node(RuleNode(5, (RuleNode(1), RuleNode(2)))) == "5{1,2}"


def test_serialize_rejects_holes():
    with pytest.raises(IncompleteTreeError):
        serialize_node(Hole(frozenset({1})))
    with pytest.raises(IncompleteTreeError):
        serialize_node(RuleNode(4, (RuleNode(1), UniformHole(frozenset({1, 2})))))


def test_parse_solution_tree():
    assert parse_node("4{3,4{1,3}}") == RuleNode(
        4, (RuleNode(3), RuleNode(4, (RuleNode(1), RuleNode(3))))
    )


def test_parse_leaf():
    assert parse_node("3") == RuleNode(3)


@pytest.mark.parametrize("bad", ["4{3,", "", "4{}", "4{3,}", "{1}", "4{1}junk", "1,2"])
def test_parse_errors_carry_position(bad):
    with pytest.raises(NodeParseError) as excinfo:
        parse_node(bad)
    assert excinfo.value.position >= 0


@given(rule_trees())
def test_serialize_parse_round_trip(tree):
    assert parse_node(serialize_node(tree)) == tree


def test_is_complete_solution():
    assert is_complete(parse_node("4{3,4{1,3}}"))


def test_is_complete_uniform_tree_is_not():
    assert not is_complete(uniform_example_tree())


def test_is_complete_single_hole():
    assert not is_complete(Hole(frozenset({1, 2, 3})))


def test_is_uniform():
    assert is_uniform(uniform_example_tree())
    assert is_uniform(parse_node("4{1,2}"))
    assert not is_uniform(Hole(frozenset({1})))
    assert not is_uniform(UniformHole(frozenset({4, 5}), (Hole(frozenset({1})), RuleNode(1))))


def test_holes_reject_empty_domain():
    with pytest.raises(ValueError):
        Hole(frozenset())
    with pytest.raises(ValueError):
        UniformHole(frozenset())


def test_rule_indices_one_based():
    with pytest.raises(ValueError):
        RuleNode(0)
    with pytest.raises(ValueError):
        RuleNode(-1)


def test_public_construction_still_wraps_children_in_a_tuple():
    node = RuleNode(4, [RuleNode(1), RuleNode(3)])
    assert node.children == (RuleNode(1), RuleNode(3))
    assert type(node.children) is tuple


def rebuilt_publicly(node):
    return RuleNode(node.rule, tuple(rebuilt_publicly(child) for child in node.children))


@pytest.mark.parametrize(
    "kind, bounds",
    [
        ("bfs", {"max_depth": 3}),
        ("dfs", {"max_depth": 3}),
        ("mlfs", {"max_depth": 3}),
        ("bottom_up", {"max_size": 5}),
    ],
)
def test_searched_nodes_behave_like_public_ones(g0, kind, bounds):
    # The builder of the top-down searches and the bottom-up bank build
    # their nodes without RuleNode's checks; nothing else may tell.
    programs = list(make_iterator(IteratorConfig(kind, g0, "Int", **bounds)))
    assert programs
    for program in programs:
        public = rebuilt_publicly(program)
        for node in (program, public):
            assert type(node) is RuleNode
            assert hash(node) == hash((node.rule, node.children))
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                restored = pickle.loads(pickle.dumps(node, protocol))
                assert type(restored) is RuleNode and restored == node
                assert serialize_node(restored) == serialize_node(node)
            copied = copy.deepcopy(node)
            assert type(copied) is RuleNode and copied == node
        assert program == public and public == program
        assert hash(program) == hash(public)
        assert repr(program) == repr(public)
        assert serialize_node(program) == serialize_node(public)
        holes = (
            UniformHole(frozenset({program.rule}), program.children),
            Hole(frozenset({program.rule})),
        )
        for hole in holes:
            assert program != hole and hole != program
    for node in (programs[-1], rebuilt_publicly(programs[-1])):
        for field in ("rule", "children"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(node, field, node.rule)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(node, field)
    with pytest.raises(ValueError):
        RuleNode(0)
    assert set(programs) == {rebuilt_publicly(p) for p in programs}


def test_a_rule_node_is_its_rule_and_children_pair():
    node = RuleNode(4, (RuleNode(1), RuleNode(3)))
    assert node == (4, ((1, ()), (3, ()))) and len(node) == 2
    rule, children = node
    assert (rule, children) == (node.rule, node.children)
    assert sorted([node, RuleNode(2), RuleNode(4)]) == [RuleNode(2), RuleNode(4), node]


def test_structural_equality_is_exact():
    assert RuleNode(4, (RuleNode(1), RuleNode(3))) != RuleNode(4, (RuleNode(3), RuleNode(1)))
    assert Hole(frozenset({1, 2})) != Hole(frozenset({1, 3}))
    assert UniformHole(frozenset({4, 5})) != Hole(frozenset({4, 5}))
