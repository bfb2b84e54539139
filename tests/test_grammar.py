import math
import random

import pytest

from synthkit import (
    GrammarError,
    Hole,
    IteratorConfig,
    RuleNode,
    arity,
    make_iterator,
    parse_grammar,
    set_uniform_probabilities,
    to_expression,
)
from synthkit.grammar import Grammar, IntLit, Placeholder, Rule, Sym
from synthkit.iterators import derivation_heuristic


def test_arity_terminal_rule(g0):
    assert arity(g0, 3) == 0


def test_arity_binary_rule(g0):
    assert arity(g0, 4) == 2


def test_arity_single_token_rule():
    g = parse_grammar("S = x")
    assert arity(g, 1) == 0


@pytest.mark.parametrize("index", [0, 6, -1])
def test_arity_out_of_range(g0, index):
    with pytest.raises(IndexError):
        arity(g0, index)


def test_childtypes_derived_from_template(g0):
    assert g0.childtypes(4) == ("Int", "Int")
    assert g0.childtypes(1) == ()


def test_bytype_inverts_lhs(g0):
    assert g0.bytype == {"Int": (1, 2, 3, 4, 5)}
    for symbol, ids in g0.bytype.items():
        assert list(ids) == sorted(ids)
        for i in ids:
            assert g0.lhs(i) == symbol


def test_set_uniform_probabilities(g0):
    g = set_uniform_probabilities(g0)
    for i in g.indices:
        assert g.probability(i) == pytest.approx(0.2)


def test_set_uniform_single_rule():
    g = set_uniform_probabilities(parse_grammar("S = x"))
    assert g.probability(1) == pytest.approx(1.0)
    assert g.log_probability(1) == pytest.approx(0.0)


def test_set_uniform_two_nonterminals():
    g = set_uniform_probabilities(
        parse_grammar("A = a | b\nB = p | q | r | s")
    )
    assert [g.probability(i) for i in (1, 2)] == [pytest.approx(0.5)] * 2
    assert [g.probability(i) for i in (3, 4, 5, 6)] == [pytest.approx(0.25)] * 4


def test_uniform_probabilities_normalize(g0):
    g = set_uniform_probabilities(g0)
    for symbol, ids in g.bytype.items():
        total = sum(math.exp(g.log_probability(i)) for i in ids)
        assert abs(total - 1.0) < 1e-9


def test_probabilities_stored_as_logs(g0):
    g = g0.with_probabilities([0.4, 0.1, 0.3, 0.15, 0.05])
    assert g.log_probability(1) == pytest.approx(math.log(0.4))
    assert g.probability(3) == pytest.approx(0.3)
    assert g0.log_probabilities is None


def test_bad_probability_sums_rejected(g0):
    with pytest.raises(GrammarError):
        g0.with_probabilities([0.4, 0.4, 0.4, 0.4, 0.4])
    with pytest.raises(GrammarError):
        g0.with_probabilities([0.5, 0.5])


def test_rule_node_factory_checks_arity(g0):
    node = g0.rule_node(4, [g0.rule_node(1), g0.rule_node(3)])
    assert node == RuleNode(4, (RuleNode(1), RuleNode(3)))
    with pytest.raises(GrammarError):
        g0.rule_node(4, [g0.rule_node(1)])
    with pytest.raises(GrammarError):
        g0.rule_node(1, [g0.rule_node(1)])


def test_rule_node_factory_checks_child_types():
    g = parse_grammar("Pair = A + B\nA = a\nB = b")
    ok = g.rule_node(1, [g.rule_node(2), g.rule_node(3)])
    assert ok.rule == 1
    with pytest.raises(GrammarError):
        g.rule_node(1, [g.rule_node(3), g.rule_node(2)])


def test_random_api_built_trees_are_well_typed(g0):
    rng = random.Random(7)

    def build(symbol, budget):
        rules = g0.rules_for(symbol)
        terminals = [r for r in rules if g0.arity(r) == 0]
        if budget <= 1:
            return g0.rule_node(rng.choice(terminals))
        rule = rng.choice(rules)
        children = [build(t, budget - 1) for t in g0.childtypes(rule)]
        return g0.rule_node(rule, children)

    def well_typed(node):
        kinds = g0.childtypes(node.rule)
        assert len(kinds) == len(node.children)
        for child, expected in zip(node.children, kinds):
            assert g0.lhs(child.rule) == expected
            well_typed(child)

    for _ in range(200):
        well_typed(build("Int", rng.randint(1, 5)))


def test_uniform_hole_factory_accepts_shared_shape(g0):
    hole = g0.uniform_hole({4, 5}, [g0.hole("Int"), g0.hole("Int")])
    assert hole.domain == frozenset({4, 5})


def test_uniform_hole_factory_rejects_mixed_arity(g0):
    with pytest.raises(GrammarError):
        g0.uniform_hole({3, 4}, [g0.hole("Int"), g0.hole("Int")])


def test_uniform_hole_factory_rejects_bad_children(g0):
    with pytest.raises(GrammarError):
        g0.uniform_hole({4, 5}, [g0.hole("Int")])


def test_hole_factory(g0):
    assert g0.hole("Int") == Hole(frozenset({1, 2, 3, 4, 5}))
    assert g0.hole(domain={1, 3}) == Hole(frozenset({1, 3}))
    with pytest.raises(GrammarError):
        g0.hole("Bool")


def test_structure_lookups_keep_their_checks(g0):
    strings = parse_grammar("S = x | concat(S, S) | substring(S, I, I)\nI = 1 | length(S)")
    for grammar in (g0, strings, strings.with_probabilities([0.5, 0.25, 0.25, 0.5, 0.5])):
        for symbol in grammar.nonterminals:
            assert grammar.hole(symbol) == Hole(frozenset(grammar.rules_for(symbol)))
        with pytest.raises(GrammarError):
            grammar.hole("Bool")
        for index in (0, grammar.rule_count + 1):
            with pytest.raises(IndexError):
                grammar.childtypes(index)
    assert strings.childtypes(3) == ("S", "I", "I")


def test_reweighted_copies_share_structure_but_read_their_own_probabilities(g0):
    full = frozenset(g0.rules_for("Int"))
    source = g0.with_probabilities([0.3, 0.1, 0.25, 0.2, 0.15])
    # Fill the source's tables first, so a copy that read them would fail.
    assert source.max_log_probability(full) == math.log(0.3)
    assert derivation_heuristic("mlfs", source, sorted(full)) == [1, 3, 4, 5, 2]
    config = IteratorConfig("mlfs", source, "Int", max_depth=2)
    assert [next(make_iterator(config))] == [RuleNode(1)]

    copies = (
        source.with_probabilities([0.1, 0.2, 0.35, 0.15, 0.2]),
        source.with_log_probabilities([math.log(p) for p in (0.1, 0.2, 0.35, 0.15, 0.2)]),
    )
    for copy in copies:
        assert copy.max_log_probability(full) == math.log(0.35)
        assert derivation_heuristic("mlfs", copy, sorted(full)) == [3, 2, 5, 4, 1]
        config = IteratorConfig("mlfs", copy, "Int", max_depth=2)
        assert [next(make_iterator(config))] == [RuleNode(3)]
        assert copy.hole("Int") is source.hole("Int")
        assert copy.shape_classes(full) is source.shape_classes(full)
    assert source.max_log_probability(full) == math.log(0.3)
    assert g0.hole("Int") is source.hole("Int")


def test_a_template_error_names_the_index_in_its_own_grammar():
    # Templates are shared between grammars holding an equal rule; an
    # error must still name the failing rule's index in the grammar asked.
    bad = Rule("S", (Sym("+"),))
    first = Grammar([Rule("S", (Sym("x"),)), bad])
    second = Grammar([bad, Rule("S", (Sym("x"),)), Rule("S", (Sym("y"),))])
    for grammar, index in ((first, 2), (second, 1), (first, 2)):
        with pytest.raises(GrammarError, match=f"^rule {index}:"):
            to_expression(grammar, RuleNode(index))
    assert str(to_expression(second, RuleNode(2))) == str(to_expression(first, RuleNode(1)))


def test_hole_factory_rejects_mixed_nonterminals():
    g = parse_grammar("A = a\nB = b")
    with pytest.raises(GrammarError):
        g.hole(domain={1, 2})


def test_rules_are_immutable_values():
    rule = Rule("Int", (Placeholder("Int"), Sym("+"), Placeholder("Int")))
    assert rule.arity == 2
    assert rule.childtypes == ("Int", "Int")
    with pytest.raises(Exception):
        rule.lhs = "Other"


def test_empty_template_rejected():
    with pytest.raises(GrammarError):
        Rule("S", ())


def test_grammar_needs_rules():
    with pytest.raises(GrammarError):
        Grammar([])


def test_terminal_rule_flag():
    g = parse_grammar("S = 1 | S + S")
    assert g.rule(1).is_terminal
    assert not g.rule(2).is_terminal
    assert g.rule(1).rhs == (IntLit(1),)
