import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synthkit import parse_grammar, serialize_grammar
from synthkit.errors import GrammarSyntaxError, GrammarValidationError, LexError
from synthkit.grammar import Grammar, IntLit, Placeholder, Rule, StrLit, Sym

from oracles import grammars_equivalent

ARITH_TEXT = "Int = 1 | 2 | x\nInt = Int + Int\nInt = Int * Int"


def test_parse_arithmetic_grammar():
    g = parse_grammar(ARITH_TEXT)
    assert g.rule_count == 5
    assert [g.lhs(i) for i in g.indices] == ["Int"] * 5
    assert g.rule(1).rhs == (IntLit(1),)
    assert g.rule(3).rhs == (Sym("x"),)
    assert g.rule(4).rhs == (Placeholder("Int"), Sym("+"), Placeholder("Int"))
    assert g.rule(5).rhs == (Placeholder("Int"), Sym("*"), Placeholder("Int"))
    assert not g.has_probabilities


def test_parse_single_rule():
    g = parse_grammar("S = x")
    assert g.rule_count == 1
    assert g.arity(1) == 0
    assert g.rule(1).rhs == (Sym("x"),)


def test_parse_line_level_probabilities():
    g = parse_grammar("0.5 : S = x\n0.5 : S = y")
    assert g.probability(1) == pytest.approx(0.5)
    assert g.probability(2) == pytest.approx(0.5)
    assert g.log_probability(1) == pytest.approx(-0.693147, abs=1e-6)


def test_parse_per_alternative_probabilities():
    g = parse_grammar("S = 0.25 : x | 0.75 : y")
    assert g.probability(1) == pytest.approx(0.25)
    assert g.probability(2) == pytest.approx(0.75)


def test_probabilities_renormalized_within_tolerance():
    g = parse_grammar("S = 0.3333334 : x | 0.3333333 : y | 0.3333333 : z")
    total = sum(g.probability(i) for i in g.indices)
    assert abs(total - 1.0) < 1e-9


def test_unweighted_nonterminal_gets_uniform_fill():
    g = parse_grammar("S = 0.5 : A | 0.5 : x\nA = a | b")
    assert g.probability(3) == pytest.approx(0.5)
    assert g.probability(4) == pytest.approx(0.5)


def test_bad_probability_sum_is_validation_error():
    with pytest.raises(GrammarValidationError):
        parse_grammar("S = 0.5 : x | 0.4 : y")


def test_partial_probabilities_rejected():
    with pytest.raises(GrammarValidationError):
        parse_grammar("S = 0.5 : x | y")


def test_unknown_token_is_lex_error():
    with pytest.raises(LexError) as excinfo:
        parse_grammar("S = $")
    assert excinfo.value.line == 1


def test_empty_alternative_is_parse_error():
    with pytest.raises(GrammarSyntaxError):
        parse_grammar("S = x |")
    with pytest.raises(GrammarSyntaxError):
        parse_grammar("S = | x")


def test_missing_equals_is_parse_error():
    with pytest.raises(GrammarSyntaxError):
        parse_grammar("S x y")


def test_two_declarations_on_one_line_rejected():
    with pytest.raises(GrammarSyntaxError):
        parse_grammar("S = x | 0.5 : S = y")


def test_decimal_in_template_rejected():
    with pytest.raises(GrammarSyntaxError):
        parse_grammar("S = 1.5")


def test_comments_and_blank_lines_ignored():
    g = parse_grammar("# leading comment\n\nS = x  # trailing\n\n# done\n")
    assert g.rule_count == 1


def test_forward_references_resolve():
    g = parse_grammar("A = B + B\nB = b")
    assert g.rule(1).rhs == (Placeholder("B"), Sym("+"), Placeholder("B"))


def test_identifier_not_declared_is_terminal():
    g = parse_grammar("S = concat ( S , tail )")
    assert g.childtypes(1) == ("S",)
    assert Sym("tail") in g.rule(1).rhs


def test_string_literals_with_escapes():
    g = parse_grammar('S = "he said \\"hi\\"" | "a\\\\b"')
    assert g.rule(1).rhs == (StrLit('he said "hi"'),)
    assert g.rule(2).rhs == (StrLit("a\\b"),)


def test_integer_literal_outside_64_bits_rejected():
    assert parse_grammar("Int = 9223372036854775807").rule(1).rhs[0].value == 2**63 - 1
    with pytest.raises(GrammarSyntaxError) as excinfo:
        parse_grammar("Int = x\nInt = 99999999999999999999")
    assert excinfo.value.line == 2


def test_line_numbers_in_errors():
    with pytest.raises(GrammarSyntaxError) as excinfo:
        parse_grammar("S = x\nS = | y")
    assert excinfo.value.line == 2


def test_serialize_arith_round_trip(g0):
    text = serialize_grammar(g0)
    assert len(text.strip().splitlines()) == 5
    assert grammars_equivalent(parse_grammar(text), g0)


def test_serialize_single_rule():
    g = parse_grammar("S = x")
    assert serialize_grammar(g) == "S = x\n"


def test_serialize_probabilistic_grammar():
    g = parse_grammar("S = 0.25 : x | 0.75 : y")
    text = serialize_grammar(g)
    assert ":" in text.splitlines()[0]
    again = parse_grammar(text)
    for i in g.indices:
        assert abs(again.probability(i) - g.probability(i)) <= 1e-9


def test_index_stability_of_alternatives():
    g = parse_grammar("S = a | b | c\nS = d")
    assert [g.rule(i).rhs for i in g.indices] == [
        (Sym("a"),),
        (Sym("b"),),
        (Sym("c"),),
        (Sym("d"),),
    ]


# -- randomized round trip ----------------------------------------------------

_NONTERMINALS = ("S", "A", "B", "C")
_TERMINAL_WORDS = ("x", "y", "foo", "tail", "concat", "if")
_OPERATORS = ("+", "*", "-", "==", "<=", ",", "(", ")")


def _tokens(nonterminals):
    return st.one_of(
        st.sampled_from(nonterminals).map(Placeholder),
        st.sampled_from(_TERMINAL_WORDS).map(Sym),
        st.sampled_from(_OPERATORS).map(Sym),
        st.integers(min_value=0, max_value=999).map(IntLit),
        st.text(
            alphabet=st.characters(min_codepoint=32, max_codepoint=126),
            max_size=8,
        ).map(StrLit),
    )


@st.composite
def grammars(draw):
    count = draw(st.integers(min_value=1, max_value=4))
    nonterminals = _NONTERMINALS[:count]
    rules = []
    for symbol in nonterminals:
        alternatives = draw(st.integers(min_value=1, max_value=3))
        for _ in range(alternatives):
            template = draw(st.lists(_tokens(nonterminals), min_size=1, max_size=5))
            rules.append(Rule(symbol, tuple(template)))
            if len(rules) >= 12:
                break
    weighted = draw(st.booleans())
    if not weighted:
        return Grammar(rules)
    weights = [draw(st.integers(min_value=1, max_value=9)) for _ in rules]
    by_type = {}
    for i, rule in enumerate(rules):
        by_type.setdefault(rule.lhs, []).append(i)
    probabilities = [0.0] * len(rules)
    for ids in by_type.values():
        total = sum(weights[i] for i in ids)
        for i in ids:
            probabilities[i] = weights[i] / total
    return Grammar(rules, probabilities=probabilities)


@settings(max_examples=150, deadline=None)
@given(grammars())
def test_random_grammar_round_trip(grammar):
    text = serialize_grammar(grammar)
    once = parse_grammar(text)
    assert grammars_equivalent(once, grammar)
    twice = parse_grammar(serialize_grammar(once))
    assert grammars_equivalent(twice, once, tolerance=0.0) or grammars_equivalent(twice, once)


def test_tiny_probabilities_survive_round_trip():
    # Reweighting can push probabilities small enough that their repr uses
    # scientific notation; the format must read those back.
    g = parse_grammar("S = x | y").with_probabilities([1e-7, 1.0 - 1e-7])
    again = parse_grammar(serialize_grammar(g))
    for i in g.indices:
        assert abs(again.probability(i) - g.probability(i)) <= 1e-12


def test_exponent_literal_rejected_in_template():
    with pytest.raises(GrammarSyntaxError):
        parse_grammar("S = 1e5")
