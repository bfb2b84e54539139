import pytest

from synthkit import (
    ConcreteRule,
    ConstraintSyntaxError,
    DomainMember,
    Forbidden,
    Ordered,
    PatternVar,
    check_program,
    match_pattern,
    parse_constraint,
    parse_grammar,
    parse_node,
)
from synthkit.constraints import check_root

from conftest import ARITH_TEXT
from oracles import enumerate_programs

PLUS_AA = ConcreteRule(4, (PatternVar("a"), PatternVar("a")))
PLUS_AB = ConcreteRule(4, (PatternVar("a"), PatternVar("b")))


def test_match_equal_children():
    bindings = match_pattern(PLUS_AA, parse_node("4{3,3}"))
    assert bindings == {"a": parse_node("3")}


def test_no_match_unequal_children():
    assert match_pattern(PLUS_AA, parse_node("4{1,3}")) is None


def test_domain_member_match():
    pattern = DomainMember({4, 5}, (PatternVar("a"), PatternVar("b")))
    bindings = match_pattern(pattern, parse_node("5{1,2}"))
    assert bindings == {"a": parse_node("1"), "b": parse_node("2")}
    assert match_pattern(pattern, parse_node("1")) is None


def test_match_is_root_anchored():
    assert match_pattern(ConcreteRule(3), parse_node("4{3,3}")) is None


def test_omitted_children_match_any():
    assert match_pattern(ConcreteRule(4), parse_node("4{1,3}")) == {}
    explicit = ConcreteRule(4, (PatternVar("a"),))
    assert match_pattern(explicit, parse_node("4{1,3}")) is None


def test_repeated_variable_requires_deep_equality():
    tree = parse_node("4{4{1,3},4{1,3}}")
    assert match_pattern(PLUS_AA, tree) == {"a": parse_node("4{1,3}")}
    assert match_pattern(PLUS_AA, parse_node("4{4{1,3},4{3,1}}")) is None


def test_check_program_forbidden_at_root():
    assert check_program([Forbidden(PLUS_AA)], parse_node("4{3,3}")) is False


def test_check_program_forbidden_anywhere():
    nested = parse_node("5{2,4{1,1}}")
    assert check_program([Forbidden(PLUS_AA)], nested) is False
    assert check_program([Forbidden(PLUS_AA)], parse_node("5{2,4{1,2}}")) is True


def test_check_program_ordered():
    ordered = Ordered(PLUS_AB, ("a", "b"))
    assert check_program([ordered], parse_node("4{3,1}")) is False  # "3" > "1"
    assert check_program([ordered], parse_node("4{1,3}")) is True
    assert check_program([ordered], parse_node("4{1,1}")) is True


def test_check_program_no_constraints():
    assert check_program([], parse_node("4{3,1}")) is True


@pytest.mark.parametrize(
    "texts",
    [
        ("(ordered (rule 4 (var a) (var b)) (a b))",),
        ("(forbidden (rule 4 (rule 1) (var x)))", "(forbidden (rule 5 (var a) (var a)))"),
        ("(forbidden (domain (4 5) (var a) (rule 4 (var a) (var b))))",),
        ("(ordered (rule 5 (var a) (rule 4 (var b) (var c))) (a b c))", "(forbidden (rule 4))"),
    ],
)
def test_the_root_check_agrees_with_check_program_once_the_children_pass(texts):
    constraints = tuple(parse_constraint(text) for text in texts)
    candidates = [
        p
        for p in enumerate_programs(parse_grammar(ARITH_TEXT), "Int", 3)
        if all(check_program(constraints, child) for child in p.children)
    ]
    verdicts = [check_program(constraints, p) for p in candidates]
    assert [check_root(constraints, p) for p in candidates] == verdicts
    # Both verdicts occur, so the agreement is not vacuous.
    assert True in verdicts and False in verdicts


def test_ordered_variables_must_occur():
    with pytest.raises(ValueError):
        Ordered(PLUS_AB, ("a", "missing"))


def test_parse_forbidden():
    constraint = parse_constraint("(forbidden (rule 4 (var a) (var a)))")
    assert constraint == Forbidden(PLUS_AA)


def test_parse_ordered():
    constraint = parse_constraint("(ordered (rule 4 (var a) (var b)) (a b))")
    assert constraint == Ordered(PLUS_AB, ("a", "b"))


def test_parse_domain_pattern():
    constraint = parse_constraint("(forbidden (domain (4 5) (var a) (var a)))")
    assert constraint == Forbidden(DomainMember({4, 5}, (PatternVar("a"), PatternVar("a"))))


def test_parse_wildcard_children():
    constraint = parse_constraint("(forbidden (rule 4))")
    assert constraint == Forbidden(ConcreteRule(4))


@pytest.mark.parametrize(
    "bad",
    [
        "(forbidden)",
        "(forbidden (rule x))",
        "(ordered (rule 4 (var a) (var b)))",
        "(ordered (rule 4 (var a) (var b)) (a c))",
        "(notathing (rule 4))",
        "(forbidden (rule 4)",
        "(forbidden (rule 4)) extra",
        "(forbidden (domain () (var a)))",
    ],
)
def test_parse_errors(bad):
    with pytest.raises(ConstraintSyntaxError):
        parse_constraint(bad)
