import random

import pytest

from synthkit import (
    EVAL_ERROR,
    EvaluationError,
    IncompleteTreeError,
    InterpreterError,
    IOExample,
    Hole,
    Problem,
    RuleNode,
    UnboundVariableError,
    evaluate,
    execute_on_input,
    output_vector,
    parse_grammar,
    parse_node,
    run_examples,
    to_expression,
)
from synthkit.interpreter import Apply, Literal, Variable

from oracles import random_complete_tree, reference_eval_arith


def test_to_expression_renders_solution(g0):
    expr = to_expression(g0, parse_node("4{3,4{1,3}}"))
    assert str(expr) == "x + (1 + x)"


def test_to_expression_literal(g0):
    assert to_expression(g0, RuleNode(1)) == Literal(1)


def test_to_expression_template_substitution(g0):
    assert str(to_expression(g0, parse_node("5{2,3}"))) == "2 * x"


def test_to_expression_parenthesizes_compound_operands(g0):
    assert str(to_expression(g0, parse_node("5{4{1,3},2}"))) == "(1 + x) * 2"


def test_to_expression_rejects_holes(g0):
    with pytest.raises(IncompleteTreeError):
        to_expression(g0, Hole(frozenset({1})))


def test_evaluate_solution_at_five(g0):
    expr = to_expression(g0, parse_node("4{3,4{1,3}}"))
    assert evaluate(expr, {"x": 5}) == 11


def test_evaluate_variable_lookup():
    assert evaluate(Variable("x"), {"x": 0}) == 0


def test_evaluate_unbound_variable():
    with pytest.raises(UnboundVariableError):
        evaluate(Variable("y"), {"x": 1})


def test_evaluate_type_mismatch():
    with pytest.raises(EvaluationError):
        evaluate(Apply("+", (Literal(1), Literal("one"))), {})
    with pytest.raises(EvaluationError):
        evaluate(Apply("+", (Literal(True), Literal(1))), {})


def test_string_operations():
    expr = Apply(
        "concat",
        (Apply("substring", (Literal("hello"), Literal(1), Literal(2))), Literal("!")),
    )
    assert evaluate(expr, {}) == "he!"
    assert evaluate(Apply("length", (Literal("hello"),)), {}) == 5
    assert evaluate(Apply("replace", (Literal("a-b-c"), Literal("-"), Literal(" "))), {}) == "a b c"


@pytest.mark.parametrize("i,j", [(0, 2), (1, 6), (3, 2), (2, 0)])
def test_substring_out_of_range_is_error(i, j):
    with pytest.raises(EvaluationError):
        evaluate(Apply("substring", (Literal("hello"), Literal(i), Literal(j))), {})


def test_comparisons_and_if():
    assert evaluate(Apply("==", (Literal(2), Literal(2))), {}) is True
    assert evaluate(Apply("<=", (Literal(3), Literal(2))), {}) is False
    picked = evaluate(
        Apply("if", (Literal(True), Literal("yes"), Literal("no"))), {}
    )
    assert picked == "yes"
    with pytest.raises(EvaluationError):
        evaluate(Apply("if", (Literal(1), Literal(2), Literal(3))), {})


def test_if_is_strict_in_both_branches():
    bad = Apply("substring", (Literal("a"), Literal(5), Literal(9)))
    expr = Apply("if", (Literal(True), Literal("ok"), bad))
    with pytest.raises(EvaluationError):
        evaluate(expr, {})


def test_integer_arithmetic_wraps_at_64_bits(g0):
    big = Apply("+", (Literal(2**63 - 1), Literal(1)))
    assert evaluate(big, {}) == -(2**63)
    product = Apply("*", (Literal(2**62), Literal(4)))
    assert evaluate(product, {}) == 0


def test_execute_on_input_examples(g0):
    assert execute_on_input(g0, parse_node("4{3,4{1,3}}"), {"x": 5}) == 11
    assert execute_on_input(g0, parse_node("3"), {"x": 7}) == 7
    assert execute_on_input(g0, parse_node("4{1,1}"), {"x": 123}) == 2


def test_run_examples_solution(g0, arith_problem):
    assert run_examples(g0, parse_node("4{3,4{1,3}}"), arith_problem) == (4, 4)


def test_run_examples_partial(g0, arith_problem):
    # x+1 only matches the first example (0 -> 1).
    assert run_examples(g0, parse_node("4{3,1}"), arith_problem) == (1, 4)


def test_run_examples_empty_problem(g0):
    assert run_examples(g0, parse_node("1"), Problem("empty")) == (0, 0)


def test_run_examples_error_handling(strings_grammar):
    # substring(x, 2, 2) fails on one-character inputs.
    program = parse_node("4{1,6,6}")
    problem = Problem(
        "tails",
        (
            IOExample({"x": "ab"}, "b"),
            IOExample({"x": "a"}, "a"),
        ),
    )
    assert run_examples(strings_grammar, program, problem, allow_errors=True) == (1, 2)
    with pytest.raises(EvaluationError):
        run_examples(strings_grammar, program, problem, allow_errors=False)


def test_output_vector_agrees_with_execute_on_input(strings_grammar):
    inputs = ("", "a", "ab", "hello")
    problem = Problem("inputs", tuple(IOExample({"x": x}, "") for x in inputs))
    rng = random.Random(5)
    failures = 0
    for _ in range(300):
        tree = random_complete_tree(strings_grammar, "S", rng, rng.randint(1, 4))
        expected = []
        for x in inputs:
            try:
                expected.append(execute_on_input(strings_grammar, tree, {"x": x}))
            except InterpreterError:
                expected.append(EVAL_ERROR)
        assert output_vector(strings_grammar, tree, problem) == tuple(expected)
        if EVAL_ERROR in expected:
            failures += 1
            with pytest.raises(InterpreterError):
                output_vector(strings_grammar, tree, problem, allow_errors=False)
        else:
            assert output_vector(strings_grammar, tree, problem, allow_errors=False) == tuple(
                expected
            )
    assert 0 < failures < 300
    assert output_vector(strings_grammar, RuleNode(1), Problem("empty")) == ()


def test_outputs_compared_tag_strictly():
    g = parse_grammar("B = Int <= Int\nInt = 1 | x")
    program = parse_node("1{2,2}")  # 1 <= 1, evaluates to True
    as_int = Problem("int", (IOExample({"x": 0}, 1),))
    as_bool = Problem("bool", (IOExample({"x": 0}, True),))
    assert run_examples(g, program, as_int) == (0, 1)
    assert run_examples(g, program, as_bool) == (1, 1)


def test_evaluation_is_deterministic(g0):
    expr = to_expression(g0, parse_node("5{4{3,2},4{1,3}}"))
    results = {evaluate(expr, {"x": 9}) for _ in range(20)}
    assert len(results) == 1


def test_execute_matches_composition(g0):
    rng = random.Random(11)
    for _ in range(200):
        tree = random_complete_tree(g0, "Int", rng, rng.randint(1, 5))
        env = {"x": rng.randint(-50, 50)}
        assert execute_on_input(g0, tree, env) == evaluate(to_expression(g0, tree), env)


def test_arithmetic_matches_reference_evaluator(g0):
    rng = random.Random(23)
    for _ in range(1000):
        tree = random_complete_tree(g0, "Int", rng, rng.randint(1, 5))
        x = rng.randint(-(10**6), 10**6)
        assert execute_on_input(g0, tree, {"x": x}) == reference_eval_arith(tree, x)
