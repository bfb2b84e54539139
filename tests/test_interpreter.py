import itertools
import pickle
import random
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synthkit import (
    EVAL_ERROR,
    EvaluationError,
    IncompleteTreeError,
    InterpreterError,
    BottomUpIterator,
    IOExample,
    IteratorConfig,
    Hole,
    Problem,
    RuleNode,
    UnboundVariableError,
    evaluate,
    execute_on_input,
    make_iterator,
    output_vector,
    parse_constraint,
    parse_grammar,
    parse_node,
    run_examples,
    serialize_node,
    set_uniform_probabilities,
    synth,
    to_expression,
)
from synthkit.bench import get_all_problem_grammar_pairs
from synthkit.interpreter import (
    _LIFTS,
    _OPERATORS,
    _STRUCTURE_CODE,
    _VECTOR_OPS,
    Apply,
    Literal,
    RuleCode,
    Variable,
    _Const,
    _constant,
)
from synthkit.specification import _INT_MAX, _INT_MIN

from conftest import SUITES_DIR
from oracles import (
    REFERENCE_ARITIES,
    random_complete_tree,
    reference_apply,
    reference_bottom_up,
    reference_eval_arith,
    reference_output_vector,
)


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


# Integers at and around the 64-bit bounds, booleans, and strings with and
# without the characters the string operators look for.
VALUE_GRID = (0, 1, 2, 3, -1, 2**63 - 1, -(2**63), 2**62, True, False, "", "a", "hello", "-", "ab-c")


def _outcome(run):
    try:
        value = run()
    except Exception as exc:
        return "raised", type(exc), str(exc)
    return "value", type(value), value


def test_every_operator_has_a_reference():
    assert set(_VECTOR_OPS) == set(REFERENCE_ARITIES)


@pytest.mark.parametrize("op,arity", [*REFERENCE_ARITIES.items(), ("nope", 1)])
def test_operator_matches_the_reference_on_a_value_grid(op, arity):
    # evaluate gives the reference's value and type, or its error and
    # message; the vector function fails exactly where the reference does.
    for args in itertools.product(VALUE_GRID, repeat=arity):
        expected = _outcome(lambda: reference_apply(op, list(args)))
        got = _outcome(lambda: evaluate(Apply(op, tuple(map(Literal, args))), {}))
        assert got == expected, (op, args)
        if op in _VECTOR_OPS:
            (value,) = _VECTOR_OPS[op](*[(a,) for a in args])
            if expected[0] == "raised":
                assert value is EVAL_ERROR, (op, args)
            else:
                assert ("value", type(value), value) == expected, (op, args)


_INTS = st.one_of(st.integers(-2, 8), st.integers(_INT_MIN, _INT_MAX))
_STRS = st.text("ab-. ", max_size=6)
_VALUES = {int: _INTS, str: _STRS, bool: st.booleans()}
_ANY_VALUE = st.one_of(_INTS, st.booleans(), _STRS, st.just(EVAL_ERROR))


@pytest.mark.parametrize("op", list(_OPERATORS))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_each_operator_result_has_its_declared_type(op, data):
    # The result type column is what lets the bank key a vector by itself:
    # a result is EVAL_ERROR, of the declared type, or, for a pass-through
    # operator, one of its arguments.
    function, types, result = _OPERATORS[op]
    args = [
        data.draw(_ANY_VALUE if kind is None else st.one_of(_VALUES[kind], _ANY_VALUE))
        for kind in types
    ]
    value = function(*args)
    if value is EVAL_ERROR:
        return
    if result is None:
        assert any(value is arg for arg in args), (op, args, value)
    else:
        assert type(value) is result, (op, args, value)


def test_string_literals_render_escaped():
    g = parse_grammar('S = "a\\nb\\tc\\"d\\\\e"')
    assert g.rule(1).rhs[0].value == 'a\nb\tc"d\\e'
    text = str(to_expression(g, RuleNode(1)))
    assert text == '"a\\nb\\tc\\"d\\\\e"'
    assert parse_grammar(f"S = {text}").rule(1) == g.rule(1)


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


# Booleans and integers in one nonterminal, ``if``, ``true``/``false``,
# a variable no example binds (``y``), and templates mixing child slots
# with literals and variables.
MIXED_TEXT = """E = 0 | 1 | x | y | true | false
E = E + E
E = E - E
E = E <= E
E = E == E
E = if ( E , E , E )
E = x * 2 + E
E = length ( "ab" ) + E
E = 2 * 3
"""

MIXED_INPUTS = (0, 1, -3, 2**63 - 1, True)

GRAMMAR_CASES = {
    "arith": ("arith/default.herbg", "Int", (0, 1, -7, 2**62, 2**63 - 1)),
    "mini-strings": ("mini-strings/default.herbg", "S", ("", "a", "ab", "hi there", "a-b.c")),
    "mixed": (None, "E", MIXED_INPUTS),
}


def _case(name):
    path, start, inputs = GRAMMAR_CASES[name]
    text = MIXED_TEXT if path is None else (SUITES_DIR / path).read_text()
    problem = Problem(name, tuple(IOExample({"x": x}, x) for x in inputs))
    return parse_grammar(text), start, problem


def assert_same_vector(got, expected):
    """Tag-strict: every element has the expected value and type."""
    assert got == expected
    assert [type(v) for v in got] == [type(v) for v in expected]


def test_output_vector_agrees_with_execute_on_input():
    for name in GRAMMAR_CASES:
        grammar, start, problem = _case(name)
        rng = random.Random(5)
        failures = 0
        for _ in range(400):
            tree = random_complete_tree(grammar, start, rng, rng.randint(1, 5))
            expected = reference_output_vector(grammar, tree, problem)
            for example, value in zip(problem.examples, expected):
                if value is not EVAL_ERROR:
                    got = execute_on_input(grammar, tree, example.input)
                    assert_same_vector((got,), (value,))
            assert_same_vector(output_vector(grammar, tree, problem), expected)
            if EVAL_ERROR in expected:
                failures += 1
                with pytest.raises(InterpreterError) as raised:
                    reference_output_vector(grammar, tree, problem, allow_errors=False)
                with pytest.raises(type(raised.value), match=re.escape(str(raised.value))):
                    output_vector(grammar, tree, problem, allow_errors=False)
            else:
                assert_same_vector(
                    output_vector(grammar, tree, problem, allow_errors=False), expected
                )
        if name != "arith":
            assert 0 < failures < 400
        assert output_vector(grammar, RuleNode(1), Problem("empty")) == ()


def test_output_vector_rejects_holes(g0, arith_problem):
    with pytest.raises(IncompleteTreeError):
        output_vector(g0, Hole(frozenset({1})), arith_problem)
    with pytest.raises(IncompleteTreeError):
        output_vector(g0, RuleNode(4, (RuleNode(1), Hole(frozenset({1})))), arith_problem)


@pytest.mark.parametrize("name,max_size", [("arith", 6), ("mini-strings", 5), ("mixed", 4)])
@pytest.mark.parametrize("pruning", [False, True])
def test_bottom_up_bank_vectors_agree_with_oracle(name, max_size, pruning):
    grammar, start, problem = _case(name)
    config = IteratorConfig(
        "bottom_up", grammar, start, max_size=max_size, observational_equivalence=pruning
    )
    bank = BottomUpIterator(config, problem=problem)
    emitted = 0
    for program in bank:
        assert_same_vector(bank.last_vector, reference_output_vector(grammar, program, problem))
        emitted += 1
    assert emitted > 20


# Grammars in which a program outputs booleans where an earlier program of
# its nonterminal outputs the integers Python calls equal to them: the
# inputs, the booleans expected, and the program that gives them.
BOOL_CASES = {
    # 1 == x gives (True, False) and x gives (1, 0).
    "eq": ("E = 1 | x\nE = E == E", (1, 0), (True, False), "3{1,2}"),
    # An input variable bound to a boolean.
    "bool-input": ("E = 1 | x", (True,), (True,), "2"),
    # An if rule passing a boolean branch through.
    "if": ("E = 1\nE = if ( B , B , E )\nB = x == 0", (0,), (True,), "2{3,3,1}"),
    # A chain rule, whose template is its child's slot.
    "chain": ("E = 1\nE = B\nB = x == 1", (1,), (True,), "2{3}"),
}


def _bank_case(name):
    if name in GRAMMAR_CASES:
        return _case(name)
    text, inputs, outputs, _ = BOOL_CASES[name]
    examples = tuple(IOExample({"x": x}, y) for x, y in zip(inputs, outputs))
    return parse_grammar(text), "E", Problem(name, examples)


# No constraints, and the enum-constrained benchmark's two sets on arith.
CONSTRAINT_SETS = {
    "plain": (),
    "ordered": (
        "(ordered (rule 4 (var a) (var b)) (a b))",
        "(ordered (rule 5 (var a) (var b)) (a b))",
    ),
    "forbidden": ("(forbidden (rule 4 (var a) (var a)))",),
}

BANK_CASES = [
    ("arith", "plain", 7, None),
    ("arith", "ordered", 7, 4),
    ("arith", "forbidden", 7, 4),
    ("mini-strings", "plain", 5, 3),
    ("mixed", "plain", 4, None),
    *((name, "plain", 5, None) for name in BOOL_CASES),
]


@pytest.mark.parametrize("pruning", [False, True])
@pytest.mark.parametrize(
    "name,constraints,max_size,max_depth", BANK_CASES, ids=[f"{c[0]}-{c[1]}" for c in BANK_CASES]
)
def test_bank_emits_the_reference_sequence(name, constraints, max_size, max_depth, pruning):
    # The bank's columns and raw keys emit exactly what one list of triples
    # with every vector keyed by output_key emits, and a budget cuts a prefix.
    grammar, start, problem = _bank_case(name)
    config = IteratorConfig(
        "bottom_up", grammar, start, max_size=max_size, max_depth=max_depth,
        constraints=tuple(parse_constraint(text) for text in CONSTRAINT_SETS[constraints]),
        observational_equivalence=pruning,
    )
    expected = [(serialize_node(p), repr(v)) for p, v in reference_bottom_up(config, problem)]
    assert len(expected) >= 2
    for budget in (None, 0, 1, len(expected) // 3):
        bank = BottomUpIterator(replace(config, max_enumerations=budget), problem=problem)
        got = []
        for program in bank:
            vector = bank.last_vector
            got.append((serialize_node(program), repr(vector)))
            # A rule said never to hold a boolean holds none.
            assert bank.code.may_hold_bool(program.rule) or bool not in map(type, vector)
        assert got == expected[:budget]
    if not pruning:
        plain = [serialize_node(p) for p in BottomUpIterator(config)]
        assert plain == [p for p, _ in expected]
        assert [serialize_node(p) for p, _ in reference_bottom_up(config)] == plain


@pytest.mark.parametrize("name", list(BOOL_CASES))
def test_observational_equivalence_keys_booleans_apart_from_integers(name):
    grammar, start, problem = _bank_case(name)
    _, _, outputs, solution = BOOL_CASES[name]
    config = IteratorConfig("bottom_up", grammar, start, max_size=5, observational_equivalence=True)
    bank = BottomUpIterator(config, problem=problem)
    vectors = {serialize_node(program): repr(bank.last_vector) for program in bank}
    assert vectors[solution] == repr(outputs)
    assert bank.code.may_hold_bool(parse_node(solution).rule)
    result = synth(problem, config)
    assert result.flag == "optimal_program"
    assert serialize_node(result.program) == solution


def test_rules_that_may_hold_a_boolean():
    # In the mixed grammar x is bound to True on one example, y to nothing:
    # the leaves x, true and false, the comparisons and if may hold one;
    # y, the constant 2 * 3 and the rules rooted at + or - never do.
    grammar, _, problem = _case("mixed")
    code = RuleCode(grammar, problem)
    assert {rule for rule in grammar.indices if code.may_hold_bool(rule)} == {3, 5, 6, 9, 10, 11}


TOP_DOWN_DEPTHS = {"arith": 4, "mini-strings": 4, "mixed": 3}


@pytest.mark.parametrize("name", list(GRAMMAR_CASES))
@pytest.mark.parametrize("kind", ["bfs", "dfs", "mlfs"])
def test_top_down_vectors_agree_with_oracle(kind, name):
    # Each vector is built from the vectors of the subtrees the stream
    # shares, or from the memoized subtrees of the mlfs builder.
    grammar, start, problem = _case(name)
    config = IteratorConfig(
        kind, grammar, start, max_depth=TOP_DOWN_DEPTHS[name], max_enumerations=3000
    )
    iterator = make_iterator(config, problem=problem)
    emitted = 0
    for program in iterator:
        assert_same_vector(iterator.last_vector, reference_output_vector(grammar, program, problem))
        emitted += 1
    assert emitted == 3000
    assert make_iterator(config).code is None


def _assert_synth_raises_the_first_error(grammar, problem, config):
    """Outputs no program reaches, so synth runs until the first program
    that fails on some example, and raises that example's error."""
    problem = Problem("unreachable", tuple(IOExample(e.input, "never") for e in problem.examples))
    position, expected = 0, None
    for position, program in enumerate(make_iterator(config, problem=problem), start=1):
        try:
            reference_output_vector(grammar, program, problem, allow_errors=False)
        except InterpreterError as exc:
            expected = exc
            break
    if expected is None:
        assert synth(problem, config, allow_evaluation_errors=False).flag != "optimal_program"
        return
    with pytest.raises(type(expected), match=re.escape(str(expected))) as raised:
        synth(problem, config, allow_evaluation_errors=False)
    assert raised.value.enumerated == position


@pytest.mark.parametrize("name", list(GRAMMAR_CASES))
def test_synth_over_the_bank_raises_the_first_error(name):
    grammar, start, problem = _case(name)
    config = IteratorConfig(
        "bottom_up", grammar, start, max_size=5, observational_equivalence=True
    )
    _assert_synth_raises_the_first_error(grammar, problem, config)


@pytest.mark.parametrize("name", list(GRAMMAR_CASES))
@pytest.mark.parametrize("kind", ["bfs", "dfs", "mlfs"])
def test_synth_over_top_down_raises_the_first_error(kind, name):
    grammar, start, problem = _case(name)
    config = IteratorConfig(
        kind, grammar, start, max_depth=TOP_DOWN_DEPTHS[name], max_enumerations=3000
    )
    _assert_synth_raises_the_first_error(grammar, problem, config)


@pytest.mark.parametrize("value", [2**63, -(2**63) - 1, 2**70, 1.0, None, [1], 3j])
def test_example_values_must_be_interpreter_values(value):
    with pytest.raises(ValueError, match="input 'y'"):
        IOExample({"y": value}, 0)
    with pytest.raises(ValueError, match="output"):
        IOExample({"y": 0}, value)


def test_examples_at_the_64_bit_bounds_score_alike_with_and_without_arithmetic():
    # Out-of-range values are rejected, so a value the program passes
    # through unchanged scores like the same value after ``+ 0``.
    grammar = parse_grammar("Int = y | 0\nInt = Int + Int")
    for value in (2**63 - 1, -(2**63)):
        problem = Problem("bound", (IOExample({"y": value}, value),))
        assert run_examples(grammar, parse_node("1"), problem) == (1, 1)
        assert run_examples(grammar, parse_node("3{1,2}"), problem) == (1, 1)
    with pytest.raises(ValueError):
        IOExample({"y": 2**70}, 2**70)


@pytest.mark.parametrize(
    "op,args",
    [("+", (Literal(1),)), ("length", (Literal("a"), Literal("b"))), ("if", ()),
     ("substring", (Literal("ab"), Literal(1)))],
)
def test_wrong_argument_count_is_an_interpreter_error(op, args):
    expr = Apply(op, args)
    with pytest.raises(InterpreterError, match=f"^{re.escape(op)} takes"):
        evaluate(expr, {})


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


# -- constant vectors and the per-structure table -------------------------------

# Argument values for every operator, of every type and ill-typed alike.
CONSTANT_VALUES = (EVAL_ERROR, True, False, 0, 1, 2, -3, "", "ab", "a-b")


def _counting(function):
    calls = []

    def counted(*args):
        calls.append(args)
        return function(*args)

    return counted, calls


@pytest.mark.parametrize("op", sorted(_VECTOR_OPS))
def test_an_operator_over_constant_vectors_is_applied_once(op):
    function, types, _ = _OPERATORS[op]
    counted, calls = _counting(function)
    lifted = _LIFTS[len(types)](counted)
    for length in (1, 2, 7):
        for args in itertools.product(CONSTANT_VALUES, repeat=len(types)):
            calls.clear()
            vector = lifted(*[_constant(value, length) for value in args])
            assert_same_vector(vector, (function(*args),) * length)
            assert type(vector) is _Const
            assert len(calls) == 1


@pytest.mark.parametrize("op", sorted(_VECTOR_OPS))
def test_an_operator_over_an_input_vector_is_applied_per_example(op):
    function, types, _ = _OPERATORS[op]
    counted, calls = _counting(function)
    lifted = _LIFTS[len(types)](counted)
    rng = random.Random(op)
    for length in (1, 2, 7):
        for mixed in range(len(types) + 1):
            # The first `mixed` arguments are constant, the rest per example;
            # with all of them per example the vectors are plain tuples.
            vectors = [
                _constant(rng.choice(CONSTANT_VALUES), length)
                if i < mixed
                else tuple(rng.choice(CONSTANT_VALUES) for _ in range(length))
                for i in range(len(types))
            ]
            if mixed == len(types):
                continue
            calls.clear()
            vector = lifted(*vectors)
            assert_same_vector(vector, tuple(map(function, *vectors)))
            assert type(vector) is tuple
            assert len(calls) == length


def _reads_input(expr):
    if isinstance(expr, Variable):
        return True
    return isinstance(expr, Apply) and any(_reads_input(arg) for arg in expr.args)


# Each bundled grammar's start symbol, a strategy for its input x and one x.
BUNDLED = {
    "arith": ("Int", st.integers(-20, 20), 3),
    "mini-strings": ("S", st.text("ab-. !", max_size=6), "a-b"),
}


@settings(max_examples=150, deadline=None)
@given(
    name=st.sampled_from(sorted(BUNDLED)),
    seed=st.integers(0, 2**32),
    depth=st.integers(1, 5),
    data=st.data(),
)
def test_vectors_match_evaluate_and_are_constant_exactly_when_no_input_is_read(
    name, seed, depth, data
):
    start, inputs, _ = BUNDLED[name]
    grammar = parse_grammar((SUITES_DIR / name / "default.herbg").read_text())
    xs = data.draw(st.lists(inputs, min_size=1, max_size=7))
    problem = Problem(name, tuple(IOExample({"x": x}, x) for x in xs))
    program = random_complete_tree(grammar, start, random.Random(seed), depth)
    expr = to_expression(grammar, program)
    expected = []
    for example in problem.examples:
        try:
            expected.append(evaluate(expr, example.input))
        except InterpreterError:
            expected.append(EVAL_ERROR)
    vector = RuleCode(grammar, problem).vector(program)
    assert_same_vector(vector, tuple(expected))
    assert (type(vector) is _Const) is not _reads_input(expr)


def test_no_constant_mark_sits_on_an_empty_vector():
    for name, (start, _, _) in BUNDLED.items():
        grammar = parse_grammar((SUITES_DIR / name / "default.herbg").read_text())
        code = RuleCode(grammar, Problem("empty"))
        rng = random.Random(3)
        for _ in range(50):
            program = random_complete_tree(grammar, start, rng, 4)
            vector = output_vector(grammar, program, Problem("empty"))
            assert vector == () and type(vector) is tuple
            assert type(code.vector(program)) is tuple
    assert _constant("!", 0) == () and type(_constant("!", 0)) is tuple


def _operator_rules(grammar):
    return [rule for rule in grammar.indices if grammar.childtypes(rule)]


def test_operator_code_is_shared_per_grammar_structure():
    # The per-task grammars of a suite share one structure, as does a
    # reweighted copy: every RuleCode over them reads one table, and so
    # one code object per operator rule.
    pairs = get_all_problem_grammar_pairs(SUITES_DIR / "mini-strings")
    (first_file, first), (second_file, second) = pairs[0], pairs[1]
    assert first._structure is second._structure
    reweighted = set_uniform_probabilities(first)
    assert reweighted._structure is first._structure
    codes = [
        RuleCode(first, first_file.problem),
        RuleCode(second, second_file.problem),
        RuleCode(reweighted, second_file.problem),
    ]
    rules = _operator_rules(first)
    assert rules
    for rule in rules:
        assert codes[0][rule] is codes[1][rule] is codes[2][rule]
    table = _STRUCTURE_CODE[first._structure]
    assert set(table[0]) == set(rules)
    assert all(table[0][rule] is codes[0][rule] for rule in rules)
    # A grammar parsed afresh has a structure, and so a table, of its own,
    # filled by its own RuleCodes.
    fresh = parse_grammar((SUITES_DIR / "mini-strings" / "default.herbg").read_text())
    assert fresh._structure not in _STRUCTURE_CODE
    code = RuleCode(fresh, first_file.problem)
    assert _STRUCTURE_CODE[fresh._structure][0] == {}
    for rule in rules:
        code[rule]
    assert _STRUCTURE_CODE[fresh._structure][0] is not table[0]
    assert set(_STRUCTURE_CODE[fresh._structure][0]) == set(rules)


def test_leaves_and_input_reading_rules_compile_per_problem():
    grammar = parse_grammar("Int = 1 | x\nInt = Int + Int\nInt = Int + x")
    problems = [
        Problem("a", (IOExample({"x": 5}, 6),)),
        Problem("b", (IOExample({"x": 7}, 8), IOExample({"x": 2}, 3))),
    ]
    first, second = (RuleCode(grammar, problem) for problem in problems)
    assert first[1] == (1,) and second[1] == (1, 1)
    assert first[2] == (5,) and second[2] == (7, 2)
    assert first[3] is second[3] is _VECTOR_OPS["+"]
    assert first[4] is not second[4]
    assert first[4](first[1]) == (6,) and second[4](second[1]) == (8, 3)
    assert set(_STRUCTURE_CODE[grammar._structure][0]) == {3}


def test_may_hold_bool_is_unchanged_on_the_bundled_grammars():
    # No rule of either bundled grammar can hold a boolean, on a problem
    # with examples or without, asked first or again from the table.
    for name, (_, _, x) in BUNDLED.items():
        grammar = parse_grammar((SUITES_DIR / name / "default.herbg").read_text())
        example = IOExample({"x": x}, 0)
        for problem in (Problem(name, (example,)), Problem("empty")):
            for _ in range(2):
                code = RuleCode(grammar, problem)
                assert not any(code.may_hold_bool(rule) for rule in grammar.indices)


def test_a_grammar_pickles_after_a_rule_code_used_it():
    grammar, start, problem = _case("mini-strings")
    code = RuleCode(grammar, problem)
    program = random_complete_tree(grammar, start, random.Random(1), 4)
    code.vector(program)
    assert all(code.may_hold_bool(rule) is False for rule in grammar.indices)
    copy = pickle.loads(pickle.dumps(grammar))
    assert [copy.rule(i) for i in copy.indices] == [grammar.rule(i) for i in grammar.indices]
    assert RuleCode(copy, problem).vector(program) == code.vector(program)
