"""Program semantics: turning ASTs into expressions and output vectors.

Enumeration is purely syntactic; this module is the other half of the
split.  Each operator is defined once, in ``_OPERATORS``, by its total
function of one example's argument values, the argument types it expects
and the type of its result; the parser, both evaluators and
:meth:`RuleCode.may_hold_bool` derive from that table.
Each rule's flat token template is parsed once, whatever grammar holds
the rule, into an expression whose :class:`ChildRef` slots stand for the
children of the AST node applying that rule.  Then:

* :func:`to_expression` fills the slots with the children's expressions,
  and :func:`evaluate` walks the result on one input, raising an
  :class:`~synthkit.errors.InterpreterError` whose message names the
  failing argument where the function gives ``EVAL_ERROR``;
* :class:`RuleCode` turns each template, lazily and once per grammar
  and problem, into a function from its children's output vectors (one
  value per example) to its own, with slots that read no child folded into
  constant vectors.  :func:`output_vector` is a fold of these functions
  over the tree, and every iterator applies one per node it builds.  An
  example whose evaluation fails holds ``EVAL_ERROR``, and an
  ``EVAL_ERROR`` or ill-typed argument gives ``EVAL_ERROR`` again.

The object language:

* integers: literals, variables, ``+``, ``-``, ``*`` (64-bit wrapping)
* booleans: ``true``, ``false``, and ``==`` and ``<=`` on integers
* strings: ``concat(s, t)``, ``length(s)``, ``substring(s, i, j)`` with
  1-based inclusive indices, ``replace(s, old, new)`` replacing all
  occurrences, and ``if(cond, then, else)`` over any value type

Evaluation is strict: all arguments are evaluated before the operator is
applied, so an error anywhere in the tree is an error of the program, and
``if`` fails when either branch does.  Operand types are checked
tag-strictly: a boolean is not an integer.  ``substring`` with indices
outside ``1 <= i <= j <= length`` is an evaluation error, not a clamped
result.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import eq
from typing import Callable, Mapping, Sequence, Union
from weakref import WeakKeyDictionary

from .errors import (
    EvaluationError,
    GrammarError,
    IncompleteTreeError,
    UnboundVariableError,
)
from .grammar import Grammar, IntLit, Placeholder, Rule, StrLit, Sym
from .nodes import Node, RuleNode, is_complete
from .specification import _INT_MAX, _INT_MIN, Problem, Value

_UINT_SPAN = 2**64

_BOOLEANS = {"true": True, "false": False}

Expression = Union["Literal", "Variable", "Apply", "ChildRef"]


@dataclass(frozen=True)
class Literal:
    value: Value

    def __str__(self):
        if isinstance(self.value, bool):
            return "true" if self.value else "false"
        if isinstance(self.value, str):
            text = self.value.replace("\\", "\\\\").replace('"', '\\"')
            return '"' + text.replace("\n", "\\n").replace("\t", "\\t") + '"'
        return str(self.value)


@dataclass(frozen=True)
class Variable:
    name: str

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class ChildRef:
    """Slot in a compiled rule template, filled by the node's i-th child."""

    index: int

    def __str__(self):
        return f"<{self.index}>"


@dataclass(frozen=True)
class Apply:
    op: str
    args: tuple[Expression, ...]

    def __str__(self):
        if self.op in _FUNCTIONS:
            return f"{self.op}({', '.join(str(a) for a in self.args)})"
        left, right = (_wrap(a) for a in self.args)
        return f"{left} {self.op} {right}"


def _wrap(expr: Expression) -> str:
    if isinstance(expr, Apply) and expr.op not in _FUNCTIONS:
        return f"({expr})"
    return str(expr)


# -- template compilation ---------------------------------------------------


class _TemplateParser:
    """Tiny precedence parser over a rule's flat token sequence.

    Placeholders become :class:`ChildRef` slots numbered left to right, in
    the same order the grammar derives its childtypes.
    """

    def __init__(self, rule_index, tokens):
        self.rule_index = rule_index
        self.tokens = list(tokens)
        self.pos = 0
        self.next_child = 0

    def fail(self, message):
        raise GrammarError(f"rule {self.rule_index}: {message}")

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take_sym(self, text):
        tok = self.peek()
        if isinstance(tok, Sym) and tok.text == text:
            self.pos += 1
            return True
        return False

    def parse(self) -> Expression:
        expr = self.comparison()
        if self.pos != len(self.tokens):
            self.fail(f"unexpected token {self.tokens[self.pos]!r} in template")
        return expr

    def comparison(self) -> Expression:
        left = self.sum()
        for op in ("==", "<="):
            if self.take_sym(op):
                return Apply(op, (left, self.sum()))
        return left

    def sum(self) -> Expression:
        expr = self.product()
        while True:
            if self.take_sym("+"):
                expr = Apply("+", (expr, self.product()))
            elif self.take_sym("-"):
                expr = Apply("-", (expr, self.product()))
            else:
                return expr

    def product(self) -> Expression:
        expr = self.atom()
        while self.take_sym("*"):
            expr = Apply("*", (expr, self.atom()))
        return expr

    def atom(self) -> Expression:
        tok = self.peek()
        if tok is None:
            self.fail("template ended unexpectedly")
        self.pos += 1
        if isinstance(tok, IntLit):
            return Literal(tok.value)
        if isinstance(tok, StrLit):
            return Literal(tok.value)
        if isinstance(tok, Placeholder):
            ref = ChildRef(self.next_child)
            self.next_child += 1
            return ref
        if isinstance(tok, Sym):
            if tok.text == "(":
                inner = self.comparison()
                if not self.take_sym(")"):
                    self.fail("missing ')'")
                return inner
            if tok.text in _FUNCTIONS:
                return self.call(tok.text)
            if tok.text in _BINARY_OPS or tok.text in (",", ")"):
                self.fail(f"unexpected {tok.text!r} in template")
            if tok.text in _BOOLEANS:
                return Literal(_BOOLEANS[tok.text])
            return Variable(tok.text)
        self.fail(f"unsupported token {tok!r}")

    def call(self, name) -> Expression:
        if not self.take_sym("("):
            self.fail(f"{name} needs parenthesized arguments")
        args = [self.comparison()]
        while self.take_sym(","):
            args.append(self.comparison())
        if not self.take_sym(")"):
            self.fail(f"missing ')' after {name} arguments")
        if len(args) != _FUNCTIONS[name]:
            self.fail(f"{name} takes {_FUNCTIONS[name]} arguments, got {len(args)}")
        return Apply(name, tuple(args))


# Parsed templates keyed by the rule itself, so every grammar holding an
# equal rule (reweighted copies, per-task grammars) shares one parse.
_template_cache: "WeakKeyDictionary[Rule, Expression]" = WeakKeyDictionary()


def _template(grammar: Grammar, rule_index: int) -> Expression:
    rule = grammar.rule(rule_index)
    template = _template_cache.get(rule)
    if template is None:
        # A parse error names this grammar's index; only parses that
        # succeed are kept.
        template = _template_cache[rule] = _TemplateParser(rule_index, rule.rhs).parse()
    return template


def _substitute(template: Expression, children: list[Expression]) -> Expression:
    if isinstance(template, ChildRef):
        return children[template.index]
    if isinstance(template, Apply):
        return Apply(template.op, tuple(_substitute(a, children) for a in template.args))
    return template


def to_expression(grammar: Grammar, node: Node) -> Expression:
    """Expression denoted by a complete AST under the grammar's templates."""
    if not isinstance(node, RuleNode):
        raise IncompleteTreeError("cannot interpret a program that still contains holes")
    template = _template(grammar, node.rule)
    if not node.children:
        return template
    children = [to_expression(grammar, child) for child in node.children]
    return _substitute(template, children)


# -- evaluation ---------------------------------------------------------------
#
# Each operator is a total function of one example's argument values: an
# EVAL_ERROR (a tuple) or an ill-typed argument fails its type check and
# gives EVAL_ERROR, so errors propagate without raising.  :func:`evaluate`
# applies the function to one input's values and raises on EVAL_ERROR; a
# rule's vector function maps it over its arguments' vectors.

# Output recorded for an example whose evaluation raised an interpreter error.
EVAL_ERROR = ("<error>",)


def _wrap64(value: int) -> int:
    return (value - _INT_MIN) % _UINT_SPAN + _INT_MIN


def _plus(x, y):
    if type(x) is int is type(y):
        v = x + y
        return v if _INT_MIN <= v <= _INT_MAX else _wrap64(v)
    return EVAL_ERROR


def _minus(x, y):
    if type(x) is int is type(y):
        v = x - y
        return v if _INT_MIN <= v <= _INT_MAX else _wrap64(v)
    return EVAL_ERROR


def _times(x, y):
    if type(x) is int is type(y):
        v = x * y
        return v if _INT_MIN <= v <= _INT_MAX else _wrap64(v)
    return EVAL_ERROR


def _equals(x, y):
    return x == y if type(x) is int is type(y) else EVAL_ERROR


def _at_most(x, y):
    return x <= y if type(x) is int is type(y) else EVAL_ERROR


def _concat(s, t):
    return s + t if type(s) is str is type(t) else EVAL_ERROR


def _length(s):
    return len(s) if type(s) is str else EVAL_ERROR


def _replace(s, old, new):
    return s.replace(old, new) if type(s) is str is type(old) is type(new) else EVAL_ERROR


def _substring(s, i, j):
    if type(s) is str and type(i) is int is type(j) and 1 <= i <= j <= len(s):
        return s[i - 1 : j]
    return EVAL_ERROR


def _if(cond, then, otherwise):
    if type(cond) is not bool or then is EVAL_ERROR or otherwise is EVAL_ERROR:
        return EVAL_ERROR
    return then if cond else otherwise


# The object language: each operator's per-example function, the type of
# each argument (None for any value) and the type of its result, which is
# EVAL_ERROR where it is not that type (None: the operator passes one of
# its arguments through).  Symbols are infix, names are called with
# parenthesized arguments.
_OPERATORS = {
    "==": (_equals, (int, int), bool),
    "<=": (_at_most, (int, int), bool),
    "+": (_plus, (int, int), int),
    "-": (_minus, (int, int), int),
    "*": (_times, (int, int), int),
    "concat": (_concat, (str, str), str),
    "substring": (_substring, (str, int, int), str),
    "replace": (_replace, (str, str, str), str),
    "length": (_length, (str,), int),
    "if": (_if, (bool, None, None), None),
}

# Function names and their arities; the symbols are the infix operators.
_FUNCTIONS = {name: len(types) for name, (_, types, _) in _OPERATORS.items() if name.isidentifier()}
_BINARY_OPS = tuple(name for name in _OPERATORS if name not in _FUNCTIONS)

_TYPE_NAMES = {int: "an integer", str: "a string", bool: "a boolean condition"}


def _failure(op: str, args: list[Value]) -> str:
    """Why ``op`` gave EVAL_ERROR on ``args``: the first ill-typed argument,
    or else a ``substring`` range outside its text."""
    for value, kind in zip(args, _OPERATORS[op][1]):
        if kind is not None and type(value) is not kind:
            return f"{op} expects {_TYPE_NAMES[kind]}, got {value!r}"
    text, i, j = args
    return f"substring indices ({i}, {j}) out of range for {text!r}"


def evaluate(expr: Expression, env: Mapping[str, Value]) -> Value:
    """Strictly evaluate an expression in a variable environment."""
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, Variable):
        try:
            return env[expr.name]
        except KeyError:
            raise UnboundVariableError(f"variable {expr.name!r} is not bound") from None
    if isinstance(expr, Apply):
        args = [evaluate(a, env) for a in expr.args]
        entry = _OPERATORS.get(expr.op)
        if entry is None:
            raise EvaluationError(f"unknown operator {expr.op!r}")
        if len(args) != len(entry[1]):
            raise EvaluationError(f"{expr.op} takes {len(entry[1])} arguments, got {len(args)}")
        value = entry[0](*args)
        if value is EVAL_ERROR:
            raise EvaluationError(_failure(expr.op, args))
        return value
    raise EvaluationError(f"cannot evaluate template slot {expr}")


def execute_on_input(grammar: Grammar, node: Node, env: Mapping[str, Value]) -> Value:
    """Evaluate a complete AST directly on one input environment."""
    return evaluate(to_expression(grammar, node), env)


def values_equal(actual: Value, expected: Value) -> bool:
    """Tag-strict equality: booleans never compare equal to integers."""
    return type(actual) is type(expected) and actual == expected


def solved_counter(expected: Sequence[Value]) -> Callable[[tuple], int]:
    """A function counting the positions where an output vector's value
    equals ``expected``'s under :func:`values_equal`.

    The count runs in C, through ``operator.eq`` on the raw values.  Python's
    ``==`` differs from :func:`values_equal` only between a boolean and the
    integer 0 or 1 (``True == 1``): strings equal no value of another type,
    and ``EVAL_ERROR``, a tuple of a string, equals no legal value.  So only
    the positions where ``expected`` holds a boolean, a 0 or a 1 are checked
    again for a type match.
    """
    expected = tuple(expected)
    confusable = tuple(
        i for i, value in enumerate(expected) if type(value) in (bool, int) and value in (0, 1)
    )
    if not confusable:
        return lambda vector: sum(map(eq, vector, expected))

    def count(vector: tuple) -> int:
        solved = sum(map(eq, vector, expected))
        for i in confusable:
            if type(vector[i]) is not type(expected[i]) and vector[i] == expected[i]:
                solved -= 1
        return solved

    return count


def output_key(vector: tuple) -> tuple:
    """A hashable key under which two output vectors collide only when they
    are equal element by element under :func:`values_equal`.

    Python's ``True == 1`` would otherwise merge a boolean vector with an
    integer one, so booleans are wrapped in a tuple when a vector has any.
    A vector without booleans is its own key, so a caller that knows a
    vector holds none, as :meth:`RuleCode.may_hold_bool` tells per rule,
    can key it by itself without the scan.
    """
    if bool in map(type, vector):
        return tuple([(v,) if type(v) is bool else v for v in vector])
    return vector


# -- evaluation over output vectors -------------------------------------------

# Each operator lifted to map over one vector per argument.  The lifts take
# fixed positional parameters: a ``*vectors`` lift is measurably slower.
_LIFTS = {
    1: lambda op: lambda a: tuple(map(op, a)),
    2: lambda op: lambda a, b: tuple(map(op, a, b)),
    3: lambda op: lambda a, b, c: tuple(map(op, a, b, c)),
}
_VECTOR_OPS = {name: _LIFTS[len(types)](op) for name, (op, types, _) in _OPERATORS.items()}


def _compile(expr: Expression, inputs: tuple) -> Union[tuple, Callable]:
    """An expression's vector on ``inputs`` if it reads no child slot, else
    a function from the tuple of child vectors to its vector."""
    if isinstance(expr, Literal):
        return (expr.value,) * len(inputs)
    if isinstance(expr, Variable):
        name = expr.name
        return tuple([env[name] if name in env else EVAL_ERROR for env in inputs])
    if isinstance(expr, ChildRef):
        index = expr.index
        return lambda kids: kids[index]
    op = _VECTOR_OPS[expr.op]
    args = [_compile(arg, inputs) for arg in expr.args]
    if not any(callable(arg) for arg in args):
        return op(*args)
    parts = [arg if callable(arg) else (lambda kids, vector=arg: vector) for arg in args]
    return lambda kids: op(*[part(kids) for part in parts])


def _compile_rule(template: Expression, inputs: tuple) -> Union[tuple, Callable]:
    """A rule's constant vector, or its function of the children's vectors."""
    if isinstance(template, Apply) and template.args == tuple(
        ChildRef(i) for i in range(len(template.args))
    ):
        # The rule is one operator over its children in order, as in
        # ``Int + Int`` or ``concat(S, S)``: the operator's vector function.
        return _VECTOR_OPS[template.op]
    code = _compile(template, inputs)
    if callable(code):
        return lambda *kids: code(kids)
    return code


class RuleCode(dict):
    """A grammar's rules compiled to vector code on one problem's inputs.

    Maps a rule index to its code, built on first use: for a rule with
    children, a function from their output vectors to the rule's; for a leaf
    rule, its output vector.  A search builds one and scores every program
    through it.  :meth:`may_hold_bool` tells from the same templates which
    rules' vectors can hold a boolean, so that only those need
    :func:`output_key`.
    """

    def __init__(self, grammar: Grammar, problem: Problem):
        super().__init__()
        self.grammar = grammar
        self.problem = problem
        self.inputs = tuple(example.input for example in problem.examples)

    def __missing__(self, rule: int):
        code = _compile_rule(_template(self.grammar, rule), self.inputs)
        self[rule] = code
        return code

    def may_hold_bool(self, rule: int) -> bool:
        """Whether a vector of the rule can hold a boolean.

        A leaf rule's constant vector is inspected.  A rule whose template
        applies an operator with an integer or string result at its root
        never holds one: every position is that type or ``EVAL_ERROR``.
        Any other rule, whose root passes a value through (``if``, or a
        chain rule whose root is a child slot), may.
        """
        code = self[rule]
        if not callable(code):
            return bool in map(type, code)
        template = _template(self.grammar, rule)
        return not (isinstance(template, Apply) and _OPERATORS[template.op][2] in (int, str))

    def vector(self, program: Node, allow_errors: bool = True) -> tuple:
        """The program's output vector; see :func:`output_vector`."""
        try:
            vector = _fold(self, program, {})
        except AttributeError:
            # A hole has no rule to apply.
            if is_complete(program):
                raise
            raise IncompleteTreeError("cannot interpret a program that still contains holes") from None
        if not allow_errors and EVAL_ERROR in vector:
            self.raise_first_error(program)
        return vector

    def raise_first_error(self, program: Node) -> None:
        """Raise the error of the program's first failing example."""
        expr = to_expression(self.grammar, program)
        for example in self.problem.examples:
            evaluate(expr, example.input)


def _fold(code: RuleCode, node: RuleNode, memo: dict) -> tuple:
    """The program's output vector: each inner node's code applied to its
    children's vectors, each leaf's vector read from ``code``.

    ``memo`` maps ``id(node)`` to the vector of every inner node folded
    below a root with it, so a subtree that several programs share is
    folded once; a root's own vector is not kept.  The memo is sound only
    while every node it keys stays alive, since a freed node's id may be
    given to a new one: :meth:`RuleCode.vector` passes a fresh dict, and a
    replaying search keeps one for its whole replay over programs its
    recording keeps alive.
    """
    children = node.children
    if not children:
        return code[node.rule]
    vectors = []
    for child in children:
        if child.children:
            vector = memo.get(id(child))
            if vector is None:
                vector = memo[id(child)] = _fold(code, child, memo)
        else:
            vector = code[child.rule]
        vectors.append(vector)
    return code[node.rule](*vectors)


def output_vector(
    grammar: Grammar, program: Node, problem: Problem, allow_errors: bool = True
) -> tuple:
    """The program's output on each of the problem's examples, in order.

    With ``allow_errors`` an example whose evaluation fails yields
    :data:`EVAL_ERROR`; otherwise the first error propagates, raised by
    :func:`evaluate` on the first failing example.  A search scoring many
    programs keeps one :class:`RuleCode` instead.
    """
    return RuleCode(grammar, problem).vector(program, allow_errors)


def run_examples(
    grammar: Grammar,
    node: Node,
    problem: Problem,
    allow_errors: bool = True,
) -> tuple[int, int]:
    """Count how many of the problem's examples the program solves.

    With ``allow_errors`` an evaluation error just fails that example;
    otherwise the first error propagates.
    """
    if not problem.examples:
        return 0, 0
    outputs = output_vector(grammar, node, problem, allow_errors)
    count = solved_counter(example.output for example in problem.examples)
    return count(outputs), len(outputs)
