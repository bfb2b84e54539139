"""Program semantics: turning ASTs into expressions and evaluating them.

Enumeration is purely syntactic; this module is the other half of the
split.  Each grammar rule's flat token template is compiled once into an
expression skeleton whose placeholder slots are filled with the child
expressions of the AST node applying that rule.

The object language is fixed:

* integers: literals, variables, ``+``, ``-``, ``*`` (64-bit wrapping)
* booleans: ``==`` and ``<=`` on integers
* strings: ``concat(s, t)``, ``length(s)``, ``substring(s, i, j)`` with
  1-based inclusive indices, ``replace(s, old, new)`` replacing all
  occurrences, and ``if(cond, then, else)`` over any value type

Evaluation is strict: all arguments are evaluated before the operator is
applied, so an error anywhere in the tree is an error of the program.
``substring`` with indices outside ``1 <= i <= j <= length`` is an
evaluation error, not a clamped result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Union
from weakref import WeakKeyDictionary

from .errors import (
    EvaluationError,
    GrammarError,
    IncompleteTreeError,
    InterpreterError,
    UnboundVariableError,
)
from .grammar import Grammar, IntLit, Placeholder, StrLit, Sym
from .nodes import Node, RuleNode
from .specification import Problem, Value

_INT_MIN = -(2**63)
_UINT_SPAN = 2**64

_BINARY_OPS = ("==", "<=", "+", "-", "*")
_FUNCTIONS = {"concat": 2, "substring": 3, "replace": 3, "length": 1, "if": 3}

Expression = Union["Literal", "Variable", "Apply", "ChildRef"]


@dataclass(frozen=True)
class Literal:
    value: Value

    def __str__(self):
        if isinstance(self.value, bool):
            return "true" if self.value else "false"
        if isinstance(self.value, str):
            return '"' + self.value.replace("\\", "\\\\").replace('"', '\\"') + '"'
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


_template_cache: "WeakKeyDictionary[Grammar, dict[int, Expression]]" = WeakKeyDictionary()


def _template(grammar: Grammar, rule_index: int) -> Expression:
    per_grammar = _template_cache.get(grammar)
    if per_grammar is None:
        per_grammar = {}
        _template_cache[grammar] = per_grammar
    template = per_grammar.get(rule_index)
    if template is None:
        template = _TemplateParser(rule_index, grammar.rule(rule_index).rhs).parse()
        per_grammar[rule_index] = template
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


def _wrap64(value: int) -> int:
    return (value - _INT_MIN) % _UINT_SPAN + _INT_MIN


def _as_int(value: Value, op: str) -> int:
    if type(value) is not int:
        raise EvaluationError(f"{op} expects an integer, got {value!r}")
    return value


def _as_str(value: Value, op: str) -> str:
    if type(value) is not str:
        raise EvaluationError(f"{op} expects a string, got {value!r}")
    return value


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
        return _apply(expr.op, args)
    raise EvaluationError(f"cannot evaluate template slot {expr}")


def _apply(op: str, args: list[Value]) -> Value:
    if op == "+":
        return _wrap64(_as_int(args[0], op) + _as_int(args[1], op))
    if op == "-":
        return _wrap64(_as_int(args[0], op) - _as_int(args[1], op))
    if op == "*":
        return _wrap64(_as_int(args[0], op) * _as_int(args[1], op))
    if op == "==":
        return _as_int(args[0], op) == _as_int(args[1], op)
    if op == "<=":
        return _as_int(args[0], op) <= _as_int(args[1], op)
    if op == "concat":
        return _as_str(args[0], op) + _as_str(args[1], op)
    if op == "length":
        return len(_as_str(args[0], op))
    if op == "replace":
        return _as_str(args[0], op).replace(_as_str(args[1], op), _as_str(args[2], op))
    if op == "substring":
        text = _as_str(args[0], op)
        i = _as_int(args[1], op)
        j = _as_int(args[2], op)
        if not 1 <= i <= j <= len(text):
            raise EvaluationError(f"substring indices ({i}, {j}) out of range for {text!r}")
        return text[i - 1 : j]
    if op == "if":
        cond = args[0]
        if type(cond) is not bool:
            raise EvaluationError(f"if expects a boolean condition, got {cond!r}")
        return args[1] if cond else args[2]
    raise EvaluationError(f"unknown operator {op!r}")


def execute_on_input(grammar: Grammar, node: Node, env: Mapping[str, Value]) -> Value:
    """Evaluate a complete AST directly on one input environment."""
    return evaluate(to_expression(grammar, node), env)


def values_equal(actual: Value, expected: Value) -> bool:
    """Tag-strict equality: booleans never compare equal to integers."""
    return type(actual) is type(expected) and actual == expected


# Output recorded for an example whose evaluation raised an interpreter error.
EVAL_ERROR = ("<error>",)


def output_vector(
    grammar: Grammar, program: Node, problem: Problem, allow_errors: bool = True
) -> tuple:
    """The program's output on each of the problem's examples, in order.

    With ``allow_errors`` an example whose evaluation fails yields
    :data:`EVAL_ERROR`; otherwise the first error propagates.
    """
    expr = to_expression(grammar, program)
    outputs = []
    for example in problem.examples:
        try:
            outputs.append(evaluate(expr, example.input))
        except InterpreterError:
            if not allow_errors:
                raise
            outputs.append(EVAL_ERROR)
    return tuple(outputs)


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
    expected = (example.output for example in problem.examples)
    return sum(map(values_equal, outputs, expected)), len(outputs)
