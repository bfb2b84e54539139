"""Program semantics: turning ASTs into expressions and output vectors.

Enumeration is purely syntactic; this module is the other half of the
split.  Each grammar rule's flat token template is parsed once into an
expression whose :class:`ChildRef` slots stand for the children of the
AST node applying that rule.  That expression serves two evaluators:

* :func:`to_expression` fills the slots with the children's expressions,
  and :func:`evaluate` walks the result on one input, raising an
  :class:`~synthkit.errors.InterpreterError` on failure;
* :class:`RuleCode` turns each template, lazily and once per grammar
  and problem, into a function from its children's output vectors (one
  value per example) to its own, with slots that read no child folded into
  constant vectors.  :func:`output_vector` is a fold of these functions
  over the tree, and the bottom-up bank applies one per new program.  An
  example whose evaluation fails holds :data:`EVAL_ERROR`, and an
  ``EVAL_ERROR`` or ill-typed argument gives ``EVAL_ERROR`` again.

The object language is fixed:

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
from typing import Callable, Mapping, Union
from weakref import WeakKeyDictionary

from .errors import (
    EvaluationError,
    GrammarError,
    IncompleteTreeError,
    UnboundVariableError,
)
from .grammar import Grammar, IntLit, Placeholder, StrLit, Sym
from .nodes import Node, RuleNode, is_complete
from .specification import Problem, Value

_INT_MIN = -(2**63)
_INT_MAX = 2**63 - 1
_UINT_SPAN = 2**64

_BINARY_OPS = ("==", "<=", "+", "-", "*")
_FUNCTIONS = {"concat": 2, "substring": 3, "replace": 3, "length": 1, "if": 3}
_BOOLEANS = {"true": True, "false": False}

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


def output_key(vector: tuple) -> tuple:
    """A hashable key under which two output vectors collide only when they
    are equal element by element under :func:`values_equal`.

    Python's ``True == 1`` would otherwise merge a boolean vector with an
    integer one, so booleans are wrapped in a tuple when a vector has any.
    """
    if bool in map(type, vector):
        return tuple([(v,) if type(v) is bool else v for v in vector])
    return vector


# -- evaluation over output vectors -------------------------------------------
#
# Each operator is a total function of one example's argument values: an
# EVAL_ERROR (a tuple) or an ill-typed argument fails its type check and
# gives EVAL_ERROR, so errors propagate without raising.  A rule's vector
# function maps the operator over its arguments' vectors.


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


_VECTOR_OPS = {
    "+": lambda a, b: tuple(map(_plus, a, b)),
    "-": lambda a, b: tuple(map(_minus, a, b)),
    "*": lambda a, b: tuple(map(_times, a, b)),
    "==": lambda a, b: tuple(map(_equals, a, b)),
    "<=": lambda a, b: tuple(map(_at_most, a, b)),
    "concat": lambda a, b: tuple(map(_concat, a, b)),
    "length": lambda a: tuple(map(_length, a)),
    "replace": lambda a, b, c: tuple(map(_replace, a, b, c)),
    "substring": lambda a, b, c: tuple(map(_substring, a, b, c)),
    "if": lambda a, b, c: tuple(map(_if, a, b, c)),
}


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
    through it.
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

    def vector(self, program: Node, allow_errors: bool = True) -> tuple:
        """The program's output vector; see :func:`output_vector`."""
        try:
            vector = _fold(self, program)
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


def _fold(code: RuleCode, node: RuleNode) -> tuple:
    children = node.children
    if children:
        return code[node.rule](*[_fold(code, child) for child in children])
    return code[node.rule]


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
    expected = (example.output for example in problem.examples)
    return sum(map(values_equal, outputs, expected)), len(outputs)
