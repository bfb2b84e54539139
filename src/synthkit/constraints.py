"""Tree-pattern constraints over programs.

A :class:`Forbidden` constraint rejects any complete program containing a
match of its pattern; :class:`Ordered` requires the subtrees bound by the
named pattern variables to be in non-decreasing order (lexicographic on
their serialized text) at every match site, the usual symmetry break for
commutative operators.

Patterns are written as s-expressions in problem files::

    (forbidden (rule 4 (var a) (var a)))
    (ordered (rule 4 (var a) (var b)) (a b))
    (forbidden (domain (4 5) (rule 1) (var x)))

A ``rule``/``domain`` pattern with no child patterns matches nodes with any
children; repeated variable names must bind structurally equal subtrees.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

from .errors import ConstraintSyntaxError
from .nodes import Node, RuleNode, serialize_node, subtrees

Pattern = Union["ConcreteRule", "DomainMember", "PatternVar"]


@dataclass(frozen=True)
class ConcreteRule:
    """Matches a node applying exactly this rule."""

    rule: int
    children: tuple[Pattern, ...] | None = None

    def __post_init__(self):
        if self.children is not None:
            object.__setattr__(self, "children", tuple(self.children))


@dataclass(frozen=True)
class DomainMember:
    """Matches a node whose rule lies in the given set."""

    domain: frozenset[int]
    children: tuple[Pattern, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "domain", frozenset(self.domain))
        if not self.domain:
            raise ValueError("pattern domain must be non-empty")
        if self.children is not None:
            object.__setattr__(self, "children", tuple(self.children))


@dataclass(frozen=True)
class PatternVar:
    """Matches any subtree; repeated names must bind equal subtrees."""

    name: str


@dataclass(frozen=True)
class Forbidden:
    """No complete program may contain a match of the pattern anywhere."""

    pattern: Pattern


@dataclass(frozen=True)
class Ordered:
    """Wherever the pattern matches, the bound subtrees must be ordered.

    Order is non-decreasing over the variable sequence, comparing the
    lexicographic order of the subtrees' serialized text.
    """

    pattern: Pattern
    variables: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        names = pattern_variables(self.pattern)
        missing = [v for v in self.variables if v not in names]
        if missing:
            raise ValueError(f"ordered variables {missing} do not occur in the pattern")


Constraint = Union[Forbidden, Ordered]


def pattern_variables(pattern: Pattern) -> set[str]:
    if isinstance(pattern, PatternVar):
        return {pattern.name}
    names: set[str] = set()
    for child in pattern.children or ():
        names |= pattern_variables(child)
    return names


def match_pattern(pattern: Pattern, node: Node) -> Optional[dict[str, Node]]:
    """Match a pattern at the root of a complete program.

    Returns the variable bindings on success, ``None`` otherwise; repeated
    variables must bind equal subtrees.  A hole never matches a ``rule``
    or ``domain`` pattern.  Over uniform trees the solver matches a pattern
    once per position, when it posts the constraint there, and decides each
    later check from hole rules alone.
    """
    bindings: dict[str, Node] = {}

    def walk(p: Pattern, n: Node) -> bool:
        if isinstance(p, PatternVar):
            return bindings.setdefault(p.name, n) == n
        if not isinstance(n, RuleNode):
            return False
        if isinstance(p, ConcreteRule):
            if n.rule != p.rule:
                return False
        elif n.rule not in p.domain:
            return False
        if p.children is None:
            return True
        if len(p.children) != len(n.children):
            return False
        return all(walk(pc, nc) for pc, nc in zip(p.children, n.children))

    return bindings if walk(pattern, node) else None


def violated_by(constraint: Constraint, bindings: dict[str, Node]) -> bool:
    """Does a match with these complete bindings break the constraint?"""
    if isinstance(constraint, Forbidden):
        return True
    return misordered([serialize_node(bindings[v]) for v in constraint.variables])


def misordered(texts: Sequence[str]) -> bool:
    """Does a text ever exceed the next one?  The violation of an
    ``ordered`` constraint, given its variables' serialized subtrees."""
    return any(a > b for a, b in zip(texts, texts[1:]))


def check_program(constraints: Iterable[Constraint], node: Node) -> bool:
    """Ground truth: does a complete program satisfy every constraint?"""
    constraints = tuple(constraints)
    if not constraints:
        return True
    for sub in subtrees(node):
        for constraint in constraints:
            bindings = match_pattern(constraint.pattern, sub)
            if bindings is not None and violated_by(constraint, bindings):
                return False
    return True


def check_root(constraints: Sequence[Constraint], node: Node) -> bool:
    """Does every constraint hold at the matches rooted at ``node``?

    A program whose proper subtrees all pass :func:`check_program` passes
    it exactly when it passes this check, since every other match site lies
    in some child.  So a bottom-up bank, which checked each child when it
    banked it, checks a candidate's new root alone.
    """
    for constraint in constraints:
        bindings = match_pattern(constraint.pattern, node)
        if bindings is not None and violated_by(constraint, bindings):
            return False
    return True


# -- s-expression reader ------------------------------------------------------


def _read_sexpr(text: str):
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    pos = 0

    def read():
        nonlocal pos
        if pos >= len(tokens):
            raise ConstraintSyntaxError(f"unexpected end of constraint {text!r}")
        tok = tokens[pos]
        pos += 1
        if tok == "(":
            items = []
            while pos < len(tokens) and tokens[pos] != ")":
                items.append(read())
            if pos >= len(tokens):
                raise ConstraintSyntaxError(f"missing ')' in constraint {text!r}")
            pos += 1
            return items
        if tok == ")":
            raise ConstraintSyntaxError(f"unexpected ')' in constraint {text!r}")
        return tok

    expr = read()
    if pos != len(tokens):
        raise ConstraintSyntaxError(f"trailing input in constraint {text!r}")
    return expr


def _parse_index(atom, context: str) -> int:
    if not isinstance(atom, str) or not atom.isdigit():
        raise ConstraintSyntaxError(f"expected a rule index in {context}, got {atom!r}")
    return int(atom)


def _parse_pattern(expr) -> Pattern:
    if not isinstance(expr, list) or not expr:
        raise ConstraintSyntaxError(f"expected a pattern form, got {expr!r}")
    head = expr[0]
    if head == "var":
        if len(expr) != 2 or not isinstance(expr[1], str):
            raise ConstraintSyntaxError(f"(var NAME) expected, got {expr!r}")
        return PatternVar(expr[1])
    if head == "rule":
        if len(expr) < 2:
            raise ConstraintSyntaxError("(rule INDEX CHILD*) expected")
        index = _parse_index(expr[1], "(rule ...)")
        children = tuple(_parse_pattern(c) for c in expr[2:]) or None
        return ConcreteRule(index, children)
    if head == "domain":
        if len(expr) < 2 or not isinstance(expr[1], list) or not expr[1]:
            raise ConstraintSyntaxError("(domain (INDEX+) CHILD*) expected")
        domain = frozenset(_parse_index(a, "(domain ...)") for a in expr[1])
        children = tuple(_parse_pattern(c) for c in expr[2:]) or None
        return DomainMember(domain, children)
    raise ConstraintSyntaxError(f"unknown pattern form {head!r}")


def parse_constraint(text: str) -> Constraint:
    """Parse one constraint s-expression."""
    expr = _read_sexpr(text)
    if not isinstance(expr, list) or not expr:
        raise ConstraintSyntaxError(f"expected a constraint form, got {text!r}")
    head = expr[0]
    if head == "forbidden":
        if len(expr) != 2:
            raise ConstraintSyntaxError("(forbidden PATTERN) expected")
        return Forbidden(_parse_pattern(expr[1]))
    if head == "ordered":
        if len(expr) != 3 or not isinstance(expr[2], list):
            raise ConstraintSyntaxError("(ordered PATTERN (VAR+)) expected")
        variables = []
        for atom in expr[2]:
            if not isinstance(atom, str):
                raise ConstraintSyntaxError(f"expected a variable name, got {atom!r}")
            variables.append(atom)
        try:
            return Ordered(_parse_pattern(expr[1]), tuple(variables))
        except ValueError as exc:
            raise ConstraintSyntaxError(str(exc)) from None
    raise ConstraintSyntaxError(f"unknown constraint form {head!r}")
