"""Program ASTs: decided rule nodes plus holes whose rule is still open.

A program is a tree of :class:`RuleNode` values, each carrying the 1-based
index of the grammar rule it applies.  Undecided positions are either a
:class:`Hole` (any rule of one nonterminal may still be chosen, subtree
structure unknown) or a :class:`UniformHole` (the candidate rules all share
one shape, so the children already exist).

The canonical text form of a complete program is the rule index of the root
followed, for non-leaves, by the child serializations in braces, e.g.
``4{3,4{1,3}}``.  No whitespace, ASCII digits only.

A :class:`RuleNode` is a named tuple ``(rule, children)`` with no instance
dict, so reading ``.rule`` or ``.children`` is a C field read.  Public
``RuleNode(rule, children=())`` turns the children into a tuple and checks
the rule in :meth:`RuleNode.__post_init__`.  The searches build their
programs through :data:`_new_node` instead: ``tuple.__new__`` bound to
``RuleNode``, called on one ``(rule, children)`` pair.  It runs no Python
code, so ``map(_new_node, zip(rules, children))`` builds a run of programs
entirely in C; it skips the checks because its callers take the rule from
the grammar and pass the children as a tuple already.  Its nodes are
ordinary ``RuleNode`` values: equal, hashed, frozen and pickled like ones
built publicly, and the hash is ``hash((rule, children))``.

Being a tuple is the one thing a ``RuleNode`` shows that a plain record
would not: it equals the pair ``(rule, children)``, has ``len`` 2, unpacks
into its two fields and sorts like a tuple.  It never equals a
:class:`Hole` or :class:`UniformHole`.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from dataclasses import FrozenInstanceError, dataclass
from typing import Iterable, Iterator, Union

from .errors import IncompleteTreeError, NodeParseError

Node = Union["RuleNode", "UniformHole", "Hole"]


class RuleNode(namedtuple("RuleNode", "rule children")):
    """AST node fixed to one grammar rule, with one subtree per child slot."""

    __slots__ = ()

    rule: int
    children: tuple[Node, ...]

    def __new__(cls, rule: int, children: Iterable[Node] = ()) -> RuleNode:
        node = tuple.__new__(cls, (rule, tuple(children)))
        node.__post_init__()
        return node

    def __post_init__(self):
        if self.rule < 1:
            raise ValueError(f"rule indices are 1-based, got {self.rule}")

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


# A RuleNode from one (rule, children) pair, without __post_init__'s checks:
# for a rule taken from the grammar and children that are already a tuple.
_new_node = functools.partial(tuple.__new__, RuleNode)


@dataclass(frozen=True)
class UniformHole:
    """Undecided node whose candidate rules all share one shape.

    Because every rule in the domain has the same child nonterminals, the
    children can be materialized before the rule itself is decided.
    """

    domain: frozenset[int]
    children: tuple[Node, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "domain", frozenset(self.domain))
        object.__setattr__(self, "children", tuple(self.children))
        if not self.domain:
            raise ValueError("hole domain must be non-empty")


@dataclass(frozen=True)
class Hole:
    """Undecided node with no children yet; candidate rules share a nonterminal."""

    domain: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "domain", frozenset(self.domain))
        if not self.domain:
            raise ValueError("hole domain must be non-empty")


def depth(node: Node) -> int:
    """Depth of the tree; a single node (hole or leaf) has depth 1."""
    if isinstance(node, Hole):
        return 1
    if not node.children:
        return 1
    return 1 + max(depth(child) for child in node.children)


def node_count(node: Node) -> int:
    """Number of nodes in the tree, counting each hole as one node."""
    if isinstance(node, Hole):
        return 1
    return 1 + sum(node_count(child) for child in node.children)


def is_complete(node: Node) -> bool:
    """True iff the tree contains no hole of either kind."""
    if isinstance(node, (Hole, UniformHole)):
        return False
    return all(is_complete(child) for child in node.children)


def is_uniform(node: Node) -> bool:
    """True iff the tree is made of rule nodes and uniform holes only.

    A uniform tree has a fixed shape: the programs it denotes are exactly
    the assignments of one domain rule to each uniform hole.
    """
    if isinstance(node, Hole):
        return False
    if isinstance(node, RuleNode) or isinstance(node, UniformHole):
        return all(is_uniform(child) for child in node.children)
    return False


def subtrees(node: Node) -> Iterator[Node]:
    """All subtrees of ``node`` in preorder, including ``node`` itself."""
    yield node
    if not isinstance(node, Hole):
        for child in node.children:
            yield from subtrees(child)


def serialize_node(node: Node) -> str:
    """Canonical text form of a complete program.

    Raises :class:`IncompleteTreeError` if the tree contains a hole.
    """
    if not isinstance(node, RuleNode):
        raise IncompleteTreeError("cannot serialize a tree that still contains holes")
    if not node.children:
        return str(node.rule)
    return text_format(node.rule).format(",".join(serialize_node(c) for c in node.children))


def text_format(rule: int) -> str:
    """The :meth:`str.format` string of a node at ``rule`` with children:
    formatted with its children's texts joined by commas, it gives the
    node's :func:`serialize_node` text, such as ``"4{1,2}"``."""
    return f"{rule}{{{{{{}}}}}}"


def parse_node(text: str) -> RuleNode:
    """Inverse of :func:`serialize_node`.

    Raises :class:`NodeParseError` with the offending position on malformed
    input; round-trips structurally: ``parse_node(serialize_node(n)) == n``.
    """
    pos = 0

    def parse_index() -> int:
        nonlocal pos
        start = pos
        while pos < len(text) and text[pos].isdigit():
            pos += 1
        if pos == start:
            raise NodeParseError("expected a rule index", pos)
        return int(text[start:pos])

    def parse_tree() -> RuleNode:
        nonlocal pos
        index = parse_index()
        if pos < len(text) and text[pos] == "{":
            pos += 1
            children = [parse_tree()]
            while pos < len(text) and text[pos] == ",":
                pos += 1
                children.append(parse_tree())
            if pos >= len(text) or text[pos] != "}":
                raise NodeParseError("expected ',' or '}'", pos)
            pos += 1
            return RuleNode(index, tuple(children))
        return RuleNode(index)

    tree = parse_tree()
    if pos != len(text):
        raise NodeParseError("trailing input after program", pos)
    return tree
