"""Shape splitting and constraint propagation over uniform trees.

:func:`split_first_hole` is the one splitting primitive: it replaces a
partial program's leftmost plain hole with one uniform hole per same-shape
rule class, and returns exactly the pieces within the search's depth and
size bounds.  :func:`decompose` folds the same split over every plain hole.
The classes of a domain, each with its full-domain child holes, come from
the grammar's table (:meth:`~synthkit.grammar.Grammar.shape_classes`).
A split works on a :class:`Surveyed` tree, which carries the paths of its
plain holes in preorder, its node count and its depth; every piece gets its
own survey from its parent's without a walk, so a search that queues
surveyed trees walks no partial tree after building it, and a piece is
uniform exactly when it has no holes left.  A bare tree is surveyed once.
A :class:`SolverState` then owns the mutable hole domains of one uniform tree:
:meth:`~SolverState.propagate` filters domains to a fixed point under the
active constraints.  Domains are immutable ascending tuples, and every
change logs the hole's previous domain on a trail, so a LIFO restore puts
each changed domain back in one step.

A state numbers its tree's holes once, in the preorder of
:meth:`~SolverState.hole_paths`: domains, trail, watchers and sites all
use those numbers, and only the public methods take paths.
A uniform tree's shape is fixed, so each constraint is posted once per tree
as a *site* at every position where its pattern can still match.  Posting
is the one walk of the pattern over the tree, and it compiles the site to
hole numbers: the holes the match inspects, with the rules each pattern
node accepts; for each subtree bound to a variable that a violation needs
decided, its holes in preorder and a text template with one slot per hole;
and the last hole the site reads.  Formatting a template with its holes'
rules gives exactly the subtree's serialized text, so no check builds a
tree.  :func:`_tuple_test` reads a compiled site on a choice tuple, which
gives hole ``i`` the rule ``choices[i]`` indexes in that hole's rule
sequence.  A *local* site, whose pattern reads only its own node's hole
and binds only whole children of it, can also be decided on the texts of
its node's children's programs: :func:`_product_mask` decides it over the
product of those texts, in C where it compares two.
Propagation is event-driven: a call re-checks only the sites reading a
hole that lost a rule since the previous call, and decides each with the
tuple test over the current domains, every decided hole at its only rule.
The strength is still singleton lookahead per hole: a rule
is dropped when fixing the hole to it makes some constraint violated in
every completion.  Propagation only ever drops rules that no satisfying
program uses.  A site no completion can match, or whose outcome turns on
at most one undecided hole, is then settled; propagation records the
others as open.  After one propagation a search walks a uniform tree's
assignments as choice tuples over the same numbering, and
:meth:`~SolverState.choice_tests` (grouped by the last hole a site
reads, to test prefixes) or :meth:`~SolverState.choice_test` (all at
once) hands the open sites to the same tuple test.  Both first check an
open ``ordered`` site against the least and greatest texts its compared
subtrees can read (:func:`_text_bounds`): the site is dropped when no
completion breaks it, and tested on its pattern holes alone when every
match breaks it.  That check changes no domain.  So no
search builds a program that breaks a constraint, or calls
:func:`~synthkit.constraints.check_program`, the ground truth.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .constraints import (
    ConcreteRule,
    Constraint,
    Ordered,
    Pattern,
    PatternVar,
    misordered,
)
from .errors import SolverStateError
from .grammar import Grammar
from .nodes import Hole, Node, RuleNode, UniformHole

Path = tuple[int, ...]
# A test of choice tuples: True when no site it holds is violated.
TupleTest = Callable[[Sequence[int]], bool]


class Surveyed(NamedTuple):
    """A tree with its survey: the paths of its plain holes in preorder,
    its node count and its depth.

    The tree is uniform exactly when ``holes`` is empty.
    """

    tree: Node
    holes: tuple[Path, ...]
    size: int
    depth: int


def survey(tree: Node) -> Surveyed:
    """The tree with its survey, from one walk."""
    holes: list[Path] = []
    size, height = _survey(tree, (), holes)
    return Surveyed(tree, tuple(holes), size, height)


def _survey(node: Node, path: Path, holes: list[Path]) -> tuple[int, int]:
    """Node count and depth of a subtree; appends its plain holes' paths in preorder."""
    if isinstance(node, Hole):
        holes.append(path)
        return 1, 1
    size, height = 1, 0
    for i, child in enumerate(node.children):
        child_size, child_height = _survey(child, path + (i,), holes)
        size += child_size
        if child_height > height:
            height = child_height
    return size, height + 1


def _replace(node: Node, path: Path, replacement: Node) -> Node:
    """The tree with the subtree at ``path`` replaced."""
    if not path:
        return replacement
    index = path[0]
    children = list(node.children)
    children[index] = _replace(children[index], path[1:], replacement)
    if isinstance(node, RuleNode):
        return RuleNode(node.rule, tuple(children))
    return UniformHole(node.domain, tuple(children))


def _split(
    grammar: Grammar, surveyed: Surveyed, k: int, max_depth: int | None, max_size: int | None
) -> list[Surveyed]:
    """Split the ``k``-th plain hole of a surveyed tree, in preorder.

    The one splitter.  Each piece gets its survey from its parent's without
    a walk: the hole's fresh children take its place in the preorder hole
    list, they add ``len(shape)`` nodes, and they sit one level below the
    hole, at depth ``len(path) + 2``.  A piece beyond a bound is dropped
    before it is built.
    """
    tree, holes, size, height = surveyed
    path = holes[k]
    hole = tree
    for index in path:
        hole = hole.children[index]
    before, after = holes[:k], holes[k + 1 :]
    level = len(path) + 2
    pieces = []
    for replacement in grammar.shape_classes(hole.domain):
        arity = len(replacement.children)
        piece_size = size + arity
        piece_depth = max(height, level) if arity else height
        if max_size is not None and piece_size > max_size:
            continue
        if max_depth is not None and piece_depth > max_depth:
            continue
        children = tuple([path + (i,) for i in range(arity)])
        pieces.append(
            Surveyed(
                _replace(tree, path, replacement),
                before + children + after,
                piece_size,
                piece_depth,
            )
        )
    return pieces


def split_first_hole(
    grammar: Grammar,
    tree: Node | Surveyed,
    max_depth: int | None = None,
    max_size: int | None = None,
) -> list[Node] | list[Surveyed] | None:
    """Replace the leftmost plain hole with one uniform hole per shape class.

    Each piece swaps the hole for a uniform hole over one same-shape class
    of its domain, with fresh full-domain holes as children; the pieces
    denote pairwise disjoint program sets whose union is the tree's set.
    Exactly the pieces within the bounds are returned: a piece's depth is
    at most ``max_depth`` and its node count at most ``max_size``.  Returns
    ``None`` when the tree has no plain hole.

    A bare tree is surveyed once and its pieces come back bare.  A
    :class:`Surveyed` tree is not walked at all, and each of its pieces
    comes back with its own survey.
    """
    if isinstance(tree, Surveyed):
        return _split(grammar, tree, 0, max_depth, max_size) if tree.holes else None
    surveyed = survey(tree)
    if not surveyed.holes:
        return None
    return [piece.tree for piece in _split(grammar, surveyed, 0, max_depth, max_size)]


def decompose(
    grammar: Grammar,
    tree: Node,
    max_depth: int | None = None,
    max_size: int | None = None,
) -> list[Node]:
    """Split every plain hole of a tree into its shape classes.

    A fold of the single-hole split over the tree's plain holes in preorder:
    one tree per combination of per-hole classes, the first hole varying
    slowest, each within ``max_depth`` and ``max_size``.  The fresh children
    the splits add stay plain holes.  A tree without plain holes is returned
    unchanged as a singleton list.
    """
    pieces = [survey(tree)]
    # A split puts the fresh children where its hole was, so the original
    # holes still to split are always the last ``remaining`` of a piece's.
    for remaining in range(len(pieces[0].holes), 0, -1):
        pieces = [
            split
            for piece in pieces
            for split in _split(grammar, piece, len(piece.holes) - remaining, max_depth, max_size)
        ]
    return [piece.tree for piece in pieces]


@dataclass(frozen=True, eq=False)
class Checkpoint:
    """Opaque marker for a solver trail position.

    ``checked`` is how much of the trail propagation had already seen when
    the checkpoint was taken (``None`` before the first propagation), so a
    restore also brings back which holes still await propagation.
    ``level`` is the checkpoint's place on its state's stack of live
    checkpoints.
    """

    trail_length: int
    checked: int | None = None
    level: int = 0


@dataclass(frozen=True)
class _Site:
    """One constraint posted at one position of the uniform tree, compiled
    to be decided from hole rules.

    Holes are numbered in the preorder of :meth:`SolverState.hole_paths`.
    ``pattern`` lists the holes a match here inspects, each with the rules
    its pattern node accepts.  ``bound`` holds ``(holes, template)`` for
    every occurrence of a variable whose subtree a violation needs decided:
    a repeated variable, or one an ``ordered`` constraint compares.
    ``holes`` are the numbers of the subtree's uniform holes in preorder,
    and ``template`` is a :meth:`str.format` string with one ``{}`` per
    hole, in which a fixed rule node is written literally: formatted with
    the holes' rules, it is exactly :func:`~synthkit.nodes.serialize_node`
    of the decided subtree.  ``tails`` holds, per entry of ``bound``, the
    character the template puts right after each hole's slot: ``{`` before
    its children, ``,`` before a sibling, ``}`` closing its parent, or
    ``""`` at the end of the text; :func:`_text_bounds` reads them.
    ``repeats`` pairs each later occurrence of a
    repeated variable with its first, and ``compared`` lists the first
    occurrence of each variable an ``ordered`` constraint compares, in its
    order (``None`` for ``forbidden``), all as indices into ``bound``.
    ``last`` is the highest hole number the site reads, -1 for none.
    ``at`` is the number of the hole the site is posted at, -1 at a rule
    node.  ``children`` marks a *local* site: one whose pattern reads only
    the hole ``at``, which has children, and each of whose ``bound``
    entries is one whole child subtree of that hole.  It then holds, per
    entry of ``bound``, the position of that child among the node's
    children (:func:`_product_mask` reads them); it is ``None`` for any
    other site.
    """

    pattern: tuple[tuple[int, frozenset[int]], ...]
    bound: tuple[tuple[tuple[int, ...], str], ...]
    tails: tuple[tuple[str, ...], ...]
    repeats: tuple[tuple[int, int], ...]
    compared: tuple[int, ...] | None
    last: int
    at: int = -1
    children: tuple[int, ...] | None = None

    def violated(self, texts: Sequence[str]) -> bool:
        """Does a match whose bound subtrees read ``texts``, in the order of
        ``bound``, break the constraint?

        A repeated variable's texts must be equal for the pattern to match
        at all; equal text means equal subtrees, because
        :func:`~synthkit.nodes.parse_node` inverts ``serialize_node``.  A
        ``forbidden`` match is a violation outright, an ``ordered`` one
        compares its texts as :func:`~synthkit.constraints.violated_by` does.
        """
        for first, later in self.repeats:
            if texts[first] != texts[later]:
                return False
        return self.compared is None or misordered([texts[i] for i in self.compared])


# A site every choice tuple violates: its empty pattern always matches and
# it reads no text, so its test fails on the empty prefix.
_VIOLATED = _Site((), (), (), (), None, -1)


def _post_site(
    constraint: Constraint, node: Node, path: Path, number: dict[Path, int]
) -> _Site | None:
    """The site of a constraint at a position, or None if it can never match there.

    ``number`` maps each uniform hole's path to its number.  This is the
    one walk of the pattern over the tree: rule nodes are matched here
    once, a repeated variable bound to subtrees of different shapes never
    matches, and the site keeps only what a later check reads.
    """
    pattern: list[tuple[int, frozenset[int]]] = []
    occurrences: list[tuple[str, Path, Node]] = []

    def walk(p: Pattern, n: Node, at: Path) -> bool:
        if isinstance(p, PatternVar):
            occurrences.append((p.name, at, n))
            return True
        accepted = frozenset((p.rule,)) if isinstance(p, ConcreteRule) else p.domain
        if isinstance(n, RuleNode):
            if n.rule not in accepted:
                return False
        else:
            if n.domain.isdisjoint(accepted):
                return False
            pattern.append((number[at], accepted))
        if p.children is None:
            return True
        if len(p.children) != len(n.children):
            return False
        return all(
            walk(pc, nc, at + (i,))
            for i, (pc, nc) in enumerate(zip(p.children, n.children))
        )

    if not walk(constraint.pattern, node, path):
        return None
    at = number.get(path, -1)
    local = bool(node.children) and [hole for hole, _ in pattern] == [at]
    names = [name for name, _, _ in occurrences]
    decided = {name for name in names if names.count(name) > 1}
    if isinstance(constraint, Ordered):
        decided.update(constraint.variables)
    bound = []
    tails = []
    # The index into ``bound`` and the shape of each variable's first occurrence.
    first: dict[str, tuple[int, tuple]] = {}
    repeats = []
    children = []
    for name, where, sub in occurrences:
        if name in decided:
            holes: list[int] = []
            after: list[str] = []
            template = _template(sub, where, number, holes, after)
            local = local and len(where) == len(path) + 1
            if local:
                children.append(where[-1])
            if name not in first:
                first[name] = len(bound), _shape(sub)
            elif first[name][1] == _shape(sub):
                repeats.append((first[name][0], len(bound)))
            else:
                return None
            bound.append((tuple(holes), template))
            tails.append(tuple(after))
    compared = None
    if isinstance(constraint, Ordered):
        compared = tuple(first[name][0] for name in constraint.variables)
    read = [hole for hole, _ in pattern] + [hole for holes, _ in bound for hole in holes]
    return _Site(
        tuple(pattern), tuple(bound), tuple(tails), tuple(repeats), compared,
        max(read, default=-1), at, tuple(children) if local else None,
    )


def _shape(node: Node) -> tuple:
    """The tree's structure with its rules left out."""
    return tuple(_shape(child) for child in node.children)


def _template(
    node: Node, path: Path, number: dict[Path, int], holes: list[int], tails: list[str],
    tail: str = "",
) -> str:
    """The serialization template of a uniform subtree, appending the
    numbers of its uniform holes in preorder and the character that
    follows each one's slot: one ``{}`` per hole, a rule node's index
    written literally, and braces doubled.  ``tail`` is the character
    after the subtree's own text."""
    if isinstance(node, UniformHole):
        holes.append(number[path])
        tails.append("{" if node.children else tail)
        head = "{}"
    else:
        head = str(node.rule)
    if not node.children:
        return head
    last = len(node.children) - 1
    children = ",".join(
        _template(child, path + (i,), number, holes, tails, "}" if i == last else ",")
        for i, child in enumerate(node.children)
    )
    return f"{head}{{{{{children}}}}}"


def _text_bounds(
    holes: Sequence[int], template: str, tails: Sequence[str], domains: Sequence[Sequence[int]]
) -> tuple[str, str]:
    """The least and greatest texts a bound subtree can read over ``domains``.

    The subtree's shape is fixed, so two of its texts first differ in some
    slot, after equal text before it.  Then the slot's rule followed by
    the character after the slot, ``str(rule) + tail``, orders the two
    texts as the whole texts compare, also when one index is a prefix of
    the other: ``"12{" < "1{"`` but ``"1," < "12,"``.  So the least text
    takes each hole's rule of least key and the greatest text each one's
    rule of greatest key.
    """
    least, greatest = [], []
    for hole, tail in zip(holes, tails):
        keyed = sorted(domains[hole], key=lambda rule: f"{rule}{tail}")
        least.append(keyed[0])
        greatest.append(keyed[-1])
    return template.format(*least), template.format(*greatest)


def _positions(node: Node, path: Path) -> Iterator[tuple[Path, Node]]:
    """Path and node of every position of a uniform tree, in preorder."""
    if isinstance(node, Hole):
        raise ValueError("solver state requires a uniform tree (no plain holes)")
    yield path, node
    for i, child in enumerate(node.children):
        yield from _positions(child, path + (i,))


class SolverState:
    """Backtrackable hole domains for one uniform tree.

    The tree's shape is fixed; the only mutable state is which rules remain
    in each uniform hole's domain, an ascending tuple that is replaced, never
    changed in place.  That ascending order is the order in which bfs and
    dfs try a hole's rules.  Holes whose domain shrinks to one rule count as
    decided and materialize as rule nodes.  Inside the state a hole is its
    number in the preorder of :meth:`hole_paths`; the public methods take
    its path.

    Each constraint is posted once at every position where its pattern can
    still match; propagation re-checks only the sites that read a hole
    which lost a rule since the previous call.
    """

    def __init__(self, grammar: Grammar, tree: Node, constraints: Iterable[Constraint] = ()):
        self.grammar = grammar
        self.root = tree
        self.constraints = tuple(constraints)
        positions = list(_positions(tree, ()))
        holes = [(path, node) for path, node in positions if isinstance(node, UniformHole)]
        # Each hole's number, by path: the one translation from paths.
        self._number: dict[Path, int] = {path: i for i, (path, _) in enumerate(holes)}
        self._domains: list[tuple[int, ...]] = [tuple(sorted(node.domain)) for _, node in holes]
        # (hole, its domain before the change), one entry per change.
        self._trail: list[tuple[int, tuple[int, ...]]] = []
        # Checkpoints that can still be restored, oldest first; restoring
        # one drops every checkpoint taken after it.
        self._live: list[Checkpoint] = []
        self._sites: list[_Site] = []
        # The sites reading each hole.
        self._watchers: list[list[int]] = [[] for _ in holes]
        # Sites that propagation left open, their outcome turning on two or more holes.
        self._open: set[int] = set()
        # Trail prefix whose changes propagation has seen; None until the
        # first call, which checks every site.
        self._checked: int | None = None
        for constraint in self.constraints:
            for path, node in positions:
                site = _post_site(constraint, node, path, self._number)
                if site is not None:
                    bound = [hole for holes, _ in site.bound for hole in holes]
                    for hole in [hole for hole, _ in site.pattern] + bound:
                        self._watchers[hole].append(len(self._sites))
                    self._sites.append(site)

    # -- domains and the trail -------------------------------------------

    def hole_paths(self) -> list[Path]:
        """The uniform holes' paths in preorder, the order that numbers them."""
        return list(self._number)

    def domain(self, path: Path) -> tuple[int, ...]:
        """The hole's remaining rules, ascending: the order bfs and dfs try them in."""
        return self._domains[self._number[path]]

    def _set(self, hole: int, domain: tuple[int, ...]) -> None:
        """Replace a hole's domain, logging the previous one on the trail."""
        self._trail.append((hole, self._domains[hole]))
        self._domains[hole] = domain

    def remove(self, path: Path, rule: int) -> None:
        hole = self._number[path]
        domain = self._domains[hole]
        if rule not in domain:
            raise KeyError(rule)
        self._set(hole, tuple(r for r in domain if r != rule))

    def assign(self, path: Path, rule: int) -> None:
        """Shrink a hole's domain to one rule, or to nothing if the rule is absent."""
        hole = self._number[path]
        domain = self._domains[hole]
        if domain != (rule,):
            self._set(hole, (rule,) if rule in domain else ())

    def save_state(self) -> Checkpoint:
        checkpoint = Checkpoint(len(self._trail), self._checked, len(self._live))
        self._live.append(checkpoint)
        return checkpoint

    def restore_state(self, checkpoint: Checkpoint) -> None:
        """Undo every domain change since ``checkpoint``; it stays restorable.

        Checkpoints nest: restoring one makes every checkpoint taken after
        it stale, and restoring a stale one raises SolverStateError.
        """
        live = self._live
        if checkpoint.level >= len(live) or live[checkpoint.level] is not checkpoint:
            raise SolverStateError(
                "stale checkpoint: an earlier save_state was already restored past it"
            )
        del live[checkpoint.level + 1 :]
        while len(self._trail) > checkpoint.trail_length:
            hole, previous = self._trail.pop()
            self._domains[hole] = previous
            # A site settled on the narrower domain may be open again.
            self._open.update(self._watchers[hole])
        if checkpoint.checked is None or self._checked is None:
            self._checked = None
        else:
            self._checked = min(checkpoint.checked, self._checked)

    # -- materialization ----------------------------------------------------

    def current_tree(self) -> Node:
        """The tree under current domains; singleton domains become rule nodes."""
        return self._materialize(self.root, ())

    def _materialize(self, node: Node, path: Path) -> Node:
        children = tuple(
            self._materialize(child, path + (i,)) for i, child in enumerate(node.children)
        )
        if isinstance(node, RuleNode):
            return RuleNode(node.rule, children)
        domain = self._domains[self._number[path]]
        if len(domain) == 1:
            return RuleNode(domain[0], children)
        return UniformHole(frozenset(domain), children)

    # -- propagation ---------------------------------------------------------

    def propagate(self) -> bool:
        """Filter hole domains to a fixed point; False means wiped out.

        A rule is removed from a hole when fixing the hole to it yields a
        definite constraint violation, i.e. one present in every completion
        of the remaining holes.  Only sites reading a hole that lost a
        rule since the previous call are looked at again.  A site checked
        here is settled, broken by no completion, or left open.
        """
        domains, trail, watchers = self._domains, self._trail, self._watchers
        if self._checked is None:
            dirty = list(range(len(self._sites)))
            read = 0
        else:
            dirty = []
            read = self._checked
        queued = set(dirty)
        current = None
        open_sites = self._open
        while True:
            # Every change not yet seen wakes the sites reading its hole;
            # the site that just made it is already at its fixed point.
            while read < len(trail):
                hole = trail[read][0]
                read += 1
                if not domains[hole]:
                    return False
                for index in watchers[hole]:
                    if index != current and index not in queued:
                        queued.add(index)
                        dirty.append(index)
            if not dirty:
                break
            current = dirty.pop()
            queued.discard(current)
            is_open = self._filter_site(self._sites[current])
            if is_open is None:
                return False
            (open_sites.add if is_open else open_sites.discard)(current)
        self._checked = len(trail)
        return True

    def _filter_site(self, site: _Site) -> bool | None:
        """Prune what one site forces: ``None`` when it is violated
        outright, else whether it stays open.

        A site no completion matches is settled.  A hole blocks the site
        while it is undecided and its pattern node, if any, does not accept
        its whole domain.  With two or more blocking holes no single choice
        can complete a violation, so there is nothing to prune and the site
        stays open.  Otherwise the site is decided by :func:`_tuple_test`
        on the tuple that takes every hole's first rule, which is its only
        one or one its pattern node accepts: with no blocking hole a
        violation there is a wipeout, and with one each of its rules is
        tried in that tuple and a rule that completes a violation is
        pruned, so no completion breaks the site afterwards.
        """
        domains = self._domains
        blockers = []
        for hole, accepted in site.pattern:
            domain = domains[hole]
            if accepted.isdisjoint(domain):
                return False
            if len(domain) > 1 and not accepted.issuperset(domain):
                blockers.append(hole)
        blockers += [hole for holes, _ in site.bound for hole in holes if len(domains[hole]) > 1]
        if len(blockers) > 1:
            return True
        passes = _tuple_test((site,), domains)
        choices = [0] * len(domains)
        if not blockers:
            return False if passes(choices) else None
        [blocking] = blockers
        domain = domains[blocking]
        kept = []
        for j, rule in enumerate(domain):
            choices[blocking] = j
            if passes(choices):
                kept.append(rule)
        if len(kept) < len(domain):
            self._set(blocking, tuple(kept))
        return False if kept else None

    # -- complete assignments --------------------------------------------------

    def _tested_sites(self) -> list[_Site]:
        """The sites a choice tuple must answer for: the open ones, each
        as a tuple test should read it.

        An ``ordered`` site is first checked against the least and
        greatest text each compared subtree can read over the propagated
        domains (:func:`_text_bounds`).  When every compared text's
        greatest is at most the next one's least, no completion breaks the
        site and it is left out.  When some text's least exceeds the next
        one's greatest and no variable repeats, every match is a violation:
        the site reads its pattern holes alone, as a ``forbidden`` site
        would, and completes at the last of them; it keeps its node, and
        stays local if it was, as a site that reads no text.  Any other
        site is kept as it is.  When such sites with one pattern hole each accept every
        rule of that hole between them, no tuple passes, and the one site
        left is :data:`_VIOLATED`.  No domain changes, and only
        :attr:`_open` is read, so before the first propagation there is
        nothing to test.
        """
        domains = self._domains
        tested = []
        # The rules each hole may not take, by the sites that read it alone.
        excluded: dict[int, set[int]] = {}
        for index in sorted(self._open):
            site = self._sites[index]
            if site.compared is not None:
                texts = [
                    _text_bounds(*site.bound[k], site.tails[k], domains) for k in site.compared
                ]
                pairs = list(zip(texts, texts[1:]))
                if all(greatest <= least for (_, greatest), (least, _) in pairs):
                    continue
                if not site.repeats and any(
                    least > greatest for (least, _), (_, greatest) in pairs
                ):
                    pattern = site.pattern
                    last = max((hole for hole, _ in pattern), default=-1)
                    children = None if site.children is None else ()
                    site = _Site(pattern, (), (), (), None, last, site.at, children)
                    if len(pattern) == 1:
                        [(hole, accepted)] = pattern
                        rules = excluded.setdefault(hole, set())
                        rules.update(accepted)
                        if rules.issuperset(domains[hole]):
                            return [_VIOLATED]
            tested.append(site)
        return tested

    def choice_tests(
        self, rules: Sequence[Sequence[int]], sites: Sequence[_Site] | None = None
    ) -> list[tuple[int, TupleTest]]:
        """Tests of choice tuples against the sites left to test
        (:meth:`_tested_sites`, or ``sites`` when a caller already has
        them), one per tuple position where some of them complete,
        ascending by position.

        A tuple decides hole ``i`` to ``rules[i][choices[i]]``.  The sites
        are grouped by the last position they read, and ``(k, test)``
        decides every site of the group at ``k`` from the tuple's first
        ``k + 1`` positions, so a prefix that fails rules out every tuple
        extending it.  A site that every match violates reads only its
        pattern holes, so its group sits at the last of them; a tree no
        tuple passes has one group, at position -1, whose test fails on the
        empty prefix.  No completion breaks a settled site or one left out
        by its text bounds, and no site was posted where no assignment
        matches, so after propagation a tuple passes every test exactly
        when its program satisfies
        :func:`~synthkit.constraints.check_program`.  Before the first
        propagation no site is open.
        """
        groups: dict[int, list[_Site]] = {}
        for site in self._tested_sites() if sites is None else sites:
            groups.setdefault(site.last, []).append(site)
        return [(last, _tuple_test(groups[last], rules)) for last in sorted(groups)]

    def choice_test(
        self, rules: Sequence[Sequence[int]], sites: Sequence[_Site] | None = None
    ) -> TupleTest | None:
        """One test of complete choice tuples against every site left to
        test (:meth:`_tested_sites`, or ``sites``); ``None`` if none."""
        if sites is None:
            sites = self._tested_sites()
        return _tuple_test(sites, rules) if sites else None


def _tuple_test(sites: Sequence[_Site], rules: Sequence[Sequence[int]]) -> TupleTest:
    """A test of choice tuples against compiled sites: the one reader of a
    site, for propagation and the walks alike.

    A tuple decides hole ``i`` to ``rules[i][choices[i]]``.  A site's
    pattern matches when each of its pattern holes' rules is one its node
    accepts; its bound texts are then its templates over the holes' rules,
    and :meth:`_Site.violated` decides it.  The test passes when no site
    is violated.
    """

    def passes(choices: Sequence[int]) -> bool:
        for site in sites:
            if all(rules[i][choices[i]] in accepted for i, accepted in site.pattern):
                texts = [
                    template.format(*[rules[i][choices[i]] for i in holes])
                    for holes, template in site.bound
                ]
                if site.violated(texts):
                    return False
        return True

    return passes


def _product_mask(site: _Site, columns: Sequence[Sequence[str]]) -> Iterator[bool]:
    """Whether each tuple of ``itertools.product(*columns)`` passes a
    local site, in the product's order: the other reader of a site, for
    the walks that take a node's programs as one product over its
    children's.

    ``columns[k]`` holds the texts of the programs of the node's ``k``-th
    child, so a tuple holds one text per child, and the site reads the
    ones at its :attr:`_Site.children`.  A site that reads no text breaks
    every tuple.  An ``ordered`` site that compares two variables, none
    repeated, and a ``forbidden`` one whose one variable repeats once
    compare two texts with :func:`operator.le` and :func:`operator.ne` in
    C; any other site, such as an ``ordered`` one that lists a variable
    twice, asks :meth:`_Site.violated` per tuple.
    """
    picks = site.children
    if not picks:
        return itertools.repeat(False, math.prod(map(len, columns)))
    tuples = itertools.product(*columns)
    if site.compared is None and len(picks) == 2:
        compare = operator.ne
    elif site.compared is not None and len(site.compared) == 2 and not site.repeats:
        compare = operator.le
        picks = tuple(picks[k] for k in site.compared)
    else:
        return (not site.violated([texts[k] for k in site.children]) for texts in tuples)
    if picks != (0, 1) or len(columns) != 2:
        tuples = map(operator.itemgetter(*picks), tuples)
    return itertools.starmap(compare, tuples)
