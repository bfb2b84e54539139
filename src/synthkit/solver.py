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

A uniform tree's shape is fixed, so each constraint is posted once per tree
as a *site* at every position where its pattern can still match.  Posting
is the one walk of the pattern over the tree, and it compiles the site into
a form that reads hole rules alone: the holes the match inspects, with the
rules each pattern node accepts, and for each subtree bound to a variable
that a violation needs decided, its holes in preorder and a text template
with one slot per hole.  Formatting a template with its holes' rules gives
exactly the subtree's serialized text, so no check builds a tree.
Propagation is event-driven: a call re-checks only the sites watching a
hole that lost a rule since the previous call, decides whether the pattern
matches from the watched domains, and formats the bound texts from the
decided holes.  The strength is still singleton lookahead per hole: a rule
is dropped when fixing the hole to it makes some constraint violated in
every completion.  Propagation only ever drops rules that no satisfying
program uses.  A site no completion can match, or whose outcome turns on
at most one undecided hole, is then settled; propagation records the
others as open.  After one propagation a search walks a uniform tree's
assignments as choice tuples over :meth:`~SolverState.hole_paths`, and
:meth:`~SolverState.choice_tests` (grouped by the last position a site
reads, to test prefixes) or :meth:`~SolverState.choice_test` (all at
once) decides the open sites from the chosen rules in place.  So no
search builds a program that breaks a constraint, or calls
:func:`~synthkit.constraints.check_program`, the ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

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

    ``watched`` lists the holes a match here inspects, each with the rules
    its pattern node accepts, or ``None`` for a hole inside a bound subtree.
    ``bound`` holds ``(holes, template)`` for every occurrence of a
    variable whose subtree a violation needs decided: a repeated variable,
    or one an ``ordered`` constraint compares.  ``holes`` are the paths of
    the subtree's uniform holes in preorder, and ``template`` is a
    :meth:`str.format` string with one ``{}`` per hole, in which a fixed
    rule node is written literally: formatted with the holes' rules, it is
    exactly :func:`~synthkit.nodes.serialize_node` of the decided subtree.
    ``repeats`` pairs each later occurrence of a repeated variable with its
    first, and ``compared`` lists the first occurrence of each variable an
    ``ordered`` constraint compares, in its order (``None`` for
    ``forbidden``), all as indices into ``bound``.
    """

    watched: tuple[tuple[Path, Optional[frozenset[int]]], ...]
    bound: tuple[tuple[tuple[Path, ...], str], ...]
    repeats: tuple[tuple[int, int], ...]
    compared: tuple[int, ...] | None

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


def _post_site(constraint: Constraint, node: Node, path: Path) -> _Site | None:
    """The site of a constraint at a position, or None if it can never match there.

    This is the one walk of the pattern over the tree: rule nodes are
    matched here once, a repeated variable bound to subtrees of different
    shapes never matches, and the site keeps only what a later check reads.
    """
    watched: list[tuple[Path, Optional[frozenset[int]]]] = []
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
            watched.append((at, accepted))
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
    names = [name for name, _, _ in occurrences]
    decided = {name for name in names if names.count(name) > 1}
    if isinstance(constraint, Ordered):
        decided.update(constraint.variables)
    bound = []
    # The index into ``bound`` and the shape of each variable's first occurrence.
    first: dict[str, tuple[int, tuple]] = {}
    repeats = []
    for name, at, sub in occurrences:
        if name in decided:
            holes: list[Path] = []
            template = _template(sub, at, holes)
            watched.extend((hole, None) for hole in holes)
            if name not in first:
                first[name] = len(bound), _shape(sub)
            elif first[name][1] == _shape(sub):
                repeats.append((first[name][0], len(bound)))
            else:
                return None
            bound.append((tuple(holes), template))
    compared = None
    if isinstance(constraint, Ordered):
        compared = tuple(first[name][0] for name in constraint.variables)
    return _Site(tuple(watched), tuple(bound), tuple(repeats), compared)


def _shape(node: Node) -> tuple:
    """The tree's structure with its rules left out."""
    return tuple(_shape(child) for child in node.children)


def _template(node: Node, path: Path, holes: list[Path]) -> str:
    """The serialization template of a uniform subtree, appending the paths
    of its uniform holes in preorder: one ``{}`` per hole, a rule node's
    index written literally, and braces doubled."""
    if isinstance(node, UniformHole):
        holes.append(path)
        head = "{}"
    else:
        head = str(node.rule)
    if not node.children:
        return head
    children = ",".join(
        _template(child, path + (i,), holes) for i, child in enumerate(node.children)
    )
    return f"{head}{{{{{children}}}}}"


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
    decided and materialize as rule nodes.

    Each constraint is posted once at every position where its pattern can
    still match; propagation re-checks only the sites that watch a hole
    which lost a rule since the previous call.
    """

    def __init__(self, grammar: Grammar, tree: Node, constraints: Iterable[Constraint] = ()):
        self.grammar = grammar
        self.root = tree
        self.constraints = tuple(constraints)
        self._domains: dict[Path, tuple[int, ...]] = {
            path: tuple(sorted(node.domain))
            for path, node in _positions(tree, ())
            if isinstance(node, UniformHole)
        }
        # (hole, its domain before the change), one entry per change.
        self._trail: list[tuple[Path, tuple[int, ...]]] = []
        # Checkpoints that can still be restored, oldest first; restoring
        # one drops every checkpoint taken after it.
        self._live: list[Checkpoint] = []
        self._sites: list[_Site] = []
        self._watchers: dict[Path, list[int]] = {}
        # Sites that propagation left open, their outcome turning on two or more holes.
        self._open: set[int] = set()
        # Trail prefix whose changes propagation has seen; None until the
        # first call, which checks every site.
        self._checked: int | None = None
        for constraint in self.constraints:
            for path, node in _positions(tree, ()):
                site = _post_site(constraint, node, path)
                if site is not None:
                    for hole, _ in site.watched:
                        self._watchers.setdefault(hole, []).append(len(self._sites))
                    self._sites.append(site)

    # -- domains and the trail -------------------------------------------

    def hole_paths(self) -> list[Path]:
        return list(self._domains)

    def domain(self, path: Path) -> tuple[int, ...]:
        """The hole's remaining rules, ascending: the order bfs and dfs try them in."""
        return self._domains[path]

    def _set(self, path: Path, domain: tuple[int, ...]) -> None:
        """Replace a hole's domain, logging the previous one on the trail."""
        self._trail.append((path, self._domains[path]))
        self._domains[path] = domain

    def remove(self, path: Path, rule: int) -> None:
        domain = self._domains[path]
        if rule not in domain:
            raise KeyError(rule)
        self._set(path, tuple(r for r in domain if r != rule))

    def assign(self, path: Path, rule: int) -> None:
        """Shrink a hole's domain to one rule, or to nothing if the rule is absent."""
        domain = self._domains[path]
        if domain != (rule,):
            self._set(path, (rule,) if rule in domain else ())

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
            path, previous = self._trail.pop()
            self._domains[path] = previous
            # A site settled on the narrower domain may be open again.
            self._open.update(self._watchers.get(path, ()))
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
        domain = self._domains[path]
        if len(domain) == 1:
            return RuleNode(domain[0], children)
        return UniformHole(frozenset(domain), children)

    # -- propagation ---------------------------------------------------------

    def propagate(self) -> bool:
        """Filter hole domains to a fixed point; False means wiped out.

        A rule is removed from a hole when fixing the hole to it yields a
        definite constraint violation, i.e. one present in every completion
        of the remaining holes.  Only sites watching a hole that lost a
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
            # Every change not yet seen wakes the sites watching its hole;
            # the site that just made it is already at its fixed point.
            while read < len(trail):
                path = trail[read][0]
                read += 1
                if not domains[path]:
                    return False
                for index in watchers.get(path, ()):
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
        while it is undecided and its pattern node does not accept its
        whole domain.  With no blocking hole the pattern matches in every
        completion, so only the bound subtrees are checked, and a violation
        there is a wipeout.  With one, a rule its pattern node
        does not accept stays without a check and every other rule is
        tried, the bound texts read once when the hole is a pattern node's;
        either way no completion breaks the site once the hole is pruned.
        With two or more, no single choice can complete a violation, so
        there is nothing to prune and the site stays open.
        """
        domains = self._domains
        blockers = []
        for hole, accepted in site.watched:
            domain = domains[hole]
            if accepted is not None and accepted.isdisjoint(domain):
                return False
            if len(domain) > 1 and (accepted is None or not accepted.issuperset(domain)):
                blockers.append((hole, accepted))
        if len(blockers) > 1:
            return True
        if not blockers:
            return None if self._site_violated(site, None, None) else False
        [(blocking, accepts)] = blockers
        domain = domains[blocking]
        if accepts is None:
            kept = tuple(r for r in domain if not self._site_violated(site, blocking, r))
        elif self._site_violated(site, None, None):
            # No bound text reads a pattern node's hole, so either every
            # rule the node accepts completes a violation or none does.
            kept = tuple(r for r in domain if r not in accepts)
        else:
            return False
        if len(kept) < len(domain):
            self._set(blocking, kept)
        return False if kept else None

    def _site_violated(self, site: _Site, blocking: Path | None, rule: int | None) -> bool:
        """Does a site whose pattern matches break its constraint, with the
        ``blocking`` hole, if any, decided to ``rule``?

        Every other hole of a bound subtree is decided, so each bound text
        is its template formatted with the holes' single rules; no tree is
        built.
        """
        return site.violated(self._bound_texts(site, blocking, rule))

    def _bound_texts(self, site: _Site, blocking: Path | None, rule: int | None) -> list[str]:
        """The serialized bound subtrees of a site, in the order of its
        ``bound``, with ``blocking`` decided to ``rule``."""
        domains = self._domains
        return [
            template.format(*[rule if hole == blocking else domains[hole][0] for hole in holes])
            for holes, template in site.bound
        ]

    # -- complete assignments --------------------------------------------------

    def choice_tests(
        self, rules: Sequence[Sequence[int]]
    ) -> list[tuple[int, Callable[[tuple], bool]]]:
        """Tests of choice tuples against the sites :meth:`propagate` left
        open, one per tuple position where some open site completes,
        ascending by position.

        Holes are numbered in the preorder of :meth:`hole_paths`, and a
        tuple decides hole ``i`` to ``rules[i][choices[i]]``.  The open
        sites are grouped by the last position they read, and ``(k, test)``
        decides every site of the group at ``k`` from the tuple's first
        ``k + 1`` positions, so a prefix that fails rules out every tuple
        extending it.  No completion breaks a settled site, and no site was
        posted where no assignment matches, so after propagation a tuple
        passes every test exactly when its program satisfies
        :func:`~synthkit.constraints.check_program`.  Before the first
        propagation no site is open.
        """
        groups: dict[int, list] = {}
        for last, compiled in self._compiled_sites():
            groups.setdefault(last, []).append(compiled)
        return [(last, _tuple_test(groups[last], rules)) for last in sorted(groups)]

    def choice_test(self, rules: Sequence[Sequence[int]]) -> Callable[[tuple], bool] | None:
        """One test of complete choice tuples against every open site; ``None`` if none."""
        sites = [compiled for _, compiled in self._compiled_sites()]
        return _tuple_test(sites, rules) if sites else None

    def _compiled_sites(self) -> Iterator[tuple[int, tuple]]:
        """Each open site in posting order, with the last position it reads, its
        pattern-node positions and accepted rules, its bound positions and templates."""
        position = {path: i for i, path in enumerate(self._domains)}
        for site in map(self._sites.__getitem__, sorted(self._open)):
            yield max(position[hole] for hole, _ in site.watched), (
                site,
                tuple(
                    (position[hole], accepted)
                    for hole, accepted in site.watched
                    if accepted is not None
                ),
                tuple(
                    (tuple(position[hole] for hole in holes), template)
                    for holes, template in site.bound
                ),
            )


def _tuple_test(sites: list, rules: Sequence[Sequence[int]]) -> Callable[[tuple], bool]:
    """A test of choice tuples against compiled sites.

    A site's pattern matches when each watched hole's rule is one its
    pattern node accepts; its bound texts are then its templates over the
    holes' rules, and :meth:`_Site.violated` decides it, as propagation
    does.
    """

    def passes(choices: tuple) -> bool:
        for site, tests, bound in sites:
            if all(rules[i][choices[i]] in accepted for i, accepted in tests) and site.violated(
                [
                    template.format(*[rules[i][choices[i]] for i in holes])
                    for holes, template in bound
                ]
            ):
                return False
        return True

    return passes
