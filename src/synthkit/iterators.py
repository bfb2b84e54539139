"""Program enumeration: top-down priority-queue search and bottom-up banks.

Top-down iterators keep a priority queue of trees (lower value dequeues
first, ties by insertion order).  Each queued tree carries its survey
(:class:`~synthkit.solver.Surveyed`): the paths of its plain holes in
preorder, its node count and its depth.  Dequeuing a tree that still has
plain holes splits its leftmost one into same-shape classes with
:func:`~synthkit.solver.split_first_hole`, which keeps exactly the pieces
within ``max_depth`` and ``max_size`` and derives each piece's survey from
the tree's, so no queued tree is walked again: a piece is uniform exactly
when it has no holes left, and bfs keys it by its carried depth.
A queue item is a plain tuple ``(key, tie, programs, program, vector)``: a
partial tree has no stream and its survey in the program slot, and a
uniform tree carries its stream and the next program it will emit.
Dequeuing a uniform tree emits that program, peeks the next with one
``next`` on the stream and re-enqueues the tree until its programs are
exhausted; the re-enqueue waits for the next dequeue, which does both with
one :func:`heapq.heappushpop`.  A bfs or dfs search with no problem,
budget or deadline skips that round trip for a tree whose re-enqueue key
is strictly below the head of the queue, and emits the rest of its
programs at once (:meth:`TopDownIterator._run`).  A fresh tree's key comes
from :func:`priority_function`, except an mlfs uniform tree's, which is
its first program's; the search keys a re-enqueued tree itself, by the
same rules, and the discipline differs per iterator:

* ``bfs``   -- fresh trees are keyed by (depth, insertion counter): FIFO
  within a depth layer; a re-enqueued uniform tree keeps its position, so
  programs come out in non-decreasing depth.
* ``dfs``   -- fresh trees go to ``parent_value - 1``; re-enqueued trees
  return to their parent's value, or to ``parent_value - 1`` in the
  over-shapes variant, which drains each uniform tree contiguously.
* ``mlfs``  -- most likely first: a tree's priority is the negated best
  log-probability it can still reach, and uniform trees enumerate their
  programs best-first by a key that rounding can set a few ulps off the
  emitted log-probability, so emitted probabilities never increase by more
  than that rounding.

Every queued tree is made of holes only: the root is the start symbol's
hole, and a split replaces a hole with a uniform hole over full-domain
holes.  So a uniform tree's nodes are exactly its holes, in the preorder of
:meth:`~synthkit.solver.SolverState.hole_paths`, its shape is fixed, and
consecutive programs of one tree differ only in a few holes.  Holes are
numbered once, in that preorder: the solver state's domains and constraint
tests, the walks and the builder all index a choice tuple the same way, so
the subtree at hole ``i`` with ``n`` nodes owns ``choices[i:i+n]``, and the
lexicographic order of the tuples runs the root's rule slowest, then each
child's part in turn, each in that child's own lexicographic order.

A walk builds a uniform tree's programs in one of two ways.  The tuple
builder (:func:`_choice_builder`), compiled once per tree, builds the
program of one tuple; every subtree below the root reuses what it built on
its part before -- a leaf from a table indexed by its one choice, a larger
subtree from a bounded cache keyed by its part -- so programs share their
unchanged subtrees.  A listing (:func:`_listing`) gives all the programs
of one subtree in its lexicographic order, in one recursive walk that
builds only the columns its caller asks for: programs, vectors,
log-probabilities, texts, and the flags of the constraint sites decided on
those texts.  Each walk keeps one record of its root's children
(:func:`_children`): each child's first hole, program count and stride,
which pick the child's program of any lexicographic index of the tree.
The listings, tables and caches die with the tree's walk.

bfs and dfs walk the tuples in lexicographic order over the holes'
ascending domains.  A tree whose constraint sites left to test are all
local (:class:`~synthkit.solver._Site`: each reads only its node's rule
and whole children of it), and whose root's children each have at most
``_CACHED_PARTS`` programs, is one :func:`itertools.product` over its
children's listed programs, filtered by the sites decided in C on the
children's texts, which yields the same sequence without building from
tuples (:func:`_product_programs`).  Its first passing program is built
alone by the builder, and the children are listed only when the walk is
advanced past it: a queued tree that has not emitted holds that one
program, and one that has holds at most ``_CACHED_PARTS`` programs (and
vectors and texts) per child of its root, however many trees are queued;
dfs, which alternates between sibling trees, may hold several such walks
at once.  Otherwise the walk tests each prefix where some constraint sites
complete, so a failing prefix skips every tuple that extends it, and builds
each passing tuple; an ``ordered`` site that the least and greatest texts
of its compared subtrees settle is not tested, and one they make a
violation wherever it matches is tested at its last pattern hole, so a tree
where no tuple passes is rejected early.

mlfs walks the tuples best-first with a heap, once the same lexicographic
walk, building nothing, has found a passing tuple, and builds each popped
tuple that passes; its builder also returns the program's
log-probability, the queue priority when the tree is re-enqueued, so no
emitted program is walked again to price it.  Up to its first program the
heap tests each popped tuple against the sites; past it, a tree that bfs
and dfs would take as one product lists its root's children once and
decides every later tuple from their texts and flags, read at the tuple's
lexicographic index through the record (:func:`_facts_test`).  A tree with
no site to test or only local ones so decided, no vectors to compute,
finite log-probabilities and at most ``_RANKED_MAX`` programs ranks the
rest of its heap: one sort of every tuple's heap key, computed as the heap
computes it, gives the rest of the heap's own order
(:func:`_ranked_after`).  In a search that runs to exhaustion -- no
problem, budget or deadline, and not a recording's paused search -- it
ranks right after its first program; every other search, recordings and
budgeted searches included, first lets the heap pop ``1/_RANK_AFTER`` of
its tuples, since it may stop inside the tree.  Each ranked program is one
node over the root's rule and one tuple of a listed product of the root's
children's programs, and its log-probability one read of the tree's
totals, listed once in lexicographic order (:func:`_ranked_programs`); the
one listing of each child gives its programs and log-probabilities.  Every
walk yields what the builder returns, ``(program, log-probability,
vector)``, the log-probability ``None`` for bfs and dfs, so one step peeks
every kind's next program.

The bottom-up iterator grows a bank of programs per nonterminal indexed by
node count, combining smaller programs into larger ones, optionally pruning
programs that are observationally equivalent on a problem's inputs.

Every iterator evaluates by value.  Given a problem it compiles the grammar
lazily into one :class:`~synthkit.interpreter.RuleCode`, its ``code``, and
sets ``last_vector`` to each program's output vector on the problem's
examples just before it yields the program.  A node's vector is one
application of its rule's compiled function to its children's vectors: a
fresh top-down stream computes it where the node is built and carries it
with every subtree it shares, a replayed one folds each shared subtree
once (see below), and each bottom-up bank entry holds its own, so a vector
costs one rule application per node actually built.  Without a problem
every vector is ``None`` and no rule is compiled.

Every iterator takes an optional deadline (a :func:`time.monotonic` value):
top-down search checks it on every dequeue, bottom-up on every candidate,
so a search stops in time even when it emits nothing.

Top-down searches over one grammar share their enumeration.  A top-down
search never reads its problem: its program sequence depends only on its
key -- the kind, start symbol, ``max_depth``, ``max_size``, constraints,
``dfs_over_shapes`` and the grammar's log-probabilities -- and only the
output vectors depend on the problem.  A search with a problem and a
``max_enumerations`` budget whose key was seen before over the same rules
replays one recorded enumeration.  The recorded search runs once, as a
plain search without a problem, and the recording keeps the programs it
hands over.  Each consumer folds every replayed program through its own
``RuleCode`` with :func:`~synthkit.interpreter._fold`, the one fold the
interpreter also scores a single program with, and a memo keyed by node
identity: programs share their unchanged subtrees, so each shared subtree
costs one rule application per consumer, as in a fresh search.  The memo
is the consumer's own and is freed with it; its keys stay valid because
the recording keeps every replayed node alive.  A consumer extends the
recording where it ends, and its deadline pauses the recorded search
rather than ending it.  The first sight of a key only notes it and
searches afresh, as does every search without a problem or a budget, so
the enumeration workloads and bottom-up search never record.  Recordings
live in a table keyed weakly by the grammar's rule structure: at most four
recordings and eight noted keys per structure, each evicting the least
recently used.  A recording holds the programs handed over so far and the
paused search's queue.  The table is module state, so pickling a grammar
never carries it, and a worker process that receives grammars by pickle
starts without recordings.
"""

from __future__ import annotations

import copy
import functools
import heapq
import itertools
import math
import operator
import threading
import time
from array import array
from collections import OrderedDict
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator, NamedTuple, Sequence, Union
from weakref import WeakKeyDictionary

from .constraints import ConcreteRule, Constraint, Pattern, PatternVar, check_root
from .errors import ConfigError, SynthkitError
from .grammar import Grammar, set_uniform_probabilities
from .interpreter import EVAL_ERROR, RuleCode, _fold, output_key, solved_counter
# Unused here, but kept as names the benchmark tracer patches on this module.
from .constraints import check_program  # noqa: F401
from .interpreter import evaluate, run_examples, to_expression  # noqa: F401
from .nodes import Hole, Node, RuleNode, _new_node, depth, node_count, text_format
from .solver import SolverState, Surveyed, _product_mask, split_first_hole, survey
from .specification import Problem

Priority = Union[int, float, tuple]

# Every iterator kind, as IteratorConfig spells it.
ITERATOR_KINDS = ("bfs", "dfs", "mlfs", "bottom_up")


class SynthFlag(str, Enum):
    optimal_program = "optimal_program"
    suboptimal_program = "suboptimal_program"
    no_program = "no_program"


@dataclass
class IteratorConfig:
    """What to enumerate and when to stop.

    At least one stopping bound is required whenever the grammar can recurse;
    ``max_size`` is the node-count bound and is mandatory for bottom-up
    search, which fills its bank size by size.  ``dfs_over_shapes`` applies
    to dfs only and ``observational_equivalence`` to bottom-up only; setting
    either for another kind is an error.  mlfs over a grammar without
    probabilities runs on uniform ones.  A constraint whose pattern can
    never match a program of the grammar is an error too: it names a rule
    outside the grammar, or gives a pattern node a child count that no rule
    of the node takes.
    """

    kind: str  # one of ITERATOR_KINDS
    grammar: Grammar
    start_symbol: str
    max_depth: int | None = None
    max_size: int | None = None
    max_enumerations: int | None = None
    constraints: tuple[Constraint, ...] = ()
    dfs_over_shapes: bool = False
    observational_equivalence: bool = False

    def __post_init__(self):
        self.constraints = tuple(self.constraints)
        if self.kind not in ITERATOR_KINDS:
            raise ConfigError(f"unknown iterator kind {self.kind!r}")
        self.grammar.rules_for(self.start_symbol)
        for constraint in self.constraints:
            _check_pattern(self.grammar, constraint.pattern)
        check_bounds(self.kind, self.max_depth, self.max_size, self.max_enumerations)
        if self.dfs_over_shapes and self.kind != "dfs":
            raise ConfigError(f"dfs_over_shapes applies to dfs, not {self.kind}")
        if self.observational_equivalence and self.kind != "bottom_up":
            raise ConfigError(f"observational_equivalence applies to bottom_up, not {self.kind}")
        if self.kind == "mlfs" and not self.grammar.has_probabilities:
            self.grammar = set_uniform_probabilities(self.grammar)
        if self.max_depth is None and self.max_size is None and self.max_enumerations is None:
            if _is_recursive(self.grammar, self.start_symbol):
                raise ConfigError(
                    "a recursive grammar needs max_depth, max_size, or max_enumerations"
                )


def _check_pattern(grammar: Grammar, pattern: Pattern) -> None:
    """Raise ConfigError unless every node of a constraint pattern can match
    a program of the grammar."""
    if isinstance(pattern, PatternVar):
        return
    if isinstance(pattern, ConcreteRule):
        rules, node = (pattern.rule,), f"(rule {pattern.rule})"
    else:
        rules = tuple(sorted(pattern.domain))
        node = f"(domain ({' '.join(map(str, rules))}))"
    for rule in rules:
        if rule not in grammar.indices:
            raise ConfigError(
                f"constraint pattern {node} names rule {rule}, outside the grammar's "
                f"rules 1 to {grammar.rule_count}"
            )
    if pattern.children is None:
        return
    count = len(pattern.children)
    if all(grammar.arity(rule) != count for rule in rules):
        raise ConfigError(
            f"constraint pattern {node} has child count {count}, which no rule it names takes"
        )
    for child in pattern.children:
        _check_pattern(grammar, child)


def _is_recursive(grammar: Grammar, start: str) -> bool:
    """Whether some symbol reachable from ``start`` derives itself: a
    depth-first search from ``start`` that meets a symbol on its own path."""
    on_path: set[str] = set()
    finished: set[str] = set()

    def reaches_a_cycle(symbol: str) -> bool:
        on_path.add(symbol)
        for rule in grammar.rules_for(symbol):
            for child in grammar.childtypes(rule):
                if child in on_path or child not in finished and reaches_a_cycle(child):
                    return True
        on_path.remove(symbol)
        finished.add(symbol)
        return False

    return reaches_a_cycle(start)


def max_rulenode_log_probability(node: Node, grammar: Grammar) -> float:
    """Log-probability of the most likely program reachable from a tree.

    Decided nodes contribute their rule's log-probability, holes the maximum
    over their domain; children are summed recursively.  Both are read from
    tables: the grammar's log-probabilities and its per-domain maxima.
    """
    logs = grammar.log_probabilities
    if logs is None:
        raise ConfigError("grammar has no probabilities")
    return _max_log_probability(node, logs, grammar.max_log_probability)


def _max_log_probability(node: Node, logs: tuple[float, ...], domain_max) -> float:
    if isinstance(node, RuleNode):
        total = logs[node.rule - 1]
    else:
        total = domain_max(node.domain)
    if not isinstance(node, Hole):
        for child in node.children:
            total += _max_log_probability(child, logs, domain_max)
    return total


def derivation_heuristic(kind: str, grammar: Grammar, domain: Sequence[int]) -> list[int]:
    """Order in which a hole's candidate rules are tried."""
    if not domain:
        raise ValueError("empty domain")
    if kind == "mlfs":
        return sorted(domain, key=lambda r: (-grammar.log_probability(r), r))
    return sorted(domain)


def priority_function(
    kind: str,
    grammar: Grammar,
    tree: Node | Surveyed,
    parent_value: Priority,
    is_requeued: bool,
    counter: Iterator[int] | None = None,
    dfs_over_shapes: bool = False,
) -> Priority:
    """Queue priority of a tree; lower values dequeue earlier.

    ``parent_value`` is the priority the dequeued parent had (0 for the
    root).  For bfs a fresh tree gets the lexicographic pair of its depth
    and the next insertion counter: FIFO within a depth layer, so emitted
    program depths never decrease; a re-enqueued tree keeps its position.
    A :class:`~synthkit.solver.Surveyed` tree's depth is read from its
    survey rather than walked.
    """
    if kind == "bfs":
        if is_requeued:
            return parent_value
        if counter is None:
            raise ConfigError("bfs priorities need an insertion counter")
        return (tree.depth if isinstance(tree, Surveyed) else depth(tree), next(counter))
    if kind == "dfs":
        if is_requeued and not dfs_over_shapes:
            return parent_value
        return parent_value - 1
    if kind == "mlfs":
        if isinstance(tree, Surveyed):
            tree = tree.tree
        return -max_rulenode_log_probability(tree, grammar)
    raise ConfigError(f"unknown iterator kind {kind!r}")


class _ProgramIterator:
    """The iteration protocol every iterator shares, over its ``_stream``.

    The stream's frame holds the iterator, so an iterator dropped before its
    stream ends lives until the cycle collector runs; :meth:`close` ends the
    stream, which frees the search's state as soon as the last reference
    to the iterator goes.
    """

    _stream: Iterator[RuleNode]

    def __iter__(self) -> Iterator[RuleNode]:
        return self._stream

    def __next__(self) -> RuleNode:
        return next(self._stream)

    def next_program(self) -> RuleNode | None:
        """The next complete program, or ``None`` once exhausted."""
        return next(self._stream, None)

    def close(self) -> None:
        """End the stream; the iterator yields nothing more."""
        self._stream.close()


class TopDownIterator(_ProgramIterator):
    """Priority-queue search over shape-decomposed trees.

    Iterating yields complete programs; :meth:`next_program` returns ``None``
    once the queue is exhausted, ``max_enumerations`` is reached, or the
    optional ``deadline`` (a :func:`time.monotonic` value, checked on every
    dequeue) has passed.  Given a problem, :attr:`last_vector` is the output
    vector of the program yielded last, through :attr:`code`: a fresh search
    builds it with the program from its subtrees' vectors, and a search that
    replays a recording folds the recorded program (:meth:`_replay`).  The
    queue holds one plain tuple per tree (:meth:`_push_piece`), which
    :meth:`_run` splits or emits from with no per-program method call.
    """

    kind = "bfs"
    # Whether a uniform tree's re-enqueue key never rises while it emits,
    # so that one ahead of the queue may emit the rest at once (:meth:`_run`).
    _drains = True
    # Whether the search runs to exhaustion with nothing to do per program:
    # no problem, budget or deadline, and not paused (:meth:`_run`).
    _drained = False

    def __init__(
        self, config: IteratorConfig, problem: Problem | None = None, deadline: float | None = None
    ):
        if config.kind != self.kind:
            raise ConfigError(f"config kind {config.kind!r} does not match {self.kind!r}")
        self.config = config
        self.deadline = deadline
        self.grammar = config.grammar
        self.constraints = config.constraints
        self.code = None if problem is None else RuleCode(self.grammar, problem)
        self.last_vector: tuple | None = None
        # Items (key, tie, programs, program, vector), as _push_piece makes them.
        self._heap: list[tuple] = []
        self._tie = itertools.count()
        self._counter = itertools.count()
        self._push_piece(survey(self.grammar.hole(config.start_symbol)), 0)
        recording = None if problem is None else _recording_for(config)
        self._stream = self._run() if recording is None else self._replay(recording)

    def _uniform_programs(self, state: SolverState) -> Iterator[tuple]:
        return _assignments_depth_first(state, self.code)

    def _push_piece(self, piece: Surveyed, parent_value: Priority) -> None:
        """Queue a fresh piece of a tree dequeued at ``parent_value``.

        A partial piece is queued with its survey; a uniform one that
        propagation keeps is queued with its stream and the stream's first
        program, peeked here, or dropped when it has none.  An mlfs uniform
        tree is keyed by that program's log-probability; every other piece
        by :func:`priority_function`.
        """
        programs = vector = log_probability = None
        program = piece
        if not piece.holes:
            state = SolverState(self.grammar, piece.tree, self.constraints)
            if not state.propagate():
                return
            programs = self._uniform_programs(state)
            first = next(programs, None)
            if first is None:
                return
            program, log_probability, vector = first
        if log_probability is None:
            key = priority_function(
                self.kind, self.grammar, piece, parent_value, False,
                counter=self._counter, dfs_over_shapes=self.config.dfs_over_shapes,
            )
        else:
            key = -log_probability
        heapq.heappush(self._heap, (key, next(self._tie), programs, program, vector))

    def _run(self, pause: bool = False) -> Iterator[RuleNode | None]:
        """The search.  With ``pause`` a passed deadline yields ``None``
        instead of ending it, and the search resumes under whatever
        deadline is set when it is next advanced.

        Each dequeue splits a partial tree, or emits a uniform tree's peeked
        program and peeks the next with one ``next`` on its stream.  The
        loop keys the tree's re-enqueue by :func:`priority_function`'s
        rules itself: bfs and dfs keep the key, dfs over shapes lowers it by
        one, and mlfs takes the next program's log-probability, which the
        stream yields with it.  The tree is held with that key rather than
        pushed; the next dequeue sends it back with one
        :func:`heapq.heappushpop`.  Keys ``(priority, tie)`` are unique, so
        that returns exactly what a push then a pop would: dfs still
        alternates between sibling trees of equal priority, and a bfs tree,
        whose key nothing else can undercut, comes straight back with no
        sift.  The held tree lives in this frame, so a paused search
        resumes with it.

        A bfs or dfs search with nothing to do per program -- no problem,
        so no vector, and no budget -- drains instead: a uniform tree
        dequeued while no deadline is set, whose re-enqueue key is strictly
        below the head of the queue, emits all its programs at once.  Its
        key never rises while it emits and nothing is pushed meanwhile, so
        every round trip would have handed it straight back; a tie loses to
        the older entry, so dfs still alternates between sibling trees of
        equal priority.  mlfs keys each program by its own log-probability,
        so it never drains; but a search that also sets no deadline and
        does not ``pause`` runs to exhaustion, and there mlfs ranks each
        uniform tree right after its first program (:func:`_ranked_after`).
        """
        emitted = 0
        budget = self.config.max_enumerations
        heap = self._heap
        tie = self._tie
        lowers = self.config.dfs_over_shapes
        held = None
        # Decided once, since testing it per dequeue slows mlfs; only the
        # deadline, which a recording's consumers reset between programs,
        # is read per dequeue.
        plain = self.code is None and budget is None
        drains = self._drains and plain
        self._drained = plain and not pause and self.deadline is None
        while heap or held is not None:
            if budget is not None and emitted >= budget:
                return
            deadline = self.deadline
            if deadline is not None and time.monotonic() >= deadline:
                if not pause:
                    return
                yield None
                continue
            if held is None:
                priority, _, programs, program, vector = heapq.heappop(heap)
            else:
                priority, _, programs, program, vector = heapq.heappushpop(heap, held)
                held = None
            if programs is None:
                # One hole per dequeue, so a tree never fans out by more
                # than its class count; the split drops out-of-bound pieces
                # and hands each piece over with its survey.
                pieces = split_first_hole(
                    self.grammar, program, self.config.max_depth, self.config.max_size
                )
                for piece in pieces:
                    self._push_piece(piece, priority)
                continue
            if drains and deadline is None:
                if not heap or (priority - 1 if lowers else priority) < heap[0][0]:
                    yield program
                    yield from map(operator.itemgetter(0), programs)
                    continue
            peeked = next(programs, None)
            if peeked is not None:
                following, log_probability, following_vector = peeked
                if log_probability is not None:
                    key = -log_probability
                elif lowers:
                    key = priority - 1
                else:
                    key = priority
                held = (key, next(tie), programs, following, following_vector)
            emitted += 1
            self.last_vector = vector
            yield program

    def _replay(self, recording: _Recording) -> Iterator[RuleNode]:
        """The recorded search's programs, extending the recording where it
        ends, each with its vector folded through :attr:`code`.

        The fold's memo is this replay's own and dies with it; it keys the
        recorded programs' nodes, which the recording keeps alive, so a
        subtree that several programs share is folded once.
        """
        programs, code, memo = recording.programs, self.code, {}
        deadline = self.deadline
        for emitted in range(self.config.max_enumerations):
            if deadline is not None and time.monotonic() >= deadline:
                return
            if emitted == len(programs) and not recording.extend(deadline):
                if recording.broken:
                    # Another consumer's extension raised; search afresh
                    # and pass over the programs already handed over.
                    stream = self._run()
                    for _ in itertools.islice(stream, emitted):
                        pass
                    yield from stream
                return
            program = programs[emitted]
            self.last_vector = _fold(code, program, memo)
            yield program


class BFSIterator(TopDownIterator):
    kind = "bfs"


class DFSIterator(TopDownIterator):
    kind = "dfs"


class MLFSIterator(TopDownIterator):
    """Most-likely-first search over a probabilistic grammar.

    A uniform tree is keyed by the exact log-probability of the next
    program it will emit, which its stream yields with the program, and a
    partial tree by :func:`priority_function`'s bound, so no program comes
    after a less likely program of another tree.  Within a tree the order
    follows the heap key of :func:`_assignments_best_first`, which is
    accumulated from per-hole steps and can differ from the emitted
    log-probability, summed in preorder, by a few ulps: consecutive programs
    of one tree may rise by that much (up to 7.1e-15 has been measured).
    """

    kind = "mlfs"
    _drains = False

    def __init__(
        self, config: IteratorConfig, problem: Problem | None = None, deadline: float | None = None
    ):
        # Each hole domain's heuristic order, its log-probabilities and
        # their steps (_steps).
        self._orders: dict[tuple[int, ...], tuple[list[int], list[float], list[float]]]
        self._orders = {}
        super().__init__(config, problem, deadline)

    def _uniform_programs(self, state: SolverState) -> Iterator[tuple]:
        return _assignments_best_first(
            state, self.grammar, self.code, self._orders, self._drained
        )


def _assignments_depth_first(state, code=None) -> Iterator[tuple[RuleNode, None, tuple | None]]:
    """Enumerate a uniform tree's programs depth-first over its holes.

    Every node of a uniform tree is a hole, and its programs are the choice
    tuples over the holes' propagated domains in lexicographic order: holes
    in the preorder of :meth:`~synthkit.solver.SolverState.hole_paths`, each
    domain ascending, the last hole varying fastest.  Each passing tuple's
    program is yielded as it comes: the program, ``None`` for its
    log-probability, and its output vector through ``code`` (``None``
    without code).

    Propagation is not run again: it settled every site but the open ones,
    which :meth:`~synthkit.solver.SolverState._tested_sites` lists once per
    tree.  When every listed site is local (its pattern reads only the hole
    at its own node, and it compares or repeats whole children of that
    node) and each child of the root has at most ``_CACHED_PARTS``
    programs by the tree's record of them (:func:`_children`), the tree's
    programs are the product of its children's listed programs
    (:func:`_product_programs`), which emits the same sequence without
    building a program from a tuple.  Any other tree is walked by tuples:
    :meth:`~synthkit.solver.SolverState.choice_tests` groups the sites by
    the last position each reads, :func:`itertools.product` runs over the
    positions up to the next such position, where the prefix is tested, so
    a prefix that breaks a constraint skips every tuple that extends it,
    and every passing tuple is built by :func:`_choice_builder`, which
    also serves mlfs.
    """
    domains = [state.domain(path) for path in state.hole_paths()]
    sites = state._tested_sites()
    segments = _segments(state, domains, sites)
    record = _children(state.root, 0, domains)
    local = _local_sites(sites, record)
    if local is not None:
        runs = _product_programs(state.root, record, domains, code, local, segments)
        return itertools.chain.from_iterable(runs)
    build, _ = _choice_builder(state.root, [(rules, None) for rules in domains], code, {})
    return _walk(segments, 0, (), build)


def _local_sites(sites, record) -> dict[int, list] | None:
    """The sites by the hole they are posted at, or ``None`` when a walk
    may not list the root's children (``record``, :func:`_children`) to
    decide them: some site is not local (:class:`~synthkit.solver._Site`),
    or some child has more than ``_CACHED_PARTS`` programs, the most a walk
    lists per child."""
    if any(count > _CACHED_PARTS for _, _, count, _ in record):
        return None
    local: dict[int, list] = {}
    for site in sites:
        if site.children is None:
            return None
        local.setdefault(site.at, []).append(site)
    return local


def _children(node, i: int, domains) -> list[list]:
    """The record of the children of the node at hole ``i``: per child,
    in order, ``[child, first hole, program count, stride]``.

    A child's program count is the product of its holes' domain sizes, and
    its stride the product of the counts of the children after it.  Holes
    are numbered in preorder and the last varies fastest, so a tuple's
    lexicographic index over the node's holes runs the node's own choice
    slowest, then each child's part in turn, each in that child's own
    lexicographic order: the child's program of index ``x`` is its
    ``x // stride % count``-th, and the node's choice is ``x`` divided by
    the product of all the counts."""
    record = []
    first = i + 1
    for child in node.children:
        end = first + node_count(child)
        record.append([child, first, math.prod(map(len, domains[first:end])), 1])
        first = end
    stride = 1
    for entry in reversed(record):
        entry[3] = stride
        stride *= entry[2]
    return record


class _Listed(NamedTuple):
    """A subtree's programs as :func:`_listing` gives them, each column in
    the subtree's lexicographic order, and ``None`` where not asked for."""

    programs: list | None
    vectors: list | None
    # Log-probabilities, summed as the builder sums them.
    totals: list | None
    # Each program's serialize_node text.
    texts: list | None
    # Whether each program passes the local sites inside the subtree;
    # also None when no site is posted there.
    flags: list | None


def _listing(node, i: int, rules, values, code, leaves: dict | None, local) -> _Listed:
    """The programs of the subtree at hole ``i`` over the per-hole
    ``rules``, in its lexicographic order, with the columns asked for: the
    programs given ``leaves``, the walk's table of leaf nodes by rule, with
    their vectors through ``code``; their log-probabilities given the
    per-hole ``values``; and given the local sites ``local`` (by hole),
    their texts and flags.

    Each column is built once from the children's, in one walk over the
    subtree: a program is one node over a tuple of listed children
    and its vector one application of its rule's code to theirs
    (:func:`_product_columns`), a log-probability the node's own plus each
    child's in turn, a text the node's text format over its children's
    texts, and a flag says that no site at the node that accepts its rule
    is broken on its children's texts and that each child passes
    (:func:`_passes`).  No local site is posted at a leaf."""
    record = _children(node, i, rules)
    parts = [_listing(child, j, rules, values, code, leaves, local) for child, j, _, _ in record]
    programs = vectors = totals = texts = flags = None
    if leaves is not None:
        programs, vectors = _product_columns(rules[i], parts, code, leaves, 0)
        programs, vectors = list(programs), None if code is None else list(vectors)
    if values is not None:
        totals = _sums(values[i], parts)
    if local and not parts:
        texts = list(map(str, rules[i]))
    elif local:
        columns = itertools.product(*[part.texts for part in parts])
        joined = list(map(",".join, columns))
        texts = [text for rule in rules[i] for text in map(text_format(rule).format, joined)]
        sites = local.get(i, ())
        if sites or any(part.flags is not None for part in parts):
            runs = map(functools.partial(_passes, sites, parts), rules[i])
            flags = list(itertools.chain.from_iterable(runs))
    return _Listed(programs, vectors, totals, texts, flags)


def _product_programs(root, record, domains, code, local, segments) -> Iterator[Iterator]:
    """The runs of the uniform tree's programs as
    :func:`_assignments_depth_first` yields them, to be chained, under the
    local sites ``local`` (by hole), where ``record`` is the root's
    (:func:`_children`) and ``segments`` are the tree's tuple walk's.

    The first passing program comes alone, built from its tuple by
    :func:`_choice_builder`: a search peeks every uniform tree as it
    queues it, so a queued tree that has not emitted holds one program.
    With no site the first tuple takes each hole's least rule; otherwise
    the tuple walk finds it, building nothing, and a tree without one
    yields nothing.  Once the walk is advanced past it, each child of the
    root is listed (:func:`_listing`), its programs with their vectors and,
    under sites, texts and flags, and the root's rules run over the product
    of the children's programs in C, each rule's run filtered by the sites
    decided on the children's texts (:func:`_passes`).  The rest starts
    at the first program's root rule, since no tuple of an earlier root
    rule passes, and skips that program.  The first program and the rest
    take each leaf node from one table, keyed by rule."""
    first = next(_walk(segments, 0, (), tuple), None) if local else (0,) * len(domains)
    if first is None:
        return
    leaves: dict = {}
    build, _ = _choice_builder(root, [(rules, None) for rules in domains], code, leaves)
    yield (build(first),)
    parts = [_listing(child, i, domains, None, code, leaves, local) for child, i, _, _ in record]
    passes = functools.partial(_passes, local.get(0, ()), parts) if local else None
    programs, vectors = _product_columns(domains[0][first[0] :], parts, code, leaves, 1, passes)
    yield zip(programs, itertools.repeat(None), vectors)


def _passes(sites, parts: list, rule: int) -> Iterator[bool]:
    """Whether each tuple of the children's product passes, for a node at
    ``rule`` whose local sites are ``sites`` and whose children's listings
    are ``parts``: no site there that accepts the rule is broken
    (:func:`~synthkit.solver._product_mask`), and every child passes the
    sites inside it."""
    texts = [part.texts for part in parts]
    masks = [_product_mask(site, texts) for site in sites if rule in site.pattern[0][1]]
    if any(part.flags is not None for part in parts):
        columns = [
            (True,) * len(part.texts) if part.flags is None else part.flags for part in parts
        ]
        masks.append(map(all, itertools.product(*columns)))
    if not masks:
        return itertools.repeat(True, math.prod(map(len, texts)))
    return masks[0] if len(masks) == 1 else map(all, zip(*masks))


def _product_columns(
    rules, parts: list, code, leaves: dict, skip: int, passes=None
) -> tuple[Iterator, Iterator]:
    """The programs and vectors of a node over ``rules`` whose children's
    listings are ``parts`` (:func:`_listing`), less the first ``skip``: the rules
    slowest, then the children's product, each rule's run filtered by
    ``passes(rule)`` (:func:`_passes`) when ``passes`` is given.  Each
    program is one node built in C by :data:`~synthkit.nodes._new_node`
    over its rule and a tuple of listed children, and its
    vector one application of its rule's code to theirs; without code the
    vectors are ``None``.  A leaf is ``leaves[rule]``, built the first time
    it is asked for."""
    if not parts:
        rules = rules[skip:]
        for rule in rules:
            if rule not in leaves:
                leaves[rule] = _new_node((rule, ()))
        programs = [leaves[rule] for rule in rules]
        return programs, itertools.repeat(None) if code is None else [code[rule] for rule in rules]
    programs = [part.programs for part in parts]
    if code is not None and passes is not None:
        passes = _shared_masks(passes)
    nodes = itertools.chain.from_iterable(
        map(_new_node, zip(itertools.repeat(rule), tuples))
        for rule, tuples in _rule_runs(rules, programs, skip, passes)
    )
    if code is None:
        return nodes, itertools.repeat(None)
    vectors = [part.vectors for part in parts]
    return nodes, itertools.chain.from_iterable(
        itertools.starmap(code[rule], tuples)
        for rule, tuples in _rule_runs(rules, vectors, skip, passes)
    )


def _shared_masks(passes):
    """``passes`` for two runs over the same rules: each rule's mask is
    decided once, by the run that asks first, and the other run reads it
    through a tee."""
    held = {}

    def shared(rule: int) -> Iterator[bool]:
        mask = held.pop(rule, None)
        if mask is None:
            mask, held[rule] = itertools.tee(passes(rule))
        return mask

    return shared


def _rule_runs(rules, columns: list, skip: int, passes) -> Iterator[tuple[int, Iterator[tuple]]]:
    """Each rule with the product of ``columns`` that ``passes(rule)``
    keeps, the first rule's less its first ``skip`` kept tuples."""
    for rule in rules:
        tuples = itertools.product(*columns)
        if passes is not None:
            tuples = itertools.compress(tuples, passes(rule))
        yield rule, itertools.islice(tuples, skip, None) if skip else tuples
        skip = 0


def _segments(state: SolverState, rules: list[Sequence[int]], sites) -> list:
    """The lexicographic walk's segments over the tuples that put hole
    ``i`` at a rule of ``rules[i]``: the ranges of the positions up to each
    position where a group of :meth:`~synthkit.solver.SolverState.choice_tests`
    over ``sites`` completes, with that group's test, then the remaining
    positions' ranges with ``None``."""
    ranges = [range(len(rule_list)) for rule_list in rules]
    segments = []
    start = 0
    for last, test in state.choice_tests(rules, sites):
        segments.append((ranges[start : last + 1], test))
        start = last + 1
    if start < len(ranges):
        segments.append((ranges[start:], None))
    return segments


def _walk(segments: list, k: int, prefix: tuple, build) -> Iterator:
    """The programs of every passing tuple that extends ``prefix``, where
    ``segments[k:]`` hold the ranges of the remaining positions, each run
    with the test of the prefix that ends it, or ``None``."""
    ranges, test = segments[k]
    deeper = k + 1 < len(segments)
    for part in itertools.product(*ranges):
        choices = prefix + part
        if test is None or test(choices):
            if deeper:
                yield from _walk(segments, k + 1, choices, build)
            else:
                yield build(choices)

def _assignments_best_first(
    state, grammar, code, orders, drained: bool = False
) -> Iterator[tuple[RuleNode, float, tuple | None]]:
    """Enumerate a uniform tree's programs best-first.

    Assignments are tuples of per-hole choice indices (rules sorted by the
    mlfs heuristic); each tuple is reached once by incrementing positions in
    non-decreasing order, and a heap orders them by a key accumulated along
    that path: the negated sum of every hole's best log-probability, less
    one per-position step (:func:`_steps`) per increment.  A tuple's key is
    never below its frontier parent's, whose tuple is lexicographically
    smaller, so the heap pops in (key, tuple) order.  The key can differ
    by a few ulps from the emitted log-probability, which is summed in
    preorder, so two programs of one tree whose keys tie or nearly tie may
    come out with log-probabilities that rise by that much.  Every program
    is built from its choice tuple by :func:`_choice_builder` and yielded
    with its log-probability, summed in
    :func:`max_rulenode_log_probability`'s order so the two agree exactly,
    and its output vector through ``code`` (``None`` without code).
    ``orders`` maps a hole domain to its rules in heuristic order, their
    log-probabilities and their steps; missing domains are added, so a
    table kept across uniform trees sorts each distinct domain once.

    Under constraints a popped tuple is decided before anything is built,
    against the sites left to test, listed once per tree
    (:meth:`~synthkit.solver.SolverState._tested_sites`).  The walk first
    asks the lexicographic walk of bfs and dfs (:func:`_segments`,
    :func:`_walk`), building nothing, for one passing tuple, and a tree
    without one yields nothing before its heap starts; up to its first
    program the heap tests each popped tuple with
    :meth:`~synthkit.solver.SolverState.choice_test` over the same sites,
    which reads the tuple's rules in place, so a tree the search only
    peeks lists nothing.  Past it (:func:`_ranked_after`), a tree that bfs
    and dfs would take as one product lists each child of its root once
    (:func:`_listing`), and every later tuple is decided from the
    children's texts and flags (:func:`_facts_test`); any other tree keeps
    the tuple test.

    Once the heap has popped up to its first program, in a search that
    runs to exhaustion (``drained``: no problem, budget or deadline, and
    not a recording's paused search), or else ``1/_RANK_AFTER`` of the
    tree's tuples and at least up to its first program, the walk may rank
    the rest instead (:func:`_ranked_after`): it computes the heap's key
    of every tuple with the same float steps, sorts the tuples by key
    once, skips the ones the heap popped, keeps those that pass, and
    builds each other program over a listed product of its root's
    children's programs (:func:`_ranked_programs`).  A search that may
    stop inside a tree keeps the eighth, so a tree it leaves early costs
    no rank order.  Ranking holds only where each condition does:

    * no site is left to test, or the children's listings decide them all;
    * no code: a search with vectors would list its children's vectors too,
      and measured slower, since probe and ``synth`` stop most trees early;
    * every log-probability is finite: a rule of probability zero makes a
      step ``-inf - -inf``, NaN, which no sort orders as the heap does;
    * at most ``_RANKED_MAX`` programs, which bounds what a ranked tree
      holds: its rank order, two bytes a tuple, and its children's lists.
    """
    logs = grammar.log_probabilities
    slots = []
    for path in state.hole_paths():
        domain = state.domain(path)
        order = orders.get(domain)
        if order is None:
            rules = derivation_heuristic("mlfs", grammar, domain)
            values = [logs[r - 1] for r in rules]
            order = orders[domain] = (rules, values, _steps(values))
        slots.append(order)
    rules = [slot[0] for slot in slots]
    values = [slot[1] for slot in slots]
    steps = [slot[2] for slot in slots]
    sites = state._tested_sites()
    passes = None
    if sites:
        passes = state.choice_test(rules, sites)
        if next(_walk(_segments(state, rules, sites), 0, (), tuple), None) is None:
            return iter(())
    leaves: dict = {}
    build, _ = _choice_builder(state.root, list(zip(rules, values)), code, leaves)
    heap = [(-sum(v[0] for v in values), (0,) * len(steps), 0)]
    if passes is None and code is not None:
        return _pops(heap, steps, None, build)
    return itertools.chain.from_iterable(
        _ranked_after(
            heap, passes, sites, state.root, rules, values, steps, build, leaves, code, drained
        )
    )


def _facts_test(record, parts: list, rules, sites, whole: bool) -> Callable[[int], bool]:
    """A test of a tree's tuples, by lexicographic index, against its local
    sites, decided from the listings ``parts`` of the root's children
    (``record``, :func:`_children`): a tuple passes when each child's
    program passes the sites inside it and no site in ``sites``, those at
    the root, that accepts the tuple's root rule is broken on the
    children's texts.  With ``whole``, for a tree that ranks and so tests
    most of its tuples, every tuple is decided at once in C, a byte each
    (:func:`_passes`); otherwise each is decided when asked."""
    if whole:
        runs = map(functools.partial(_passes, sites, parts), rules[0])
        return bytes(itertools.chain.from_iterable(runs)).__getitem__
    below = math.prod(count for _, _, count, _ in record)
    at = [[site for site in sites if rule in site.pattern[0][1]] for rule in rules[0]]
    reads = [(entry[3], entry[2], part.texts, part.flags) for entry, part in zip(record, parts)]

    def passes(x: int) -> bool:
        read = []
        for stride, count, texts, flags in reads:
            pick = x // stride % count
            if flags is not None and not flags[pick]:
                return False
            read.append(texts[pick])
        return not any(site.violated([read[k] for k in site.children]) for site in at[x // below])

    return passes


def _steps(values: list[float]) -> list[float]:
    """The steps ``values[j + 1] - values[j]`` that a key subtracts when a
    hole moves from choice ``j`` to ``j + 1``.  The heap and the ranked
    keys both take them from here, so the two compute the same floats."""
    return [b - a for a, b in zip(values, values[1:])]


def _pops(heap: list, steps: list, passes, build) -> Iterator[tuple | None]:
    """Per tuple in the heap's (key, tuple) order, its program when it
    passes, else ``None``.  A popped tuple's successors are pushed before
    it is yielded, so ``heap``, the caller's, holds the rest of the walk
    whenever the walk is suspended, and a new walk over it under another
    test goes on where this one stopped."""
    while heap:
        key, indices, frontier = heapq.heappop(heap)
        for m in range(frontier, len(steps)):
            j = indices[m]
            if j < len(steps[m]):
                bumped = indices[:m] + (j + 1,) + indices[m + 1 :]
                heapq.heappush(heap, (key - steps[m][j], bumped, m))
        yield build(indices) if passes is None or passes(indices) else None


# Once the heap of an mlfs tree without vectors has popped 1/_RANK_AFTER
# of its tuples (and at least its first program), the rest is ranked, for
# trees of at most _RANKED_MAX programs; a search that runs to exhaustion
# ranks right after the first program instead, since it drains every tree.
# Measured on enum-plain and pbe-topdown: ranking right after the first
# program in every search, or at 1/16, ranks trees that a budgeted replay
# never drains and costs pbe-topdown time and memory, so recordings and
# budgeted searches keep the eighth; a cap of 1,024 misses arith's trees of
# up to 3,888 programs, and one of 16,384 raised enum-plain's peak memory
# by 4% to 8%.
_RANK_AFTER = 8
_RANKED_MAX = 4096


def _ranked_after(
    heap, passes, sites, root, rules, values, steps, build, leaves, code, drained
) -> Iterator[Iterator]:
    """The runs of a tree's programs, to be chained: the first program the
    heap walk over ``heap`` yields (:func:`_pops`), then the rest.

    Each run is made when the one before it is exhausted, so all that
    follows is decided when the walk is advanced past its first program,
    and a tree the search only peeks pays nothing for it.  Then a tree
    whose ``sites`` are all local and each child of whose root has at most
    ``_CACHED_PARTS`` programs (:func:`_local_sites`) lists its children
    (:func:`_listing`), and the heap decides every later tuple from their
    texts and flags (:func:`_facts_test`) instead of by the tuple test
    ``passes``; a tree with any other site keeps ``passes``.  The rest is
    the heap's, or, for a tree without ``code``, of at most
    ``_RANKED_MAX`` programs, whose log-probabilities are all finite and
    whose sites, if any, the listings decide, the heap's programs up to a
    switch and the rest from :func:`_ranked_programs`, kept by the same
    test.  The switch comes right after the first program when the search
    runs to exhaustion (``drained``), and otherwise once the heap has
    popped ``1/_RANK_AFTER`` of the tuples: a budgeted search or a
    recording's paused one may never reach a tree's rest, and should not
    pay for ranking it.  A tree that ranks lists its children's programs
    and log-probabilities in that same one walk, or, with no site, when
    its rest is ranked.
    """
    start = heap[0][0]
    pops = _pops(heap, steps, passes, build)
    popped = 0
    for program in pops:
        popped += 1
        if program is not None:
            yield (program,)
            break
    count = math.prod(map(len, rules))
    skip = popped if drained else max(popped, count // _RANK_AFTER)
    finite = all(map(math.isfinite, itertools.chain(*values)))
    ranks = code is None and skip < count <= _RANKED_MAX and finite
    record = _children(root, 0, rules)
    parts = test = None
    if passes is not None:
        local = _local_sites(sites, record)
        if local is None:
            yield filter(None, pops)
            return
        sums, table = (values, leaves) if ranks else (None, None)
        parts = [_listing(child, i, rules, sums, None, table, local) for child, i, _, _ in record]
        test = _facts_test(record, parts, rules, local.get(0, ()), ranks)
        strides = [math.prod(map(len, rules[h + 1 :])) for h in range(len(rules))]
        pops.close()
        pops = _pops(heap, steps, lambda t: test(sum(map(operator.mul, t, strides))), build)
    if not ranks:
        yield filter(None, pops)
        return
    yield filter(None, itertools.islice(pops, skip - popped))
    pops.close()
    order = _rank_order(start, steps, skip)
    if test is not None:
        order = array("H", itertools.compress(order, map(test, order)))
    if parts is None:
        parts = [_listing(child, i, rules, values, None, leaves, None) for child, i, _, _ in record]
    yield _ranked_programs(parts, rules, values, order)


def _rank_order(start: float, steps: list, skip: int) -> array:
    """The lexicographic indices of a tree's choice tuples in the heap's
    (key, tuple) order, less the first ``skip``.

    Each tuple's key is computed as the heap computes it, from ``start``
    subtracting the steps of hole 0's increments, then hole 1's, and so
    on, so it is the same float.  A stable sort by key then orders ties by
    tuple, as the heap does.  The heap pops each tuple after its frontier
    parent, whose key is no larger and whose tuple is smaller, so its first
    ``skip`` pops are the first ``skip`` tuples of this order.
    """
    keys = [start]
    for position in steps:
        keys = [
            key for k in keys for key in itertools.accumulate(position, operator.sub, initial=k)
        ]
    order = sorted(range(len(keys)), key=keys.__getitem__)
    return array("H", order[skip:])


def _ranked_programs(parts: list, rules, values, order) -> Iterator[tuple]:
    """The programs of the tuples at the lexicographic indices ``order``,
    each with its log-probability and no vector.

    ``parts`` are the listings of the root's children, with their programs
    and log-probabilities.  The tree's log-probabilities are listed once in
    its lexicographic order (:func:`_sums`), and its children's programs
    as one listed product, so the tuple at index ``x`` is the root's rule
    ``x // below`` over the children ``x % below``, where ``below`` is the
    product's length, and its log-probability the total at ``x``.  A
    program is one node over that pair, built only when the walk is
    advanced to it.
    """
    children = list(itertools.product(*[part.programs for part in parts]))
    totals = _sums(values[0], parts)
    below = len(children)
    roots = map(rules[0].__getitem__, map(operator.floordiv, order, itertools.repeat(below)))
    kids = map(children.__getitem__, map(operator.mod, order, itertools.repeat(below)))
    nodes = map(_new_node, zip(roots, kids))
    return zip(nodes, map(totals.__getitem__, order), itertools.repeat(None))


def _sums(own: list, parts: list) -> list:
    """The log-probabilities of a node's programs in its lexicographic
    order, from its rule's ``own`` values and its children's listed totals
    (``parts``): the node's own value, then each child's in turn, as the
    builder sums them."""
    for part in parts:
        own = [total + value for total in own for value in part.totals]
    return own


# The most parts a builder caches per hole, and the most programs a child
# subtree may have for a walk to list its programs (_listing).
_CACHED_PARTS = 1024


def _choice_builder(
    node: Node, slots: list, code, leaves: dict, i: int = 0
) -> tuple[Callable[[tuple], tuple], int]:
    """A function from a choice tuple to the subtree's program, its
    log-probability and its output vector, and the position just past the
    subtree.

    Every node of a uniform tree is a hole, numbered in preorder, and
    ``slots[i]`` holds the ordered rules of hole ``i`` and their
    log-probabilities, or ``None`` in their place: then nothing is summed
    and the log-probability is ``None``.  The subtree at hole ``i`` owns
    the part ``choices[i:i+n]`` of the tuple, where ``n`` is its node
    count, and reuses what it built on that part before, so a program
    shares the subtrees, log-probabilities and vectors of an earlier one
    wherever their choices agree.  A leaf hole's part is its one choice
    index, so the leaf is a table indexed by that choice and filled as the
    walk first reaches each entry, its node from ``leaves``, the walk's one
    table keyed by rule: every leaf node is built once per walk, and all
    the tree's programs share it.  A hole with children memoizes
    its parts in a cache that starts over when full (``_CACHED_PARTS``), so
    memory is bounded per hole; a run of tuples sharing a part still hits.
    The cache is keyed by the tuple slice itself, for both the tested
    lexicographic walk and the mlfs heap: keying it by an integer pick
    of the part instead, as per-child columns or as one lexicographic
    index per tuple, measured slower on ``enum-plain``, ``enum-constrained``
    and ``pbe-topdown``.
    The root, at position 0, is built afresh unless it is a leaf: every
    tuple is built at most once, so its cache would never hit and would
    keep every program alive.  Every node, leaf or not, is built from its
    ``(rule, children)`` pair by :data:`~synthkit.nodes._new_node`, the one
    constructor every search uses: ``tuple.__new__`` bound to ``RuleNode``,
    which runs no checks, since the rules are the grammar's and the
    children a tuple.  A node is therefore a tuple and equals its plain
    pair.  The tables and caches live as long as the returned function.
    """
    rules, values = slots[i]
    if not node.children:
        table: list = [None] * len(rules)

        def leaf(choices: tuple) -> tuple:
            j = choices[i]
            hit = table[j]
            if hit is None:
                rule = rules[j]
                leaf_node = leaves.get(rule)
                if leaf_node is None:
                    leaf_node = leaves[rule] = _new_node((rule, ()))
                hit = table[j] = (
                    leaf_node,
                    None if values is None else values[j],
                    None if code is None else code[rule],
                )
            return hit

        return leaf, i + 1

    children = []
    end = i + 1
    for child in node.children:
        child_build, end = _choice_builder(child, slots, code, leaves, end)
        children.append(child_build)

    def build(choices: tuple) -> tuple:
        j = choices[i]
        rule = rules[j]
        total = None if values is None else values[j]
        kids = []
        vectors = []
        for child in children:
            subtree, value, vector = child(choices)
            kids.append(subtree)
            if total is not None:
                total += value
            vectors.append(vector)
        vector = None if code is None else code[rule](*vectors)
        return _new_node((rule, tuple(kids))), total, vector

    if i == 0:
        return build, end
    cache: dict = {}

    def memoized(choices: tuple) -> tuple:
        key = choices[i:end]
        hit = cache.get(key)
        if hit is None:
            if len(cache) >= _CACHED_PARTS:
                cache.clear()
            hit = cache[key] = build(choices)
        return hit

    return memoized, end


# -- shared enumerations ------------------------------------------------------


class _Recording:
    """One top-down search, run once and replayed by every search with its key.

    The search runs without a problem, a budget or a deadline of its own,
    so it builds programs and no vectors: :attr:`programs` holds them in
    emission order, and keeps alive every node a consumer's fold memo keys.
    A consumer extends it one program at a time under the consumer's
    deadline, which pauses the search rather than ending it.  One consumer
    at a time extends it; a program is appended whole, so other threads may
    replay meanwhile.  A search that raises is dropped from its shelf and
    marked broken.
    """

    def __init__(self, config: IteratorConfig, shelf: _Shelf, key: tuple):
        # A grammar over a fresh structure, so the recording holds no
        # reference to the structure that keys its shelf.
        rules = [config.grammar.rule(i) for i in config.grammar.indices]
        grammar = Grammar(rules, log_probabilities=config.grammar.log_probabilities)
        # Consumers read as far as their own budgets; without one, the
        # search may have no bound at all, which only a config check forbids.
        config = copy.copy(config)
        config.grammar, config.max_enumerations = grammar, None
        self.search = _ITERATORS[config.kind](config)
        self.programs: list[RuleNode] = []
        self.broken = False
        self._lock = threading.Lock()
        # The recording holds the only stream, so no cycle keeps a dropped
        # recording's search alive until the collector runs.
        self._stream = self.search._run(pause=True)
        self.search._stream = None
        self._shelf, self._key = shelf, key

    def extend(self, deadline: float | None) -> bool:
        """Record the search's next program; False once the search is
        exhausted, paused at ``deadline`` or broken."""
        with self._lock:
            if self.broken:
                return False
            self.search.deadline = deadline
            try:
                program = next(self._stream, None)
            except BaseException:
                self.broken = True
                self._shelf.drop(self._key, self)
                raise
            if program is None:
                return False
            self.programs.append(program)
            return True


class _Shelf:
    """The recordings kept for one grammar structure.

    A key seen once is only noted; the second search with it starts a
    recording.  At most ``RECORDINGS`` recordings and ``NOTED`` noted keys
    are kept, each evicting its least recently used.  A key must come back
    within ``NOTED`` new keys to be recorded, so a key that recurs only
    after many others, and would be evicted again before its next use,
    costs no recording.
    """

    RECORDINGS = 4
    NOTED = 8

    def __init__(self):
        self.noted: OrderedDict[tuple, None] = OrderedDict()
        self.recordings: OrderedDict[tuple, _Recording] = OrderedDict()

    def lookup(self, key: tuple, config: IteratorConfig) -> _Recording | None:
        recording = self.recordings.get(key)
        if recording is not None:
            self.recordings.move_to_end(key)
            return recording
        if key not in self.noted:
            self.noted[key] = None
            if len(self.noted) > self.NOTED:
                self.noted.popitem(last=False)
            return None
        del self.noted[key]
        recording = self.recordings[key] = _Recording(config, self, key)
        if len(self.recordings) > self.RECORDINGS:
            self.recordings.popitem(last=False)
        return recording

    def drop(self, key: tuple, recording: _Recording) -> None:
        with _SHELVES_LOCK:
            if self.recordings.get(key) is recording:
                del self.recordings[key]


# One shelf per grammar structure, alive as long as some grammar holds it.
# Module state, so pickling a grammar never carries a recording.
_SHELVES: "WeakKeyDictionary[object, _Shelf]" = WeakKeyDictionary()
_SHELVES_LOCK = threading.Lock()


def _recording_for(config: IteratorConfig) -> _Recording | None:
    """The shared recording a top-down search with a problem replays, or
    ``None`` to search afresh: without a budget, or on a key's first sight."""
    if config.max_enumerations is None:
        return None
    key = (
        config.kind, config.start_symbol, config.max_depth, config.max_size,
        config.constraints, config.dfs_over_shapes, config.grammar.log_probabilities,
    )
    structure = config.grammar._structure
    with _SHELVES_LOCK:
        shelf = _SHELVES.get(structure)
        if shelf is None:
            shelf = _SHELVES[structure] = _Shelf()
        return shelf.lookup(key, config)


class BottomUpIterator(_ProgramIterator):
    """Size-indexed bank enumeration: combine small programs into larger ones.

    Programs are emitted in increasing node count, rule-index order within a
    size.  The bank holds, per nonterminal and size, every kept program that
    is shallow enough to be a child within ``max_depth``, in three parallel
    columns: the programs, their vectors and their depths.  A vector is the
    program's output vector on the problem's examples (``None`` without a
    problem): one application of the rule's compiled vector function to the
    children's banked vectors, so no program is evaluated from scratch.  A
    depth comes from the children's.  A rule's candidates for one split of
    the size among its children are a ``zip`` of the three columns'
    products, so each step hands over the children, their vectors and their
    depths at once.  :attr:`last_vector` is the vector of the program
    emitted last.  Under constraints a candidate is checked at its root
    alone (:func:`~synthkit.constraints.check_root`): its children passed
    when they were banked.

    With ``observational_equivalence`` a new program whose outputs duplicate
    a banked program of the same nonterminal (compared tag-strictly, see
    :func:`~synthkit.interpreter.output_key`) is dropped.  A rule whose
    vectors never hold a boolean (:meth:`~synthkit.interpreter.RuleCode.may_hold_bool`)
    keys each vector by itself, which is the key ``output_key`` would give;
    only the other rules' vectors go through ``output_key``.  The optional
    ``deadline`` is checked on every candidate, so a bank that prunes nearly
    everything still stops in time.
    """

    kind = "bottom_up"

    def __init__(
        self, config: IteratorConfig, problem: Problem | None = None, deadline: float | None = None
    ):
        if config.kind != "bottom_up":
            raise ConfigError(f"config kind {config.kind!r} is not bottom_up")
        if config.observational_equivalence and problem is None:
            raise ConfigError("observational-equivalence pruning needs a problem")
        self.config = config
        self.grammar = config.grammar
        self.problem = problem
        self.deadline = deadline
        self.code = None if problem is None else RuleCode(self.grammar, problem)
        self.last_vector: tuple | None = None
        self._stream = self._run()

    def _run(self) -> Iterator[RuleNode]:
        config = self.config
        grammar = self.grammar
        deadline = self.deadline
        constraints = config.constraints
        prune = config.observational_equivalence
        max_depth = config.max_depth
        budget = config.max_enumerations
        start = config.start_symbol
        code = self.code
        # Per nonterminal and size, the kept programs with their vectors and
        # depths, as three parallel columns.
        bank: dict[str, dict[int, tuple[list, list, list]]] = {
            symbol: {} for symbol in grammar.nonterminals
        }
        seen_outputs: dict[str, set] = {symbol: set() for symbol in grammar.nonterminals}
        rules = [(rule, grammar.lhs(rule), grammar.childtypes(rule)) for rule in grammar.indices]
        missing = ((), (), ())
        emitted = 0
        for size in range(1, config.max_size + 1):
            for rule, lhs, childtypes in rules:
                if childtypes:
                    if size < len(childtypes) + 1:
                        continue
                    # One zip of three products per composition of the
                    # children's sizes: each step is a children tuple, their
                    # vectors and their depths.
                    candidates = itertools.chain.from_iterable(
                        zip(
                            itertools.product(*programs),
                            itertools.product(*vectors),
                            itertools.product(*depths),
                        )
                        for programs, vectors, depths in (
                            zip(*[bank[t].get(s, missing) for t, s in zip(childtypes, sizes)])
                            for sizes in _compositions(size - 1, len(childtypes))
                        )
                    )
                elif size == 1:
                    # No children, no vectors, and depth 1 + max((0,)).
                    candidates = (((), (), (0,)),)
                else:
                    continue
                apply = None if code is None else code[rule]
                # A rule whose vectors never hold a boolean keys each vector
                # by itself, which is what output_key would return.
                keyed = prune and code.may_hold_bool(rule)
                seen = seen_outputs[lhs]
                kept, kept_vectors, kept_depths = bank[lhs].setdefault(size, ([], [], []))
                for kids, vectors, depths in candidates:
                    if deadline is not None and time.monotonic() >= deadline:
                        return
                    vector = None
                    if apply is not None:
                        vector = apply(*vectors) if kids else apply
                        if prune:
                            key = output_key(vector) if keyed else vector
                            if key in seen:
                                continue
                    program = _new_node((rule, kids))
                    if constraints and not check_root(constraints, program):
                        continue
                    if prune:
                        seen.add(key)
                    program_depth = 1 + max(depths)
                    if max_depth is None or program_depth < max_depth:
                        kept.append(program)
                        kept_vectors.append(vector)
                        kept_depths.append(program_depth)
                    if lhs == start:
                        if budget is not None and emitted >= budget:
                            return
                        emitted += 1
                        self.last_vector = vector
                        yield program


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Ordered compositions of ``total`` into ``parts`` positive integers."""
    if parts == 1:
        if total >= 1:
            yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


_ITERATORS = {
    "bfs": BFSIterator,
    "dfs": DFSIterator,
    "mlfs": MLFSIterator,
    "bottom_up": BottomUpIterator,
}


def make_iterator(
    config: IteratorConfig, problem: Problem | None = None, deadline: float | None = None
):
    """Instantiate the iterator a config describes.

    Given a problem, every kind sets ``last_vector`` to the output vector of
    each program it yields.  Every kind stops once ``deadline`` (a
    :func:`time.monotonic` value) passes, checked on each dequeue (top-down)
    or candidate (bottom-up).
    """
    return _ITERATORS[config.kind](config, problem=problem, deadline=deadline)


def bottom_up_iterate(config: IteratorConfig, problem: Problem | None = None) -> Iterator[RuleNode]:
    """Stream programs from a bottom-up bank enumeration."""
    return iter(BottomUpIterator(config, problem=problem))


def check_bounds(
    kind: str, max_depth: int | None, max_size: int | None, max_enumerations: int | None
) -> None:
    """Reject a depth or size bound below 1, a negative enumeration budget,
    and bottom-up search without ``max_size``; ``None`` means no bound."""
    for name, bound in (("max_depth", max_depth), ("max_size", max_size)):
        if bound is not None and bound < 1:
            raise ConfigError(f"{name} must be positive, got {bound}")
    if max_enumerations is not None and max_enumerations < 0:
        raise ConfigError(f"max_enumerations must be non-negative, got {max_enumerations}")
    if kind == "bottom_up" and max_size is None:
        raise ConfigError("bottom-up search needs max_size")


def check_timeout(timeout_seconds: float | None) -> None:
    """Reject a negative (or NaN) timeout; ``None`` means no timeout."""
    if timeout_seconds is not None and not timeout_seconds >= 0:
        raise ConfigError(f"timeout must be non-negative, got {timeout_seconds}")


@dataclass
class SynthStats:
    enumerated: int
    elapsed_seconds: float
    timed_out: bool = False


@dataclass
class SynthResult:
    """Outcome of a synthesis run.

    ``optimal_program`` means the program solves every example;
    ``suboptimal_program`` carries the best-scoring program seen (earliest
    on ties); ``no_program`` means nothing was evaluated.
    """

    program: Node | None
    flag: SynthFlag
    stats: SynthStats


def synth(
    problem: Problem,
    config: IteratorConfig,
    allow_evaluation_errors: bool = True,
    timeout_seconds: float | None = None,
) -> SynthResult:
    """Stream programs from an iterator until one solves every example.

    Every program is scored from the output vector its iterator hands over
    with it (``last_vector``), so no program is evaluated from scratch.
    Without ``allow_evaluation_errors`` a vector holding ``EVAL_ERROR``
    raises the error of the program's first failing example.  The iterator
    owns the deadline and stops once it passes, also when it
    emits nothing; one long evaluation can overshoot it by a single program.
    An error that ends the search carries the programs enumerated so far as
    its ``enumerated`` attribute.  A negative timeout raises ConfigError.
    """
    check_timeout(timeout_seconds)
    if not problem.examples:
        raise ValueError("synth needs a problem with at least one example")
    started = time.monotonic()
    deadline = None if timeout_seconds is None else started + timeout_seconds
    count_solved = solved_counter(example.output for example in problem.examples)
    best: Node | None = None
    best_solved = -1
    enumerated = 0
    try:
        iterator = make_iterator(config, problem=problem, deadline=deadline)
        try:
            for program in iterator:
                enumerated += 1
                vector = iterator.last_vector
                if not allow_evaluation_errors and EVAL_ERROR in vector:
                    iterator.code.raise_first_error(program)
                solved = count_solved(vector)
                if solved == len(vector):
                    return SynthResult(
                        program,
                        SynthFlag.optimal_program,
                        SynthStats(enumerated, time.monotonic() - started),
                    )
                if solved > best_solved:
                    best, best_solved = program, solved
        finally:
            iterator.close()
    except SynthkitError as exc:
        exc.enumerated = enumerated
        raise
    ended = time.monotonic()
    timed_out = deadline is not None and ended >= deadline
    flag = SynthFlag.suboptimal_program if best is not None else SynthFlag.no_program
    return SynthResult(best, flag, SynthStats(enumerated, ended - started, timed_out))
