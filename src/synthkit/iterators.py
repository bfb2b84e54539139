"""Program enumeration: top-down priority-queue search and bottom-up banks.

Top-down iterators keep a priority queue of trees (lower value dequeues
first, ties by insertion order).  Dequeuing a tree that still has plain
holes decomposes it into uniform trees, which are enqueued; dequeuing a
uniform tree emits its next complete program and re-enqueues the tree until
its programs are exhausted.  The queue discipline differs per iterator:

* ``bfs``   -- fresh trees are keyed by (depth, insertion counter): FIFO
  within a depth layer; a re-enqueued uniform tree keeps its position, so
  programs come out in non-decreasing depth.
* ``dfs``   -- fresh trees go to ``parent_value - 1``; re-enqueued trees
  return to their parent's value, or to ``parent_value - 1`` in the
  over-shapes variant, which drains each uniform tree contiguously.
* ``mlfs``  -- most likely first: a tree's priority is the negated best
  log-probability it can still reach, and uniform trees enumerate their
  programs best-first, so emitted probabilities never increase.

A uniform tree's shape is fixed, so consecutive programs of one tree differ
only in a few holes.  The bfs/dfs enumeration gives every node a generator
of its complete subtrees and rebuilds only the path from the hole that
changed to the root; emitted programs share their unchanged subtrees.  The
mlfs enumeration compiles each uniform tree once into a builder from the
per-hole choice vector, which returns the program together with its
log-probability; that value is the queue priority when the tree is
re-enqueued, so no emitted program is walked again to price it.

The bottom-up iterator grows a bank of programs per nonterminal indexed by
node count, combining smaller programs into larger ones, optionally pruning
programs that are observationally equivalent on a problem's inputs.

Every iterator takes an optional deadline (a :func:`time.monotonic` value):
top-down search checks it on every dequeue, bottom-up on every candidate,
so a search stops in time even when it emits nothing.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Iterator, Sequence, Union

from .constraints import Constraint, check_program
from .errors import ConfigError
from .grammar import Grammar
from .interpreter import output_vector, run_examples
# Unused here, but kept as names the benchmark tracer patches on this module.
from .interpreter import evaluate, to_expression  # noqa: F401
from .nodes import Hole, Node, RuleNode, depth, is_complete, is_uniform, node_count
from .solver import Path, SolverState, split_first_hole
from .specification import Problem

Priority = Union[int, float, tuple]


class SynthFlag(str, Enum):
    optimal_program = "optimal_program"
    suboptimal_program = "suboptimal_program"
    no_program = "no_program"


@dataclass
class IteratorConfig:
    """What to enumerate and when to stop.

    At least one stopping bound is required whenever the grammar can recurse;
    ``max_size`` is the node-count bound and is mandatory for bottom-up
    search, which fills its bank size by size.
    """

    kind: str  # "bfs" | "dfs" | "mlfs" | "bottom_up"
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
        if self.kind not in ("bfs", "dfs", "mlfs", "bottom_up"):
            raise ConfigError(f"unknown iterator kind {self.kind!r}")
        self.grammar.rules_for(self.start_symbol)
        for name in ("max_depth", "max_size"):
            bound = getattr(self, name)
            if bound is not None and bound < 1:
                raise ConfigError(f"{name} must be positive, got {bound}")
        if self.max_enumerations is not None and self.max_enumerations < 0:
            raise ConfigError("max_enumerations must be non-negative")
        if self.kind == "mlfs" and not self.grammar.has_probabilities:
            raise ConfigError("mlfs needs a grammar with probabilities")
        if self.kind == "bottom_up":
            if self.max_size is None:
                raise ConfigError("bottom-up search needs max_size")
        elif self.max_depth is None and self.max_size is None and self.max_enumerations is None:
            if _is_recursive(self.grammar, self.start_symbol):
                raise ConfigError(
                    "a recursive grammar needs max_depth, max_size, or max_enumerations"
                )


def _is_recursive(grammar: Grammar, start: str) -> bool:
    reachable: set[str] = set()
    stack = [start]
    while stack:
        symbol = stack.pop()
        if symbol in reachable:
            continue
        reachable.add(symbol)
        for rule in grammar.rules_for(symbol):
            stack.extend(grammar.childtypes(rule))
    for symbol in reachable:
        seen: set[str] = set()
        stack = [
            child
            for rule in grammar.rules_for(symbol)
            for child in grammar.childtypes(rule)
        ]
        while stack:
            current = stack.pop()
            if current == symbol:
                return True
            if current in seen:
                continue
            seen.add(current)
            for rule in grammar.rules_for(current):
                stack.extend(grammar.childtypes(rule))
    return False


def max_rulenode_log_probability(node: Node, grammar: Grammar) -> float:
    """Log-probability of the most likely program reachable from a tree.

    Decided nodes contribute their rule's log-probability, holes the maximum
    over their domain; children are summed recursively.
    """
    if isinstance(node, RuleNode):
        total = grammar.log_probability(node.rule)
    else:
        if not node.domain:
            raise ValueError("hole with an empty domain")
        total = max(grammar.log_probability(r) for r in node.domain)
    if not isinstance(node, Hole):
        for child in node.children:
            total += max_rulenode_log_probability(child, grammar)
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
    tree: Node,
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
    """
    if kind == "bfs":
        if is_requeued:
            return parent_value
        if counter is None:
            raise ConfigError("bfs priorities need an insertion counter")
        return (depth(tree), next(counter))
    if kind == "dfs":
        if is_requeued and not dfs_over_shapes:
            return parent_value
        return parent_value - 1
    if kind == "mlfs":
        return -max_rulenode_log_probability(tree, grammar)
    raise ConfigError(f"unknown iterator kind {kind!r}")


@dataclass
class QueueEntry:
    """One queued tree plus the bookkeeping to resume its enumeration."""

    tree: Node
    priority: Priority
    is_uniform: bool
    programs: Iterator | None = None
    peeked: RuleNode | None = None
    # Log-probability of ``peeked``, carried along by mlfs.
    log_probability: float | None = None


class TopDownIterator:
    """Priority-queue search over shape-decomposed trees.

    Iterating yields complete programs; :meth:`next_program` returns ``None``
    once the queue is exhausted, ``max_enumerations`` is reached, or the
    optional ``deadline`` (a :func:`time.monotonic` value, checked on every
    dequeue) has passed.
    """

    kind = "bfs"

    def __init__(self, config: IteratorConfig, deadline: float | None = None):
        if config.kind != self.kind:
            raise ConfigError(f"config kind {config.kind!r} does not match {self.kind!r}")
        self.config = config
        self.deadline = deadline
        self.grammar = config.grammar
        self.constraints = config.constraints
        self._heap: list[tuple[Priority, int, QueueEntry]] = []
        self._tie = itertools.count()
        self._counter = itertools.count()
        self._push_tree(Hole(frozenset(self.grammar.rules_for(config.start_symbol))), 0)
        self._stream = self._run()

    # -- per-kind knobs -----------------------------------------------------

    def derivation_order(self, domain: Sequence[int]) -> list[int]:
        return derivation_heuristic(self.kind, self.grammar, domain)

    def _uniform_priority(self, entry: QueueEntry, parent_value: Priority, is_requeued: bool) -> Priority:
        return priority_function(
            self.kind, self.grammar, entry.tree, parent_value, is_requeued,
            counter=self._counter, dfs_over_shapes=self.config.dfs_over_shapes,
        )

    def _uniform_programs(self, state: SolverState) -> Iterator[RuleNode]:
        return _assignments_depth_first(state, self.derivation_order, self.constraints)

    def _advance(self, entry: QueueEntry) -> None:
        """Peek a uniform entry's next program; ``None`` once it is exhausted."""
        entry.peeked = next(entry.programs, None)

    # -- queue machinery ------------------------------------------------------

    def _within_bounds(self, tree: Node) -> bool:
        if self.config.max_depth is not None and depth(tree) > self.config.max_depth:
            return False
        if self.config.max_size is not None and node_count(tree) > self.config.max_size:
            return False
        return True

    def _push(self, entry: QueueEntry) -> None:
        heapq.heappush(self._heap, (entry.priority, next(self._tie), entry))

    def _push_tree(self, tree: Node, parent_value: Priority) -> None:
        if not self._within_bounds(tree):
            return
        if not is_uniform(tree):
            priority = priority_function(
                self.kind, self.grammar, tree, parent_value, False,
                counter=self._counter, dfs_over_shapes=self.config.dfs_over_shapes,
            )
            self._push(QueueEntry(tree, priority, is_uniform=False))
            return
        state = SolverState(self.grammar, tree, self.constraints)
        if not state.propagate():
            return
        entry = QueueEntry(tree, 0, is_uniform=True, programs=self._uniform_programs(state))
        self._advance(entry)
        if entry.peeked is None:
            return
        entry.priority = self._uniform_priority(entry, parent_value, is_requeued=False)
        self._push(entry)

    def _run(self) -> Iterator[RuleNode]:
        emitted = 0
        budget = self.config.max_enumerations
        deadline = self.deadline
        while self._heap:
            if budget is not None and emitted >= budget:
                return
            if deadline is not None and time.monotonic() >= deadline:
                return
            priority, _, entry = heapq.heappop(self._heap)
            if not entry.is_uniform:
                # One hole per dequeue: the decompose partition applied
                # incrementally, so a tree never fans out by more than its
                # class count.
                pieces = split_first_hole(
                    self.grammar, entry.tree, max_depth=self.config.max_depth
                )
                for piece in pieces or ():
                    self._push_tree(piece, priority)
                continue
            program = entry.peeked
            self._advance(entry)
            if entry.peeked is not None:
                entry.priority = self._uniform_priority(entry, priority, is_requeued=True)
                self._push(entry)
            emitted += 1
            yield program

    def __iter__(self) -> Iterator[RuleNode]:
        return self._stream

    def __next__(self) -> RuleNode:
        return next(self._stream)

    def next_program(self) -> RuleNode | None:
        """The next complete program, or ``None`` once exhausted."""
        return next(self._stream, None)


class BFSIterator(TopDownIterator):
    kind = "bfs"


class DFSIterator(TopDownIterator):
    kind = "dfs"


class MLFSIterator(TopDownIterator):
    """Most-likely-first search over a probabilistic grammar.

    Uniform entries are keyed by the exact log-probability of the next
    program they will emit (their remaining maximum), which keeps the
    emitted probability sequence non-increasing.  The log-probability comes
    with the program from the uniform tree's enumeration.
    """

    kind = "mlfs"

    def _uniform_priority(self, entry, parent_value, is_requeued):
        return -entry.log_probability

    def _uniform_programs(self, state: SolverState) -> Iterator[tuple[RuleNode, float]]:
        return _assignments_best_first(state, self.grammar, self.constraints)

    def _advance(self, entry: QueueEntry) -> None:
        entry.peeked, entry.log_probability = next(entry.programs, (None, None))


def _assignments_depth_first(state, order_fn, constraints) -> Iterator[RuleNode]:
    """Enumerate a uniform tree's programs depth-first over its holes.

    Every node of the tree gets a generator of its complete subtrees.  A
    hole's generator decides the hole through the solver state (save,
    assign, propagate, and restore once the choice is used up) and then
    walks the product of its children's generators left to right, so holes
    are decided in preorder and the last one varies fastest.  Only the
    nodes on the path from the hole that changed to the root are built
    anew; the subtrees beside that path are the ones yielded before, which
    is safe because rule nodes are immutable.
    """
    for program in _subtree_stream(state, order_fn, state.root, ())():
        if check_program(constraints, program):
            yield program


def _subtree_stream(state, order_fn, node: Node, path: Path) -> Callable[[], Iterable[RuleNode]]:
    """A function that starts a fresh stream of a node's complete subtrees."""
    if is_complete(node):
        complete = (node,)
        return lambda: complete
    children = tuple(
        _subtree_stream(state, order_fn, child, path + (i,))
        for i, child in enumerate(node.children)
    )
    if isinstance(node, RuleNode):
        return lambda: (RuleNode(node.rule, kids) for kids in _product(children))

    def decide() -> Iterator[RuleNode]:
        for rule in order_fn(state.domain(path)):
            checkpoint = state.save_state()
            state.assign(path, rule)
            if state.propagate():
                if children:
                    for kids in _product(children):
                        yield RuleNode(rule, kids)
                else:
                    yield RuleNode(rule)
            state.restore_state(checkpoint)

    return decide


def _product(children: tuple) -> Iterator[tuple[RuleNode, ...]]:
    """One subtree per child stream, left to right, the last varying fastest.

    A later child's stream restarts for every subtree of an earlier one,
    because the earlier child's choices change what the later may take.
    """
    first, rest = children[0], children[1:]
    if not rest:
        for head in first():
            yield (head,)
        return
    for head in first():
        for tail in _product(rest):
            yield (head,) + tail


def _assignments_best_first(state, grammar, constraints) -> Iterator[tuple[RuleNode, float]]:
    """Enumerate a uniform tree's programs by non-increasing probability.

    Assignments are tuples of per-hole choice indices (rules sorted by the
    mlfs heuristic); each tuple is reached once by incrementing positions in
    non-decreasing order, and a heap orders them by summed log-probability.
    Each program is built straight from its choice tuple and yielded with
    its log-probability, summed in :func:`max_rulenode_log_probability`'s
    order so the two agree exactly.
    """
    holes = state.hole_paths()
    ordered = [derivation_heuristic("mlfs", grammar, state.domain(p)) for p in holes]
    values = [[grammar.log_probability(r) for r in rules] for rules in ordered]
    slots = {path: (i, ordered[i], values[i]) for i, path in enumerate(holes)}
    build = _choice_builder(grammar, state.root, (), slots)

    start = (0,) * len(holes)
    heap = [(-sum(v[0] for v in values), start, 0)]
    while heap:
        neg_total, indices, frontier = heapq.heappop(heap)
        program, log_probability = build(indices)
        if check_program(constraints, program):
            yield program, log_probability
        for m in range(frontier, len(holes)):
            j = indices[m]
            if j + 1 < len(values[m]):
                bumped = indices[:m] + (j + 1,) + indices[m + 1 :]
                delta = values[m][j + 1] - values[m][j]
                heapq.heappush(heap, (neg_total - delta, bumped, m))


def _choice_builder(grammar, node: Node, path: Path, slots) -> Callable[[tuple], tuple[RuleNode, float]]:
    """A function from a choice tuple to a node's subtree and its log-probability.

    ``slots`` maps each hole's path to its position in the choice tuple,
    its ordered rules and their log-probabilities.
    """
    if is_complete(node):
        complete = (node, max_rulenode_log_probability(node, grammar))
        return lambda choices: complete
    children = [
        _choice_builder(grammar, child, path + (i,), slots)
        for i, child in enumerate(node.children)
    ]
    if isinstance(node, RuleNode):
        position, rules, values = None, (node.rule,), (grammar.log_probability(node.rule),)
    else:
        position, rules, values = slots[path]

    def build(choices: tuple) -> tuple[RuleNode, float]:
        j = 0 if position is None else choices[position]
        total = values[j]
        built = []
        for child in children:
            subtree, value = child(choices)
            built.append(subtree)
            total += value
        return RuleNode(rules[j], tuple(built)), total

    return build


class BottomUpIterator:
    """Size-indexed bank enumeration: combine small programs into larger ones.

    Programs are emitted in increasing node count, rule-index order within a
    size.  With ``observational_equivalence`` a new program whose outputs on
    the problem's example inputs duplicate a banked program of the same
    nonterminal is dropped.  The optional ``deadline`` is checked on every
    candidate, so a bank that prunes nearly everything still stops in time.
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
        self._stream = self._run()

    def _run(self) -> Iterator[RuleNode]:
        config = self.config
        grammar = self.grammar
        deadline = self.deadline
        bank: dict[str, dict[int, list[RuleNode]]] = {
            symbol: {} for symbol in grammar.nonterminals
        }
        seen_outputs: dict[str, set] = {symbol: set() for symbol in grammar.nonterminals}
        emitted = 0
        for size in range(1, config.max_size + 1):
            for rule in grammar.indices:
                lhs = grammar.lhs(rule)
                childtypes = grammar.childtypes(rule)
                if childtypes:
                    if size < len(childtypes) + 1:
                        continue
                    candidates = (
                        RuleNode(rule, combo)
                        for sizes in _compositions(size - 1, len(childtypes))
                        for combo in itertools.product(
                            *(bank[t].get(s, ()) for t, s in zip(childtypes, sizes))
                        )
                    )
                elif size == 1:
                    candidates = (RuleNode(rule),)
                else:
                    continue
                for program in candidates:
                    if deadline is not None and time.monotonic() >= deadline:
                        return
                    if config.max_depth is not None and depth(program) > config.max_depth:
                        continue
                    if config.constraints and not check_program(config.constraints, program):
                        continue
                    if config.observational_equivalence:
                        vector = output_vector(grammar, program, self.problem)
                        if vector in seen_outputs[lhs]:
                            continue
                        seen_outputs[lhs].add(vector)
                    bank[lhs].setdefault(size, []).append(program)
                    if lhs == config.start_symbol:
                        if config.max_enumerations is not None and emitted >= config.max_enumerations:
                            return
                        emitted += 1
                        yield program

    def __iter__(self) -> Iterator[RuleNode]:
        return self._stream

    def __next__(self) -> RuleNode:
        return next(self._stream)

    def next_program(self) -> RuleNode | None:
        return next(self._stream, None)


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
}


def make_iterator(
    config: IteratorConfig, problem: Problem | None = None, deadline: float | None = None
):
    """Instantiate the iterator a config describes.

    Every kind stops once ``deadline`` (a :func:`time.monotonic` value)
    passes, checked on each dequeue (top-down) or candidate (bottom-up).
    """
    if config.kind == "bottom_up":
        return BottomUpIterator(config, problem=problem, deadline=deadline)
    return _ITERATORS[config.kind](config, deadline=deadline)


def bottom_up_iterate(config: IteratorConfig, problem: Problem | None = None) -> Iterator[RuleNode]:
    """Stream programs from a bottom-up bank enumeration."""
    return iter(BottomUpIterator(config, problem=problem))


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

    The iterator owns the deadline and stops once it passes, also when it
    emits nothing; one long evaluation can overshoot it by a single program.
    """
    if not problem.examples:
        raise ValueError("synth needs a problem with at least one example")
    started = time.monotonic()
    deadline = None if timeout_seconds is None else started + timeout_seconds
    best: Node | None = None
    best_solved = -1
    enumerated = 0
    for program in make_iterator(config, problem=problem, deadline=deadline):
        enumerated += 1
        solved, total = run_examples(
            config.grammar, program, problem, allow_errors=allow_evaluation_errors
        )
        if solved == total:
            return SynthResult(
                program,
                SynthFlag.optimal_program,
                SynthStats(enumerated, time.monotonic() - started),
            )
        if solved > best_solved:
            best, best_solved = program, solved
    ended = time.monotonic()
    timed_out = deadline is not None and ended >= deadline
    flag = SynthFlag.suboptimal_program if best is not None else SynthFlag.no_program
    return SynthResult(best, flag, SynthStats(enumerated, ended - started, timed_out))
