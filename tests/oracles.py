"""Independent reference implementations the tests check the package against.

Everything here is deliberately direct-recursive and separate from the
package's enumeration and evaluation machinery.
"""

import heapq
from itertools import product

from synthkit.constraints import ConcreteRule, Forbidden, PatternVar, check_program
from synthkit.errors import EvaluationError, InterpreterError, UnboundVariableError
from synthkit.grammar import set_uniform_probabilities
from synthkit.interpreter import (
    EVAL_ERROR,
    Apply,
    Literal,
    RuleCode,
    Variable,
    output_key,
    to_expression,
    values_equal,
)
from synthkit import iterators
from synthkit.iterators import IteratorConfig, SynthFlag, derivation_heuristic, make_iterator
from synthkit.nodes import (
    Hole,
    RuleNode,
    UniformHole,
    depth,
    is_complete,
    node_count,
    serialize_node,
)
from synthkit.probe import ProbeRun, PromisingProgram, modify_grammar_probe
from synthkit.solver import SolverState, Surveyed


def enumerate_programs(grammar, symbol, max_depth, _cache=None, max_size=None):
    """All complete trees deriving ``symbol`` with depth <= max_depth and,
    given ``max_size``, at most that many nodes."""
    if _cache is None:
        _cache = {}
    key = (symbol, max_depth, max_size)
    if key in _cache:
        return _cache[key]
    out = []
    if max_depth >= 1 and (max_size is None or max_size >= 1):
        for index in grammar.rules_for(symbol):
            childtypes = grammar.childtypes(index)
            if not childtypes:
                out.append(RuleNode(index))
            elif max_depth >= 2 and max_size is None:
                pools = [
                    enumerate_programs(grammar, t, max_depth - 1, _cache)
                    for t in childtypes
                ]
                out.extend(RuleNode(index, combo) for combo in product(*pools))
            elif max_depth >= 2:
                combos = _children_within(grammar, childtypes, max_depth - 1, max_size - 1, _cache)
                out.extend(RuleNode(index, combo) for combo in combos)
    _cache[key] = out
    return out


def _children_within(grammar, childtypes, max_depth, budget, cache):
    """Every tuple of children of the given types, each of depth at most
    ``max_depth``, with at most ``budget`` nodes between them."""
    if not childtypes:
        yield ()
        return
    rest_types = childtypes[1:]
    firsts = enumerate_programs(grammar, childtypes[0], max_depth, cache, budget - len(rest_types))
    for first in firsts:
        left = budget - node_count(first)
        for rest in _children_within(grammar, rest_types, max_depth, left, cache):
            yield (first,) + rest


def reference_eval_arith(node, x):
    """Hardcoded semantics of the five-rule arithmetic grammar."""
    def wrap(v):
        return (v + 2**63) % 2**64 - 2**63

    if node.rule == 1:
        return 1
    if node.rule == 2:
        return 2
    if node.rule == 3:
        return x
    left = reference_eval_arith(node.children[0], x)
    right = reference_eval_arith(node.children[1], x)
    if node.rule == 4:
        return wrap(left + right)
    if node.rule == 5:
        return wrap(left * right)
    raise AssertionError(f"not an arithmetic rule: {node.rule}")


def expand_completions(grammar, tree, max_depth):
    """All complete programs a partial tree denotes within a depth bound."""

    def expand(node, budget):
        if budget < 1:
            return []
        if isinstance(node, Hole):
            out = []
            for rule in sorted(node.domain):
                pools = [
                    enumerate_programs(grammar, t, budget - 1)
                    for t in grammar.childtypes(rule)
                ]
                out.extend(RuleNode(rule, combo) for combo in product(*pools))
            return out
        pools = [expand(child, budget - 1) for child in node.children]
        if isinstance(node, RuleNode):
            return [RuleNode(node.rule, combo) for combo in product(*pools)]
        return [
            RuleNode(rule, combo)
            for rule in sorted(node.domain)
            for combo in product(*pools)
        ]

    return expand(tree, max_depth)


def _ref_wrap64(value):
    return (value + 2**63) % 2**64 - 2**63


def _ref_int(value, op):
    if type(value) is not int:
        raise EvaluationError(f"{op} expects an integer, got {value!r}")
    return value


def _ref_str(value, op):
    if type(value) is not str:
        raise EvaluationError(f"{op} expects a string, got {value!r}")
    return value


# The operators reference_apply knows, with their argument counts.
REFERENCE_ARITIES = {
    "+": 2, "-": 2, "*": 2, "==": 2, "<=": 2,
    "concat": 2, "length": 1, "replace": 3, "substring": 3, "if": 3,
}


def reference_apply(op, args):
    """One operator's result on argument values, written case by case.

    Raises ``EvaluationError`` with the interpreter's exact message on an
    ill-typed argument, a ``substring`` range outside its text, or an
    unknown operator.
    """
    if op == "+":
        return _ref_wrap64(_ref_int(args[0], op) + _ref_int(args[1], op))
    if op == "-":
        return _ref_wrap64(_ref_int(args[0], op) - _ref_int(args[1], op))
    if op == "*":
        return _ref_wrap64(_ref_int(args[0], op) * _ref_int(args[1], op))
    if op == "==":
        return _ref_int(args[0], op) == _ref_int(args[1], op)
    if op == "<=":
        return _ref_int(args[0], op) <= _ref_int(args[1], op)
    if op == "concat":
        return _ref_str(args[0], op) + _ref_str(args[1], op)
    if op == "length":
        return len(_ref_str(args[0], op))
    if op == "replace":
        return _ref_str(args[0], op).replace(_ref_str(args[1], op), _ref_str(args[2], op))
    if op == "substring":
        text = _ref_str(args[0], op)
        i = _ref_int(args[1], op)
        j = _ref_int(args[2], op)
        if not 1 <= i <= j <= len(text):
            raise EvaluationError(f"substring indices ({i}, {j}) out of range for {text!r}")
        return text[i - 1 : j]
    if op == "if":
        cond = args[0]
        if type(cond) is not bool:
            raise EvaluationError(f"if expects a boolean condition, got {cond!r}")
        return args[1] if cond else args[2]
    raise EvaluationError(f"unknown operator {op!r}")


def reference_evaluate(expr, env):
    """Strictly evaluate an expression with :func:`reference_apply`."""
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, Variable):
        if expr.name not in env:
            raise UnboundVariableError(f"variable {expr.name!r} is not bound")
        return env[expr.name]
    if isinstance(expr, Apply):
        return reference_apply(expr.op, [reference_evaluate(a, env) for a in expr.args])
    raise EvaluationError(f"cannot evaluate template slot {expr}")


def reference_output_vector(grammar, program, problem, allow_errors=True):
    """A program's output per example by walking its expression on each input.

    With ``allow_errors`` a failing example yields ``EVAL_ERROR``; otherwise
    the first error propagates.
    """
    expr = to_expression(grammar, program)
    outputs = []
    for example in problem.examples:
        try:
            outputs.append(reference_evaluate(expr, example.input))
        except InterpreterError:
            if not allow_errors:
                raise
            outputs.append(EVAL_ERROR)
    return tuple(outputs)


def random_complete_tree(grammar, symbol, rng, max_depth):
    """A random complete program, biased toward terminals near the bound."""
    rules = grammar.rules_for(symbol)
    terminals = [r for r in rules if not grammar.childtypes(r)]
    if max_depth <= 1 or (terminals and rng.random() < 0.4):
        return RuleNode(rng.choice(terminals))
    rule = rng.choice(list(rules))
    children = tuple(
        random_complete_tree(grammar, t, rng, max_depth - 1)
        for t in grammar.childtypes(rule)
    )
    return RuleNode(rule, children)


def random_partial_tree(grammar, symbol, rng, max_depth):
    """A random tree mixing rule nodes, plain holes, and uniform holes."""
    rules = list(grammar.rules_for(symbol))
    roll = rng.random()
    if max_depth <= 1 or roll < 0.3:
        domain = rng.sample(rules, rng.randint(1, len(rules)))
        return Hole(frozenset(domain))
    if roll < 0.45:
        by_shape = {}
        for rule in rules:
            by_shape.setdefault(grammar.childtypes(rule), []).append(rule)
        shape = rng.choice(sorted(by_shape))
        members = by_shape[shape]
        domain = rng.sample(members, rng.randint(1, len(members)))
        children = tuple(
            random_partial_tree(grammar, t, rng, max_depth - 1) for t in shape
        )
        return UniformHole(frozenset(domain), children)
    rule = rng.choice(rules)
    children = tuple(
        random_partial_tree(grammar, t, rng, max_depth - 1)
        for t in grammar.childtypes(rule)
    )
    return RuleNode(rule, children)


def grammars_equivalent(a, b, tolerance=1e-9):
    """Structural equality of grammars, probabilities within a tolerance."""
    if a.rule_count != b.rule_count:
        return False
    if any(a.rule(i) != b.rule(i) for i in a.indices):
        return False
    if a.has_probabilities != b.has_probabilities:
        return False
    if a.has_probabilities:
        return all(
            abs(a.probability(i) - b.probability(i)) <= tolerance for i in a.indices
        )
    return True


def reference_materialize(state, overrides=None, node=None, path=()):
    """A solver state's tree, or its subtree ``node`` at ``path``, under the
    state's domains: a singleton domain becomes a rule node, and a hole in
    ``overrides`` becomes a rule node of the rule it maps to.  Serialized,
    a bound subtree built this way is what a solver site's text for it
    must read.
    """
    if node is None:
        node = state.root
    children = tuple(
        reference_materialize(state, overrides, child, path + (i,))
        for i, child in enumerate(node.children)
    )
    if isinstance(node, RuleNode):
        return RuleNode(node.rule, children)
    if overrides is not None and path in overrides:
        return RuleNode(overrides[path], children)
    domain = state.domain(path)
    if len(domain) == 1:
        return RuleNode(domain[0], children)
    return UniformHole(frozenset(domain), children)


def reference_propagate(state):
    """Whole-tree singleton lookahead: the propagation a SolverState must equal.

    Drops a rule from a hole when fixing the hole to it makes the whole tree
    definitely violate a constraint, rebuilding the tree for every (hole,
    rule) pair and scanning every subtree, until nothing changes.  Returns
    False on a wipeout.  Call it as ``reference_propagate(state)`` or patch
    it in as ``SolverState.propagate``.
    """
    constraints = state.constraints
    if not constraints:
        return all(state.domain(path) for path in state.hole_paths())
    changed = True
    while changed:
        changed = False
        if definitely_violated(constraints, reference_materialize(state)):
            return False
        for path in state.hole_paths():
            for rule in state.domain(path):
                if definitely_violated(constraints, reference_materialize(state, {path: rule})):
                    state.remove(path, rule)
                    changed = True
            if not state.domain(path):
                return False
    return True


def definitely_violated(constraints, tree):
    """Does some constraint hold a violation in every completion of the tree?"""
    return any(
        _violated_here(constraint, sub)
        for constraint in constraints
        for sub in _all_subtrees(tree)
    )


def _all_subtrees(node):
    yield node
    if not isinstance(node, Hole):
        for child in node.children:
            yield from _all_subtrees(child)


def _violated_here(constraint, node):
    bindings = {}

    def walk(p, n):
        if isinstance(p, PatternVar):
            if p.name in bindings:
                previous = bindings[p.name]
                return is_complete(previous) and is_complete(n) and previous == n
            bindings[p.name] = n
            return True
        if isinstance(n, Hole):
            return False
        if isinstance(p, ConcreteRule):
            if not (isinstance(n, RuleNode) and n.rule == p.rule):
                return False
        elif isinstance(n, RuleNode):
            if n.rule not in p.domain:
                return False
        elif not n.domain <= p.domain:
            return False
        if p.children is None:
            return True
        if len(p.children) != len(n.children):
            return False
        return all(walk(pc, nc) for pc, nc in zip(p.children, n.children))

    if not walk(constraint.pattern, node):
        return False
    if isinstance(constraint, Forbidden):
        return True
    bound = [bindings[v] for v in constraint.variables]
    if not all(is_complete(n) for n in bound):
        return False
    texts = [serialize_node(n) for n in bound]
    return any(a > b for a, b in zip(texts, texts[1:]))


def reference_max_rulenode_log_probability(node, grammar):
    """Log-probability of the most likely program reachable from a tree.

    Asks the grammar for every rule's log-probability, range-checked, and
    takes each hole's maximum over its whole domain on every call.  Decided
    nodes contribute their rule's value, holes their domain's maximum, and
    children are summed recursively in order, the summation order
    ``iterators.max_rulenode_log_probability`` must keep.
    """
    if isinstance(node, RuleNode):
        total = grammar.log_probability(node.rule)
    else:
        if not node.domain:
            raise ValueError("hole with an empty domain")
        total = max(grammar.log_probability(r) for r in node.domain)
    if not isinstance(node, Hole):
        for child in node.children:
            total += reference_max_rulenode_log_probability(child, grammar)
    return total


def reference_assignments_depth_first(state, code=None):
    """A uniform tree's programs depth-first, rebuilding the whole tree each time.

    Decides the holes in preorder through the solver state, each hole's
    rules in ascending order and the last hole varying fastest, and
    materializes every complete assignment with ``state.current_tree()``,
    keeping those that satisfy the state's constraints.  Each program comes
    as ``(program, None, vector)``, as the iterators' walk yields it: no
    log-probability, and the output vector from a whole-tree fold,
    ``code.vector(program)`` (``None`` without code).  Patch it in as
    ``iterators._assignments_depth_first``.
    """
    holes = state.hole_paths()

    def fill(i):
        if i == len(holes):
            program = state.current_tree()
            if check_program(state.constraints, program):
                yield program, None, None if code is None else code.vector(program)
            return
        path = holes[i]
        for rule in sorted(state.domain(path)):
            checkpoint = state.save_state()
            state.assign(path, rule)
            if state.propagate():
                yield from fill(i + 1)
            state.restore_state(checkpoint)

    return fill(0)


def reference_lexicographic_walk(state, code=None):
    """A uniform tree's programs in lexicographic order, built tuple by tuple.

    Every choice tuple over the propagated domains, in
    :func:`itertools.product` order, is tested whole by the state's
    ``choice_test``, and each passing tuple is materialized whole with
    :func:`reference_materialize`, its vector from a whole-tree fold,
    ``code.vector(program)`` (``None`` without code).  Each program comes
    as ``(program, None, vector)``.  Patch it in as
    ``iterators._assignments_depth_first``.
    """
    holes = state.hole_paths()
    domains = [state.domain(path) for path in holes]
    passes = state.choice_test(domains)
    for choices in product(*(range(len(rules)) for rules in domains)):
        if passes is None or passes(choices):
            overrides = {path: rules[j] for path, rules, j in zip(holes, domains, choices)}
            program = reference_materialize(state, overrides)
            yield program, None, None if code is None else code.vector(program)


def unconstrained_copy(state):
    """A state over the same tree with the state's current domains and no
    constraints."""

    def narrow(node, path):
        children = tuple(narrow(child, path + (i,)) for i, child in enumerate(node.children))
        if isinstance(node, RuleNode):
            return RuleNode(node.rule, children)
        return UniformHole(frozenset(state.domain(path)), children)

    return SolverState(state.grammar, narrow(state.root, ()), ())


def reference_assignments_best_first(state, grammar, code=None, orders=None, drained=False):
    """A uniform tree's programs best-first, each with its log-probability.

    Walks the per-hole choice tuples by summed log-probability, materializes
    each with :func:`reference_materialize`, keeps those that satisfy
    the state's constraints and pairs each with
    ``reference_max_rulenode_log_probability`` and its whole-tree
    ``code.vector`` (``None`` without code).  Patch it in as
    ``iterators._assignments_best_first``; ``orders`` is ignored, every
    hole is sorted afresh, and so is ``drained``, which changes only how
    the walk gets to its order.
    """
    holes = state.hole_paths()
    ordered = [derivation_heuristic("mlfs", grammar, state.domain(p)) for p in holes]
    values = [[grammar.log_probability(r) for r in rules] for rules in ordered]
    heap = [(-sum(v[0] for v in values), (0,) * len(holes), 0)]
    while heap:
        neg_total, indices, frontier = heapq.heappop(heap)
        overrides = {path: ordered[i][j] for i, (path, j) in enumerate(zip(holes, indices))}
        program = reference_materialize(state, overrides)
        if check_program(state.constraints, program):
            vector = None if code is None else code.vector(program)
            yield program, reference_max_rulenode_log_probability(program, grammar), vector
        for m in range(frontier, len(holes)):
            j = indices[m]
            if j + 1 < len(values[m]):
                bumped = indices[:m] + (j + 1,) + indices[m + 1 :]
                heapq.heappush(heap, (neg_total - (values[m][j + 1] - values[m][j]), bumped, m))


def reference_survey(tree):
    """The tree with its survey from fresh walks: its plain holes' paths in
    preorder, ``node_count`` and ``depth``."""

    def paths(node, at):
        if isinstance(node, Hole):
            return [at]
        return [p for i, child in enumerate(node.children) for p in paths(child, at + (i,))]

    return Surveyed(tree, tuple(paths(tree, ())), node_count(tree), depth(tree))


def reference_split_first_hole(grammar, tree, max_depth=None, max_size=None):
    """Split the leftmost plain hole, then drop the pieces that exceed a bound.

    Builds one piece per same-shape class of the hole's domain, each with
    fresh full-domain children, and only afterwards filters them by their
    whole-tree ``depth`` and ``node_count``.  Returns None when the tree has
    no plain hole.  Given a ``Surveyed`` tree, as the iterators pass it, it
    ignores the survey and returns each piece with a fresh one from
    :func:`reference_survey`.  Patch it in as ``iterators.split_first_hole``.
    """
    if isinstance(tree, Surveyed):
        pieces = reference_split_first_hole(grammar, tree.tree, max_depth, max_size)
        return None if pieces is None else [reference_survey(piece) for piece in pieces]

    def find(node):
        if isinstance(node, Hole):
            return ()
        for i, child in enumerate(node.children):
            found = find(child)
            if found is not None:
                return (i,) + found
        return None

    def replace(node, path, replacement):
        if not path:
            return replacement
        children = list(node.children)
        children[path[0]] = replace(children[path[0]], path[1:], replacement)
        if isinstance(node, RuleNode):
            return RuleNode(node.rule, tuple(children))
        return UniformHole(node.domain, tuple(children))

    path = find(tree)
    if path is None:
        return None
    hole = tree
    for index in path:
        hole = hole.children[index]
    by_shape = {}
    for rule in sorted(hole.domain):
        by_shape.setdefault(grammar.childtypes(rule), []).append(rule)
    pieces = [
        replace(tree, path, UniformHole(frozenset(rules), tuple(grammar.hole(s) for s in shape)))
        for shape, rules in by_shape.items()
    ]
    return [
        piece
        for piece in pieces
        if (max_depth is None or depth(piece) <= max_depth)
        and (max_size is None or node_count(piece) <= max_size)
    ]


def has_recording(grammar):
    """Whether a top-down search over the grammar's rules is recorded for
    replay, so that a search with its key would not run the search code."""
    shelf = iterators._SHELVES.get(grammar._structure)
    return bool(shelf and shelf.recordings)


def queued_uniform_trees(search):
    """The uniform trees a suspended top-down search holds, as its heap
    items ``(key, tie, programs, program, vector)``: those in its queue,
    and the one that has just emitted, which the search holds to send back
    at its next dequeue (``None`` when it holds none)."""
    frame = iter(search).gi_frame
    held = None if frame is None else frame.f_locals.get("held")
    return [item for item in search._heap if item[2] is not None], held


def promising_by_the_full_loop(config, problem):
    """Score one enumeration as probe did when it counted every program's
    fitness through ``values_equal`` and every positive-fitness program's
    size: stop at the first program solving every example; otherwise keep,
    per output vector, the highest fitness, then the fewest nodes, then the
    earliest.  Returns the promising set, the flag, the programs enumerated,
    the programs that replaced a held one by being smaller and the ties that
    kept the held one."""
    expected = [example.output for example in problem.examples]
    by_vector = {}
    enumerated = smaller = kept = 0
    iterator = make_iterator(config, problem=problem)
    for program in iterator:
        enumerated += 1
        vector = iterator.last_vector
        fit = sum(map(values_equal, vector, expected)) / len(expected)
        if fit == 1.0:
            return {PromisingProgram(program, 1.0)}, SynthFlag.optimal_program, enumerated, 0, 0
        if fit <= 0.0:
            continue
        size = node_count(program)
        key = output_key(vector)
        held = by_vector.get(key)
        if held is None or (fit, -size) > (held[0], -held[1]):
            smaller += held is not None
            by_vector[key] = (fit, size, program)
        else:
            kept += 1
    promising = {PromisingProgram(prog, fit) for fit, _, prog in by_vector.values()}
    flag = SynthFlag.suboptimal_program if promising else SynthFlag.no_program
    return promising, flag, enumerated, smaller, kept


def probe_every_cycle(grammar, start_symbol, problem, config):
    """The probe loop without a deadline, as it ran before it stopped at a
    fixed point: every cycle runs unless one solves the problem, and the
    grammar is reweighted after each unsolved cycle, the last one too."""
    current = grammar if grammar.has_probabilities else set_uniform_probabilities(grammar)
    enumerated = 0
    for cycle in range(config.probe_cycles):
        iterator_config = IteratorConfig(
            "mlfs",
            current,
            start_symbol,
            max_depth=config.max_depth,
            max_enumerations=config.max_enumerations,
            constraints=config.constraints,
        )
        promising, flag, count, _, _ = promising_by_the_full_loop(iterator_config, problem)
        enumerated += count
        if flag == SynthFlag.optimal_program:
            (winner,) = promising
            return ProbeRun(winner.program, cycle + 1, enumerated)
        current = modify_grammar_probe(promising, current)
    return ProbeRun(None, config.probe_cycles, enumerated)


def reference_bottom_up(config, problem=None):
    """The bottom-up bank with one list of ``(program, vector, depth)``
    triples per nonterminal and size, keying every vector with
    ``output_key`` and checking every candidate with ``check_program``.
    Yields each emitted program with its vector (``None`` without a
    problem)."""
    grammar = config.grammar
    code = None if problem is None else RuleCode(grammar, problem)
    prune = config.observational_equivalence
    bank = {symbol: {} for symbol in grammar.nonterminals}
    seen = {symbol: set() for symbol in grammar.nonterminals}
    emitted = 0
    for size in range(1, config.max_size + 1):
        for rule in grammar.indices:
            lhs, childtypes = grammar.lhs(rule), grammar.childtypes(rule)
            if not childtypes:
                combos = [((), (), (0,))] if size == 1 else []
            else:
                combos = [
                    zip(*combo)
                    for sizes in product(range(1, size), repeat=len(childtypes))
                    if sum(sizes) == size - 1
                    for combo in product(*(bank[t].get(s, ()) for t, s in zip(childtypes, sizes)))
                ]
            for kids, vectors, depths in combos:
                vector = key = None
                if code is not None:
                    vector = code[rule](*vectors) if kids else code[rule]
                    key = output_key(vector)
                    if prune and key in seen[lhs]:
                        continue
                program = RuleNode(rule, kids)
                if not check_program(config.constraints, program):
                    continue
                if prune:
                    seen[lhs].add(key)
                program_depth = 1 + max(depths)
                if config.max_depth is None or program_depth < config.max_depth:
                    bank[lhs].setdefault(size, []).append((program, vector, program_depth))
                if lhs == config.start_symbol:
                    if config.max_enumerations is not None and emitted >= config.max_enumerations:
                        return
                    emitted += 1
                    yield program, vector
