"""Reference semantics the benchmark checks synthkit's outputs against.

Nothing here imports synthkit.  The two bundled grammars are read from their
``.herbg`` text with a deliberately small reader that only knows the rule
forms those grammars use, and every rule form is given its meaning by a
table in this file.  Programs are plain tuples ``(rule, children)`` and
their text form is the canonical ``4{3,4{1,3}}`` of synthkit's README.

The enumeration checks use two independent methods: a brute-force lister
that builds every program within the bounds, and a dynamic-programming
counter that only counts them.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

_INT_MIN = -(2**63)
_UINT_SPAN = 2**64


class RefEvalError(Exception):
    """A program fails on an input (only ``substring`` out of range can)."""


def _wrap64(value: int) -> int:
    return (value - _INT_MIN) % _UINT_SPAN + _INT_MIN


def _substring(text: str, i: int, j: int) -> str:
    if not 1 <= i <= j <= len(text):
        raise RefEvalError(f"substring({text!r}, {i}, {j})")
    return text[i - 1 : j]


# Operator forms, keyed by the rule body with each nonterminal written "_".
_OPERATORS = {
    "_ + _": lambda a, b: _wrap64(a + b),
    "_ * _": lambda a, b: _wrap64(a * b),
    "concat ( _ , _ )": lambda a, b: a + b,
    "replace ( _ , _ , _ )": lambda s, old, new: s.replace(old, new),
    "substring ( _ , _ , _ )": _substring,
    "length ( _ )": len,
}


@dataclass(frozen=True)
class RefRule:
    lhs: str
    body: str
    childtypes: tuple[str, ...]


class RefGrammar:
    """Rules in source order (index = position + 1) with their meaning."""

    def __init__(self, text: str):
        lines = []
        for line in text.splitlines():
            line = line.split("#", 1)[0].strip()
            if line:
                lhs, _, rhs = line.partition("=")
                lines.append((lhs.strip(), [alt.strip() for alt in rhs.split("|")]))
        nonterminals = {lhs for lhs, _ in lines}
        self.rules: list[RefRule] = []
        self._apply = []
        for lhs, alternatives in lines:
            for body in alternatives:
                tokens = body.split(" ")
                childtypes = tuple(t for t in tokens if t in nonterminals)
                self.rules.append(RefRule(lhs, body, childtypes))
                self._apply.append(self._meaning(body, tokens, nonterminals))
        self.nonterminals = tuple(dict.fromkeys(r.lhs for r in self.rules))

    @staticmethod
    def _meaning(body: str, tokens: list, nonterminals: set):
        """The rule's operator, or for a leaf a function of the input."""
        if any(t in nonterminals for t in tokens):
            form = " ".join("_" if t in nonterminals else t for t in tokens)
            if form not in _OPERATORS:
                raise ValueError(f"no reference meaning for rule {body!r}")
            return _OPERATORS[form]
        if body.isdigit() or body.startswith('"'):
            value = int(body) if body.isdigit() else body[1:-1]
            return lambda env: value
        if body.isidentifier():
            return lambda env: env[body]
        raise ValueError(f"no reference meaning for rule {body!r}")

    def rules_for(self, symbol: str) -> list[int]:
        return [i for i, r in enumerate(self.rules, start=1) if r.lhs == symbol]

    def evaluate(self, program, env):
        rule, children = program
        apply = self._apply[rule - 1]
        if not children:
            return apply(env)
        return apply(*(self.evaluate(child, env) for child in children))

    def reads_input(self, program) -> bool:
        """True iff some node of the program is a variable."""
        rule, children = program
        body = self.rules[rule - 1].body
        if not children and body.isidentifier():
            return True
        return any(self.reads_input(child) for child in children)

    def outputs(self, program, inputs):
        """Output per input, or ``None`` if the program fails on any of them."""
        try:
            return tuple(self.evaluate(program, env) for env in inputs)
        except RefEvalError:
            return None


def load_grammar(path: Path) -> RefGrammar:
    return RefGrammar(Path(path).read_text())


# -- program text ------------------------------------------------------------


def text_of(node) -> str:
    """Text form of a synthkit ``RuleNode`` or a reference tuple."""
    if isinstance(node, tuple):
        rule, children = node
    else:
        rule, children = node.rule, node.children
    if not children:
        return str(rule)
    return f"{rule}{{{','.join(text_of(c) for c in children)}}}"


def parse_text(text: str):
    """Inverse of :func:`text_of` for reference tuples."""
    pos = 0

    def tree():
        nonlocal pos
        start = pos
        while pos < len(text) and text[pos].isdigit():
            pos += 1
        if pos == start:
            raise ValueError(f"bad program text {text!r}")
        rule = int(text[start:pos])
        children = []
        if pos < len(text) and text[pos] == "{":
            pos += 1
            children.append(tree())
            while text[pos] == ",":
                pos += 1
                children.append(tree())
            if text[pos] != "}":
                raise ValueError(f"bad program text {text!r}")
            pos += 1
        return (rule, tuple(children))

    result = tree()
    if pos != len(text):
        raise ValueError(f"bad program text {text!r}")
    return result


def size_of(program) -> int:
    return 1 + sum(size_of(c) for c in program[1])


def depth_of(program) -> int:
    return 1 + max((depth_of(c) for c in program[1]), default=0)


# -- enumeration oracles -------------------------------------------------------


def _compositions(total: int, parts: int):
    if parts == 1:
        if total >= 1:
            yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def exact_counter(grammar: RefGrammar):
    """``f(symbol, d, k)``: number of programs of depth <= d and exactly k nodes."""

    @lru_cache(maxsize=None)
    def exact(sym: str, d: int, k: int) -> int:
        if d < 1 or k < 1:
            return 0
        total = 0
        for rule in grammar.rules_for(sym):
            kids = grammar.rules[rule - 1].childtypes
            if not kids:
                total += k == 1
                continue
            for sizes in _compositions(k - 1, len(kids)):
                product = 1
                for kid, s in zip(kids, sizes):
                    product *= exact(kid, d - 1, s)
                total += product
        return total

    return exact


def count_programs(grammar: RefGrammar, symbol: str, max_depth: int, max_size: int) -> int:
    """Number of programs within both bounds, by dynamic programming on size."""
    exact = exact_counter(grammar)
    return sum(exact(symbol, max_depth, k) for k in range(1, max_size + 1))


def sample_program(grammar: RefGrammar, exact, symbol: str, d: int, k: int, rng: random.Random):
    """A program drawn uniformly from those of depth <= d and exactly k nodes."""
    choices = []
    for rule in grammar.rules_for(symbol):
        kids = grammar.rules[rule - 1].childtypes
        if not kids:
            if k == 1:
                choices.append((1, rule, ()))
            continue
        for sizes in _compositions(k - 1, len(kids)):
            weight = 1
            for kid, s in zip(kids, sizes):
                weight *= exact(kid, d - 1, s)
            if weight:
                choices.append((weight, rule, sizes))
    pick = rng.randrange(sum(w for w, _, _ in choices))
    for weight, rule, sizes in choices:
        if pick < weight:
            kids = grammar.rules[rule - 1].childtypes
            return (rule, tuple(
                sample_program(grammar, exact, kid, d - 1, s, rng) for kid, s in zip(kids, sizes)
            ))
        pick -= weight
    raise AssertionError("unreachable")


def list_programs(grammar: RefGrammar, symbol: str, max_depth: int, max_size: int) -> list:
    """Every program within both bounds, built top-down with a size budget."""

    def build(sym: str, d: int, budget: int) -> list:
        out = []
        if d < 1 or budget < 1:
            return out
        for rule in grammar.rules_for(sym):
            kids = grammar.rules[rule - 1].childtypes
            if not kids:
                out.append((rule, ()))
                continue
            partial = [((), budget - 1)]
            for kid in kids:
                grown = []
                for chosen, left in partial:
                    for child in build(kid, d - 1, left):
                        grown.append((chosen + (child,), left - size_of(child)))
                partial = grown
            out.extend((rule, chosen) for chosen, _ in partial)
        return out

    return build(symbol, max_depth, max_size)


# -- constraints -----------------------------------------------------------------


def _read_sexpr(text: str):
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    stack: list[list] = [[]]
    for tok in tokens:
        if tok == "(":
            stack.append([])
        elif tok == ")":
            done = stack.pop()
            stack[-1].append(done)
        else:
            stack[-1].append(tok)
    (expr,) = stack[0]
    return expr


def _match(pattern, program, bindings) -> bool:
    head = pattern[0]
    if head == "var":
        name = pattern[1]
        if name in bindings:
            return bindings[name] == program
        bindings[name] = program
        return True
    rule, children = program
    if head == "rule":
        if rule != int(pattern[1]):
            return False
        child_patterns = pattern[2:]
    else:  # ("domain", [indices], children...)
        if rule not in {int(i) for i in pattern[1]}:
            return False
        child_patterns = pattern[2:]
    if not child_patterns:
        return True
    if len(child_patterns) != len(children):
        return False
    return all(_match(p, c, bindings) for p, c in zip(child_patterns, children))


class RefConstraint:
    """``(forbidden PATTERN)`` or ``(ordered PATTERN (VARS))``, read from text."""

    def __init__(self, text: str):
        expr = _read_sexpr(text)
        self.text = text
        self.kind = expr[0]
        self.pattern = expr[1]
        self.variables = expr[2] if self.kind == "ordered" else []

    def holds_at(self, program) -> bool:
        bindings: dict = {}
        if not _match(self.pattern, program, bindings):
            return True
        if self.kind == "forbidden":
            return False
        texts = [text_of(bindings[v]) for v in self.variables]
        return all(a <= b for a, b in zip(texts, texts[1:]))


def satisfies(constraints, program) -> bool:
    """True iff no subtree of the program violates any constraint."""
    if not all(c.holds_at(program) for c in constraints):
        return False
    return all(satisfies(constraints, child) for child in program[1])


# -- probabilities ---------------------------------------------------------------


def seeded_probabilities(grammar: RefGrammar, rng: random.Random) -> list[float]:
    """Random rule probabilities, normalized per nonterminal."""
    weights = [rng.uniform(0.5, 1.5) for _ in grammar.rules]
    totals = {}
    for rule, w in zip(grammar.rules, weights):
        totals[rule.lhs] = totals.get(rule.lhs, 0.0) + w
    return [w / totals[rule.lhs] for rule, w in zip(grammar.rules, weights)]


def log_probability(program, log_probs) -> float:
    rule, children = program
    return log_probs[rule - 1] + sum(log_probability(c, log_probs) for c in children)


def weighted_text(grammar: RefGrammar, probabilities) -> str:
    """Grammar text with one probability-prefixed rule per line."""
    return "".join(
        f"{p!r} : {rule.lhs} = {rule.body}\n" for rule, p in zip(grammar.rules, probabilities)
    )


def logs(probabilities) -> list[float]:
    return [math.log(p) for p in probabilities]
