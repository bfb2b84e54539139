"""Indexed context-free grammars with optional rule probabilities.

Rules are stored in a fixed order and addressed by 1-based index everywhere;
serialized programs depend on those indices, so they never change once a
grammar is built.  Probabilities, when present, are kept as natural
logarithms; linear probabilities are derived views.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence, Union

from .errors import ConfigError, GrammarError
from .nodes import Hole, Node, RuleNode, UniformHole

_PROBABILITY_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Placeholder:
    """A nonterminal slot in a rule template."""

    symbol: str


@dataclass(frozen=True)
class Sym:
    """A bare terminal token: operator, function name, variable, or punctuation."""

    text: str


@dataclass(frozen=True)
class IntLit:
    """An integer literal terminal token."""

    value: int


@dataclass(frozen=True)
class StrLit:
    """A string literal terminal token."""

    value: str


TemplateToken = Union[Placeholder, Sym, IntLit, StrLit]


@dataclass(frozen=True)
class Rule:
    """One derivation rule: a nonterminal and its flat template of tokens."""

    lhs: str
    rhs: tuple[TemplateToken, ...]
    # The template's placeholder symbols in order, derived once.
    childtypes: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "rhs", tuple(self.rhs))
        if not self.rhs:
            raise GrammarError(f"rule for {self.lhs!r} has an empty template")
        object.__setattr__(
            self, "childtypes", tuple(t.symbol for t in self.rhs if isinstance(t, Placeholder))
        )

    @property
    def arity(self) -> int:
        return len(self.childtypes)

    @property
    def is_terminal(self) -> bool:
        return self.arity == 0


class _Structure:
    """Tables that depend only on the rules, shared by every grammar over them.

    Built once per rule set; reweighted copies of a grammar reuse it.
    """

    def __init__(self, rules: Iterable[Rule]):
        self.rules: tuple[Rule, ...] = tuple(rules)
        if not self.rules:
            raise GrammarError("a grammar needs at least one rule")
        by_type: dict[str, list[int]] = {}
        for i, rule in enumerate(self.rules, start=1):
            by_type.setdefault(rule.lhs, []).append(i)
        self.by_type = {sym: tuple(ids) for sym, ids in by_type.items()}
        # One full-domain hole per nonterminal.
        self.holes = {sym: Hole(frozenset(ids)) for sym, ids in self.by_type.items()}
        # Shape classes of each hole domain asked for so far.
        self.shape_classes: dict[frozenset[int], tuple[UniformHole, ...]] = {}


class Grammar:
    """An ordered, 1-indexed collection of rules plus derived lookup tables.

    Immutable once constructed; probability updates build a new grammar via
    :meth:`with_probabilities` or :meth:`with_log_probabilities`, which
    shares the tables that depend only on the rules.
    """

    def __init__(
        self,
        rules: Iterable[Rule] | _Structure,
        probabilities: Sequence[float] | None = None,
        log_probabilities: Sequence[float] | None = None,
    ):
        # Reweighted copies pass their source's structure instead of rules.
        structure = rules if isinstance(rules, _Structure) else _Structure(rules)
        self._structure = structure
        self._rules = structure.rules
        self._by_type = structure.by_type

        if probabilities is not None and log_probabilities is not None:
            raise GrammarError("pass either probabilities or log_probabilities, not both")
        if probabilities is not None:
            log_probabilities = [
                math.log(p) if p > 0.0 else -math.inf for p in probabilities
            ]
        if log_probabilities is not None:
            logs = tuple(float(lp) for lp in log_probabilities)
            if len(logs) != len(self._rules):
                raise GrammarError(
                    f"expected {len(self._rules)} probabilities, got {len(logs)}"
                )
            for sym, ids in self._by_type.items():
                total = sum(math.exp(logs[i - 1]) for i in ids)
                if abs(total - 1.0) > _PROBABILITY_TOLERANCE:
                    raise GrammarError(
                        f"probabilities for {sym!r} sum to {total!r}, not 1"
                    )
            self._log_probabilities: tuple[float, ...] | None = logs
        else:
            self._log_probabilities = None
        # Largest log-probability of each hole domain asked for so far.
        self._domain_maxima: dict[frozenset[int], float] = {}

    # -- basic lookups ----------------------------------------------------

    @property
    def rule_count(self) -> int:
        return len(self._rules)

    @property
    def indices(self) -> range:
        """All valid rule indices (1-based)."""
        return range(1, len(self._rules) + 1)

    def rule(self, index: int) -> Rule:
        if not 1 <= index <= len(self._rules):
            raise IndexError(f"rule index {index} out of range 1..{len(self._rules)}")
        return self._rules[index - 1]

    def lhs(self, index: int) -> str:
        return self.rule(index).lhs

    def arity(self, index: int) -> int:
        return self.rule(index).arity

    def childtypes(self, index: int) -> tuple[str, ...]:
        return self.rule(index).childtypes

    @property
    def bytype(self) -> dict[str, tuple[int, ...]]:
        """Map from nonterminal to the ascending indices of its rules."""
        return dict(self._by_type)

    def rules_for(self, symbol: str) -> tuple[int, ...]:
        try:
            return self._by_type[symbol]
        except KeyError:
            raise GrammarError(f"unknown nonterminal {symbol!r}") from None

    @property
    def nonterminals(self) -> tuple[str, ...]:
        return tuple(self._by_type)

    # -- probabilities -----------------------------------------------------

    @property
    def has_probabilities(self) -> bool:
        return self._log_probabilities is not None

    @property
    def log_probabilities(self) -> tuple[float, ...] | None:
        return self._log_probabilities

    def log_probability(self, index: int) -> float:
        if self._log_probabilities is None:
            raise ConfigError("grammar has no probabilities")
        self.rule(index)
        return self._log_probabilities[index - 1]

    def max_log_probability(self, domain: frozenset[int]) -> float:
        """The largest log-probability among a hole domain's rules.

        Computed once per domain and grammar, then read from a table.
        """
        best = self._domain_maxima.get(domain)
        if best is None:
            if not domain:
                raise ValueError("hole with an empty domain")
            best = self._domain_maxima[domain] = max(self.log_probability(r) for r in domain)
        return best

    def probability(self, index: int) -> float:
        return math.exp(self.log_probability(index))

    def with_probabilities(self, probabilities: Sequence[float]) -> "Grammar":
        return Grammar(self._structure, probabilities=probabilities)

    def with_log_probabilities(self, log_probabilities: Sequence[float]) -> "Grammar":
        return Grammar(self._structure, log_probabilities=log_probabilities)

    # -- validated node construction ----------------------------------------

    def node_type(self, node: Node) -> str:
        """The nonterminal a tree derives from (lhs of its root rule/domain)."""
        if isinstance(node, RuleNode):
            return self.lhs(node.rule)
        return self.lhs(min(node.domain))

    def rule_node(self, index: int, children: Sequence[Node] = ()) -> RuleNode:
        """Build a rule node, checking arity and child types against the rule."""
        rule = self.rule(index)
        children = tuple(children)
        if len(children) != rule.arity:
            raise GrammarError(
                f"rule {index} takes {rule.arity} children, got {len(children)}"
            )
        for child, expected in zip(children, rule.childtypes):
            actual = self.node_type(child)
            if actual != expected:
                raise GrammarError(
                    f"rule {index} expects a {expected!r} child, got {actual!r}"
                )
        return RuleNode(index, children)

    def hole(self, symbol: str | None = None, domain: Iterable[int] | None = None) -> Hole:
        """A hole over all rules of ``symbol``, or over an explicit same-lhs domain."""
        if (symbol is None) == (domain is None):
            raise GrammarError("pass exactly one of symbol or domain")
        if symbol is not None:
            try:
                return self._structure.holes[symbol]
            except KeyError:
                raise GrammarError(f"unknown nonterminal {symbol!r}") from None
        domain = frozenset(domain)
        if not domain:
            raise GrammarError("hole domain must be non-empty")
        lhs_set = {self.lhs(i) for i in domain}
        if len(lhs_set) != 1:
            raise GrammarError(f"hole domain mixes nonterminals {sorted(lhs_set)}")
        return Hole(domain)

    def shape_classes(self, domain: frozenset[int]) -> tuple[UniformHole, ...]:
        """A hole domain split into maximal classes of rules with equal childtypes.

        Each class is a uniform hole whose children are full-domain plain
        holes of its childtypes; classes are ordered by their smallest rule.
        Computed once per domain and rule set, then read from a table.
        """
        table = self._structure.shape_classes
        classes = table.get(domain)
        if classes is None:
            groups: dict[tuple[str, ...], list[int]] = {}
            for rule in sorted(domain):
                groups.setdefault(self.childtypes(rule), []).append(rule)
            classes = table[domain] = tuple(
                UniformHole(frozenset(rules), tuple(self.hole(symbol) for symbol in shape))
                for shape, rules in groups.items()
            )
        return classes

    def uniform_hole(self, domain: Iterable[int], children: Sequence[Node] = ()) -> UniformHole:
        """Build a uniform hole, checking that all domain rules share one shape."""
        domain = frozenset(domain)
        if not domain:
            raise GrammarError("uniform hole domain must be non-empty")
        lhs_set = {self.lhs(i) for i in domain}
        if len(lhs_set) != 1:
            raise GrammarError(f"uniform hole domain mixes nonterminals {sorted(lhs_set)}")
        shapes = {self.childtypes(i) for i in domain}
        if len(shapes) != 1:
            raise GrammarError(
                f"uniform hole domain mixes shapes {sorted(shapes)}; rules must share childtypes"
            )
        (childtypes,) = shapes
        children = tuple(children)
        if len(children) != len(childtypes):
            raise GrammarError(
                f"uniform hole needs {len(childtypes)} children, got {len(children)}"
            )
        for child, expected in zip(children, childtypes):
            actual = self.node_type(child)
            if actual != expected:
                raise GrammarError(
                    f"uniform hole expects a {expected!r} child, got {actual!r}"
                )
        return UniformHole(domain, children)

    def __repr__(self):
        probs = " with probabilities" if self.has_probabilities else ""
        return f"<Grammar: {len(self._rules)} rules over {len(self._by_type)} nonterminals{probs}>"


def arity(grammar: Grammar, rule_index: int) -> int:
    """Number of child slots of a rule (count of nonterminal placeholders)."""
    return grammar.arity(rule_index)


def set_uniform_probabilities(grammar: Grammar) -> Grammar:
    """New grammar where each rule of a nonterminal N gets probability 1/|rules of N|."""
    probs = [1.0 / len(grammar.rules_for(grammar.lhs(i))) for i in grammar.indices]
    return grammar.with_probabilities(probs)
