"""Human-readable grammar format (.herbg files).

One declaration per line::

    Int = 1 | 2 | x
    Int = Int + Int
    S = concat ( S , S )

Identifiers that appear as a left-hand side anywhere in the file are
nonterminals; every other token is a terminal.  Alternatives may carry
probabilities, either prefixed per alternative or, for single-alternative
lines, before the nonterminal::

    S = 0.5 : x | 0.5 : y
    0.25 : Int = 1

``#`` starts a comment; blank lines are ignored.  Probabilities of a
nonterminal must sum to 1 (tolerance 1e-6) and are renormalized exactly on
load.  Nonterminals left unweighted in a partially weighted grammar receive
uniform probabilities.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import GrammarSyntaxError, GrammarValidationError, LexError
from .grammar import Grammar, IntLit, Placeholder, Rule, StrLit, Sym, TemplateToken
from .interpreter import _INT_MAX, _INT_MIN, Literal

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#.*)
  | (?P<number>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
  | (?P<string>"(?:[^"\\]|\\.)*")
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>==|<=|[=|:+*\-,()])
    """,
    re.VERBOSE,
)

_ESCAPES = {'"': '"', "\\": "\\", "n": "\n", "t": "\t"}


@dataclass(frozen=True)
class _Tok:
    kind: str  # "number" | "string" | "ident" | "op"
    text: str
    line: int


def _lex_line(text: str, line_no: int) -> list[_Tok]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise LexError(f"unknown token starting at {text[pos:pos + 10]!r}", line_no)
        pos = match.end()
        kind = match.lastgroup
        if kind in ("ws", "comment"):
            continue
        tokens.append(_Tok(kind, match.group(), line_no))
    return tokens


def _unescape_string(raw: str, line_no: int) -> str:
    body = raw[1:-1]
    out = []
    i = 0
    while i < len(body):
        ch = body[i]
        if ch == "\\":
            i += 1
            if i >= len(body) or body[i] not in _ESCAPES:
                raise LexError(f"bad escape in string literal {raw}", line_no)
            out.append(_ESCAPES[body[i]])
        else:
            out.append(ch)
        i += 1
    return "".join(out)


@dataclass
class _Alternative:
    probability: float | None
    tokens: list[_Tok]
    line: int


@dataclass
class _Declaration:
    lhs: str
    alternatives: list[_Alternative]
    line: int


def _split_declaration(tokens: list[_Tok], line_no: int) -> _Declaration:
    pos = 0

    def take_probability() -> float | None:
        nonlocal pos
        if (
            pos + 1 < len(tokens)
            and tokens[pos].kind == "number"
            and tokens[pos + 1].text == ":"
        ):
            value = float(tokens[pos].text)
            pos += 2
            return value
        return None

    line_probability = take_probability()
    if pos >= len(tokens) or tokens[pos].kind != "ident":
        raise GrammarSyntaxError("expected a nonterminal name", line_no)
    lhs = tokens[pos].text
    pos += 1
    if pos >= len(tokens) or tokens[pos].text != "=":
        raise GrammarSyntaxError(f"expected '=' after {lhs!r}", line_no)
    pos += 1

    alternatives: list[_Alternative] = []
    current_prob = take_probability()
    current: list[_Tok] = []
    while pos < len(tokens):
        tok = tokens[pos]
        if tok.text == "|" and tok.kind == "op":
            alternatives.append(_Alternative(current_prob, current, line_no))
            pos += 1
            current_prob = take_probability()
            current = []
            continue
        if tok.text == "=" and tok.kind == "op":
            raise GrammarSyntaxError(
                "unexpected '='; write one declaration per line", line_no
            )
        current.append(tok)
        pos += 1
    alternatives.append(_Alternative(current_prob, current, line_no))

    for alt in alternatives:
        if not alt.tokens:
            raise GrammarSyntaxError("alternative with zero tokens", line_no)

    if line_probability is not None:
        if len(alternatives) > 1:
            raise GrammarSyntaxError(
                "a line-level probability needs a single alternative; "
                "prefix each alternative instead",
                line_no,
            )
        if alternatives[0].probability is not None:
            raise GrammarSyntaxError("duplicate probability prefix", line_no)
        alternatives[0].probability = line_probability

    return _Declaration(lhs, alternatives, line_no)


def _to_template(tokens: list[_Tok], nonterminals: set[str]) -> tuple[TemplateToken, ...]:
    template: list[TemplateToken] = []
    for tok in tokens:
        if tok.kind == "ident":
            if tok.text in nonterminals:
                template.append(Placeholder(tok.text))
            else:
                template.append(Sym(tok.text))
        elif tok.kind == "number":
            if "." in tok.text or "e" in tok.text or "E" in tok.text:
                raise GrammarSyntaxError(
                    "decimal literals are only valid as probability prefixes", tok.line
                )
            value = int(tok.text)
            if not _INT_MIN <= value <= _INT_MAX:
                raise GrammarSyntaxError(
                    f"integer literal {tok.text} is outside the 64-bit range", tok.line
                )
            template.append(IntLit(value))
        elif tok.kind == "string":
            template.append(StrLit(_unescape_string(tok.text, tok.line)))
        else:
            template.append(Sym(tok.text))
    return tuple(template)


def parse_grammar(text: str) -> Grammar:
    """Parse grammar text into a :class:`Grammar`.

    Rule order follows source order with alternatives expanded left to
    right, so rule indices are stable across round trips.
    """
    declarations: list[_Declaration] = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        tokens = _lex_line(line, line_no)
        if not tokens:
            continue
        declarations.append(_split_declaration(tokens, line_no))
    if not declarations:
        raise GrammarSyntaxError("grammar text contains no rules")

    nonterminals = {decl.lhs for decl in declarations}

    rules: list[Rule] = []
    probabilities: list[float | None] = []
    for decl in declarations:
        for alt in decl.alternatives:
            rules.append(Rule(decl.lhs, _to_template(alt.tokens, nonterminals)))
            probabilities.append(alt.probability)

    # Per-nonterminal probability validation: all-or-nothing, sum to 1.
    by_type: dict[str, list[int]] = {}
    for i, rule in enumerate(rules):
        by_type.setdefault(rule.lhs, []).append(i)

    weighted = [sym for sym, ids in by_type.items() if any(probabilities[i] is not None for i in ids)]
    if not weighted:
        return Grammar(rules)

    final = list(probabilities)
    for sym, ids in by_type.items():
        given = [final[i] for i in ids]
        if any(p is None for p in given):
            if any(p is not None for p in given):
                raise GrammarValidationError(
                    f"nonterminal {sym!r} has probabilities on some alternatives but not all"
                )
            for i in ids:
                final[i] = 1.0 / len(ids)
            continue
        total = sum(given)
        if abs(total - 1.0) > 1e-6:
            raise GrammarValidationError(
                f"probabilities for {sym!r} sum to {total!r}, not 1"
            )
        for i in ids:
            final[i] = final[i] / total
    return Grammar(rules, probabilities=final)


def _token_text(token: TemplateToken) -> str:
    if isinstance(token, Placeholder):
        return token.symbol
    if isinstance(token, Sym):
        return token.text
    return str(Literal(token.value))


def serialize_grammar(grammar: Grammar) -> str:
    """Grammar text that parses back to an equal grammar, one rule per line."""
    lines = []
    for i in grammar.indices:
        rule = grammar.rule(i)
        body = " ".join(_token_text(t) for t in rule.rhs)
        if grammar.has_probabilities:
            lines.append(f"{grammar.probability(i)!r} : {rule.lhs} = {body}")
        else:
            lines.append(f"{rule.lhs} = {body}")
    return "\n".join(lines) + "\n"
