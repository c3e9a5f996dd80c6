"""Parser for formulas and conditional query strings.

The binary connectives, their precedence and their grouping come from the
one table ``formulas.BINARY``: ``<->`` binds loosest, then ``->`` (both
group to the right), then ``|`` and ``&`` (both group to the left). The
parser climbs that table by precedence (Pratt, 1973), collecting each run
of one connective and folding it to its side. ``~`` and the quantifiers
bind tightest; a quantifier body extends over one negation-level unit, so
a conjunction under a quantifier needs parentheses: ``forall x. (p(x) & q)``.

One regex reads the whole text into tokens, identifiers by
``signature.NAME``. ``;`` is a token too, so a query's conclusion, its
``|`` and its premises come from one token stream, and every
``ParseError`` position counts from the start of the whole text.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import reduce

from .formulas import BINARY, Atom, Const, Exists, Forall, Formula, Not, Or, Var
from .signature import NAME, RESERVED, Signature


class ParseError(ValueError):
    """Syntax or vocabulary error, carrying the character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    pos: int


# Token kinds of the other punctuation; a connective's kind is its symbol.
_PUNCT = {"~": "NOT", "(": "LPAREN", ")": "RPAREN", ",": "COMMA", ".": "DOT", ";": "SEMI"}
_SYMBOLS = sorted([*_PUNCT, *(s for s, _, _ in BINARY.values())], key=len, reverse=True)
_TOKEN = re.compile(
    rf"\s*(?:(?P<IDENT>{NAME})|(?P<PUNCT>{'|'.join(map(re.escape, _SYMBOLS))})"
    r"|(?P<EOF>\Z)|(?P<BAD>.))",
    re.DOTALL,
)

# symbol -> (node, precedence, groups_right), read from formulas.BINARY.
_OPS = {symbol: (node, prec, right) for node, (symbol, prec, right) in BINARY.items()}
# A query's conclusion ends at a top-level "|": its disjunctions need parentheses.
_CONCLUSION = {symbol: op for symbol, op in _OPS.items() if op[0] is not Or}


def _tokenize(text: str) -> list[_Token]:
    out: list[_Token] = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        word, pos = m[kind], m.start(kind)
        if kind == "BAD":
            raise ParseError(f"unexpected character {word!r}", pos)
        if kind == "PUNCT":
            kind = _PUNCT.get(word, word)
        elif word in RESERVED:
            kind = word
        out.append(_Token(kind, word, pos))
    return out


class _Parser:
    def __init__(self, text: str, sig: Signature):
        self.tokens = _tokenize(text)
        self.sig = sig
        self.i = 0
        self.scope: list[str] = []

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def error(self, expected: str) -> ParseError:
        tok = self.peek()
        return ParseError(f"expected {expected}, found {tok.text or 'end of input'!r}",
                          tok.pos)

    def take(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise self.error(kind)
        self.i += 1
        return tok

    def skip(self, kind: str) -> bool:
        """Consume the next token when it has this kind."""
        if self.tokens[self.i].kind != kind:
            return False
        self.i += 1
        return True

    def end(self, out):
        tok = self.peek()
        if tok.kind != "EOF":
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.pos)
        return out

    def formula(self, ops=_OPS, min_prec: int = 0) -> Formula:
        """Operands joined by the connectives of ops that bind at least min_prec."""
        out = self.negation()
        while (kind := self.peek().kind) in ops and ops[kind][1] >= min_prec:
            node, prec, groups_right = ops[kind]
            parts = [out]
            while self.skip(kind):
                parts.append(self.formula(ops, prec + 1))
            if groups_right:
                out = reduce(lambda right, left: node(left, right), reversed(parts))
            else:
                out = reduce(node, parts)
        return out

    def premises(self) -> tuple[Formula, ...]:
        out = [self.formula()]
        while self.skip("SEMI"):
            out.append(self.formula())
        return tuple(out)

    def negation(self) -> Formula:
        tok = self.peek()
        if tok.kind == "IDENT":
            return self.atom()
        if self.skip("NOT"):
            return Not(self.negation())
        if self.skip("LPAREN"):
            out = self.formula()
            self.take("RPAREN")
            return out
        if self.skip("forall") or self.skip("exists"):
            var = self.take("IDENT")
            self.take("DOT")
            self.scope.append(var.text)
            try:
                body = self.negation()
            finally:
                self.scope.pop()
            return (Forall if tok.kind == "forall" else Exists)(var.text, body)
        raise self.error("a formula")

    def atom(self) -> Formula:
        name_tok = self.take("IDENT")
        name = name_tok.text
        if self.skip("LPAREN"):
            args = [self.term()]
            while self.skip("COMMA"):
                args.append(self.term())
            self.take("RPAREN")
            arity = self.sig.predicate_arity.get(name)
            if arity is None:
                raise ParseError(f"unknown predicate {name!r}", name_tok.pos)
            if arity != len(args):
                raise ParseError(
                    f"predicate {name!r} expects {arity} argument(s), got {len(args)}",
                    name_tok.pos,
                )
            return Atom(name, tuple(args))
        if name in self.sig.proposition_set:
            return Atom(name)
        if name in self.sig.predicate_arity:
            raise ParseError(f"predicate {name!r} used without arguments", name_tok.pos)
        if name in self.scope:
            raise ParseError(f"variable {name!r} used as a formula", name_tok.pos)
        if name in self.sig.constant_set:
            raise ParseError(f"constant {name!r} used as a formula", name_tok.pos)
        raise ParseError(f"unknown identifier {name!r}", name_tok.pos)

    def term(self):
        tok = self.peek()
        if not self.skip("IDENT"):
            raise self.error("a term")
        name = tok.text
        if name in self.scope:  # bound variables shadow constants
            return Var(name)
        if name in self.sig.constant_set:
            return Const(name)
        raise ParseError(f"unbound variable or unknown constant {name!r}", tok.pos)


def parse_formula(text: str, sig: Signature) -> Formula:
    """Parse formula text against the signature's vocabulary."""
    p = _Parser(text, sig)
    return p.end(p.formula())


def parse_premises(text: str, sig: Signature) -> tuple[Formula, ...]:
    """Parse a bare ``;``-separated formula list; empty text means none."""
    p = _Parser(text, sig)
    if p.peek().kind == "EOF":
        return ()
    return p.end(p.premises())


def parse_query(text: str, sig: Signature) -> tuple[Formula, tuple[Formula, ...]]:
    """Parse ``conclusion | premise; premise; ...`` (premises optional).

    The first ``|`` outside parentheses separates the conclusion from the
    premise list, so a disjunction in the conclusion must be parenthesized;
    later bars belong to the premises as ordinary disjunctions.
    """
    p = _Parser(text, sig)
    conclusion = p.formula(_CONCLUSION)
    return p.end((conclusion, p.premises() if p.skip("|") else ()))
