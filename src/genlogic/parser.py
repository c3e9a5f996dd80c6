"""Recursive-descent parser for formulas and conditional query strings.

Grammar, loosest to tightest: ``<->`` and ``->`` are right associative,
``|`` and ``&`` left associative, ``~`` and the quantifiers bind tightest.
A quantifier body extends over one negation-level unit, so a conjunction
under a quantifier needs parentheses: ``forall x. (p(x) & q)``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .formulas import (
    And,
    Atom,
    Const,
    Exists,
    Forall,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    Var,
)
from .signature import Signature


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


_PUNCT = (
    ("<->", "IFF"),
    ("->", "IMP"),
    ("~", "NOT"),
    ("&", "AND"),
    ("|", "OR"),
    ("(", "LPAREN"),
    (")", "RPAREN"),
    (",", "COMMA"),
    (".", "DOT"),
)


def _tokenize(text: str) -> list[_Token]:
    out: list[_Token] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isalpha() or c == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = word if word in ("forall", "exists") else "IDENT"
            out.append(_Token(kind, word, i))
            i = j
            continue
        for lit, kind in _PUNCT:
            if text.startswith(lit, i):
                out.append(_Token(kind, lit, i))
                i += len(lit)
                break
        else:
            raise ParseError(f"unexpected character {c!r}", i)
    out.append(_Token("EOF", "", n))
    return out


class _Parser:
    def __init__(self, tokens: list[_Token], sig: Signature):
        self.tokens = tokens
        self.sig = sig
        self.i = 0
        self.scope: list[str] = []

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def take(self, kind: str | None = None) -> _Token:
        tok = self.tokens[self.i]
        if kind is not None and tok.kind != kind:
            what = tok.text if tok.text else "end of input"
            raise ParseError(f"expected {kind}, found {what!r}", tok.pos)
        self.i += 1
        return tok

    def formula(self) -> Formula:
        return self.iff()

    def iff(self) -> Formula:
        parts = [self.imp()]
        while self.peek().kind == "IFF":
            self.take()
            parts.append(self.imp())
        out = parts[-1]
        for p in reversed(parts[:-1]):  # right associative
            out = Iff(p, out)
        return out

    def imp(self) -> Formula:
        left = self.disjunction()
        if self.peek().kind == "IMP":
            self.take()
            return Implies(left, self.imp())
        return left

    def disjunction(self) -> Formula:
        out = self.conjunction()
        while self.peek().kind == "OR":
            self.take()
            out = Or(out, self.conjunction())
        return out

    def conjunction(self) -> Formula:
        out = self.negation()
        while self.peek().kind == "AND":
            self.take()
            out = And(out, self.negation())
        return out

    def negation(self) -> Formula:
        if self.peek().kind == "NOT":
            self.take()
            return Not(self.negation())
        return self.atom_term()

    def atom_term(self) -> Formula:
        tok = self.peek()
        if tok.kind == "LPAREN":
            self.take()
            out = self.formula()
            self.take("RPAREN")
            return out
        if tok.kind in ("forall", "exists"):
            self.take()
            var = self.take("IDENT")
            self.take("DOT")
            self.scope.append(var.text)
            try:
                body = self.negation()
            finally:
                self.scope.pop()
            node = Forall if tok.kind == "forall" else Exists
            return node(var.text, body)
        if tok.kind == "IDENT":
            return self.atom()
        what = tok.text if tok.text else "end of input"
        raise ParseError(f"expected a formula, found {what!r}", tok.pos)

    def atom(self) -> Formula:
        name_tok = self.take("IDENT")
        name = name_tok.text
        if self.peek().kind == "LPAREN":
            self.take()
            args = [self.term()]
            while self.peek().kind == "COMMA":
                self.take()
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
        if tok.kind != "IDENT":
            what = tok.text if tok.text else "end of input"
            raise ParseError(f"expected a term, found {what!r}", tok.pos)
        self.take()
        name = tok.text
        if name in self.scope:  # bound variables shadow constants
            return Var(name)
        if name in self.sig.constant_set:
            return Const(name)
        raise ParseError(f"unbound variable or unknown constant {name!r}", tok.pos)


def parse_formula(text: str, sig: Signature) -> Formula:
    """Parse formula text against the signature's vocabulary."""
    p = _Parser(_tokenize(text), sig)
    out = p.formula()
    tok = p.peek()
    if tok.kind != "EOF":
        raise ParseError(f"unexpected trailing input {tok.text!r}", tok.pos)
    return out


def _split_top(text: str, sep: str) -> list[str]:
    """Split on a separator at parenthesis depth zero."""
    parts: list[str] = []
    depth = 0
    start = 0
    for i, c in enumerate(text):
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
        elif c == sep and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return parts


def parse_premises(text: str, sig: Signature) -> tuple[Formula, ...]:
    """Parse a bare ``;``-separated formula list; empty text means none."""
    if not text.strip():
        return ()
    return tuple(parse_formula(part, sig) for part in _split_top(text, ";"))


def parse_query(text: str, sig: Signature) -> tuple[Formula, tuple[Formula, ...]]:
    """Parse ``conclusion | premise; premise; ...`` (premises optional).

    The first ``|`` outside parentheses separates the conclusion from the
    premise list, so a disjunction in the conclusion must be parenthesized;
    later bars belong to the premises as ordinary disjunctions.
    """
    head, *rest = _split_top(text, "|")
    if not rest:
        return parse_formula(text, sig), ()
    conclusion = parse_formula(head, sig)
    premises = tuple(
        parse_formula(part, sig) for part in _split_top(text[len(head) + 1 :], ";")
    )
    return conclusion, premises
