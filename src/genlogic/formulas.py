"""Formula syntax trees, grounding, and the canonical text rendering."""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from .signature import Signature


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    name: str


Term = Var | Const


class Formula:
    """Base class for the node dataclasses below."""

    __slots__ = ()


@dataclass(frozen=True)
class Atom(Formula):
    """A proposition, or a predicate applied to terms."""

    name: str
    args: tuple[Term, ...] = ()

    def key(self) -> str:
        """Ground-atom name as used by Signature.atom_index."""
        if not self.args:
            return self.name
        parts = []
        for t in self.args:
            if not isinstance(t, Const):
                raise ValueError(f"atom {pretty(self)!r} is not ground")
            parts.append(t.name)
        return f"{self.name}({','.join(parts)})"


@dataclass(frozen=True)
class Not(Formula):
    body: Formula


@dataclass(frozen=True)
class Binary(Formula):
    """Base of the four binary connectives; BINARY gives their syntax."""

    left: Formula
    right: Formula


class And(Binary):
    pass


class Or(Binary):
    pass


class Implies(Binary):
    pass


class Iff(Binary):
    pass


# The binary connectives: symbol, precedence (higher binds tighter) and
# whether a chain groups to the right. The parser and pretty both read it.
BINARY = {
    Iff: ("<->", 1, True),
    Implies: ("->", 2, True),
    Or: ("|", 3, False),
    And: ("&", 4, False),
}


@dataclass(frozen=True)
class Forall(Formula):
    var: str
    body: Formula


@dataclass(frozen=True)
class Exists(Formula):
    var: str
    body: Formula


def ground(f: Formula, sig: Signature) -> Formula:
    """Expand quantifiers over the declared constants.

    A universal becomes the conjunction of its body instantiated at each
    constant in declaration order, an existential the disjunction; nesting
    expands recursively. A variable takes the constant of its innermost
    enclosing binder, so an inner quantifier over the same name shadows the
    outer one; a variable no binder encloses stays a Var. Raises when a
    quantifier is grounded against a signature with no constants, since the
    tree has no boolean literals to stand for an empty expansion.
    """
    def walk(f: Formula, env: dict[str, Const]) -> Formula:
        match f:
            case Atom(name, args):
                args = tuple(env.get(t.name, t) if isinstance(t, Var) else t for t in args)
                return Atom(name, args)
            case Not(body):
                return Not(walk(body, env))
            case Binary(l, r):
                return type(f)(walk(l, env), walk(r, env))
            case Forall(var, body) | Exists(var, body):
                if not sig.constants:
                    raise ValueError(
                        f"cannot ground {pretty(f)!r}: the signature declares no constants"
                    )
                parts = [walk(body, {**env, var: Const(c)}) for c in sig.constants]
                return reduce(And if isinstance(f, Forall) else Or, parts)
        raise TypeError(f"not a formula: {f!r}")

    return walk(f, {})


_NEG = 5  # negation and quantifiers bind tighter than every BINARY entry


def pretty(f: Formula, _level: int = 0) -> str:
    """Render in the concrete syntax; the output reparses to an equal tree."""
    match f:
        case Atom(name, args):
            return name if not args else f"{name}({','.join(t.name for t in args)})"
        case Not(body):
            text, mine = "~" + pretty(body, _NEG), _NEG
        case Binary(l, r):
            symbol, mine, groups_right = BINARY[type(f)]
            # only the operand on the grouping side may repeat the connective bare
            lo, ro = (mine + 1, mine) if groups_right else (mine, mine + 1)
            text = f"{pretty(l, lo)} {symbol} {pretty(r, ro)}"
        case Forall(var, body) | Exists(var, body):
            word = "forall" if isinstance(f, Forall) else "exists"
            text, mine = f"{word} {var}. {pretty(body, _NEG)}", _NEG
        case _:
            raise TypeError(f"not a formula: {f!r}")
    if mine < _level:
        return f"({text})"
    return text
