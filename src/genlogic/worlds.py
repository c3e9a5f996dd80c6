"""Truth assignments packed into integers, enumeration and evaluation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .formulas import And, Atom, Exists, Forall, Formula, Iff, Implies, Not, Or
from .signature import Signature


class TooManyAtoms(ValueError):
    """Exhaustive world enumeration would exceed the cap.

    Signals that only the data-driven inference paths are usable for this
    signature.
    """


@dataclass(frozen=True, eq=False, slots=True)
class World:
    """One truth assignment; bit j of ``bits`` is ground atom j."""

    signature: Signature
    bits: int

    def __post_init__(self):
        if self.bits < 0 or self.bits >> self.signature.n_atoms:
            raise ValueError("bits outside the signature's atom range")

    def truths(self) -> tuple[int, ...]:
        return tuple(self.bits >> j & 1 for j in range(self.signature.n_atoms))

    def bitstring(self) -> str:
        """Atom values in signature order, atom 0 first."""
        return "".join(map(str, self.truths()))

    def hamming(self, other: "World") -> int:
        return (self.bits ^ other.bits).bit_count()

    @classmethod
    def from_truths(cls, sig: Signature, values) -> "World":
        vals = list(values)
        if len(vals) != sig.n_atoms:
            raise ValueError(f"expected {sig.n_atoms} truth values, got {len(vals)}")
        bits = 0
        for j, v in enumerate(vals):
            if v not in (0, 1):
                raise ValueError(f"truth value must be 0 or 1, got {v!r}")
            if v:
                bits |= 1 << j
        return cls(sig, bits)

    @classmethod
    def from_bitstring(cls, sig: Signature, text: str) -> "World":
        if len(text) != sig.n_atoms:
            raise ValueError(
                f"bit string has {len(text)} characters, signature has {sig.n_atoms} atoms"
            )
        if set(text) - {"0", "1"}:
            raise ValueError(f"bit string must be 0s and 1s, got {text!r}")
        return cls.from_truths(sig, [int(c) for c in text])

    def __eq__(self, other):
        if not isinstance(other, World):
            return NotImplemented
        if self.bits != other.bits:
            return False
        return self.signature is other.signature or self.signature == other.signature

    def __hash__(self):
        return hash(self.bits)

    def __repr__(self):
        n = self.signature.n_atoms
        if n <= 32:
            return f"World({self.bitstring()})"
        return f"World({n} atoms, {self.bits.bit_count()} true)"


def enumerate_worlds(sig: Signature, cap: int = 20) -> list[World]:
    """All assignments, ordered lexicographically by truth tuple.

    The first declared atom varies slowest: row k reads as the k-th binary
    number with atom 0 as its most significant bit. Raises TooManyAtoms past
    ``cap`` atoms; larger vocabularies are served by the data-driven paths.
    """
    n = sig.n_atoms
    if n > cap:
        raise TooManyAtoms(f"{n} atoms exceeds the enumeration cap of {cap}")
    k = np.arange(1 << n)
    bits = np.zeros_like(k)
    for j in range(n):
        bits |= (k >> (n - 1 - j) & 1) << j
    return [World(sig, b) for b in bits.tolist()]


def evaluate(f: Formula, w: World) -> bool:
    """Classical truth of a grounded formula at a world."""
    match f:
        case Atom() as a:
            idx = w.signature.atom_index.get(a.key())
            if idx is None:
                raise ValueError(f"atom {a.key()!r} is not in the signature")
            return bool(w.bits >> idx & 1)
        case Not(body):
            return not evaluate(body, w)
        case And(l, r):
            return evaluate(l, w) and evaluate(r, w)
        case Or(l, r):
            return evaluate(l, w) or evaluate(r, w)
        case Implies(l, r):
            return (not evaluate(l, w)) or evaluate(r, w)
        case Iff(l, r):
            return evaluate(l, w) == evaluate(r, w)
        case Forall() | Exists():
            raise ValueError("quantified formulas must be grounded before evaluation")
    raise TypeError(f"not a formula: {f!r}")


def _bit(j: int):
    return lambda b: b >> j & 1


def _column(j: int):
    return lambda words: (words[:, j >> 6] >> (j & 63) & 1).astype(bool)


def compile_formula(f: Formula, index: dict[str, int], leaf=_bit):
    """evaluate() compiled once for an atom index: a function of a world's
    ``bits`` that gives the formula's truth there as a 0/1 int.

    ``leaf(j)`` reads atom j; truth() passes a reader of packed word columns,
    and the function then gives one bool per row. Atom indices are resolved
    here, so an unknown atom on either side of a connective, a quantifier or
    a non-formula raises at compile time. Both sides of every connective are
    evaluated: nothing short-circuits.
    """
    match f:
        case Atom() as a:
            j = index.get(a.key())
            if j is None:
                raise ValueError(f"atom {a.key()!r} is not in the signature")
            return leaf(j)
        case Not(body):
            g = compile_formula(body, index, leaf)
            return lambda b: True ^ g(b)  # not ~: ~1 is -2 on a Python int
        case And(l, r):
            g, h = compile_formula(l, index, leaf), compile_formula(r, index, leaf)
            return lambda b: g(b) & h(b)
        case Or(l, r):
            g, h = compile_formula(l, index, leaf), compile_formula(r, index, leaf)
            return lambda b: g(b) | h(b)
        case Implies(l, r):
            g, h = compile_formula(l, index, leaf), compile_formula(r, index, leaf)
            return lambda b: (True ^ g(b)) | h(b)
        case Iff(l, r):
            g, h = compile_formula(l, index, leaf), compile_formula(r, index, leaf)
            return lambda b: True ^ g(b) ^ h(b)
        case Forall() | Exists():
            raise ValueError("quantified formulas must be grounded before evaluation")
    raise TypeError(f"not a formula: {f!r}")


def pack(bits, n_atoms: int) -> np.ndarray:
    """World bit integers as a uint64 word matrix, shape (n, ceil(n_atoms / 64)).

    Word k of a row holds atoms 64k..64k+63, the lowest atom in its lowest bit.
    """
    if n_atoms <= 64:
        return np.fromiter(bits, dtype=np.uint64).reshape(-1, 1)
    n_words = -(-n_atoms // 64)
    raw = b"".join(b.to_bytes(8 * n_words, "little") for b in bits)
    return np.frombuffer(raw, dtype="<u8").astype(np.uint64).reshape(-1, n_words)


def truth(f: Formula, words: np.ndarray, index: dict[str, int]) -> np.ndarray:
    """evaluate() at every row of a packed word matrix: one bool per row.

    This is compile_formula() with a word-column leaf, so both sides of every
    connective are evaluated and an unknown atom raises even where evaluate()
    would have short-circuited past it.
    """
    return compile_formula(f, index, _column)(words)
