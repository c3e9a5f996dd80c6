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

    @classmethod
    def from_bitstring(cls, sig: Signature, text: str) -> "World":
        if len(text) != sig.n_atoms:
            raise ValueError(
                f"bit string has {len(text)} characters, signature has {sig.n_atoms} atoms"
            )
        if set(text) - {"0", "1"}:
            raise ValueError(f"bit string must be 0s and 1s, got {text!r}")
        # checked first: int() would also take "_", whitespace and a sign
        return cls(sig, int(text[::-1] or "0", 2))

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


def enumerate_worlds(sig: Signature) -> list[World]:
    """All assignments, ordered lexicographically by truth tuple: the World of
    each row of Columns.every(sig), which raises TooManyAtoms past 20 atoms."""
    return [World(sig, b) for b in Columns.every(sig).words.ravel().tolist()]


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
    return lambda columns: columns[j]


def compile_formula(f: Formula, index: dict[str, int], leaf=_bit):
    """evaluate() compiled once for an atom index: a function of a world's
    ``bits`` that gives the formula's truth there as a 0/1 int.

    ``leaf(j)`` reads atom j; truth() passes a reader of a ``Columns``, and the
    function then gives one bool per row. Atom indices are resolved
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


# Flipping the low three bits of a byte index maps a uint64's little-endian
# byte order to the machine's.
_BYTE_FLIP = 0 if np.little_endian else 7


def _unpack(words: np.ndarray, j: int) -> np.ndarray:
    """Atom j at every row of a packed word matrix, as C-contiguous bool.

    Reads the one byte of each row that holds the atom's bit.
    """
    return (words.view(np.uint8)[:, j >> 3 ^ _BYTE_FLIP] & np.uint8(1 << (j & 7))) != 0


class Columns:
    """The world table: worlds over one ``signature`` as packed ``words``, one
    row per world (see pack()). Only of() and every() pack worlds.

    ``columns[j]`` is atom j at every row, unpacked from ``words`` the first
    time it is read and kept: C-contiguous and read-only, so every formula
    that reads atom j gets the same array. The kept columns take at most
    n_atoms x rows bytes, and only for the atoms read. Two threads that read
    a new atom at once may both unpack it; either array is right.
    """

    __slots__ = ("signature", "words", "_cache")

    def __init__(self, signature: Signature, words: np.ndarray):
        self.signature = signature
        self.words = words
        self._cache = {}

    @classmethod
    def of(cls, worlds) -> "Columns":
        """A nonempty world list as a table, rows in list order; raises
        ValueError when its worlds mix signatures."""
        sig = worlds[0].signature
        bits = [w.bits for w in worlds if w.signature is sig or w.signature == sig]
        if len(bits) != len(worlds):
            raise ValueError("worlds mix signatures")
        return cls(sig, pack(bits, sig.n_atoms))

    @classmethod
    def every(cls, sig: Signature) -> "Columns":
        """Every assignment, lexicographically by truth tuple: row k is the
        k-th binary number, atom 0 its most significant bit. Raises
        TooManyAtoms past 20 atoms."""
        n = sig.n_atoms
        if n > 20:
            raise TooManyAtoms(f"{n} atoms exceeds the enumeration cap of 20")
        bits = np.zeros(1, dtype=np.uint64)
        for j in reversed(range(n)):  # the atom added last varies slowest
            bits = np.concatenate((bits, bits | 1 << j))
        return cls(sig, bits.reshape(-1, 1))

    def __len__(self) -> int:
        return len(self.words)

    def __reduce__(self):
        return Columns, (self.signature, self.words)  # a copy unpacks again, read-only

    def __getitem__(self, j: int) -> np.ndarray:
        col = self._cache.get(j)
        if col is None:
            col = _unpack(self.words, j)
            col.flags.writeable = False
            self._cache[j] = col
        return col


def truth(f: Formula, columns: Columns) -> np.ndarray:
    """evaluate() at every row of ``columns``: one bool per row.

    This is compile_formula() over the table's signature with a column leaf,
    so both sides of every connective are evaluated and an unknown atom
    raises even where evaluate() would have short-circuited past it. A bare
    atom gives its cached column, which is read-only.
    """
    return compile_formula(f, columns.signature.atom_index, _column)(columns)
