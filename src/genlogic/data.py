"""Datasets of observed worlds and explicit model distributions."""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from numbers import Rational

import numpy as np

from .signature import Signature
from .worlds import World, enumerate_worlds, pack


class _Packed:
    """The array form the engine scores, built on first use: packed ``words``,
    ``masses`` as integer numerators over ``denominator`` (int64 while they sum
    below 2**63, so no partial sum overflows, else Python ints; float64 over 1
    when any weight is not rational) and the ``positive`` mask of mass > 0.
    """

    @cached_property
    def words(self) -> np.ndarray:
        return pack((w.bits for w in self._columns()[0]), self.signature.n_atoms)

    @cached_property
    def _numerators(self) -> tuple[np.ndarray, int]:
        values = self._columns()[1]
        if not all(isinstance(v, Rational) for v in values):
            return np.array([float(v) for v in values]), 1
        den = math.lcm(*(v.denominator for v in values))
        nums = [v.numerator * (den // v.denominator) for v in values]
        return np.array(nums, dtype=np.int64 if sum(nums) < 2**63 else object), den

    masses = property(lambda self: self._numerators[0])
    denominator = property(lambda self: self._numerators[1])

    @cached_property
    def positive(self) -> np.ndarray:
        return np.asarray(self.masses > 0, dtype=bool)


@dataclass(frozen=True)
class Dataset(_Packed):
    """Multiset of observed worlds, kept as (world, multiplicity) entries."""

    entries: tuple[tuple[World, int], ...]

    def __post_init__(self):
        if not self.entries:
            raise ValueError("a dataset needs at least one entry")
        sig = self.entries[0][0].signature
        for w, count in self.entries:
            if not (w.signature is sig or w.signature == sig):
                raise ValueError("dataset entries mix signatures")
            if not isinstance(count, int) or count < 1:
                raise ValueError(f"multiplicity must be a positive integer, got {count!r}")

    @property
    def signature(self) -> Signature:
        return self.entries[0][0].signature

    @property
    def size(self) -> int:
        """Total number of observations, multiplicities included."""
        return sum(c for _, c in self.entries)

    @classmethod
    def of(cls, worlds) -> "Dataset":
        return cls(tuple((w, 1) for w in worlds))

    @classmethod
    def weighted(cls, pairs) -> "Dataset":
        return cls(tuple((w, c) for w, c in pairs))

    def extended(self, world: World, count: int = 1) -> "Dataset":
        """A new dataset with one more entry appended."""
        return Dataset(self.entries + ((world, count),))

    def _columns(self):
        return [w for w, _ in self.entries], [c for _, c in self.entries]


def dataset_from_csv(text: str, sig: Signature) -> Dataset:
    """Parse the 0/1 dataset format.

    The header names every ground atom of the signature exactly once, in
    any order, optionally followed by a final ``count`` column of positive
    multiplicities. Body cells are 0 or 1; each row is one entry.
    """
    reader = csv.reader(io.StringIO(text))
    rows = [row for row in reader if row and any(cell.strip() for cell in row)]
    if not rows:
        raise ValueError("empty dataset file")
    header = [h.strip() for h in rows[0]]
    has_count = bool(header) and header[-1] == "count"
    names = header[:-1] if has_count else header
    if sorted(names) != sorted(sig.atoms):
        missing = sorted(set(sig.atoms) - set(names))
        extra = sorted(set(names) - set(sig.atoms))
        detail = []
        if missing:
            detail.append(f"missing {missing}")
        if extra:
            detail.append(f"unknown {extra}")
        if not detail:
            detail.append("repeated column names")
        raise ValueError(
            "header does not match the signature's atoms: " + "; ".join(detail)
        )
    perm = [sig.atom_index[name] for name in names]
    entries = []
    expected = len(names) + (1 if has_count else 0)
    for lineno, row in enumerate(rows[1:], start=2):
        cells = [c.strip() for c in row]
        if len(cells) != expected:
            raise ValueError(f"row {lineno}: expected {expected} cells, got {len(cells)}")
        bits = 0
        for pos, cell in zip(perm, cells):
            if cell == "1":
                bits |= 1 << pos
            elif cell != "0":
                raise ValueError(f"row {lineno}: cells must be 0 or 1, got {cell!r}")
        count = 1
        if has_count:
            last = cells[-1]
            if not last.isdigit() or int(last) < 1:
                raise ValueError(
                    f"row {lineno}: count must be a positive integer, got {last!r}"
                )
            count = int(last)
        entries.append((World(sig, bits), count))
    if not entries:
        raise ValueError("dataset has a header but no rows")
    return Dataset(tuple(entries))


def read_dataset_csv(path, sig: Signature) -> Dataset:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return dataset_from_csv(fh.read(), sig)


@dataclass(frozen=True)
class ModelDistribution(_Packed):
    """Probability weights over an explicit list of worlds.

    Weights must be nonnegative and sum to one: exactly so when every
    weight is rational, within 1e-12 otherwise.
    """

    worlds: tuple[World, ...]
    weights: tuple

    def __post_init__(self):
        if not self.worlds:
            raise ValueError("a distribution needs at least one world")
        if len(self.worlds) != len(self.weights):
            raise ValueError("worlds and weights differ in length")
        for wt in self.weights:
            if not wt >= 0:  # also rejects nan
                raise ValueError(f"negative or nan weight {wt!r}")
        total = sum(self.weights)
        if all(isinstance(wt, Rational) for wt in self.weights):
            if total != 1:
                raise ValueError(f"weights sum to {total}, expected exactly 1")
        elif abs(total - 1) > 1e-12:
            raise ValueError(f"weights sum to {total!r}, expected 1 within 1e-12")

    @property
    def signature(self) -> Signature:
        return self.worlds[0].signature

    def _columns(self):
        return self.worlds, self.weights

    def support(self) -> list[World]:
        """The possible worlds: those with nonzero weight."""
        return [w for w, keep in zip(self.worlds, self.positive.tolist()) if keep]


def distribution_from_text(text: str, sig: Signature, exact: bool = True) -> ModelDistribution:
    """Parse ``bitstring weight`` lines over the signature's enumerated worlds.

    The bit string lists atom values in signature order (atom 0 first);
    worlds not mentioned get weight zero. Weights may be decimals or
    fractions like 2/5. They must sum to 1 within 1e-9 and are divided by
    their exact sum, so the result is exactly normalized. With exact=False
    the weights become floats.
    """
    worlds = enumerate_worlds(sig)
    weights: list = [None] * len(worlds)
    parsed: dict[str, Fraction] = {}  # equal weight texts parse once
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 2:
            raise ValueError(f"line {lineno}: expected 'bits weight', got {raw!r}")
        bits_text, weight_text = fields
        try:
            World.from_bitstring(sig, bits_text)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
        i = int(bits_text, 2)  # its row in enumerate_worlds order
        if weights[i] is not None:
            raise ValueError(f"line {lineno}: world {bits_text} listed twice")
        if weight_text not in parsed:
            try:
                parsed[weight_text] = Fraction(weight_text)
            except (ValueError, ZeroDivisionError) as exc:
                raise ValueError(f"line {lineno}: bad weight {weight_text!r}") from exc
            if parsed[weight_text] < 0:
                raise ValueError(f"line {lineno}: negative weight {weight_text}")
        weights[i] = parsed[weight_text]
    weights = [Fraction(0) if wt is None else wt for wt in weights]
    total = sum(weights)
    if abs(total - 1) > Fraction(1, 10**9):
        raise ValueError(f"weights sum to {float(total)}, expected 1 within 1e-9")
    share = {wt: wt / total for wt in set(weights)}  # equal weights share one value
    if not exact:
        share = {wt: float(v) for wt, v in share.items()}
    return ModelDistribution(tuple(worlds), tuple(share[wt] for wt in weights))


def read_distribution(path, sig: Signature, exact: bool = True) -> ModelDistribution:
    with open(path, "r", encoding="utf-8") as fh:
        return distribution_from_text(fh.read(), sig, exact=exact)
