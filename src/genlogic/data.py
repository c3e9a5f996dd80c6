"""Datasets of observed worlds and explicit model distributions."""

from __future__ import annotations

import csv
import io
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

import numpy as np

from .signature import Signature
from .worlds import Columns, World
from .worlds import enumerate_worlds  # unused here: perfbench wraps data.enumerate_worlds


def _pack(source, worlds, masses, denominator: int = 1) -> None:
    """Set the arrays the engine reads on a frozen source at construction:
    ``columns``, the world table (Columns.of() raises on mixed signatures),
    ``masses`` over ``denominator`` and the ``positive`` mask. Integer masses
    are int64 while they sum below 2**63, so no partial sum overflows, else
    Python ints."""
    if isinstance(masses, list):
        masses = np.array(masses, dtype=np.int64 if sum(masses) < 2**63 else object)
    source.__dict__.update(columns=Columns.of(worlds), masses=masses,
                           denominator=denominator, positive=masses > 0)


@dataclass(frozen=True)
class Dataset:
    """Multiset of observed worlds, kept as (world, multiplicity) entries;
    the multiplicities are the masses ``_pack`` sets, over 1."""

    entries: tuple[tuple[World, int], ...]

    def __post_init__(self):
        if not self.entries:
            raise ValueError("a dataset needs at least one entry")
        for _, count in self.entries:
            if not isinstance(count, int) or count < 1:
                raise ValueError(f"multiplicity must be a positive integer, got {count!r}")
        _pack(self, [w for w, _ in self.entries], [c for _, c in self.entries])

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


def dataset_from_csv(text: str, sig: Signature) -> Dataset:
    """Parse the 0/1 dataset format.

    The header names every ground atom once, in any order, then optionally a
    ``count`` column of positive multiplicities (none when ``count`` is an atom
    and the header has one name per atom). Atom cells are 0 or 1; a row is an entry.
    """
    reader = csv.reader(io.StringIO(text))
    rows = [row for row in reader if row and any(cell.strip() for cell in row)]
    if not rows:
        raise ValueError("empty dataset file")
    header = [h.strip() for h in rows[0]]
    has_count = header[-1] == "count" and not ("count" in sig.atom_index
                                               and len(header) == sig.n_atoms)
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
    for lineno, row in enumerate(rows[1:], start=2):
        cells = [c.strip() for c in row]
        if len(cells) != len(header):
            raise ValueError(f"row {lineno}: expected {len(header)} cells, got {len(cells)}")
        bits = 0
        for pos, cell in zip(perm, cells):
            if cell == "1":
                bits |= 1 << pos
            elif cell != "0":
                raise ValueError(f"row {lineno}: cells must be 0 or 1, got {cell!r}")
        count = 1
        if has_count:
            last = cells[-1]
            if not last.isdecimal() or int(last) < 1:
                raise ValueError(
                    f"row {lineno}: count must be a positive integer, got {last!r}"
                )
            count = int(last)
        entries.append((World(sig, bits), count))
    if not entries:
        raise ValueError("dataset has a header but no rows")
    return Dataset(tuple(entries))


def read_dataset_csv(path, sig: Signature) -> Dataset:
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        return dataset_from_csv(fh.read(), sig)


@dataclass(frozen=True)
class ModelDistribution:
    """Probability weights over an explicit list of worlds.

    Weights must be nonnegative and sum to one: exactly so when every
    weight is rational, within 1e-12 otherwise. ``_pack`` sets rational
    weights as numerators over their lcm denominator, others as float64 over 1.
    """

    worlds: tuple[World, ...]
    weights: tuple

    def __post_init__(self):
        if not self.worlds:
            raise ValueError("a distribution needs at least one world")
        if len(self.worlds) != len(self.weights):
            raise ValueError("worlds and weights differ in length")
        if all(isinstance(wt, Rational) for wt in self.weights):
            den = math.lcm(*(wt.denominator for wt in self.weights))
            nums = [wt.numerator * (den // wt.denominator) for wt in self.weights]
            negative = [wt for wt, num in zip(self.weights, nums) if num < 0]
            if negative:
                raise ValueError(f"negative or nan weight {negative[0]!r}")
            if sum(nums) != den:
                raise ValueError(f"weights sum to {Fraction(sum(nums), den)}, expected exactly 1")
            _pack(self, self.worlds, nums, den)
            return
        for wt in self.weights:
            if not wt >= 0:  # also rejects nan
                raise ValueError(f"negative or nan weight {wt!r}")
        total = sum(self.weights)
        if abs(total - 1) > 1e-12:
            raise ValueError(f"weights sum to {total!r}, expected 1 within 1e-12")
        _pack(self, self.worlds, np.array([float(wt) for wt in self.weights]))

    @property
    def signature(self) -> Signature:
        return self.worlds[0].signature

    def support(self) -> list[World]:
        """The possible worlds: those with nonzero weight."""
        return [w for w, keep in zip(self.worlds, self.positive.tolist()) if keep]


def distribution_from_text(text: str, sig: Signature, exact: bool = True) -> ModelDistribution:
    """Parse ``bitstring weight`` lines into a distribution over the listed worlds.

    Atom values are in signature order (atom 0 first); only the listed worlds
    are kept, sorted by bit string. Weights (decimals or fractions like 2/5)
    must sum to 1 within 1e-9 and are divided by their exact sum. With
    exact=False they become floats, and a positive one that rounds to 0.0 raises.
    """
    worlds: dict[int, World] = {}  # enumeration row -> world
    rows: dict[int, str] = {}  # enumeration row -> weight text
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
            world = World.from_bitstring(sig, bits_text)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
        if (i := int(bits_text, 2)) in rows:
            raise ValueError(f"line {lineno}: world {bits_text} listed twice")
        worlds[i], rows[i] = world, weight_text
        if weight_text not in parsed:
            try:
                parsed[weight_text] = Fraction(weight_text)
            except (ValueError, ZeroDivisionError) as exc:
                raise ValueError(f"line {lineno}: bad weight {weight_text!r}") from exc
            if parsed[weight_text] < 0:
                raise ValueError(f"line {lineno}: negative weight {weight_text}")
    total = sum(k * parsed[t] for t, k in Counter(rows.values()).items())
    if abs(total - 1) > Fraction(1, 10**9):
        raise ValueError(f"weights sum to {float(total)}, expected 1 within 1e-9")
    share = {t: v / total if exact else float(v / total) for t, v in parsed.items()}
    for t, v in share.items():
        if v == 0 < parsed[t]:  # a positive weight too small for a float
            raise ValueError(f"weight {t} rounds to 0.0 as a float")
    order = sorted(rows)
    return ModelDistribution(tuple(map(worlds.get, order)), tuple(share[rows[i]] for i in order))


def read_distribution(path, sig: Signature, exact: bool = True) -> ModelDistribution:
    with open(path, "r", encoding="utf-8-sig") as fh:
        return distribution_from_text(fh.read(), sig, exact=exact)
