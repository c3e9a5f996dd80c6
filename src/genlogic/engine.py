"""Probabilistic inference over worlds in three likelihood regimes.

A query asks for the probability of a conclusion given a multiset of premise
formulas. Probability mass comes either from an explicit distribution over
enumerated worlds or from a dataset of observations, in which case the
relative-frequency weights are used implicitly and never materialized.
Premises act through per-world Bernoulli likelihood factors: a formula
contributes mu when it holds at a world and 1 - mu when it does not, and
distinct formulas are conditionally independent given the world, so a
duplicated premise contributes its factor twice. The regimes differ in how
mu is treated:

* ``ONE``: mu = 1, classical conditioning. Undefined when no possible world
  satisfies every premise.
* ``LIMIT_ONE``: the limit mu -> 1 from below. Equivalent to restricting to
  the possible worlds of maximal premise score, hence always defined.
* ``fixed(mu)``: an explicit mu strictly between 0 and 1; always defined.

Arithmetic follows the numeric types supplied: exact fractions in, exact
fractions out; floats in, floats out. Dataset paths with ``ONE`` or
``LIMIT_ONE`` count integers and return exact fractions.

Every all-worlds path scores all worlds at once on the source's packed
words, and the conditional family (``cond_prob``, ``prob``, ``joint_prob``,
``cond_prob_multi``) reduces one histogram of mass by (premise score,
satisfied conclusions) under one per-score weight table. Exact results equal
a per-world sum. Float posteriors are summed left to right in world order,
bit-identical to a per-world loop; float conditionals come from the histogram
and may differ from a per-world sum by rounding only. A streaming estimate
keeps that histogram as integer counts. Its formulas are compiled once into
a function of a world's bits, ``update`` runs that function on one world
and raises one count, and a world over another signature is rejected. The
value is the same reduction, so it equals a full recompute in every regime,
floats included.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Sequence

import numpy as np

from .data import Dataset, ModelDistribution
from .formulas import Atom, Formula, Not
from .signature import Signature
from .worlds import World, compile_formula, pack, truth
from .worlds import evaluate  # unused here: perfbench counts calls through engine.evaluate


class Undefined:
    """Result of conditioning on premises no possible world satisfies."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "undefined"

    def __bool__(self):
        raise TypeError("an undefined result has no truth value")


UNDEFINED = Undefined()


@dataclass(frozen=True)
class Regime:
    """Likelihood regime selector; see the module docstring."""

    kind: str
    mu: object = None

    def __post_init__(self):
        if self.kind not in ("one", "limit", "fixed"):
            raise ValueError(f"unknown regime kind {self.kind!r}")
        if self.kind == "fixed":
            if self.mu is None or not 0 < self.mu < 1:
                raise ValueError("the fixed regime needs 0 < mu < 1")
        elif self.mu is not None:
            raise ValueError(f"regime {self.kind!r} does not take mu")


ONE = Regime("one")
LIMIT_ONE = Regime("limit")


def fixed(mu) -> Regime:
    """Regime with an explicit likelihood parameter, 0 < mu < 1.

    Pass a Fraction for exact arithmetic or a float for fast approximate
    sums.
    """
    return Regime("fixed", mu)


@dataclass(frozen=True)
class Query:
    """A conclusion formula conditioned on a premise multiset."""

    conclusion: Formula
    premises: tuple[Formula, ...] = ()


def _scores(formulas, words: np.ndarray, index) -> np.ndarray:
    """Per row, how many formula occurrences hold: literals by masked popcount,
    one pass per multiplicity, other formulas by their truth column."""
    s = np.zeros(len(words), dtype=np.int64)
    masks: dict[int, list[int]] = {}  # multiplicity -> [atom bits, negated-atom bits]
    for f, k in Counter(formulas).items():
        negated = isinstance(f, Not) and isinstance(f.body, Atom)
        atom = f.body if negated else f
        j = index.get(atom.key()) if isinstance(atom, Atom) else None
        if j is None:
            s += k * truth(f, words, index)  # raises for an unknown atom
        else:
            masks.setdefault(k, [0, 0])[negated] |= 1 << j
    for k, (pos, neg) in masks.items():
        # each mask as one row of words, atom 64k + b at bit b of word k
        pos, neg = (np.frombuffer(m.to_bytes(8 * words.shape[1], "little"), dtype="<u8")
                    .astype(np.uint64) for m in (pos, neg))
        hits = np.bitwise_count(words & pos) + np.bitwise_count(~words & neg)
        s += k * hits.sum(axis=1, dtype=np.int64)
    return s


def _histogram(premises, conclusions, source) -> list[list]:
    """Source mass by (premise score, satisfied conclusion count), as lists of
    Python numbers."""
    if not isinstance(source, (Dataset, ModelDistribution)):
        raise TypeError("source must be a Dataset or a ModelDistribution")
    index = source.signature.atom_index
    s = _scores(premises, source.words, index)
    c = _scores(conclusions, source.words, index)
    hist = np.zeros((len(premises) + 1, len(conclusions) + 1), dtype=source.masses.dtype)
    np.add.at(hist, (s, c), source.masses)
    den = source.denominator
    return [[_ratio(m, den) if den != 1 else m for m in row] for row in hist.tolist()]


def _ratio(num, den):
    if isinstance(num, int) and isinstance(den, int):
        return Fraction(num, den)
    return num / den


def _weights(regime: Regime, n: int, lo: int, hi: int) -> list:
    """Weight of each premise score 0..n: the one regime dispatch.

    [lo, hi] spans the scores of positive mass; others get 0. ONE keeps score
    n, LIMIT_ONE score hi, fixed(mu) weighs s by r**(s_ref - s), r = (1-mu)/mu,
    s_ref = hi if r <= 1 else lo: the top weight is 1, so floats cannot all
    underflow.
    """
    if regime.kind == "one":
        return [int(s == n) for s in range(n + 1)]
    if regime.kind == "limit":
        return [int(s == hi) for s in range(n + 1)]
    r = (1 - regime.mu) / regime.mu
    ref = hi if r <= 1 else lo
    return [r ** (ref - s) if lo <= s <= hi else 0 for s in range(n + 1)]


def _factors(regime: Regime, k: int) -> list:
    """Likelihood of k formula occurrences of which c hold, for c = 0..k."""
    if regime.kind != "fixed":
        return [int(c == k) for c in range(k + 1)]
    mu = regime.mu
    return [mu**c * (1 - mu) ** (k - c) for c in range(k + 1)]


def _reduce(hist, regime: Regime):
    """p(all conclusions | premises) from a histogram of mass by (premise
    score, satisfied conclusion count), under the regime."""
    rows = [sum(row) for row in hist]
    live = [s for s, m in enumerate(rows) if m > 0]
    weights = _weights(regime, len(hist) - 1, live[0], live[-1])
    factors = _factors(regime, len(hist[0]) - 1)
    den = sum(w * m for w, m in zip(weights, rows))
    if den == 0:
        return UNDEFINED
    num = sum(w * f * m for w, row in zip(weights, hist) for f, m in zip(factors, row))
    return _ratio(num, den)


def prob(alpha: Formula, source, regime: Regime = LIMIT_ONE):
    """Unconditional probability of a grounded formula.

    Under ONE and LIMIT_ONE this is the probability mass of the formula's
    models; under fixed(mu) the Bernoulli factor blends both sides,
    mu*mass + (1-mu)*(1-mass).
    """
    return _reduce(_histogram((), (alpha,), source), regime)


def joint_prob(formulas: Sequence[Formula], source, regime: Regime = LIMIT_ONE):
    """Probability that every formula in the multiset holds.

    Each occurrence contributes its own likelihood factor, so duplicates
    matter under fixed(mu).
    """
    return _reduce(_histogram((), tuple(formulas), source), regime)


def cond_prob(query: Query, source, regime: Regime = LIMIT_ONE):
    """Probability of the query's conclusion given its premise multiset.

    Returns UNDEFINED in the ONE regime when no possible world satisfies
    every premise; LIMIT_ONE and fixed(mu) are total. An empty premise list
    reduces to prob(). Exact answers are exact; a float answer is summed by
    premise score and conclusion count, so it may differ from a per-world
    sum by rounding only.
    """
    return _reduce(_histogram(tuple(query.premises), (query.conclusion,), source), regime)


def cond_prob_multi(conclusions, premises, source, regime: Regime = LIMIT_ONE):
    """Joint conditional over a conclusion multiset; cond_prob generalized."""
    return _reduce(_histogram(tuple(premises), tuple(conclusions), source), regime)


def _posterior(premises, source, regime, weighted: bool):
    """Each world's regime weight (times its mass when weighted) over the total.

    Floats when mu or the masses are, the total summed left to right in world
    order; else exact, equal shares being one Fraction. UNDEFINED at total 0.
    """
    premises = tuple(premises)
    s = _scores(premises, source.words, source.signature.atom_index)
    live = s[source.positive]
    table = _weights(regime, len(premises), int(live.min()), int(live.max()))
    masses = source.masses
    floats = masses.dtype == np.float64 or isinstance(regime.mu, float)
    if floats and source.denominator != 1:
        masses = np.array([m / source.denominator for m in masses.tolist()])
    sel = np.array([float(w) for w in table] if floats else table)[s]  # exact: int64 or object
    vals = sel * masses
    out = vals if weighted else sel
    if floats:
        total = np.cumsum(vals)[-1]
        return UNDEFINED if total == 0 else tuple((out / total).tolist())
    nz = np.flatnonzero(out)
    total = sum(vals[nz].tolist())
    if total == 0:
        return UNDEFINED
    shares, seen = [Fraction(0)] * len(out), {}
    for i, v in zip(nz.tolist(), out[nz].tolist()):
        if v not in seen:
            seen[v] = _ratio(v, total)
        shares[i] = seen[v]
    return tuple(shares)


def posterior_data(premises: Sequence[Formula], data: Dataset, regime: Regime = LIMIT_ONE):
    """Per-observation posterior weight given the premises.

    Returns one value per dataset entry, the probability of any single
    observation from that entry; entry values times multiplicities sum
    to 1. UNDEFINED in the ONE regime when no observation satisfies every
    premise. Float weights are bit-identical to a left-to-right sum in
    entry order.
    """
    return _posterior(premises, data, regime, weighted=False)


def posterior_models(premises: Sequence[Formula], dist: ModelDistribution,
                     regime: Regime = LIMIT_ONE):
    """Posterior weight of each listed world given the premises.

    Aligned with dist.worlds; weights sum to 1. UNDEFINED in the ONE regime
    when no possible world satisfies every premise. Float weights are
    bit-identical to a left-to-right sum in world order.
    """
    return _posterior(premises, dist, regime, weighted=True)


@dataclass(frozen=True)
class RunningEstimate:
    """Streaming estimate of a (conditional) probability on a growing dataset.

    ``counts`` holds the observations by premise score s and by whether alpha
    holds (a = 0 or 1), at index 2*s + a: the histogram that cond_prob
    reduces, kept as integers. ``value`` is that reduction, computed on first
    read, so it equals a full recompute over the same observations in every
    regime, float fixed(mu) included. ``signature`` is the dataset's, the one
    every update must match; it takes no part in ``==`` or ``repr``.
    """

    alpha: Formula
    premises: tuple[Formula, ...]
    regime: Regime
    counts: tuple[int, ...]
    signature: Signature = field(compare=False, repr=False)

    @property
    def count(self) -> int:
        """How many observations the estimate has seen."""
        return sum(self.counts)

    @cached_property
    def value(self):
        c = self.counts
        return _reduce([c[i:i + 2] for i in range(0, len(c), 2)], self.regime)

    @cached_property
    def cell(self):
        """A world's bits -> its counts index 2*s + a, compiled once from alpha
        and the premises. ``update`` hands it on to the new estimate; a pickle
        leaves it out, and it is compiled again on first use."""
        index = self.signature.atom_index
        holds = compile_formula(self.alpha, index)
        tests = tuple(compile_formula(f, index) for f in self.premises)

        def cell(bits):
            s = 0
            for test in tests:
                s += test(bits)
            return 2 * s + holds(bits)
        return cell

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if k != "cell"}


def running_estimate(alpha: Formula, data: Dataset, regime: Regime = LIMIT_ONE,
                     premises: Sequence[Formula] = ()) -> RunningEstimate:
    """Start a streaming estimate from one histogram pass over the data."""
    if not isinstance(data, Dataset):
        raise TypeError("a running estimate starts from a Dataset")
    premises = tuple(premises)
    hist = _histogram(premises, (alpha,), data)
    est = RunningEstimate(alpha, premises, regime, tuple(m for row in hist for m in row),
                          data.signature)
    est.cell  # compiled once, here, and handed on by every update
    return est


def update(est: RunningEstimate, world: World) -> RunningEstimate:
    """Fold one new observation into the estimate in O(#premises).

    Runs the estimate's compiled cell on the world's bits and returns a new
    estimate with that one count raised, sharing the cell; ``est`` itself
    does not change. A world over another signature is rejected, as the
    extended dataset would reject it.
    """
    sig = est.signature
    if not (world.signature is sig or world.signature == sig):
        raise ValueError("dataset entries mix signatures")
    cell = est.cell
    i = cell(world.bits)
    c = est.counts
    new = RunningEstimate(est.alpha, est.premises, est.regime,
                          c[:i] + (c[i] + 1,) + c[i + 1:], sig)
    new.__dict__["cell"] = cell  # the cached_property's slot
    return new


def classical_entails(premises: Sequence[Formula], alpha: Formula,
                      worlds: Sequence[World]) -> bool:
    """Every world satisfying all premises also satisfies the conclusion."""
    worlds = tuple(worlds)
    if not worlds:
        return True
    index = worlds[0].signature.atom_index
    return _entails(premises, alpha, pack((w.bits for w in worlds), len(index)), index)


def possible_entails(premises: Sequence[Formula], alpha: Formula,
                     dist: ModelDistribution) -> bool:
    """classical_entails restricted to the distribution's possible worlds."""
    return _entails(premises, alpha, dist.words[dist.positive], dist.signature.atom_index)


def _entails(premises, alpha, words, index) -> bool:
    hold = _scores(premises, words, index) == len(premises)
    return not (hold & ~truth(alpha, words, index)).any()


@dataclass(frozen=True)
class SubsetAnalysis:
    """Cardinality-maximal subsets plus the union of their model sets."""

    subsets: frozenset[frozenset[Formula]]
    union_models: tuple[World, ...]


def _maximal_subsets(premises, words, index):
    """The maximal satisfied premise sets over the rows of packed words, and
    the rows that reach the maximal count."""
    formulas = list(dict.fromkeys(premises))  # set semantics
    sat = np.zeros((len(words), len(formulas)), dtype=bool)
    for j, f in enumerate(formulas):
        sat[:, j] = truth(f, words, index)
    n = sat.sum(axis=1)
    rows = np.flatnonzero(n == n.max())
    subsets = frozenset(frozenset(f for f, hold in zip(formulas, pattern) if hold)
                        for pattern in set(map(tuple, sat[rows].tolist())))
    return subsets, rows


def mcs(premises: Sequence[Formula], worlds: Sequence[World]) -> SubsetAnalysis:
    """Cardinality-maximal consistent subsets of the premise set.

    Consistency is judged against the given world list, normally the full
    enumeration. Every such subset is the satisfied set of some world of
    maximal satisfied count, so the union of the subsets' model sets is
    exactly the worlds reported in ``union_models``, in list order.
    Duplicates among the premises are collapsed: subsets are sets.
    """
    worlds = tuple(worlds)
    if not worlds:
        raise ValueError("no worlds to judge consistency against")
    index = worlds[0].signature.atom_index
    subsets, rows = _maximal_subsets(premises, pack((w.bits for w in worlds), len(index)), index)
    return SubsetAnalysis(subsets, tuple([worlds[i] for i in rows.tolist()]))


def mps(premises: Sequence[Formula], dist: ModelDistribution) -> SubsetAnalysis:
    """Like mcs, but consistency is judged over the possible worlds only."""
    live = np.flatnonzero(dist.positive)
    subsets, rows = _maximal_subsets(premises, dist.words[live], dist.signature.atom_index)
    return SubsetAnalysis(subsets, tuple([dist.worlds[i] for i in live[rows].tolist()]))


def generative_consequence(query: Query, source, theta,
                           regime: Regime = LIMIT_ONE):
    """Whether p(conclusion | premises) reaches the threshold theta.

    theta must lie in (1/2, 1]. Returns UNDEFINED when the conditional is
    undefined (ONE regime with unsatisfiable premises).
    """
    if not Fraction(1, 2) < theta <= 1:
        raise ValueError("theta must lie in (1/2, 1]")
    p = cond_prob(query, source, regime)
    if p is UNDEFINED:
        return UNDEFINED
    return p >= theta


def mle_distribution(data: Dataset, worlds: Sequence[World]) -> ModelDistribution:
    """Relative-frequency weights over the given worlds.

    Every observed world must appear in ``worlds``; unseen worlds get
    weight zero. Weights are exact fractions.
    """
    worlds = tuple(worlds)
    index = {w.bits: i for i, w in enumerate(worlds)}
    if len(index) != len(worlds):
        raise ValueError("the worlds list repeats a world")
    counts = [0] * len(worlds)
    for w, c in data.entries:
        if w.bits not in index:
            raise ValueError(f"observed world {w!r} is missing from the worlds list")
        counts[index[w.bits]] += c
    k = data.size
    return ModelDistribution(worlds, tuple(Fraction(c, k) for c in counts))
