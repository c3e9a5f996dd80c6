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
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

from .data import Dataset, ModelDistribution
from .formulas import Atom, Formula, Not
from .signature import Signature
from .worlds import World, evaluate


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


class _Scorer:
    """Counts, per world, how many premise occurrences hold.

    Literal premises (atoms and negated atoms) are folded into bit masks so
    a world is scored with a few popcounts; a literal occurring k times gets
    k mask layers. Non-literal premises fall back to tree evaluation.
    """

    __slots__ = ("pos_layers", "neg_layers", "residual", "size")

    def __init__(self, premises: Sequence[Formula], sig: Signature):
        pos_counts: dict[int, int] = {}
        neg_counts: dict[int, int] = {}
        residual: list[Formula] = []
        index = sig.atom_index
        for f in premises:
            if isinstance(f, Atom):
                key = f.key()
                idx = index.get(key)
                if idx is None:
                    raise ValueError(f"atom {key!r} is not in the signature")
                pos_counts[idx] = pos_counts.get(idx, 0) + 1
            elif isinstance(f, Not) and isinstance(f.body, Atom):
                key = f.body.key()
                idx = index.get(key)
                if idx is None:
                    raise ValueError(f"atom {key!r} is not in the signature")
                neg_counts[idx] = neg_counts.get(idx, 0) + 1
            else:
                residual.append(f)
        self.pos_layers = _mask_layers(pos_counts)
        self.neg_layers = [(m, m.bit_count()) for m in _mask_layers(neg_counts)]
        self.residual = residual
        self.size = len(premises)

    def __call__(self, world: World) -> int:
        bits = world.bits
        s = 0
        for mask in self.pos_layers:
            s += (bits & mask).bit_count()
        for mask, popcount in self.neg_layers:
            s += popcount - (bits & mask).bit_count()
        for f in self.residual:
            if evaluate(f, world):
                s += 1
        return s


def _mask_layers(counts: dict[int, int]) -> list[int]:
    layers: list[int] = []
    remaining = dict(counts)
    while remaining:
        mask = 0
        nxt: dict[int, int] = {}
        for idx, c in remaining.items():
            mask |= 1 << idx
            if c > 1:
                nxt[idx] = c - 1
        layers.append(mask)
        remaining = nxt
    return layers


def score(premises: Sequence[Formula], world: World) -> int:
    """How many premise occurrences hold at the world (multiset count)."""
    return _Scorer(tuple(premises), world.signature)(world)


def _items(source):
    if isinstance(source, Dataset):
        return [w for w, _ in source.entries], [c for _, c in source.entries]
    if isinstance(source, ModelDistribution):
        return list(source.worlds), list(source.weights)
    raise TypeError("source must be a Dataset or a ModelDistribution")


def _ratio(num, den):
    if isinstance(num, int) and isinstance(den, int):
        return Fraction(num, den)
    return num / den


def _factor(f: Formula, world: World, regime: Regime):
    sat = evaluate(f, world)
    if regime.kind == "fixed":
        return regime.mu if sat else 1 - regime.mu
    return 1 if sat else 0


def _conditional(conclusions, premises, source, regime):
    """Shared kernel: p(all conclusions | premises) under the regime."""
    worlds, masses = _items(source)
    sig = worlds[0].signature
    scorer = _Scorer(premises, sig)
    scores = [scorer(w) for w in worlds]

    if regime.kind == "fixed":
        mu = regime.mu
        r = (1 - mu) / mu
        live = [s for s, m in zip(scores, masses) if m > 0]
        if not live:
            return UNDEFINED
        # Normalize so the largest factor is 1: exact in rationals, and in
        # floats only negligible terms can underflow, never the whole sum.
        s_ref = max(live) if r <= 1 else min(live)
        num = 0
        den = 0
        for w, m, s in zip(worlds, masses, scores):
            if m <= 0:
                continue
            weight = m * r ** (s_ref - s)
            den = den + weight
            for c in conclusions:
                weight = weight * (mu if evaluate(c, w) else 1 - mu)
            num = num + weight
        return num / den

    if regime.kind == "one":
        target = scorer.size
    else:  # limit: restrict to the maximal premise score among possible worlds
        live = [s for s, m in zip(scores, masses) if m > 0]
        if not live:
            return UNDEFINED
        target = max(live)
    num = 0
    den = 0
    for w, m, s in zip(worlds, masses, scores):
        if m <= 0 or s != target:
            continue
        den = den + m
        if all(evaluate(c, w) for c in conclusions):
            num = num + m
    if den == 0:
        return UNDEFINED
    return _ratio(num, den)


def prob(alpha: Formula, source, regime: Regime = LIMIT_ONE):
    """Unconditional probability of a grounded formula.

    Under ONE and LIMIT_ONE this is the probability mass of the formula's
    models; under fixed(mu) the Bernoulli factor blends both sides,
    mu*mass + (1-mu)*(1-mass).
    """
    return _conditional((alpha,), (), source, regime)


def joint_prob(formulas: Sequence[Formula], source, regime: Regime = LIMIT_ONE):
    """Probability that every formula in the multiset holds.

    Each occurrence contributes its own likelihood factor, so duplicates
    matter under fixed(mu).
    """
    return _conditional(tuple(formulas), (), source, regime)


def cond_prob(query: Query, source, regime: Regime = LIMIT_ONE):
    """Probability of the query's conclusion given its premise multiset.

    Returns UNDEFINED in the ONE regime when no possible world satisfies
    every premise; LIMIT_ONE and fixed(mu) are total. An empty premise list
    reduces to prob().
    """
    return _conditional((query.conclusion,), tuple(query.premises), source, regime)


def cond_prob_multi(conclusions, premises, source, regime: Regime = LIMIT_ONE):
    """Joint conditional over a conclusion multiset; cond_prob generalized."""
    return _conditional(tuple(conclusions), tuple(premises), source, regime)


def posterior_data(premises: Sequence[Formula], data: Dataset, regime: Regime = LIMIT_ONE):
    """Per-observation posterior weight given the premises.

    Returns one value per dataset entry, the probability of any single
    observation from that entry; entry values times multiplicities sum
    to 1. UNDEFINED in the ONE regime when no observation satisfies every
    premise.
    """
    premises = tuple(premises)
    scorer = _Scorer(premises, data.signature)
    scores = [scorer(w) for w, _ in data.entries]
    masses = [c for _, c in data.entries]
    if regime.kind == "one":
        sel = [1 if s == scorer.size else 0 for s in scores]
    elif regime.kind == "limit":
        s_star = max(scores)
        sel = [1 if s == s_star else 0 for s in scores]
    else:
        mu = regime.mu
        r = (1 - mu) / mu
        s_ref = max(scores) if r <= 1 else min(scores)
        sel = [r ** (s_ref - s) for s in scores]
    total = sum(w * m for w, m in zip(sel, masses))
    if total == 0:
        return UNDEFINED
    return tuple(_ratio(w, total) for w in sel)


def posterior_models(premises: Sequence[Formula], dist: ModelDistribution,
                     regime: Regime = LIMIT_ONE):
    """Posterior weight of each listed world given the premises.

    Aligned with dist.worlds; weights sum to 1. UNDEFINED in the ONE regime
    when no possible world satisfies every premise.
    """
    premises = tuple(premises)
    scorer = _Scorer(premises, dist.signature)
    scores = [scorer(w) for w in dist.worlds]
    masses = list(dist.weights)
    live = [s for s, m in zip(scores, masses) if m > 0]
    if not live:
        return UNDEFINED
    if regime.kind == "one":
        sel = [1 if s == scorer.size else 0 for s in scores]
    elif regime.kind == "limit":
        s_star = max(live)
        sel = [1 if s == s_star else 0 for s in scores]
    else:
        mu = regime.mu
        r = (1 - mu) / mu
        s_ref = max(live) if r <= 1 else min(live)
        sel = [r ** (s_ref - s) if m > 0 else 0 for s, m in zip(scores, masses)]
    vals = [w * m for w, m in zip(sel, masses)]
    total = sum(vals)
    if total == 0:
        return UNDEFINED
    return tuple(_ratio(v, total) for v in vals)


@dataclass(frozen=True)
class RunningEstimate:
    """Constant-time streaming estimate of a (conditional) probability.

    ``value`` is the current estimate after ``count`` observations and
    ``premise_value`` the current probability of the premise multiset (None
    for unconditional targets). The limit regime additionally carries the
    best premise score seen so far and the observation tallies at that
    score, which its max-score semantics needs in order to stay exactly
    equal to a full recompute.
    """

    alpha: Formula
    premises: tuple[Formula, ...]
    regime: Regime
    count: int
    value: object
    premise_value: object = None
    best: tuple[int, int, int] | None = None  # (score, tally there, alpha tally there)


def running_estimate(alpha: Formula, data: Dataset, regime: Regime = LIMIT_ONE,
                     premises: Sequence[Formula] = ()) -> RunningEstimate:
    """Initialize a streaming estimate with one pass over the data."""
    premises = tuple(premises)
    k = data.size
    if not premises:
        num = 0
        for w, c in data.entries:
            num = num + c * _factor(alpha, w, regime)
        return RunningEstimate(alpha, (), regime, k, _ratio(num, k))
    if regime.kind == "limit":
        scorer = _Scorer(premises, data.signature)
        s_best = max(scorer(w) for w, _ in data.entries)
        den = 0
        num = 0
        for w, c in data.entries:
            if scorer(w) == s_best:
                den += c
                if evaluate(alpha, w):
                    num += c
        premise_value = Fraction(den if s_best == len(premises) else 0, k)
        return RunningEstimate(alpha, premises, regime, k, Fraction(num, den),
                               premise_value, best=(s_best, den, num))
    joint = 0
    prem = 0
    for w, c in data.entries:
        fd = 1
        for p in premises:
            fd = fd * _factor(p, w, regime)
        joint = joint + c * fd * _factor(alpha, w, regime)
        prem = prem + c * fd
    joint_value = _ratio(joint, k)
    premise_value = _ratio(prem, k)
    value = UNDEFINED if premise_value == 0 else joint_value / premise_value
    return RunningEstimate(alpha, premises, regime, k, value, premise_value)


def update(est: RunningEstimate, world: World) -> RunningEstimate:
    """Fold one new observation into the estimate in O(1).

    Under integer or Fraction arithmetic (ONE, LIMIT_ONE, a Fraction mu) the
    result equals a full recompute over the extended data exactly; under a
    float fixed(mu) only up to rounding, which can build up over updates.
    """
    k = est.count
    regime = est.regime
    if not est.premises:
        f = _factor(est.alpha, world, regime)
        value = _ratio(k * est.value + f, k + 1)
        return replace(est, count=k + 1, value=value)
    if regime.kind == "limit":
        s_best, den, num = est.best
        s = sum(1 for p in est.premises if evaluate(p, world))
        a = 1 if evaluate(est.alpha, world) else 0
        if s > s_best:
            s_best, den, num = s, 1, a
        elif s == s_best:
            den += 1
            num += a
        premise_value = Fraction(den if s_best == len(est.premises) else 0, k + 1)
        return replace(est, count=k + 1, value=Fraction(num, den),
                       premise_value=premise_value, best=(s_best, den, num))
    fa = _factor(est.alpha, world, regime)
    fd = 1
    for p in est.premises:
        fd = fd * _factor(p, world, regime)
    prem = est.premise_value
    old_joint = 0 if est.value is UNDEFINED else est.value * prem
    new_joint = _ratio(k * old_joint + fa * fd, k + 1)
    new_prem = _ratio(k * prem + fd, k + 1)
    value = UNDEFINED if new_prem == 0 else new_joint / new_prem
    return replace(est, count=k + 1, value=value, premise_value=new_prem)


def classical_entails(premises: Sequence[Formula], alpha: Formula,
                      worlds: Sequence[World]) -> bool:
    """Every world satisfying all premises also satisfies the conclusion."""
    for w in worlds:
        if all(evaluate(p, w) for p in premises) and not evaluate(alpha, w):
            return False
    return True


def possible_entails(premises: Sequence[Formula], alpha: Formula,
                     dist: ModelDistribution) -> bool:
    """classical_entails restricted to the distribution's possible worlds."""
    return classical_entails(premises, alpha, dist.support())


@dataclass(frozen=True)
class SubsetAnalysis:
    """Cardinality-maximal subsets plus the union of their model sets."""

    subsets: frozenset[frozenset[Formula]]
    union_models: tuple[World, ...]


def _maximal_subsets(premises, worlds) -> SubsetAnalysis:
    formulas = list(dict.fromkeys(premises))  # set semantics
    if not worlds:
        raise ValueError("no worlds to judge consistency against")
    best = -1
    subsets: set[frozenset[Formula]] = set()
    union: list[World] = []
    for w in worlds:
        sat = frozenset(f for f in formulas if evaluate(f, w))
        n = len(sat)
        if n > best:
            best = n
            subsets = {sat}
            union = [w]
        elif n == best:
            subsets.add(sat)
            union.append(w)
    return SubsetAnalysis(frozenset(subsets), tuple(union))


def mcs(premises: Sequence[Formula], worlds: Sequence[World]) -> SubsetAnalysis:
    """Cardinality-maximal consistent subsets of the premise set.

    Consistency is judged against the given world list, normally the full
    enumeration. Every such subset is the satisfied set of some world of
    maximal satisfied count, so the union of the subsets' model sets is
    exactly the worlds reported in ``union_models``. Duplicates among the
    premises are collapsed: subsets are sets.
    """
    return _maximal_subsets(premises, worlds)


def mps(premises: Sequence[Formula], dist: ModelDistribution) -> SubsetAnalysis:
    """Like mcs, but consistency is judged over the possible worlds only."""
    return _maximal_subsets(premises, dist.support())


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
    index: dict[int, int] = {}
    for i, w in enumerate(worlds):
        if w.bits in index:
            raise ValueError("the worlds list repeats a world")
        index[w.bits] = i
    counts = [0] * len(worlds)
    for w, c in data.entries:
        i = index.get(w.bits)
        if i is None:
            raise ValueError(f"observed world {w!r} is missing from the worlds list")
        counts[i] += c
    k = data.size
    return ModelDistribution(worlds, tuple(Fraction(c, k) for c in counts))
