"""The packed-word kernel against per-world references.

Worlds over 70 atoms span two uint64 words, and the formulas touch atoms on
both sides of the word boundary (0, 62, 63, 64, 69), so a wrong word index or
shift shows. Masses come in every array form: int64 numerators, Python-int
numerators past 2**63 and float64 weights.
"""

import functools
import math
import operator
import pickle
from copy import deepcopy
from fractions import Fraction
from random import Random

import numpy as np
import pytest

from genlogic import (
    LIMIT_ONE,
    ONE,
    And,
    Atom,
    Dataset,
    Forall,
    Iff,
    Implies,
    ModelDistribution,
    Not,
    Or,
    Query,
    Signature,
    UNDEFINED,
    Var,
    World,
    classical_entails,
    cond_prob,
    enumerate_worlds,
    evaluate,
    fixed,
    mcs,
    mps,
    posterior_data,
    posterior_models,
    possible_entails,
    read_distribution,
)
from genlogic.oracle import (
    cond_bruteforce,
    limit_bruteforce,
    mcs_bruteforce,
    mps_bruteforce,
)
import genlogic.worlds
from genlogic.worlds import Columns, pack, truth

SIG70 = Signature(propositions=tuple(f"a{i}" for i in range(70)))
EDGE = (0, 62, 63, 64, 69)
MU = Fraction(4, 5)


def _formula(rng: Random, depth: int = 2):
    if depth == 0 or rng.random() < 0.4:
        atom = Atom(f"a{rng.choice(EDGE)}")
        return atom if rng.random() < 0.5 else Not(atom)
    join = rng.choice((And, Or, Implies, Iff))
    return join(_formula(rng, depth - 1), _formula(rng, depth - 1))


def _premises(rng: Random):
    out = [_formula(rng) for _ in range(rng.randint(1, 4))]
    return tuple(out + [out[0]])  # one premise occurs twice


def _worlds(rng: Random, n: int):
    seen = {}
    while len(seen) < n:
        bits = rng.getrandbits(70)
        seen[bits] = World(SIG70, bits)
    return list(seen.values())


def _dataset(rng: Random) -> Dataset:
    pool = _worlds(rng, 12)
    return Dataset.weighted((rng.choice(pool), rng.randint(1, 4)) for _ in range(30))


def _distribution(rng: Random) -> ModelDistribution:
    worlds = _worlds(rng, 25)
    mass = [rng.choice((0, 0, 1, 2, 3, 5)) for _ in worlds]
    mass[0] = 1
    return ModelDistribution(tuple(worlds), tuple(Fraction(m, sum(mass)) for m in mass))


def _as_distribution(data: Dataset) -> ModelDistribution:
    """The dataset's relative frequencies, one listed world per entry."""
    return ModelDistribution(tuple(w for w, _ in data.entries),
                             tuple(Fraction(c, data.size) for _, c in data.entries))


def _expected(query, dist, regime):
    if regime is LIMIT_ONE:
        return limit_bruteforce(query, dist)
    if regime is ONE:
        return cond_bruteforce(query, dist, 1)
    return cond_bruteforce(query, dist, Fraction(regime.mu))


def _likelihoods(premises, worlds, regime):
    """Per world: its premise likelihood in the regime, up to a common factor."""
    scores = [sum(evaluate(f, w) for f in premises) for w in worlds]
    n = len(premises)
    if regime is ONE:
        return [int(s == n) for s in scores]
    if regime is LIMIT_ONE:
        return [int(s == max(scores)) for s in scores]
    mu = regime.mu
    return [mu**s * (1 - mu) ** (n - s) for s in scores]


@pytest.mark.parametrize("seed", range(6))
def test_truth_matches_evaluate_across_words(seed):
    rng = Random(seed)
    worlds = _worlds(rng, 40)
    words = pack((w.bits for w in worlds), SIG70.n_atoms)
    assert words.shape == (40, 2) and words.dtype == np.uint64
    for _ in range(20):
        f = _formula(rng, 3)
        got = truth(f, Columns(SIG70, words))
        assert got.tolist() == [evaluate(f, w) for w in worlds]


@pytest.mark.parametrize("seed", range(6))
def test_conditional_matches_oracle_across_words(seed):
    rng = Random(100 + seed)
    data = _dataset(rng)
    dist = _distribution(rng)
    assert dist.masses.dtype == np.int64 and data.masses.dtype == np.int64
    for _ in range(4):
        query = Query(_formula(rng), _premises(rng))
        for source, ref in ((data, _as_distribution(data)), (dist, dist)):
            for regime in (ONE, LIMIT_ONE, fixed(MU)):
                assert cond_prob(query, source, regime) == _expected(query, ref, regime)
            got = cond_prob(query, source, fixed(0.8))
            want = _expected(query, ref, fixed(Fraction(0.8)))
            assert math.isclose(got, want, rel_tol=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_posteriors_match_per_world_loops(seed):
    rng = Random(200 + seed)
    data = _dataset(rng)
    dist = _distribution(rng)
    for _ in range(4):
        premises = _premises(rng)
        for regime in (ONE, LIMIT_ONE, fixed(MU)):
            like = _likelihoods(premises, [w for w, _ in data.entries], regime)
            total = sum(c * x for (_, c), x in zip(data.entries, like))
            want = UNDEFINED if total == 0 else tuple(Fraction(x) / total for x in like)
            assert posterior_data(premises, data, regime) == want

            like = _likelihoods(premises, dist.support(), regime)
            mass = [m for m in dist.weights if m > 0]
            total = sum(m * x for m, x in zip(mass, like))
            got = posterior_models(premises, dist, regime)
            if total == 0:
                assert got is UNDEFINED
                continue
            shares = iter(m * x / total for m, x in zip(mass, like))
            assert got == tuple(next(shares) if m > 0 else 0 for m in dist.weights)


@pytest.mark.parametrize("seed", range(6))
def test_subsets_and_entailment_across_words(seed):
    rng = Random(300 + seed)
    dist = _distribution(rng)
    worlds = list(dist.worlds)
    for _ in range(4):
        premises = _premises(rng)
        alpha = _formula(rng)
        got, want = mcs(premises, worlds), mcs_bruteforce(premises, worlds)
        assert got.subsets == want.subsets
        distinct = list(dict.fromkeys(premises))
        counts = [sum(evaluate(f, w) for f in distinct) for w in worlds]
        assert got.union_models == tuple(w for w, c in zip(worlds, counts)
                                         if c == max(counts))
        got, want = mps(premises, dist), mps_bruteforce(premises, dist)
        assert got.subsets == want.subsets
        support = dist.support()
        counts = [sum(evaluate(f, w) for f in distinct) for w in support]
        assert got.union_models == tuple(w for w, c in zip(support, counts)
                                         if c == max(counts))
        for pool, verdict in ((worlds, classical_entails(premises, alpha, worlds)),
                              (support, possible_entails(premises, alpha, dist))):
            assert verdict == all(evaluate(alpha, w) for w in pool
                                  if all(evaluate(p, w) for p in premises))


@pytest.mark.parametrize("seed", range(3))
def test_columns_are_cached_contiguous_and_read_only(seed, monkeypatch):
    rng = Random(400 + seed)
    dist = _distribution(rng)
    queries = [Query(_formula(rng), _premises(rng)) for _ in range(4)]
    regimes = (ONE, LIMIT_ONE, fixed(MU), fixed(0.8))
    unpacked = []
    unpack = genlogic.worlds._unpack
    monkeypatch.setattr(genlogic.worlds, "_unpack",
                        lambda words, j: unpacked.append(j) or unpack(words, j))
    before = [cond_prob(q, dist, r) for q in queries for r in regimes]
    assert 0 < len(unpacked) == len(set(unpacked)) <= len(EDGE)
    # a second pass over the same source unpacks no column again
    first = list(unpacked)
    assert [cond_prob(q, dist, r) for q in queries for r in regimes] == before
    assert unpacked == first
    for j in EDGE:
        column = dist.columns[j]
        assert column.dtype == bool and column.flags.c_contiguous
        assert not column.flags.writeable
        assert column.tolist() == [bool(w.bits >> j & 1) for w in dist.worlds]
    rain = truth(Atom("a63"), dist.columns)
    assert rain is dist.columns[63]
    with pytest.raises(ValueError, match="read-only"):
        rain[0] = not rain[0]
    with pytest.raises(ValueError, match="read-only"):
        np.logical_not(rain, out=rain)
    assert [cond_prob(q, dist, r) for q in queries for r in regimes] == before
    for copy in (pickle.loads(pickle.dumps(dist)), deepcopy(dist)):
        assert copy.columns.signature == SIG70
        assert not copy.columns[63].flags.writeable
        assert [cond_prob(q, copy, r) for q in queries for r in regimes] == before


@pytest.mark.parametrize("regime", [ONE, LIMIT_ONE, fixed(MU), fixed(0.8)],
                         ids=["one", "limit", "fixed_exact", "fixed_float"])
def test_scores_past_255_occurrences(regime):
    # 256 copies of ~a0 and one a1: ~a0 & a1 scores 257 and a0 & a1 scores 1,
    # so a score summed in uint8 would wrap to a tie
    sig = Signature(propositions=("a0", "a1"))
    worlds = (World.from_bitstring(sig, "01"), World.from_bitstring(sig, "11"))
    dist = ModelDistribution(worlds, (Fraction(1, 3), Fraction(2, 3)))
    a0, a1 = Atom("a0"), Atom("a1")
    premises = (Not(a0),) * 256 + (a1,)
    exact = regime.mu is None or isinstance(regime.mu, Fraction)
    ref = regime if exact else fixed(Fraction(regime.mu))
    mu = 1 if regime.mu is None else Fraction(regime.mu)
    post = posterior_models(premises, dist, regime)
    for i, held in enumerate((Not(a0), a0)):
        query = Query(And(held, a1), premises)
        want = _expected(query, dist, ref)
        # the conclusion holds at world i alone: its factor is mu there and
        # 1 - mu elsewhere, so want = (1 - mu) + (2mu - 1) * posterior_i
        pairs = ((cond_prob(query, dist, regime), want),
                 (post[i], (want - (1 - mu)) / (2 * mu - 1)))
        for got, expected in pairs:
            if exact:
                assert got == expected
            else:
                assert math.isclose(got, expected, rel_tol=1e-12)


def test_denominator_past_int64_stays_exact():
    sig = Signature(propositions=("p", "q", "r"))
    worlds = enumerate_worlds(sig)
    primes = (2**31 - 1, 2**61 - 1, 1_000_000_007, 998_244_353)
    weights = [Fraction(k + 1, p) for k, p in enumerate(primes)]
    weights += [Fraction(0), Fraction(0), Fraction(1, 7)]
    weights.append(1 - sum(weights))
    dist = ModelDistribution(tuple(worlds), tuple(weights))
    assert dist.denominator >= 2**63 and dist.masses.dtype == object
    p, q, r = (Atom(name) for name in ("p", "q", "r"))
    queries = [Query(p, (q, Not(r))), Query(Or(q, r), (p, Not(p), q)),
               Query(Implies(p, r), ()), Query(Iff(q, r), (q, q, Not(q)))]
    for query in queries:
        assert cond_prob(query, dist, ONE) == cond_bruteforce(query, dist, 1)
        assert cond_prob(query, dist, LIMIT_ONE) == limit_bruteforce(query, dist)
        assert cond_prob(query, dist, fixed(MU)) == cond_bruteforce(query, dist, MU)
        got = cond_prob(query, dist, fixed(0.8))
        assert math.isclose(got, cond_bruteforce(query, dist, Fraction(0.8)), rel_tol=1e-12)
    post = posterior_models((p, q), dist, LIMIT_ONE)
    assert sum(post) == 1 and all(isinstance(x, Fraction) for x in post)

    big = Dataset.weighted([(worlds[1], 2**62), (worlds[6], 2**62), (worlds[7], 3)])
    assert big.masses.dtype == object
    assert cond_prob(Query(q, (r,)), big, ONE) == Fraction(3, 2**62 + 3)
    assert cond_prob(Query(r, ()), big, LIMIT_ONE) == Fraction(2**62 + 3, 2**63 + 3)


def test_float_distribution_is_close_to_exact(tmp_path):
    sig = Signature(propositions=("p", "q", "r"))
    lines = ["000 1/7", "001 1/11", "011 1/13", "101 0", "111 1/3"]
    mass = [Fraction(t.split()[1]) for t in lines]
    lines.append(f"100 {1 - sum(mass)}")
    path = tmp_path / "float.dist"
    path.write_text("\n".join(lines) + "\n")
    exact = read_distribution(path, sig)
    approx = read_distribution(path, sig, exact=False)
    assert approx.masses.dtype == np.float64
    p, q, r = (Atom(name) for name in ("p", "q", "r"))
    for query in (Query(p, (q, Not(r))), Query(Or(q, r), (p, Not(p), q)),
                  Query(Implies(p, r), (r, r)), Query(q, ())):
        for regime in (ONE, LIMIT_ONE, fixed(MU), fixed(0.3)):
            want, got = cond_prob(query, exact, regime), cond_prob(query, approx, regime)
            if want is UNDEFINED:
                assert got is UNDEFINED
            else:
                assert isinstance(got, float)
                assert math.isclose(got, want, rel_tol=1e-12)


def test_unknown_atoms_and_quantifiers_raise():
    sig = Signature(propositions=("p", "q"), predicates=(("b", 1),), constants=("a",))
    worlds = enumerate_worlds(sig)
    dist = ModelDistribution(tuple(worlds), tuple([Fraction(1, 8)] * 8))
    data = Dataset.of(worlds)
    p, zap = Atom("p"), Atom("zap")
    every = Forall("x", Atom("b", (Var("x"),)))
    for bad, message in ((zap, "not in the signature"), (Not(zap), "not in the signature"),
                         (And(p, zap), "not in the signature"), (every, "grounded")):
        with pytest.raises(ValueError, match=message):
            cond_prob(Query(p, (bad,)), dist)
        with pytest.raises(ValueError, match=message):
            cond_prob(Query(bad, (p,)), data, fixed(MU))
        with pytest.raises(ValueError, match=message):
            posterior_data((bad,), data)
        with pytest.raises(ValueError, match=message):
            posterior_models((p, bad), dist)
        with pytest.raises(ValueError, match=message):
            mcs((bad,), worlds)
        with pytest.raises(ValueError, match=message):
            possible_entails((p,), bad, dist)


def test_float_posteriors_sum_left_to_right():
    # Weights whose left-to-right float sum differs from the correctly
    # rounded one: the posteriors must divide by the left-to-right sum.
    sig = Signature(propositions=("p", "q", "r", "s"))
    weights = (0.1,) * 10
    assert math.fsum(weights) != functools.reduce(operator.add, weights)
    dist = ModelDistribution(tuple(enumerate_worlds(sig)[:10]), weights)
    total = functools.reduce(operator.add, weights)
    assert posterior_models((), dist, LIMIT_ONE) == tuple(w / total for w in weights)

    worlds = enumerate_worlds(Signature(propositions=("p", "q")))
    data = Dataset.weighted(zip(worlds, (3, 1, 4, 1)))
    premises = (Atom("p"), Atom("q"), Not(Atom("q")))
    mu = 0.3
    r = (1 - mu) / mu
    scores = [sum(evaluate(f, w) for f in premises) for w in worlds]
    sel = [r ** (min(scores) - s) for s in scores]
    terms = [x * c for x, (_, c) in zip(sel, data.entries)]
    assert math.fsum(terms) != functools.reduce(operator.add, terms)
    total = functools.reduce(operator.add, terms)
    assert posterior_data(premises, data, fixed(mu)) == tuple(x / total for x in sel)
