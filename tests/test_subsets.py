"""Maximal-subset analyses and the entailment characterizations built on them.

The four characterizations are biconditionals, so every random case is a
full check regardless of which side of the equivalence it lands on. All
comparisons are exact.
"""

from fractions import Fraction
from random import Random

import pytest

import genlogic.worlds
from genlogic import (
    LIMIT_ONE,
    ONE,
    UNDEFINED,
    Query,
    classical_entails,
    cond_prob,
    enumerate_worlds,
    evaluate,
    mcs,
    mps,
    parse_formula,
    possible_entails,
)
from genlogic.oracle import mcs_bruteforce, mps_bruteforce

from helpers import (
    random_distinct_premises,
    random_distribution,
    random_formula,
    random_signature,
)

CASES = 250
RAW = 600


def _same_analysis(a, b) -> bool:
    return set(a.subsets) == set(b.subsets) and set(a.union_models) == set(b.union_models)


def test_mcs_matches_bruteforce():
    rng = Random(201)
    for _ in range(CASES):
        sig = random_signature(rng)
        prem = random_distinct_premises(rng, sig)
        worlds = enumerate_worlds(sig)
        assert _same_analysis(mcs(prem, worlds), mcs_bruteforce(prem, worlds))


def test_mps_matches_bruteforce():
    rng = Random(202)
    for _ in range(CASES):
        sig = random_signature(rng)
        prem = random_distinct_premises(rng, sig)
        dist = random_distribution(rng, sig)
        assert _same_analysis(mps(prem, dist), mps_bruteforce(prem, dist))


def test_limit_prob_is_mass_ratio_over_consistent_subsets():
    # with a fully supported distribution the max-score worlds are exactly
    # the models of the maximal consistent subsets
    rng = Random(203)
    for _ in range(CASES):
        sig = random_signature(rng)
        prem = random_distinct_premises(rng, sig)
        dist = random_distribution(rng, sig, all_positive=True)
        alpha = random_formula(rng, sig)
        pocket = set(mcs(prem, dist.worlds).union_models)
        den = sum(m for w, m in zip(dist.worlds, dist.weights) if w in pocket)
        num = sum(
            m
            for w, m in zip(dist.worlds, dist.weights)
            if w in pocket and evaluate(alpha, w)
        )
        assert cond_prob(Query(alpha, prem), dist, LIMIT_ONE) == num / den


def test_limit_prob_is_mass_ratio_over_possible_subsets():
    rng = Random(204)
    for _ in range(CASES):
        sig = random_signature(rng)
        prem = random_distinct_premises(rng, sig)
        dist = random_distribution(rng, sig)
        alpha = random_formula(rng, sig)
        pocket = set(mps(prem, dist).union_models)
        den = sum(m for w, m in zip(dist.worlds, dist.weights) if w in pocket)
        num = sum(
            m
            for w, m in zip(dist.worlds, dist.weights)
            if w in pocket and evaluate(alpha, w)
        )
        assert cond_prob(Query(alpha, prem), dist, LIMIT_ONE) == num / den


def _distinct_premises(rng, sig, n):
    """n distinct random premises, then three of them again."""
    seen = {}
    while len(seen) < n:
        seen.setdefault(random_formula(rng, sig, depth=2), None)
    return tuple(seen) + tuple(seen)[:3]


def _maximal_reference(premises, worlds):
    """Each world's satisfied premise set; the sets of maximal size, and the
    worlds that have one, in list order."""
    formulas = list(dict.fromkeys(premises))
    sat = [frozenset(f for f in formulas if evaluate(f, w)) for w in worlds]
    top = max(map(len, sat))
    return (frozenset(x for x in sat if len(x) == top),
            tuple(w for w, x in zip(worlds, sat) if len(x) == top))


@pytest.mark.parametrize("n", [9, 12, 70])
def test_subsets_past_one_byte_of_premises(n):
    # 9-12 distinct premises pack into 2-byte patterns, 70 into 9 bytes; past
    # 12 the lattice walk is too slow, so the per-world reference decides
    rng = Random(210 + n)
    for _ in range(40 if n <= 12 else 60):
        sig = random_signature(rng)
        prem = _distinct_premises(rng, sig, n)
        worlds = enumerate_worlds(sig)
        dist = random_distribution(rng, sig)
        for got, pool in ((mcs(prem, worlds), worlds), (mps(prem, dist), dist.support())):
            assert (got.subsets, got.union_models) == _maximal_reference(prem, pool)
        if n <= 12:
            assert _same_analysis(mcs(prem, worlds), mcs_bruteforce(prem, worlds))
            assert _same_analysis(mps(prem, dist), mps_bruteforce(prem, dist))


def test_subsets_of_no_premises():
    rng = Random(213)
    for _ in range(20):
        sig = random_signature(rng)
        worlds = enumerate_worlds(sig)
        dist = random_distribution(rng, sig)
        got = mcs((), worlds)
        assert (got.subsets, got.union_models) == (frozenset({frozenset()}), tuple(worlds))
        assert _same_analysis(got, mcs_bruteforce((), worlds))
        got = mps((), dist)
        assert (got.subsets, got.union_models) == (frozenset({frozenset()}),
                                                   tuple(dist.support()))
        assert _same_analysis(got, mps_bruteforce((), dist))


def test_mps_and_possible_entails_read_the_cached_columns(monkeypatch):
    # both answer from dist.columns, never packing the support again, and
    # unpack each atom's column from the words at most once
    rng = Random(209)
    cases = []
    for _ in range(CASES):
        sig = random_signature(rng)
        prem = random_distinct_premises(rng, sig)
        dist = random_distribution(rng, sig)
        alpha = random_formula(rng, sig)
        cases.append((prem, dist, alpha, mps_bruteforce(prem, dist),
                      classical_entails(prem, alpha, dist.support())))

    def no_pack(*args):
        raise AssertionError("pack called")

    unpacked = []
    unpack = genlogic.worlds._unpack
    monkeypatch.setattr(genlogic.worlds, "pack", no_pack)
    monkeypatch.setattr(genlogic.worlds, "_unpack",
                        lambda words, j: unpacked.append((id(words), j)) or unpack(words, j))
    for prem, dist, alpha, want_mps, want_entails in cases:
        for _ in range(2):
            got = mps(prem, dist)
            assert _same_analysis(got, want_mps)
            assert list(got.union_models) == [w for w in dist.support()
                                              if w in want_mps.union_models]
            assert possible_entails(prem, alpha, dist) == want_entails
        assert len(unpacked) == len(set(unpacked))


def test_certainty_iff_classical_entailment():
    # fully supported distribution, satisfiable premises, mu = 1
    rng = Random(205)
    defined = 0
    for _ in range(RAW):
        sig = random_signature(rng)
        prem = random_distinct_premises(rng, sig)
        dist = random_distribution(rng, sig, all_positive=True)
        alpha = random_formula(rng, sig)
        p = cond_prob(Query(alpha, prem), dist, ONE)
        if p is UNDEFINED:
            continue
        defined += 1
        assert (p == 1) == classical_entails(prem, alpha, dist.worlds)
    assert defined >= 200


def test_certainty_iff_possible_entailment():
    # arbitrary support, premises satisfiable somewhere possible, mu = 1
    rng = Random(206)
    defined = 0
    for _ in range(RAW):
        sig = random_signature(rng)
        prem = random_distinct_premises(rng, sig)
        dist = random_distribution(rng, sig)
        alpha = random_formula(rng, sig)
        p = cond_prob(Query(alpha, prem), dist, ONE)
        if p is UNDEFINED:
            continue
        defined += 1
        assert (p == 1) == possible_entails(prem, alpha, dist)
    assert defined >= 200


def test_limit_certainty_iff_entailment_from_every_consistent_subset():
    rng = Random(207)
    for _ in range(CASES):
        sig = random_signature(rng)
        prem = random_distinct_premises(rng, sig)
        dist = random_distribution(rng, sig, all_positive=True)
        alpha = random_formula(rng, sig)
        p = cond_prob(Query(alpha, prem), dist, LIMIT_ONE)
        want = all(
            classical_entails(tuple(s), alpha, dist.worlds)
            for s in mcs_bruteforce(prem, dist.worlds).subsets
        )
        assert (p == 1) == want


def test_limit_certainty_iff_entailment_from_every_possible_subset():
    rng = Random(208)
    for _ in range(CASES):
        sig = random_signature(rng)
        prem = random_distinct_premises(rng, sig)
        dist = random_distribution(rng, sig)
        alpha = random_formula(rng, sig)
        p = cond_prob(Query(alpha, prem), dist, LIMIT_ONE)
        want = all(
            possible_entails(tuple(s), alpha, dist)
            for s in mps_bruteforce(prem, dist).subsets
        )
        assert (p == 1) == want


# -- worked goldens ------------------------------------------------------------


@pytest.fixture
def clash(rain_sig):
    texts = ("rain", "wet", "rain -> wet", "~wet")
    return tuple(parse_formula(t, rain_sig) for t in texts)


def test_consistent_subsets_golden(rain_sig, rain_worlds, clash):
    rain, wet, arrow, dry = clash
    got = mcs(clash, rain_worlds)
    assert got.subsets == frozenset({frozenset({rain, wet, arrow})})
    assert [w.bitstring() for w in got.union_models] == ["11"]


def test_possible_subsets_golden(rain_sig, drizzle_dist, clash):
    rain, wet, arrow, dry = clash
    got = mps(clash, drizzle_dist)
    assert got.subsets == frozenset(
        {frozenset({wet, arrow}), frozenset({arrow, dry})}
    )
    assert sorted(w.bitstring() for w in got.union_models) == ["00", "01"]
    # the conditional collapses onto those two worlds
    p = cond_prob(Query(wet, clash), drizzle_dist, LIMIT_ONE)
    assert p == Fraction(1, 10)


def test_empty_premises_subsets(rain_sig, rain_worlds, fig_dist):
    got = mcs((), rain_worlds)
    assert got.subsets == frozenset({frozenset()})
    assert set(got.union_models) == set(rain_worlds)
    got2 = mps((), fig_dist)
    assert got2.subsets == frozenset({frozenset()})
    assert set(got2.union_models) == set(fig_dist.support())
