"""Maximal-subset analyses and the entailment characterizations built on them.

The four characterizations are biconditionals, so every random case is a
full check regardless of which side of the equivalence it lands on. All
comparisons are exact.
"""

from fractions import Fraction
from random import Random

import pytest

import genlogic.engine
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


def test_mps_and_possible_entails_read_the_cached_words(monkeypatch):
    # both answer from dist.words, never packing the support again
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

    monkeypatch.setattr(genlogic.engine, "pack", no_pack)
    for prem, dist, alpha, want_mps, want_entails in cases:
        got = mps(prem, dist)
        assert _same_analysis(got, want_mps)
        assert list(got.union_models) == [w for w in dist.support() if w in want_mps.union_models]
        assert possible_entails(prem, alpha, dist) == want_entails


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
