"""Randomized law checks for the inference engine.

Each suite draws at least 200 seeded cases over small signatures (at most
4 atoms, at most 5 premises) so the brute-force references stay cheap.
All equalities on Fractions are exact; the only tolerance anywhere is the
stated 1/1000 bound between the limit regime and mu = 1 - 1e-6.
"""

from fractions import Fraction
from random import Random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from genlogic import (
    LIMIT_ONE,
    ONE,
    UNDEFINED,
    And,
    ModelDistribution,
    Not,
    Or,
    Query,
    Signature,
    cond_prob,
    enumerate_worlds,
    evaluate,
    fixed,
    joint_prob,
    posterior_data,
    prob,
)
from genlogic.oracle import cond_bruteforce, limit_bruteforce

from helpers import (
    random_dataset,
    random_distribution,
    random_formula,
    random_mu,
    random_premises,
    random_signature,
)

CASES = 250
# guarded suites draw more raw cases so at least 200 survive the guard
RAW = 600


def _case(rng):
    sig = random_signature(rng)
    dist = random_distribution(rng, sig)
    alpha = random_formula(rng, sig)
    prem = random_premises(rng, sig)
    return sig, dist, alpha, prem


def test_fixed_regime_matches_bruteforce():
    rng = Random(101)
    for _ in range(CASES):
        sig, dist, alpha, prem = _case(rng)
        mu = random_mu(rng)
        query = Query(alpha, prem)
        assert cond_prob(query, dist, fixed(mu)) == cond_bruteforce(query, dist, mu)


def test_limit_regime_matches_bruteforce():
    rng = Random(102)
    for _ in range(CASES):
        sig, dist, alpha, prem = _case(rng)
        query = Query(alpha, prem)
        got = cond_prob(query, dist, LIMIT_ONE)
        want = limit_bruteforce(query, dist)
        assert got == want


def test_one_regime_matches_mass_ratio():
    rng = Random(103)
    defined = 0
    for _ in range(RAW):
        sig, dist, alpha, prem = _case(rng)
        got = cond_prob(Query(alpha, prem), dist, ONE)
        live = [
            (w, m)
            for w, m in zip(dist.worlds, dist.weights)
            if m > 0 and all(evaluate(f, w) for f in prem)
        ]
        den = sum(m for _, m in live)
        if den == 0:
            assert got is UNDEFINED
            continue
        defined += 1
        num = sum(m for w, m in live if evaluate(alpha, w))
        assert got == num / den
    assert defined >= 200


def test_normalization_one_and_limit():
    rng = Random(104)
    defined = 0
    for _ in range(RAW):
        sig, dist, alpha, prem = _case(rng)
        taut = Or(alpha, Not(alpha))
        for regime in (ONE, LIMIT_ONE):
            got = cond_prob(Query(taut, prem), dist, regime)
            if got is UNDEFINED:
                continue
            defined += 1
            assert got == 1
    assert defined >= 200


def test_additivity_one_and_limit():
    # inclusion-exclusion within the restricted world set, exact
    rng = Random(105)
    defined = 0
    for _ in range(RAW):
        sig, dist, _, prem = _case(rng)
        a = random_formula(rng, sig)
        b = random_formula(rng, sig)
        for regime in (ONE, LIMIT_ONE):
            p_or = cond_prob(Query(Or(a, b), prem), dist, regime)
            if p_or is UNDEFINED:
                continue
            defined += 1
            p_a = cond_prob(Query(a, prem), dist, regime)
            p_b = cond_prob(Query(b, prem), dist, regime)
            p_and = cond_prob(Query(And(a, b), prem), dist, regime)
            assert p_or == p_a + p_b - p_and
    assert defined >= 200


def test_negation_all_regimes():
    rng = Random(106)
    defined = 0
    for _ in range(RAW):
        sig, dist, alpha, prem = _case(rng)
        regimes = (ONE, LIMIT_ONE, fixed(random_mu(rng)))
        for regime in regimes:
            p = cond_prob(Query(alpha, prem), dist, regime)
            n = cond_prob(Query(Not(alpha), prem), dist, regime)
            if p is UNDEFINED:
                assert n is UNDEFINED
                continue
            defined += 1
            assert p + n == 1
    assert defined >= 200


def test_bayes_product_rule():
    # p(a|b) p(b) == p(b|a) p(a) == p(a, b), exact where defined
    rng = Random(107)
    defined = 0
    for _ in range(RAW):
        sig = random_signature(rng)
        dist = random_distribution(rng, sig)
        a = random_formula(rng, sig)
        b = random_formula(rng, sig)
        regime = ONE if rng.random() < 0.5 else fixed(random_mu(rng))
        joint = joint_prob([a, b], dist, regime)
        left = cond_prob(Query(a, (b,)), dist, regime)
        right = cond_prob(Query(b, (a,)), dist, regime)
        if left is UNDEFINED or right is UNDEFINED:
            continue
        defined += 1
        assert left * prob(b, dist, regime) == joint
        assert right * prob(a, dist, regime) == joint
    assert defined >= 200


def test_posterior_data_recomposition():
    # summing the per-datum conclusion factor under the data posterior
    # reproduces the conditional probability, in every regime
    rng = Random(108)
    defined = 0
    for _ in range(RAW):
        sig = random_signature(rng)
        data = random_dataset(rng, sig)
        alpha = random_formula(rng, sig)
        prem = random_premises(rng, sig)
        mu = random_mu(rng)
        for regime in (ONE, LIMIT_ONE, fixed(mu)):
            want = cond_prob(Query(alpha, prem), data, regime)
            post = posterior_data(prem, data, regime)
            if post is UNDEFINED:
                assert want is UNDEFINED
                continue
            defined += 1
            total = 0
            for (world, count), weight in zip(data.entries, post):
                sat = evaluate(alpha, world)
                if regime.kind == "fixed":
                    factor = regime.mu if sat else 1 - regime.mu
                else:
                    factor = 1 if sat else 0
                total += count * weight * factor
            assert total == want
    assert defined >= 200


def test_contradictory_pair_is_inert_in_the_limit():
    # appending {g, ~g} raises every score by exactly one, so the
    # restriction set and therefore the answer cannot move
    rng = Random(109)
    for _ in range(CASES):
        sig, dist, alpha, prem = _case(rng)
        g = random_formula(rng, sig)
        padded = prem + (g, Not(g))
        assert cond_prob(Query(alpha, padded), dist, LIMIT_ONE) == cond_prob(
            Query(alpha, prem), dist, LIMIT_ONE
        )
        assert cond_prob(Query(alpha, padded), dist, ONE) is UNDEFINED


def test_limit_is_the_mu_to_one_endpoint():
    near_one = fixed(Fraction(999_999, 1_000_000))
    tol = Fraction(1, 1000)
    rng = Random(110)
    for _ in range(CASES):
        sig, dist, alpha, prem = _case(rng)
        query = Query(alpha, prem)
        at_limit = cond_prob(query, dist, LIMIT_ONE)
        nearby = cond_prob(query, dist, near_one)
        assert at_limit is not UNDEFINED and nearby is not UNDEFINED
        assert abs(at_limit - nearby) <= tol


def test_dataset_equals_its_mle_distribution():
    from genlogic import enumerate_worlds, mle_distribution

    rng = Random(111)
    for _ in range(CASES):
        sig = random_signature(rng)
        data = random_dataset(rng, sig)
        dist = mle_distribution(data, enumerate_worlds(sig))
        alpha = random_formula(rng, sig)
        prem = random_premises(rng, sig)
        regime = (ONE, LIMIT_ONE, fixed(random_mu(rng)))[rng.randrange(3)]
        assert cond_prob(Query(alpha, prem), data, regime) == cond_prob(
            Query(alpha, prem), dist, regime
        )


# small and past-int64 denominators, so both mass dtypes are drawn
_WEIGHT = st.builds(Fraction, st.integers(0, 7),
                    st.one_of(st.integers(1, 60), st.integers(2**31, 2**64)))


@settings(max_examples=200, deadline=None)
@given(st.lists(_WEIGHT, min_size=8, max_size=8).filter(any))
def test_masses_are_the_weights_as_numerators(raw):
    weights = tuple(w / sum(raw) for w in raw)
    dist = ModelDistribution(tuple(enumerate_worlds(Signature(propositions=("p", "q", "r")))),
                             weights)
    nums = dist.masses.tolist()
    assert all(Fraction(m, dist.denominator) == w for m, w in zip(nums, weights))
    assert (dist.masses.dtype == np.int64) == (sum(nums) < 2**63)
    assert dist.positive.tolist() == [w > 0 for w in weights]
