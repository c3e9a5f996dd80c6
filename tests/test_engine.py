"""Exact-inference goldens and unit behaviour for the engine kernel."""

from fractions import Fraction

import pytest

from genlogic import (
    LIMIT_ONE,
    ONE,
    UNDEFINED,
    Query,
    Regime,
    classical_entails,
    cond_prob,
    cond_prob_multi,
    evaluate,
    fixed,
    generative_consequence,
    ground,
    joint_prob,
    mle_distribution,
    parse_formula,
    parse_query,
    possible_entails,
    posterior_data,
    posterior_models,
    prob,
)


def q(text, sig):
    return Query(*parse_query(text, sig))


# -- regime plumbing ---------------------------------------------------------


def test_regime_validation():
    assert ONE.kind == "one" and ONE.mu is None
    assert LIMIT_ONE.kind == "limit"
    assert fixed(Fraction(4, 5)).mu == Fraction(4, 5)
    with pytest.raises(ValueError):
        Regime("one", mu=Fraction(1, 2))
    with pytest.raises(ValueError):
        Regime("fixed")
    with pytest.raises(ValueError):
        fixed(0)
    with pytest.raises(ValueError):
        fixed(1)
    with pytest.raises(ValueError):
        fixed(Fraction(3, 2))
    with pytest.raises(ValueError):
        Regime("almost")


def test_undefined_is_not_boolean():
    assert repr(UNDEFINED) == "undefined"
    with pytest.raises(TypeError):
        bool(UNDEFINED)
    assert (UNDEFINED is UNDEFINED) and UNDEFINED != 0


def test_score_counts_satisfied_premises(rain_sig, rain_worlds):
    prem = [parse_formula(s, rain_sig) for s in ("rain", "wet", "rain -> wet")]
    assert [sum(evaluate(f, w) for f in prem) for w in rain_worlds] == [1, 2, 1, 3]
    # duplicates count twice
    assert sum(evaluate(f, rain_worlds[3]) for f in prem + [prem[0]]) == 4


# -- golden queries ----------------------------------------------------------


def test_rain_given_wet_from_data(rain_sig, rain_data):
    query = q("rain | wet", rain_sig)
    assert cond_prob(query, rain_data, ONE) == Fraction(3, 5)
    assert cond_prob(query, rain_data, LIMIT_ONE) == Fraction(3, 5)


def test_rain_unconditional_at_mu(rain_sig, rain_data):
    got = prob(parse_formula("rain", rain_sig), rain_data, fixed(Fraction(4, 5)))
    assert got == Fraction(11, 25)


def test_blames_goldens(blames_sig, blames_data):
    every = ground(parse_formula("forall x. blames(x,a)", blames_sig), blames_sig)
    some = ground(parse_formula("exists x. blames(x,a)", blames_sig), blames_sig)
    assert cond_prob(Query(every, (some,)), blames_data, ONE) == Fraction(3, 5)
    assert cond_prob(Query(every, (some,)), blames_data, LIMIT_ONE) == Fraction(3, 5)

    concl = [parse_formula(s, blames_sig) for s in ("blames(a,b)", "blames(b,a)")]
    prem = [parse_formula(s, blames_sig) for s in ("~blames(a,a)", "~blames(b,b)")]
    assert cond_prob_multi(concl, prem, blames_data, LIMIT_ONE) == Fraction(3, 7)
    assert cond_prob_multi(concl, prem, blames_data, ONE) is UNDEFINED


def test_figure_distribution_limit_and_fixed(rain_sig, fig_dist):
    # conclusion repeats a premise: its factor shows up twice in the numerator
    query = q("rain | rain ; wet ; ~wet", rain_sig)
    assert cond_prob(query, fig_dist, LIMIT_ONE) == 1
    for num, den in ((1, 10), (1, 2), (9, 10)):
        mu = Fraction(num, den)
        got = cond_prob(query, fig_dist, fixed(mu))
        want = (
            Fraction(3, 5) * mu * (1 - mu) ** 3 + Fraction(2, 5) * mu ** 3 * (1 - mu)
        ) / (Fraction(3, 5) * mu * (1 - mu) ** 2 + Fraction(2, 5) * mu ** 2 * (1 - mu))
        assert got == want


def test_certainty_without_classical_entailment(rain_sig, gap_dist, rain_worlds):
    # all the wet mass sits on rain worlds, yet wet alone does not entail rain
    query = q("rain | wet", rain_sig)
    assert cond_prob(query, gap_dist, ONE) == 1
    wet = parse_formula("wet", rain_sig)
    rain = parse_formula("rain", rain_sig)
    assert not classical_entails([wet], rain, rain_worlds)
    assert possible_entails([wet], rain, gap_dist)


def test_contradiction_does_not_explode(rain_sig, fig_dist):
    base = prob(parse_formula("wet", rain_sig), fig_dist, LIMIT_ONE)
    query = q("wet | rain ; ~rain", rain_sig)
    assert cond_prob(query, fig_dist, LIMIT_ONE) == base
    assert base == Fraction(1, 2)


def test_empty_support_is_undefined(rain_sig, drizzle_dist):
    # no weight on any world satisfying the premise
    query = q("wet | rain & wet", rain_sig)
    assert cond_prob(query, drizzle_dist, ONE) is UNDEFINED
    assert cond_prob(query, drizzle_dist, fixed(Fraction(1, 2))) != UNDEFINED
    assert cond_prob(query, drizzle_dist, LIMIT_ONE) != UNDEFINED


def test_joint_prob_and_multi(rain_sig, fig_dist):
    a = parse_formula("rain", rain_sig)
    b = parse_formula("wet", rain_sig)
    assert joint_prob([a, b], fig_dist, ONE) == Fraction(3, 10)
    got = cond_prob_multi([a, b], [parse_formula("rain | wet", rain_sig)], fig_dist, ONE)
    assert got == Fraction(3, 10) / Fraction(6, 10)


def test_cond_prob_accepts_dataset_and_distribution(rain_sig, rain_data, rain_worlds):
    query = q("wet | rain", rain_sig)
    dist = mle_distribution(rain_data, rain_worlds)
    assert cond_prob(query, rain_data, ONE) == cond_prob(query, dist, ONE)


# -- fixed-regime numerics ---------------------------------------------------


def test_fixed_float_matches_exact(rain_sig, rain_data):
    query = q("wet | rain -> wet ; rain", rain_sig)
    exact = cond_prob(query, rain_data, fixed(Fraction(7, 10)))
    approx = cond_prob(query, rain_data, fixed(0.7))
    assert isinstance(exact, Fraction)
    assert approx == pytest.approx(float(exact), rel=1e-12)


def test_fixed_small_mu_is_stable(rain_sig, rain_data):
    # r > 1 path: reference score flips to the minimum so powers shrink
    query = q("wet | rain", rain_sig)
    got = cond_prob(query, rain_data, fixed(1e-9))
    assert 0 <= got <= 1


def test_fixed_skips_zero_mass_worlds(rain_sig, gap_dist):
    query = q("wet | rain", rain_sig)
    got = cond_prob(query, gap_dist, fixed(Fraction(9, 10)))
    assert 0 <= got <= 1


# -- posteriors --------------------------------------------------------------


def test_posterior_data_sums_to_one(rain_sig, rain_data):
    prem = [parse_formula("rain", rain_sig)]
    for regime in (ONE, LIMIT_ONE, fixed(Fraction(4, 5))):
        post = posterior_data(prem, rain_data, regime)
        assert post is not UNDEFINED
        assert sum(c * w for (_, c), w in zip(rain_data.entries, post)) == 1


def test_posterior_data_zero_outside_support(rain_sig, rain_data):
    prem = [parse_formula("rain", rain_sig)]
    post = posterior_data(prem, rain_data, ONE)
    for (world, _), w in zip(rain_data.entries, post):
        if world.bitstring()[0] == "0":
            assert w == 0


def test_posterior_data_undefined(rain_sig, rain_data):
    prem = [parse_formula("rain & ~rain", rain_sig)]
    assert posterior_data(prem, rain_data, ONE) is UNDEFINED


def test_posterior_models_excludes_zero_mass(rain_sig, gap_dist):
    post = posterior_models([], gap_dist, LIMIT_ONE)
    assert post is not UNDEFINED
    assert sum(post) == 1
    for weight, mass in zip(post, gap_dist.weights):
        if mass == 0:
            assert weight == 0


def test_posterior_models_conditions_on_premises(rain_sig, fig_dist):
    prem = [parse_formula("rain", rain_sig)]
    post = posterior_models(prem, fig_dist, ONE)
    support = {w.bitstring(): m for w, m in zip(fig_dist.worlds, post) if m > 0}
    assert set(support) == {"10", "11"}
    assert support["11"] == Fraction(3, 4)


# -- entailment oracles over worlds ------------------------------------------


def test_classical_entails(rain_sig, rain_worlds):
    prem = [parse_formula("rain", rain_sig), parse_formula("rain -> wet", rain_sig)]
    assert classical_entails(prem, parse_formula("wet", rain_sig), rain_worlds)
    assert not classical_entails(
        [parse_formula("rain | wet", rain_sig)],
        parse_formula("wet", rain_sig),
        rain_worlds,
    )
    # inconsistent premises entail everything
    assert classical_entails(
        [parse_formula("rain & ~rain", rain_sig)],
        parse_formula("wet", rain_sig),
        rain_worlds,
    )


def test_possible_entails_restricts_to_support(rain_sig, drizzle_dist):
    # support is {00, 10}: wet never holds there
    assert possible_entails(
        [parse_formula("rain", rain_sig)],
        parse_formula("~wet", rain_sig),
        drizzle_dist,
    )
    assert not possible_entails(
        [], parse_formula("rain", rain_sig), drizzle_dist
    )


# -- consequence at a threshold ----------------------------------------------


def test_generative_consequence(rain_sig, rain_data):
    query = q("rain | wet", rain_sig)  # value 3/5
    assert generative_consequence(query, rain_data, Fraction(3, 5), ONE)
    assert not generative_consequence(query, rain_data, Fraction(2, 3), ONE)
    bad = q("rain & ~rain | rain & ~rain", rain_sig)
    assert generative_consequence(bad, rain_data, Fraction(3, 4), ONE) is UNDEFINED
    with pytest.raises(ValueError):
        generative_consequence(query, rain_data, Fraction(1, 2), ONE)
    with pytest.raises(ValueError):
        generative_consequence(query, rain_data, Fraction(11, 10), ONE)


# -- empirical distribution ---------------------------------------------------


def test_mle_distribution(rain_sig, rain_data, rain_worlds):
    dist = mle_distribution(rain_data, rain_worlds)
    assert dist.weights == (
        Fraction(4, 10),
        Fraction(2, 10),
        Fraction(1, 10),
        Fraction(3, 10),
    )


def test_mle_distribution_rejects_bad_world_list(rain_sig, rain_data, rain_worlds):
    with pytest.raises(ValueError):
        mle_distribution(rain_data, rain_worlds[:2])
    with pytest.raises(ValueError):
        mle_distribution(rain_data, list(rain_worlds) + [rain_worlds[0]])
