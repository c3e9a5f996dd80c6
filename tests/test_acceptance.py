"""Seven acceptance gates, each reporting one PASS/FAIL line.

Tolerances are stated inline; everything marked exact compares Fractions
(or bit-identical floats) with zero tolerance. The digit experiments run
on the bundled synthetic idx files at full scale (60k/10k): real scans,
when present under data/mnist or $GENLOGIC_MNIST_DIR, work identically.
"""

import time
import warnings
from fractions import Fraction

import numpy as np
import pytest

from genlogic import (
    Dataset,
    LIMIT_ONE,
    ONE,
    Query,
    UNDEFINED,
    classical_entails,
    cond_prob,
    cond_prob_multi,
    enumerate_worlds,
    fixed,
    ground,
    mcs,
    mps,
    parse_formula,
    prob,
    running_estimate,
    update,
)
from genlogic.mnist import (
    binarize,
    generate_all,
    image_dataset,
    learning_curve,
    predict_digit,
    write_pgm,
)
from genlogic.oracle import allnn_bruteforce


def _report(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"\nCRITERION {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_golden_examples(
    capsys, rain_sig, rain_data, fig_dist, gap_dist, drizzle_dist,
    blames_sig, blames_data, bird_sig, bird_data, rain_worlds,
):
    t0 = time.perf_counter()
    ok = True
    notes = []

    def check(label, condition):
        nonlocal ok
        if not condition:
            ok = False
            notes.append(label)

    f = lambda text, sig=rain_sig: parse_formula(text, sig)

    # Example 1: table-driven conditional
    check("ex1", cond_prob(Query(f("rain"), (f("wet"),)), rain_data, ONE) == Fraction(3, 5))

    # Example 2: quantified query and the strict-regime gap
    every = ground(parse_formula("forall x. blames(x,a)", blames_sig), blames_sig)
    some = ground(parse_formula("exists x. blames(x,a)", blames_sig), blames_sig)
    check("ex2-forall", cond_prob(Query(every, (some,)), blames_data, ONE) == Fraction(3, 5))
    concl = [parse_formula(t, blames_sig) for t in ("blames(a,b)", "blames(b,a)")]
    prem = [parse_formula(t, blames_sig) for t in ("~blames(a,a)", "~blames(b,b)")]
    check("ex2-limit", cond_prob_multi(concl, prem, blames_data, LIMIT_ONE) == Fraction(3, 7))
    check("ex2-one-undefined", cond_prob_multi(concl, prem, blames_data, ONE) is UNDEFINED)

    # streaming update golden
    arrow = parse_formula("bird -> fly", bird_sig)
    est = running_estimate(arrow, bird_data, ONE)
    check("update-start", est.value == 1)
    exception = enumerate_worlds(bird_sig)[2]
    est = update(est, exception)
    check("update-step", est.value == Fraction(10, 11))
    check("update-recompute", est.value == prob(arrow, bird_data.extended(exception), ONE))

    # limit semantics on the contradictory premise multiset
    fig_query = Query(f("rain"), (f("rain"), f("wet"), f("~wet")))
    check("limit-one", cond_prob(fig_query, fig_dist, LIMIT_ONE) == 1)

    # certainty without classical entailment
    check("possible-certainty", cond_prob(Query(f("rain"), (f("wet"),)), gap_dist, ONE) == 1)
    check("no-classical", not classical_entails([f("wet")], f("rain"), rain_worlds))

    # maximal subset analyses
    clash = tuple(f(t) for t in ("rain", "wet", "rain -> wet", "~wet"))
    got_mcs = mcs(clash, rain_worlds)
    check("mcs", got_mcs.subsets == frozenset({frozenset(clash[:3])}))
    got_mps = mps(clash, drizzle_dist)
    want_mps = frozenset({frozenset({clash[1], clash[2]}), frozenset({clash[2], clash[3]})})
    check("mps", got_mps.subsets == want_mps)
    check("mps-union", sorted(w.bitstring() for w in got_mps.union_models) == ["00", "01"])

    elapsed = time.perf_counter() - t0
    check("under-1s", elapsed < 1.0)
    detail = (
        f"golden examples exact in {elapsed * 1000:.0f} ms"
        if ok
        else f"failed: {', '.join(notes)}"
    )
    _report(capsys, 1, ok, detail)


def test_criterion_2_closed_form_curve(capsys, rain_sig, fig_dist):
    query = Query(
        parse_formula("rain", rain_sig),
        tuple(parse_formula(t, rain_sig) for t in ("rain", "wet", "~wet")),
    )
    ok = True
    for k in range(1, 10):
        mu = Fraction(k, 10)
        want = (
            Fraction(6, 10) * mu * (1 - mu) ** 3 + Fraction(4, 10) * mu**3 * (1 - mu)
        ) / (Fraction(6, 10) * mu * (1 - mu) ** 2 + Fraction(4, 10) * mu**2 * (1 - mu))
        if cond_prob(query, fig_dist, fixed(mu)) != want:
            ok = False
    _report(capsys, 2, ok, "fixed-mu matches the printed closed form at mu=0.1..0.9, exact")


def test_criterion_3_property_suites(capsys):
    import test_engine_props as props
    import test_subsets as subs

    suites = [
        props.test_fixed_regime_matches_bruteforce,
        props.test_limit_regime_matches_bruteforce,
        props.test_one_regime_matches_mass_ratio,
        props.test_normalization_one_and_limit,
        props.test_additivity_one_and_limit,
        props.test_negation_all_regimes,
        props.test_bayes_product_rule,
        props.test_posterior_data_recomposition,
        props.test_contradictory_pair_is_inert_in_the_limit,
        props.test_limit_is_the_mu_to_one_endpoint,
        subs.test_mcs_matches_bruteforce,
        subs.test_mps_matches_bruteforce,
        subs.test_limit_prob_is_mass_ratio_over_consistent_subsets,
        subs.test_limit_prob_is_mass_ratio_over_possible_subsets,
        subs.test_certainty_iff_classical_entailment,
        subs.test_certainty_iff_possible_entailment,
        subs.test_limit_certainty_iff_entailment_from_every_consistent_subset,
        subs.test_limit_certainty_iff_entailment_from_every_possible_subset,
    ]
    failed = []
    for suite in suites:
        try:
            suite()
        except AssertionError:
            failed.append(suite.__name__)
    _report(
        capsys, 3, not failed,
        f"{len(suites)} randomized suites, >=200 cases each, exact checks at zero tolerance"
        if not failed else f"failing suites: {', '.join(failed)}",
    )


def test_criterion_4_generation_at_full_scale(capsys, tmp_path, mnist_split):
    train, _ = mnist_split
    t0 = time.perf_counter()
    grid = generate_all(train)
    paths = []
    for digit in range(10):
        path = tmp_path / f"digit-{digit}.pgm"
        write_pgm(path, grid[digit])
        paths.append(path)
    elapsed = time.perf_counter() - t0

    # independent reference: per-pixel class mean over the binarized images
    bits = binarize(train.images)
    ok = True
    for digit in range(10):
        mean = bits[np.asarray(train.labels) == digit].mean(axis=0)
        if not np.array_equal(grid[digit], mean):
            ok = False
    ok = ok and all(p.read_bytes().startswith(b"P5\n28 28\n255\n") for p in paths)
    ok = ok and len(paths) == 10 and elapsed <= 60.0
    _report(
        capsys, 4, ok,
        f"60k-image class means exact, 10 pgm files, {elapsed:.1f}s (limit 60s)",
    )


def test_criterion_5_prediction_equals_neighbour_vote(capsys, mnist_split):
    train, test = mnist_split
    train, test = train.take(1000), test.take(1000)
    t0 = time.perf_counter()
    train_bits = binarize(train.images)
    test_bits = binarize(test.images)
    distances = allnn_bruteforce(train_bits.tolist(), test_bits.tolist())
    labels = np.asarray(train.labels)

    mismatches = 0
    for i, image in enumerate(test.images):
        post = predict_digit(train, image, LIMIT_ONE)
        row = distances[i]
        best = min(row)
        votes = [0] * 10
        for j, d in enumerate(row):
            if d == best:
                votes[int(labels[j])] += 1
        want = tuple(Fraction(v, sum(votes)) for v in votes)
        if tuple(post) != want:
            mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed <= 300.0
    _report(
        capsys, 5, ok,
        f"1000/1000 images, {mismatches} mismatches, {elapsed:.1f}s (limit 300s)",
    )


def test_criterion_6_auc_floor_and_ordering(capsys, mnist_split):
    train, test = mnist_split
    points = learning_curve(
        train, test, sizes=(100, 300, 1000), mus=(0.8,),
        include_limit=True, ks=(1, 3, 5), test_size=1000,
    )
    macro = {}
    for p in points:
        macro[(p.method, p.param, p.train_size)] = p.macro_auc

    floor_keys = [("gl-limit", "", 1000), ("gl-mu", "0.8", 1000),
                  ("knn", "1", 1000), ("knn", "3", 1000), ("knn", "5", 1000)]
    above = {k: macro[k] for k in floor_keys}
    ok = all(v > 0.5 for v in above.values())

    # warning-only ordering check at every size
    violations = [
        size
        for size in (100, 300, 1000)
        if macro[("gl-mu", "0.8", size)] < macro[("gl-limit", "", size)]
    ]
    if violations:
        warnings.warn(
            "fixed-mu macro-AUC fell below the limit regime at sizes "
            f"{violations}; reported, not gated", stacklevel=1)
    summary = ", ".join(f"{k[0]}{k[1]}={v:.3f}" for k, v in above.items())
    _report(
        capsys, 6, ok,
        f"macro-AUC at 1000/1000 all above 0.5 ({summary}); "
        + ("mu>=limit ordering held" if not violations
           else f"ordering violated at {violations} (warning only)"),
    )


def test_criterion_7_scaling_and_update_speed(capsys, mnist_split):
    train, _ = mnist_split
    sig = image_dataset(train.take(1)).signature
    alpha = parse_formula("d3", sig)
    prem = (parse_formula("p100", sig), parse_formula("~p200", sig))

    small = image_dataset(train.take(10_000))
    large = image_dataset(train.take(20_000))
    query = Query(alpha, prem)

    def timed(data):
        t0 = time.perf_counter()
        cond_prob(query, data, LIMIT_ONE)
        return time.perf_counter() - t0

    ratios = []
    for _ in range(5):
        ratios.append(timed(large) / timed(small))
    ratios.sort()
    median_ratio = ratios[2]

    # 10k constant-time updates against one full recompute
    stream = [w for w, c in small.entries for _ in range(c)][:10_000]
    base = image_dataset(train.take(1))
    est = running_estimate(alpha, base, ONE)
    t0 = time.perf_counter()
    for w in stream:
        est = update(est, w)
    update_elapsed = time.perf_counter() - t0
    full = Dataset(base.entries + tuple((w, 1) for w in stream))
    exact_match = est.value == prob(alpha, full, ONE)

    ok = median_ratio <= 2.5 and update_elapsed <= 1.0 and exact_match
    _report(
        capsys, 7, ok,
        f"20k/10k wall-time ratio {median_ratio:.2f} (limit 2.5), "
        f"10k updates in {update_elapsed * 1000:.0f} ms (limit 1s), "
        f"recompute match {'exact' if exact_match else 'BROKEN'}",
    )
