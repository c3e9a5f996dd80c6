"""The benchmark's reference computations against genlogic.oracle and by hand.

Run with: python3 -m pytest perfbench/tests
"""

from fractions import Fraction

import numpy as np
import pytest

import reference as ref
from workloads import bool_columns, literal
from genlogic import (ModelDistribution, Query, Signature, UNDEFINED, enumerate_worlds,
                      parse_formula)
from genlogic.oracle import (allnn_bruteforce, cond_bruteforce, limit_bruteforce,
                             mcs_bruteforce, mps_bruteforce)

def random_formula(rng, atoms, depth: int):
    """A random formula over the given atom indices, depth binary levels deep."""
    if depth == 0:
        f = ("atom", int(rng.choice(atoms)))
        return ("not", f) if rng.random() < 0.5 else f
    op = ("and", "or", "imp", "iff")[int(rng.integers(4))]
    f = (op, random_formula(rng, atoms, depth - 1), random_formula(rng, atoms, depth - 1))
    return ("not", f) if rng.random() < 0.2 else f


CASES = [(n_atoms, seed) for n_atoms in (3, 4, 5) for seed in range(12)]


def instance(n_atoms, seed):
    """A distribution with some zero-weight worlds and a random question."""
    rng = np.random.default_rng([n_atoms, seed])
    names = tuple(f"x{j}" for j in range(n_atoms))
    sig = Signature(propositions=names)
    mass = rng.integers(0, 4, size=1 << n_atoms)  # zeros are common
    if not mass.any():
        mass[0] = 1
    total = int(mass.sum())
    dist = ModelDistribution(tuple(enumerate_worlds(sig)),
                             tuple(Fraction(int(m), total) for m in mass))
    atoms = np.arange(n_atoms)
    lit = literal(int(rng.integers(n_atoms)), bool(rng.random() < 0.5))
    premises = [lit, lit, random_formula(rng, atoms, 1), random_formula(rng, atoms, 0)]
    if seed % 2:
        premises.append(("not", lit))
    conclusion = random_formula(rng, atoms, 1)
    return names, sig, mass, dist, conclusion, premises


def parsed(f, names, sig):
    return parse_formula(ref.render(f, names), sig)


def program_value(v):
    return None if v is UNDEFINED else v


@pytest.mark.parametrize("n_atoms,seed", CASES)
def test_conditional_matches_oracle_in_every_regime(n_atoms, seed):
    names, sig, mass, dist, conclusion, premises = instance(n_atoms, seed)
    cols = bool_columns(n_atoms)
    query = Query(parsed(conclusion, names, sig),
                  tuple(parsed(p, names, sig) for p in premises))
    hist = ref.score_histogram(premises, conclusion, cols, mass)
    n = len(premises)
    assert ref.conditional(hist, n, "one") == program_value(cond_bruteforce(query, dist, 1))
    assert ref.conditional(hist, n, "limit") == program_value(limit_bruteforce(query, dist))
    exact = cond_bruteforce(query, dist, Fraction(4, 5))
    assert ref.conditional(hist, n, "fixed", Fraction(4, 5)) == exact
    assert ref.conditional(hist, n, "fixed", 0.8) == pytest.approx(float(exact), rel=1e-12)


@pytest.mark.parametrize("n_atoms,seed", CASES[::3])
def test_unconditional_matches_oracle(n_atoms, seed):
    names, sig, mass, dist, conclusion, _ = instance(n_atoms, seed)
    query = Query(parsed(conclusion, names, sig), ())
    hist = ref.score_histogram((), conclusion, bool_columns(n_atoms), mass)
    assert ref.conditional(hist, 0, "one") == cond_bruteforce(query, dist, 1)
    assert ref.conditional(hist, 0, "limit") == limit_bruteforce(query, dist)
    assert ref.conditional(hist, 0, "fixed", Fraction(4, 5)) == \
        cond_bruteforce(query, dist, Fraction(4, 5))


@pytest.mark.parametrize("n_atoms,seed", CASES)
def test_maximal_subsets_match_oracle(n_atoms, seed):
    names, sig, mass, dist, _, premises = instance(n_atoms, seed)
    cols = bool_columns(n_atoms)
    bits = ref.world_bits(cols)
    distinct = list(dict.fromkeys(premises))
    formulas = [parsed(f, names, sig) for f in distinct]
    for live, want in ((np.ones(len(cols), dtype=bool), mcs_bruteforce(formulas, dist.worlds)),
                       (mass > 0, mps_bruteforce(formulas, dist))):
        subsets, rows = ref.maximal_subsets(distinct, cols, live)
        assert subsets == {frozenset(formulas.index(f) for f in s) for s in want.subsets}
        assert sorted(bits[r] for r in rows) == sorted(w.bits for w in want.union_models)


def test_world_bits_follow_the_enumeration_order():
    sig = Signature(propositions=("p", "q", "r", "s"))
    assert ref.world_bits(bool_columns(4)) == [w.bits for w in enumerate_worlds(sig)]


@pytest.mark.parametrize("seed", range(5))
def test_hamming_matches_oracle(seed):
    rng = np.random.default_rng(seed)
    train = rng.random((23, 784)) < 0.3
    test = rng.random((7, 784)) < 0.3
    want = allnn_bruteforce(train.astype(int).tolist(), test.astype(int).tolist())
    assert ref.hamming(train, test).tolist() == want


def test_mann_whitney_by_hand():
    # Pairs: 0.9>0.8, 0.9>0.1, 0.8=0.8 (half), 0.8>0.1 -> 3.5 of 4.
    assert ref.mann_whitney_auc([0.9, 0.8, 0.8, 0.1], [1, 1, 0, 0]) == Fraction(7, 8)
    assert ref.mann_whitney_auc([0.5, 0.5, 0.5], [1, 0, 0]) == Fraction(1, 2)
    assert ref.mann_whitney_auc([1, 2, 3, 4], [0, 0, 1, 1]) == 1
    assert ref.mann_whitney_auc([1, 2, 3, 4], [1, 1, 0, 0]) == 0
    # One positive tied with one of three negatives and above the others: 2.5 of 3.
    assert ref.mann_whitney_auc([2, 2, 1, 0], [1, 0, 0, 0]) == Fraction(5, 6)
    with pytest.raises(ValueError):
        ref.mann_whitney_auc([1, 2], [1, 1])


def test_mann_whitney_range_by_hand():
    # 1.0 and 1.0 - 1e-15 may compare either way; 0.5 is clearly below both.
    scores, positive = [1.0, 1.0 - 1e-15, 0.5], [1, 0, 0]
    assert ref.mann_whitney_auc_range(scores, positive, 1e-9) == (Fraction(1, 2), 1)
    assert ref.mann_whitney_auc_range(scores, positive, 0.0) == (1, 1)


def test_digit_scores_by_hand():
    dist = np.array([[3, 1, 1, 2]])
    labels = np.array([0, 1, 2, 1])
    assert ref.limit_scores(dist, labels, 3).tolist() == [[0, 0.5, 0.5]]
    # Rows 1 and 2 tie at distance 1; k = 1 takes the earlier one.
    assert ref.knn_scores(dist, labels, 1, 3).tolist() == [[0, 1, 0]]
    assert ref.knn_scores(dist, labels, 3, 3).tolist() == [[0, 2 / 3, 1 / 3]]
    r = 0.25  # (1 - mu) / mu at mu = 0.8
    total = r ** 2 + 1 + 1 + r
    want = [r ** 2 / total, (1 + r) / total, 1 / total]
    assert ref.fixed_scores(dist, labels, 0.8, 3)[0].tolist() == pytest.approx(want)
