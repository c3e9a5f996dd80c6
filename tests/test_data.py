from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genlogic import (
    LIMIT_ONE,
    ONE,
    Atom,
    Dataset,
    ModelDistribution,
    Query,
    Signature,
    World,
    classical_entails,
    cond_prob,
    dataset_from_csv,
    distribution_from_text,
    enumerate_worlds,
    fixed,
    mcs,
    mps,
    possible_entails,
    posterior_models,
)

from helpers import random_formula, random_premises


def test_dataset_from_csv_basic(rain_sig):
    data = dataset_from_csv("rain,wet\n1,0\n0,1\n1,0\n", rain_sig)
    assert data.size == 3
    assert [w.bitstring() for w, _ in data.entries] == ["10", "01", "10"]


def test_dataset_from_csv_permuted_header_and_counts(rain_sig):
    data = dataset_from_csv("wet,rain,count\n1,0,4\n0,1,2\n", rain_sig)
    assert data.size == 6
    assert data.entries[0][0].bitstring() == "01"
    assert data.entries[0][1] == 4


def test_dataset_csv_atom_named_count():
    sig = Signature(propositions=("rain", "count"))
    atoms_only = dataset_from_csv("rain,count\n1,0\n0,1\n", sig)
    assert [(w.bitstring(), c) for w, c in atoms_only.entries] == [("10", 1), ("01", 1)]
    counted = dataset_from_csv("rain,count,count\n1,0,3\n0,1,2\n", sig)
    assert [(w.bitstring(), c) for w, c in counted.entries] == [("10", 3), ("01", 2)]
    with pytest.raises(ValueError, match=r"missing \['count', 'rain'\]$"):
        dataset_from_csv("count\n1\n", sig)  # one name: the multiplicity column


def test_dataset_csv_quoted_predicate_atoms(blames_sig):
    text = ('"blames(a,a)","blames(a,b)","blames(b,a)","blames(b,b)",count\n'
            "1,0,0,1,2\n")
    data = dataset_from_csv(text, blames_sig)
    assert data.entries == ((World(blames_sig, 0b1001), 2),)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "empty"),
        ("rain\n1\n", "missing"),
        ("rain,wet,fog\n1,0,1\n", "unknown"),
        ("rain,wet,rain\n1,1,1\n", "repeated column"),
        ("rain,wet\n", "no rows"),
        ("rain,wet\n1\n", "expected 2 cells"),
        ("rain,wet\n1,2\n", "must be 0 or 1"),
        ("rain,wet,count\n1,0,0\n", "count must be a positive integer"),
        ("rain,wet,count\n1,0,x\n", "count must be a positive integer"),
        ("rain,wet,count\n1,0,²\n", "count must be a positive integer"),
    ],
)
def test_dataset_from_csv_errors(rain_sig, text, fragment):
    with pytest.raises(ValueError, match=fragment):
        dataset_from_csv(text, rain_sig)


def test_dataset_validation(rain_sig, bird_sig):
    with pytest.raises(ValueError, match="at least one"):
        Dataset(())
    with pytest.raises(ValueError, match="positive integer"):
        Dataset(((World(rain_sig, 0), 0),))
    with pytest.raises(ValueError, match="positive integer"):
        Dataset(((World(rain_sig, 0), Fraction(1, 2)),))
    with pytest.raises(ValueError, match="mix signatures"):
        Dataset(((World(rain_sig, 0), 1), (World(bird_sig, 0), 1)))


def test_world_lists_that_mix_signatures_are_refused():
    # a 2-atom list with a 3-atom world in it would pack bit 2 under 2 atoms
    sig2, sig3 = (Signature(propositions=tuple("pqr"[:n])) for n in (2, 3))
    mixed = (World(sig2, 0), World(sig3, 0b101))
    p = Atom("p")
    for build in (lambda: Dataset.of(mixed),
                  lambda: ModelDistribution(mixed, (Fraction(1, 2), Fraction(1, 2))),
                  lambda: ModelDistribution(mixed, (0.5, 0.5)),
                  lambda: mcs((p,), mixed),
                  lambda: classical_entails((p,), p, mixed)):
        with pytest.raises(ValueError, match="mix signatures"):
            build()
    # equal signatures that are distinct objects share a table
    same = (World(sig2, 0), World(Signature(propositions=("p", "q")), 0b11))
    assert mcs((p,), same).union_models == same[1:]
    assert classical_entails((p,), Atom("q"), same)


def test_dataset_helpers(rain_sig):
    ws = enumerate_worlds(rain_sig)
    data = Dataset.of(ws[:2])
    assert data.size == 2
    bigger = data.extended(ws[3], 5)
    assert bigger.size == 7
    assert data.size == 2  # unchanged
    assert bigger.signature == rain_sig


def test_distribution_from_text(rain_sig):
    # only the listed worlds are stored, in enumeration order
    dist = distribution_from_text("# comment\n11 2/5\n00 0.6\n", rain_sig)
    assert [w.bitstring() for w in dist.worlds] == ["00", "11"]
    assert dist.weights == (Fraction(3, 5), Fraction(2, 5))
    assert sum(dist.weights) == 1


def test_distribution_normalizes_near_one(rain_sig):
    # off by 3e-10, inside the gate; result exactly normalized
    dist = distribution_from_text("00 0.4999999997\n11 0.5\n", rain_sig)
    assert sum(dist.weights) == 1
    assert isinstance(dist.weights[0], Fraction)


@pytest.mark.parametrize("exact", [True, False])
def test_distribution_mixed_texts_and_zeros(exact):
    # two texts of one value, a repeated text, a listed 0 that stays stored,
    # three unlisted worlds that are not; the total 1 + 2e-10 divides every
    # listed weight
    sig = Signature(propositions=("p", "q", "r"))
    text = "100 0\n000 1/2\n001 0.5\n010 0.0000000001\n011 0.0000000001\n"
    dist = distribution_from_text(text, sig, exact=exact)
    total = 1 + Fraction(2, 10**10)
    want = [Fraction(1, 2) / total] * 2 + [Fraction(1, 10**10) / total] * 2 + [0]
    assert [w.bitstring() for w in dist.worlds] == ["000", "001", "010", "011", "100"]
    if exact:
        assert dist.weights == tuple(want)
        assert all(type(w) is Fraction for w in dist.weights)
        assert sum(dist.weights) == 1
    else:
        assert dist.weights == tuple(float(w) for w in want)
        assert all(type(w) is float for w in dist.weights)
    assert dist.support() == [World.from_bitstring(sig, b) for b in ("000", "001", "010", "011")]


def test_distribution_float_mode(rain_sig):
    dist = distribution_from_text("00 0.25\n11 0.75\n", rain_sig, exact=False)
    assert dist.weights[0] == 0.25 and isinstance(dist.weights[0], float)


def test_distribution_float_mode_keeps_every_possible_world(rain_sig):
    # 1e-400 is a possible world in exact mode; as a float it would be 0.0
    text = "11 1e-400\n00 1\n"
    dist = distribution_from_text(text, rain_sig)
    assert [w.bitstring() for w in dist.worlds] == ["00", "11"]
    assert dist.positive.tolist() == [True, True]
    with pytest.raises(ValueError, match="weight 1e-400 rounds to 0.0"):
        distribution_from_text(text, rain_sig, exact=False)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("00 0.4\n00 0.6\n", "listed twice"),
        ("00 1.2\n", "expected 1 within"),
        ("0 1\n", "line 1"),
        ("00 -1\n11 2\n", "negative"),
        ("00 x\n", "bad weight"),
        ("00\n", "expected 'bits weight'"),
    ],
)
def test_distribution_errors(rain_sig, text, fragment):
    with pytest.raises(ValueError, match=fragment):
        distribution_from_text(text, rain_sig)


def test_model_distribution_validation(rain_sig):
    ws = tuple(enumerate_worlds(rain_sig))
    with pytest.raises(ValueError, match="sum to"):
        ModelDistribution(ws, (Fraction(1, 2), 0, 0, 0))
    with pytest.raises(ValueError) as exc:
        ModelDistribution(ws, (Fraction(1, 2), Fraction(1, 4), 0, Fraction(1, 8)))
    assert str(exc.value) == "weights sum to 7/8, expected exactly 1"
    with pytest.raises(ValueError) as exc:
        ModelDistribution(ws, (1, 1, 0, 0))
    assert str(exc.value) == "weights sum to 2, expected exactly 1"
    with pytest.raises(ValueError, match="negative"):
        ModelDistribution(ws, (Fraction(3, 2), Fraction(-1, 2), 0, 0))
    # a negative int among Fractions, reported by its repr
    with pytest.raises(ValueError) as exc:
        ModelDistribution(ws, (Fraction(1, 2), Fraction(1, 2), 1, -1))
    assert str(exc.value) == "negative or nan weight -1"
    with pytest.raises(ValueError, match="nan"):
        ModelDistribution(ws, (float("nan"), 1.0, 0.0, 0.0))
    with pytest.raises(ValueError, match="nan"):
        ModelDistribution(ws, (0.5, float("nan"), 0.5, 0.0))
    # one float among Fractions takes the float path and its tolerance
    mixed = ModelDistribution(ws, (Fraction(1, 2), 0.25 + 1e-13, Fraction(1, 4), 0))
    assert mixed.masses.dtype == np.float64 and mixed.denominator == 1
    with pytest.raises(ValueError) as exc:
        ModelDistribution(ws, (Fraction(1, 2), 0.25, Fraction(1, 8), 0))
    assert str(exc.value) == "weights sum to 0.875, expected 1 within 1e-12"
    with pytest.raises(ValueError, match="length"):
        ModelDistribution(ws, (Fraction(1),))
    # float weights get a tolerance
    ModelDistribution(ws, (0.1, 0.2, 0.3, 0.4 + 1e-13))
    with pytest.raises(ValueError):
        ModelDistribution(ws, (0.1, 0.2, 0.3, 0.4 + 1e-9))


def test_support_and_all_positive(gap_dist, fig_dist):
    assert not gap_dist.positive.all()
    assert fig_dist.positive.all()
    assert [w.bitstring() for w in gap_dist.support()] == ["00", "10", "11"]


_SIG4 = Signature(propositions=("a0", "a1", "a2", "a3"))
# (enumeration row, weight numerator) pairs in file order, at least one positive
_LINES = st.lists(st.tuples(st.integers(0, 15), st.integers(0, 7)), min_size=1,
                  max_size=16, unique_by=lambda line: line[0]).filter(
    lambda lines: any(num for _, num in lines))


@settings(max_examples=300, deadline=None)
@given(_LINES, st.randoms(use_true_random=False), st.booleans())
def test_listed_distribution_answers_as_the_dense_one(lines, rng, exact):
    # the listed worlds alone against all 16 with the unlisted ones at zero
    total = sum(num for _, num in lines)
    text = "".join(f"{row:04b} {num}/{total}\n" for row, num in lines)
    listed = distribution_from_text(text, _SIG4, exact=exact)
    dense_weights = [Fraction(0)] * 16
    for row, num in lines:
        dense_weights[row] = Fraction(num, total)
    if not exact:
        dense_weights = [float(wt) for wt in dense_weights]
    dense = ModelDistribution(tuple(enumerate_worlds(_SIG4)), tuple(dense_weights))
    rows = sorted(row for row, _ in lines)
    assert [int(w.bitstring(), 2) for w in listed.worlds] == rows
    alpha = random_formula(rng, _SIG4)
    premises = random_premises(rng, _SIG4)
    for regime in (ONE, LIMIT_ONE, fixed(Fraction(4, 5)), fixed(0.8)):
        assert (cond_prob(Query(alpha, premises), listed, regime)
                == cond_prob(Query(alpha, premises), dense, regime))
        got = posterior_models(premises, listed, regime)
        want = posterior_models(premises, dense, regime)
        if isinstance(want, tuple):
            assert list(got) == [want[r] for r in rows]
            assert not any(want[r] for r in set(range(16)) - set(rows))
        else:
            assert got == want
    assert possible_entails(premises, alpha, listed) == possible_entails(premises, alpha, dense)
    assert mps(premises, listed) == mps(premises, dense)
