from fractions import Fraction

import pytest

from genlogic import (
    Dataset,
    ModelDistribution,
    Signature,
    World,
    dataset_from_csv,
    distribution_from_text,
    enumerate_worlds,
)


def test_dataset_from_csv_basic(rain_sig):
    data = dataset_from_csv("rain,wet\n1,0\n0,1\n1,0\n", rain_sig)
    assert data.size == 3
    assert [w.bitstring() for w, _ in data.entries] == ["10", "01", "10"]


def test_dataset_from_csv_permuted_header_and_counts(rain_sig):
    data = dataset_from_csv("wet,rain,count\n1,0,4\n0,1,2\n", rain_sig)
    assert data.size == 6
    assert data.entries[0][0].bitstring() == "01"
    assert data.entries[0][1] == 4


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


def test_dataset_helpers(rain_sig):
    ws = enumerate_worlds(rain_sig)
    data = Dataset.of(ws[:2])
    assert data.size == 2
    bigger = data.extended(ws[3], 5)
    assert bigger.size == 7
    assert data.size == 2  # unchanged
    assert bigger.signature == rain_sig


def test_distribution_from_text(rain_sig):
    dist = distribution_from_text("# comment\n11 2/5\n00 0.6\n", rain_sig)
    assert dist.weights[3] == Fraction(2, 5)
    assert dist.weights[0] == Fraction(3, 5)
    assert dist.weights[1] == dist.weights[2] == 0
    assert sum(dist.weights) == 1


def test_distribution_normalizes_near_one(rain_sig):
    # off by 3e-10, inside the gate; result exactly normalized
    dist = distribution_from_text("00 0.4999999997\n11 0.5\n", rain_sig)
    assert sum(dist.weights) == 1
    assert isinstance(dist.weights[0], Fraction)


def test_distribution_float_mode(rain_sig):
    dist = distribution_from_text("00 0.25\n11 0.75\n", rain_sig, exact=False)
    assert dist.weights[0] == 0.25 and isinstance(dist.weights[0], float)


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
    with pytest.raises(ValueError, match="negative"):
        ModelDistribution(ws, (Fraction(3, 2), Fraction(-1, 2), 0, 0))
    with pytest.raises(ValueError, match="nan"):
        ModelDistribution(ws, (float("nan"), 1.0, 0.0, 0.0))
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
