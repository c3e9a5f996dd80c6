import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genlogic import (
    And,
    Atom,
    Iff,
    Implies,
    Not,
    Or,
    Signature,
    TooManyAtoms,
    World,
    enumerate_worlds,
    evaluate,
    parse_formula,
)

SIG3 = Signature(propositions=("p", "q", "r"))


def test_enumeration_is_ascending_with_first_atom_most_significant(rain_sig):
    assert [w.bitstring() for w in enumerate_worlds(rain_sig)] == [
        "00", "01", "10", "11",
    ]


@given(st.integers(min_value=0, max_value=7))
def test_enumeration_row_reads_as_binary(k):
    w = enumerate_worlds(SIG3)[k]
    assert w.truths() == tuple(int(d) for d in format(k, "03b"))


def test_enumeration_cap():
    big = Signature(propositions=tuple(f"x{i}" for i in range(21)))
    with pytest.raises(TooManyAtoms):
        enumerate_worlds(big)
    assert len(enumerate_worlds(big, cap=21)) == 2 ** 21


def test_world_bits_out_of_range():
    with pytest.raises(ValueError):
        World(SIG3, 8)
    with pytest.raises(ValueError):
        World(SIG3, -1)


def test_world_equality_and_hash(rain_sig):
    a = World(rain_sig, 2)
    b = World(Signature(propositions=("rain", "wet")), 2)
    assert a == b and hash(a) == hash(b)
    assert a != World(rain_sig, 3)
    assert a != 2


def test_hamming():
    assert World(SIG3, 0b101).hamming(World(SIG3, 0b011)) == 2
    assert World(SIG3, 0b101).hamming(World(SIG3, 0b101)) == 0


def test_evaluate_connectives():
    w = World.from_bitstring(SIG3, "110")  # p, q true; r false
    p, q, r = Atom("p"), Atom("q"), Atom("r")
    assert evaluate(p, w) and evaluate(q, w) and not evaluate(r, w)
    assert not evaluate(Not(p), w)
    assert evaluate(And(p, q), w) and not evaluate(And(p, r), w)
    assert evaluate(Or(r, q), w) and not evaluate(Or(r, Not(q)), w)
    assert evaluate(Implies(r, p), w) and not evaluate(Implies(p, r), w)
    assert evaluate(Iff(p, q), w) and not evaluate(Iff(p, r), w)


def test_evaluate_unknown_atom_raises():
    with pytest.raises(ValueError, match="not in the signature"):
        evaluate(Atom("zap"), World(SIG3, 0))


def test_evaluate_rejects_quantifiers():
    sig = Signature(predicates=(("t", 1),), constants=("a",))
    f = parse_formula("forall x. t(x)", sig)
    with pytest.raises(ValueError, match="grounded"):
        evaluate(f, World(sig, 0))


def test_models_of_is_intersection_of_model_sets():
    worlds = enumerate_worlds(SIG3)
    f = parse_formula("p -> q", SIG3)
    g = parse_formula("~r", SIG3)
    models = {h: {w for w in worlds if evaluate(h, w)} for h in (f, g)}
    assert {w for w in worlds if evaluate(And(f, g), w)} == models[f] & models[g]


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=7))
def test_from_truths_matches_enumeration(k):
    w = World.from_truths(SIG3, tuple(int(d) for d in format(k, "03b")))
    assert enumerate_worlds(SIG3)[k] == w


def test_hamming_counts_differing_atoms():
    ws = enumerate_worlds(SIG3)
    for a in ws:
        for b in ws:
            expected = sum(x != y for x, y in zip(a.truths(), b.truths()))
            assert a.hamming(b) == expected
