"""Streaming updates must agree exactly with full recomputes."""

import pickle
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, rule

from genlogic import (
    LIMIT_ONE,
    ONE,
    UNDEFINED,
    And,
    Atom,
    Dataset,
    Exists,
    Forall,
    Iff,
    Implies,
    Not,
    Or,
    Query,
    Signature,
    Var,
    World,
    cond_prob,
    enumerate_worlds,
    fixed,
    parse_formula,
    prob,
    running_estimate,
    update,
)
from genlogic import engine
from genlogic.worlds import compile_formula, evaluate, pack, truth

from helpers import (
    random_dataset,
    random_formula,
    random_mu,
    random_premises,
    random_signature,
)

CASES = 250


def test_bird_fly_golden(bird_sig, bird_data):
    arrow = parse_formula("bird -> fly", bird_sig)
    est = running_estimate(arrow, bird_data, ONE)
    assert est.value == 1 and est.count == 10

    exception = enumerate_worlds(bird_sig)[2]  # bird without flight
    est2 = update(est, exception)
    assert est2.count == 11
    assert est2.value == Fraction(10, 11)
    assert est2.value == prob(arrow, bird_data.extended(exception), ONE)


def test_violating_datum_from_half(rain_sig):
    # ten observations at value 1/2, an eleventh that violates the formula
    ws = enumerate_worlds(rain_sig)
    data = Dataset.weighted(((ws[3], 5), (ws[0], 5)))
    rain = parse_formula("rain", rain_sig)
    est = running_estimate(rain, data, ONE)
    assert est.value == Fraction(1, 2)
    assert update(est, ws[0]).value == Fraction(5, 11)


def test_satisfying_datum_keeps_certainty(bird_sig, bird_data):
    arrow = parse_formula("bird -> fly", bird_sig)
    est = running_estimate(arrow, bird_data, ONE)
    flier = enumerate_worlds(bird_sig)[3]
    assert update(est, flier).value == 1


def test_running_estimate_needs_a_dataset(rain_sig, fig_dist):
    # a distribution's weights are not observation counts to add to
    with pytest.raises(TypeError, match="Dataset"):
        running_estimate(parse_formula("wet", rain_sig), fig_dist, ONE)


def test_update_matches_recompute_marginal():
    rng = Random(301)
    for _ in range(CASES):
        sig = random_signature(rng)
        data = random_dataset(rng, sig)
        alpha = random_formula(rng, sig)
        regime = (ONE, LIMIT_ONE, fixed(random_mu(rng)))[rng.randrange(3)]
        est = running_estimate(alpha, data, regime)
        worlds = enumerate_worlds(sig)
        for _ in range(rng.randint(1, 3)):
            new = rng.choice(worlds)
            data = data.extended(new)
            est = update(est, new)
            assert est.value == prob(alpha, data, regime)
            assert est.count == data.size


def test_update_matches_recompute_conditional():
    rng = Random(302)
    checked = 0
    for _ in range(CASES):
        sig = random_signature(rng)
        data = random_dataset(rng, sig)
        alpha = random_formula(rng, sig)
        prem = random_premises(rng, sig)
        regime = (ONE, LIMIT_ONE, fixed(random_mu(rng)))[rng.randrange(3)]
        est = running_estimate(alpha, data, regime, premises=prem)
        worlds = enumerate_worlds(sig)
        for _ in range(rng.randint(1, 3)):
            new = rng.choice(worlds)
            data = data.extended(new)
            est = update(est, new)
            want = cond_prob(Query(alpha, prem), data, regime)
            if want is UNDEFINED:
                assert est.value is UNDEFINED
            else:
                checked += 1
                assert est.value == want
    assert checked >= 200


def test_update_leaves_undefined_once_premises_appear(rain_sig):
    ws = enumerate_worlds(rain_sig)
    data = Dataset.weighted(((ws[0], 3),))
    wet = parse_formula("wet", rain_sig)
    rain = parse_formula("rain", rain_sig)
    est = running_estimate(wet, data, ONE, premises=(rain,))
    assert est.value is UNDEFINED
    est = update(est, ws[3])
    assert est.value == 1
    assert est.value == cond_prob(
        Query(wet, (rain,)), data.extended(ws[3]), ONE
    )


def test_fold_from_single_datum():
    # building the whole dataset one update at a time, in shuffled order,
    # lands exactly on the batch answer
    rng = Random(303)
    for _ in range(CASES):
        sig = random_signature(rng)
        data = random_dataset(rng, sig)
        alpha = random_formula(rng, sig)
        prem = random_premises(rng, sig, max_n=3)
        regime = (ONE, LIMIT_ONE, fixed(random_mu(rng)))[rng.randrange(3)]

        stream = [w for w, c in data.entries for _ in range(c)]
        rng.shuffle(stream)
        est = running_estimate(alpha, Dataset.of(stream[:1]), regime, premises=prem)
        for w in stream[1:]:
            est = update(est, w)
        want = cond_prob(Query(alpha, prem), data, regime)
        assert (est.value is UNDEFINED) == (want is UNDEFINED)
        if want is not UNDEFINED:
            assert est.value == want


def test_float_fixed_mu_does_not_drift():
    # 2,500 conditional fixed(0.8) updates on 12 atoms: the streamed value is
    # the recompute's float, bit for bit
    rng = Random(304)
    sig = Signature(propositions=tuple(f"s{i}" for i in range(12)))
    alpha, *premises = (parse_formula(text, sig) for text in
                        ("s0 | ~s1", "s1", "~s2", "s3 | s4", "s5 -> s6", "s1"))
    data = Dataset.weighted((World(sig, rng.getrandbits(12)), rng.randint(1, 4))
                            for _ in range(300))
    stream = [World(sig, rng.getrandbits(12)) for _ in range(2500)]
    est = running_estimate(alpha, data, fixed(0.8), premises)
    for w in stream:
        est = update(est, w)
    extended = Dataset(data.entries + tuple((w, 1) for w in stream))
    assert est.count == extended.size
    assert est.value == cond_prob(Query(alpha, premises), extended, fixed(0.8))


_SIGS = [Signature(propositions=tuple(f"a{i}" for i in range(n))) for n in (1, 2, 3)]


def _formulas(sig):
    return st.recursive(
        st.sampled_from([Atom(a) for a in sig.propositions]),
        lambda children: st.one_of(
            children.map(Not),
            *(st.tuples(children, children).map(lambda t, c=c: c(*t))
              for c in (And, Or, Implies, Iff)),
        ),
        max_leaves=4,
    )


class StreamingMatchesRecompute(RuleBasedStateMachine):
    """Eight estimates (four regimes, with and without premises) updated
    world by world, checked against cond_prob/prob on the extended data."""

    @initialize(data=st.data())
    def start(self, data):
        sig = data.draw(st.sampled_from(_SIGS))
        self.worlds = enumerate_worlds(sig)
        self.alpha = data.draw(_formulas(sig))
        pool = data.draw(st.lists(_formulas(sig), min_size=1, max_size=3))
        # drawn from a small pool, so premise multisets often repeat a formula
        self.premises = tuple(data.draw(st.lists(st.sampled_from(pool), max_size=4)))
        mu = data.draw(st.fractions(0, 1, max_denominator=12).filter(lambda m: 0 < m < 1))
        mu_float = data.draw(st.floats(0.01, 0.99))
        self.data = Dataset.weighted(data.draw(st.lists(
            st.tuples(st.sampled_from(self.worlds), st.integers(1, 3)),
            min_size=1, max_size=4)))
        self.estimates = [running_estimate(self.alpha, self.data, regime, given)
                          for regime in (ONE, LIMIT_ONE, fixed(mu), fixed(mu_float))
                          for given in ((), self.premises)]

    def _recompute(self, est, data):
        if est.premises:
            return cond_prob(Query(self.alpha, est.premises), data, est.regime)
        return prob(self.alpha, data, est.regime)

    @rule(i=st.integers(0, 7), times=st.integers(1, 3))
    def observe(self, i, times):
        world = self.worlds[i % len(self.worlds)]
        old, old_data = self.estimates, self.data
        for _ in range(times):
            self.data = self.data.extended(world)
            self.estimates = [update(est, world) for est in self.estimates]
        # the estimates before the update still describe the old data
        for est in old:
            assert est.count == old_data.size
            assert est.value == self._recompute(est, old_data)

    @rule()
    def matches_recompute(self):
        for est in self.estimates:
            assert est.count == self.data.size
            assert est.value == self._recompute(est, self.data)  # UNDEFINED is UNDEFINED only


StreamingMatchesRecompute.TestCase.settings = settings(
    max_examples=60, stateful_step_count=20, deadline=None)
test_streaming_matches_recompute = StreamingMatchesRecompute.TestCase


_SIGS_UP_TO_5 = [Signature(propositions=tuple(f"a{i}" for i in range(n))) for n in range(1, 6)]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_compiled_formula_matches_evaluate(data):
    sig = data.draw(st.sampled_from(_SIGS_UP_TO_5))
    f = data.draw(_formulas(sig))
    compiled = compile_formula(f, sig.atom_index)
    for w in enumerate_worlds(sig):
        got = compiled(w.bits)
        assert got in (0, 1) and got == evaluate(f, w)


def test_compile_raises_what_truth_raises():
    sig = Signature(propositions=("p", "q"), predicates=(("b", 1),), constants=("c",))
    index = sig.atom_index
    words = pack(range(1 << sig.n_atoms), sig.n_atoms)
    p, zap = Atom("p"), Atom("zap")
    x = Atom("b", (Var("x"),))
    # an unknown atom where evaluate() would short-circuit past it raises too
    bad = (zap, Not(zap), Or(p, zap), And(Not(p), zap), Implies(zap, p), Iff(p, zap),
           x, Forall("x", x), Exists("x", x), Not(Exists("x", x)), "p", Not(None))
    for f in bad:
        with pytest.raises((ValueError, TypeError)) as want:
            truth(f, words, index)
        with pytest.raises(want.type) as got:
            compile_formula(f, index)
        assert str(got.value) == str(want.value)


def test_update_compiles_instead_of_evaluating(monkeypatch):
    # update runs the estimate's compiled cell: no evaluate() call
    def refuse(*args):
        raise AssertionError("formula evaluated per update")

    monkeypatch.setattr(engine, "evaluate", refuse)
    rng = Random(305)
    for _ in range(60):
        sig = random_signature(rng)
        data = random_dataset(rng, sig)
        alpha = random_formula(rng, sig)
        prem = random_premises(rng, sig)
        worlds = enumerate_worlds(sig)
        for regime in (ONE, LIMIT_ONE, fixed(Fraction(4, 5)), fixed(0.8)):
            for given_ in ((), prem):
                est, extended = running_estimate(alpha, data, regime, given_), data
                for _ in range(rng.randint(1, 4)):
                    w = rng.choice(worlds)
                    est, extended = update(est, w), extended.extended(w)
                want = (cond_prob(Query(alpha, given_), extended, regime) if given_
                        else prob(alpha, extended, regime))
                assert est.count == extended.size
                assert est.value == want  # UNDEFINED is UNDEFINED only


def test_update_rejects_a_world_from_another_signature(rain_sig, rain_data):
    est = running_estimate(parse_formula("wet", rain_sig), rain_data, ONE)
    for sig in (Signature(propositions=("rain", "wet", "c")),
                Signature(propositions=("wet", "rain"))):
        with pytest.raises(ValueError, match="mix signatures"):
            rain_data.extended(World(sig, 2))
        with pytest.raises(ValueError, match="mix signatures"):
            update(est, World(sig, 2))
    # an equal signature built separately is the same signature
    same = World(Signature(propositions=("rain", "wet")), 3)
    assert update(est, same).value == Fraction(6, 11)


def test_estimate_pickles_and_keeps_updating():
    rng = Random(306)
    sig = Signature(propositions=tuple(f"s{i}" for i in range(6)))
    alpha, *premises = (parse_formula(text, sig) for text in
                        ("s0 | ~s1", "s1", "s2 -> s3", "s1"))
    data = Dataset.weighted((World(sig, rng.getrandbits(6)), rng.randint(1, 3))
                            for _ in range(20))
    stream = [World(sig, rng.getrandbits(6)) for _ in range(60)]
    for regime in (ONE, LIMIT_ONE, fixed(Fraction(3, 4)), fixed(0.75)):
        est = running_estimate(alpha, data, regime, premises)
        for w in stream[:30]:
            est = update(est, w)
        est.value  # a cached value pickles with the estimate
        thawed = pickle.loads(pickle.dumps(est))
        assert thawed == est and repr(thawed) == repr(est)
        assert thawed.signature == sig and thawed.value == est.value
        for w in stream[30:]:
            est, thawed = update(est, w), update(thawed, w)
        assert thawed.counts == est.counts and thawed.value == est.value
        assert thawed == est
