import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genlogic import (
    And,
    Atom,
    Const,
    Exists,
    Forall,
    Iff,
    Implies,
    Not,
    Or,
    Signature,
    Var,
    World,
    enumerate_worlds,
    evaluate,
    ground,
    pretty,
)

SIG = Signature(predicates=(("r", 1), ("s", 2)), constants=("a", "b"))


def test_ground_forall_is_left_folded_conjunction():
    f = Forall("x", Atom("r", (Var("x"),)))
    assert ground(f, SIG) == And(Atom("r", (Const("a"),)), Atom("r", (Const("b"),)))


def test_ground_exists_is_disjunction():
    f = Exists("x", Atom("r", (Var("x"),)))
    assert ground(f, SIG) == Or(Atom("r", (Const("a"),)), Atom("r", (Const("b"),)))


def test_ground_nested_quantifiers():
    f = Forall("x", Exists("y", Atom("s", (Var("x"), Var("y")))))
    g = ground(f, SIG)
    sa = lambda u, v: Atom("s", (Const(u), Const(v)))
    assert g == And(Or(sa("a", "a"), sa("a", "b")), Or(sa("b", "a"), sa("b", "b")))


def test_ground_inner_binder_shadows_outer():
    r = lambda t: Atom("r", (t,))
    f = Forall("x", And(r(Var("x")), Forall("x", r(Var("x")))))
    inner = And(r(Const("a")), r(Const("b")))
    assert ground(f, SIG) == And(And(r(Const("a")), inner), And(r(Const("b")), inner))


def test_ground_leaves_free_variables():
    f = Exists("y", Atom("s", (Var("x"), Var("y"))))
    assert ground(f, SIG) == Or(Atom("s", (Var("x"), Const("a"))),
                                Atom("s", (Var("x"), Const("b"))))


def test_ground_without_constants_raises():
    sig = Signature(propositions=("p",))
    with pytest.raises(ValueError, match="no constants"):
        ground(Forall("x", Atom("p")), sig)


def test_ground_leaves_ground_formulas_alone():
    f = Implies(Atom("r", (Const("a"),)), Not(Atom("r", (Const("b"),))))
    assert ground(f, SIG) == f


def test_quantifier_duality_on_all_worlds():
    not_all = Not(Forall("x", Atom("r", (Var("x"),))))
    some_not = Exists("x", Not(Atom("r", (Var("x"),))))
    for w in enumerate_worlds(SIG):
        assert evaluate(ground(not_all, SIG), w) == evaluate(ground(some_not, SIG), w)


FO_SIG = Signature(propositions=("p",), predicates=(("r", 1), ("s", 2)),
                   constants=("a", "b"))
_QUANTIFIERS = st.sampled_from([Forall, Exists])
_terms = st.sampled_from([Var("x"), Var("y"), Const("a"), Const("b")])
# Binders reuse x and y, so inner ones shadow; the two outer binders close
# every formula over both variables.
_open_formulas = st.recursive(
    st.one_of(
        st.just(Atom("p")),
        _terms.map(lambda t: Atom("r", (t,))),
        st.tuples(_terms, _terms).map(lambda ts: Atom("s", ts)),
    ),
    lambda children: st.one_of(
        children.map(Not),
        st.builds(lambda op, l, r: op(l, r),
                  st.sampled_from([And, Or, Implies, Iff]), children, children),
        st.builds(lambda q, v, body: q(v, body),
                  _QUANTIFIERS, st.sampled_from(["x", "y"]), children),
    ),
    max_leaves=8,
)
_closed_formulas = st.builds(lambda qx, qy, body: qx("x", qy("y", body)),
                             _QUANTIFIERS, _QUANTIFIERS, _open_formulas)


def _holds(f, w: World, env: dict[str, str]) -> bool:
    """First-order truth in w: quantifiers range over FO_SIG's constants."""
    match f:
        case Atom(name, ()):
            return bool(w.bits >> FO_SIG.atom_index[name] & 1)
        case Atom(name, args):
            names = (env[t.name] if isinstance(t, Var) else t.name for t in args)
            return bool(w.bits >> FO_SIG.atom_index[f"{name}({','.join(names)})"] & 1)
        case Not(body):
            return not _holds(body, w, env)
        case And(l, r):
            return _holds(l, w, env) and _holds(r, w, env)
        case Or(l, r):
            return _holds(l, w, env) or _holds(r, w, env)
        case Implies(l, r):
            return not _holds(l, w, env) or _holds(r, w, env)
        case Iff(l, r):
            return _holds(l, w, env) == _holds(r, w, env)
        case Forall(v, body):
            return all(_holds(body, w, {**env, v: c}) for c in FO_SIG.constants)
        case Exists(v, body):
            return any(_holds(body, w, {**env, v: c}) for c in FO_SIG.constants)
    raise TypeError(f)


@settings(max_examples=150, deadline=None)
@given(_closed_formulas)
def test_ground_agrees_with_first_order_truth(f):
    g = ground(f, FO_SIG)
    for w in enumerate_worlds(FO_SIG):
        assert evaluate(g, w) == _holds(f, w, {})


def test_atom_key_requires_ground_args():
    assert Atom("s", (Const("a"), Const("b"))).key() == "s(a,b)"
    with pytest.raises(ValueError):
        Atom("r", (Var("x"),)).key()


def test_pretty_precedence():
    p, q, r = Atom("p"), Atom("q"), Atom("r")
    assert pretty(Or(And(p, q), r)) == "p & q | r"
    assert pretty(And(Or(p, q), r)) == "(p | q) & r"
    assert pretty(Implies(p, Implies(q, r))) == "p -> q -> r"
    assert pretty(Implies(Implies(p, q), r)) == "(p -> q) -> r"
    assert pretty(Not(And(p, q))) == "~(p & q)"
    assert pretty(Not(Not(p))) == "~~p"
    assert pretty(And(And(p, q), r)) == "p & q & r"
    assert pretty(And(p, And(q, r))) == "p & (q & r)"


def test_pretty_quantifier_body_parenthesizes_connectives():
    f = Forall("x", And(Atom("r", (Var("x"),)), Atom("r", (Const("a"),))))
    assert pretty(f) == "forall x. (r(x) & r(a))"
    g = Exists("x", Not(Atom("r", (Var("x"),))))
    assert pretty(g) == "exists x. ~r(x)"


def test_world_bitstring_roundtrip():
    sig = Signature(propositions=("p", "q", "r"))
    w = World.from_bitstring(sig, "101")
    assert w.truths() == (1, 0, 1)
    assert w.bitstring() == "101"
