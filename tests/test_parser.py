import re
from random import Random

import pytest
from hypothesis import example, given, settings
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
    ParseError,
    Signature,
    Var,
    parse_formula,
    parse_premises,
    parse_query,
    pretty,
)
from genlogic.parser import _tokenize

from helpers import random_formula

SIG = Signature(
    propositions=("rain", "wet"),
    predicates=(("blames", 2), ("tall", 1)),
    constants=("a", "b"),
)
P, Q = Atom("rain"), Atom("wet")


def test_precedence_and_over_or():
    assert parse_formula("rain & wet | rain", SIG) == Or(And(P, Q), P)
    assert parse_formula("rain | wet & rain", SIG) == Or(P, And(Q, P))


def test_left_associative_chains():
    assert parse_formula("rain & wet & rain", SIG) == And(And(P, Q), P)
    assert parse_formula("rain | wet | rain", SIG) == Or(Or(P, Q), P)


def test_right_associative_arrows():
    assert parse_formula("rain -> wet -> rain", SIG) == Implies(P, Implies(Q, P))
    assert parse_formula("rain <-> wet <-> rain", SIG) == Iff(P, Iff(Q, P))


def test_arrow_binds_looser_than_or():
    assert parse_formula("rain | wet -> rain", SIG) == Implies(Or(P, Q), P)


def test_iff_binds_loosest():
    assert parse_formula("rain -> wet <-> wet -> rain", SIG) == Iff(
        Implies(P, Q), Implies(Q, P)
    )


def test_negation_tight_and_stacked():
    assert parse_formula("~rain & wet", SIG) == And(Not(P), Q)
    assert parse_formula("~~~rain", SIG) == Not(Not(Not(P)))


def test_parens_override():
    assert parse_formula("rain & (wet | rain)", SIG) == And(P, Or(Q, P))


def test_predicate_atoms_and_variables():
    f = parse_formula("forall x. blames(x,b)", SIG)
    assert f == Forall("x", Atom("blames", (Var("x"), Const("b"))))
    g = parse_formula("exists y. (tall(y) & blames(y,y))", SIG)
    assert g == Exists("y", And(Atom("tall", (Var("y"),)),
                                Atom("blames", (Var("y"), Var("y")))))


def test_quantifier_body_is_one_negation_unit():
    f = parse_formula("forall x. tall(x) & rain", SIG)
    assert f == And(Forall("x", Atom("tall", (Var("x"),))), P)
    g = parse_formula("forall x. ~tall(x)", SIG)
    assert g == Forall("x", Not(Atom("tall", (Var("x"),))))


def test_bound_variable_shadows_constant():
    f = parse_formula("forall a. tall(a)", SIG)
    assert f == Forall("a", Atom("tall", (Var("a"),)))
    # outside the binder the same name is the constant again
    g = parse_formula("forall a. tall(a) & tall(a)", SIG)
    assert g.left == Forall("a", Atom("tall", (Var("a"),)))
    assert g.right == Atom("tall", (Const("a"),))


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "expected a formula"),
        ("rain &", "expected a formula"),
        ("rain wet", "trailing input"),
        ("snow", "unknown identifier"),
        ("blames(a)", "expects 2"),
        ("blames", "without arguments"),
        ("tall(c)", "unbound variable or unknown constant"),
        ("forall x. x", "variable 'x' used as a formula"),
        ("a", "constant 'a' used as a formula"),
        ("rain @ wet", "unexpected character"),
        ("(rain", "expected RPAREN"),
        ("forall x tall(x)", "expected DOT"),
        ("forall x. tall(y)", "unbound variable"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError, match=fragment):
        parse_formula(text, SIG)


def test_error_positions():
    with pytest.raises(ParseError) as exc:
        parse_formula("rain & snow", SIG)
    assert exc.value.position == 7


def test_parse_query_splits_on_first_top_level_bar():
    conclusion, premises = parse_query("rain | wet; ~rain", SIG)
    assert conclusion == P
    assert premises == (Q, Not(P))
    # a bar inside the premises is a disjunction
    conclusion, premises = parse_query("rain | wet | rain", SIG)
    assert conclusion == P
    assert premises == (Or(Q, P),)
    # parenthesized bars never split
    conclusion, premises = parse_query("(rain | wet)", SIG)
    assert conclusion == Or(P, Q)
    assert premises == ()


def test_parse_query_without_premises():
    assert parse_query("~rain", SIG) == (Not(P), ())


def test_parse_premises():
    assert parse_premises("", SIG) == ()
    assert parse_premises("  ", SIG) == ()
    assert parse_premises("rain; wet; rain -> wet", SIG) == (P, Q, Implies(P, Q))


def test_seeded_pretty_parse_roundtrip():
    rng = Random(1224)
    sig = Signature(propositions=("a0", "a1", "a2"))
    for case in range(300):
        f = random_formula(rng, sig, depth=4)
        assert parse_formula(pretty(f), sig) == f, f"case {case}: {pretty(f)}"


def test_quantified_pretty_parse_roundtrip():
    for text in (
        "forall x. (tall(x) -> exists y. blames(x,y))",
        "exists x. (blames(x,x) <-> ~tall(x))",
        "forall x. forall y. blames(x,y)",
    ):
        f = parse_formula(text, SIG)
        assert parse_formula(pretty(f), SIG) == f


_atoms = st.sampled_from([Atom("rain"), Atom("wet")])
_formulas = st.recursive(
    _atoms,
    lambda children: st.one_of(
        children.map(Not),
        st.tuples(children, children).map(lambda t: And(*t)),
        st.tuples(children, children).map(lambda t: Or(*t)),
        st.tuples(children, children).map(lambda t: Implies(*t)),
        st.tuples(children, children).map(lambda t: Iff(*t)),
    ),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(_formulas)
def test_hypothesis_pretty_parse_roundtrip(f):
    assert parse_formula(pretty(f), SIG) == f


def test_query_error_positions_count_from_start_of_text():
    with pytest.raises(ParseError) as exc:
        parse_query("rain | wet; fog", SIG)
    assert exc.value.position == 12
    with pytest.raises(ParseError) as exc:
        parse_premises("rain; fog", SIG)
    assert exc.value.position == 6


def test_long_arrow_chain_nests_right():
    f = parse_formula(" -> ".join(["rain"] * 1000), SIG)
    for _ in range(999):  # walk down: == on the whole tree would recurse 1000 deep
        assert type(f) is Implies and f.left == P
        f = f.right
    assert f == P


def test_query_conclusion_ends_at_top_level_bar():
    assert parse_query("rain -> wet | rain", SIG) == (Implies(P, Q), (P,))
    tall_x = Forall("x", Atom("tall", (Var("x"),)))
    assert parse_query("forall x. tall(x) | rain", SIG) == (tall_x, (P,))
    with pytest.raises(ParseError):
        parse_query("(rain; wet)", SIG)


# Texts drawn from SIG's tokens plus the query separators, an unknown name and
# a character outside the syntax.
_TOKENS = ["rain", "wet", "blames", "tall", "a", "b", "x", "forall", "exists",
           "(", ")", ",", ".", "~", "&", "|", "->", "<->", ";", "snow", "@", " "]
_texts = st.lists(st.sampled_from(_TOKENS), max_size=14).map("".join)
_parsers = st.sampled_from([parse_formula, parse_query, parse_premises])


@settings(max_examples=500, deadline=None)
@given(_texts, _parsers)
def test_error_positions_point_into_text_and_parses_roundtrip(text, parse):
    try:
        out = parse(text, SIG)
    except ParseError as exc:
        assert 0 <= exc.position <= len(text)
        # every message quotes the token found at its position first
        found = re.search(r"'([^']*)'", str(exc)).group(1)
        if found == "end of input":
            assert exc.position == len(text)
        else:
            assert text.startswith(found, exc.position)
        return
    if parse is parse_formula:
        out = [out]
    elif parse is parse_query:
        out = [out[0], *out[1]]
    for f in out:
        assert parse_formula(pretty(f), SIG) == f


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(max_size=6), st.sampled_from(_TOKENS)))
@example("é")
def test_signature_names_are_exactly_tokenizer_identifiers(name):
    try:
        tokens = _tokenize(name)
        one_identifier = [t.kind for t in tokens] == ["IDENT", "EOF"] and tokens[0].text == name
    except ParseError:
        one_identifier = False
    try:
        Signature(propositions=(name,))
        declarable = True
    except ValueError:
        declarable = False
    assert declarable == one_identifier
