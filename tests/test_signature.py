import pytest

from genlogic import Signature


def test_atom_order_props_then_groundings():
    sig = Signature(propositions=("p", "q"), predicates=(("r", 2),),
                    constants=("a", "b"))
    assert sig.atoms == ("p", "q", "r(a,a)", "r(a,b)", "r(b,a)", "r(b,b)")
    assert sig.n_atoms == 6
    assert sig.atom_index["r(b,a)"] == 4


def test_unary_predicate_grounding_order():
    sig = Signature(predicates=(("f", 1),), constants=("c", "a"))
    # constants keep declaration order, not sorted order
    assert sig.atoms == ("f(c)", "f(a)")


def test_duplicate_names_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        Signature(propositions=("p", "p"))
    with pytest.raises(ValueError, match="duplicate"):
        Signature(propositions=("p",), constants=("p",))


def test_bad_names_rejected():
    with pytest.raises(ValueError):
        Signature(propositions=("2p",))
    with pytest.raises(ValueError, match="reserved"):
        Signature(propositions=("forall",))
    with pytest.raises(ValueError):
        Signature(propositions=("a b",))


def test_arity_must_be_positive_int():
    with pytest.raises(ValueError, match="arity"):
        Signature(predicates=(("r", 0),), constants=("a",))


def test_parse_roundtrip():
    text = """
    # vocabulary
    prop rain
    prop wet
    pred blames/2   # binary
    const a
    const b
    """
    sig = Signature.parse(text)
    assert sig.propositions == ("rain", "wet")
    assert sig.predicates == (("blames", 2),)
    assert sig.constants == ("a", "b")


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ValueError, match="line 2"):
        Signature.parse("prop p\npred r\n")
    with pytest.raises(ValueError, match="line 1"):
        Signature.parse("proposition p\n")
    with pytest.raises(ValueError, match="two fields"):
        Signature.parse("prop p q\n")
    with pytest.raises(ValueError, match="name/arity"):
        Signature.parse("pred p/²\n")


def test_read(tmp_path):
    path = tmp_path / "v.sig"
    path.write_text("prop x\n")
    assert Signature.read(path).propositions == ("x",)
