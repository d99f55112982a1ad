import pytest
from hypothesis import given, settings, strategies as st

from lefschetz import (
    Monomial,
    MonomialIdeal,
    ParseError,
    QuotientModule,
    lex_ideal,
    monomials_of_degree,
    parse_ideal,
    parse_monomial,
    variable_power,
)
from lefschetz.monomials import algebra_quotient


def test_monomial_basics():
    m = Monomial((2, 1, 0))
    assert m.degree == 3
    assert str(m) == "x^2*y"
    assert str(Monomial((0, 0))) == "1"
    assert m.divides(Monomial((3, 1, 2)))
    assert not m.divides(Monomial((1, 5, 5)))
    assert m * Monomial((0, 1, 1)) == Monomial((2, 2, 1))


def test_variable_power():
    assert variable_power(3, 1, 3) == Monomial((0, 3, 0))


def test_monomials_of_degree_descending_lex():
    ms = list(monomials_of_degree(2, 2))
    assert ms == [Monomial((2, 0)), Monomial((1, 1)), Monomial((0, 2))]
    assert list(monomials_of_degree(3, 0)) == [Monomial((0, 0, 0))]


@given(st.integers(1, 4), st.integers(0, 6))
def test_monomials_of_degree_count(n, d):
    from math import comb

    ms = list(monomials_of_degree(n, d))
    assert len(ms) == comb(d + n - 1, n - 1)
    assert len(set(ms)) == len(ms)
    exps = [m.exponents for m in ms]
    assert exps == sorted(exps, reverse=True)


def test_from_generators_drops_multiples():
    gens = [Monomial((2, 0)), Monomial((3, 1)), Monomial((0, 2))]
    ideal = MonomialIdeal.from_generators(gens)
    assert set(ideal.generators) == {Monomial((2, 0)), Monomial((0, 2))}


def test_parse_monomial():
    assert parse_monomial("x^2*y", nvars=3) == Monomial((2, 1, 0))
    assert parse_monomial("1", nvars=2) == Monomial((0, 0))
    assert parse_monomial("z t^4", nvars=4) == Monomial((0, 0, 1, 4))
    with pytest.raises(ParseError):
        parse_monomial("x^-1", nvars=2)
    with pytest.raises(ParseError):
        parse_monomial("w", nvars=3)
    with pytest.raises(ParseError):
        parse_monomial("x^^2", nvars=2)
    with pytest.raises(ParseError):
        parse_monomial("", nvars=2)


def test_parse_round_trip():
    for text in ["x^3", "x^2*y", "x*y*z", "y^4", "1"]:
        m = parse_monomial(text, nvars=3)
        assert parse_monomial(str(m), nvars=3) == m


def test_parse_ideal():
    ideal = parse_ideal("x^3, y^4")
    assert ideal == MonomialIdeal.from_generators(
        [Monomial((3, 0)), Monomial((0, 4))]
    )
    assert parse_ideal("0", nvars=2).is_zero
    assert parse_ideal("1", nvars=2).is_unit


def test_ideal_membership_and_ops():
    ideal = parse_ideal("x^2, x*y, y^3")
    assert ideal.contains(Monomial((2, 1)))
    assert not ideal.contains(Monomial((1, 0)))
    assert ideal.is_artinian()
    assert ideal.pure_power_exponent(0) == 2
    total = ideal + parse_ideal("y^2")
    assert total.contains(Monomial((0, 2)))
    assert not parse_ideal("x^2, y^3").contains(Monomial((1, 1)))


def test_colon_by_variable_power():
    ideal = parse_ideal("x^3, y^3, z^4, x*z, y*z", nvars=3)
    colon = ideal.colon_variable_power(2, 1)
    assert colon.contains(Monomial((1, 0, 0)))
    assert colon.contains(Monomial((0, 1, 0)))
    assert colon.contains(Monomial((0, 0, 3)))


def test_dimension_in_degree_matches_enumeration():
    ideal = parse_ideal("x^2, y^3")
    for d in range(8):
        by_count = sum(1 for m in monomials_of_degree(2, d) if ideal.contains(m))
        assert ideal.dimension_in_degree(d) == by_count


def test_quotient_degree_basis():
    module = QuotientModule(parse_ideal("x^3, y^4"), parse_ideal("x^5, y^5"))
    basis = module.degree_basis(4)
    assert Monomial((4, 0)) in basis
    assert Monomial((0, 4)) in basis
    assert Monomial((2, 2)) not in basis
    exps = [m.exponents for m in basis]
    assert exps == sorted(exps, reverse=True)


def test_quotient_hilbert_series():
    module = QuotientModule(parse_ideal("x^3, y^4"), parse_ideal("x^5, y^5"))
    series = module.hilbert_series()
    assert str(series) == "t^3 + 3t^4 + 3t^5 + 3t^6 + 2t^7 + t^8"
    assert module.socle_degree() == 8


def test_algebra_quotient_is_one_over_ideal():
    module = algebra_quotient(parse_ideal("x^2, y^2"))
    assert module.hilbert_series().coeffs == (1, 2, 1)


def test_tensor_truncation():
    module = algebra_quotient(parse_ideal("x^2, y^2"))
    tensored = module.tensor_truncation(3)
    assert tensored.nvars == 3
    # (1 + 2t + t^2)(1 + t + t^2)
    assert tensored.hilbert_series().coeffs == (1, 3, 4, 3, 1)


def brute_lex_segment(ideal, limit):
    """Degreewise lex segments matching the dimensions of the ideal."""
    gens = []
    for d in range(limit + 1):
        want = ideal.dimension_in_degree(d)
        taken = list(monomials_of_degree(ideal.nvars, d))[:want]
        gens.extend(taken)
    return MonomialIdeal.from_generators(gens, nvars=ideal.nvars)


def test_lex_ideal_against_segment_oracle():
    for text in ["x^3, y^4", "x^5, y^5", "x^2, x*y, y^3", "x^4, x^2*y^2, y^3"]:
        ideal = parse_ideal(text)
        lex = lex_ideal(ideal)
        limit = max(g.degree for g in lex.generators) + 3
        oracle = brute_lex_segment(ideal, limit)
        for d in range(limit + 1):
            assert lex.dimension_in_degree(d) == oracle.dimension_in_degree(d)
        for d in range(limit + 1):
            assert lex.dimension_in_degree(d) == ideal.dimension_in_degree(d)


def test_lex_ideal_known_values():
    lex = lex_ideal(parse_ideal("x^3, y^4"))
    assert set(lex.generators) == {
        Monomial((3, 0)),
        Monomial((2, 2)),
        Monomial((1, 4)),
        Monomial((0, 6)),
    }
    lex = lex_ideal(parse_ideal("x^5, y^5"))
    assert set(lex.generators) == {
        Monomial((5, 0)),
        Monomial((4, 1)),
        Monomial((3, 3)),
        Monomial((2, 5)),
        Monomial((1, 7)),
        Monomial((0, 9)),
    }


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.integers(1, 4),
    st.integers(1, 4),
)
def test_quotient_dimensions_additive(alpha, beta, a, b):
    """dim (I+J)/J + dim S/(I+J) == dim S/J degreewise."""
    numerator = MonomialIdeal.from_generators(
        [Monomial((alpha, 0)), Monomial((0, beta))]
    )
    box = MonomialIdeal.from_generators([Monomial((a, 0)), Monomial((0, b))])
    module = QuotientModule(numerator, box)
    residue = algebra_quotient(numerator + box)
    ambient = algebra_quotient(box)
    for d in range(a + b):
        assert (
            module.dimension_in_degree(d) + residue.dimension_in_degree(d)
            == ambient.dimension_in_degree(d)
        )
