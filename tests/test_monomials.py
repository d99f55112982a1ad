import dataclasses
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from lefschetz import (
    HilbertSeries,
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
from lefschetz.monomials import (
    MAX_BOX_CELLS,
    algebra_quotient,
    divisible_by_any,
    exponents_of_degree,
    sort_descending,
)


def test_monomial_basics():
    m = Monomial((2, 1, 0))
    assert m.degree == 3
    assert str(m) == "x^2*y"
    assert str(Monomial((0, 0))) == "1"
    assert divisible_by_any((3, 1, 2), [m.exponents])
    assert not divisible_by_any((1, 5, 5), [m.exponents])


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


@pytest.mark.parametrize(
    "text, nvars, message, position",
    [
        ("x^2, y^3, q", 3, "unknown variable 'q'", 10),
        ("  x, y^^2", 2, "unexpected character '^'", 6),
        ("x^3, y^3, x*y**2", 2, "unexpected '*'", 14),
    ],
)
def test_parse_ideal_error_positions_are_in_the_whole_text(text, nvars, message, position):
    with pytest.raises(ParseError) as caught:
        parse_ideal(text, nvars)
    assert caught.value.position == position
    assert str(caught.value) == f"{message} (at position {position})"
    # the position holds the quoted character
    assert text[position] == message[-2]


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
            module.hilbert_series().coefficient(d) + residue.hilbert_series().coefficient(d)
            == ambient.hilbert_series().coefficient(d)
        )


# --- the box index against per-degree references ---------------------------


def reference_basis(module, d):
    """The degree-d basis by filtering every degree-d exponent vector."""
    return [
        Monomial(exps)
        for exps in exponents_of_degree(d, module.nvars)
        if module.numerator.contains(Monomial(exps))
        and not module.denominator.contains(Monomial(exps))
    ]


def reference_from_generators(gens, nvars):
    """Minimalisation on Monomial objects, largest first, as the package once did it."""

    def divides(g, m):
        return all(a <= b for a, b in zip(g.exponents, m.exponents))

    minimal = []
    for m in sort_descending(set(gens)):
        if not any(divides(g, m) for g in minimal):
            minimal = [g for g in minimal if not divides(m, g)]
            minimal.append(m)
    return MonomialIdeal(frozenset(minimal), nvars)


@st.composite
def artinian_modules(draw, max_vars=4):
    """(I + J)/J with J Artinian in 1..max_vars variables, I unit or drawn."""
    nvars = draw(st.integers(1, max_vars))
    caps = draw(st.lists(st.integers(1, 4), min_size=nvars, max_size=nvars))
    exps = st.tuples(*[st.integers(0, 3)] * nvars).map(Monomial)
    den = [variable_power(nvars, v, c) for v, c in enumerate(caps)]
    den += draw(st.lists(exps, max_size=3))
    num = draw(st.lists(exps, max_size=3))
    numerator = (
        MonomialIdeal.from_generators(num, nvars) if num else MonomialIdeal.unit(nvars)
    )
    return QuotientModule(numerator, MonomialIdeal.from_generators(den, nvars))


@settings(max_examples=120, deadline=None)
@given(artinian_modules())
def test_box_index_matches_per_degree_reference(module):
    top = module.top_degree_bound()
    coeffs = []
    for d in range(top + 2):
        basis = module.degree_basis(d)
        assert basis == reference_basis(module, d)
        coeffs.append(len(basis))
    assert module.hilbert_series() == HilbertSeries.from_coefficients(0, coeffs)


@settings(max_examples=120, deadline=None)
@given(artinian_modules())
def test_box_index_cells_are_validated_monomials(module):
    # The index makes its cells without re-running Monomial's validation, so
    # each must still be the Monomial that the validating constructor makes.
    for d in range(module.top_degree_bound() + 1):
        basis = module.degree_basis(d)
        for cell in basis:
            made = Monomial(cell.exponents)
            assert type(cell) is Monomial and type(cell.exponents) is tuple
            assert cell == made and hash(cell) == hash(made)
            assert pickle.loads(pickle.dumps(cell)) == made
            with pytest.raises(dataclasses.FrozenInstanceError):
                cell.exponents = ()
        # a returned list is the caller's own
        basis.reverse()
        basis.append(Monomial((0,) * module.nvars))
        assert module.degree_basis(d) == reference_basis(module, d)
        assert module.hilbert_series().coefficient(d) == len(basis) - 1


@settings(max_examples=40, deadline=None)
@given(artinian_modules(max_vars=3))
def test_tensor_truncation_basis_is_the_product_basis(module):
    # Neither extended ideal involves t, so the degree-e basis of M (x) k[t]/(t^c)
    # is every m * t^j with j < c and m in M_(e - j), in descending lex order.
    top = module.top_degree_bound()
    for c in range(1, 6):
        tensored = module.tensor_truncation(c)
        for e in range(top + c + 1):
            product = sorted(
                (
                    m.exponents + (j,)
                    for j in range(min(c, e + 1))
                    for m in module.degree_basis(e - j)
                ),
                reverse=True,
            )
            assert tensored.degree_basis(e) == [Monomial(exps) for exps in product]
        assert tensored.hilbert_series() == module.hilbert_series().times_truncation(c)


def test_pure_power_caps_decide_artinian_and_top_degree():
    ideal = parse_ideal("x^2, x*y, y^3")
    assert ideal.pure_power_caps == (2, 3)
    assert algebra_quotient(ideal).top_degree_bound() == 3
    partial = parse_ideal("x^2, x*y", nvars=2)
    assert partial.pure_power_caps == (2, None)
    assert not partial.is_artinian()
    for v in (1, 2, -1):
        with pytest.raises(ValueError, match="no pure power"):
            partial.pure_power_exponent(v)
    with pytest.raises(ValueError, match="Artinian"):
        algebra_quotient(partial).top_degree_bound()
    assert MonomialIdeal.unit(3).pure_power_caps == (0, 0, 0)
    assert MonomialIdeal.zero(2).pure_power_caps == (None, None)


@pytest.mark.parametrize("den", [parse_ideal("x^2, x*y", nvars=2), MonomialIdeal.zero(2)])
def test_non_artinian_denominator_is_refused_at_construction(den):
    with pytest.raises(ValueError, match="Artinian"):
        QuotientModule(MonomialIdeal.unit(2), den)


@pytest.mark.parametrize("nvars", [-3, 0, 5])
def test_ideal_ambient_variable_count_is_checked(nvars):
    # An ideal without generators has no monomial to check its ring size.
    with pytest.raises(ValueError, match=r"ambient variable count must be 1\.\.4"):
        MonomialIdeal.zero(nvars)


def test_from_generators_matches_monomial_reference():
    rng = random.Random(7)
    for _ in range(400):
        nvars = rng.randint(1, 4)
        gens = [
            Monomial(tuple(rng.randint(0, 3) for _ in range(nvars)))
            for _ in range(rng.randint(1, 8))
        ]
        gens += rng.sample(gens, rng.randint(0, len(gens)))  # duplicates
        if rng.random() < 0.1:
            gens.append(Monomial((0,) * nvars))
        rng.shuffle(gens)
        ideal = MonomialIdeal.from_generators(gens, nvars)
        assert ideal == reference_from_generators(gens, nvars)


def test_non_antichain_generators_are_refused():
    for gens in (
        [Monomial((1, 0)), Monomial((2, 1))],
        [Monomial((0, 0, 0)), Monomial((0, 0, 5))],
        [Monomial((3, 0)), Monomial((0, 2)), Monomial((1, 1)), Monomial((1, 3))],
    ):
        with pytest.raises(ValueError, match="antichain"):
            MonomialIdeal(frozenset(gens), len(gens[0].exponents))


def test_oversized_box_is_refused_before_enumeration():
    side = 12
    assert side**4 > MAX_BOX_CELLS
    module = algebra_quotient(
        MonomialIdeal.from_generators([variable_power(4, v, side) for v in range(4)])
    )
    for call in (module.hilbert_series, lambda: module.degree_basis(3)):
        with pytest.raises(ValueError, match=f"{side**4} cells.*{MAX_BOX_CELLS}"):
            call()
    # A truncation is refused the same way once its box is too large.
    square = algebra_quotient(parse_ideal("x^100, y^100"))
    assert sum(square.hilbert_series().coeffs) == 100**2
    with pytest.raises(ValueError, match="cells"):
        square.tensor_truncation(3).hilbert_series()
    # The zero module needs no enumeration.
    zero = QuotientModule(MonomialIdeal.zero(4), module.denominator)
    assert zero.hilbert_series().is_zero


@pytest.mark.parametrize(
    "num, den, nvars, expected",
    [
        # a wall with last exponent 0: x*y empties every prefix it divides
        ("1", "x^2, y^2, z^2, x*y", 3,
         {0: [(0, 0, 0)], 1: [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
          2: [(1, 0, 1), (0, 1, 1)]}),
        # a numerator generator in the last variable only
        ("z^2", "x^2, y^2, z^3", 3,
         {2: [(0, 0, 2)], 3: [(1, 0, 2), (0, 1, 2)], 4: [(1, 1, 2)]}),
        # one variable: the prefix is empty
        ("x^2", "x^5", 1, {2: [(2,)], 3: [(3,)], 4: [(4,)]}),
        ("1", "x", 1, {0: [(0,)]}),
        # a cap of 1 on a head variable and on the last variable
        ("1", "x, y^3, z^2", 3,
         {0: [(0, 0, 0)], 1: [(0, 1, 0), (0, 0, 1)], 2: [(0, 2, 0), (0, 1, 1)],
          3: [(0, 2, 1)]}),
        ("y", "x^2, y^3, z", 3, {1: [(0, 1, 0)], 2: [(1, 1, 0), (0, 2, 0)], 3: [(1, 2, 0)]}),
        # a wall and a numerator generator lowering and raising one interval
        ("x*z", "x^3, y^2, z^4, x*y*z^2", 3,
         {2: [(1, 0, 1)], 3: [(2, 0, 1), (1, 1, 1), (1, 0, 2)],
          4: [(2, 1, 1), (2, 0, 2), (1, 0, 3)], 5: [(2, 0, 3)]}),
        # four variables: nested wall heads x and x*y, walls y*z*t and y*z*t^2
        # on one head (minimalisation keeps the lower), and a numerator
        # generator t whose head is all zero
        ("t", "x^2, y^2, z^2, t^3, x*t^2, x*y*t, y*z*t, y*z*t^2", 4,
         {1: [(0, 0, 0, 1)],
          2: [(1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, 1), (0, 0, 0, 2)],
          3: [(1, 0, 1, 1), (0, 1, 0, 2), (0, 0, 1, 2)]}),
    ],
)
def test_box_index_edge_cases(num, den, nvars, expected):
    module = QuotientModule(parse_ideal(num, nvars), parse_ideal(den, nvars))
    top = module.top_degree_bound()
    for d in range(top + 2):
        basis = module.degree_basis(d)
        assert basis == [Monomial(e) for e in expected.get(d, [])]
        assert basis == reference_basis(module, d)
        assert module.hilbert_series().coefficient(d) == len(basis)


def test_zero_numerator_has_no_basis():
    module = QuotientModule(MonomialIdeal.zero(3), parse_ideal("x^2, y^2, z^2"))
    assert all(module.degree_basis(d) == [] for d in range(5))
    assert module.hilbert_series().is_zero
    with pytest.raises(ValueError, match="nonnegative"):
        module.degree_basis(-1)
