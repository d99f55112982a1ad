import pytest
from hypothesis import given, settings, strategies as st

from lefschetz import (
    HilbertSeries,
    Monomial,
    MonomialIdeal,
    QuotientModule,
    ReflectingDegree,
    degrees_coincide,
    is_almost_centered,
    is_symmetric,
    is_unimodal,
    two_power_quotient_dim,
)
from lefschetz.series import sum_series

coeff_lists = st.lists(st.integers(0, 9), min_size=0, max_size=8)


def series(start, coeffs):
    return HilbertSeries.from_coefficients(start, coeffs)


def test_normalization():
    s = series(1, [0, 0, 2, 1, 0])
    assert s.start == 3
    assert s.coeffs == (2, 1)
    assert series(0, [0, 0]).is_zero
    with pytest.raises(ValueError):
        HilbertSeries(0, (0, 1))
    with pytest.raises(ValueError):
        HilbertSeries(0, (1, -1, 1))


def test_str():
    assert str(series(2, [2, 4, 3, 2, 1])) == "2t^2 + 4t^3 + 3t^4 + 2t^5 + t^6"
    assert str(series(0, [1, 1])) == "1 + t"
    assert str(HilbertSeries.zero()) == "0"


def test_coefficient_and_total():
    s = series(3, [1, 3, 3])
    assert s.coefficient(4) == 3
    assert s.coefficient(0) == 0
    assert s.coefficient(99) == 0
    assert sum(s.coeffs) == 7


@given(st.integers(0, 5), coeff_lists, st.integers(0, 4))
def test_shift_preserves_coefficients(start, coeffs, offset):
    s = series(start, coeffs)
    shifted = s.shifted(offset)
    for d in range(start - 6, start + 14):
        assert shifted.coefficient(d + offset) == s.coefficient(d)


@given(st.integers(0, 4), coeff_lists, st.integers(0, 4), coeff_lists)
def test_addition_pointwise(s1, c1, s2, c2):
    a, b = series(s1, c1), series(s2, c2)
    total = a + b
    for d in range(0, 14):
        assert total.coefficient(d) == a.coefficient(d) + b.coefficient(d)


@given(st.integers(0, 4), coeff_lists, st.integers(1, 5))
def test_times_truncation_is_window_sum(start, coeffs, c):
    s = series(start, coeffs)
    prod = s.times_truncation(c)
    for d in range(0, 16):
        assert prod.coefficient(d) == sum(s.coefficient(d - j) for j in range(c))


@given(st.integers(0, 4), coeff_lists, st.integers(0, 4), coeff_lists)
def test_product_is_convolution(s1, c1, s2, c2):
    a, b = series(s1, c1), series(s2, c2)
    prod = a * b
    assert prod == b * a
    for d in range(0, 24):
        assert prod.coefficient(d) == sum(
            a.coefficient(j) * b.coefficient(d - j) for j in range(d + 1)
        )


def test_sum_series():
    parts = [series(0, [1]), series(2, [1, 1]), HilbertSeries.zero()]
    assert sum_series(parts).coeffs == (1, 0, 1, 1)


def test_symmetric_and_reflecting_degree():
    r = is_symmetric(series(2, [1, 3, 1]))
    assert r == ReflectingDegree(6)
    assert str(r) == "3"
    r = is_symmetric(series(1, [2, 2]))
    assert r.doubled == 3 and str(r) == "3/2"
    assert is_symmetric(series(0, [1, 2])) is None
    assert is_symmetric(HilbertSeries.zero()) is None


def test_degrees_coincide():
    assert degrees_coincide(ReflectingDegree(6), ReflectingDegree(7))
    assert degrees_coincide(ReflectingDegree(6), ReflectingDegree(6))
    assert not degrees_coincide(ReflectingDegree(6), ReflectingDegree(8))


def test_unimodal():
    assert is_unimodal(series(0, [1, 2, 2, 1]))
    assert is_unimodal(series(0, [3, 1]))
    assert not is_unimodal(series(0, [1, 2, 1, 2]))
    assert is_unimodal(HilbertSeries.zero())


def test_almost_centered_examples():
    # symmetric implies almost centered
    assert is_almost_centered(series(0, [1, 2, 1]))
    # short support is vacuous
    assert is_almost_centered(series(0, [5, 1]))
    assert is_almost_centered(HilbertSeries.zero())
    # the running counterexample
    assert not is_almost_centered(series(2, [2, 4, 3, 2, 1]))


@given(st.lists(st.integers(1, 9), min_size=1, max_size=5), st.integers(0, 3))
def test_symmetric_unimodal_series_are_almost_centered(rises, start):
    coeffs = sorted(rises)
    s = series(start, coeffs + coeffs[::-1])
    assert is_unimodal(s)
    assert is_almost_centered(s)


def module_2powers(alpha, beta, a, b):
    numerator = MonomialIdeal.from_generators(
        [Monomial((alpha, 0)), Monomial((0, beta))]
    )
    box = MonomialIdeal.from_generators([Monomial((a, 0)), Monomial((0, b))])
    return QuotientModule(numerator, box)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_two_power_quotient_dim_matches_module(data):
    a = data.draw(st.integers(1, 6))
    b = data.draw(st.integers(1, 6))
    alpha = data.draw(st.integers(0, a))
    beta = data.draw(st.integers(0, b))
    module = module_2powers(alpha, beta, a, b)
    for i in range(a + b + 1):
        assert two_power_quotient_dim(alpha, beta, a, b, i) == (
            module.dimension_in_degree(i)
        )


def test_two_power_quotient_dim_validation():
    with pytest.raises(ValueError):
        two_power_quotient_dim(3, 0, 2, 2, 1)
    with pytest.raises(ValueError):
        two_power_quotient_dim(1, 1, 2, 2, -1)
