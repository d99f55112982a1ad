import random

import pytest
from hypothesis import given, settings, strategies as st

from lefschetz import (
    LinearForm,
    MapFailure,
    Monomial,
    MonomialIdeal,
    QuotientModule,
    Summand,
    TensorCondition,
    check_slp,
    check_wlp,
    csm_decompose,
    csm_slp_criterion,
    direct_sum_check,
    direct_sum_slp,
    mult_matrix,
    parse_ideal,
    tensor_slp_condition,
    type_two_ideal,
    type_two_slp_conditions,
)
from lefschetz.lefschetz import slp_with_witnesses
from lefschetz.monomials import algebra_quotient


def poly_multiply(coeffs, form, power):
    """Oracle: repeated naive multiplication by the linear form, as a dict
    from exponent tuples to coefficients."""
    out = dict(coeffs)
    for _ in range(power):
        nxt = {}
        for exps, c in out.items():
            for v, fv in enumerate(form.coefficients):
                if fv == 0:
                    continue
                w = tuple(e + (1 if k == v else 0) for k, e in enumerate(exps))
                nxt[w] = nxt.get(w, 0) + c * fv
        out = nxt
    return out


def test_power_expansion_matches_naive_product():
    rng = random.Random(5)
    for nvars in (1, 2, 3, 4):
        for d in range(0, 5):
            form = LinearForm(tuple(rng.randint(-3, 3) or 1 for _ in range(nvars)))
            expansion = dict(form.power_expansion(d))
            oracle = poly_multiply({(0,) * nvars: 1}, form, d)
            oracle = {e: c for e, c in oracle.items() if c}
            assert expansion == oracle


def test_linear_form_validation():
    with pytest.raises(ValueError):
        LinearForm((0, 0))
    with pytest.raises(ValueError):
        LinearForm(())
    assert str(LinearForm((1, 2, 1))) == "x + 2*y + z"


def test_form_length_must_match_the_module():
    module = algebra_quotient(parse_ideal("x^2, y^2"))
    with pytest.raises(ValueError, match="linear form"):
        Summand(module, form=LinearForm((1,)))
    with pytest.raises(ValueError, match="linear form"):
        check_wlp(module, LinearForm((1, 1, 1)))
    with pytest.raises(ValueError, match="linear form"):
        direct_sum_check([Summand(module), Summand(module, form=LinearForm((1,)))])


def test_random_forms_are_seeded():
    a = LinearForm.random_forms(3, 4, seed=11)
    b = LinearForm.random_forms(3, 4, seed=11)
    assert a == b
    assert all(1 <= c <= 100 for f in a for c in f.coefficients)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 3), st.integers(1, 3))
def test_mult_matrix_matches_polynomial_oracle(a, b, i, d):
    module = algebra_quotient(
        MonomialIdeal.from_generators([Monomial((a, 0)), Monomial((0, b))])
    )
    form = LinearForm((2, 3))
    matrix = mult_matrix(module, form, d, i)
    source = module.degree_basis(i)
    target = module.degree_basis(i + d)
    assert matrix.rows == len(target) and matrix.cols == len(source)
    for j, mono in enumerate(source):
        image = poly_multiply({mono.exponents: 1}, form, d)
        for r, tmono in enumerate(target):
            assert matrix.at(r, j) == image.get(tmono.exponents, 0)


def test_one_variable_truncation_has_slp():
    for n in range(1, 6):
        module = algebra_quotient(parse_ideal(f"x^{n}", nvars=1))
        report = check_slp(module)
        assert report.holds and report.property == "SLP"


def test_monomial_complete_intersection_wlp():
    module = algebra_quotient(parse_ideal("x^3, y^3"))
    assert check_wlp(module).holds
    assert check_slp(module).holds
    matrix = mult_matrix(module, LinearForm.all_ones(2), 2, 1)
    assert matrix.rank() == min(matrix.rows, matrix.cols)


def test_failing_wlp_records_failures():
    module = algebra_quotient(parse_ideal("x^2, y^2, z^2", nvars=3))
    report = check_wlp(module, LinearForm((1, 1, 0)))
    # x + y is not a Lefschetz element here: (x + y)(x - y) = 0 in degree 1
    assert not report.holds
    assert all(f.d == 1 for f in report.failures)
    assert all(f.rank < f.expected for f in report.failures)


def test_zero_module_reports_hold():
    module = QuotientModule(parse_ideal("x^2", nvars=2), parse_ideal("x^2, y"))
    assert module.hilbert_series().is_zero
    assert check_slp(module).holds


def test_direct_sum_check_shifted_copies():
    module = algebra_quotient(parse_ideal("x^2", nvars=1))
    report = direct_sum_check(
        [Summand(module), Summand(module, shift=2)], property="WLP"
    )
    assert not report.holds
    assert MapFailure(i=1, d=1, rank=0, expected=1) in report.failures


def test_direct_sum_slp_coincidence():
    module = algebra_quotient(parse_ideal("x^2", nvars=1))
    assert direct_sum_slp([module, module])
    assert not direct_sum_slp([module, module], shifts=[0, 1])
    a = algebra_quotient(parse_ideal("x^2, y^2"))
    b = algebra_quotient(parse_ideal("x^3, y^3"))
    assert not direct_sum_slp([a, b])
    with pytest.raises(ValueError):
        # 1 + 2t is not symmetric
        direct_sum_slp([algebra_quotient(parse_ideal("x^2, x*y, y^2"))])


def test_csm_decompose_three_variable_example():
    ideal = parse_ideal("x^3, y^3, z^4, x*z, y*z", nvars=3)
    report = csm_decompose(ideal, 0)
    assert report.nilpotency == 3
    assert [e.exponent for e in report.entries] == [3, 1]
    assert [str(e.hilbert) for e in report.entries] == [
        "1 + t + t^2",
        "t + t^2 + t^3",
    ]
    report = csm_decompose(ideal, 2)
    assert report.nilpotency == 4
    assert [e.exponent for e in report.entries] == [4, 1]
    assert [str(e.hilbert) for e in report.entries] == [
        "1",
        "2t + 3t^2 + 2t^3 + t^4",
    ]


def test_csm_series_sum_recovers_algebra():
    """Sum over CSMs of H(V_i) * (1 + ... + t^(f_i - 1)) equals H(S/I)."""
    for text in ["x^3, y^3, z^4, x*z, y*z", "x^2, y^3, z^3, x*z^2, y^2*z^2"]:
        ideal = parse_ideal(text, nvars=3)
        total = algebra_quotient(ideal).hilbert_series()
        for v in range(3):
            report = csm_decompose(ideal, v)
            recovered = report.entries[0].hilbert.times_truncation(0 + report.entries[0].exponent)
            for entry in report.entries[1:]:
                recovered = recovered + entry.hilbert.times_truncation(entry.exponent)
            assert recovered == total


def test_csm_criterion_example():
    ideal = parse_ideal("x^3, y^3, z^4, x*z, y*z", nvars=3)
    assert csm_slp_criterion(ideal, 0)
    # with respect to z the tilde sum misses maximal rank at (i=0, d=4),
    # so the criterion stays silent even though S/I does have the SLP
    assert not csm_slp_criterion(ideal, 2)
    assert check_slp(algebra_quotient(ideal)).holds


def test_tensor_condition_classification():
    assert tensor_slp_condition(1, 2, 2, 3) is TensorCondition.SMALL_CASE
    assert tensor_slp_condition(2, 3, 3, 4) is TensorCondition.SYMMETRIC_CASE
    assert tensor_slp_condition(2, 2, 3, 3) is TensorCondition.NONE
    assert tensor_slp_condition(3, 4, 5, 6) is TensorCondition.NONE
    with pytest.raises(ValueError):
        tensor_slp_condition(3, 0, 2, 2)


def test_type_two_ideal_generators():
    ideal = type_two_ideal(3, 4, 3, 1, 2, 2)
    assert set(ideal.generators) == {
        Monomial((3, 0, 0)),
        Monomial((0, 4, 0)),
        Monomial((0, 0, 3)),
        Monomial((1, 0, 2)),
        Monomial((0, 2, 2)),
    }


def test_type_two_conditions():
    verdict = type_two_slp_conditions(3, 4, 3, 1, 2, 2)
    assert verdict.doubled_degrees == (6, 5, 3, 7)
    assert 1 in verdict.conditions
    assert verdict.predicts_slp
    with pytest.raises(ValueError):
        type_two_slp_conditions(2, 2, 2, 2, 1, 1)
    none = type_two_slp_conditions(4, 4, 2, 1, 1, 1)
    assert not none.predicts_slp


def test_slp_with_witnesses_falls_back_to_random_forms():
    module = algebra_quotient(parse_ideal("x^3, y^4"))
    report = slp_with_witnesses(module, extra_random_forms=2, seed=3)
    assert report.holds
