import random
import re
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from lefschetz import (
    ExactMatrix,
    LefschetzReport,
    LinearForm,
    MapFailure,
    Monomial,
    MonomialIdeal,
    QuotientModule,
    ReportInvariantError,
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
    tensor_truncation_failures,
    type_two_ideal,
    type_two_slp_conditions,
)
import lefschetz.lefschetz as lefschetz_module
import lefschetz.monomials as monomials_module
from lefschetz.exact import CERTIFICATE_PRIME
from lefschetz.monomials import algebra_quotient
from test_scan_oracle import unpruned_failures


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
    assert LinearForm.random_forms(3, 0, seed=11) == []
    with pytest.raises(ValueError, match="nonnegative"):
        LinearForm.random_forms(3, -3, seed=11)


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


def test_direct_sum_refuses_a_summand_below_degree_zero():
    module = algebra_quotient(parse_ideal("x^2", nvars=1))
    with pytest.raises(ValueError, match="below degree 0"):
        direct_sum_check([Summand(module), Summand(module, shift=-1)])
    # a summand that starts in degree 1 may move down by one
    ideal = parse_ideal("x", nvars=1)
    shifted = Summand(QuotientModule(ideal, parse_ideal("x^3", nvars=1)), shift=-1)
    assert direct_sum_check([shifted]).holds
    with pytest.raises(ValueError, match="below degree 0"):
        direct_sum_check([Summand(shifted.module, shift=-2)], property="WLP")


def test_direct_sum_refuses_an_empty_sum():
    with pytest.raises(ValueError, match="at least one summand"):
        direct_sum_check([])
    with pytest.raises(ValueError, match="at least one module"):
        direct_sum_slp([])


def test_split_direct_sum_builds_no_matrix(monkeypatch):
    module = algebra_quotient(parse_ideal("x^3, y^3, z^3"))
    summands = [Summand(module), Summand(module, shift=1)]
    built = []
    images = lefschetz_module._images

    def spy_images(*args):
        built.append(args)
        return images(*args)

    monkeypatch.setattr(lefschetz_module, "_images", spy_images)
    for prop in ("WLP", "SLP"):
        report = direct_sum_check(summands, property=prop)
        assert not built
        assert report.failures == unpruned_failures(summands, only_d_one=prop == "WLP")
    assert not report.holds


def test_scan_expands_only_the_powers_it_ranks(monkeypatch):
    module = algebra_quotient(parse_ideal("x^8, y^8, z^8"))
    expanded, built, assembled, certified, ranked = [], [], [], [], []
    table_power = {}
    power_expansion = LinearForm.power_expansion
    packed_power = lefschetz_module._packed_power
    images = lefschetz_module._images
    rank = ExactMatrix.rank
    kernel = lefschetz_module._rank_mod_p
    packed_power.cache_clear()

    def spy_expansion(form, d):
        expanded.append(d)
        return power_expansion(form, d)

    def spy_packed(form, d, shift, modulus):
        assert modulus == CERTIFICATE_PRIME
        table = packed_power(form, d, shift, modulus)
        table_power[id(table)] = (d, table)
        return table

    def spy_images(source, target, table):
        built.append(table_power[id(table)][0])
        assembled.append(images(source, target, table))
        return assembled[-1]

    def spy_kernel(lines):
        certified.append(lines)
        return kernel(lines)

    def spy_rank(matrix):
        ranked.append(matrix)
        return rank(matrix)

    monkeypatch.setattr(LinearForm, "power_expansion", spy_expansion)
    monkeypatch.setattr(lefschetz_module, "_packed_power", spy_packed)
    monkeypatch.setattr(lefschetz_module, "_images", spy_images)
    monkeypatch.setattr(lefschetz_module, "_rank_mod_p", spy_kernel)
    monkeypatch.setattr(ExactMatrix, "rank", spy_rank)
    # check_slp decides this split module from its factors without a map,
    # so the scan is called directly
    assert lefschetz_module._scan_maps(module, LinearForm.all_ones(3), False) == ()
    # every map the scan assembles is ranked mod p, and nothing else is;
    # every map passes, so none is rebuilt over the integers
    assert len(built) > 0
    assert [id(m) for m in certified] == [id(m) for m in assembled]
    assert not ranked
    # each power is expanded once, from the cleared cache, and only if ranked
    assert sorted(expanded) == sorted(set(built))
    # a second scan reads every power from the cache
    expanded.clear()
    assert lefschetz_module._scan_maps(module, LinearForm.all_ones(3), False) == ()
    assert not expanded


def test_two_variable_scan_builds_no_matrix(monkeypatch):
    # connected and failing, so the F_p kernel would fall short and Bareiss run
    module = QuotientModule(parse_ideal("x^6, y"), parse_ideal("x^9, x^6*y^2, y^3"))
    forms = [LinearForm(c) for c in ((1, 1), (-3, 2), (1, 0), (0, 5), (CERTIFICATE_PRIME, 1))]
    expected = {
        (form, only_d_one): unpruned_failures([Summand(module, form=form)], only_d_one)
        for form in forms
        for only_d_one in (True, False)
    }
    assert len(expected[forms[0], False]) == 4
    read = []
    degree_basis = QuotientModule.degree_basis

    def no_matrix(*args):
        raise AssertionError("a two-variable map was assembled or eliminated")

    def spy_basis(module, d):
        read.append(d)
        return degree_basis(module, d)

    monkeypatch.setattr(lefschetz_module, "_images", no_matrix)
    monkeypatch.setattr(lefschetz_module, "_rank_mod_p", no_matrix)
    monkeypatch.setattr(ExactMatrix, "rank", no_matrix)
    monkeypatch.setattr(LinearForm, "power_expansion", no_matrix)
    monkeypatch.setattr(QuotientModule, "degree_basis", spy_basis)
    assert check_slp(module).failures == expected[forms[0], False]
    # a two-variable scan reads its bases through degree_basis
    assert read
    for (form, only_d_one), failures in expected.items():
        assert lefschetz_module._scan_maps(module, form, only_d_one) == failures


def test_scan_outside_two_variables_makes_no_monomial(monkeypatch):
    def modules():
        # connected, so check_slp scans them; fresh, so no index is built yet
        return [
            QuotientModule(parse_ideal(num, nvars), parse_ideal(den, nvars))
            for num, den, nvars in [
                ("x^2", "x^5", 1),
                ("1", "x^3, y^3, z^3, x*y*z", 3),
                ("x*y, z^2", "x^3, y^3, z^3, x^2*y*z", 3),
                ("1", "x^3, y^3, z^3, t^3, x*y*z*t", 4),
                ("x*t, y*z", "x^3, y^3, z^2, t^2, x*y*z*t", 4),
            ]
        ]

    expected = [
        (unpruned_failures([Summand(m)], False), unpruned_failures([Summand(m)], True))
        for m in modules()
    ]
    # one failing and one passing module in three variables and in four
    assert [bool(slp) for slp, _ in expected] == [False, True, False, True, False]

    def no_cell(exponents):
        raise AssertionError("a basis Monomial was made")

    monkeypatch.setattr(monomials_module, "_cell", no_cell)
    for module, (slp, wlp) in zip(modules(), expected):
        assert check_slp(module).failures == slp
        assert check_wlp(module).failures == wlp


def test_wlp_scan_packs_only_the_degrees_it_reads(monkeypatch):
    module = algebra_quotient(parse_ideal("x^20, y^20, z^20, x^10*y^10*z^10"))
    h = module.hilbert_series().coeffs
    packed = []
    pack = lefschetz_module._pack

    def spy(exponents, shift):
        packed.append(exponents)
        return pack(exponents, shift)

    lefschetz_module._packed_power.cache_clear()
    monkeypatch.setattr(lefschetz_module, "_pack", spy)
    assert check_wlp(module).holds
    # h rises to h_28 = h_29 and then falls.  The scan ranks M_28 -> M_29
    # and M_27 -> M_28 and tests the socle of every lower degree; each map
    # above degree 29 is carried up and reads no basis.  The other three
    # codes are the terms of x + y + z.
    assert len(packed) == sum(h[:30]) + 3 < sum(h)


def test_split_complete_intersection_builds_no_matrix(monkeypatch):
    module = algebra_quotient(parse_ideal("x^8, y^8, z^8"))

    def no_matrix(*args):
        raise AssertionError("a split module was scanned")

    monkeypatch.setattr(lefschetz_module, "_images", no_matrix)
    monkeypatch.setattr(lefschetz_module, "_rank_mod_p", no_matrix)
    monkeypatch.setattr(ExactMatrix, "rank", no_matrix)
    assert check_slp(module).holds
    assert check_slp(module, LinearForm((1, -2, 3))).holds
    strings = lefschetz_module._split_strings(module, LinearForm.all_ones(3))
    assert sum(m for _, m in strings) == 8**3
    assert max(strings, key=lambda string: string[1]) == (0, 22)
    # the product box was never walked
    assert "_index" not in vars(module)


def test_split_restricts_only_classes_the_numerator_involves(monkeypatch):
    restricted = []
    restrict = lefschetz_module._restricted

    def spy(ideal, variables):
        restricted.append(variables)
        return restrict(ideal, variables)

    monkeypatch.setattr(lefschetz_module, "_restricted", spy)
    form = LinearForm.all_ones(3)
    algebra = algebra_quotient(parse_ideal("x^3, y^2, z^4"))
    assert sorted(lefschetz_module._split_strings(algebra, form)) == sorted(lefschetz_module._strings(
        algebra.hilbert_series(), lefschetz_module._scan_maps(algebra, form, False)
    ))
    assert restricted == []
    # the numerator lives in the class of x, whose factor is a module
    module = QuotientModule(parse_ideal("x^2", 3), parse_ideal("x^5, y^3, z^3"))
    assert sorted(lefschetz_module._split_strings(module, form)) == sorted(lefschetz_module._strings(
        module.hilbert_series(), lefschetz_module._scan_maps(module, form, False)
    ))
    assert restricted == [(0,), (0,)]


def test_failing_split_module_is_decided_from_its_factors():
    base = algebra_quotient(parse_ideal("x^4, y^4, z^4, x^2*y^2*z^2"))
    for c in (3, 4, 6):
        module = base.tensor_truncation(c)
        report = check_slp(module)
        # the product box was never walked
        assert "_index" not in vars(module)
        assert not report.holds
        assert report.failures == lefschetz_module._scan_maps(
            module, LinearForm.all_ones(4), False
        )


def test_truncation_failures_refuse_heights_below_one():
    module = algebra_quotient(parse_ideal("x^2, y^2"))
    with pytest.raises(ValueError, match="truncation exponent must be at least 1"):
        tensor_truncation_failures(module, [2, 0])


def test_truncation_failures_refuse_a_four_variable_base():
    module = algebra_quotient(parse_ideal("x^2, y^2, z^2, t^2"))
    with pytest.raises(ValueError, match="ambient variable limit exceeded"):
        tensor_truncation_failures(module, [1])


def test_truncation_failures_check_the_form_length():
    module = algebra_quotient(parse_ideal("x^2, y^2"))
    with pytest.raises(ValueError, match="3 coefficients for a module in 2 variables"):
        tensor_truncation_failures(module, [1], LinearForm((1, 1, 1)))


def test_truncation_failures_of_a_zero_base_are_empty():
    module = QuotientModule(parse_ideal("x, y"), parse_ideal("x, y"))
    assert module.hilbert_series().is_zero
    assert tensor_truncation_failures(module, range(1, 5)) == []
    assert check_slp(module.tensor_truncation(3)).holds


def test_truncation_failures_refuse_a_box_the_scan_refuses():
    module = algebra_quotient(parse_ideal("x^100, y^100"))
    assert tensor_truncation_failures(module, [2]) == []
    with pytest.raises(ValueError, match="over the limit"):
        tensor_truncation_failures(module, [3])
    with pytest.raises(ValueError, match="over the limit"):
        check_slp(module.tensor_truncation(3))


def test_report_invariant_is_an_internal_error():
    with pytest.raises(ReportInvariantError, match="mirror"):
        LefschetzReport("WLP", holds=False, failures=(), linear_form=())
    with pytest.raises(ReportInvariantError):
        LefschetzReport("SLP", holds=True, failures=(MapFailure(0, 1, 0, 1),), linear_form=())
    # the CLI reports a RuntimeError as an internal error, not a usage error
    assert issubclass(ReportInvariantError, RuntimeError)
    assert not issubclass(ReportInvariantError, ValueError)


@pytest.mark.parametrize(
    "den, form",
    [
        ("x^2, y^2, z^2", (1, 1, 1)),
        # connected three-variable modules: a two-variable scan ranks by the
        # window rule and never reaches the F_p kernel
        pytest.param("x^2, y^2, z^2, x*y*z", (1, 0, 1), id="x*y*z-cut"),
        pytest.param("x^3, y^3, z^2, x*y^2*z", (1, 1, 1), id="x*y^2*z-cut"),
    ],
)
def test_certificate_prime_multiples_fall_back_to_exact_ranks(monkeypatch, den, form):
    # Every coefficient of p * form is 0 mod p, so each certificate rank is 0
    # and every map must be ranked again exactly.
    module = algebra_quotient(parse_ideal(den))
    scaled = LinearForm(tuple(CERTIFICATE_PRIME * c for c in form))
    certified, ranked = [], []
    kernel = lefschetz_module._rank_mod_p
    rank = ExactMatrix.rank

    def spy_kernel(lines):
        certified.append(kernel(lines))
        return certified[-1]

    def spy_rank(matrix):
        ranked.append(matrix)
        return rank(matrix)

    monkeypatch.setattr(lefschetz_module, "_rank_mod_p", spy_kernel)
    monkeypatch.setattr(ExactMatrix, "rank", spy_rank)
    # check_slp reads S/(x^2, y^2, z^2) from its one-variable factors and
    # ranks nothing, so the spies watch the scan, and the checker must agree
    for only_d_one, checker in ((True, check_wlp), (False, check_slp)):
        certified.clear()
        ranked.clear()
        failures = lefschetz_module._scan_maps(module, scaled, only_d_one)
        # every map's images vanish mod p, and every map is rebuilt and
        # ranked exactly
        assert ranked
        assert certified == [0] * len(ranked)
        assert all(e % CERTIFICATE_PRIME == 0 for m in ranked for e in m.entries)
        assert checker(module, scaled).failures == failures
        assert checker(module, LinearForm(form)).failures == failures


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
    with pytest.raises(ValueError, match="shifts"):
        # one shift for two modules must not judge the first module alone
        direct_sum_slp(
            [module, algebra_quotient(parse_ideal("x^3", nvars=1))], shifts=[0]
        )
    with pytest.raises(ValueError, match="shifts"):
        direct_sum_slp([module], shifts=[0, 1])
    with pytest.raises(ValueError, match="at least one"):
        direct_sum_slp([])


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


def block_scan_csm_criterion(ideal, v):
    """The criterion as first defined: every tilde has the SLP by
    ``check_slp`` and the unpruned block-diagonal scan of their sum passes."""
    tildes = [entry.tilde for entry in csm_decompose(ideal, v).entries]
    if not all(check_slp(t).holds for t in tildes):
        return False
    return unpruned_failures([Summand(t) for t in tildes], only_d_one=False) == ()


def test_csm_criterion_matches_the_block_scan_on_type_two_ideals():
    from lefschetz.sweeps import _type_two_params

    verdicts = Counter()
    for params in _type_two_params(3):
        ideal = type_two_ideal(*params)
        for v in range(3):
            verdict = csm_slp_criterion(ideal, v)
            assert verdict == block_scan_csm_criterion(ideal, v), (params, v)
            verdicts[verdict] += 1
    assert verdicts[True] and verdicts[False]


def test_csm_criterion_example():
    ideal = parse_ideal("x^3, y^3, z^4, x*z, y*z", nvars=3)
    assert csm_slp_criterion(ideal, 0)
    # with respect to z the tilde sum misses maximal rank at (i=0, d=4),
    # so the criterion stays silent even though S/I does have the SLP
    assert not csm_slp_criterion(ideal, 2)
    assert check_slp(algebra_quotient(ideal)).holds


def test_csm_criterion_of_an_empty_decomposition_is_false():
    # S/(1) is zero: it has no central simple module, so no tilde to verify
    unit = MonomialIdeal.unit(3)
    assert csm_decompose(unit, 0).entries == ()
    assert not csm_slp_criterion(unit, 0)


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


def test_type_two_ideal_is_its_minimalised_generating_set():
    from lefschetz.sweeps import _type_two_params

    for a, b, c, alpha, beta, gamma in _type_two_params(4):
        monomials = [(a, 0, 0), (0, b, 0), (0, 0, c), (alpha, 0, gamma), (0, beta, gamma)]
        assert type_two_ideal(a, b, c, alpha, beta, gamma) == MonomialIdeal.from_generators(
            map(Monomial, monomials)
        )


@pytest.mark.parametrize(
    "params",
    [(3, 4, 3, 3, 2, 2), (3, 4, 3, 1, 0, 2), (3, 4, 3, 1, 2, 3)],
    ids=["alpha=a", "beta=0", "gamma=c"],
)
def test_type_two_ideal_refuses_parameters_out_of_range(params):
    message = re.escape("parameters must satisfy 0 < alpha < a, 0 < beta < b, 0 < gamma < c")
    with pytest.raises(ValueError, match=message):
        type_two_slp_conditions(*params)
    with pytest.raises(ValueError, match=message):
        type_two_ideal(*params)


def test_type_two_conditions():
    verdict = type_two_slp_conditions(3, 4, 3, 1, 2, 2)
    assert verdict.doubled_degrees == (6, 5, 3, 7)
    assert 1 in verdict.conditions
    assert verdict.predicts_slp
    with pytest.raises(ValueError):
        type_two_slp_conditions(2, 2, 2, 2, 1, 1)
    none = type_two_slp_conditions(4, 4, 2, 1, 1, 1)
    assert not none.predicts_slp

