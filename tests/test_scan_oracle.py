"""The pruned Lefschetz scan and the memoised basis against direct oracles.

The oracle scan ranks every map (times ell^d): M_i -> M_{i+d}, as the
scan did before maps implied by a longer injective or surjective map were
skipped, by exact elimination only.  It builds each map by adding exponent
tuples, as the package did before it packed exponents into integers.  Both
live only here.
"""

import random

from hypothesis import given, settings, strategies as st

from lefschetz import (
    ExactMatrix,
    LinearForm,
    MapFailure,
    Monomial,
    MonomialIdeal,
    QuotientModule,
    Summand,
    TensorCondition,
    algebra_quotient,
    direct_sum_check,
    monomials_of_degree,
    mult_matrix,
    tensor_slp_condition,
    type_two_ideal,
    variable_power,
)
from lefschetz.series import sum_series
from lefschetz.sweeps import _tensor_params, _type_two_params


def tuple_matrix_between(source, target, expansion):
    """Matrix of multiplication by an expanded form power, target x source."""
    index = {m.exponents: i for i, m in enumerate(target)}
    data = [[0] * len(source) for _ in range(len(target))]
    for j, u in enumerate(source):
        for exps, coeff in expansion:
            w = tuple(a + b for a, b in zip(u.exponents, exps))
            i = index.get(w)
            if i is not None:
                data[i][j] += coeff
    if not target:
        return ExactMatrix.zeros(0, len(source))
    return ExactMatrix.from_rows(data)


def unpruned_failures(summands, only_d_one):
    """Every map of the block-diagonal scan ranked, failures in (d, i) order."""
    series = sum_series(s.series() for s in summands)
    if series.is_zero:
        return ()
    p, q = series.start, series.end

    def basis(s, d):
        return s.module.degree_basis(d - s.shift) if d >= s.shift else []

    failures = []
    for d in range(1, (1 if only_d_one else q - p) + 1):
        for i in range(p, q - d + 1):
            sources = [basis(s, i) for s in summands]
            targets = [basis(s, i + d) for s in summands]
            expected = min(sum(map(len, sources)), sum(map(len, targets)))
            if expected == 0:
                continue
            blocks = [
                tuple_matrix_between(src, tgt, s.resolved_form().power_expansion(d))
                for s, src, tgt in zip(summands, sources, targets)
            ]
            rank = ExactMatrix.block_diagonal(blocks).rank()
            if rank != expected:
                failures.append(MapFailure(i=i, d=d, rank=rank, expected=expected))
    return tuple(failures)


def filtered_basis(module, d):
    """The degree-d basis by filtering every degree-d monomial."""
    return [
        m
        for m in monomials_of_degree(module.nvars, d)
        if module.numerator.contains(m) and not module.denominator.contains(m)
    ]


def assert_scans_agree(summands):
    for prop in ("WLP", "SLP"):
        pruned = direct_sum_check(summands, property=prop).failures
        assert pruned == unpruned_failures(summands, only_d_one=prop == "WLP")
    return bool(pruned)


def random_module(rng, nvars):
    """A small Artinian quotient (I + J)/J with random mixed generators."""
    box = [rng.randint(2, 4) for _ in range(nvars)]
    den = [Monomial(tuple(box[v] if v == u else 0 for v in range(nvars))) for u in range(nvars)]
    for _ in range(rng.randint(0, 2)):
        den.append(Monomial(tuple(rng.randint(0, b - 1) for b in box)))
    num = [Monomial(tuple(rng.randint(0, 2) for _ in range(nvars)))
           for _ in range(rng.randint(0, 2))]
    numerator = (
        MonomialIdeal.from_generators(num, nvars) if num else MonomialIdeal.unit(nvars)
    )
    return QuotientModule(numerator, MonomialIdeal.from_generators(den, nvars))


def random_form(rng, nvars):
    """All-ones, or small coefficients that include zeros, so that some scans fail."""
    if rng.random() < 0.3:
        return LinearForm.all_ones(nvars)
    coeffs = [rng.randint(-1, 2) for _ in range(nvars)]
    if not any(coeffs):
        coeffs[0] = 1
    return LinearForm(tuple(coeffs))


def test_pruned_scan_matches_oracle_on_seeded_modules():
    rng = random.Random(2024)
    failing = 0
    for case in range(150):
        nvars = 2 + case % 2
        module = random_module(rng, nvars)
        failing += assert_scans_agree([Summand(module, form=random_form(rng, nvars))])
    assert 10 <= failing <= 140


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_pruned_scan_matches_oracle_on_generated_modules(data):
    seed = data.draw(st.integers(0, 2**32 - 1))
    nvars = data.draw(st.integers(2, 3))
    rng = random.Random(seed)
    module = random_module(rng, nvars)
    assert_scans_agree([Summand(module, form=random_form(rng, nvars))])


def test_pruned_scan_matches_oracle_on_direct_sums():
    rng = random.Random(7)
    failing = 0
    for _ in range(40):
        nvars = rng.randint(2, 3)
        summands = [
            Summand(random_module(rng, nvars), shift=rng.randint(0, 3),
                    form=random_form(rng, nvars))
            for _ in range(rng.randint(2, 3))
        ]
        failing += assert_scans_agree(summands)
    assert failing


def test_pruned_scan_matches_oracle_on_sweep_corpora():
    modules = []
    for alpha, beta, a, b in _tensor_params(3):
        numerator = MonomialIdeal.from_generators([Monomial((alpha, 0)), Monomial((0, beta))])
        box = MonomialIdeal.from_generators([Monomial((a, 0)), Monomial((0, b))])
        base = QuotientModule(numerator, box)
        if tensor_slp_condition(alpha, beta, a, b) is not TensorCondition.NONE:
            modules.extend(base.tensor_truncation(c) for c in range(1, a + b + 1))
    modules.extend(algebra_quotient(type_two_ideal(*p)) for p in _type_two_params(3))
    assert len(modules) > 100
    for module in modules:
        assert_scans_agree([Summand(module)])


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 4),
    st.integers(0, 2**32 - 1),
    st.booleans(),
    st.lists(st.integers(-4, 4), min_size=4, max_size=4),
    st.booleans(),
)
def test_packed_assembly_matches_tuple_reference(nvars, seed, numerator, coeffs, negate):
    module = random_module(random.Random(seed), nvars)
    if not numerator:
        module = QuotientModule(MonomialIdeal.unit(nvars), module.denominator)
    coeffs = coeffs[:nvars] if any(coeffs[:nvars]) else [1] * nvars
    form = LinearForm(tuple(-abs(c) for c in coeffs) if negate else tuple(coeffs))
    top = module.top_degree_bound()
    # Degrees up to top + 1, so some sources and targets are empty.
    for i in range(top + 2):
        for d in range(1, top + 3 - i):
            packed = mult_matrix(module, form, d, i)
            reference = tuple_matrix_between(
                module.degree_basis(i), module.degree_basis(i + d), form.power_expansion(d)
            )
            assert packed == reference


def test_packed_assembly_handles_empty_bases():
    # (x)/(x^2, y^2): M_0 is empty, M_2 = <xy>, M_3 is empty
    module = QuotientModule(
        MonomialIdeal.from_generators([Monomial((1, 0))]),
        MonomialIdeal.from_generators([Monomial((2, 0)), Monomial((0, 2))]),
    )
    form = LinearForm((-1, 3))
    for d, i, shape in [(1, 0, (1, 0)), (2, 0, (1, 0)), (1, 2, (0, 1)), (1, 3, (0, 0))]:
        packed = mult_matrix(module, form, d, i)
        assert (packed.rows, packed.cols) == shape
        assert packed == tuple_matrix_between(
            module.degree_basis(i), module.degree_basis(i + d), form.power_expansion(d)
        )
    assert mult_matrix(module, form, 1, 1) == ExactMatrix.from_rows([[3]])


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_memoised_basis_matches_filtered_enumeration(data):
    nvars = data.draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(0, 3)] * nvars).map(Monomial)
    num = data.draw(st.lists(exps, max_size=3))
    caps = data.draw(st.lists(st.integers(1, 4), min_size=nvars, max_size=nvars))
    den = [variable_power(nvars, v, c) for v, c in enumerate(caps)]
    den += data.draw(st.lists(exps, max_size=3))
    module = QuotientModule(
        MonomialIdeal.from_generators(num, nvars) if num else MonomialIdeal.unit(nvars),
        MonomialIdeal.from_generators(den, nvars),
    )
    for d in range(8):
        # The first call builds the index, the second reads it.
        assert module.degree_basis(d) == filtered_basis(module, d)
        assert module.degree_basis(d) == filtered_basis(module, d)


def test_memoised_basis_is_not_shared_with_callers():
    module = algebra_quotient(MonomialIdeal.from_generators([Monomial((2, 0)), Monomial((0, 2))]))
    module.degree_basis(1).clear()
    assert module.degree_basis(1) == [Monomial((1, 0)), Monomial((0, 1))]


def test_pruned_scan_skips_implied_maps(monkeypatch):
    module = algebra_quotient(
        MonomialIdeal.from_generators([Monomial((4, 0, 0)), Monomial((0, 4, 0)), Monomial((0, 0, 4))])
    )
    ranked = []
    rank = ExactMatrix.rank
    rank_mod_p = ExactMatrix.rank_mod_p

    def counting_rank(matrix):
        ranked.append(matrix.rows)
        return rank(matrix)

    def counting_rank_mod_p(matrix):
        ranked.append(matrix.rows)
        return rank_mod_p(matrix)

    monkeypatch.setattr(ExactMatrix, "rank", counting_rank)
    monkeypatch.setattr(ExactMatrix, "rank_mod_p", counting_rank_mod_p)
    assert direct_sum_check([Summand(module)], property="SLP").holds
    pruned = len(ranked)
    ranked.clear()
    assert unpruned_failures([Summand(module)], only_d_one=False) == ()
    assert 0 < pruned < len(ranked) // 4
