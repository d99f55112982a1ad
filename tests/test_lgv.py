import itertools

import pytest
from hypothesis import given, settings, strategies as st

from lefschetz import (
    LinearForm,
    Monomial,
    MonomialIdeal,
    PathSign,
    QuotientModule,
    binomial,
    binomial_matrix,
    cl_matrix,
    count_nonintersecting,
    lgv_positivity,
    lgv_rank_certificate,
    mult_matrix,
    pascal_column_transform,
    restrict_rows,
    run_pipeline,
)
from lefschetz.exact import ExactMatrix
from lefschetz.lgv import ENUMERATION_CAP, _monotone_paths
from lefschetz.monomials import algebra_quotient
from lefschetz.sweeps import staircase_ideal, staircase_ideals


ascending = st.lists(st.integers(0, 6), min_size=1, max_size=3, unique=True).map(
    lambda xs: tuple(sorted(xs))
)


def test_binomial_matrix_values():
    m = binomial_matrix((2, 4), (1, 3))
    assert m.to_rows() == [[2, 0], [4, 4]]


def test_validation_rejects_bad_sequences():
    with pytest.raises(ValueError):
        binomial_matrix((2, 1), (0, 1))
    with pytest.raises(ValueError):
        binomial_matrix((1, 2), (0,))
    with pytest.raises(ValueError):
        binomial_matrix((), ())
    with pytest.raises(ValueError):
        binomial_matrix((-1, 2), (0, 1))


@settings(max_examples=60, deadline=None)
@given(ascending, ascending)
def test_determinant_counts_nonintersecting_families(a, b):
    if len(a) != len(b) or sum(a) > ENUMERATION_CAP:
        return
    det = binomial_matrix(a, b).determinant()
    assert det == count_nonintersecting(a, b)
    assert det >= 0


def test_positivity_matches_diagonal_test():
    assert lgv_positivity((1, 3), (0, 2)) is PathSign.POSITIVE
    assert lgv_positivity((1, 3), (2, 4)) is PathSign.ZERO
    assert lgv_positivity((0, 1, 2), (0, 1, 2)) is PathSign.POSITIVE


def test_enumeration_cap_enforced():
    with pytest.raises(ValueError):
        count_nonintersecting((25,), (0,))


def test_cl_matrix_is_transposed_multiplication():
    for a, b in [(3, 4), (4, 4), (2, 5)]:
        ambient = algebra_quotient(
            MonomialIdeal.from_generators([Monomial((a, 0)), Monomial((0, b))])
        )
        ell = LinearForm.all_ones(2)
        for i in range(1, a + b - 2):
            for d in range(1, a + b - 2 - i + 1):
                labeled = cl_matrix(a, b, i, d)
                direct = mult_matrix(ambient, ell, d, i)
                assert labeled.matrix == direct.transpose()
                assert list(labeled.row_labels) == ambient.degree_basis(i)
                assert list(labeled.col_labels) == ambient.degree_basis(i + d)


def test_cl_matrix_validation():
    with pytest.raises(ValueError):
        cl_matrix(3, 3, 0, 1)
    with pytest.raises(ValueError):
        cl_matrix(3, 3, 2, 3)
    with pytest.raises(ValueError):
        cl_matrix(3, 3, 1, 0)
    # empty boxes; asked twice, since the cache must not swallow the error
    for a, b in [(0, 5), (-2, 5), (5, 0), (3, -1)]:
        for _ in range(2):
            with pytest.raises(ValueError):
                cl_matrix(a, b, 1, 1)


def test_restrict_rows_matches_module_matrix():
    a, b = 4, 4
    ideal = staircase_ideal(a, b, (3, 2, 2, 0))
    box = MonomialIdeal.from_generators([Monomial((a, 0)), Monomial((0, b))])
    module = QuotientModule(ideal, box)
    ell = LinearForm.all_ones(2)
    for i in range(1, a + b - 2):
        for d in range(1, a + b - 2 - i + 1):
            restricted = restrict_rows(cl_matrix(a, b, i, d), ideal)
            assert list(restricted.row_labels) == module.degree_basis(i)
            direct = mult_matrix(module, ell, d, i).transpose()
            in_ideal = [
                c for c, m in enumerate(restricted.col_labels) if ideal.contains(m)
            ]
            for r in range(restricted.matrix.rows):
                kept = [restricted.matrix.at(r, c) for c in in_ideal]
                assert kept == list(direct.row(r))
                # multiples of an ideal member stay in the ideal
                for c, m in enumerate(restricted.col_labels):
                    if c not in in_ideal:
                        assert restricted.matrix.at(r, c) == 0


def test_pascal_transform_closed_form_on_window_rows():
    for d in range(1, 7):
        for c in range(1, d + 2):
            for k in range(-1, d):
                row = [[binomial(d, k + j) for j in range(c)]]
                out = pascal_column_transform(ExactMatrix.from_rows(row))
                expected = [binomial(d + c - j, k + c - 1) for j in range(1, c + 1)]
                assert out.to_rows() == [expected]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda r: st.integers(1, 4).flatmap(
            lambda c: st.lists(
                st.lists(st.integers(-9, 9), min_size=c, max_size=c),
                min_size=r,
                max_size=r,
            )
        )
    )
)
def test_pascal_transform_preserves_rank(rows):
    m = ExactMatrix.from_rows(rows)
    assert pascal_column_transform(m).rank() == m.rank()


def test_rank_certificate_on_binomial_diagonal():
    m = binomial_matrix((1, 3, 5), (0, 2, 4))
    assert lgv_rank_certificate(m)
    zero_diag = ExactMatrix.from_rows([[0, 1], [1, 0]])
    assert not lgv_rank_certificate(zero_diag)


def test_run_pipeline_agrees_with_elimination():
    for a, b in itertools.product(range(1, 5), repeat=2):
        for ideal in staircase_ideals(a, b):
            for i in range(1, a + b - 2):
                for d in range(1, a + b - 2 - i + 1):
                    result = run_pipeline(a, b, ideal, i, d)
                    restricted = result.restricted.matrix
                    assert result.maximal == (
                        result.rank == min(restricted.rows, restricted.cols)
                    )
                    assert result.rank == restricted.rank()
                    if result.certificate:
                        assert result.maximal
                    # offsets strictly decrease down the rows
                    assert all(
                        k1 > k2 for k1, k2 in zip(result.offsets, result.offsets[1:])
                    )
                    # the cached pieces agree with the step-by-step chain
                    trimmed = cl_matrix(a, b, i, d)
                    assert result.restricted == restrict_rows(trimmed, ideal)
                    assert result.transformed == pascal_column_transform(restricted)
                    assert run_pipeline(a, b, ideal, i, d) == result


def test_monotone_paths_are_immutable():
    paths = _monotone_paths((-2, 2), (0, 4))
    assert isinstance(paths, tuple)
    assert len(paths) == binomial(4, 2)
    assert _monotone_paths((-2, 2), (0, 4)) is paths
    assert _monotone_paths((0, 3), (0, 1)) == ()
