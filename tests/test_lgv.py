import itertools
import random
import tracemalloc

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
    run_pipeline,
)
from lefschetz import lgv
from lefschetz.exact import ExactMatrix
from lefschetz.lgv import ENUMERATION_CAP, _VERTEX_RADIX, _path_masks
from lefschetz.monomials import algebra_quotient
from lefschetz.sweeps import _lgv_sequences, staircase_ideal, sweep_pipeline
from test_sweeps import staircases


def clear_lgv_caches():
    for value in vars(lgv).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()


def monotone_paths(start, end):
    """All East/North lattice paths between two points, as vertex frozensets,
    East steps before North ones."""
    if end[0] < start[0] or end[1] < start[1]:
        return ()
    paths = []

    def walk(x, y, visited):
        if (x, y) == end:
            paths.append(frozenset(visited))
            return
        if x < end[0]:
            walk(x + 1, y, visited + [(x + 1, y)])
        if y < end[1]:
            walk(x, y + 1, visited + [(x, y + 1)])

    walk(start[0], start[1], [start])
    return tuple(paths)


def restrict_rows(labeled, ideal):
    """Step-by-step reference: keep the rows whose label monomial lies in the ideal."""
    return labeled.take_rows(
        [n for n, m in enumerate(labeled.row_labels) if ideal.contains(m)]
    )


def frozenset_count_nonintersecting(a, b):
    """Reference oracle: paths as vertex frozensets, disjoint when they share no vertex."""
    per_path = [monotone_paths((-bj, bj), (0, aj)) for aj, bj in zip(a, b)]

    def count(j, used):
        if j == len(per_path):
            return 1
        return sum(
            count(j + 1, used | verts) for verts in per_path[j] if used.isdisjoint(verts)
        )

    return count(0, frozenset())


ascending = st.lists(st.integers(0, 6), min_size=1, max_size=3, unique=True).map(
    lambda xs: tuple(sorted(xs))
)


def test_binomial_matrix_values():
    m = binomial_matrix((2, 4), (1, 3))
    assert m.to_rows() == [[2, 0], [4, 4]]
    # b_j < 0 and b_j > a_i give 0, as exact.binomial does
    for m in range(1, 4):
        for a in itertools.combinations(range(0, 7), m):
            for b in itertools.combinations(range(-3, 9), m):
                entries = binomial_matrix(a, b).entries
                assert entries == tuple(binomial(ai, bj) for ai in a for bj in b)


def test_validation_rejects_bad_sequences():
    # each public entry point validates on its own, with the same messages
    for check in (binomial_matrix, count_nonintersecting, lgv_positivity):
        with pytest.raises(ValueError, match="strictly ascending"):
            check((2, 1), (0, 1))
        with pytest.raises(ValueError, match="strictly ascending"):
            check((1, 2), (1, 1))
        with pytest.raises(ValueError, match="strictly ascending"):
            check((1, 2, 2), (0, 1, 2))
        with pytest.raises(ValueError, match="equal positive length"):
            check((1, 2), (0,))
        with pytest.raises(ValueError, match="equal positive length"):
            check((), ())
        with pytest.raises(ValueError, match="a-sequence must be nonnegative"):
            check((-1, 2), (0, 1))
        with pytest.raises(ValueError, match="a-sequence must be nonnegative"):
            check((-1,), (0,))


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


def test_bitmask_oracle_matches_frozenset_oracle():
    pairs = list(_lgv_sequences(6, 3))
    assert len(pairs) == 1715
    for a, b in pairs:
        assert count_nonintersecting(a, b) == frozenset_count_nonintersecting(a, b)


@pytest.mark.parametrize(
    "a, b",
    [
        ((0, 24), (0, 24)),  # sum(a) at the cap; the corners (0, 0) and (-24, 24)
        ((24,), (1,)),
        ((11, 13), (1, 2)),
        ((3, 4, 5, 12), (0, 1, 2, 3)),
        ((1, 3), (2, 3)),  # b_0 > a_0: no path joins start 0 to end 0
        ((2,), (3,)),
        ((5,), (5,)),  # a single path
        ((0,), (0,)),
        ((1, 2, 5), (0, 3, 4)),  # no path for the middle pair
    ],
)
def test_bitmask_oracle_edge_cases(a, b):
    count = count_nonintersecting(a, b)
    assert count == frozenset_count_nonintersecting(a, b)
    assert count == binomial_matrix(a, b).determinant()


def test_last_level_is_counted_not_stored():
    # 198,198 families: storing the last level would take megabytes
    tracemalloc.start()
    try:
        count = count_nonintersecting((11, 13), (5, 6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 198198 == binomial_matrix((11, 13), (5, 6)).determinant()
    assert peak < 1 << 20


def test_vertex_bits_are_injective_under_the_cap():
    box = [(x, y) for x in range(-ENUMERATION_CAP, 1) for y in range(ENUMERATION_CAP + 1)]
    masks = [_path_masks(v, v) for v in box]
    assert all(len(m) == 1 and m[0].bit_count() == 1 for m in masks)
    assert len({m[0] for m in masks}) == len(box)


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
                # the transposed matrix
                assert labeled.matrix.to_rows() == [list(c) for c in zip(*direct.to_rows())]
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
            direct = mult_matrix(module, ell, d, i)
            in_ideal = [
                c for c, m in enumerate(restricted.col_labels) if ideal.contains(m)
            ]
            for r in range(restricted.matrix.rows):
                kept = [restricted.matrix.at(r, c) for c in in_ideal]
                assert kept == [direct.at(k, r) for k in range(direct.rows)]
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
    # Cold caches and boxes in reverse: many results are tails cached for
    # another staircase that keeps the same rows.
    clear_lgv_caches()
    for a, b in reversed(list(itertools.product(range(1, 5), repeat=2))):
        for ideal in staircases(a, b):
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
    masks = _path_masks((-2, 2), (0, 4))
    assert isinstance(masks, tuple)
    assert len(masks) == binomial(4, 2)
    assert _path_masks((-2, 2), (0, 4)) is masks
    assert _path_masks((0, 3), (0, 1)) == ()
    assert _path_masks((0, 0), (-1, 2)) == ()
    # The bitmask walk and the frozenset walk give the same paths, in order.
    for start, end in [((-2, 2), (0, 4)), ((0, 0), (0, 3)), ((-3, 0), (0, 0)),
                       ((-4, 4), (0, 6)), ((-1, 1), (-1, 1))]:
        bits = tuple(
            sum(1 << (y * _VERTEX_RADIX - x) for x, y in verts)
            for verts in monotone_paths(start, end)
        )
        assert _path_masks(start, end) == bits


def test_sweep_ranks_each_distinct_pipeline_input_once(monkeypatch):
    keys = set()
    for a in range(2, 5):
        for b in range(2, 5):
            for ideal in staircases(a, b):
                for i in range(1, a + b - 2):
                    labels = [Monomial((i - j, j)) for j in range(i + 1) if i - j < a and j < b]
                    kept = tuple(n for n, m in enumerate(labels) if ideal.contains(m))
                    for d in range(1, a + b - 1 - i):
                        keys.add((a, b, i, d, kept))
    ranked = []
    rank = ExactMatrix.rank

    def spy(self):
        ranked.append(self)
        return rank(self)

    clear_lgv_caches()
    monkeypatch.setattr(ExactMatrix, "rank", spy)
    assert sweep_pipeline(amax=4, bmax=4)["ok"]
    assert len(ranked) == len(keys) == 348
    # a second sweep finds every tail cached
    assert sweep_pipeline(amax=4, bmax=4)["ok"]
    assert len(ranked) == len(keys)


def test_run_pipeline_rejects_bad_maps_before_membership(monkeypatch):
    ideal = staircase_ideal(3, 3, (2, 1, 0))
    tested = []
    contains = MonomialIdeal.contains
    rows = lgv.staircase_rows

    def spy(self, m):
        tested.append(m)
        return contains(self, m)

    def rows_spy(*args):
        tested.append(args)
        return rows(*args)

    monkeypatch.setattr(MonomialIdeal, "contains", spy)
    monkeypatch.setattr(lgv, "staircase_rows", rows_spy)
    for a, b, i, d in [(3, 3, 2, 3), (3, 3, 0, 1), (3, 3, 1, 0), (0, 3, 1, 1)]:
        # asked twice, since no cache keeps an exception
        for _ in range(2):
            with pytest.raises(ValueError):
                run_pipeline(a, b, ideal, i, d)
    assert tested == []
    with pytest.raises(ValueError, match="mixed ambient rings"):
        run_pipeline(3, 3, MonomialIdeal.unit(3), 1, 1)
    assert tested == []


def membership_pipeline(a, b, ideal, i, d):
    """Reference: the rows of cl_matrix whose label lies in the ideal, by
    membership, through the same certificate chain."""
    labels = cl_matrix(a, b, i, d).row_labels
    if ideal.nvars != 2:
        raise ValueError("mixed ambient rings")
    return lgv.certify_rows(
        a, b, i, d, tuple(n for n, m in enumerate(labels) if ideal.contains(m))
    )


def outcome(run, *args):
    try:
        return run(*args)
    except ValueError as error:
        return ("ValueError", str(error))


def test_run_pipeline_matches_membership_on_random_ideals():
    # Seeded two-variable ideals with generators inside and outside the box,
    # the zero and unit ideals, a three-variable ideal, and maps both valid
    # and invalid: the heights rule gives the same result or the same error.
    rng = random.Random(20261021)
    ideals = [MonomialIdeal.zero(2), MonomialIdeal.unit(2), MonomialIdeal.unit(3),
              MonomialIdeal.from_generators([Monomial((1, 1, 1))], nvars=3)]
    for _ in range(400):
        gens = [Monomial((rng.randint(0, 8), rng.randint(0, 8)))
                for _ in range(rng.randint(1, 5))]
        ideals.append(MonomialIdeal.from_generators(gens, nvars=2))
    checked = 0
    for ideal in ideals:
        a, b = rng.randint(0, 6), rng.randint(0, 6)
        for i in range(-1, a + b):
            for d in range(0, a + b - i):
                expected = outcome(membership_pipeline, a, b, ideal, i, d)
                got = outcome(run_pipeline, a, b, ideal, i, d)
                assert got == expected, (a, b, str(ideal), i, d)
                checked += not isinstance(got, tuple)
    assert checked > 1000
