import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from lefschetz import (
    ExactMatrix,
    binomial,
    check_slp,
    multinomial,
    parse_ideal,
)
from lefschetz.exact import CERTIFICATE_PRIME
from lefschetz.monomials import algebra_quotient


def permanent_style_determinant(matrix):
    """Leibniz expansion over permutations; exact oracle for small sizes."""
    n = matrix.rows
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = sign
        for i in range(n):
            term *= matrix.at(i, perm[i])
        total += term
    return total


def test_binomial_conventions():
    assert binomial(5, 2) == 10
    assert binomial(5, 0) == 1
    assert binomial(5, -1) == 0
    assert binomial(5, 6) == 0
    with pytest.raises(ValueError):
        binomial(-1, 0)


@given(st.integers(0, 30), st.integers(-2, 32))
def test_binomial_pascal_rule(n, k):
    assert binomial(n + 1, k) == binomial(n, k) + binomial(n, k - 1)


@given(st.integers(0, 20), st.integers(-2, 22))
def test_binomial_matches_math_comb(n, k):
    expected = math.comb(n, k) if 0 <= k <= n else 0
    assert binomial(n, k) == expected


def test_multinomial():
    assert multinomial(4, (2, 1, 1)) == 12
    assert multinomial(3, (3,)) == 1
    assert multinomial(3, (2, 2)) == 0
    assert multinomial(3, (4, -1)) == 0


@given(st.integers(0, 8), st.integers(1, 4))
def test_multinomial_row_sums(d, parts):
    total = 0
    for comp in itertools.product(range(d + 1), repeat=parts):
        if sum(comp) == d:
            total += multinomial(d, comp)
    assert total == parts**d


def identity(n):
    return ExactMatrix.from_rows([[int(i == j) for j in range(n)] for i in range(n)])


def transpose(matrix):
    return ExactMatrix.from_rows([list(c) for c in zip(*matrix.to_rows())])


def random_matrix(rng, rows, cols, lo=-9, hi=9):
    return ExactMatrix.from_rows(
        [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]
    )


def test_determinant_against_permutation_expansion():
    rng = random.Random(20260823)
    for n in range(1, 5):
        for _ in range(40):
            m = random_matrix(rng, n, n)
            assert m.determinant() == permanent_style_determinant(m)


def test_determinant_identity_and_singular():
    assert identity(4).determinant() == 1
    singular = ExactMatrix.from_rows([[1, 2], [2, 4]])
    assert singular.determinant() == 0
    assert singular.rank() == 1


def test_rank_small_cases():
    assert ExactMatrix.zeros(3, 2).rank() == 0
    assert identity(3).rank() == 3
    m = ExactMatrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert m.rank() == 2


small_matrices = st.integers(1, 5).flatmap(
    lambda r: st.integers(1, 5).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-50, 50), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


@settings(max_examples=120, deadline=None)
@given(small_matrices)
def test_rank_equals_transpose_rank(rows):
    m = ExactMatrix.from_rows(rows)
    assert m.rank() == transpose(m).rank()


@settings(max_examples=80, deadline=None)
@given(small_matrices, st.integers(1, 5))
def test_rank_invariant_under_row_scaling(rows, scale):
    m = ExactMatrix.from_rows(rows)
    scaled = ExactMatrix.from_rows([[scale * x for x in row] for row in m.to_rows()])
    assert scaled.rank() == m.rank()


@settings(max_examples=80, deadline=None)
@given(small_matrices, st.randoms(use_true_random=False))
def test_rank_invariant_under_row_permutation(rows, rng):
    m = ExactMatrix.from_rows(rows)
    shuffled = m.to_rows()
    rng.shuffle(shuffled)
    assert ExactMatrix.from_rows(shuffled).rank() == m.rank()


# Entries that are often multiples of the certificate prime, so that the
# rank mod p drops below the rational rank.
certificate_entries = st.one_of(
    st.integers(-50, 50),
    st.integers(-3, 3).map(lambda k: k * CERTIFICATE_PRIME),
    st.integers(-(2**40), 2**40),
)
certificate_matrices = st.integers(0, 6).flatmap(
    lambda r: st.integers(0, 6).flatmap(
        lambda c: st.lists(certificate_entries, min_size=r * c, max_size=r * c).map(
            lambda entries: ExactMatrix(r, c, tuple(entries))
        )
    )
)


@settings(max_examples=200, deadline=None)
@given(certificate_matrices)
def test_rank_mod_p_never_exceeds_rank(m):
    # hence a rank mod p of min(rows, cols) certifies maximal rank
    assert m.rank_mod_p() <= m.rank() <= min(m.rows, m.cols)
    assert m.rank_mod_p() == transpose(m).rank_mod_p()


def dense_rank_mod_p(matrix):
    """Reference: elimination mod p that rewrites each line's whole dense tail."""
    p = CERTIFICATE_PRIME
    rows, cols = matrix.rows, matrix.cols
    residues = [e % p for e in matrix.entries]
    if rows > cols:
        lines = [residues[j::cols] for j in range(cols)]
        width = rows
    else:
        lines = [residues[k * cols : (k + 1) * cols] for k in range(rows)]
        width = cols
    rank = 0
    for col in range(width):
        for k, line in enumerate(lines):
            if line[col]:
                break
        else:
            continue
        pivot = lines.pop(k)
        inverse = pow(pivot[col], -1, p)
        tail = [e * inverse % p for e in pivot[col:]]
        for line in lines:
            factor = line[col]
            if factor:
                line[col:] = [(a - factor * b) % p for a, b in zip(line[col:], tail)]
        rank += 1
        if not lines:
            break
    return rank


# Mostly zero entries, many of them multiples of the certificate prime, as
# in the scan's multiplication maps.
sparse_entries = st.one_of(
    st.just(0),
    st.just(0),
    st.just(0),
    st.integers(-3, 3).map(lambda k: k * CERTIFICATE_PRIME),
    st.integers(-5, 5),
    st.integers(-(2**20), 2**20),
)
sparse_matrices = st.integers(0, 12).flatmap(
    lambda r: st.integers(0, 12).flatmap(
        lambda c: st.lists(sparse_entries, min_size=r * c, max_size=r * c).map(
            lambda entries: ExactMatrix(r, c, tuple(entries))
        )
    )
)


@settings(max_examples=150, deadline=None)
@given(sparse_matrices)
def test_rank_mod_p_matches_dense_elimination(m):
    assert m.rank_mod_p() == dense_rank_mod_p(m)


def test_rank_mod_p_matches_dense_elimination_on_scanned_maps(monkeypatch):
    ranked = []
    kernel = ExactMatrix.rank_mod_p

    def recording(matrix):
        ranked.append(matrix)
        return kernel(matrix)

    monkeypatch.setattr(ExactMatrix, "rank_mod_p", recording)
    modules = [
        algebra_quotient(parse_ideal(f"x^{n}, y^{n}, z^{n}")) for n in range(3, 7)
    ]
    # a corner-cut box in four variables, as in the check_large workload
    modules.append(
        algebra_quotient(parse_ideal("x^4, y^4, z^4, t^3, x^3*y^3, y^3*z^3"))
    )
    for module in modules:
        check_slp(module)
    monkeypatch.undo()
    assert ranked
    for m in ranked:
        assert m.rank_mod_p() == dense_rank_mod_p(m)


def test_rank_mod_p_small_cases():
    p = CERTIFICATE_PRIME
    assert ExactMatrix.zeros(0, 3).rank_mod_p() == 0
    assert ExactMatrix.zeros(3, 0).rank_mod_p() == 0
    assert identity(4).rank_mod_p() == 4
    assert ExactMatrix.from_rows([[p, 2 * p], [-p, 5 * p]]).rank_mod_p() == 0
    assert ExactMatrix.from_rows([[1, 0], [0, p]]).rank_mod_p() == 1
    assert ExactMatrix.from_rows([[1, 0], [0, p]]).rank() == 2
    # det = p: singular mod p, regular over the rationals
    assert ExactMatrix.from_rows([[1, 1], [1, 1 + p]]).rank_mod_p() == 1
    m = ExactMatrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9], [1, 0, 1]])
    assert m.rank_mod_p() == m.rank() == 3


def test_apply():
    m = ExactMatrix.from_rows([[1, 2], [3, 4], [5, 6]])
    assert m.apply([1, -1]) == [-1, -1, -1]


def test_block_diagonal_rank_is_additive():
    rng = random.Random(7)
    blocks = [random_matrix(rng, r, c) for r, c in [(2, 3), (3, 3), (1, 2)]]
    combined = ExactMatrix.block_diagonal(blocks)
    assert combined.rows == 6 and combined.cols == 8
    assert combined.rank() == sum(b.rank() for b in blocks)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        ExactMatrix.from_rows([[1, 2], [3]])
    with pytest.raises(ValueError):
        ExactMatrix.from_rows([[1, 2], [3, 4]]).apply([1])
    with pytest.raises(ValueError):
        ExactMatrix.from_rows([[1, 2]]).determinant()
