"""Non-intersecting lattice paths and the binomial-matrix rank certificate.

The path model: path j runs from (-b_j, b_j) to (0, a_j) with unit East and
North steps, so the number of monotone paths between start j and end i is
binomial(a_i, b_j).  Non-intersecting means vertex-disjoint.  With both
endpoint sequences strictly ascending, only the identity endpoint matching
admits non-intersecting families, so their count equals the determinant of
the binomial matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Sequence

from .exact import ExactMatrix, binomial
from .monomials import Monomial, MonomialIdeal

ENUMERATION_CAP = 24
# Bounds of the caches of pure integer functions below.  The boxes of side
# at most 6 have 465 (a, b, i, d) quadruples between them, and a path set
# is keyed by its two endpoints.
MATRIX_CACHE_SIZE = 4096
PATH_CACHE_SIZE = 1024


class PathSign(Enum):
    POSITIVE = "positive"
    ZERO = "zero"


def _validate_sequences(a: Sequence[int], b: Sequence[int]) -> None:
    if len(a) != len(b) or not a:
        raise ValueError("sequences must have equal positive length")
    if any(x >= y for x, y in zip(a, a[1:])) or any(
        x >= y for x, y in zip(b, b[1:])
    ):
        raise ValueError("sequences must be strictly ascending")
    if any(x < 0 for x in a):
        raise ValueError("the a-sequence must be nonnegative")


def binomial_matrix(a: Sequence[int], b: Sequence[int]) -> ExactMatrix:
    """The matrix with entry (i, j) = binomial(a_i, b_j)."""
    _validate_sequences(a, b)
    return ExactMatrix.from_rows([[binomial(ai, bj) for bj in b] for ai in a])


def lgv_positivity(a: Sequence[int], b: Sequence[int]) -> PathSign:
    """Positivity of det(binomial_matrix): positive iff 0 <= b_i <= a_i for all i.

    The verdict is cross-checked against the sign of the exact determinant,
    which can never be negative for ascending sequences.
    """
    _validate_sequences(a, b)
    predicted_positive = all(0 <= bi <= ai for ai, bi in zip(a, b))
    det = binomial_matrix(a, b).determinant()
    if det < 0:
        raise RuntimeError(f"negative determinant {det} contradicts nonnegativity")
    if (det > 0) != predicted_positive:
        raise RuntimeError("diagonal test disagrees with the determinant sign")
    return PathSign.POSITIVE if predicted_positive else PathSign.ZERO


@lru_cache(maxsize=PATH_CACHE_SIZE)
def _monotone_paths(
    start: tuple[int, int], end: tuple[int, int]
) -> tuple[frozenset, ...]:
    """All East/North lattice paths between two points, as vertex sets.

    Cached per endpoint pair; the result is a tuple so no caller can
    change a cached value.
    """
    east = end[0] - start[0]
    north = end[1] - start[1]
    if east < 0 or north < 0:
        return ()
    paths: list[frozenset] = []

    def walk(x: int, y: int, visited: list[tuple[int, int]]) -> None:
        if (x, y) == end:
            paths.append(frozenset(visited))
            return
        if x < end[0]:
            walk(x + 1, y, visited + [(x + 1, y)])
        if y < end[1]:
            walk(x, y + 1, visited + [(x, y + 1)])

    walk(start[0], start[1], [start])
    return tuple(paths)


def count_nonintersecting(a: Sequence[int], b: Sequence[int]) -> int:
    """Count families of pairwise vertex-disjoint paths, path j from
    (-b_j, b_j) to (0, a_j), by exhaustive enumeration."""
    _validate_sequences(a, b)
    if any(bi < 0 for bi in b):
        raise ValueError("the b-sequence must be nonnegative for path counting")
    if sum(a) > ENUMERATION_CAP:
        raise ValueError(f"total path length exceeds the enumeration cap {ENUMERATION_CAP}")
    per_path = [_monotone_paths((-bj, bj), (0, aj)) for aj, bj in zip(a, b)]

    def count(j: int, used: frozenset) -> int:
        if j == len(per_path):
            return 1
        total = 0
        for verts in per_path[j]:
            if used.isdisjoint(verts):
                total += count(j + 1, used | verts)
        return total

    return count(0, frozenset())


def _take_rows(matrix: ExactMatrix, kept: Sequence[int]) -> ExactMatrix:
    """The rows ``kept`` of ``matrix``, in that order."""
    return ExactMatrix(
        len(kept), matrix.cols, tuple(e for n in kept for e in matrix.row(n))
    )


@dataclass(frozen=True)
class LabeledMatrix:
    """An exact matrix with monomial row and column labels."""

    matrix: ExactMatrix
    row_labels: tuple[Monomial, ...]
    col_labels: tuple[Monomial, ...]

    def take_rows(self, kept: Sequence[int]) -> "LabeledMatrix":
        """The rows ``kept``, in that order, with their labels."""
        return LabeledMatrix(
            matrix=_take_rows(self.matrix, kept),
            row_labels=tuple(self.row_labels[n] for n in kept),
            col_labels=self.col_labels,
        )


class PipelineInvariantError(RuntimeError):
    """A structural invariant of the rank-certificate pipeline failed."""


@lru_cache(maxsize=MATRIX_CACHE_SIZE)
def cl_matrix(a: int, b: int, i: int, d: int) -> LabeledMatrix:
    """Transposed matrix of (times (x+y)^d): [S/J]_i -> [S/J]_{i+d}, J = (x^a, y^b).

    Rows are labeled by the degree-i monomials outside J (x-heavy first);
    columns by the degree-(i+d) monomials that survive trimming
    m1 = max(i+d-a+1, 0) columns on the left and m2 = max(i+d-b+1, 0) on
    the right.  Entry (row x^(i-j) y^j, column x^(i+d-m) y^m) is
    binomial(d, m-j).  The matrix depends on the box alone, so it is
    computed once per (a, b, i, d) and shared by every ideal in the box.
    """
    if a < 1 or b < 1:
        raise ValueError("box exponents a and b must be at least 1")
    if d < 1:
        raise ValueError("power must be at least 1")
    if not 0 < i or not i + d <= a + b - 2:
        raise ValueError("degrees must satisfy 0 < i and i + d <= a + b - 2")
    m1 = max(i + d - a + 1, 0)
    m2 = max(i + d - b + 1, 0)
    row_js = [j for j in range(i + 1) if i - j < a and j < b]
    col_ms = list(range(m1, i + d - m2 + 1))
    rows = [[binomial(d, m - j) for m in col_ms] for j in row_js]
    return LabeledMatrix(
        matrix=ExactMatrix.from_rows(rows),
        row_labels=tuple(Monomial((i - j, j)) for j in row_js),
        col_labels=tuple(Monomial((i + d - m, m)) for m in col_ms),
    )


def _rows_in_ideal(labeled: LabeledMatrix, ideal: MonomialIdeal) -> list[int]:
    return [n for n, m in enumerate(labeled.row_labels) if ideal.contains(m)]


def restrict_rows(labeled: LabeledMatrix, ideal: MonomialIdeal) -> LabeledMatrix:
    """Keep only the rows whose label monomial lies in the ideal."""
    return labeled.take_rows(_rows_in_ideal(labeled, ideal))


def pascal_column_transform(matrix: ExactMatrix) -> ExactMatrix:
    """Accumulate columns right-to-left via Pascal's rule.

    Adds the second column to the first, then the third to the second and
    the second to the first, and so on starting from each later column.  On
    rows of the sliding-window form [C(d,k) ... C(d,k+c-1)] this yields
    entries C(d+c-j, k+c-1), and the rank is unchanged.
    """
    cols = [
        [matrix.at(i, j) for i in range(matrix.rows)] for j in range(matrix.cols)
    ]
    for start in range(1, len(cols)):
        for j in range(start, 0, -1):
            cols[j - 1] = [x + y for x, y in zip(cols[j - 1], cols[j])]
    return ExactMatrix.from_rows(
        [[cols[j][i] for j in range(matrix.cols)] for i in range(matrix.rows)]
    ) if matrix.rows else ExactMatrix.zeros(0, matrix.cols)


def lgv_rank_certificate(bprime: ExactMatrix) -> bool:
    """Maximal-rank certificate: nonzero main diagonal of the leading
    maximal square submatrix.

    After reversing rows and columns that submatrix is an ascending
    binomial matrix, so a nonzero diagonal makes its determinant positive
    and certifies rank min(rows, cols).
    """
    m = min(bprime.rows, bprime.cols)
    return all(bprime.at(n, n) != 0 for n in range(m))


@lru_cache(maxsize=MATRIX_CACHE_SIZE)
def _transformed_cl_matrix(a: int, b: int, i: int, d: int) -> ExactMatrix:
    """The Pascal column transform of the whole trimmed matrix."""
    return pascal_column_transform(cl_matrix(a, b, i, d).matrix)


@dataclass(frozen=True)
class PipelineResult:
    trimmed: LabeledMatrix
    restricted: LabeledMatrix
    transformed: ExactMatrix
    offsets: tuple[int, ...]
    certificate: bool
    rank: int
    maximal: bool


def run_pipeline(
    a: int, b: int, ideal: MonomialIdeal, i: int, d: int
) -> PipelineResult:
    """Full certificate chain for (times (x+y)^d): M_i -> M_{i+d},
    M = (I + (x^a, y^b))/(x^a, y^b).

    The trimmed matrix and its Pascal transform depend on (a, b, i, d)
    only; the ideal picks which rows survive.  Column operations act on
    each row alone, so the rows of the cached transform are the transform
    of the restricted matrix.  Its rank is still found by elimination.
    """
    trimmed = cl_matrix(a, b, i, d)
    kept = _rows_in_ideal(trimmed, ideal)
    restricted = trimmed.take_rows(kept)
    m1 = max(i + d - a + 1, 0)
    offsets = tuple(m1 - label.exponents[1] for label in restricted.row_labels)
    cols = restricted.matrix.cols
    for k in offsets:
        if k > d or k + cols - 1 < 0:
            raise PipelineInvariantError(
                f"row offset {k} violates 0 <= k + c - 1 and k <= d "
                f"(a={a}, b={b}, i={i}, d={d})"
            )
    if any(k1 <= k2 for k1, k2 in zip(offsets, offsets[1:])):
        raise PipelineInvariantError("row offsets are not strictly decreasing")
    transformed = _take_rows(_transformed_cl_matrix(a, b, i, d), kept)
    certificate = lgv_rank_certificate(transformed)
    rank = restricted.matrix.rank()
    maximal = rank == min(restricted.matrix.rows, restricted.matrix.cols)
    return PipelineResult(
        trimmed=trimmed,
        restricted=restricted,
        transformed=transformed,
        offsets=offsets,
        certificate=certificate,
        rank=rank,
        maximal=maximal,
    )
