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
from math import comb
from operator import lt
from typing import Sequence

from .exact import ExactMatrix, binomial
from .monomials import Monomial, MonomialIdeal

ENUMERATION_CAP = 24
# Bounds of the caches below.  The boxes of side at most 6 have 465
# (a, b, i, d) quadruples between them, and a path set is keyed by its two
# endpoints.  Their staircases give 4,340 distinct (a, b, i, d, kept rows)
# pipeline inputs, so a sweep of those boxes never evicts an entry it will
# ask for again.
MATRIX_CACHE_SIZE = 4096
PATH_CACHE_SIZE = 1024
PIPELINE_CACHE_SIZE = 8192
# Path vertices are bits of one integer: (x, y) is bit y * radix - x.  A
# vertex of a counted path has -cap <= x <= 0 <= y <= cap, so the map is
# injective there.
_VERTEX_RADIX = ENUMERATION_CAP + 1


class PathSign(Enum):
    POSITIVE = "positive"
    ZERO = "zero"


def _validate_sequences(a: Sequence[int], b: Sequence[int]) -> None:
    if len(a) != len(b) or not a:
        raise ValueError("sequences must have equal positive length")
    if not (all(map(lt, a, a[1:])) and all(map(lt, b, b[1:]))):
        raise ValueError("sequences must be strictly ascending")
    # a is ascending, so its first entry is its least
    if a[0] < 0:
        raise ValueError("the a-sequence must be nonnegative")


def binomial_matrix(a: Sequence[int], b: Sequence[int]) -> ExactMatrix:
    """The matrix with entry (i, j) = binomial(a_i, b_j), zero unless 0 <= b_j <= a_i."""
    _validate_sequences(a, b)
    return ExactMatrix(
        len(a), len(b), tuple(comb(ai, bj) if bj >= 0 else 0 for ai in a for bj in b)
    )


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


def _window_rank(sources: Sequence[int], targets: Sequence[int], lo: int, hi: int) -> int:
    """Rank of a map whose entry (m, j) is nonzero exactly when lo <= m - j <= hi.

    ``sources`` and ``targets`` are ascending y-exponents of two bases.  On
    k[x, y] the map (times (ax + by)^d) has entry a^(d-k) b^k C(d, k),
    k = m - j, with window (0, d), or (0, 0) if b = 0 and (d, d) if a = 0.
    By Lindstrom-Gessel-Viennot its ordered minors count non-intersecting
    path families, so the rank is the largest matching of sources to
    targets in the window (see the README), which the greedy one finds.
    """
    rank = t = 0
    for j in sources:
        # a target below j + lo is below the window of every later source too
        while t < len(targets) and targets[t] < j + lo:
            t += 1
        if t < len(targets) and targets[t] <= j + hi:
            rank += 1
            t += 1
    return rank


@lru_cache(maxsize=PATH_CACHE_SIZE)
def _path_masks(start: tuple[int, int], end: tuple[int, int]) -> tuple[int, ...]:
    """All East/North lattice paths between two points, as vertex bitmasks.

    East steps are tried before North ones.  Cached per endpoint pair; the
    result is a tuple so no caller can change a cached value.
    """
    end_x, end_y = end
    if end_x < start[0] or end_y < start[1]:
        return ()
    masks: list[int] = []

    def walk(x: int, y: int, mask: int) -> None:
        if x == end_x and y == end_y:
            masks.append(mask)
            return
        if x < end_x:
            walk(x + 1, y, mask | 1 << (y * _VERTEX_RADIX - (x + 1)))
        if y < end_y:
            walk(x, y + 1, mask | 1 << ((y + 1) * _VERTEX_RADIX - x))

    walk(start[0], start[1], 1 << (start[1] * _VERTEX_RADIX - start[0]))
    return tuple(masks)


def count_nonintersecting(a: Sequence[int], b: Sequence[int]) -> int:
    """Count families of pairwise vertex-disjoint paths, path j from
    (-b_j, b_j) to (0, a_j), by exhaustive enumeration.

    Two paths are disjoint when their vertex bitmasks share no bit.  The
    families are built path by path as unions of masks, so every family is
    visited; those of the last path are counted, not stored.
    """
    _validate_sequences(a, b)
    if any(bi < 0 for bi in b):
        raise ValueError("the b-sequence must be nonnegative for path counting")
    if sum(a) > ENUMERATION_CAP:
        raise ValueError(f"total path length exceeds the enumeration cap {ENUMERATION_CAP}")
    per_path = [_path_masks((-bj, bj), (0, aj)) for aj, bj in zip(a, b)]
    if not all(per_path):
        return 0
    *heads, last = per_path
    families = [0]
    for paths in heads:
        families = [used | mask for used in families for mask in paths if not used & mask]
    return sum(1 for used in families for mask in last if not used & mask)


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


def _check_map(a: int, b: int, i: int, d: int) -> None:
    if a < 1 or b < 1:
        raise ValueError("box exponents a and b must be at least 1")
    if d < 1:
        raise ValueError("power must be at least 1")
    if not 0 < i or not i + d <= a + b - 2:
        raise ValueError("degrees must satisfy 0 < i and i + d <= a + b - 2")


@lru_cache(maxsize=MATRIX_CACHE_SIZE)
def cl_matrix(a: int, b: int, i: int, d: int) -> LabeledMatrix:
    """Transposed matrix of (times (x+y)^d): [S/J]_i -> [S/J]_{i+d}, J = (x^a, y^b).

    Rows are labeled by the degree-i monomials outside J, x-heavy first
    (see :func:`staircase_rows`); columns by the degree-(i+d) monomials
    that survive trimming m1 = max(i+d-a+1, 0) columns on the left and
    m2 = max(i+d-b+1, 0) on the right.  Entry (row x^(i-j) y^j, column
    x^(i+d-m) y^m) is binomial(d, m-j).  The matrix depends on the box
    alone, so it is computed once per (a, b, i, d) and shared by every
    ideal in the box.
    """
    _check_map(a, b, i, d)
    m1 = max(i + d - a + 1, 0)
    m2 = max(i + d - b + 1, 0)
    row_ys = range(max(i - a + 1, 0), min(i, b - 1) + 1)
    col_ms = range(m1, i + d - m2 + 1)
    return LabeledMatrix(
        matrix=ExactMatrix.from_rows([[binomial(d, m - j) for m in col_ms] for j in row_ys]),
        row_labels=tuple(Monomial((i - j, j)) for j in row_ys),
        col_labels=tuple(Monomial((i + d - m, m)) for m in col_ms),
    )


def staircase_rows(a: int, b: int, heights: Sequence[int]) -> list[tuple[int, ...]]:
    """Per degree e <= a+b-2, the rows of every ``cl_matrix(a, b, e, d)`` that
    lie in the ideal whose complement has the column heights ``heights``
    (one per column 0..a-1, non-increasing, at most b).

    Row n is x^(e-j) y^j with j = max(e-a+1, 0) + n, kept iff
    j >= heights[e-j].  The rows do not depend on d, and the count of
    degree e is the dimension of M_e for M = (I + (x^a, y^b))/(x^a, y^b).
    """
    return [
        tuple(n for n, j in enumerate(range(max(e - a + 1, 0), min(e, b - 1) + 1))
              if j >= heights[e - j])
        for e in range(a + b - 1)
    ]


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

    The ideal enters only through its staircase in the box: x^k y^j lies in
    (I + (x^a, y^b)) iff j is at least the height of column k, the least
    y-exponent of a minimal generator with x-exponent at most k, capped at
    b.  The map is validated before the heights are read; the rows they
    keep (see :func:`staircase_rows`) go to :func:`certify_rows`.
    """
    _check_map(a, b, i, d)
    if ideal.nvars != 2:
        raise ValueError("mixed ambient rings")
    gens = ideal.generator_exponents
    heights = [min([b] + [y for x, y in gens if x <= k]) for k in range(a)]
    return certify_rows(a, b, i, d, staircase_rows(a, b, heights)[i])


@lru_cache(maxsize=PIPELINE_CACHE_SIZE)
def certify_rows(a: int, b: int, i: int, d: int, kept: tuple[int, ...]) -> PipelineResult:
    """The certificate chain on the rows ``kept`` of ``cl_matrix(a, b, i, d)``,
    computed once per distinct input and shared by every ideal keeping them.

    The map is validated first, and a refused input is never cached.  The
    trimmed matrix and its Pascal transform depend on (a, b, i, d) only.
    Column operations act on each row alone, so the rows of the cached
    transform are the transform of the restricted matrix.  The offset
    invariants and the certificate are checked and the rank is found by
    elimination for every distinct input.
    """
    _check_map(a, b, i, d)
    trimmed = cl_matrix(a, b, i, d)
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
        restricted=restricted,
        transformed=transformed,
        offsets=offsets,
        certificate=certificate,
        rank=rank,
        maximal=maximal,
    )
