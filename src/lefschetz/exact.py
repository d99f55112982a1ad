"""Exact integer matrices with fraction-free rank/determinant, and binomials.

All arithmetic is on Python integers; no floating point is used anywhere.
Rank and determinant use Bareiss-style fraction-free elimination so that
intermediate entries stay integral and bounded by minors of the input.
The rank modulo a small prime is a one-sided bound on the rational rank
and serves as a cheap full-rank certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

# The largest prime below 2^15: a product of two residues is below 2^30,
# so it fits in one CPython digit.
CERTIFICATE_PRIME = 32749


def binomial(n: int, k: int) -> int:
    """Binomial coefficient with the vanishing convention for k < 0 or k > n."""
    if n < 0:
        raise ValueError("upper index must be nonnegative")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def multinomial(d: int, parts: Sequence[int]) -> int:
    """d! / prod(parts!) when parts are nonnegative and sum to d, else 0."""
    if d < 0:
        raise ValueError("degree must be nonnegative")
    parts = list(parts)
    if any(p < 0 for p in parts) or sum(parts) != d:
        return 0
    out = 1
    remaining = d
    for p in parts:
        out *= math.comb(remaining, p)
        remaining -= p
    return out


@dataclass(frozen=True)
class ExactMatrix:
    """A dense row-major matrix of arbitrary-precision integers."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match dimensions")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "ExactMatrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        return cls(nrows, ncols, tuple(e for r in rows for e in r))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "ExactMatrix":
        return cls(rows, cols, (0,) * (rows * cols))

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def apply(self, vector: Sequence[int]) -> list[int]:
        """Matrix-vector product."""
        if len(vector) != self.cols:
            raise ValueError("vector length does not match column count")
        return [
            sum(self.at(i, j) * vector[j] for j in range(self.cols))
            for i in range(self.rows)
        ]

    def rank(self) -> int:
        """Exact rank over the rationals."""
        rank, _sign, _pivot = _fraction_free_echelon(self.to_rows())
        return rank

    def determinant(self) -> int:
        """Exact determinant; the empty 0x0 determinant is 1."""
        if self.rows != self.cols:
            raise ValueError("determinant requires a square matrix")
        if self.rows == 0:
            return 1
        rank, sign, pivot = _fraction_free_echelon(self.to_rows())
        if rank < self.rows:
            return 0
        return sign * pivot

    @classmethod
    def block_diagonal(cls, blocks: Sequence["ExactMatrix"]) -> "ExactMatrix":
        total_rows = sum(b.rows for b in blocks)
        total_cols = sum(b.cols for b in blocks)
        data = [[0] * total_cols for _ in range(total_rows)]
        r0 = c0 = 0
        for b in blocks:
            for i in range(b.rows):
                data[r0 + i][c0 : c0 + b.cols] = list(b.row(i))
            r0 += b.rows
            c0 += b.cols
        return cls.from_rows(data) if total_rows else cls.zeros(0, total_cols)


def _rank_mod_p(lines: list[list[int]]) -> int:
    """Rank over F_p of equal-length lines of residues mod :data:`CERTIFICATE_PRIME`.

    The lines are eliminated in place.  Gaussian elimination pivots on the
    first line with a nonzero entry in the current column.  A pivot updates
    a line only in the slots right of the column where the pivot itself is
    nonzero: every other slot would subtract zero, and the column slot is
    never read again, because the pivot search only moves right.  The
    pivots, and so the rank, are those of the dense update.
    """
    p = CERTIFICATE_PRIME
    width = len(lines[0]) if lines else 0
    rank = 0
    for col in range(width):
        for k, line in enumerate(lines):
            if line[col]:
                break
        else:
            continue
        pivot = lines.pop(k)
        inverse = pow(pivot[col], -1, p)
        # (slot, normalised entry) for the pivot's nonzeros right of col
        tail = [
            (n, e * inverse % p)
            for n, e in enumerate(pivot[col + 1 :], col + 1)
            if e
        ]
        for line in lines:
            factor = line[col]
            if factor:
                for n, e in tail:
                    line[n] = (line[n] - factor * e) % p
        rank += 1
        if not lines:
            break
    return rank


def _fraction_free_echelon(data: list[list[int]]) -> tuple[int, int, int]:
    """Bareiss elimination in place; returns (rank, swap sign, last pivot).

    Pivots are chosen by largest absolute value in the current column
    (first occurrence on ties), which keeps runs deterministic.
    """
    nrows = len(data)
    ncols = len(data[0]) if nrows else 0
    rank = 0
    sign = 1
    prev = 1
    pivot = 1
    for col in range(ncols):
        if rank == nrows:
            break
        best = -1
        best_abs = 0
        for i in range(rank, nrows):
            a = abs(data[i][col])
            if a > best_abs:
                best = i
                best_abs = a
        if best == -1:
            continue
        if best != rank:
            data[rank], data[best] = data[best], data[rank]
            sign = -sign
        pivot = data[rank][col]
        prow = data[rank]
        for i in range(rank + 1, nrows):
            row = data[i]
            factor = row[col]
            for j in range(col, ncols):
                row[j] = (pivot * row[j] - factor * prow[j]) // prev
        prev = pivot
        rank += 1
    return rank, sign, pivot
