"""Hilbert series and their shape predicates (symmetry, unimodality, ...)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence


@dataclass(frozen=True)
class HilbertSeries:
    """A finite Hilbert series: initial degree plus its coefficient list.

    The empty coefficient list encodes the zero module.  Leading and
    trailing coefficients are nonzero by construction.
    """

    start: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError("initial degree must be nonnegative")
        if any(c < 0 for c in self.coeffs):
            raise ValueError("coefficients must be nonnegative")
        if self.coeffs and (self.coeffs[0] == 0 or self.coeffs[-1] == 0):
            raise ValueError("leading/trailing zero coefficients are not allowed")

    @classmethod
    def zero(cls) -> "HilbertSeries":
        return cls(0, ())

    @classmethod
    def from_coefficients(cls, start: int, coeffs: Sequence[int]) -> "HilbertSeries":
        """Build a series, stripping leading and trailing zeros."""
        coeffs = list(coeffs)
        lo = 0
        while lo < len(coeffs) and coeffs[lo] == 0:
            lo += 1
        if lo == len(coeffs):
            return cls.zero()
        hi = len(coeffs)
        while coeffs[hi - 1] == 0:
            hi -= 1
        return cls(start + lo, tuple(coeffs[lo:hi]))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def end(self) -> int:
        if self.is_zero:
            raise ValueError("zero series has no support")
        return self.start + len(self.coeffs) - 1

    def coefficient(self, d: int) -> int:
        if self.is_zero or not self.start <= d <= self.end:
            return 0
        return self.coeffs[d - self.start]

    def total_dimension(self) -> int:
        return sum(self.coeffs)

    def shifted(self, offset: int) -> "HilbertSeries":
        if self.is_zero:
            return self
        return HilbertSeries(self.start + offset, self.coeffs)

    def times_truncation(self, c: int) -> "HilbertSeries":
        """The series multiplied by 1 + t + ... + t^(c-1)."""
        if c < 1:
            raise ValueError("truncation length must be at least 1")
        return self * HilbertSeries(0, (1,) * c)

    def __mul__(self, other: "HilbertSeries") -> "HilbertSeries":
        """The product series, which is the series of a tensor product."""
        if self.is_zero or other.is_zero:
            return HilbertSeries.zero()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, h in enumerate(self.coeffs):
            for j, g in enumerate(other.coeffs):
                out[i + j] += h * g
        return HilbertSeries(self.start + other.start, tuple(out))

    def __add__(self, other: "HilbertSeries") -> "HilbertSeries":
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        start = min(self.start, other.start)
        end = max(self.end, other.end)
        coeffs = [
            self.coefficient(d) + other.coefficient(d) for d in range(start, end + 1)
        ]
        return HilbertSeries(start, tuple(coeffs))

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        terms = []
        for d in range(self.start, self.end + 1):
            h = self.coefficient(d)
            if h == 0:
                continue
            if d == 0:
                terms.append(str(h))
            else:
                t = "t" if d == 1 else f"t^{d}"
                terms.append(t if h == 1 else f"{h}{t}")
        return " + ".join(terms)


def sum_series(parts: Iterable[HilbertSeries]) -> HilbertSeries:
    total = HilbertSeries.zero()
    for part in parts:
        total = total + part
    return total


@dataclass(frozen=True)
class ReflectingDegree:
    """Midpoint (p+q)/2 of a symmetric series, stored doubled to stay exact."""

    doubled: int

    @property
    def is_integer(self) -> bool:
        return self.doubled % 2 == 0

    def __str__(self) -> str:
        if self.is_integer:
            return str(self.doubled // 2)
        return f"{self.doubled}/2"


def is_symmetric(series: HilbertSeries) -> Optional[ReflectingDegree]:
    """The reflecting degree when the series is palindromic, else None."""
    if series.is_zero:
        return None
    if series.coeffs != series.coeffs[::-1]:
        return None
    return ReflectingDegree(series.start + series.end)


def degrees_coincide(r1: ReflectingDegree, r2: ReflectingDegree) -> bool:
    """Whether two reflecting degrees agree or differ by one half."""
    return abs(r1.doubled - r2.doubled) <= 1


def is_unimodal(series: HilbertSeries) -> bool:
    """Whether coefficients weakly rise and then weakly fall."""
    coeffs = series.coeffs
    rising = True
    for prev, cur in zip(coeffs, coeffs[1:]):
        if rising:
            if cur < prev:
                rising = False
        elif cur > prev:
            return False
    return True


def is_almost_centered(series: HilbertSeries) -> bool:
    """The near-palindromic sandwich condition on the coefficient list.

    True iff h_{p+i-1} <= h_{q-i} <= h_{p+i} for every i up to the middle,
    or h_{q-i+1} <= h_{p+i} <= h_{q-i} for every such i.  Supports of length
    at most two are vacuously almost centered.
    """
    if series.is_zero:
        return True
    p, q = series.start, series.end
    half = (q - p) // 2
    h = series.coefficient
    lower = all(h(p + i - 1) <= h(q - i) <= h(p + i) for i in range(1, half + 1))
    upper = all(h(q - i + 1) <= h(p + i) <= h(q - i) for i in range(1, half + 1))
    return lower or upper


def two_power_quotient_dim(alpha: int, beta: int, a: int, b: int, i: int) -> int:
    """Closed-form dimension of ((x^alpha, y^beta)/(x^a, y^b))_i.

    Counts degree-i monomials divisible by x^alpha or y^beta but by neither
    x^a nor y^b.
    """
    if not (0 <= alpha <= a and 0 <= beta <= b):
        raise ValueError("parameters must satisfy 0 <= alpha <= a, 0 <= beta <= b")
    if i < 0:
        raise ValueError("degree must be nonnegative")
    return (
        max(i - alpha + 1, 0)
        + max(i - beta + 1, 0)
        - max(i - beta - alpha + 1, 0)
        - max(i - a + 1, 0)
        - max(i - b + 1, 0)
        + max(i - a - b + 1, 0)
    )
