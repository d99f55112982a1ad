"""Monomials, monomial ideals, and quotient modules in up to four variables.

Everything here is immutable and pure.  The fixed variable order is
x > y > z > t, and all "sorted" monomial lists are in descending
lexicographic order on exponent vectors, so x-heavy monomials come first.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from functools import cached_property
from operator import mul
from typing import Iterable, Iterator, Optional

from .series import HilbertSeries

VARIABLES = ("x", "y", "z", "t")
MAX_VARIABLES = 4
# Most cells of the pure-power box (the product of the denominator's
# pure-power exponents) a module enumerates.  A larger box is refused with a
# ValueError before any cell is visited.
MAX_BOX_CELLS = 20_000


def _refuse_exponents(exponents: tuple[int, ...]) -> None:
    """Raise ValueError unless every exponent is a nonnegative int."""
    if {*map(type, exponents)} != {int}:
        raise ValueError(f"exponents must be integers, got {exponents}")
    if min(exponents) < 0:
        raise ValueError(f"negative exponent in {exponents}")


def _format(exponents: tuple[int, ...]) -> str:
    """A monomial as text, such as ``x^2*y``; ``1`` when every exponent is 0."""
    parts = [var if e == 1 else f"{var}^{e}" for var, e in zip(VARIABLES, exponents) if e]
    return "*".join(parts) or "1"


@dataclass(frozen=True)
class Monomial:
    """A monomial given by its exponent vector over a fixed ambient ring."""

    exponents: tuple[int, ...]

    def __post_init__(self) -> None:
        if not 1 <= len(self.exponents) <= MAX_VARIABLES:
            raise ValueError(f"ambient variable count must be 1..{MAX_VARIABLES}")
        _refuse_exponents(self.exponents)

    @property
    def nvars(self) -> int:
        return len(self.exponents)

    @property
    def degree(self) -> int:
        return sum(self.exponents)

    def __str__(self) -> str:
        return _format(self.exponents)


def variable_power(nvars: int, v: int, e: int) -> Monomial:
    """The monomial x_v^e in an ambient ring with nvars variables."""
    if not 0 <= v < nvars:
        raise ValueError(f"variable index {v} out of range for {nvars} variables")
    exps = [0] * nvars
    exps[v] = e
    return Monomial(tuple(exps))


def exponents_of_degree(d: int, nvars: int) -> Iterator[tuple[int, ...]]:
    """Degree-d exponent vectors with nvars slots, in descending lex order."""
    if nvars == 1:
        yield (d,)
    elif nvars > 1:
        for e in range(d, -1, -1):
            for rest in exponents_of_degree(d - e, nvars - 1):
                yield (e,) + rest


def monomials_of_degree(nvars: int, d: int) -> Iterator[Monomial]:
    """All degree-d monomials in nvars variables, in descending lex order."""
    for exps in exponents_of_degree(d, nvars):
        yield Monomial(exps)


def divisible_by_any(
    exponents: tuple[int, ...], generators: Iterable[tuple[int, ...]]
) -> bool:
    """Whether some generator exponent vector divides ``exponents``.

    The one membership kernel: ideal membership and minimalisation both
    run on bare exponent tuples of one ambient ring.
    """
    for g in generators:
        for a, b in zip(g, exponents):
            if a > b:
                break
        else:
            return True
    return False


def _cell(exponents: tuple[int, ...]) -> Monomial:
    """A basis cell's Monomial, made without re-running the validation."""
    cell = object.__new__(Monomial)
    object.__setattr__(cell, "exponents", exponents)
    return cell


def _lower(bounds: dict, head_caps: list[int], generators) -> dict:
    """Lower, in place, each prefix's bound to the last exponent of every
    generator whose head divides the prefix; returns ``bounds``."""
    for *head, e in generators:
        for prefix in itertools.product(*map(range, head, head_caps)):
            if bounds[prefix] > e:
                bounds[prefix] = e
    return bounds


def _minimal(exponents: Iterable[tuple[int, ...]]) -> tuple[tuple[int, ...], ...]:
    """The minimal elements of exponent tuples under division, sorted.

    In ascending lex order every divisor comes before its multiples, so a
    tuple is minimal exactly when no tuple kept before it divides it.
    """
    minimal: list[tuple[int, ...]] = []
    for exps in sorted(set(exponents)):
        if not divisible_by_any(exps, minimal):
            minimal.append(exps)
    return tuple(minimal)


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal stored by its unique minimal generating antichain.

    ``generator_exponents`` holds the minimal generators' exponent tuples
    in ascending lex order, so equal ideals are equal values.  The zero
    ideal has no generators; the unit ideal is generated by 1.  Use
    :meth:`from_generators` to construct one from an arbitrary generating
    set.
    """

    generator_exponents: tuple[tuple[int, ...], ...]
    nvars: int

    def __post_init__(self) -> None:
        if not 1 <= self.nvars <= MAX_VARIABLES:
            raise ValueError(f"ambient variable count must be 1..{MAX_VARIABLES}")
        gens = self.generator_exponents
        if type(gens) is not tuple or {*map(type, gens)} - {tuple} or {*map(len, gens)} - {self.nvars}:
            raise ValueError(f"generators must be a tuple of {self.nvars}-tuples of exponents")
        for k, g in enumerate(gens):
            _refuse_exponents(g)
            # In ascending lex order a divisor comes before its multiples.
            if k and (g <= gens[k - 1] or divisible_by_any(g, gens[:k])):
                raise ValueError("generators are not a sorted antichain; use from_generators")

    @classmethod
    def from_generators(
        cls, gens: Iterable[Monomial], nvars: Optional[int] = None
    ) -> "MonomialIdeal":
        gens = list(gens)
        if nvars is None:
            if not gens:
                raise ValueError("nvars required for the zero ideal")
            nvars = gens[0].nvars
        if any(g.nvars != nvars for g in gens):
            raise ValueError("mixed ambient ring sizes")
        return cls(_minimal(g.exponents for g in gens), nvars)

    @classmethod
    def zero(cls, nvars: int) -> "MonomialIdeal":
        return cls((), nvars)

    @classmethod
    def unit(cls, nvars: int) -> "MonomialIdeal":
        return cls(((0,) * nvars,), nvars)

    @property
    def is_zero(self) -> bool:
        return not self.generator_exponents

    @property
    def is_unit(self) -> bool:
        return (0,) * self.nvars in self.generator_exponents

    @property
    def generators(self) -> frozenset[Monomial]:
        return frozenset(map(Monomial, self.generator_exponents))

    def sorted_generators(self) -> list[Monomial]:
        """The minimal generators in descending lex order."""
        return [Monomial(g) for g in reversed(self.generator_exponents)]

    def contains(self, m: Monomial) -> bool:
        if m.nvars != self.nvars:
            raise ValueError("mixed ambient rings")
        return divisible_by_any(m.exponents, self.generator_exponents)

    @cached_property
    def pure_power_caps(self) -> tuple[Optional[int], ...]:
        """Per variable, the least j with x_v^j in the ideal, or None.

        A minimal generator with at most one variable in its support is a
        pure power; the unit ideal gives every variable the cap 0.
        """
        caps: list[Optional[int]] = [None] * self.nvars
        for g in self.generator_exponents:
            support = [v for v, e in enumerate(g) if e]
            if len(support) <= 1:
                for v in support or range(self.nvars):
                    caps[v] = g[v]
        return tuple(caps)

    def is_artinian(self) -> bool:
        """Whether the ideal contains a pure power of every variable."""
        return None not in self.pure_power_caps

    def pure_power_exponent(self, v: int) -> int:
        """The least j with x_v^j in the ideal; raises if there is none."""
        caps = self.pure_power_caps
        if not 0 <= v < self.nvars or caps[v] is None:
            raise ValueError(f"no pure power of variable {v} in the ideal")
        return caps[v]

    def colon_variable_power(self, v: int, j: int) -> "MonomialIdeal":
        """The colon ideal (I : x_v^j), by per-generator exponent subtraction."""
        if j < 0:
            raise ValueError("colon exponent must be nonnegative")
        if not 0 <= v < self.nvars:
            raise ValueError("variable index out of range")
        if j == 0 or self.is_zero:
            return self
        quotients = (
            g[:v] + (max(g[v] - j, 0),) + g[v + 1:] for g in self.generator_exponents
        )
        return MonomialIdeal(_minimal(quotients), self.nvars)

    def __add__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        if self.nvars != other.nvars:
            raise ValueError("mixed ambient rings")
        return MonomialIdeal(
            _minimal(self.generator_exponents + other.generator_exponents), self.nvars
        )

    def extended(self, nvars: int) -> "MonomialIdeal":
        """The same ideal in a larger ambient ring: zeros appended to every
        generator keep a sorted antichain."""
        if nvars < self.nvars:
            raise ValueError("cannot shrink ambient ring")
        pad = (0,) * (nvars - self.nvars)
        return MonomialIdeal(tuple(g + pad for g in self.generator_exponents), nvars)

    def dimension_in_degree(self, d: int) -> int:
        """dim_k of the degree-d graded piece of the ideal."""
        gens = self.generator_exponents
        return sum(divisible_by_any(e, gens) for e in exponents_of_degree(d, self.nvars))

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        return ", ".join(map(_format, reversed(self.generator_exponents)))


@dataclass(frozen=True)
class QuotientModule:
    """The graded module (I + J)/J for monomial ideals I, J in one ring.

    The denominator J must be Artinian, so every graded piece is finite and
    the module vanishes above the socle degree of S/J.  Its degree-d basis
    is the set of degree-d monomials lying in I but not in J.
    """

    numerator: MonomialIdeal
    denominator: MonomialIdeal

    def __post_init__(self) -> None:
        if self.numerator.nvars != self.denominator.nvars:
            raise ValueError("numerator and denominator live in different rings")
        if not self.denominator.is_artinian():
            raise ValueError("denominator must be Artinian")

    @property
    def nvars(self) -> int:
        return self.numerator.nvars

    def refuse_large_box(self) -> None:
        """Raise ValueError when the pure-power box is over MAX_BOX_CELLS."""
        cells = math.prod(self.denominator.pure_power_caps)
        if cells > MAX_BOX_CELLS:
            raise ValueError(
                f"the pure-power box of {self} has {cells} cells, "
                f"over the limit of {MAX_BOX_CELLS}"
            )

    @cached_property
    def _index(self) -> dict[int, tuple[tuple[int, ...], ...]]:
        """The degree -> basis buckets, built once and never changed.

        Every basis monomial lies in the box of the denominator's pure-power
        caps (x_v^c in the denominator bounds the exponent of x_v by c - 1),
        which is built one column per prefix of all but the last variable.
        Call a generator's exponents but the last its head: in a column
        whose prefix its head divides, the generator divides exactly the
        cells whose last exponent is at least its own last.  So a column's
        basis is one interval [lo, hi) of last exponents.  hi starts at the
        last cap, and each denominator generator (h, e) lowers it to e on the
        sub-box of prefixes h divides, the product of the ranges [h_v, c_v)
        (a pure power's sub-box is empty, or its e is the last cap); lo
        starts at hi and each numerator generator lowers it the same way.
        Prefixes and last exponents are walked in descending order, so every
        bucket is in descending lex order.  A degree without a bucket is
        zero.  A bucket holds bare exponent tuples, which the scan packs as
        they are; :meth:`degree_basis` makes their Monomials.
        """
        if self.numerator.is_zero:
            return {}
        self.refuse_large_box()
        *head_caps, last_cap = self.denominator.pure_power_caps
        hi = dict.fromkeys(itertools.product(*(range(c - 1, -1, -1) for c in head_caps)), last_cap)
        _lower(hi, head_caps, self.denominator.generator_exponents)
        lo = _lower(dict(hi), head_caps, self.numerator.generator_exponents)
        members: list[list[tuple[int, ...]]] = [[] for _ in range(self.top_degree_bound() + 1)]
        for prefix, top in hi.items():
            base = sum(prefix)
            for e in range(top - 1, lo[prefix] - 1, -1):
                members[base + e].append(prefix + (e,))
        return {d: tuple(basis) for d, basis in enumerate(members) if basis}

    @cached_property
    def _components(self) -> tuple[tuple[int, ...], ...]:
        """The variable classes a tensor split of the module keeps apart.

        The variables of each denominator generator are joined, and so are
        all variables of the numerator, so the numerator lives in one class.
        A pure power joins nothing and is skipped.  A class and a support are
        bitmasks over the variables.  Built once, like the basis index.
        """
        nvars = self.nvars
        bits = [1 << v for v in range(nvars)]
        numerator = 0
        for g in self.numerator.generator_exponents:
            numerator |= sum(map(mul, map(bool, g), bits))
        supports = [numerator] + [
            sum(map(mul, map(bool, g), bits))
            for g in self.denominator.generator_exponents
            if g.count(0) < nvars - 1
        ]
        classes = bits
        for support in supports:
            joined = [c for c in classes if c & support]
            if len(joined) > 1:
                classes = [c for c in classes if not c & support] + [sum(joined)]
                if len(classes) == 1:
                    return (tuple(range(nvars)),)
        return tuple(sorted(tuple(v for v in range(nvars) if c >> v & 1) for c in classes))

    def degree_basis(self, d: int) -> list[Monomial]:
        """The degree-d basis in descending lex order, as a fresh list.

        Its cells skip Monomial's validation, which cannot fail for them:
        their exponents come from the ranges of caps the ideals validated.
        """
        if d < 0:
            raise ValueError("degree must be nonnegative")
        return list(map(_cell, self._index.get(d, ())))

    def top_degree_bound(self) -> int:
        """Largest degree that can carry a nonzero graded piece."""
        return sum(c - 1 for c in self.denominator.pure_power_caps)

    def hilbert_series(self) -> HilbertSeries:
        """The Hilbert series, read from the bucket sizes of the box index."""
        buckets = self._index
        if not buckets:
            return HilbertSeries.zero()
        return HilbertSeries.from_coefficients(
            0, [len(buckets.get(d, ())) for d in range(max(buckets) + 1)]
        )

    def socle_degree(self) -> int:
        series = self.hilbert_series()
        if series.is_zero:
            raise ValueError("zero module has no socle degree")
        return series.end

    def refuse_truncation(self, c: int) -> None:
        """Raise ValueError when ``tensor_truncation(c)`` cannot be built."""
        if c < 1:
            raise ValueError("truncation exponent must be at least 1")
        if self.nvars + 1 > MAX_VARIABLES:
            raise ValueError("ambient variable limit exceeded")

    def tensor_truncation(self, c: int) -> "QuotientModule":
        """The module tensored with k[t]/(t^c), t a fresh ambient variable.

        Neither extended ideal involves t and t^c is the only new
        generator, so the degree-e basis is every m * t^j with j < c and m
        in the degree-(e - j) basis of this module.
        """
        self.refuse_truncation(c)
        nvars = self.nvars + 1
        t_power = MonomialIdeal(((0,) * self.nvars + (c,),), nvars)
        return QuotientModule(
            self.numerator.extended(nvars), self.denominator.extended(nvars) + t_power
        )

    def __str__(self) -> str:
        return f"({self.numerator})/({self.denominator})"


def algebra_quotient(ideal: MonomialIdeal) -> QuotientModule:
    """The algebra S/I as a quotient module (1)/I."""
    return QuotientModule(MonomialIdeal.unit(ideal.nvars), ideal)


def lex_ideal(ideal: MonomialIdeal) -> MonomialIdeal:
    """The lex-segment ideal with the same Hilbert function, in two variables.

    Built degreewise: in each degree take the lex-largest dim I_d monomials.
    Only defined in two variables, where it agrees with the generic initial
    ideal.
    """
    if ideal.nvars != 2:
        raise ValueError("lex ideal construction requires exactly 2 variables")
    if ideal.is_zero or ideal.is_unit:
        return ideal
    maxdeg = max(map(sum, ideal.generator_exponents))
    # Beyond maxdeg the codimension of S/I is non-increasing, so new lex
    # generators (which need the codimension to drop) stop appearing once it
    # has bottomed out.
    codim_at_top = (maxdeg + 1) - ideal.dimension_in_degree(maxdeg)
    limit = maxdeg + codim_at_top + 2
    segment_members = []
    for d in range(limit + 1):
        t = ideal.dimension_in_degree(d)
        segment_members.extend((d - j, j) for j in range(t))
    return MonomialIdeal(_minimal(segment_members), 2)


_TOKEN = re.compile(r"\s*([a-zA-Z])\s*(?:\^\s*(-?\d+))?\s*")


class ParseError(ValueError):
    """Raised on malformed monomial or ideal expressions."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position


def parse_monomial(text: str, nvars: int) -> Monomial:
    """Parse a product of ``var^exp`` factors separated by '*' or whitespace."""
    return Monomial(_parse_exponents(text, nvars))


def _parse_exponents(text: str, nvars: int) -> tuple[int, ...]:
    """The exponent tuple of a monomial expression (see :func:`parse_monomial`)."""
    exps = [0] * nvars
    pos = 0
    stripped = text.strip()
    if stripped == "1":
        return tuple(exps)
    expect_factor = True
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        if text[pos] == "*":
            if expect_factor:
                raise ParseError("unexpected '*'", pos)
            expect_factor = True
            pos += 1
            continue
        match = _TOKEN.match(text, pos)
        if not match:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        var, exp_text = match.group(1), match.group(2)
        if var not in VARIABLES[:nvars]:
            raise ParseError(f"unknown variable {var!r}", match.start(1))
        exp = 1 if exp_text is None else int(exp_text)
        if exp < 0:
            raise ParseError("negative exponent", match.start(2))
        exps[VARIABLES.index(var)] += exp
        expect_factor = False
        pos = match.end()
    if expect_factor:
        raise ParseError("empty monomial expression", pos)
    return tuple(exps)


def infer_nvars(text: str) -> int:
    """Smallest ambient variable count covering every variable in the text."""
    best = 1
    for ch in text:
        if ch in VARIABLES:
            best = max(best, VARIABLES.index(ch) + 1)
        elif ch.isalpha():
            raise ParseError(f"unknown variable {ch!r}", text.index(ch))
    return best


def parse_ideal(text: str, nvars: Optional[int] = None) -> MonomialIdeal:
    """Parse a comma-separated list of monomial expressions as an ideal.

    '0' denotes the zero ideal and '1' the unit ideal.
    """
    if nvars is None:
        nvars = infer_nvars(text)
    stripped = text.strip()
    if stripped == "0":
        return MonomialIdeal.zero(nvars)
    if not stripped:
        raise ParseError("empty ideal expression", 0)
    gens = []
    # where the part starts in the whole text, so its errors point there
    start = len(text) - len(text.lstrip())
    for part in stripped.split(","):
        try:
            gens.append(_parse_exponents(part, nvars))
        except ParseError as error:
            raise ParseError(error.message, start + error.position) from None
        start += len(part) + 1
    return MonomialIdeal(_minimal(gens), nvars)
