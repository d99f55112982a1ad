"""Multiplication maps by powers of a linear form and Lefschetz deciders.

The canonical Lefschetz candidate for monomial data is the all-ones linear
form; callers may override it or sample random integer forms as extra
witnesses.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import accumulate, combinations, permutations
from operator import add
from typing import Iterable, Iterator, Optional, Sequence

from .exact import CERTIFICATE_PRIME, ExactMatrix, _rank_mod_p, multinomial
from .lgv import _window_rank
from .monomials import (
    MAX_BOX_CELLS,
    Monomial,
    MonomialIdeal,
    QuotientModule,
    monomials_of_degree,
    variable_power,
)
from .series import (
    HilbertSeries,
    ReflectingDegree,
    degrees_coincide,
    is_symmetric,
)

# Bound on the memoised packed powers (see :func:`_packed_power`); a scan
# asks for each power once per source degree, under one radix and modulus.
EXPANSION_CACHE_SIZE = 256


@dataclass(frozen=True)
class LinearForm:
    """A linear form given by one integer coefficient per ambient variable."""

    coefficients: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.coefficients or all(c == 0 for c in self.coefficients):
            raise ValueError("linear form must have a nonzero coefficient")

    @property
    def nvars(self) -> int:
        return len(self.coefficients)

    @classmethod
    def all_ones(cls, nvars: int) -> "LinearForm":
        return cls((1,) * nvars)

    @classmethod
    def random_forms(cls, nvars: int, count: int, seed: int) -> list["LinearForm"]:
        """Seeded random witnesses with coefficients in [1, 100]."""
        return list(_random_forms(nvars, count, seed))

    def power_expansion(self, d: int) -> tuple[tuple[tuple[int, ...], int], ...]:
        """Monomial expansion of the d-th power: (exponent vector, coefficient)."""
        if d < 0:
            raise ValueError("power must be nonnegative")
        terms = []
        for m in monomials_of_degree(self.nvars, d):
            coeff = math.prod(map(pow, self.coefficients, m.exponents))
            if coeff:
                terms.append((m.exponents, multinomial(d, m.exponents) * coeff))
        return tuple(terms)

    def __str__(self) -> str:
        from .monomials import VARIABLES

        parts = []
        for var, c in zip(VARIABLES, self.coefficients):
            if c:
                parts.append(var if c == 1 else f"{c}*{var}")
        return " + ".join(parts)


def _random_forms(nvars: int, count: int, seed: int) -> Iterator[LinearForm]:
    """The ``count`` seeded random witnesses of :meth:`LinearForm.random_forms`,
    drawn one at a time; a negative count is refused at once."""
    if count < 0:
        raise ValueError(f"random form count must be nonnegative, got {count}")
    # seeding takes microseconds, which a check without witnesses skips
    rng = random.Random(seed) if count else None
    return (LinearForm(tuple(rng.randint(1, 100) for _ in range(nvars))) for _ in range(count))


@dataclass(frozen=True)
class MapFailure:
    """One multiplication map that misses maximal rank."""

    i: int
    d: int
    rank: int
    expected: int


class ReportInvariantError(RuntimeError):
    """A report whose verdict contradicts its failure list: an internal fault."""


@dataclass(frozen=True)
class LefschetzReport:
    property: str
    holds: bool
    failures: tuple[MapFailure, ...]
    linear_form: tuple[LinearForm, ...]

    def __post_init__(self) -> None:
        if self.holds != (not self.failures):
            raise ReportInvariantError("holds must mirror an empty failure list")


def _pack(exponents: Sequence[int], shift: int) -> int:
    """An exponent vector as one integer, one digit of radix 2^shift per slot."""
    code = 0
    for e in exponents:
        code = code << shift | e
    return code


@lru_cache(maxsize=EXPANSION_CACHE_SIZE)
def _packed_power(ell: LinearForm, d: int, shift: int, modulus: Optional[int]) -> dict:
    """The terms of ell^d as packed code -> coefficient, reduced mod ``modulus``
    unless it is None, zeros left out.  Memoised: never change the dict."""
    table = {}
    for exps, coeff in ell.power_expansion(d):
        if modulus is not None:
            coeff %= modulus
        if coeff:
            table[_pack(exps, shift)] = coeff
    return table


def _images(source: Sequence[int], target: Sequence[int], table: dict) -> list[list[int]]:
    """Each source monomial's image under a packed power, on the target.

    The bases are the packed codes of one degree each, and ``table`` is a
    :func:`_packed_power` in the same radix 2^shift, above the target degree.
    Entry (v, u) is the coefficient of the term v - u.  A v - u with a
    negative digit is no key: it is negative, or its digits, all in
    (-2^shift, 2^shift), need a borrow, and each borrow lifts the digit sum
    by 2^shift - 1, above the power's degree.  A table shorter than the
    target is scattered instead: no digit of u + c reaches the radix.
    """
    if len(table) >= len(target):
        get = table.get
        return [[get(v - u, 0) for v in target] for u in source]
    position = {v: r for r, v in enumerate(target)}
    images = []
    for u in source:
        image = [0] * len(target)
        for c, coeff in table.items():
            at = position.get(u + c)
            if at is not None:
                image[at] = coeff
        images.append(image)
    return images


def mult_matrix(
    module: QuotientModule, ell: LinearForm, d: int, i: int
) -> ExactMatrix:
    """Matrix of the map (times ell^d): M_i -> M_{i+d} on monomial bases.

    Rows are indexed by the degree-(i+d) basis, columns by the degree-i
    basis, both in descending lex order.
    """
    if d < 1:
        raise ValueError("power must be at least 1")
    if ell.nvars != module.nvars:
        raise ValueError("linear form ambient ring mismatch")
    shift = (i + d).bit_length()
    source, target = ([_pack(m.exponents, shift) for m in module.degree_basis(k)]
                      for k in (i, i + d))
    images = _images(source, target, _packed_power(ell, d, shift, None))
    # the images are the columns
    entries = tuple(e for row in zip(*images) for e in row)
    return ExactMatrix(len(target), len(source), entries)


@dataclass(frozen=True)
class Summand:
    """A graded summand of a direct sum: a module with a degree shift."""

    module: QuotientModule
    shift: int = 0
    form: Optional[LinearForm] = None

    def __post_init__(self) -> None:
        if self.form is not None and self.form.nvars != self.module.nvars:
            raise ValueError(
                f"linear form has {self.form.nvars} coefficients for a module "
                f"in {self.module.nvars} variables"
            )

    def resolved_form(self) -> LinearForm:
        return self.form or LinearForm.all_ones(self.module.nvars)

    def series(self) -> HilbertSeries:
        return self.module.hilbert_series().shifted(self.shift)


def _has_socle(source: Sequence[int], target: Sequence[int], steps: Sequence[int]) -> bool:
    """Whether some source monomial u has no x_v u = u + steps[v] in the
    target basis, one degree up: whether its degree holds a socle monomial."""
    targets = set(target)
    return any(all(u + s not in targets for s in steps) for u in source)


def _scan_maps(
    module: QuotientModule, ell: LinearForm, only_d_one: bool
) -> tuple[MapFailure, ...]:
    """Failing maps (times ell^d): M_i -> M_{i+d} of one module, in (d, i) order.

    Powers are visited from longest to shortest.  Since ell^D factors as
    ell^(D-d) ell^d, an injective map out of M_i of length D makes every
    shorter map out of M_i injective, and a surjective map onto M_j of
    length D makes every shorter map onto M_j surjective.  Such maps have
    maximal rank and are skipped; every other map is ranked, so a failing
    map is never skipped.

    The WLP scan (``only_d_one``) carries maximal rank along d = 1 by two
    rules (Migliore, Miro-Roig and Nagel, Trans. AMS 363 (2011), Prop. 2.1,
    in module form).  Let g be the top degree of the numerator's minimal
    generators, which generate M.  Surjectivity carries up: if
    M_(i-1) -> M_i is onto and i >= g, then M_(i+1) = S_1 M_i
    = ell S_1 M_(i-1), which lies in ell M_i, so M_i -> M_(i+1) is onto.
    Injectivity carries down: if ell is injective on M_(i+1) and no
    monomial of M_i is in the socle, then ell u = 0 gives ell x_v u = 0, so
    x_v u = 0 for every variable and u lies in the socle, hence u = 0.  A
    monomial u is in the socle when no x_v u is in the degree-(i+1) basis.
    So the maps with h_(i+1) <= h_i are visited in ascending i and the
    others in descending i; a map either rule proves is skipped, and
    carries its own rule on.  A failing map proves nothing.

    A map of a two-variable module is ranked exactly by the window rule on
    its bases' y-exponents (see :func:`lgv._window_rank`).  Any other map
    is ranked mod p from its source monomials' images (see
    :func:`_images`).  A rank mod p is never above the rational rank, so an
    F_p rank of ``expected`` proves maximal rank; any other map takes its
    images again from the same codes under the integer power and is ranked
    by exact elimination, so every failure rank is exact.
    """
    series = module.hilbert_series()
    if series.is_zero:
        return ()
    p, q = series.start, series.end
    # dims[k] = h_(p+k), and basis(k) is the degree-k basis as the ranks read
    # it.  In two variables that is its y-exponents, all read up front through
    # degree_basis, the name under which benchmarks/spans.py counts and times
    # basis reads.  Otherwise it is codes in one radix above q, packed from
    # the index's bare exponent tuples when a map first needs them, so such a
    # scan makes no Monomial and packs only the degrees it ranks or tests.
    dims = series.coeffs
    max_d = 1 if only_d_one else q - p
    if module.nvars == 2:
        # the window of ell^d is (0, d), or (d, d) without x and (0, 0) without y
        x, y = ell.coefficients
        basis = {k: [u.exponents[1] for u in module.degree_basis(k)] for k in range(p, q + 1)}.get
    else:
        shift = q.bit_length()
        index, codes = module._index, {}

        def basis(k: int) -> list[int]:
            if k not in codes:
                codes[k] = [_pack(exponents, shift) for exponents in index[k]]
            return codes[k]
    if only_d_one:
        g = max(map(sum, module.numerator.generator_exponents))
        # x_v u is u + steps[v]: the y-exponent of x u is that of u, and no
        # digit of a code below degree q carries
        steps = (0, 1) if module.nvars == 2 else [1 << shift * k for k in range(module.nvars)]
        falling = [i for i in range(p, q) if dims[i + 1 - p] <= dims[i - p]]
        rising = [i for i in range(q - 1, p - 1, -1) if dims[i + 1 - p] > dims[i - p]]
    # Longest verified injective map out of each degree, surjective map onto it.
    injective_from: dict[int, int] = {}
    surjective_onto: dict[int, int] = {}
    failures = []
    for d in range(max_d, 0, -1):
        for i in falling + rising if only_d_one else range(p, q - d + 1):
            dim_source, dim_target = dims[i - p], dims[i + d - p]
            expected = min(dim_source, dim_target)
            if expected == 0:
                continue
            if injective_from.get(i, 0) >= d or surjective_onto.get(i + d, 0) >= d:
                continue
            if only_d_one and (
                i >= g and i in surjective_onto
                or i + 1 in injective_from and not _has_socle(basis(i), basis(i + 1), steps)
            ):
                rank = expected
            elif module.nvars == 2:
                rank = _window_rank(basis(i), basis(i + d), 0 if x else d, d if y else 0)
            else:
                source, target = basis(i), basis(i + d)
                table = _packed_power(ell, d, shift, CERTIFICATE_PRIME)
                rank = _rank_mod_p(_images(source, target, table))
                if rank != expected:
                    table = _packed_power(ell, d, shift, None)
                    rank = ExactMatrix.from_rows(_images(source, target, table)).rank()
            if rank != expected:
                failures.append(MapFailure(i=i, d=d, rank=rank, expected=expected))
                continue
            if rank == dim_source:
                injective_from.setdefault(i, d)
            if rank == dim_target:
                surjective_onto.setdefault(i + d, d)
    failures.sort(key=lambda f: (f.d, f.i))
    return tuple(failures)


def direct_sum_check(
    summands: Sequence[Summand], property: str = "SLP"
) -> LefschetzReport:
    """Maximal-rank decision for a direct sum of graded summands.

    The sum's map (times ell^d) is block diagonal, so its rank is the sum
    of the summands' ranks and its graded Jordan type is the summands'
    strings, each moved up by its shift.  :func:`_failures_of` reads every
    map from them: every power under the SLP, d = 1 under the WLP.  A
    summand that splits is read from its factors, any other is scanned
    once (see :func:`_module_strings`).
    """
    if property not in ("WLP", "SLP"):
        raise ValueError("property must be 'WLP' or 'SLP'")
    if not summands:
        raise ValueError("direct sum needs at least one summand")
    strings = tuple(
        (s + summand.shift, m)
        for summand in summands
        for s, m in _module_strings(summand.module, summand.resolved_form())
    )
    if any(s < 0 for s, _ in strings):
        raise ValueError("a summand is shifted below degree 0")
    failures = _failures_of(strings, only_d_one=property == "WLP")
    return LefschetzReport(
        property=property,
        holds=not failures,
        failures=failures,
        linear_form=tuple(s.resolved_form() for s in summands),
    )


def _restricted(ideal: MonomialIdeal, variables: tuple[int, ...]) -> MonomialIdeal:
    """The generators supported on ``variables``, as an ideal in those variables."""
    return MonomialIdeal(
        frozenset(
            Monomial(tuple(g[v] for v in variables))
            for g in ideal.generator_exponents
            if all(e == 0 or v in variables for v, e in enumerate(g))
        ),
        len(variables),
    )


Strings = tuple[tuple[int, int], ...]


def _tensor_strings(left: Strings, right: Strings) -> Strings:
    """Graded Jordan type of l_A + l_B on M_A (x) M_B from those of l_A and l_B.

    A string (s, m) spans the degrees s, ..., s + m - 1.  In characteristic
    0, (s, m) (x) (t, n) is the strings (s + t + k, m + n - 1 - 2k) for
    k < min(m, n): the graded Clebsch-Gordan rule.
    """
    return tuple(
        (s + t + k, m + n - 1 - 2 * k)
        for s, m in left
        for t, n in right
        for k in range(min(m, n))
    )


def _strings(series: HilbertSeries, failures: Sequence[MapFailure]) -> Strings:
    """Graded Jordan type of (times ell) from the failures of one pruned SLP scan.

    A map (times ell^d): M_i -> M_(i+d) that the scan skips or passes has
    rank r(i, d) = min(h_i, h_(i+d)), a failing map carries its exact rank,
    and r(i, 0) = h_i.  Since r(i, d) counts the strings that cover both i
    and i + d, the strings of length d + 1 that start in degree i number
    r(i, d) - r(i-1, d+1) - r(i, d+1) + r(i-1, d+2).
    """
    p, n = series.start, len(series.coeffs)
    # r[a][b] = r(p + a - 1, b - a), with a zero degree on either side
    h = (0, *series.coeffs, 0)
    r = [[a if a < b else b for b in h] for a in h]
    for f in failures:
        r[f.i - p + 1][f.i + f.d - p + 1] = f.rank
    return tuple(
        (p + a - 1, b - a + 1)
        for a in range(1, n + 1)
        for b in range(a, n + 1)
        for _ in range(r[a][b] - r[a - 1][b] - r[a][b + 1] + r[a - 1][b + 1])
    )


def _jordan_type_is_lefschetz(strings: Strings, only_d_one: bool) -> bool:
    """Whether every map (times ell^d) of a graded Jordan type has maximal
    rank: every d >= 1, or d = 1 alone.

    Let S_i be the strings that cover degree i.  The map from degree i to
    i + d has rank |S_i & S_(i+d)| <= min(|S_i|, |S_(i+d)|), with equality
    iff one set holds the other, so it misses maximal rank iff some string
    covers i but not i + d and another covers i + d but not i.  At d = 1
    that is a string that ends in degree i and another that starts in
    degree i + 1.  Over all d it is two strings [a, b] and [a', b'] with
    a < a' and b < b' (take i = a and i + d = b'), so every map has maximal
    rank iff the strings nest: any two of their intervals of degrees are
    comparable.  Sorted by start, the longest first, nested strings have
    ends that never rise, and such ends make each string hold the next.
    """
    if only_d_one:
        return not {s for s, _ in strings} & {s + m for s, m in strings}
    ends = [s + m for s, m in sorted(strings, key=lambda string: (string[0], -string[1]))]
    return all(a >= b for a, b in zip(ends, ends[1:]))


def _last_lefschetz_height(strings: Strings) -> float:
    """The height c* up to which the strings times (0, c) pass the SLP: they
    pass at every c <= c* and fail at every c > c*, and c* is 0 when no
    height passes and infinity when all do.

    Strings pass iff they nest (see :func:`_jordan_type_is_lefschetz`).
    By the Clebsch-Gordan rule (s, m) (x) (0, c) is the strings
    (s + k, m + c - 1 - 2k) for k < min(m, c), with the one doubled centre
    2s + m + c - 2, so they nest.  Two strings whose doubled centres differ
    by g nest iff their lengths differ by g or more.  The blocks of (s, m)
    and (t, n), m >= n, have g = |2s + m - 2t - n| at every c and lengths
    that differ by m - n - 2e, e from 1 - min(n, c) to min(m, c) - 1: a run
    of step 2 down from a term >= 0.  With g = 0 all of them nest, and with
    g = 1 too, as m - n is then odd.  With g >= 2 the run cannot step over
    (-g, g), so its last term m - n + 2 - 2 min(m, c) must reach g: false
    at c >= m, and c <= (m - n + 2 - g) / 2 otherwise, an integer since
    g = m - n mod 2.  At c = 1 this is the nesting of the pair itself, so
    a pair that does not nest bounds c* by 0.
    """
    last = math.inf
    for (s, m), (t, n) in combinations(set(strings), 2):
        gap = abs(2 * s + m - 2 * t - n)
        if gap >= 2:
            last = min(last, (abs(m - n) + 2 - gap) // 2)
    return max(last, 0)


def _wlp_failing_spans(strings: Strings) -> set[tuple[int, int]]:
    """The spans [lo, hi] of heights c at which the strings times (0, c)
    fail the WLP: the truncation fails at c iff some span holds c.

    By the Clebsch-Gordan rule (s, m) (x) (0, c) is the strings (s + k,
    m + c - 1 - 2k) for k < min(m, c), and the WLP fails iff one string
    ends in the degree before another starts (see
    :func:`_jordan_type_is_lefschetz`): s + m + c - 1 - k = t + j for some
    k < min(m, c) and j < min(n, c), that is 0 <= A + c - 2 <= min(m, c) +
    min(n, c) - 2 with A = s + m + 1 - t.  The right inequality reads
    c >= A for c <= min(m, n), A <= min(m, n) for c between m and n, and
    c <= m + n - A for c >= max(m, n), so with the left one it holds iff
    A <= min(m, n) and max(A, 2 - A, 1) <= c <= m + n - A.  A string never
    meets itself, or a copy of itself, as then A = m + 1 > m.
    """
    spans = set()
    for (s, m), (t, n) in permutations(set(strings), 2):
        a = s + m + 1 - t
        if a <= min(m, n):
            spans.add((max(a, 2 - a, 1), m + n - a))
    return spans


def _failures_of(strings: Strings, only_d_one: bool = False) -> tuple[MapFailure, ...]:
    """The maps (times ell^d): M_i -> M_(i+d) that miss maximal rank, in (d, i) order.

    The map's rank r(i, d) is the number of strings that cover both i and
    i + d, and h_i = r(i, 0).  Every d is tested, or d = 1 alone.  A type
    that :func:`_jordan_type_is_lefschetz` passes has no failing map and
    returns at once; only a failing type builds the table of every r(i, d).
    """
    if _jordan_type_is_lefschetz(strings, only_d_one):
        return ()
    p = min(s for s, _ in strings)
    q = max(s + m for s, m in strings) - 1
    spans = [[0] * (q + 1) for _ in range(q + 1)]
    for s, m in strings:
        spans[s][s + m - 1] += 1
    # cover[i][j]: strings that start in degree i or lower and end in j or higher
    cover = list(
        accumulate(
            (list(accumulate(reversed(row)))[::-1] for row in spans),
            lambda above, row: list(map(add, above, row)),
        )
    )
    h = [row[i] for i, row in enumerate(cover)]
    # a rank is at most min(h_i, h_(i+d)), so it misses it iff it is below both
    return tuple(
        MapFailure(i=i, d=d, rank=cover[i][i + d], expected=min(h[i], h[i + d]))
        for d in ((1,) if only_d_one else range(1, q - p + 1))
        for i in range(p, q - d + 1)
        if cover[i][i + d] < h[i] and cover[i][i + d] < h[i + d]
    )


def _split_strings(module: QuotientModule, ell: LinearForm) -> Optional[Strings]:
    """Graded Jordan type of a tensor-split module, read from its factors.

    A module whose variable classes (``QuotientModule._components``) are
    apart is the tensor product of one module per class, and ell acts on it
    as the sum of its restrictions, so its strings are the graded
    Clebsch-Gordan product of the factors' and the product box is never
    walked.  A class of one variable that no numerator generator involves
    is the algebra factor k[x_v]/(x_v^c), the single string (0, c), and
    builds no ideal; any other factor is read by :func:`_module_strings`.
    None when the module is zero, has one class, or ell vanishes on some
    class.  The classes are built once per module, so the second attempt
    that :func:`check_slp` makes for :func:`_module_strings` costs a few
    lookups.
    """
    caps = module.denominator.pure_power_caps
    # Only the unit ideal has a cap of 0, and it makes the module zero.
    if module.numerator.is_zero or 0 in caps:
        return None
    module.refuse_large_box()
    components = module._components
    if len(components) == 1:
        return None
    forms = [tuple(ell.coefficients[v] for v in c) for c in components]
    if not all(any(f) for f in forms):
        return None
    used = [any(e) for e in zip(*module.numerator.generator_exponents)]
    strings: Strings = ((0, 1),)
    for variables, coefficients in zip(components, forms):
        if len(variables) == 1 and not used[variables[0]]:
            factor: Strings = ((0, caps[variables[0]]),)
        else:
            numerator = _restricted(module.numerator, variables)
            if numerator.is_zero:
                # The numerator lives in another class, so this factor is an algebra.
                numerator = MonomialIdeal.unit(len(variables))
            factor = _module_strings(
                QuotientModule(numerator, _restricted(module.denominator, variables)),
                LinearForm(coefficients),
            )
        strings = _tensor_strings(strings, factor)
    return strings


def _module_strings(module: QuotientModule, ell: LinearForm) -> Strings:
    """Graded Jordan type of (times ell) on the module.

    Read from the factors when the module splits, else from the failures of
    one SLP scan of the module.  A factor's variables form one maximal
    class, so a factor never splits again.
    """
    split = _split_strings(module, ell)
    if split is not None:
        return split
    # through check_slp, the public name under which benchmarks/spans.py times scans
    return _strings(module.hilbert_series(), check_slp(module, ell).failures)


def check_wlp(module: QuotientModule, ell: Optional[LinearForm] = None) -> LefschetzReport:
    """Scan every (times ell): M_i -> M_{i+1} for maximal rank."""
    ell = Summand(module, form=ell).resolved_form()
    failures = _scan_maps(module, ell, only_d_one=True)
    return LefschetzReport(
        property="WLP", holds=not failures, failures=failures, linear_form=(ell,)
    )


def check_slp(module: QuotientModule, ell: Optional[LinearForm] = None) -> LefschetzReport:
    """Decide that every power map (times ell^d): M_i -> M_{i+d} has maximal rank.

    A split module is decided from the graded product of its factors'
    strings (see :func:`_split_strings`), failures included, and is never
    scanned as a whole; any other module is scanned.  Either way every
    failure is exact and in scan order.
    """
    ell = Summand(module, form=ell).resolved_form()
    strings = _split_strings(module, ell)
    failures = _scan_maps(module, ell, False) if strings is None else _failures_of(strings)
    return LefschetzReport(
        property="SLP", holds=not failures, failures=failures, linear_form=(ell,)
    )


def tensor_truncation_failures(
    module: QuotientModule,
    heights: Iterable[int],
    ell: Optional[LinearForm] = None,
    property: str = "SLP",
) -> list[int]:
    """The heights c at which ``module.tensor_truncation(c)`` fails the property.

    The truncation is taken with the form (ell, 1), so its strings are the
    graded product of the strings of ell on the module, read once (one
    scan at most), with the single string (0, c).  Under the SLP the
    truncation fails exactly at the heights above the one threshold
    :func:`_last_lefschetz_height` reads from pairs of those strings, and
    no height is tested on its own.  Under the WLP it fails exactly at the
    heights in the spans :func:`_wlp_failing_spans` reads from ordered
    pairs of them.  No truncation, no product and no table of ranks is
    built, and the verdicts are those of ``check_slp`` and ``check_wlp``
    on each truncation.  Heights are checked as ``tensor_truncation``
    checks them, the form as a ``Summand`` does, and a truncation box that
    the scan would refuse is refused.
    """
    if property not in ("WLP", "SLP"):
        raise ValueError("property must be 'WLP' or 'SLP'")
    heights = list(heights)
    for c in heights:
        module.refuse_truncation(c)
    ell = Summand(module, form=ell).resolved_form()
    if not heights:
        return []
    cells = math.prod(module.denominator.pure_power_caps) * max(heights)
    if not module.numerator.is_zero and cells > MAX_BOX_CELLS:
        raise ValueError(
            f"the pure-power box of {module} times k[t]/(t^{max(heights)}) has "
            f"{cells} cells, over the limit of {MAX_BOX_CELLS}"
        )
    strings = _module_strings(module, ell)
    if property == "SLP":
        last = _last_lefschetz_height(strings)
        return [c for c in heights if c > last]
    spans = _wlp_failing_spans(strings)
    return [c for c in heights if any(lo <= c <= hi for lo, hi in spans)]


def direct_sum_slp(
    modules: Sequence[QuotientModule],
    ell: Optional[LinearForm] = None,
    shifts: Optional[Sequence[int]] = None,
) -> bool:
    """Coincidence test for a direct sum of symmetric-series SLP summands.

    True iff the reflecting degrees pairwise coincide.  Coincidence implies
    the block-diagonal rank scan passes, and that direction is cross-checked
    here.  The converse can fail when a summand is supported in very few
    degrees (its maps are then vacuously compatible), so a passing block
    scan without coincidence is left alone.
    """
    if not modules:
        raise ValueError("direct sum needs at least one module")
    if shifts is None:
        shifts = [0] * len(modules)
    if len(shifts) != len(modules):
        raise ValueError(f"{len(shifts)} shifts given for {len(modules)} modules")
    summands = [
        Summand(m, shift=s, form=ell or LinearForm.all_ones(m.nvars))
        for m, s in zip(modules, shifts)
    ]
    degrees: list[ReflectingDegree] = []
    for summand in summands:
        reflecting = is_symmetric(summand.series())
        if reflecting is None:
            raise ValueError(f"summand {summand.module} has a non-symmetric series")
        if not check_slp(summand.module, summand.form).holds:
            raise ValueError(f"summand {summand.module} does not itself have the SLP")
        degrees.append(reflecting)
    verdict = all(
        degrees_coincide(r1, r2) for r1 in degrees for r2 in degrees
    )
    if verdict and not direct_sum_check(summands, property="SLP").holds:
        raise RuntimeError(
            "coinciding reflecting degrees but the block-diagonal scan fails"
        )
    return verdict


@dataclass(frozen=True)
class CSMEntry:
    """One central simple module: exponent f, the quotient V, and its tilde."""

    exponent: int
    module: QuotientModule
    hilbert: HilbertSeries
    tilde: QuotientModule


@dataclass(frozen=True)
class CSMReport:
    variable: int
    nilpotency: int
    entries: tuple[CSMEntry, ...]


def csm_decompose(ideal: MonomialIdeal, v: int) -> CSMReport:
    """Central simple modules of S/I with respect to the variable x_v.

    Builds the chain of ideals U_j = (I : x_v^j) + (x_v) for j = 0..r, where
    r is the least j with x_v^j in I, and records each strict jump as a
    central simple module U_f / U_{f-1} together with its truncated-tensor
    extension.
    """
    if not ideal.is_artinian():
        raise ValueError("ideal must be Artinian")
    r = ideal.pure_power_exponent(v)
    xv = MonomialIdeal.from_generators([variable_power(ideal.nvars, v, 1)])
    chain = [ideal.colon_variable_power(v, j) + xv for j in range(r + 1)]
    entries = []
    for f in range(r, 0, -1):
        if chain[f] == chain[f - 1]:
            continue
        module = QuotientModule(chain[f], chain[f - 1])
        hilbert = module.hilbert_series()
        if hilbert.is_zero:
            raise RuntimeError("central simple module is unexpectedly zero")
        tilde = module.tensor_truncation(f)
        if tilde.hilbert_series() != hilbert.times_truncation(f):
            raise RuntimeError("tilde series does not match the truncation product")
        entries.append(CSMEntry(exponent=f, module=module, hilbert=hilbert, tilde=tilde))
    return CSMReport(variable=v, nilpotency=r, entries=tuple(entries))


def csm_slp_criterion(ideal: MonomialIdeal, v: int) -> bool:
    """Sufficient condition for SLP of S/I via central simple modules.

    True iff the direct sum of the tilde modules has the SLP with the
    all-ones form; False does not imply that S/I lacks the SLP.  The sum
    is decided by :func:`direct_sum_check` from the tildes' strings.  Each
    tilde then has the SLP too, since the sum of their ranks, each at most
    min(a_k, b_k), reaches min(sum a_k, sum b_k) only if every one does.
    """
    tildes = [entry.tilde for entry in csm_decompose(ideal, v).entries]
    # the unit ideal has no central simple module, so nothing is verified
    return bool(tildes) and direct_sum_check([Summand(t) for t in tildes], property="SLP").holds


class TensorCondition(Enum):
    """Which sufficient condition covers (x^a, y^b)-quotients tensored by a
    truncated polynomial variable."""

    SYMMETRIC_CASE = "symmetric"
    SMALL_CASE = "small"
    NONE = "none"


def tensor_slp_condition(alpha: int, beta: int, a: int, b: int) -> TensorCondition:
    """Sufficient condition for SLP of (x^alpha, y^beta)/(x^a, y^b, z^c), all c.

    SMALL_CASE when min < max <= 2; SYMMETRIC_CASE when min < max equals
    min(alpha + beta, a, b); NONE otherwise.
    """
    if not (0 <= alpha <= a and 0 <= beta <= b):
        raise ValueError("parameters must satisfy 0 <= alpha <= a, 0 <= beta <= b")
    lo, hi = min(alpha, beta), max(alpha, beta)
    if lo < hi <= 2:
        return TensorCondition.SMALL_CASE
    if lo < hi == min(alpha + beta, a, b):
        return TensorCondition.SYMMETRIC_CASE
    return TensorCondition.NONE


def type_two_ideal(
    a: int, b: int, c: int, alpha: int, beta: int, gamma: int
) -> MonomialIdeal:
    """The ideal (x^a, y^b, z^c, x^alpha z^gamma, y^beta z^gamma).

    Requires 0 < alpha < a, 0 < beta < b, 0 < gamma < c.  Then the five
    generators are the minimal ones as they stand: no pure power divides
    another, or a mixed generator, whose exponents lie below a, b and c;
    a mixed generator, with two variables, divides no pure power; and each
    mixed generator has a positive exponent where the other has none.
    """
    _refuse_type_two_params(a, b, c, alpha, beta, gamma)
    generators = [(a, 0, 0), (0, b, 0), (0, 0, c), (alpha, 0, gamma), (0, beta, gamma)]
    return MonomialIdeal(frozenset(map(Monomial, generators)), 3)


def _refuse_type_two_params(a: int, b: int, c: int, alpha: int, beta: int, gamma: int) -> None:
    """Raise ValueError unless 0 < alpha < a, 0 < beta < b, 0 < gamma < c."""
    if not (0 < alpha < a and 0 < beta < b and 0 < gamma < c):
        raise ValueError(
            "parameters must satisfy 0 < alpha < a, 0 < beta < b, 0 < gamma < c"
        )


@dataclass(frozen=True)
class TypeTwoVerdict:
    """Satisfied sufficient conditions plus the four doubled reflecting degrees
    of the tilde modules with respect to x and z (first and second each)."""

    conditions: frozenset[int]
    doubled_degrees: tuple[int, int, int, int]

    @property
    def predicts_slp(self) -> bool:
        return bool(self.conditions)


def type_two_slp_conditions(
    a: int, b: int, c: int, alpha: int, beta: int, gamma: int
) -> TypeTwoVerdict:
    """Evaluate the three SLP sufficient conditions for type-two ideals.

    Requires 0 < alpha < a, 0 < beta < b, 0 < gamma < c.  A nonempty
    condition set predicts the SLP of
    S/(x^a, y^b, z^c, x^alpha z^gamma, y^beta z^gamma).
    """
    _refuse_type_two_params(a, b, c, alpha, beta, gamma)
    lo, hi = min(alpha, beta), max(alpha, beta)
    conditions = set()
    if alpha + beta - 1 <= a + b - c <= alpha + beta + 1:
        conditions.add(1)
    if lo != hi == min(alpha + beta, a, b) and hi - gamma - 1 <= a + b - c <= hi - gamma + 1:
        conditions.add(2)
    if lo < hi <= 2 and a + b + gamma <= c + 2:
        conditions.add(3)
    doubled = (
        a + b + gamma - 3,
        gamma + alpha + beta + c - 3,
        alpha + beta + c - 3,
        lo + a + b + gamma - 3,
    )
    return TypeTwoVerdict(conditions=frozenset(conditions), doubled_degrees=doubled)

