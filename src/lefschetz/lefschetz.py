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
from itertools import accumulate
from operator import add, mul
from typing import Iterable, Optional, Sequence

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
        if count < 0:
            raise ValueError(f"random form count must be nonnegative, got {count}")
        rng = random.Random(seed)
        return [
            cls(tuple(rng.randint(1, 100) for _ in range(nvars)))
            for _ in range(count)
        ]

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


def _scan_maps(
    module: QuotientModule, ell: LinearForm, only_d_one: bool
) -> tuple[MapFailure, ...]:
    """Failing maps (times ell^d): M_i -> M_{i+d} of one module, in (d, i) order.

    Powers are visited from longest to shortest.  Since ell^D factors as
    ell^(D-d) ell^d, an injective map out of M_i of length D makes every
    shorter map out of M_i injective, and a surjective map onto M_j of
    length D makes every shorter map onto M_j surjective.  Such maps have
    maximal rank and are skipped; every other map is ranked, so a failing
    map is never skipped.  A map of a two-variable module is ranked exactly
    by the window rule on its bases' y-exponents (see
    :func:`lgv._window_rank`).  Any other map is ranked mod p from its
    source monomials' images (see :func:`_images`).  A rank mod p is never
    above the rational rank, so an F_p rank of ``expected`` proves maximal
    rank; any other map is built over the integers by :func:`mult_matrix`
    and ranked again by exact elimination, so every failure rank is exact.
    """
    series = module.hilbert_series()
    if series.is_zero:
        return ()
    p, q = series.start, series.end
    # dims[k] = h_(p+k) and bases[k] is that degree's basis, read once through
    # degree_basis (the name under which benchmarks/spans.py times basis reads)
    # as y-exponents in two variables, else as codes in one radix above q.
    dims = series.coeffs
    max_d = 1 if only_d_one else q - p
    bases = [module.degree_basis(k) for k in range(p, q + 1)]
    if module.nvars == 2:
        # the window of ell^d is (0, d), or (d, d) without x and (0, 0) without y
        x, y = ell.coefficients
        bases = [[u.exponents[1] for u in basis] for basis in bases]
    else:
        shift = q.bit_length()
        bases = [[_pack(u.exponents, shift) for u in basis] for basis in bases]
    # Longest verified injective map out of each degree, surjective map onto it.
    injective_from: dict[int, int] = {}
    surjective_onto: dict[int, int] = {}
    failures = []
    for d in range(max_d, 0, -1):
        for i in range(p, q - d + 1):
            dim_source, dim_target = dims[i - p], dims[i + d - p]
            expected = min(dim_source, dim_target)
            if expected == 0:
                continue
            if injective_from.get(i, 0) >= d or surjective_onto.get(i + d, 0) >= d:
                continue
            source, target = bases[i - p], bases[i + d - p]
            if module.nvars == 2:
                rank = _window_rank(source, target, 0 if x else d, d if y else 0)
            else:
                table = _packed_power(ell, d, shift, CERTIFICATE_PRIME)
                rank = _rank_mod_p(_images(source, target, table))
                if rank != expected:
                    rank = mult_matrix(module, ell, d, i).rank()
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


def _components(module: QuotientModule) -> list[tuple[int, ...]]:
    """The variable classes a tensor split of the module keeps apart.

    The variables of each denominator generator are joined, and so are all
    variables of the numerator, so the numerator lives in one class.  A
    pure power joins nothing and is skipped.  A class and a support are
    bitmasks over the variables.
    """
    nvars = module.nvars
    bits = [1 << v for v in range(nvars)]
    numerator = 0
    for g in module.numerator.generator_exponents:
        numerator |= sum(map(mul, map(bool, g), bits))
    supports = [numerator] + [
        sum(map(mul, map(bool, g), bits))
        for g in module.denominator.generator_exponents
        if g.count(0) < nvars - 1
    ]
    classes = bits
    for support in supports:
        joined = [c for c in classes if c & support]
        if len(joined) > 1:
            classes = [c for c in classes if not c & support] + [sum(joined)]
            if len(classes) == 1:
                return [tuple(range(nvars))]
    return sorted(tuple(v for v in range(nvars) if c >> v & 1) for c in classes)


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


def _failures_of(strings: Strings, only_d_one: bool = False) -> tuple[MapFailure, ...]:
    """The maps (times ell^d): M_i -> M_(i+d) that miss maximal rank, in (d, i) order.

    The map's rank r(i, d) is the number of strings that cover both i and
    i + d, and h_i = r(i, 0).  Every d is tested, or d = 1 alone.
    """
    if not strings:
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

    A module whose variable classes (see :func:`_components`) are apart is
    the tensor product of one module per class, and ell acts on it as the
    sum of its restrictions, so its strings are the graded Clebsch-Gordan
    product of the factors' and the product box is never walked.  A
    one-variable factor k[x_v]/(x_v^c) is the single string (0, c); any
    other factor is read by :func:`_module_strings`.  None when the module
    is zero, has one class, or ell vanishes on some class.
    """
    caps = module.denominator.pure_power_caps
    # Only the unit ideal has a cap of 0, and it makes the module zero.
    if module.numerator.is_zero or 0 in caps:
        return None
    module.refuse_large_box()
    components = _components(module)
    if len(components) == 1:
        return None
    forms = [tuple(ell.coefficients[v] for v in c) for c in components]
    if not all(any(f) for f in forms):
        return None
    strings: Strings = ((0, 1),)
    for variables, coefficients in zip(components, forms):
        numerator = _restricted(module.numerator, variables)
        if numerator.is_zero:
            # The numerator lives in another class, so this factor is an algebra.
            numerator = MonomialIdeal.unit(len(variables))
        if len(variables) == 1 and numerator.is_unit:
            factor: Strings = ((0, caps[variables[0]]),)
        else:
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

    The truncation is taken with the form (ell, 1).  The strings of ell on
    the module are read once (one scan at most); the truncation's are their
    graded product with the single string (0, c), and :func:`_failures_of`
    decides each height from them: every power under the SLP, d = 1 under
    the WLP.  No truncation is built, and the verdicts are those of
    ``check_slp`` and ``check_wlp`` on each truncation.  Heights
    are checked as ``tensor_truncation`` checks them, the form as a
    ``Summand`` does, and a truncation box that the scan would refuse is
    refused.
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
    only_d_one = property == "WLP"
    return [
        c for c in heights if _failures_of(_tensor_strings(strings, ((0, c),)), only_d_one)
    ]


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
    return direct_sum_check([Summand(t) for t in tildes], property="SLP").holds


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
    """The ideal (x^a, y^b, z^c, x^alpha z^gamma, y^beta z^gamma)."""
    return MonomialIdeal.from_generators(
        [
            Monomial((a, 0, 0)),
            Monomial((0, b, 0)),
            Monomial((0, 0, c)),
            Monomial((alpha, 0, gamma)),
            Monomial((0, beta, gamma)),
        ]
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
    if not (0 < alpha < a and 0 < beta < b and 0 < gamma < c):
        raise ValueError(
            "parameters must satisfy 0 < alpha < a, 0 < beta < b, 0 < gamma < c"
        )
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

