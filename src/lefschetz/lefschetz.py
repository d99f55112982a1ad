"""Multiplication maps by powers of a linear form and Lefschetz deciders.

The canonical Lefschetz candidate for monomial data is the all-ones linear
form; callers may override it or sample random integer forms as extra
witnesses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from .exact import ExactMatrix, multinomial
from .monomials import (
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
    sum_series,
)


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
        rng = random.Random(seed)
        return [
            cls(tuple(rng.randint(1, 100) for _ in range(nvars)))
            for _ in range(count)
        ]

    def power_expansion(self, d: int) -> list[tuple[tuple[int, ...], int]]:
        """Monomial expansion of the d-th power: (exponent vector, coefficient)."""
        if d < 0:
            raise ValueError("power must be nonnegative")
        terms = []
        for m in monomials_of_degree(self.nvars, d):
            coeff = multinomial(d, m.exponents)
            for c, e in zip(self.coefficients, m.exponents):
                if e:
                    coeff *= c**e
            if coeff:
                terms.append((m.exponents, coeff))
        return terms

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


@dataclass(frozen=True)
class LefschetzReport:
    property: str
    holds: bool
    failures: tuple[MapFailure, ...]
    linear_form: tuple[LinearForm, ...]

    def __post_init__(self) -> None:
        if self.holds != (not self.failures):
            raise ValueError("holds must mirror an empty failure list")


def _matrix_between(
    source: Sequence[Monomial],
    target: Sequence[Monomial],
    expansion: Sequence[tuple[tuple[int, ...], int]],
) -> ExactMatrix:
    """Matrix of multiplication by an expanded form power, target x source."""
    index = {m.exponents: i for i, m in enumerate(target)}
    data = [[0] * len(source) for _ in range(len(target))]
    for j, u in enumerate(source):
        for exps, coeff in expansion:
            w = tuple(a + b for a, b in zip(u.exponents, exps))
            i = index.get(w)
            if i is not None:
                data[i][j] += coeff
    if not target:
        return ExactMatrix.zeros(0, len(source))
    return ExactMatrix.from_rows(data)


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
    source = module.degree_basis(i)
    target = module.degree_basis(i + d)
    return _matrix_between(source, target, ell.power_expansion(d))


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


def _scan_maps(summands: Sequence[Summand], only_d_one: bool) -> tuple[MapFailure, ...]:
    """Failing maps (times ell^d): M_i -> M_{i+d}, in (d, i) order.

    Powers are visited from longest to shortest.  Since ell^D factors as
    ell^(D-d) ell^d, an injective map out of M_i of length D makes every
    shorter map out of M_i injective, and a surjective map onto M_j of
    length D makes every shorter map onto M_j surjective.  Such maps have
    maximal rank and are skipped; every other map is ranked exactly, so a
    failing map is never skipped.  Block-diagonal sums factor blockwise.
    """
    series = sum_series(s.series() for s in summands)
    if series.is_zero:
        return ()
    p, q = series.start, series.end
    bases = [
        {
            d: s.module.degree_basis(d - s.shift) if d >= s.shift else []
            for d in range(p, q + 1)
        }
        for s in summands
    ]
    max_d = 1 if only_d_one else q - p
    expansions = [
        {d: s.resolved_form().power_expansion(d) for d in range(1, max_d + 1)}
        for s in summands
    ]
    dims = {i: sum(len(b[i]) for b in bases) for i in range(p, q + 1)}
    # Longest verified injective map out of each degree, surjective map onto it.
    injective_from: dict[int, int] = {}
    surjective_onto: dict[int, int] = {}
    failures = []
    for d in range(max_d, 0, -1):
        for i in range(p, q - d + 1):
            dim_source, dim_target = dims[i], dims[i + d]
            expected = min(dim_source, dim_target)
            if expected == 0:
                continue
            if injective_from.get(i, 0) >= d or surjective_onto.get(i + d, 0) >= d:
                continue
            blocks = [
                _matrix_between(b[i], b[i + d], exp[d])
                for b, exp in zip(bases, expansions)
            ]
            rank = ExactMatrix.block_diagonal(blocks).rank()
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
    """Block-diagonal maximal-rank scan over a direct sum of graded summands."""
    if property not in ("WLP", "SLP"):
        raise ValueError("property must be 'WLP' or 'SLP'")
    failures = _scan_maps(summands, only_d_one=property == "WLP")
    return LefschetzReport(
        property=property,
        holds=not failures,
        failures=failures,
        linear_form=tuple(s.resolved_form() for s in summands),
    )


def check_wlp(module: QuotientModule, ell: Optional[LinearForm] = None) -> LefschetzReport:
    """Scan every (times ell): M_i -> M_{i+1} for maximal rank."""
    ell = ell or LinearForm.all_ones(module.nvars)
    return direct_sum_check([Summand(module, form=ell)], property="WLP")


def check_slp(module: QuotientModule, ell: Optional[LinearForm] = None) -> LefschetzReport:
    """Scan every power map (times ell^d): M_i -> M_{i+d} for maximal rank."""
    ell = ell or LinearForm.all_ones(module.nvars)
    return direct_sum_check([Summand(module, form=ell)], property="SLP")


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
    if shifts is None:
        shifts = [0] * len(modules)
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

    True iff every tilde module has the SLP with the all-ones form and their
    direct sum passes the block-diagonal SLP scan.  False does not imply
    that S/I lacks the SLP.
    """
    report = csm_decompose(ideal, v)
    tildes = [entry.tilde for entry in report.entries]
    if not all(check_slp(t).holds for t in tildes):
        return False
    # The block-diagonal scan is exactly "the direct sum of the tildes has
    # the SLP", which is what the sufficiency theorem consumes; the
    # reflecting-degree shortcut is slightly stricter for summands with
    # tiny support.
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


def slp_with_witnesses(
    module: QuotientModule,
    extra_random_forms: int = 0,
    seed: int = 0,
) -> LefschetzReport:
    """SLP check with the all-ones form, optionally retrying random witnesses.

    Returns the first passing report, else the all-ones report.
    """
    report = check_slp(module)
    if report.holds or extra_random_forms <= 0:
        return report
    for form in LinearForm.random_forms(module.nvars, extra_random_forms, seed):
        candidate = check_slp(module, form)
        if candidate.holds:
            return candidate
    return report
