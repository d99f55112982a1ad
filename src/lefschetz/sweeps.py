"""Exhaustive verification sweeps over small parameter corpora.

These drive both the CLI ``sweep`` verbs and the acceptance tests.  Each
sweep returns a summary dict with the number of cases examined and a list
of violation records; an empty list is the expected outcome.  Workers are
module-level functions so sweeps can run on a process pool.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterable, Iterator, Optional

from .lefschetz import (
    check_slp,
    check_wlp,
    csm_slp_criterion,
    tensor_slp_condition,
    type_two_ideal,
    type_two_slp_conditions,
    TensorCondition,
)
from .lgv import binomial_matrix, cl_matrix, count_nonintersecting, run_pipeline
from .monomials import Monomial, MonomialIdeal, QuotientModule, algebra_quotient
from .series import is_almost_centered


def staircase_ideals(a: int, b: int) -> Iterator[MonomialIdeal]:
    """All monomial ideals containing (x^a, y^b), as staircases in the a x b box."""
    for heights in _staircase_heights(a, b):
        yield staircase_ideal(a, b, heights)


def _staircase_heights(a: int, b: int) -> Iterator[tuple[int, ...]]:
    def rec(prefix: tuple[int, ...], bound: int, slots: int) -> Iterator[tuple[int, ...]]:
        if slots == 0:
            yield prefix
            return
        for h in range(bound, -1, -1):
            yield from rec(prefix + (h,), h, slots - 1)

    yield from rec((), b, a)


def staircase_ideal(a: int, b: int, heights: tuple[int, ...]) -> MonomialIdeal:
    """The ideal whose complement has the given non-increasing column heights."""
    gens = [Monomial((i, h)) for i, h in enumerate(heights)]
    gens.append(Monomial((a, 0)))
    return MonomialIdeal.from_generators(gens, nvars=2)


def _run(
    worker: Callable,
    items: Iterable,
    jobs: int,
) -> list:
    items = list(items)
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if not items:
        raise ValueError("empty corpus: the sweep parameters select no cases")
    if jobs == 1:
        return [worker(item) for item in items]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(worker, items, chunksize=16))


def _summary(cases: int, violations: list[dict]) -> dict:
    violations.sort(key=repr)
    return {"cases": cases, "violations": violations, "ok": not violations}


# --- main theorem: every staircase quotient of a 2-variable box has the SLP ---

def _main_theorem_case(args: tuple[int, int, tuple[int, ...]]) -> Optional[dict]:
    a, b, heights = args
    ideal = staircase_ideal(a, b, heights)
    box = MonomialIdeal.from_generators([Monomial((a, 0)), Monomial((0, b))])
    report = check_slp(QuotientModule(ideal, box))
    if report.holds:
        return None
    return {
        "a": a,
        "b": b,
        "ideal": str(ideal),
        "failures": [
            {"i": f.i, "d": f.d, "rank": f.rank, "expected": f.expected}
            for f in report.failures
        ],
    }


def _main_theorem_items(
    amin: int, amax: int, bmin: int, bmax: int
) -> Iterator[tuple[int, int, tuple[int, ...]]]:
    for a in range(amin, amax + 1):
        for b in range(bmin, bmax + 1):
            for heights in _staircase_heights(a, b):
                yield (a, b, heights)


def sweep_main_theorem(
    amin: int = 2, amax: int = 6, bmin: int = 2, bmax: int = 6, jobs: int = 1
) -> dict:
    items = list(_main_theorem_items(amin, amax, bmin, bmax))
    results = _run(_main_theorem_case, items, jobs)
    return _summary(len(items), [r for r in results if r])


# --- pipeline: the LGV certificate chain on the same corpus ---

def _pipeline_case(args: tuple[int, int, tuple[int, ...]]) -> list[dict]:
    a, b, heights = args
    ideal = staircase_ideal(a, b, heights)
    # The trimmed column labels depend on the target degree i + d alone.
    target_dims = {
        e: sum(1 for m in cl_matrix(a, b, 1, e - 1).col_labels if ideal.contains(m))
        for e in range(2, a + b - 1)
    }
    violations = []
    for i in range(1, a + b - 2):
        for d in range(1, a + b - 2 - i + 1):
            result = run_pipeline(a, b, ideal, i, d)
            source_dim = result.restricted.matrix.rows
            target_dim = target_dims[i + d]
            if source_dim == 0 or target_dim == 0:
                continue
            if not result.certificate or not result.maximal:
                violations.append(
                    {
                        "a": a,
                        "b": b,
                        "ideal": str(ideal),
                        "i": i,
                        "d": d,
                        "certificate": result.certificate,
                        "rank": result.rank,
                    }
                )
    return violations


def sweep_pipeline(
    amin: int = 2, amax: int = 6, bmin: int = 2, bmax: int = 6, jobs: int = 1
) -> dict:
    items = list(_main_theorem_items(amin, amax, bmin, bmax))
    results = _run(_pipeline_case, items, jobs)
    return _summary(len(items), [v for sub in results for v in sub])


# --- type-two sufficient conditions imply the SLP ---

def _type_two_params(limit: int) -> Iterator[tuple[int, int, int, int, int, int]]:
    for a, b, c in itertools.product(range(2, limit + 1), repeat=3):
        for alpha in range(1, a):
            for beta in range(1, b):
                for gamma in range(1, c):
                    yield (a, b, c, alpha, beta, gamma)


def _type_two_case(params: tuple[int, int, int, int, int, int]) -> Optional[dict]:
    a, b, c, alpha, beta, gamma = params
    verdict = type_two_slp_conditions(a, b, c, alpha, beta, gamma)
    if not verdict.predicts_slp:
        return None
    ideal = type_two_ideal(a, b, c, alpha, beta, gamma)
    report = check_slp(algebra_quotient(ideal))
    if report.holds:
        return None
    return {
        "params": list(params),
        "conditions": sorted(verdict.conditions),
        "failures": [
            {"i": f.i, "d": f.d, "rank": f.rank, "expected": f.expected}
            for f in report.failures
        ],
    }


def sweep_type_two(limit: int = 5, jobs: int = 1) -> dict:
    items = list(_type_two_params(limit))
    results = _run(_type_two_case, items, jobs)
    return _summary(len(items), [r for r in results if r])


# --- tensor-extension sufficient condition implies the SLP ---

def _tensor_params(limit: int) -> Iterator[tuple[int, int, int, int]]:
    for a in range(1, limit + 1):
        for b in range(1, limit + 1):
            for alpha in range(0, a + 1):
                for beta in range(0, b + 1):
                    yield (alpha, beta, a, b)


def _tensor_case(params: tuple[int, int, int, int]) -> Optional[dict]:
    alpha, beta, a, b = params
    if tensor_slp_condition(alpha, beta, a, b) is TensorCondition.NONE:
        return None
    numerator = MonomialIdeal.from_generators(
        [Monomial((alpha, 0)), Monomial((0, beta))]
    )
    box = MonomialIdeal.from_generators([Monomial((a, 0)), Monomial((0, b))])
    module = QuotientModule(numerator, box)
    bad_c = [
        c
        for c in range(1, a + b + 1)
        if not check_slp(module.tensor_truncation(c)).holds
    ]
    if not bad_c:
        return None
    return {"params": list(params), "failing_c": bad_c}


def sweep_tensor(limit: int = 5, jobs: int = 1) -> dict:
    items = list(_tensor_params(limit))
    results = _run(_tensor_case, items, jobs)
    return _summary(len(items), [r for r in results if r])


# --- LGV determinant against the brute-force path-count oracle ---

def _lgv_sequences(max_value: int, max_len: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    values = range(max_value + 1)
    for m in range(1, max_len + 1):
        for a in itertools.combinations(values, m):
            for b in itertools.combinations(values, m):
                yield (a, b)


def _lgv_case(pair: tuple[tuple[int, ...], tuple[int, ...]]) -> Optional[dict]:
    a, b = pair
    matrix = binomial_matrix(a, b)
    det = matrix.determinant()
    count = count_nonintersecting(a, b)
    diagonal_ok = all(0 <= bi <= ai for ai, bi in zip(a, b))
    if det == count and det >= 0 and (det > 0) == diagonal_ok:
        return None
    return {"a": list(a), "b": list(b), "det": det, "count": count}


def sweep_lgv_oracle(max_value: int = 7, max_len: int = 3, jobs: int = 1) -> dict:
    items = list(_lgv_sequences(max_value, max_len))
    results = _run(_lgv_case, items, jobs)
    return _summary(len(items), [r for r in results if r])


# --- bounded surrogates for the "for all c" tensor lemmas ---

def two_variable_corpus(limit: int = 4) -> Iterator[QuotientModule]:
    """Nonzero modules (x^alpha, y^beta)/(x^a, y^b) with parameters <= limit."""
    for alpha, beta, a, b in _tensor_params(limit):
        numerator = MonomialIdeal.from_generators(
            [Monomial((alpha, 0)), Monomial((0, beta))]
        )
        box = MonomialIdeal.from_generators([Monomial((a, 0)), Monomial((0, b))])
        module = QuotientModule(numerator, box)
        if not module.hilbert_series().is_zero:
            yield module


def _almost_centered_case(module: QuotientModule) -> Optional[dict]:
    if not check_slp(module).holds:
        return None
    predicted = is_almost_centered(module.hilbert_series())
    bound = module.socle_degree() + 2
    actual = all(
        check_slp(module.tensor_truncation(c)).holds for c in range(1, bound + 1)
    )
    if predicted == actual:
        return None
    return {"module": str(module), "almost_centered": predicted, "tensor_slp": actual}


def sweep_almost_centered_lemma(limit: int = 4, jobs: int = 1) -> dict:
    items = list(two_variable_corpus(limit))
    results = _run(_almost_centered_case, items, jobs)
    return _summary(len(items), [r for r in results if r])


def algebra_corpus(limit: int = 4) -> Iterator[QuotientModule]:
    """Nonzero algebras S/I in one or two variables, staircases bounded by limit."""
    for a in range(1, limit + 1):
        yield algebra_quotient(
            MonomialIdeal.from_generators([Monomial((a,))], nvars=1)
        )
    for a in range(1, limit + 1):
        for b in range(1, limit + 1):
            for ideal in staircase_ideals(a, b):
                module = algebra_quotient(ideal)
                if not module.hilbert_series().is_zero:
                    yield module


def _algebra_tensor_case(module: QuotientModule) -> Optional[dict]:
    predicted = check_slp(module).holds
    bound = module.socle_degree() + 2
    actual = all(
        check_wlp(module.tensor_truncation(c)).holds for c in range(1, bound + 1)
    )
    if predicted == actual:
        return None
    return {"module": str(module), "slp": predicted, "tensor_wlp": actual}


def sweep_algebra_tensor_lemma(limit: int = 4, jobs: int = 1) -> dict:
    items = list(algebra_corpus(limit))
    results = _run(_algebra_tensor_case, items, jobs)
    return _summary(len(items), [r for r in results if r])


# --- CSM sufficient criterion soundness on the type-two corpus ---

def _csm_case(params: tuple[int, int, int, int, int, int]) -> Optional[dict]:
    a, b, c, alpha, beta, gamma = params
    ideal = type_two_ideal(a, b, c, alpha, beta, gamma)
    flagged = [v for v in (0, 2) if csm_slp_criterion(ideal, v)]
    if not flagged:
        return None
    if check_slp(algebra_quotient(ideal)).holds:
        return None
    return {"params": list(params), "criterion_variables": flagged}


def sweep_csm_criterion(limit: int = 4, jobs: int = 1) -> dict:
    items = list(_type_two_params(limit))
    results = _run(_csm_case, items, jobs)
    return _summary(len(items), [r for r in results if r])
