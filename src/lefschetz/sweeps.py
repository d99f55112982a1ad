"""Exhaustive verification sweeps over small parameter corpora.

These drive both the CLI ``sweep`` verbs and the acceptance tests.  Each
sweep returns a summary dict with the number of cases examined and a list
of violation records; an empty list is the expected outcome.  Workers are
module-level functions so sweeps can run on a process pool.
"""

from __future__ import annotations

import itertools
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict
from typing import Callable, Iterable, Iterator, Optional

from .lefschetz import (
    check_slp,
    csm_slp_criterion,
    tensor_slp_condition,
    tensor_truncation_failures,
    type_two_ideal,
    type_two_slp_conditions,
    TensorCondition,
)
from .lgv import binomial_matrix, certify_rows, count_nonintersecting, staircase_rows
from .monomials import MonomialIdeal, QuotientModule, algebra_quotient
from .series import is_almost_centered


def _staircase_heights(a: int, b: int) -> Iterator[tuple[int, ...]]:
    """The a non-increasing column heights in 0..b, the tallest first."""
    return itertools.combinations_with_replacement(range(b, -1, -1), a)


def staircase_ideal(a: int, b: int, heights: tuple[int, ...]) -> MonomialIdeal:
    """The ideal whose complement has the given non-increasing column heights.

    The minimal generators are the corners of the staircase: x^i y^(h_i)
    where the height drops (or i = 0), and x^a unless the last column is
    already empty.  They come in ascending lex order, x^a last.
    """
    corners = [(i, h) for i, h in enumerate(heights) if i == 0 or h < heights[i - 1]]
    if not heights or heights[-1]:
        corners.append((a, 0))
    return MonomialIdeal(tuple(corners), 2)


# The largest default corpus, the LGV oracle's, has 3,984 cases.
_MAX_CASES = 100_000


def _corpus(items: Iterable) -> list:
    """A sweep's cases, refused when there are none or more than _MAX_CASES;
    at most _MAX_CASES + 1 are built, so a huge parameter space is never
    enumerated."""
    cases = list(itertools.islice(items, _MAX_CASES + 1))
    if not cases:
        raise ValueError("empty corpus: the sweep parameters select no cases")
    if len(cases) > _MAX_CASES:
        raise ValueError(f"the sweep parameters select more than {_MAX_CASES} cases")
    return cases


def _run(
    worker: Callable,
    items: list,
    jobs: int,
) -> list:
    cpus = os.cpu_count() or 1
    if not 1 <= jobs <= cpus:
        raise ValueError(f"jobs must be between 1 and {cpus}, got {jobs}")
    if jobs == 1:
        return [worker(item) for item in items]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(worker, items, chunksize=16))


def _run_mirrored(
    worker: Callable,
    items: list,
    mirror: Callable,
    labels: Callable[[tuple], dict],
    jobs: int,
) -> list[dict]:
    """The violations of ``worker`` over ``items``, one run per mirror orbit.

    ``mirror`` swaps the variables x and y in an item's parameters.  The
    swap is a graded automorphism of the ring that fixes the all-ones form,
    so an item and its mirror have equal ranks for every map and equal
    sufficient conditions: the worker gives both the same record up to the
    item's own labels.  The worker runs once on the smaller item of each
    orbit {p, mirror(p)} in ``items``, and every violation is relabelled
    with ``labels(item)``.
    """
    present = set(items)
    reps = [min(p, m) if (m := mirror(p)) in present else p for p in items]
    distinct = list(dict.fromkeys(reps))
    results = dict(zip(distinct, _run(worker, distinct, jobs)))
    return [
        {**results[rep], **labels(item)}
        for item, rep in zip(items, reps)
        if results[rep]
    ]


def _summary(cases: int, violations: list[dict]) -> dict:
    violations.sort(key=repr)
    return {"cases": cases, "violations": violations, "ok": not violations}


# --- main theorem: every staircase quotient of a 2-variable box has the SLP ---

def _main_theorem_case(args: tuple[int, int, tuple[int, ...]]) -> Optional[dict]:
    a, b, heights = args
    ideal = staircase_ideal(a, b, heights)
    box = MonomialIdeal(((0, b), (a, 0)), 2)
    report = check_slp(QuotientModule(ideal, box))
    if report.holds:
        return None
    return {
        "a": a,
        "b": b,
        "ideal": str(ideal),
        "failures": [asdict(f) for f in report.failures],
    }


def _main_theorem_items(amax: int, bmax: int) -> Iterator[tuple[int, int, tuple[int, ...]]]:
    for a in range(2, amax + 1):
        for b in range(2, bmax + 1):
            for heights in _staircase_heights(a, b):
                yield (a, b, heights)


def _staircase_transpose(
    item: tuple[int, int, tuple[int, ...]]
) -> tuple[int, int, tuple[int, ...]]:
    """The staircase with x and y swapped: the b x a box, conjugate heights."""
    a, b, heights = item
    return (b, a, tuple(sum(h > j for h in heights) for j in range(b)))


def _main_theorem_labels(item: tuple[int, int, tuple[int, ...]]) -> dict:
    a, b, heights = item
    return {"a": a, "b": b, "ideal": str(staircase_ideal(a, b, heights))}


def sweep_main_theorem(amax: int = 6, bmax: int = 6, jobs: int = 1) -> dict:
    items = _corpus(_main_theorem_items(amax, bmax))
    violations = _run_mirrored(
        _main_theorem_case, items, _staircase_transpose, _main_theorem_labels, jobs
    )
    return _summary(len(items), violations)


# --- pipeline: the LGV certificate chain on the same corpus ---

def _pipeline_case(args: tuple[int, int, tuple[int, ...]]) -> list[dict]:
    a, b, heights = args
    # len(kept[e]) = dim M_e.  Every map runs the chain's checks; a map
    # from or to zero is not judged.
    kept = staircase_rows(a, b, heights)
    violations = []
    for i in range(1, a + b - 2):
        for d in range(1, a + b - 2 - i + 1):
            result = certify_rows(a, b, i, d, kept[i])
            if not kept[i] or not kept[i + d]:
                continue
            if not result.certificate or not result.maximal:
                violations.append(
                    {
                        "a": a,
                        "b": b,
                        "ideal": str(staircase_ideal(a, b, heights)),
                        "i": i,
                        "d": d,
                        "certificate": result.certificate,
                        "rank": result.rank,
                    }
                )
    return violations


def sweep_pipeline(amax: int = 6, bmax: int = 6, jobs: int = 1) -> dict:
    items = _corpus(_main_theorem_items(amax, bmax))
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
        "failures": [asdict(f) for f in report.failures],
    }


def _type_two_mirror(
    params: tuple[int, int, int, int, int, int]
) -> tuple[int, int, int, int, int, int]:
    a, b, c, alpha, beta, gamma = params
    return (b, a, c, beta, alpha, gamma)


def _params_labels(params: tuple[int, ...]) -> dict:
    return {"params": list(params)}


def sweep_type_two(limit: int = 5, jobs: int = 1) -> dict:
    items = _corpus(_type_two_params(limit))
    violations = _run_mirrored(
        _type_two_case, items, _type_two_mirror, _params_labels, jobs
    )
    return _summary(len(items), violations)


# --- tensor-extension sufficient condition implies the SLP ---

def _tensor_params(limit: int) -> Iterator[tuple[int, int, int, int]]:
    for a in range(1, limit + 1):
        for b in range(1, limit + 1):
            for alpha in range(0, a + 1):
                for beta in range(0, b + 1):
                    yield (alpha, beta, a, b)


def _tensor_module(alpha: int, beta: int, a: int, b: int) -> QuotientModule:
    """The module (x^alpha, y^beta)/(x^a, y^b), a, b >= 1; both generating
    sets are already minimal, so neither ideal is minimalised."""
    numerator = (
        MonomialIdeal(((0, beta), (alpha, 0)), 2) if alpha and beta else MonomialIdeal.unit(2)
    )
    box = MonomialIdeal(((0, b), (a, 0)), 2)
    return QuotientModule(numerator, box)


def _tensor_case(params: tuple[int, int, int, int]) -> Optional[dict]:
    alpha, beta, a, b = params
    if tensor_slp_condition(alpha, beta, a, b) is TensorCondition.NONE:
        return None
    module = _tensor_module(alpha, beta, a, b)
    bad_c = tensor_truncation_failures(module, range(1, a + b + 1))
    if not bad_c:
        return None
    return {"params": list(params), "failing_c": bad_c}


def _tensor_mirror(params: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
    alpha, beta, a, b = params
    return (beta, alpha, b, a)


def sweep_tensor(limit: int = 5, jobs: int = 1) -> dict:
    items = _corpus(_tensor_params(limit))
    violations = _run_mirrored(_tensor_case, items, _tensor_mirror, _params_labels, jobs)
    return _summary(len(items), violations)


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
    items = _corpus(_lgv_sequences(max_value, max_len))
    results = _run(_lgv_case, items, jobs)
    return _summary(len(items), [r for r in results if r])


# --- bounded surrogates for the "for all c" tensor lemmas ---
# The lemma sweeps enumerate parameter tuples and build each module in the
# worker, so an oversized corpus is refused before any module is built.

def _two_variable_params(limit: int) -> Iterator[tuple[int, int, int, int]]:
    """The tensor parameters of nonzero modules: (x^alpha, y^beta) lies in
    (x^a, y^b) iff alpha >= a and beta >= b."""
    return (p for p in _tensor_params(limit) if p[0] < p[2] or p[1] < p[3])


def two_variable_corpus(limit: int = 4) -> Iterator[QuotientModule]:
    """Nonzero modules (x^alpha, y^beta)/(x^a, y^b) with parameters <= limit."""
    return itertools.starmap(_tensor_module, _two_variable_params(limit))


def _almost_centered_case(params: tuple[int, int, int, int]) -> Optional[dict]:
    module = _tensor_module(*params)
    failing = tensor_truncation_failures(module, range(1, module.socle_degree() + 3))
    # M (x) k[t]/(t) is M, so height 1 is the module's own SLP.
    if 1 in failing:
        return None
    predicted = is_almost_centered(module.hilbert_series())
    actual = not failing
    if predicted == actual:
        return None
    return {"module": str(module), "almost_centered": predicted, "tensor_slp": actual}


def sweep_almost_centered_lemma(limit: int = 4, jobs: int = 1) -> dict:
    items = _corpus(_two_variable_params(limit))
    results = _run(_almost_centered_case, items, jobs)
    return _summary(len(items), [r for r in results if r])


def _algebra_params(limit: int) -> Iterator[tuple]:
    """(a,) for k[x]/(x^a), then (a, b, heights) for the staircases of the
    a x b boxes; a staircase algebra is zero iff its first column is empty."""
    yield from ((a,) for a in range(1, limit + 1))
    for a, b in itertools.product(range(1, limit + 1), repeat=2):
        yield from ((a, b, h) for h in _staircase_heights(a, b) if h[0])


def _algebra_module(params: tuple) -> QuotientModule:
    if len(params) == 1:
        return algebra_quotient(MonomialIdeal((params,), 1))
    return algebra_quotient(staircase_ideal(*params))


def algebra_corpus(limit: int = 4) -> Iterator[QuotientModule]:
    """Nonzero algebras S/I in one or two variables, staircases bounded by limit."""
    return map(_algebra_module, _algebra_params(limit))


def _algebra_tensor_case(params: tuple) -> Optional[dict]:
    module = _algebra_module(params)
    predicted = check_slp(module).holds
    heights = range(1, module.socle_degree() + 3)
    actual = not tensor_truncation_failures(module, heights, property="WLP")
    if predicted == actual:
        return None
    return {"module": str(module), "slp": predicted, "tensor_wlp": actual}


def sweep_algebra_tensor_lemma(limit: int = 4, jobs: int = 1) -> dict:
    items = _corpus(_algebra_params(limit))
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
    items = _corpus(_type_two_params(limit))
    results = _run(_csm_case, items, jobs)
    return _summary(len(items), [r for r in results if r])
