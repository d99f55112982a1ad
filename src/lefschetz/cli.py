"""Command-line front end: parse ideals, run checks, sweeps, and replays."""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Optional, Sequence

from . import __version__, sweeps
from .lefschetz import (
    LinearForm,
    Summand,
    check_slp,
    check_wlp,
    csm_decompose,
    csm_slp_criterion,
    direct_sum_check,
    mult_matrix,
    type_two_slp_conditions,
)
from .lgv import binomial_matrix, count_nonintersecting, lgv_positivity, run_pipeline
from .monomials import (
    Monomial,
    MonomialIdeal,
    ParseError,
    QuotientModule,
    VARIABLES,
    algebra_quotient,
    lex_ideal,
    parse_ideal,
    parse_monomial,
)
from .series import is_almost_centered, is_symmetric, is_unimodal

USAGE_ERROR = 2
ASSERTION_ERROR = 1
FORMAT_ENV_VAR = "LEFSCHETZ_OUTPUT"


def _failure_dicts(report) -> list[dict]:
    return [
        {"i": f.i, "d": f.d, "rank": f.rank, "expected": f.expected}
        for f in report.failures
    ]


def _report_dict(report) -> dict:
    return {
        "property": report.property,
        "holds": report.holds,
        "failures": _failure_dicts(report),
        "linear_form": [list(f.coefficients) for f in report.linear_form],
    }


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ParseError(f"expected comma-separated integers, got {text!r}", 0) from exc


def _module_from_args(args) -> QuotientModule:
    nvars = args.vars
    if nvars is None:
        nvars = 1
        for text in (args.num, args.den):
            for i, v in enumerate(VARIABLES):
                if v in text:
                    nvars = max(nvars, i + 1)
    numerator = parse_ideal(args.num, nvars)
    denominator = parse_ideal(args.den, nvars)
    return QuotientModule(numerator, denominator)


def _forms_from_args(args, nvars: int) -> list[LinearForm]:
    base = (
        LinearForm(_parse_int_list(args.linear_form))
        if args.linear_form
        else LinearForm.all_ones(nvars)
    )
    forms = [base]
    if args.random_forms:
        forms.extend(LinearForm.random_forms(nvars, args.random_forms, args.seed))
    return forms


def _run_hilbert(args) -> tuple[dict, int]:
    module = _module_from_args(args)
    series = module.hilbert_series()
    result = {
        "module": str(module),
        "series": str(series),
        "start": series.start,
        "coefficients": list(series.coeffs),
        "symmetric": is_symmetric(series) is not None,
        "unimodal": is_unimodal(series),
        "almost_centered": is_almost_centered(series),
    }
    reflecting = is_symmetric(series)
    if reflecting is not None:
        result["doubled_reflecting_degree"] = reflecting.doubled
    return {"result": result, "failures": []}, 0


def _run_check(args) -> tuple[dict, int]:
    module = _module_from_args(args)
    checker = check_wlp if args.property == "wlp" else check_slp
    report = None
    for form in _forms_from_args(args, module.nvars):
        report = checker(module, form)
        if report.holds:
            break
    payload = _report_dict(report)
    payload["module"] = str(module)
    return {"result": payload, "failures": payload["failures"]}, 0


def _run_csm(args) -> tuple[dict, int]:
    ideal = parse_ideal(args.ideal, args.vars)
    try:
        variable = VARIABLES.index(args.variable)
    except ValueError:
        raise ParseError(f"unknown variable {args.variable!r}", 0)
    report = csm_decompose(ideal, variable)
    entries = []
    for entry in report.entries:
        tilde_series = entry.tilde.hilbert_series()
        reflecting = is_symmetric(tilde_series)
        entries.append(
            {
                "exponent": entry.exponent,
                "module": str(entry.module),
                "hilbert": str(entry.hilbert),
                "tilde": str(entry.tilde),
                "tilde_hilbert": str(tilde_series),
                "tilde_doubled_reflecting_degree": (
                    reflecting.doubled if reflecting else None
                ),
            }
        )
    result = {
        "ideal": str(ideal),
        "variable": args.variable,
        "nilpotency": report.nilpotency,
        "entries": entries,
        "slp_criterion": csm_slp_criterion(ideal, variable),
    }
    return {"result": result, "failures": []}, 0


def _run_lgv(args) -> tuple[dict, int]:
    a = _parse_int_list(args.a)
    b = _parse_int_list(args.b)
    det = binomial_matrix(a, b).determinant()
    result = {
        "a": list(a),
        "b": list(b),
        "determinant": det,
        "positivity": lgv_positivity(a, b).value,
    }
    failures = []
    if args.oracle:
        count = count_nonintersecting(a, b)
        result["path_count"] = count
        if count != det:
            failures.append({"a": list(a), "b": list(b), "det": det, "count": count})
    return {"result": result, "failures": failures}, (
        ASSERTION_ERROR if failures else 0
    )


def _run_pipeline_verb(args) -> tuple[dict, int]:
    ideal = parse_ideal(args.ideal, 2)
    result = run_pipeline(args.a, args.b, ideal, args.i, args.d)
    payload = {
        "a": args.a,
        "b": args.b,
        "ideal": str(ideal),
        "i": args.i,
        "d": args.d,
        "rows": [str(m) for m in result.restricted.row_labels],
        "cols": [str(m) for m in result.restricted.col_labels],
        "offsets": list(result.offsets),
        "certificate": result.certificate,
        "rank": result.rank,
        "maximal": result.maximal,
    }
    failures = []
    if result.certificate and not result.maximal:
        failures.append({"i": args.i, "d": args.d, "reason": "certificate mismatch"})
    return {"result": payload, "failures": failures}, (
        ASSERTION_ERROR if failures else 0
    )


def _limit(args, default: int) -> int:
    return default if args.limit is None else args.limit


_SWEEPS = {
    "main-thm": lambda args: sweeps.sweep_main_theorem(
        amax=args.max_a, bmax=args.max_b, jobs=args.jobs
    ),
    "type2": lambda args: sweeps.sweep_type_two(limit=_limit(args, 5), jobs=args.jobs),
    "tensor": lambda args: sweeps.sweep_tensor(limit=_limit(args, 5), jobs=args.jobs),
    "lgv-oracle": lambda args: sweeps.sweep_lgv_oracle(jobs=args.jobs),
    "almost-centered": lambda args: sweeps.sweep_almost_centered_lemma(
        limit=_limit(args, 4), jobs=args.jobs
    ),
    "algebra-tensor": lambda args: sweeps.sweep_algebra_tensor_lemma(
        limit=_limit(args, 4), jobs=args.jobs
    ),
    "csm": lambda args: sweeps.sweep_csm_criterion(
        limit=_limit(args, 4), jobs=args.jobs
    ),
}


def _run_sweep(args) -> tuple[dict, int]:
    summary = _SWEEPS[args.target](args)
    return {"result": summary, "failures": summary["violations"]}, (
        0 if summary["ok"] else ASSERTION_ERROR
    )


def _reproduce_one_variable() -> tuple[dict, list]:
    square = QuotientModule(
        MonomialIdeal.unit(1),
        MonomialIdeal.from_generators([Monomial((2,))]),
    )
    report = direct_sum_check(
        [Summand(square), Summand(square, shift=2)], property="WLP"
    )
    mismatches = []
    if report.holds:
        mismatches.append("expected the shifted direct sum to fail the WLP")
    if not any(f.i == 1 and f.d == 1 for f in report.failures):
        mismatches.append("expected a failure at the degree-1 to degree-2 map")
    return _report_dict(report), mismatches


def _reproduce_lex() -> tuple[dict, list]:
    numerator = parse_ideal("x^3, y^4", 2)
    denominator = parse_ideal("x^5, y^5", 2)
    module = QuotientModule(numerator, denominator)
    slp = check_slp(module)
    lex_num = lex_ideal(numerator)
    lex_den = lex_ideal(denominator)
    lex_module = QuotientModule(lex_num, lex_den)
    wlp = check_wlp(lex_module)
    series = lex_module.hilbert_series()
    mismatches = []
    if lex_num != parse_ideal("x^3, x^2*y^2, x*y^4, y^6", 2):
        mismatches.append(f"unexpected lex numerator {lex_num}")
    if lex_den != parse_ideal("x^5, x^4*y, x^3*y^3, x^2*y^5, x*y^7, y^9", 2):
        mismatches.append(f"unexpected lex denominator {lex_den}")
    if not slp.holds:
        mismatches.append("expected the original module to have the SLP")
    if series.coefficient(4) != 3 or series.coefficient(5) != 3:
        mismatches.append("expected dimension 3 in degrees 4 and 5")
    if not any(f.i == 4 and f.d == 1 for f in wlp.failures):
        mismatches.append("expected the lex module to fail the WLP at degree 4")
    payload = {
        "original_slp": _report_dict(slp),
        "lex_numerator": str(lex_num),
        "lex_denominator": str(lex_den),
        "lex_wlp": _report_dict(wlp),
    }
    return payload, mismatches


def _kernel_vector(module: QuotientModule, coeffs: dict, degree: int) -> list[int]:
    return [coeffs.get(m.exponents, 0) for m in module.degree_basis(degree)]


def _reproduce_three_variable() -> tuple[dict, list]:
    module = QuotientModule(parse_ideal("x^2, y^2, z^2"), parse_ideal("x^3, y^3, z^3"))
    series = module.hilbert_series()
    wlp = check_wlp(module)
    matrix = mult_matrix(module, LinearForm.all_ones(3), 1, 3)
    # x^2(y-z) + y^2(z-x) + z^2(x-y)
    vector = _kernel_vector(
        module,
        {
            (2, 1, 0): 1,
            (2, 0, 1): -1,
            (1, 2, 0): -1,
            (0, 2, 1): 1,
            (1, 0, 2): 1,
            (0, 1, 2): -1,
        },
        3,
    )
    image = matrix.apply(vector)
    mismatches = []
    if series.coefficient(3) != 6 or series.coefficient(4) != 6:
        mismatches.append("expected dimension 6 in degrees 3 and 4")
    if any(image):
        mismatches.append("expected the alternating element to lie in the kernel")
    if wlp.holds:
        mismatches.append("expected the module to fail the WLP")
    payload = {
        "series": str(series),
        "unimodal": is_unimodal(series),
        "wlp": _report_dict(wlp),
        "kernel_image": image,
    }
    return payload, mismatches


def _reproduce_tensor_remark() -> tuple[dict, list]:
    base = QuotientModule(parse_ideal("x^2, y^2", 2), parse_ideal("x^4, y^4", 2))
    series = base.hilbert_series()
    extended = base.tensor_truncation(3)
    slp = check_slp(extended)
    mismatches = []
    if str(series) != "2t^2 + 4t^3 + 3t^4 + 2t^5 + t^6":
        mismatches.append(f"unexpected Hilbert series {series}")
    if is_almost_centered(series):
        mismatches.append("expected the series not to be almost centered")
    if slp.holds:
        mismatches.append("expected the truncated extension to fail the SLP")
    # (x - y)(x^2 + y^2) = x^3 - x^2 y + x y^2 - y^3, in degree 3
    coeffs = {(3, 0, 0): 1, (2, 1, 0): -1, (1, 2, 0): 1, (0, 3, 0): -1}
    annihilating = []
    for failure in slp.failures:
        if failure.i != 3:
            continue
        matrix = mult_matrix(extended, LinearForm.all_ones(3), failure.d, 3)
        vector = _kernel_vector(extended, coeffs, 3)
        if not any(matrix.apply(vector)):
            annihilating.append({"i": failure.i, "d": failure.d})
    if not annihilating:
        mismatches.append(
            "expected a failing power map at degree 3 annihilating the element"
        )
    payload = {
        "series": str(series),
        "almost_centered": is_almost_centered(series),
        "slp": _report_dict(slp),
        "annihilating_maps": annihilating,
    }
    return payload, mismatches


def _reproduce_csm() -> tuple[dict, list]:
    a, b, c, alpha, beta, gamma = 3, 3, 4, 1, 1, 1
    ideal = parse_ideal("x^3, y^3, z^4, x*z, y*z")
    mismatches = []
    report_x = csm_decompose(ideal, 0)
    if [e.exponent for e in report_x.entries] != [a, alpha]:
        mismatches.append("expected exponents (a, alpha) for the x-decomposition")
    report_z = csm_decompose(ideal, 2)
    if [e.exponent for e in report_z.entries] != [c, gamma]:
        mismatches.append("expected exponents (c, gamma) for the z-decomposition")
    verdict = type_two_slp_conditions(a, b, c, alpha, beta, gamma)
    if 1 not in verdict.conditions:
        mismatches.append("expected condition 1 to hold for (3,3,4,1,1,1)")
    criterion = csm_slp_criterion(ideal, 0)
    if not criterion:
        mismatches.append("expected the CSM criterion to certify the SLP")
    slp = check_slp(algebra_quotient(ideal))
    if not slp.holds:
        mismatches.append("expected the algebra to have the SLP")
    payload = {
        "ideal": str(ideal),
        "x_exponents": [e.exponent for e in report_x.entries],
        "z_exponents": [e.exponent for e in report_z.entries],
        "conditions": sorted(verdict.conditions),
        "doubled_reflecting_degrees": list(verdict.doubled_degrees),
        "criterion": criterion,
        "slp": _report_dict(slp),
    }
    return payload, mismatches


_REPRODUCE = {
    "example-1var": _reproduce_one_variable,
    "example-lex": _reproduce_lex,
    "example-3var": _reproduce_three_variable,
    "remark-tensor": _reproduce_tensor_remark,
    "section4-csm": _reproduce_csm,
}


def _run_reproduce(args) -> tuple[dict, int]:
    payload, mismatches = _REPRODUCE[args.target]()
    failures = [{"mismatch": m} for m in mismatches]
    return {"result": payload, "failures": failures}, (
        ASSERTION_ERROR if mismatches else 0
    )


def _render_text(report: dict, stream) -> None:
    def emit(prefix: str, value) -> None:
        if isinstance(value, dict):
            for key in sorted(value):
                emit(f"{prefix}{key}.", value[key])
        elif isinstance(value, list):
            if not value:
                print(f"{prefix[:-1]}: []", file=stream)
            for idx, item in enumerate(value):
                emit(f"{prefix}{idx}.", item)
        else:
            print(f"{prefix[:-1]}: {value}", file=stream)

    print(f"command: {report['command']}", file=stream)
    emit("inputs.", report["inputs"])
    emit("result.", report["result"])
    emit("failures.", report["failures"])
    print(f"runtime_ms: {report['runtime_ms']}", file=stream)
    print(f"version: {report['version']}", file=stream)


def _job_count(text: str) -> int:
    """A worker count between 1 and the number of CPUs."""
    jobs = int(text)
    cpus = os.cpu_count() or 1
    if not 1 <= jobs <= cpus:
        raise argparse.ArgumentTypeError(f"must be between 1 and {cpus}, got {jobs}")
    return jobs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lefschetz",
        description="Decide and certify weak/strong Lefschetz properties of "
        "Artinian monomial quotient modules.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=["text", "json"],
        default=os.environ.get(FORMAT_ENV_VAR, "text"),
        help=f"output format (default from ${FORMAT_ENV_VAR}, else text)",
    )
    sub = parser.add_subparsers(dest="verb", required=True, parser_class=lambda **kw: argparse.ArgumentParser(parents=[common], **kw))

    def add_module_args(p):
        p.add_argument("--num", required=True, help="numerator ideal expression")
        p.add_argument("--den", required=True, help="denominator ideal expression")
        p.add_argument("--vars", type=int, default=None, help="ambient variable count")

    hilbert = sub.add_parser("hilbert", help="Hilbert series and shape predicates")
    add_module_args(hilbert)
    hilbert.set_defaults(handler=_run_hilbert)

    check = sub.add_parser("check", help="WLP/SLP decision for a quotient module")
    check.add_argument("property", choices=["wlp", "slp"])
    add_module_args(check)
    check.add_argument("--linear-form", default=None, help="comma-separated coefficients")
    check.add_argument("--random-forms", type=int, default=0)
    check.add_argument("--seed", type=int, default=0)
    check.set_defaults(handler=_run_check)

    csm = sub.add_parser("csm", help="central simple module decomposition")
    csm.add_argument("--ideal", required=True)
    csm.add_argument("--variable", default="x")
    csm.add_argument("--vars", type=int, default=None)
    csm.set_defaults(handler=_run_csm)

    lgv = sub.add_parser("lgv", help="binomial determinant and path-count oracle")
    lgv.add_argument("--a", required=True, help="ascending integers, comma-separated")
    lgv.add_argument("--b", required=True, help="ascending integers, comma-separated")
    lgv.add_argument("--oracle", action="store_true", help="run the path enumeration")
    lgv.set_defaults(handler=_run_lgv)

    pipeline = sub.add_parser("pipeline", help="LGV rank-certificate chain")
    pipeline.add_argument("--a", type=int, required=True)
    pipeline.add_argument("--b", type=int, required=True)
    pipeline.add_argument("--ideal", required=True)
    pipeline.add_argument("--i", type=int, required=True)
    pipeline.add_argument("--d", type=int, required=True)
    pipeline.set_defaults(handler=_run_pipeline_verb)

    sweep = sub.add_parser("sweep", help="exhaustive corpus sweeps")
    sweep.add_argument("target", choices=sorted(_SWEEPS))
    sweep.add_argument("--limit", type=int, default=None, help="parameter bound")
    sweep.add_argument("--max-a", type=int, default=6)
    sweep.add_argument("--max-b", type=int, default=6)
    sweep.add_argument("--jobs", type=_job_count, default=1, help="worker processes")
    sweep.set_defaults(handler=_run_sweep)

    reproduce = sub.add_parser("reproduce", help="replay the documented examples")
    reproduce.add_argument("target", choices=sorted(_REPRODUCE))
    reproduce.set_defaults(handler=_run_reproduce)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        body, exit_code = args.handler(args)
    except (ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except RuntimeError as exc:
        # A failed internal invariant, such as PipelineInvariantError, is
        # not the user's mistake: it gets its own message and exit code.
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return ASSERTION_ERROR
    inputs = {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in ("handler", "format") and value is not None
    }
    report = {
        "command": args.verb,
        "inputs": inputs,
        "result": body["result"],
        "failures": body["failures"],
        "runtime_ms": int((time.monotonic() - started) * 1000),
        "version": __version__,
    }
    if args.format == "json":
        # JSON reports must be byte-identical across runs for one input, so
        # the variable timing is zeroed there; the text rendering keeps it.
        report["runtime_ms"] = 0
        print(json.dumps(report, sort_keys=True))
    else:
        _render_text(report, sys.stdout)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
