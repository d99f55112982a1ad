"""Benchmark of the lefschetz checker, one workload per run.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload check_large --seed 1 --seconds 40 --trace 0

The package is imported from ``src/`` of the working directory; without it
the run fails with exit code 2 and prints no result.  Everything runs in
this one process (``jobs=1``, no pool).

Set-up (import, inputs from the seed, warm-up) is repeated and its median
reported as ``setup_s``.  Then whole passes over the workload's inputs
repeat until ``--seconds`` is spent.  Every output is checked; see
``workloads.py``.  The last line of stdout is one JSON object; the lines
before it list the same metrics for a reader, plus ``ops_failed_ratio``.

End-to-end metrics (``--trace 0``).  An operation is one public call a user
waits for: one ``lefschetz check`` on ``check_large``, one sweep call on the
sweep workloads.

* ``check_p50_s``, ``check_p90_s`` -- nearest-rank percentiles, over the
  inputs, of each input's mean latency across the passes.  On
  ``check_large`` (54 inputs, at least 4 passes at 40 s) more than ten timed
  checks lie beyond p90; on the sweep workloads they are the latencies of
  the faster and the slower of the two sweep calls.
* ``checks_per_s`` -- operations per second of measured time.
* ``sweep_s`` -- mean time of one pass over the workload's inputs.
* ``cases_per_s`` -- cases per pass (checks, or sweep cases) over ``sweep_s``.
* ``setup_s``, ``peak_rss_mb``.

Times are in nominal seconds: measured seconds times the run's machine-speed
scale from ``speed.py``, which is printed as ``speed_scale``.  The scale is
a mean over the run, so the times it scales are means over passes too.

Per-layer metrics (``--trace 1``) come from passes run with spans around the
package's public functions (``spans.py``).  Untraced and traced passes
alternate; counts are per pass and must repeat exactly in every traced pass,
self times are medians over the traced passes, and ``trace.overhead_ratio``
is the median traced pass time over the median untraced one.
``sweeps.cases`` and ``sweeps.violations`` count the cases examined and the
violations reported in one pass (on ``check_large``, the checks).
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace
from typing import Optional

import spans
import workloads
from speed import SpeedProbe

SETUP_REPEATS = 9
PACKAGE = "lefschetz"

END_TO_END_UNITS = {
    "check_p50_s": "s",
    "check_p90_s": "s",
    "checks_per_s": "1/s",
    "sweep_s": "s",
    "cases_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metric -> the span names whose self time or span count it sums.
LAYER_SELF = {
    "monomials.degree_basis.self_s": ("monomials.degree_basis",),
    "monomials.hilbert_series.self_s": ("monomials.hilbert_series",),
    "monomials.contains.self_s": ("monomials.contains",),
    "monomials.self_s": (
        "monomials.degree_basis",
        "monomials.hilbert_series",
        "monomials.contains",
        "monomials.construct",
    ),
    "lefschetz.scan.self_s": ("lefschetz.scan",),
    "lefschetz.power_expansion.self_s": ("lefschetz.power_expansion",),
    "exact.rank.self_s": ("exact.rank",),
    "exact.build.self_s": ("exact.build",),
    "lgv.pipeline.self_s": ("lgv.pipeline",),
    "lgv.paths.self_s": ("lgv.paths",),
    "series.self_s": ("series",),
    "sweeps.self_s": ("sweeps",),
    "cli.self_s": ("cli",),
}
LAYER_CALLS = {
    "monomials.degree_basis.calls": "monomials.degree_basis",
    "monomials.hilbert_series.calls": "monomials.hilbert_series",
    "monomials.contains.calls": "monomials.contains",
    "lefschetz.scan.calls": "lefschetz.scan",
    "lefschetz.power_expansion.calls": "lefschetz.power_expansion",
    "exact.rank.calls": "exact.rank",
    "exact.determinant.calls": "exact.determinant",
    "lgv.pipeline.calls": "lgv.pipeline",
    "lgv.paths.calls": "lgv.paths",
}
LAYER_COUNTERS = ("exact.rank.entries", "exact.rank.max_entry_bits")


def locate_package(root: Path) -> Path:
    src = root / "src"
    if not (src / PACKAGE / "__init__.py").is_file():
        print(f"error: no {PACKAGE} package under {src}", file=sys.stderr)
        sys.exit(2)
    return src


def import_package(src: Path) -> SimpleNamespace:
    """A fresh import of the package from ``src``."""
    for name in [n for n in sys.modules if n.split(".")[0] == PACKAGE]:
        del sys.modules[name]
    importlib.invalidate_caches()
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    cli = importlib.import_module(f"{PACKAGE}.cli")
    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise RuntimeError(f"{PACKAGE} was imported from {cli.__file__}, not {src}")
    return SimpleNamespace(cli=cli, sweeps=importlib.import_module(f"{PACKAGE}.sweeps"))


def set_up(src: Path, name: str, seed: int):
    """Import, make the inputs and warm up, several times; keep the last.

    Returns the package, the workload and the median set-up time in
    nominal seconds.
    """
    times = []
    probe = SpeedProbe()
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        pkg = import_package(src)
        workload = workloads.make(name, seed)
        workload.warm_up(pkg)
        times.append(time.perf_counter() - started)
        probe.sample(times[-1])
    return pkg, workload, statistics.median(times) * probe.factor()


def run_pass(pkg, workload, probe: Optional[SpeedProbe] = None) -> dict:
    """One pass over every input; outputs are checked outside the timing."""
    latencies = []
    failed = cases = violations = 0
    for index, op in enumerate(workload.inputs):
        started = time.perf_counter()
        output = workload.call(pkg, op)
        latencies.append(time.perf_counter() - started)
        if probe is not None:
            probe.sample(latencies[-1])
        ok, op_cases, op_violations = workload.verify(index, op, output)
        failed += not ok
        cases += op_cases
        violations += op_violations
    return {
        "latencies": latencies,
        "time": sum(latencies),
        "failed": failed,
        "cases": cases,
        "violations": violations,
    }


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with a share q at or below it."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)), 1) - 1]


def layer_metrics(tracer: spans.Tracer, result: dict) -> dict:
    """Per-layer counts and self times of one traced pass."""
    totals = spans.self_times(tracer.spans)
    metrics: dict = {}
    for metric, name in LAYER_CALLS.items():
        metrics[metric] = totals.get(name, (0, 0))[0]
    for metric, names in LAYER_SELF.items():
        metrics[metric] = sum(totals.get(n, (0, 0))[1] for n in names) / 1e9
    calls = metrics["monomials.degree_basis.calls"]
    distinct = len(tracer.keys.get("monomials.degree_basis", ()))
    metrics["monomials.degree_basis.distinct_ratio"] = distinct / calls if calls else 0.0
    for counter in LAYER_COUNTERS:
        metrics[counter] = tracer.counters[counter]
    metrics["sweeps.cases"] = result["cases"]
    metrics["sweeps.violations"] = result["violations"]
    return metrics


def measure(pkg, workload, seconds: float, trace: bool) -> dict:
    """Repeat passes (untraced, or untraced and traced in turn) for ``seconds``."""
    untraced: list[dict] = []
    traced: list[dict] = []
    layers: list[dict] = []
    tracer = spans.Tracer()
    probe = SpeedProbe()
    deadline = time.perf_counter() + seconds
    while True:
        started = time.perf_counter()
        untraced.append(run_pass(pkg, workload, probe))
        if trace:
            with spans.install(tracer):
                traced.append(run_pass(pkg, workload))
            layers.append(layer_metrics(tracer, traced[-1]))
            tracer.reset()
        spent = time.perf_counter() - started
        if time.perf_counter() + spent > deadline:
            break
    return {"untraced": untraced, "traced": traced, "layers": layers, "speed": probe.factor()}


def end_to_end(runs: dict, setup_s: float) -> dict:
    """End-to-end metrics; times are scaled to nominal seconds (``speed.py``)."""
    passes = runs["untraced"]
    scale = runs["speed"]
    per_input = [scale * statistics.fmean(p["latencies"][i] for p in passes)
                 for i in range(len(passes[0]["latencies"]))]
    sweep_s = scale * statistics.fmean(p["time"] for p in passes)
    return {
        "check_p50_s": percentile(per_input, 0.5),
        "check_p90_s": percentile(per_input, 0.9),
        "checks_per_s": len(per_input) / sweep_s,
        "sweep_s": sweep_s,
        "cases_per_s": passes[0]["cases"] / sweep_s,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(runs: dict) -> tuple[dict, bool]:
    """Per-layer metrics, and whether every count repeated in every traced pass."""
    layers = runs["layers"]
    metrics = {}
    repeatable = True
    for key in layers[0]:
        values = [layer[key] for layer in layers]
        if key.endswith("_s"):
            metrics[key] = statistics.median(values)
        else:
            repeatable = repeatable and all(v == values[0] for v in values)
            metrics[key] = values[0]
    traced = statistics.median(p["time"] for p in runs["traced"])
    plain = statistics.median(p["time"] for p in runs["untraced"])
    metrics["trace.overhead_ratio"] = traced / plain
    return metrics, repeatable


def unit_of(metric: str) -> str:
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith("_bits"):
        return "bits"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = locate_package(Path.cwd())
    pkg, workload, setup_s = set_up(src, args.workload, args.seed)
    runs = measure(pkg, workload, args.seconds, bool(args.trace))
    passes = runs["untraced"] + runs["traced"]
    attempted = sum(len(p["latencies"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    if args.trace:
        metrics, repeatable = per_layer(runs)
    else:
        metrics, repeatable = end_to_end(runs, setup_s), True

    print(f"workload {args.workload} seed {args.seed}: {len(runs['untraced'])} untraced "
          f"and {len(runs['traced'])} traced passes, {attempted} operations")
    print(f"ops_failed_ratio {failed / attempted} ratio")
    print(f"speed_scale {runs['speed']} (measured seconds to nominal seconds)")
    if not repeatable:
        print("per-layer counts differed between traced passes")
    for key, value in metrics.items():
        print(f"{key} {value} {unit_of(key)}")
    result = {
        "correct": failed == 0 and repeatable,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
