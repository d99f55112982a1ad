"""Tests of the benchmark's own logic.

Run from the root of a checkout:  python3 -m pytest -q benchmarks/test_bench.py
"""

import json
import statistics
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import lefschetz.cli  # noqa: E402  (loads every package module)
from lefschetz import exact, lefschetz as lef, sweeps  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    """A clock that advances by a fixed step on every reading."""

    def __init__(self, step: int = 10) -> None:
        self.now = 0
        self.step = step

    def __call__(self) -> int:
        self.now += self.step
        return self.now


def test_same_seed_gives_same_inputs():
    assert workloads.check_large_inputs(7) == workloads.check_large_inputs(7)
    assert workloads.make("sweep_small", 1).inputs == workloads.make("sweep_small", 2).inputs


def test_new_seed_changes_check_large():
    first = workloads.check_large_inputs(7)
    second = workloads.check_large_inputs(8)
    assert first != second
    # The seed changes generators, never the shape of a slot.
    assert [argv[:2] for argv in first] == [argv[:2] for argv in second]
    assert first[-len(workloads.ANCHOR_SIZES):] == second[-len(workloads.ANCHOR_SIZES):]


def test_self_time_subtracts_direct_children():
    synthetic = [
        ["a", 0, 100, -1],
        ["b", 10, 40, 0],
        ["c", 15, 25, 1],
        ["b", 50, 70, 0],
        ["a", 200, 230, -1],
    ]
    assert spans.self_times(synthetic) == {
        "a": (2, (100 - 30 - 20) + 30),
        "b": (2, (30 - 10) + 20),
        "c": (1, 10),
    }


def test_wrapped_calls_record_nested_spans_and_fold_same_layer():
    tracer = spans.Tracer(clock=FakeClock())
    inner = tracer.wrap("m.inner", lambda: None, layer="m")
    outer = tracer.wrap("m.outer", lambda: inner())
    top = tracer.wrap("top", lambda: (outer(), inner()))
    top()
    names = [(s[0], s[3]) for s in tracer.spans]
    # Called from outer (layer m.outer, inside m) inner is folded into it;
    # called from top it gets its own span.
    assert names == [("top", -1), ("m.outer", 0), ("m.inner", 0)]
    totals = spans.self_times(tracer.spans)
    duration = {s[0]: s[2] - s[1] for s in tracer.spans}
    assert totals["top"][1] == duration["top"] - duration["m.outer"] - duration["m.inner"]
    assert tracer.stack == [] and tracer.layers == []


def test_observe_time_is_charged_to_its_own_span():
    tracer = spans.Tracer(clock=FakeClock())
    seen = []
    child = tracer.wrap("child", lambda x: x, observe=lambda t, args, kw: seen.append(args))
    parent = tracer.wrap("parent", lambda: child(3))
    assert parent() == 3
    assert seen == [(3,)]
    totals = spans.self_times(tracer.spans)
    assert set(totals) == {"parent", "child", spans.OBSERVE}
    parent_span = tracer.spans[0]
    whole = parent_span[2] - parent_span[1]
    assert sum(own for _calls, own in totals.values()) == whole


def test_install_patches_every_lookup_and_restores():
    originals = (lef.check_slp, sweeps.check_slp, lefschetz.cli.check_slp,
                 exact.ExactMatrix.__dict__["from_rows"])
    tracer = spans.Tracer()
    with spans.install(tracer):
        assert sweeps.check_slp is not originals[1]
        assert lefschetz.cli.check_slp is sweeps.check_slp
        assert exact.ExactMatrix.from_rows([[1, 2]]).cols == 2
    assert (lef.check_slp, sweeps.check_slp, lefschetz.cli.check_slp,
            exact.ExactMatrix.__dict__["from_rows"]) == originals
    assert spans.self_times(tracer.spans)["exact.build"][0] == 1


def _traced_counts():
    tracer = spans.Tracer()
    with spans.install(tracer):
        summary = sweeps.sweep_tensor(limit=2)
    metrics = run.layer_metrics(tracer, {"cases": summary["cases"], "violations": 0})
    return {k: v for k, v in metrics.items() if not k.endswith("_s")}


def test_traced_counts_repeat_exactly():
    first = _traced_counts()
    assert first == _traced_counts()
    assert first["lefschetz.scan.calls"] > 0
    assert first["monomials.degree_basis.calls"] > 0
    assert all(isinstance(v, int) for k, v in first.items() if not k.endswith("_ratio"))


def test_nearest_rank_percentile():
    values = [float(v) for v in range(10, 0, -1)]
    assert run.percentile(values, 0.5) == 5.0
    assert run.percentile(values, 0.9) == 9.0
    assert run.percentile([4.0], 0.9) == 4.0


def test_sweep_case_counts_match_the_package():
    for name in ("sweep_small", "certify_staircase"):
        workload = workloads.make(name, 0)
        for call in workload.warm_calls:
            summary = workload.call(SimpleNamespace(sweeps=sweeps), call)
            assert workload.verify(0, call, summary) == (True, call[2], 0)


def test_check_large_rejects_a_changed_report():
    workload = workloads.CheckLarge(0)
    index = workloads.RANDOM_CHECKS  # the smallest anchor
    argv = workload.inputs[index]
    output = workloads.run_check(lefschetz.cli, argv)
    assert workload.verify(index, argv, output)[0]
    code, text = output
    changed = text.replace('"holds": true', '"holds": false')
    assert not workload.verify(index, argv, (code, changed))[0]


def test_missing_package_exits_without_result(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run.locate_package(tmp_path)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_metrics_match_benchmark_json():
    declared = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    assert end_to_end == run.END_TO_END_UNITS
    layer_names = set(run.layer_metrics(spans.Tracer(), {"cases": 0, "violations": 0}))
    layer_names.add("trace.overhead_ratio")
    assert {m["name"] for m in declared["per_layer"]} == layer_names
    assert all(run.unit_of(m["name"]) == m["unit"] for m in declared["per_layer"])


def test_speed_probe_samples_in_proportion_to_work():
    probe = speed.SpeedProbe()
    probe.sample(0.0)
    probe.sample(10 * speed.PROBE_EVERY_S)
    assert len(probe.samples) == 11
    assert probe.factor() == speed.NOMINAL_CHUNK_S / statistics.fmean(probe.samples)
