import json
import os

import pytest

from lefschetz.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_hilbert_text(capsys):
    code, out, _ = run(
        capsys, "hilbert", "--num", "x^3, y^4", "--den", "x^5, y^5"
    )
    assert code == 0
    assert "result.series: t^3 + 3t^4 + 3t^5 + 3t^6 + 2t^7 + t^8" in out
    assert "command: hilbert" in out


def test_hilbert_json_is_byte_identical(capsys):
    args = ("hilbert", "--num", "x^2, y^2", "--den", "x^4, y^4", "--format", "json")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    report = json.loads(out1)
    assert report["command"] == "hilbert"
    assert report["runtime_ms"] == 0
    assert report["version"]
    assert report["result"]["almost_centered"] is False
    assert sorted(report) == list(report)


def test_check_passing(capsys):
    code, out, _ = run(
        capsys,
        "check",
        "slp",
        "--num",
        "x^3, y^4",
        "--den",
        "x^5, y^5",
        "--format",
        "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["result"]["holds"] is True
    assert report["failures"] == []


def test_check_failing_module_still_exits_zero(capsys):
    # the decision itself succeeded; a negative verdict is data, not an error
    code, out, _ = run(
        capsys,
        "check",
        "wlp",
        "--num",
        "x^2, y^2, z^2",
        "--den",
        "x^3, y^3, z^3",
        "--format",
        "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["result"]["holds"] is False
    assert {"i": 3, "d": 1, "rank": 5, "expected": 6} in report["failures"]


def test_check_custom_linear_form(capsys):
    code, out, _ = run(
        capsys,
        "check",
        "wlp",
        "--num",
        "1",
        "--den",
        "x^2, y^2",
        "--linear-form",
        "1,0",
        "--format",
        "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["result"]["linear_form"] == [[1, 0]]


def test_parse_error_exits_two(capsys):
    code, _, err = run(capsys, "hilbert", "--num", "x^^2", "--den", "x^3")
    assert code == 2
    assert "error:" in err


def test_unknown_variable_exits_two(capsys):
    code, _, err = run(capsys, "csm", "--ideal", "x^2, y^2", "--variable", "q")
    assert code == 2
    assert "error:" in err


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["check", "nope", "--num", "1", "--den", "x^2"])
    assert excinfo.value.code == 2


def test_csm_json(capsys):
    code, out, _ = run(
        capsys,
        "csm",
        "--ideal",
        "x^3, y^3, z^4, x*z, y*z",
        "--variable",
        "z",
        "--format",
        "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["result"]["nilpotency"] == 4
    assert [e["exponent"] for e in report["result"]["entries"]] == [4, 1]


def test_lgv_oracle(capsys):
    code, out, _ = run(
        capsys, "lgv", "--a", "1,3", "--b", "0,2", "--oracle", "--format", "json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["result"]["determinant"] == report["result"]["path_count"] == 3
    assert report["result"]["positivity"] == "positive"


def test_lgv_bad_sequence_exits_two(capsys):
    code, _, err = run(capsys, "lgv", "--a", "3,1", "--b", "0,1")
    assert code == 2


def test_pipeline_verb(capsys):
    code, out, _ = run(
        capsys,
        "pipeline",
        "--a",
        "3",
        "--b",
        "4",
        "--ideal",
        "x^3, y^4",
        "--i",
        "2",
        "--d",
        "1",
        "--format",
        "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["result"]["certificate"] is True
    assert report["result"]["maximal"] is True


def test_sweep_small(capsys):
    code, out, _ = run(
        capsys,
        "sweep",
        "main-thm",
        "--max-a",
        "3",
        "--max-b",
        "3",
        "--format",
        "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["result"]["ok"] is True
    assert report["result"]["violations"] == []


def test_reproduce_targets(capsys):
    for target in (
        "example-1var",
        "example-lex",
        "example-3var",
        "remark-tensor",
        "section4-csm",
    ):
        code, out, _ = run(capsys, "reproduce", target, "--format", "json")
        assert code == 0, target
        assert json.loads(out)["failures"] == []


def test_format_from_environment(capsys, monkeypatch):
    monkeypatch.setenv("LEFSCHETZ_OUTPUT", "json")
    code, out, _ = run(capsys, "hilbert", "--num", "1", "--den", "x^2, y^2")
    assert code == 0
    json.loads(out)


def test_short_linear_form_exits_two(capsys):
    code, _, err = run(
        capsys, "check", "wlp", "--num", "1", "--den", "x^2, y^2", "--linear-form", "1"
    )
    assert code == 2
    assert "linear form" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("main-thm", "--max-a", "1"),
        ("tensor", "--limit", "0"),
        ("type2", "--limit", "0"),
    ],
)
def test_empty_sweep_exits_two(capsys, argv):
    code, out, err = run(capsys, "sweep", *argv)
    assert code == 2
    assert out == ""
    assert "empty corpus" in err


@pytest.mark.parametrize("jobs", ["0", "-1", str((os.cpu_count() or 1) + 1)])
def test_sweep_jobs_out_of_range_exits_two(jobs):
    # argparse rejects the value before any sweep or worker starts
    with pytest.raises(SystemExit) as excinfo:
        main(["sweep", "main-thm", "--max-a", "2", "--max-b", "2", "--jobs", jobs])
    assert excinfo.value.code == 2
