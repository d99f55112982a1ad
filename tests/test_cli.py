import contextlib
import hashlib
import io
import json
import os
import time

import pytest
from hypothesis import given, settings, strategies as st

from lefschetz import LinearForm, Monomial, MonomialIdeal, QuotientModule, check_slp, check_wlp
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


def test_parse_error_names_its_position_in_the_whole_expression(capsys):
    code, _, err = run(capsys, "check", "slp", "--num", "1", "--den", "x^3, y^3, x*y**2")
    assert code == 2
    assert err == "error: unexpected '*' (at position 14)\n"


def test_unknown_variable_exits_two(capsys):
    for argv in (
        ("csm", "--ideal", "x^2, y^2", "--variable", "q"),
        ("check", "slp", "--num", "1", "--den", "x^2, w^2"),
    ):
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
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


def test_csm_of_the_unit_ideal_verifies_nothing(capsys):
    code, out, _ = run(capsys, "csm", "--ideal", "1", "--vars", "3", "--format", "json")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["entries"] == []
    assert result["slp_criterion"] is False


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


# sha256 of the complete `--format json` output, newline included.  These
# bytes are the CLI's output contract: a refactor must leave them unchanged.
PINNED_JSON_DIGESTS = {
    ("reproduce", "example-1var"):
        "044ee4cd47ec2edb028f0fe3f2b72de83d7340af2b0653bca0e34c3ea4288464",
    ("reproduce", "example-lex"):
        "44978d03ff99a9254a1b98858a7b2fbc39a09409a0b1b16c06287739355c2906",
    ("reproduce", "example-3var"):
        "fdfa91835e02661633624a969ef2dd8cfa028057a292901ffbda42e602c7b6c2",
    ("reproduce", "remark-tensor"):
        "40636307ddd7f6ff3c1d653a331a98aeea09e88cf0cb437f57afca85d5600bb1",
    ("reproduce", "section4-csm"):
        "d9c5ba96f5d2c757425c0d4b989ed90ab8998ae3bc807317c58537f13e318268",
    ("check", "wlp", "--num", "x^2, y^2, z^2", "--den", "x^3, y^3, z^3"):
        "b9abebce7c5e84be26404d5cdf7acec6f346cf634e5fd54f9f762bec94759b90",
    # connected, with one failure ranked exactly
    ("check", "slp", "--num", "1", "--den", "x^8, y^8, z^8, x^4*y^4*z^4"):
        "f580d5f282a188d6eff38e3a8ec28badee1adbff438f44b2cd334e6bb81aa37e",
    ("check", "slp", "--num", "1", "--den", "x^6, y^6, z^6, x^5*y^5*z^5",
     "--linear-form", "-1,2,32749"):
        "84a3c4d3c6dc467bb2223b57cd443e25d7f77b55faf26c732cbb0a49a261b229",
    ("check", "slp", "--num", "1", "--den", "x^3, y^3, z^3, t^3, x^2*y^2*z^2*t^2"):
        "965f5c4723ec8ab919525ffc26a4a4483805e718f760032275e61244755b874b",
    # top degree 16 sits on a radix boundary
    ("check", "slp", "--num", "1", "--den", "x^17", "--vars", "1"):
        "e0c0f0285ed64ec4e857148c74b0d0e65805be9e09cbdf28a1e3390f6be284e5",
    # verbs that print ideals built by parsing, colon, sum and truncation
    ("hilbert", "--num", "x^3, y^4", "--den", "x^5, y^5"):
        "a2e7a02f34c52419feb4c28ed63742ffb3a64eb8e443ffca16eb3f25194d3cad",
    ("csm", "--ideal", "x^3, y^3, z^4, x*z, y*z", "--variable", "x"):
        "729ec39998088bafc4c536bce4fb7f35e940a9267d3cf597d0d466f78c923a0e",
    ("csm", "--ideal", "x^3, y^3, z^4, x*z, y*z", "--variable", "z"):
        "0a236d6a480ca4b30907d92b243fa121dfc1eb9a33cf1f7482a2be7aac9b5ed8",
    ("pipeline", "--a", "3", "--b", "4", "--ideal", "x^3, y^4", "--i", "1", "--d", "2"):
        "c56c17ba9e5b34ab1af21a2e00b4343449149bd1aa374fb630bc9d0320ab475a",
}


@pytest.mark.parametrize("argv", sorted(PINNED_JSON_DIGESTS))
def test_json_output_is_pinned(capsys, argv):
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_JSON_DIGESTS[argv]


def test_check_falls_back_to_random_forms(capsys):
    # x is no Lefschetz element of S/(x^2, y^2): x^2 kills M_0
    argv = ("check", "slp", "--num", "1", "--den", "x^2, y^2", "--linear-form", "1,0")
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["holds"] is False
    assert result["failures"] == [{"i": 0, "d": 2, "rank": 0, "expected": 1}]
    assert result["linear_form"] == [[1, 0]]
    code, out, _ = run(
        capsys, *argv, "--random-forms", "1", "--seed", "0", "--format", "json"
    )
    assert code == 0
    result = json.loads(out)["result"]
    assert result["holds"] is True
    assert result["failures"] == []
    assert result["linear_form"] == [[50, 98]]


def test_random_forms_are_drawn_only_when_asked_for(capsys):
    # a passing module never draws a witness, so a huge count costs nothing
    started = time.perf_counter()
    code, out, _ = run(
        capsys, "check", "slp", "--num", "1", "--den", "x^3, y^3, z^3",
        "--random-forms", "1000000", "--format", "json",
    )
    assert time.perf_counter() - started < 1.0
    assert code == 0
    assert json.loads(out)["result"]["linear_form"] == [[1, 1, 1]]
    # a module that fails for every form reports the last witness of the list API
    argv = ("check", "slp", "--num", "1", "--den", "x^5, y^5, z^5, x^2*y^2*z^2",
            "--random-forms", "3", "--seed", "7", "--format", "json")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["holds"] is False
    assert result["linear_form"] == [list(LinearForm.random_forms(3, 3, seed=7)[-1].coefficients)]


@pytest.mark.parametrize("form", ["-1,0", "-1, -2", "-3,2"])
def test_negative_linear_form_is_a_value(capsys, form):
    argv = ("check", "wlp", "--num", "1", "--den", "x^2, y^2", "--format", "json")
    code, out, err = run(capsys, *argv, "--linear-form", form)
    assert code == 0, err
    report = json.loads(out)
    coefficients = tuple(int(c) for c in form.split(","))
    assert report["inputs"]["linear_form"] == form
    assert report["result"]["linear_form"] == [list(coefficients)]
    module = QuotientModule(MonomialIdeal.unit(2), MonomialIdeal.from_generators(
        [Monomial((2, 0)), Monomial((0, 2))]))
    assert report["result"]["holds"] == check_wlp(module, LinearForm(coefficients)).holds
    # the attached spelling reads the same value
    assert run(capsys, *argv, f"--linear-form={form}")[1] == out


@st.composite
def small_modules(draw):
    """An Artinian quotient (I + J)/J in 2 or 3 variables, with J in a small box."""
    nvars = draw(st.integers(2, 3))
    monomial = st.tuples(*[st.integers(0, 3)] * nvars).map(Monomial)
    box = draw(st.tuples(*[st.integers(2, 4)] * nvars))
    powers = [Monomial(tuple(e if v == u else 0 for v in range(nvars))) for u, e in enumerate(box)]
    # no unit generator, so every variable shows in the denominator's text
    den = powers + draw(st.lists(monomial.filter(lambda m: m.degree > 0), max_size=2))
    num = draw(st.lists(monomial, max_size=2))
    numerator = MonomialIdeal.from_generators(num, nvars) if num else MonomialIdeal.unit(nvars)
    return QuotientModule(numerator, MonomialIdeal.from_generators(den, nvars))


@settings(max_examples=40, deadline=None)
@given(
    small_modules(),
    st.sampled_from(["wlp", "slp"]),
    st.lists(st.integers(-1, 2), min_size=3, max_size=3),
)
def test_check_json_matches_library(module, prop, coefficients):
    coefficients = coefficients[: module.nvars]
    form = LinearForm(tuple(coefficients)) if any(coefficients) else None
    argv = ["check", prop, "--num", str(module.numerator), "--den", str(module.denominator)]
    if form is not None:
        argv += ["--linear-form", ",".join(map(str, form.coefficients))]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv + ["--format", "json"]) == 0
    result = json.loads(out.getvalue())["result"]
    report = (check_wlp if prop == "wlp" else check_slp)(module, form)
    assert result["holds"] == report.holds
    assert [(f["i"], f["d"], f["rank"], f["expected"]) for f in result["failures"]] == [
        (f.i, f.d, f.rank, f.expected) for f in report.failures
    ]
    assert result["linear_form"] == [list(f.coefficients) for f in report.linear_form]


def test_format_from_environment(capsys, monkeypatch):
    monkeypatch.setenv("LEFSCHETZ_OUTPUT", "json")
    code, out, _ = run(capsys, "hilbert", "--num", "1", "--den", "x^2, y^2")
    assert code == 0
    json.loads(out)


def test_format_environment_is_read_on_every_call(capsys, monkeypatch):
    from lefschetz.cli import build_parser

    argv = ("hilbert", "--num", "1", "--den", "x^2, y^2")
    monkeypatch.delenv("LEFSCHETZ_OUTPUT", raising=False)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.startswith("command: hilbert\n")
    parser = build_parser()
    monkeypatch.setenv("LEFSCHETZ_OUTPUT", "json")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert json.loads(out)["command"] == "hilbert"
    # the second call reused the parser of the first
    assert build_parser() is parser


@pytest.mark.parametrize("value", ["JSON", "xml", " json"])
def test_unknown_output_environment_is_a_usage_error(capsys, monkeypatch, value):
    monkeypatch.setenv("LEFSCHETZ_OUTPUT", value)
    # checked before the handler runs, so the bad ideal is never parsed
    code, out, err = run(capsys, "hilbert", "--num", "1", "--den", "x^2, q")
    assert code == 2
    assert out == ""
    assert err == f"error: LEFSCHETZ_OUTPUT must be text or json, got {value!r}\n"


def test_empty_output_environment_is_unset_and_format_overrides_it(capsys, monkeypatch):
    argv = ("hilbert", "--num", "1", "--den", "x^2, y^2")
    monkeypatch.setenv("LEFSCHETZ_OUTPUT", "")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.startswith("command: hilbert\n")
    # --format decides alone; the variable is then not read
    monkeypatch.setenv("LEFSCHETZ_OUTPUT", "xml")
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert json.loads(out)["command"] == "hilbert"


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
        ("pipeline", "--max-b", "1"),
    ],
)
def test_empty_sweep_exits_two(capsys, argv):
    code, out, err = run(capsys, "sweep", *argv)
    assert code == 2
    assert out == ""
    assert "empty corpus" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("tensor", "--limit", "1000"),
        ("main-thm", "--max-a", "20", "--max-b", "20"),
        ("almost-centered", "--limit", "60"),
        ("algebra-tensor", "--limit", "60"),
    ],
)
def test_oversized_sweep_exits_two(capsys, argv):
    code, out, err = run(capsys, "sweep", *argv)
    assert code == 2
    assert out == ""
    assert "more than 100000 cases" in err


def test_main_theorem_sweep_refuses_limit(capsys):
    code, out, err = run(capsys, "sweep", "main-thm", "--limit", "3", "--format", "json")
    assert code == 2
    assert out == ""
    assert "--max-a" in err and "--max-b" in err


SWEEP_BOUNDS = {
    "main-thm": ("--max-a", "--max-b"),
    "pipeline": ("--max-a", "--max-b"),
    "type2": ("--limit",),
    "tensor": ("--limit",),
    "lgv-oracle": ("--limit",),
    "almost-centered": ("--limit",),
    "algebra-tensor": ("--limit",),
    "csm": ("--limit",),
}


@pytest.mark.parametrize(
    "verb, bound",
    [
        (verb, bound)
        for verb, reads in sorted(SWEEP_BOUNDS.items())
        for bound in ("--limit", "--max-a", "--max-b")
        if bound not in reads
    ],
)
def test_sweep_refuses_a_bound_it_does_not_read(capsys, verb, bound):
    from lefschetz.cli import _SWEEPS

    assert SWEEP_BOUNDS.keys() == _SWEEPS.keys()
    code, out, err = run(capsys, "sweep", verb, bound, "2", "--format", "json")
    assert code == 2
    assert out == ""
    reads = " and ".join(SWEEP_BOUNDS[verb])
    assert err == f"error: {verb} takes no {bound}; it reads {reads}\n"


def test_pipeline_sweep_reads_max_a_and_max_b(capsys):
    from lefschetz.sweeps import sweep_pipeline

    code, out, _ = run(
        capsys, "sweep", "pipeline", "--max-a", "3", "--max-b", "4", "--format", "json"
    )
    assert code == 0
    report = json.loads(out)
    assert (report["inputs"]["max_a"], report["inputs"]["max_b"]) == (3, 4)
    assert report["result"] == sweep_pipeline(amax=3, bmax=4)
    # staircases of the 2 x 2, 2 x 3, 2 x 4, 3 x 2, 3 x 3 and 3 x 4 boxes
    assert report["result"]["cases"] == 6 + 10 + 15 + 10 + 20 + 35
    assert report["result"]["ok"] is True


def test_lgv_oracle_sweep_reads_limit(capsys):
    code, out, _ = run(capsys, "sweep", "lgv-oracle", "--limit", "2", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["inputs"]["limit"] == 2
    # pairs of m-subsets of {0, 1, 2}, m = 1..3: sum of C(3, m)^2
    assert report["result"]["cases"] == 9 + 9 + 1
    assert report["result"]["ok"] is True


@pytest.mark.parametrize("argv", [("hilbert",), ("check", "slp")])
def test_non_artinian_denominator_exits_two(capsys, argv):
    code, out, err = run(capsys, *argv, "--num", "1", "--den", "x^2, x*y")
    assert code == 2
    assert out == ""
    assert err == "error: denominator must be Artinian\n"


@pytest.mark.parametrize("nvars", ["-1", "0", "5"])
def test_ambient_variable_count_out_of_range_exits_two(capsys, nvars):
    code, out, err = run(capsys, "hilbert", "--num", "0", "--den", "0", "--vars", nvars)
    assert code == 2
    assert out == ""
    assert err == "error: ambient variable count must be 1..4\n"


def test_negative_random_form_count_exits_two(capsys):
    code, out, err = run(
        capsys, "check", "slp", "--num", "1", "--den", "x^2, y^2", "--random-forms", "-3"
    )
    assert code == 2
    assert out == ""
    assert "nonnegative" in err


def test_oversized_box_exits_two_quickly(capsys):
    started = time.perf_counter()
    code, out, err = run(
        capsys, "check", "slp", "--num", "1", "--den", "x^40, y^40, z^40, t^40"
    )
    assert time.perf_counter() - started < 1.0
    assert code == 2
    assert out == ""
    assert "2560000 cells" in err


@pytest.mark.parametrize("jobs", ["0", "-1", str((os.cpu_count() or 1) + 1)])
def test_sweep_jobs_out_of_range_exits_two(jobs):
    # argparse rejects the value before any sweep or worker starts
    with pytest.raises(SystemExit) as excinfo:
        main(["sweep", "main-thm", "--max-a", "2", "--max-b", "2", "--jobs", jobs])
    assert excinfo.value.code == 2


@pytest.mark.parametrize("a", ["0", "-2"])
def test_pipeline_empty_box_exits_two(capsys, a):
    code, out, err = run(
        capsys, "pipeline", "--a", a, "--b", "5", "--ideal", "1", "--i", "1", "--d", "1"
    )
    assert code == 2
    assert out == ""
    assert "at least 1" in err


def test_internal_error_exits_one(capsys, monkeypatch):
    from lefschetz import cli
    from lefschetz.lgv import PipelineInvariantError

    def broken(*args):
        raise PipelineInvariantError("row offsets are not strictly decreasing")

    monkeypatch.setattr(cli, "run_pipeline", broken)
    code, out, err = run(
        capsys, "pipeline", "--a", "3", "--b", "4", "--ideal", "x^3, y^4",
        "--i", "2", "--d", "1",
    )
    assert code == cli.ASSERTION_ERROR == 1
    assert out == ""
    assert err.startswith("internal error: PipelineInvariantError:")
    assert len(err.splitlines()) == 1
