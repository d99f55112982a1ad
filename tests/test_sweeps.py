import dataclasses
from collections import Counter
import math
from math import comb
import time

import pytest

import lefschetz.lefschetz as lefschetz_module
import lefschetz.sweeps as sweeps_module
from lefschetz import (
    LinearForm,
    Monomial,
    MonomialIdeal,
    QuotientModule,
    algebra_quotient,
    check_slp,
    run_pipeline,
    tensor_slp_condition,
    tensor_truncation_failures,
    type_two_ideal,
    type_two_slp_conditions,
)
from lefschetz.lgv import staircase_rows
from lefschetz.sweeps import (
    _main_theorem_case,
    _main_theorem_items,
    _pipeline_case,
    _staircase_heights,
    _staircase_transpose,
    _summary,
    _tensor_case,
    _tensor_mirror,
    _tensor_module,
    _tensor_params,
    _type_two_case,
    _type_two_mirror,
    _type_two_params,
    algebra_corpus,
    staircase_ideal,
    sweep_algebra_tensor_lemma,
    sweep_almost_centered_lemma,
    sweep_csm_criterion,
    sweep_lgv_oracle,
    sweep_main_theorem,
    sweep_tensor,
    sweep_type_two,
    two_variable_corpus,
)


def staircases(a, b):
    """Every monomial ideal containing (x^a, y^b), one per staircase."""
    return [staircase_ideal(a, b, heights) for heights in _staircase_heights(a, b)]


def test_staircase_count_is_binomial():
    for a in range(1, 6):
        for b in range(1, 6):
            assert len(staircases(a, b)) == comb(a + b, a)


def test_staircases_are_distinct_and_contain_box():
    seen = set(staircases(3, 4))
    assert len(seen) == comb(7, 3)
    box = [Monomial((3, 0)), Monomial((0, 4))]
    for ideal in seen:
        for g in box:
            assert ideal.contains(g)


def test_staircase_ideal_generators():
    ideal = staircase_ideal(3, 3, (2, 1, 1))
    assert ideal == MonomialIdeal.from_generators(
        [Monomial((0, 2)), Monomial((1, 1)), Monomial((3, 0))]
    )


def test_staircase_ideal_equals_minimalised_heights():
    # every staircase of every box up to 6 x 6, against minimalising all
    # a + 1 candidate generators
    for a in range(0, 7):
        for b in range(0, 7):
            for heights in _staircase_heights(a, b):
                gens = [Monomial((i, h)) for i, h in enumerate(heights)]
                gens.append(Monomial((a, 0)))
                expected = MonomialIdeal.from_generators(gens, nvars=2)
                assert staircase_ideal(a, b, heights) == expected


def test_kept_rows_from_heights_match_membership():
    # every staircase of criterion 04's boxes, and every degree up to the top,
    # against membership of each degree-e monomial outside (x^a, y^b)
    for a in range(2, 7):
        for b in range(2, 7):
            for heights in _staircase_heights(a, b):
                ideal = staircase_ideal(a, b, heights)
                rows = staircase_rows(a, b, heights)
                assert rows == [
                    tuple(n for n, j in enumerate(j for j in range(e + 1) if e - j < a and j < b)
                          if ideal.contains(Monomial((e - j, j))))
                    for e in range(a + b - 1)
                ]
                assert len(rows[a + b - 2]) == ideal.contains(Monomial((a - 1, b - 1)))


def test_pipeline_case_labels_each_violation_with_its_ideal(monkeypatch):
    # A certificate that always fails makes every map between nonzero
    # degrees a violation; the dimensions come from the module's own basis.
    certify = sweeps_module.certify_rows
    monkeypatch.setattr(
        sweeps_module,
        "certify_rows",
        lambda *args: dataclasses.replace(certify(*args), certificate=False),
    )
    for a, b, heights in [(3, 4, (3, 1, 0)), (4, 3, (3, 3, 2, 0)), (2, 2, (2, 2))]:
        ideal = staircase_ideal(a, b, heights)
        box = MonomialIdeal.from_generators([Monomial((a, 0)), Monomial((0, b))])
        module = QuotientModule(ideal, box)
        top = a + b - 2
        expected = [
            {"a": a, "b": b, "ideal": str(ideal), "i": i, "d": d, "certificate": False,
             "rank": run_pipeline(a, b, ideal, i, d).rank}
            for i in range(1, top)
            for d in range(1, top - i + 1)
            if module.degree_basis(i) and module.degree_basis(i + d)
        ]
        assert _pipeline_case((a, b, heights)) == expected


def test_small_sweeps_are_clean():
    assert sweep_main_theorem(amax=3, bmax=3)["ok"]
    assert sweep_type_two(limit=3)["ok"]
    assert sweep_tensor(limit=3)["ok"]
    assert sweep_lgv_oracle(max_value=4, max_len=2)["ok"]


def test_csm_sweep_is_clean():
    summary = sweep_csm_criterion(limit=3)
    assert summary["ok"] and summary["cases"] == 27


def test_parallel_matches_serial(monkeypatch):
    # two jobs take the pool path even on a one-CPU machine
    monkeypatch.setattr(sweeps_module.os, "cpu_count", lambda: 2)
    serial = sweep_main_theorem(amax=3, bmax=3, jobs=1)
    parallel = sweep_main_theorem(amax=3, bmax=3, jobs=2)
    assert serial == parallel
    assert sweep_tensor(limit=3, jobs=1) == sweep_tensor(limit=3, jobs=2)
    assert sweep_type_two(limit=3, jobs=1) == sweep_type_two(limit=3, jobs=2)


def test_corpora_are_nonzero_modules():
    modules = list(two_variable_corpus(limit=2))
    assert modules and all(not m.hilbert_series().is_zero for m in modules)
    algebras = list(algebra_corpus(limit=2))
    assert algebras and all(not m.hilbert_series().is_zero for m in algebras)
    # the parameter filters drop exactly the zero modules, in order
    limit = 4
    tensors = [_tensor_module(*p) for p in _tensor_params(limit)]
    assert list(two_variable_corpus(limit)) == [
        m for m in tensors if not m.hilbert_series().is_zero
    ]
    algebras = [
        algebra_quotient(MonomialIdeal.from_generators([Monomial((a,))], nvars=1))
        for a in range(1, limit + 1)
    ]
    algebras += [
        algebra_quotient(ideal)
        for a in range(1, limit + 1)
        for b in range(1, limit + 1)
        for ideal in staircases(a, b)
    ]
    assert list(algebra_corpus(limit)) == [
        m for m in algebras if not m.hilbert_series().is_zero
    ]


def test_tensor_module_equals_the_minimalised_construction():
    for alpha, beta, a, b in _tensor_params(5):
        numerator = MonomialIdeal.from_generators([Monomial((alpha, 0)), Monomial((0, beta))])
        box = MonomialIdeal.from_generators([Monomial((a, 0)), Monomial((0, b))])
        module = _tensor_module(alpha, beta, a, b)
        assert module == QuotientModule(numerator, box)
        assert module.numerator.generator_exponents == numerator.generator_exponents


def test_empty_corpus_and_bad_job_count_are_rejected():
    with pytest.raises(ValueError, match="empty corpus"):
        sweep_main_theorem(amax=1)
    with pytest.raises(ValueError, match="empty corpus"):
        sweep_tensor(limit=0)
    with pytest.raises(ValueError, match="jobs"):
        sweep_main_theorem(amax=2, bmax=2, jobs=0)


def test_oversized_corpus_is_refused_before_it_is_enumerated():
    limit = sweeps_module._MAX_CASES
    assert len(sweeps_module._corpus(range(limit))) == limit
    with pytest.raises(ValueError, match=f"more than {limit} cases"):
        sweeps_module._corpus(range(limit + 1))
    # about 2.5 * 10^11 tensor cases, so a full list would never finish
    started = time.perf_counter()
    with pytest.raises(ValueError, match=f"more than {limit} cases"):
        sweep_tensor(limit=1000)
    assert time.perf_counter() - started < 1
    # the lemma corpora are parameter tuples, so no module is built before
    # the refusal
    for sweep in (sweep_almost_centered_lemma, sweep_algebra_tensor_lemma):
        started = time.perf_counter()
        with pytest.raises(ValueError, match=f"more than {limit} cases"):
            sweep(limit=60)
        assert time.perf_counter() - started < 1
    # and each counts its corpus's modules
    for small in range(1, 5):
        assert sweep_almost_centered_lemma(limit=small)["cases"] == len(list(two_variable_corpus(small)))
        assert sweep_algebra_tensor_lemma(limit=small)["cases"] == len(list(algebra_corpus(small)))
    # the largest default corpus, the LGV oracle's, is far inside the limit
    assert len(sweeps_module._corpus(sweeps_module._lgv_sequences(7, 3))) == 3984


def test_jobs_over_the_cpu_count_are_refused_before_any_pool(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was built")

    monkeypatch.setattr(sweeps_module, "ProcessPoolExecutor", no_pool)
    jobs = (sweeps_module.os.cpu_count() or 1) + 1
    for sweep in (
        lambda: sweep_tensor(limit=2, jobs=jobs),
        lambda: sweep_type_two(limit=2, jobs=jobs),
        lambda: sweep_main_theorem(amax=2, bmax=2, jobs=jobs),
    ):
        with pytest.raises(ValueError, match=f"jobs must be between 1 and {jobs - 1}, got {jobs}"):
            sweep()
    # An unknown CPU count allows one job only.
    monkeypatch.setattr(sweeps_module.os, "cpu_count", lambda: None)
    with pytest.raises(ValueError, match="between 1 and 1, got 2"):
        sweep_tensor(limit=2, jobs=2)
    assert sweep_tensor(limit=2, jobs=1)["ok"]


def test_empty_lemma_corpora_are_rejected():
    with pytest.raises(ValueError, match="empty corpus"):
        sweep_almost_centered_lemma(limit=0)
    with pytest.raises(ValueError, match="empty corpus"):
        sweep_algebra_tensor_lemma(limit=0)


def test_sweep_tensor_builds_no_truncation_and_scans_each_base_once(monkeypatch):
    def refuse(self, c):
        raise AssertionError("the sweep built a truncation")

    scanned = Counter()
    scan = lefschetz_module._scan_maps

    def counting_scan(module, ell, only_d_one):
        scanned[module] += 1
        return scan(module, ell, only_d_one)

    monkeypatch.setattr(QuotientModule, "tensor_truncation", refuse)
    monkeypatch.setattr(lefschetz_module, "_scan_maps", counting_scan)
    summary = sweep_tensor(limit=3)
    assert summary["ok"]
    # only two-variable bases are scanned, each at most once
    assert scanned and max(scanned.values()) == 1
    assert len(scanned) <= summary["cases"]
    assert all(module.nvars == 2 for module in scanned)


def test_truncation_verdict_is_constant_from_the_support_width():
    """M (x) k[t]/(t^c) keeps one SLP verdict for every c >= w, w = socle + 1.

    The truncation passes exactly at the heights c <= c*, and a finite c*
    is at most (|m - n| + 2 - g) / 2 <= (max m - 1) / 2 < w for a pair of
    strings (see ``_last_lefschetz_height``).  So the verdict at w is the
    verdict at every larger c, and the heights 1, ..., w decide every c;
    the scan of [w, 4w] agrees.
    """
    modules = [*two_variable_corpus(4), *algebra_corpus(4)]
    assert len(modules) == 410
    verdicts = Counter()
    for module in modules:
        width = module.socle_degree() + 1
        strings = lefschetz_module._module_strings(module, LinearForm.all_ones(module.nvars))
        last = lefschetz_module._last_lefschetz_height(strings)
        assert last == math.inf or last < width, str(module)
        heights = range(width, 4 * width + 1)
        failing = tensor_truncation_failures(module, heights)
        assert failing == ([] if last == math.inf else list(heights)), str(module)
        verdicts[last] += 1
    # some pass at every height, and some fail above 1 and some above 2
    assert verdicts == Counter({math.inf: 391, 1: 15, 2: 4}), verdicts


# --- the x <-> y mirror: a sweep decides each orbit {p, mirror(p)} once ---


def _box(a, b):
    return MonomialIdeal.from_generators([Monomial((a, 0)), Monomial((0, b))])


def _every_item(worker, items):
    """The summary of running the worker on every item, with no mirror shortcut."""
    items = list(items)
    return _summary(len(items), [r for r in map(worker, items) if r])


def test_type_two_mirror_keeps_failures_and_conditions():
    items = list(_type_two_params(4))
    assert len(items) == 216
    for form, mirrored_form in [((1, 1, 1), (1, 1, 1)), ((2, -3, 5), (-3, 2, 5))]:
        failures = {
            p: check_slp(algebra_quotient(type_two_ideal(*p)), LinearForm(form)).failures
            for p in items
        }
        for p in items:
            mirrored = _type_two_mirror(p)
            assert _type_two_mirror(mirrored) == p
            assert type_two_slp_conditions(*p) == type_two_slp_conditions(*mirrored)
            assert (
                check_slp(algebra_quotient(type_two_ideal(*mirrored)), LinearForm(mirrored_form)).failures
                == failures[p]
            ), p
        assert sum(1 for f in failures.values() if f) == 26


def test_staircase_transpose_keeps_failures():
    items = list(_main_theorem_items(5, 5))
    assert len(items) == 874
    # x alone fails on most staircases, so the comparison is not vacuous
    for form, mirrored_form in [((1, 1), (1, 1)), ((1, 0), (0, 1))]:
        failures = {}
        for a, b, heights in items:
            module = QuotientModule(staircase_ideal(a, b, heights), _box(a, b))
            failures[a, b, heights] = check_slp(module, LinearForm(form)).failures
        for item in items:
            a, b, heights = item
            mirrored = _staircase_transpose(item)
            assert _staircase_transpose(mirrored) == item
            ideal, mirrored_ideal = staircase_ideal(*item), staircase_ideal(*mirrored)
            assert mirrored_ideal.generators == {
                Monomial(g.exponents[::-1]) for g in ideal.generators
            }
            module = QuotientModule(mirrored_ideal, _box(b, a))
            assert check_slp(module, LinearForm(mirrored_form)).failures == failures[item]
        assert any(failures.values()) == (form == (1, 0))


def test_tensor_mirror_keeps_conditions_and_failing_heights():
    failing = 0
    for p in _tensor_params(5):
        mirrored = _tensor_mirror(p)
        assert _tensor_mirror(mirrored) == p
        assert tensor_slp_condition(*p) == tensor_slp_condition(*mirrored)
        heights = range(1, p[2] + p[3] + 1)
        for form in [(1, 1), (2, -3)]:
            bad = tensor_truncation_failures(_tensor_module(*p), heights, LinearForm(form))
            assert tensor_truncation_failures(
                _tensor_module(*mirrored), heights, LinearForm(form[::-1])
            ) == bad, (p, form)
            failing += bool(bad)
    assert failing


def test_mirrored_sweeps_match_every_item_run():
    assert sweep_type_two(limit=5) == _every_item(_type_two_case, _type_two_params(5))
    assert sweep_tensor(limit=5) == _every_item(_tensor_case, _tensor_params(5))
    assert sweep_main_theorem(amax=4, bmax=4) == _every_item(
        _main_theorem_case, _main_theorem_items(4, 4)
    )


def test_mirrored_violations_keep_their_own_labels(monkeypatch):
    # Checks that fail on many items, with forms the swap fixes: z alone on
    # the type-two algebras, and ell + t on M (x) k[t]/(t^3) for staircases.
    monkeypatch.setattr(
        sweeps_module, "check_slp", lambda m: check_slp(m, LinearForm((0, 0, 1)))
    )
    summary = sweep_type_two(limit=4)
    assert summary == _every_item(_type_two_case, _type_two_params(4))
    labelled = {tuple(v["params"]) for v in summary["violations"]}
    assert len(labelled) == 167
    assert all(_type_two_mirror(p) in labelled for p in labelled)

    monkeypatch.setattr(
        sweeps_module, "check_slp", lambda m: check_slp(m.tensor_truncation(3))
    )
    ran = []
    run = sweeps_module._run

    def recording_run(worker, items, jobs):
        ran.extend(items)
        return run(worker, items, jobs)

    monkeypatch.setattr(sweeps_module, "_run", recording_run)
    # a 4 x 3 box has its transpose outside the corpus: it is run as itself
    for amax, bmax in [(4, 4), (4, 3)]:
        items = list(_main_theorem_items(amax, bmax))
        summary = sweep_main_theorem(amax=amax, bmax=bmax)
        assert summary["violations"]
        assert summary == _every_item(_main_theorem_case, items)
        assert set(ran) <= set(items)
        ran.clear()


def test_sweep_type_two_scans_one_module_per_mirror_pair(monkeypatch):
    scanned = []
    scan = lefschetz_module._scan_maps

    def counting_scan(module, ell, only_d_one):
        scanned.append(module)
        return scan(module, ell, only_d_one)

    monkeypatch.setattr(lefschetz_module, "_scan_maps", counting_scan)
    assert sweep_type_two(limit=4)["cases"] == 216
    # 167 algebras are predicted to have the SLP; 93 up to the swap
    assert len(scanned) == 93
