from collections import Counter
from math import comb

import pytest

import lefschetz.lefschetz as lefschetz_module
from lefschetz import Monomial, MonomialIdeal, QuotientModule, tensor_truncation_failures
from lefschetz.sweeps import (
    _staircase_heights,
    algebra_corpus,
    staircase_ideal,
    staircase_ideals,
    sweep_algebra_tensor_lemma,
    sweep_almost_centered_lemma,
    sweep_lgv_oracle,
    sweep_main_theorem,
    sweep_tensor,
    sweep_type_two,
    two_variable_corpus,
)


def test_staircase_count_is_binomial():
    for a in range(1, 6):
        for b in range(1, 6):
            assert sum(1 for _ in staircase_ideals(a, b)) == comb(a + b, a)


def test_staircases_are_distinct_and_contain_box():
    seen = set(staircase_ideals(3, 4))
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


def test_small_sweeps_are_clean():
    assert sweep_main_theorem(amax=3, bmax=3)["ok"]
    assert sweep_type_two(limit=3)["ok"]
    assert sweep_tensor(limit=3)["ok"]
    assert sweep_lgv_oracle(max_value=4, max_len=2)["ok"]


def test_parallel_matches_serial():
    serial = sweep_main_theorem(amax=3, bmax=3, jobs=1)
    parallel = sweep_main_theorem(amax=3, bmax=3, jobs=2)
    assert serial == parallel
    assert sweep_tensor(limit=3, jobs=1) == sweep_tensor(limit=3, jobs=2)


def test_corpora_are_nonzero_modules():
    modules = list(two_variable_corpus(limit=2))
    assert modules and all(not m.hilbert_series().is_zero for m in modules)
    algebras = list(algebra_corpus(limit=2))
    assert algebras and all(not m.hilbert_series().is_zero for m in algebras)


def test_empty_corpus_and_bad_job_count_are_rejected():
    with pytest.raises(ValueError, match="empty corpus"):
        sweep_main_theorem(amax=1)
    with pytest.raises(ValueError, match="empty corpus"):
        sweep_tensor(limit=0)
    with pytest.raises(ValueError, match="jobs"):
        sweep_main_theorem(amax=2, bmax=2, jobs=0)


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

    def counting_scan(summands, only_d_one):
        scanned[tuple(s.module for s in summands)] += 1
        return scan(summands, only_d_one)

    monkeypatch.setattr(QuotientModule, "tensor_truncation", refuse)
    monkeypatch.setattr(lefschetz_module, "_scan_maps", counting_scan)
    summary = sweep_tensor(limit=3)
    assert summary["ok"]
    # only two-variable bases are scanned, each at most once
    assert scanned and max(scanned.values()) == 1
    assert len(scanned) <= summary["cases"]
    assert all(module.nvars == 2 for key in scanned for module in key)


def test_truncation_verdict_is_constant_from_the_support_width():
    """M (x) k[t]/(t^c) keeps one SLP verdict for c from w to 4w, w = socle + 1.

    A cross-check on the lemma corpora, not a proof.
    """
    modules = [*two_variable_corpus(4), *algebra_corpus(4)]
    assert len(modules) == 410
    verdicts = Counter()
    for module in modules:
        width = module.socle_degree() + 1
        heights = range(width, 4 * width + 1)
        failing = tensor_truncation_failures(module, heights)
        assert failing in ([], list(heights)), str(module)
        verdicts[not failing] += 1
    assert verdicts[True] and verdicts[False]
