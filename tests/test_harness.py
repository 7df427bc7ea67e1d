"""Corpus verification end to end.

Claims checked:
  * verify_corpus checks every strongly connected digraph on up to
    three vertices and the standard families, with no failure, and a
    pool of two worker processes gives the same counts as one process
  * the verify command exits 0 on the same corpus
  * verify_corpus samples n = 5 and 6 from enumerate_digraphs (same
    digraphs, same seed), and an n past the sampled enumeration cap is
    one suite failure that names the cap
  * the verify command stops at once, with exit status 2, when an n
    up to --max-n is past an enumeration cap or --sample is below 1
  * check_digraph builds no MatrixPowers on the n <= 4 corpus: its sums
    over powers of A come from stacked power rows, and its odd-girth
    cross-check takes the walk route
  * check_conjugation reports a numeric spectrum that loses rank as a
    failure, in full_report's alarm words, instead of raising
  * check_weighted_set does the same for a weighted track that fails
    with a PerronError or an ArithmeticError
  * check_projection_sums reports a per-class projection above delta_k,
    and words failing random subset-system sums as it always has: the
    same Fraction totals, systems and order
  * random_subset_systems draws the same systems from the same rng as
    its set-based form did, for D = 0..5 and both diagonal modes
"""

import dataclasses
import hashlib
import json
import random
import time

import pytest

import dgexcess.classify as classify_module
from dgexcess import (AnalysisContext, MatrixPowers, PerronError, ProjectionBound,
                      digraph_to_edgelist, directed_cycle,
                      enumerate_digraphs, full_report, path, petersen)
from dgexcess.cli import main
from dgexcess.generators import ENUMERATION_CAP_SAMPLED
from dgexcess.harness import (check_conjugation, check_digraph,
                              check_projection_sums, check_weighted_set,
                              random_subset_systems, standard_families,
                              verify_corpus)


def test_verify_corpus_serial_and_pooled_agree():
    expected = [1, 18, len(standard_families())]
    for jobs in (1, 2):
        results = verify_corpus(max_n=3, jobs=jobs)
        assert [suite.checked for suite in results] == expected, jobs
        assert [suite.failures for suite in results] == [[], [], []], jobs


def test_verify_command_passes(capsys):
    assert main(["verify", "--max-n", "3"]) == 0
    assert "0 failure(s)" in capsys.readouterr().out


def test_verify_command_fails_fast_past_the_caps(capsys):
    # without --sample, n = 5 alone would enumerate 2^20 digraphs first
    start = time.perf_counter()
    assert main(["verify", "--max-n", "6"]) == 2
    assert time.perf_counter() - start < 5
    assert "exhaustive enumeration capped at n = 5" in capsys.readouterr().err


@pytest.mark.parametrize("sample", ["-3", "0"])
def test_verify_command_rejects_a_sample_below_one(capsys, sample):
    assert main(["verify", "--max-n", "5", "--sample", sample]) == 2
    captured = capsys.readouterr()
    assert "sample_limit must be at least 1" in captured.err
    assert "PASS" not in captured.out


def test_check_digraph_forms_no_power_matrix(monkeypatch):
    # the sums over powers of A come from linalg._power_image's rows, so
    # no MatrixPowers is even built
    built = []

    def recorded(self, A):
        built.append(A)
        raise AssertionError("MatrixPowers built")
    monkeypatch.setattr(MatrixPowers, "__init__", recorded)
    checked = 0
    for n in (2, 3, 4):
        for G in enumerate_digraphs(n, "strongly_connected"):
            assert check_digraph(G) == []
            checked += 1
    assert checked == 1625 and built == []


def test_verify_corpus_follows_the_enumeration_caps():
    results = verify_corpus(max_n=7, sample=2, seed=3)
    suites = {suite.name.split()[1]: suite for suite in results[:-1]}
    assert results[-1].name == "families" and results[-1].failures == []
    for n in (5, 6):
        assert suites[f"n={n}"].name == f"corpus n={n} (sampled 2)"
        assert suites[f"n={n}"].failures == []
    assert suites["n=5"].checked == sum(
        1 for _ in enumerate_digraphs(5, "strongly_connected", sample_limit=2,
                                      seed=3 + 5))
    capped = suites["n=7"]
    assert capped.checked == 0
    assert len(capped.failures) == 1
    assert f"capped at n = {ENUMERATION_CAP_SAMPLED}" in capped.failures[0]


def test_check_conjugation_reports_lost_rank():
    G = path(32)
    failures = check_conjugation(AnalysisContext(G))
    alarms = full_report(G).alarms
    assert alarms == ["spectral cross-checks: spectral Gram-Schmidt lost rank "
                      "at degree 26"]
    assert len(failures) == 1
    assert failures[0].splitlines()[0] == alarms[0]


@pytest.mark.parametrize("error", [PerronError("no certifiable Perron value"),
                                   ArithmeticError("weighted layer vanished")])
def test_check_weighted_set_reports_a_failed_weighted_track(monkeypatch, error):
    def failing(*args, **kwargs):
        raise error

    monkeypatch.setattr(classify_module, "weighted_layers", failing)
    for G in (petersen(), path(3)):
        alarms = full_report(G).alarms
        failures = check_weighted_set(AnalysisContext(G))
        assert alarms == [f"weighted excess: {error}"]
        assert len(failures) == 1
        assert failures[0].splitlines()[0] == alarms[0]


def test_check_projection_sums_reports_a_per_class_excess(monkeypatch):
    monkeypatch.setattr(ProjectionBound, "per_k_holds",
                        property(lambda self: (True, False)))
    failures = check_projection_sums(AnalysisContext(petersen()), systems=0)
    assert [f.splitlines()[0] for f in failures] == [
        "a per-class diagonal projection exceeds delta_k",
        "a per-class triangular projection exceeds delta_k"]


# recorded from check_projection_sums before its random systems were summed
# as bare integers, when each went through generalized_projection_sum
_INFLATED_SUM_FAILURES = {
    "directed_cycle(3)": [
        "subset-system sum (variant i) 12 > 3 for [[0], [0, 1, 2], [0, 2]]",
        "subset-system sum (variant i) 12 attains n=3: False, wdr_direct: True "
        "for [[0], [0, 1, 2], [0, 2]]",
        "subset-system sum (variant ii) 12 > 3 for [[0], [0, 1, 2], [0, 2]]",
        "subset-system sum (variant ii) 12 attains n=3: False, wdr_direct: True "
        "for [[0], [0, 1, 2], [0, 2]]",
        "subset-system sum (variant i) 12 > 3 for [[0, 2], [0, 1, 2], [0, 1, 2]]",
        "subset-system sum (variant i) 12 attains n=3: False, wdr_direct: True "
        "for [[0, 2], [0, 1, 2], [0, 1, 2]]",
        "subset-system sum (variant ii) 12 > 3 for [[0, 2], [0, 1, 2], [0, 1, 2]]",
        "subset-system sum (variant ii) 12 attains n=3: False, wdr_direct: True "
        "for [[0, 2], [0, 1, 2], [0, 1, 2]]",
        "free subset-system sum 4 > 3 for [[2], [0], [0, 2]]",
        "free subset-system sum 12 > 3 for [[0, 1], [1], [1, 2]]"],
    "path(3)": [
        "subset-system sum (variant i) 51/2 > 3 for [[0, 1], [1], [0, 1, 2]]",
        "subset-system sum (variant ii) 51/2 > 3 for [[0, 1], [1], [0, 1, 2]]",
        "subset-system sum (variant i) 51/2 > 3 for [[0, 2], [1, 2], [1, 2]]",
        "subset-system sum (variant ii) 51/2 > 3 for [[0, 2], [1, 2], [1, 2]]",
        "free subset-system sum 12 > 3 for [[2], [1], [0]]",
        "free subset-system sum 33/2 > 3 for [[2], [1], [0, 1, 2]]"],
}


@pytest.mark.parametrize("label, G, factor", [
    ("directed_cycle(3)", directed_cycle(3), 2), ("path(3)", path(3), 3)])
def test_check_projection_sums_words_failing_systems_as_before(monkeypatch, label,
                                                               G, factor):
    # the diagonal and triangular bounds are read first and pass; scaling
    # every projection N_kj by factor then pushes the random systems' sums
    # past n, and each failure carries the same Fraction total and system
    ctx = AnalysisContext(G)
    assert ctx.wdr_projection.holds and ctx.upper_projection.holds
    N = tuple(tuple(factor * x for x in row) for row in ctx.tables.numerators)
    monkeypatch.setattr(ctx, "tables", dataclasses.replace(ctx.tables, numerators=N))
    failures = check_projection_sums(ctx, systems=2)
    edges = digraph_to_edgelist(G)
    assert failures == [f"{m}\n{edges}" for m in _INFLATED_SUM_FAILURES[label]]


def test_random_subset_systems_are_pinned():
    # recorded from the set-comprehension form, which drew one rng.random()
    # per j in order, then added k (or one randrange when empty)
    assert random_subset_systems(2, 2, random.Random(7), True) == \
        [[[0, 1], [0, 1, 2], [0, 2]], [[0, 1, 2], [0, 1, 2], [0, 2]]]
    assert random_subset_systems(2, 2, random.Random(7), False) == \
        [[[0, 1], [0, 2], [0, 2]], [[0, 1, 2], [0, 2], [0]]]
    out = [random_subset_systems(D, 4, random.Random(seed), force_diagonal=forced)
           for D in range(6) for forced in (True, False) for seed in (0, 1, 7, 2024)]
    assert hashlib.sha256(json.dumps(out).encode()).hexdigest() == \
        "2dd07ee6a172bdfc57b96443beb9ec526013c5cc8fed64e1835ad75afb736c04"
