"""Corpus verification end to end.

Claims checked:
  * verify_corpus checks every strongly connected digraph on up to
    three vertices and the standard families, with no failure, and a
    pool of two worker processes gives the same counts as one process
  * the verify command exits 0 on the same corpus
  * verify_corpus samples n = 5 and 6 from enumerate_digraphs (same
    digraphs, same seed), and raises the cap's ValueError for an n past
    the sampled enumeration cap before it checks any digraph
  * the verify command stops at once, with exit status 2, when an n
    up to --max-n is past an enumeration cap, or --sample or --jobs is
    below 1 whatever --max-n is; verify_corpus raises those ValueErrors
    before it checks any digraph
  * check_digraph builds no MatrixPowers on the n <= 4 corpus: its sums
    over powers of A come from stacked power rows, and its odd-girth
    cross-check takes the walk route
  * check_conjugation reports a numeric spectrum that loses rank as a
    failure, in full_report's alarm words, instead of raising
  * check_weighted_set does the same for a weighted track that fails
    with a PerronError or an ArithmeticError
  * check_excess_product reports a distance-regular digraph whose
    Perron value is not certified rational as one failure
  * check_projection_sums reports a per-class projection above delta_k,
    and words failing random subset-system sums as it did when systems
    were lists: the same Fraction totals, index lists and order
  * random_subset_systems draws each system as one system_mask int, the
    same ints from the same rng for D = 0..5 and both diagonal modes
    (pinned); for D = 0..8 and 50 seeds every mask stays inside the
    (D+1)^2 bits with no empty row and its diagonal set when forced, and
    each bit is set about half the time
  * a digraph draws the same systems in a process with another hash
    seed, as verify's worker processes need
"""

import dataclasses
import hashlib
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import mpmath
import pytest

import dgexcess.classify as classify_module
import dgexcess.harness as harness_module
from dgexcess import (AnalysisContext, MatrixPowers, PerronError, ProjectionBound,
                      digraph_to_edgelist, directed_cycle,
                      enumerate_digraphs, full_report, path, petersen)
from dgexcess.cli import main
from dgexcess.generators import ENUMERATION_CAP_SAMPLED
from dgexcess.harness import (check_conjugation, check_digraph,
                              check_excess_product, check_projection_sums,
                              check_weighted_set, random_subset_systems,
                              standard_families, verify_corpus)


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
    # with --max-n 5 and with the default, which samples no n at all
    for max_n in (["--max-n", "5"], []):
        assert main(["verify", *max_n, "--sample", sample]) == 2
        captured = capsys.readouterr()
        assert "sample_limit must be at least 1" in captured.err
        assert "PASS" not in captured.out and "FAIL" not in captured.out


@pytest.mark.parametrize("argv", [["--jobs", "0"], ["--max-n", "3", "--jobs", "-2"]],
                         ids=["jobs0", "max3-jobs-2"])
def test_verify_command_rejects_jobs_below_one(capsys, argv):
    assert main(["verify", *argv]) == 2
    captured = capsys.readouterr()
    assert "jobs must be at least 1" in captured.err
    assert "PASS" not in captured.out and "FAIL" not in captured.out


def test_verify_corpus_rejects_sample_or_jobs_below_one_before_any_check(monkeypatch):
    calls = []
    monkeypatch.setattr(harness_module, "check_digraph", lambda G: calls.append(G) or [])
    monkeypatch.setattr(harness_module, "family_suite", lambda: calls.append("families"))
    for kwargs, words in [({"max_n": 3, "sample": 0}, "sample_limit"),
                          ({"max_n": 3, "sample": -5, "jobs": 0}, "sample_limit"),
                          ({"max_n": 3, "jobs": 0}, "jobs"),
                          ({"max_n": 2, "jobs": -1}, "jobs")]:
        with pytest.raises(ValueError, match=f"{words} must be at least 1"):
            verify_corpus(**kwargs)
    assert calls == []


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
    results = verify_corpus(max_n=6, sample=2, seed=3)
    suites = {suite.name.split()[1]: suite for suite in results[:-1]}
    assert results[-1].name == "families" and results[-1].failures == []
    for n in (5, 6):
        assert suites[f"n={n}"].name == f"corpus n={n} (sampled 2)"
        assert suites[f"n={n}"].failures == []
    assert suites["n=5"].checked == sum(
        1 for _ in enumerate_digraphs(5, "strongly_connected", sample_limit=2,
                                      seed=3 + 5))


def test_verify_corpus_raises_past_the_caps_before_any_check(monkeypatch):
    calls = []

    def counted(G):
        calls.append(G)
        return []
    monkeypatch.setattr(harness_module, "check_digraph", counted)
    with pytest.raises(ValueError,
                       match=f"capped at n = {ENUMERATION_CAP_SAMPLED}"):
        verify_corpus(max_n=ENUMERATION_CAP_SAMPLED + 1, sample=2)
    assert calls == []


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


def test_check_excess_product_reports_an_uncertified_perron_value():
    G = petersen()
    ctx = AnalysisContext(G)
    ctx.perron = (mpmath.mpf(3), None)
    failures = check_excess_product(ctx)
    assert len(failures) == 1
    assert failures[0].splitlines()[0] == ("Perron value 3.0 of a distance-regular "
                                           "digraph is not certified rational")
    assert failures[0].endswith(digraph_to_edgelist(G))


def test_check_projection_sums_reports_a_per_class_excess(monkeypatch):
    monkeypatch.setattr(ProjectionBound, "per_k_holds",
                        property(lambda self: (True, False)))
    failures = check_projection_sums(AnalysisContext(petersen()), systems=0)
    assert [f.splitlines()[0] for f in failures] == [
        "a per-class diagonal projection exceeds delta_k",
        "a per-class triangular projection exceeds delta_k"]


# each failing system is worded as the index lists S_0..S_D, as it was
# when systems were drawn as lists: fed the same systems, the list-based
# check gave these same lines
_INFLATED_SUM_FAILURES = {
    "directed_cycle(3)": [
        "subset-system sum (variant i) 12 > 3 for [[0, 1], [1, 2], [0, 1, 2]]",
        "subset-system sum (variant i) 12 attains n=3: False, wdr_direct: True "
        "for [[0, 1], [1, 2], [0, 1, 2]]",
        "subset-system sum (variant ii) 12 > 3 for [[0, 1], [1, 2], [0, 1, 2]]",
        "subset-system sum (variant ii) 12 attains n=3: False, wdr_direct: True "
        "for [[0, 1], [1, 2], [0, 1, 2]]",
        "subset-system sum (variant i) 12 > 3 for [[0], [1], [0, 1, 2]]",
        "subset-system sum (variant i) 12 attains n=3: False, wdr_direct: True "
        "for [[0], [1], [0, 1, 2]]",
        "subset-system sum (variant ii) 12 > 3 for [[0], [1], [0, 1, 2]]",
        "subset-system sum (variant ii) 12 attains n=3: False, wdr_direct: True "
        "for [[0], [1], [0, 1, 2]]",
        "free subset-system sum 8 > 3 for [[0, 2], [0, 1], [1]]",
        "free subset-system sum 8 > 3 for [[0], [0, 2], [0, 1, 2]]"],
    "path(3)": [
        "subset-system sum (variant i) 51/2 > 3 for [[0, 1, 2], [0, 1], [2]]",
        "subset-system sum (variant ii) 51/2 > 3 for [[0, 1, 2], [0, 1], [2]]",
        "subset-system sum (variant i) 51/2 > 3 for [[0, 1, 2], [1, 2], [0, 2]]",
        "subset-system sum (variant ii) 51/2 > 3 for [[0, 1, 2], [1, 2], [0, 2]]",
        "free subset-system sum 27/2 > 3 for [[0], [0, 2], [2]]"],
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
    # recorded from the mask drawer: one getrandbits((D+1)^2) per system,
    # ORed with the diagonal when forced, then one randrange(D + 1) bit
    # per row still empty, in row order
    assert random_subset_systems(2, 2, random.Random(7), True) == \
        [0b110_110_101, 0b111_110_101]
    assert random_subset_systems(2, 2, random.Random(7), False) == \
        [0b010_100_101, 0b111_100_101]
    # at seed 5 the second free system drew 0b010_000_010: row 1 was
    # empty and took bit randrange(3) = 2
    assert random_subset_systems(2, 2, random.Random(5), False) == \
        [0b100_111_110, 0b010_100_010]
    rng = random.Random(5)
    assert rng.getrandbits(9) == 0b100_111_110
    assert rng.getrandbits(9) == 0b010_000_010 and rng.randrange(3) == 2
    out = [random_subset_systems(D, 4, random.Random(seed), force_diagonal=forced)
           for D in range(6) for forced in (True, False) for seed in (0, 1, 7, 2024)]
    assert hashlib.sha256(json.dumps(out).encode()).hexdigest() == \
        "166d6d50b6ad1af9e6ec3629aebdc945bc35730e0783254bdf88291034f483d1"


def test_random_subset_systems_are_valid_masks():
    for D in range(9):
        m = D + 1
        rows = [((1 << m) - 1) << k * m for k in range(m)]
        diagonal = sum(1 << k * m + k for k in range(m))
        for seed in range(50):
            for forced in (True, False):
                masks = random_subset_systems(D, 4, random.Random(seed), forced)
                for mask in masks:
                    assert type(mask) is int and 0 <= mask < 1 << m * m
                    assert all(mask & row for row in rows)
                    assert not forced or mask & diagonal == diagonal
    # each off-diagonal j is in S_k with probability 1/2 (a little more
    # without the diagonal, from the bit an empty row takes)
    for forced in (True, False):
        masks = random_subset_systems(3, 4000, random.Random(11), forced)
        for bit in range(16):
            if forced and bit % 5 == 0:
                assert all(mask >> bit & 1 for mask in masks)
                continue
            share = sum(mask >> bit & 1 for mask in masks) / len(masks)
            assert 0.47 < share < 0.55, (forced, bit, share)


_DRAW_SCRIPT = """
import json
from dgexcess import distance_structure, enumerate_digraphs
from dgexcess.harness import _graph_rng, random_subset_systems

def draws():
    out = []
    for G in list(enumerate_digraphs(4, "strongly_connected"))[::97]:
        rng = _graph_rng(G)
        D = distance_structure(G).diameter
        out.append(random_subset_systems(D, 5, rng, True)
                   + random_subset_systems(D, 2, rng, False))
    return out

if __name__ == "__main__":
    print(json.dumps(draws()))
"""


def test_drawn_systems_do_not_depend_on_the_process():
    # verify --jobs checks each digraph in whichever worker takes it, so a
    # digraph's systems must not move with the process or its hash seed
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = "1" if os.environ.get("PYTHONHASHSEED") == "2" else "2"
    done = subprocess.run([sys.executable, "-c", _DRAW_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    script = {}
    exec(_DRAW_SCRIPT, script)
    here = script["draws"]()
    assert len(here) == 17 and json.loads(done.stdout) == here
