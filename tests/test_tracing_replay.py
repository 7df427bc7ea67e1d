"""The benchmark's traced replay against the package as it stands.

perfbench/tracing.py replays AnalysisContext, full_report and
harness.check_digraph stage by stage through the package's public
functions.  A changed signature there raises an error the replay does
not catch (TypeError is not a stage error), so it shows here.

Claims checked:
  * replay_report and replay_check run on petersen (rational Perron
    value), path(3) and a non-normal 3-vertex digraph (irrational Perron
    values, numeric weighted track), on complete(13), whose moments
    pass 2^53 and come from word-size primes, and on paley_tournament(7),
    whose attached automorphisms send the tables and the direct oracles
    to vertex 0 while the replay's basis from a MatrixPowers stays dense,
    recording a span for
    every report stage that applies and for every harness check, and
    the checks report no failure
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import dgexcess
from dgexcess import build_digraph, complete, harness, paley_tournament, path, petersen

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
NONNORMAL = build_digraph(3, [(0, 1), (1, 2), (2, 0), (0, 2)])
CHECKS = ("projection_sums", "simple_set", "weighted_set", "geodetic_set",
          "excess_product", "odd_girth_suite")


@pytest.fixture
def tracing(monkeypatch):
    # loaded from its file without writing a bytecode cache beside it
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("G, normal, numeric", [(petersen(), True, False),
                                                (path(3), True, True),
                                                (NONNORMAL, False, True),
                                                (complete(13), True, False),
                                                (paley_tournament(7), True, False)])
def test_replays_run_every_stage(tracing, G, normal, numeric):
    tr, counts = tracing.Tracer(), {}
    tracing.replay_report(dgexcess, G, tr, counts)
    stages = set(tracing.REPORT_STAGES)
    if not normal:
        stages.discard("orthopoly.spectral_crosscheck")
    assert stages <= set(tr.totals()), G.arcs
    assert counts.get("excess.weighted_numeric", 0) == numeric

    first = len(tr.spans)
    assert tracing.replay_check(dgexcess, harness, G, tr, counts) == []
    names = set(tr.totals(first))
    assert {f"harness.check_{c}" for c in CHECKS} <= names
    assert "orthopoly.predistance" in names
