"""Classification verdicts, direct oracles and the aggregate report.

Claims checked:
  * direct oracles decide the named graphs and carry witnesses; the weak
    oracle checks (D+1)^2 times the classes of directed_cycle(30)
  * the batched class scans of the direct oracles give the verdicts,
    certificates and witnesses of a plain per-class loop, on the n <= 4
    corpus and on seeded random non-distance-regular digraphs
  * distance-regular iff normal and weakly distance-regular, on corpus
  * spectral criteria agree with the direct oracles everywhere tested
  * trichotomy branch assignments and their precondition
  * full reports stay alarm-free and serialize evidence on both sides
  * a failed weighted track becomes an alarm, not an exception
  * the array scan for max |f(A) - A^T| gives the float of a scalar
    scan, complex coefficients included, and lets a NaN through
  * the odd girth, the direct distance-regularity oracle, bipartiteness,
    the generalized-odd-graph verdict, the two projection bounds and the
    simple excess run once per digraph, however many verdicts and checks
    read them
  * so do the direct weak distance-regularity oracle and the delta
    profile, and the Perron value that the numeric spectrum and the
    Hoffman polynomial both read is refined once
  * a full report forms the pre-distance polynomials only up to the
    diameter, and the minimal polynomial once
  * so does the q-norm check, once per report and per check_digraph
  * the direct oracles' certificates hold Python ints
  * the walk route to the odd girth agrees with the trace route, and
    stops on a bipartite input once a walk state repeats
  * check_digraph forms no Fraction polynomial on the n <= 4 corpus: the
    minimal polynomial is held with int coefficients, and full_report
    still prints it as Fractions
"""

import random
from fractions import Fraction

import numpy as np
import pytest

import dgexcess.classify as classify_module
from dgexcess import (AnalysisContext, MatrixPowers, build_digraph, complete,
                      directed_cycle, distance_structure, dr_by_simple_set,
                      dr_by_weighted_set, dr_direct, enumerate_digraphs,
                      full_report, generalized_odd_graph_check,
                      geodetic_dr_check, circulant, hypercube,
                      odd_girth_spectral, odd_girth_walks, paley_tournament, path, petersen, power_traces,
                      tensor_lift, trichotomy,
                      wdr_by_projection, wdr_direct, INFINITE)
from dgexcess.harness import check_digraph
from dgexcess.linalg import PerronError, matrix_polynomial
from dgexcess.polynomial import Polynomial
from dgexcess.reportio import emit_report


NONNORMAL = build_digraph(3, [(0, 1), (1, 2), (2, 0), (0, 2)])


def normal_corpus3():
    return list(enumerate_digraphs(3, "normal"))


# -- Direct oracles ----------------------------------------------------------

def test_direct_oracles_named():
    for G in (petersen(), complete(4), directed_cycle(5), hypercube(3)):
        ds = distance_structure(G)
        assert dr_direct(ds).decision
        assert wdr_direct(ds).decision
    verdict = wdr_direct(distance_structure(directed_cycle(30)))
    assert verdict.decision and verdict.certificate["classes_checked"] == 30 ** 3
    ds = distance_structure(path(4))
    v = dr_direct(ds)
    assert not v.decision
    witness = v.certificate["witness"]
    assert witness is not None and len(witness["pairs"]) == 2


def _plain_scan(B, dist, wanted):
    """Per-class values of B, or the witness of the first class (in
    increasing distance) whose entries differ: its first smallest and
    first largest pair in row-major order."""
    n = len(dist)
    got = {}
    for k in sorted(set(dist.ravel().tolist()) & wanted):
        pairs = [(u, v) for u in range(n) for v in range(n) if dist[u, v] == k]
        vals = [int(B[u, v]) for u, v in pairs]
        lo, hi = min(vals), max(vals)
        if lo != hi:
            return got, {"class_distance": k,
                         "pairs": [list(pairs[vals.index(lo)]), list(pairs[vals.index(hi)])],
                         "values": [lo, hi]}
        got[k] = lo
    return got, None


def _plain_wdr(dist):
    D = int(dist.max())
    layers = [(dist == k).astype(np.int64) for k in range(D + 1)]
    checked = 0
    for i in range(D + 1):
        for j in range(D + 1):
            got, witness = _plain_scan(layers[i] @ layers[j], dist, set(range(D + 1)))
            if witness is not None:
                witness.update({"i": i, "j": j})
                return {"consistent": False, "witness": witness}
            checked += len(got)
    return {"consistent": True, "classes_checked": checked}


def _plain_dr(dist):
    D = int(dist.max())
    layers = [(dist == k).astype(np.int64) for k in range(D + 1)]
    checked = 0
    for i in range(D + 1):
        got, witness = _plain_scan(layers[i] @ layers[1].T, dist,
                                   set(range(max(1, i - 1), D + 1)))
        if witness is not None:
            witness.update({"i": i, "j": 1})
            return {"consistent": False, "witness": witness}
        checked += len(got)
    return {"consistent": True, "classes_checked": checked}


def _random_non_dr(count: int = 25):
    """count seeded random strongly connected digraphs on 5..12 vertices
    that are not distance-regular."""
    rng = random.Random(11)
    graphs = []
    while len(graphs) < count:
        n = rng.randint(5, 12)
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        G = build_digraph(n, sorted(rng.sample(pairs, rng.randint(n, 3 * n))))
        if G.is_strongly_connected and not _plain_dr(distance_structure(G).dist)["consistent"]:
            graphs.append(G)
    return graphs


def test_direct_oracles_match_a_plain_class_loop():
    rng = random.Random(235)
    pairs = [(u, v) for u in range(12) for v in range(12) if u != v]
    graphs = [G for n in (2, 3, 4) for G in enumerate_digraphs(n, "strongly_connected")]
    graphs += [path(12), build_digraph(12, sorted(rng.sample(pairs, 72)))]
    graphs += _random_non_dr()
    outcomes = set()
    for G in graphs:
        ds = distance_structure(G)
        verdict = wdr_direct(ds)
        cert = _plain_wdr(ds.dist)
        # the witness names the same first class and the same first
        # smallest and largest pair
        assert verdict.certificate == cert and verdict.decision == cert["consistent"]
        if ds.n > 1:
            dr_cert = _plain_dr(ds.dist)
            assert dr_direct(ds).certificate == dr_cert
            outcomes.add((cert["consistent"], dr_cert["consistent"]))
    # both verdicts, and so the witness paths, were exercised
    assert {(True, True), (False, False)} <= outcomes


def _python_ints(value) -> bool:
    if isinstance(value, (list, tuple)):
        return all(map(_python_ints, value))
    return type(value) is int


def test_direct_oracle_certificates_hold_python_ints():
    graphs = [G for n in (2, 3, 4) for G in enumerate_digraphs(n, "strongly_connected")]
    graphs += _random_non_dr()
    witnesses = 0
    for G in graphs:
        ds = distance_structure(G)
        for cert in (wdr_direct(ds).certificate, dr_direct(ds).certificate):
            if cert["consistent"]:
                assert type(cert["classes_checked"]) is int
            else:
                witnesses += 1
                assert all(_python_ints(v) for v in cert["witness"].values())
    assert witnesses > 50


def test_dr_iff_normal_and_wdr_on_corpus():
    for G in enumerate_digraphs(3, "strongly_connected"):
        ctx = AnalysisContext(G)
        is_dr = dr_direct(ctx.ds).decision
        is_wdr = wdr_direct(ctx.ds).decision
        assert is_dr == (ctx.normal and is_wdr)


def test_trivial_single_vertex():
    ds = distance_structure(build_digraph(1, []))
    assert dr_direct(ds).decision
    assert wdr_direct(ds).decision


# -- Spectral criteria vs direct ---------------------------------------------

def test_spectral_criteria_named():
    v = dr_by_simple_set(petersen())
    assert v.decision and v.method == "spectral-exact"
    assert v.certificate["simple_excess"] == Fraction(6)
    assert v.certificate["spectral_excess"] == Fraction(6)
    v = dr_by_simple_set(path(3))
    assert not v.decision and v.certificate["difference"] == Fraction(2, 9)
    v = dr_by_weighted_set(petersen())
    assert v.decision and v.method == "spectral-exact"
    v = dr_by_weighted_set(path(3))
    assert not v.decision and v.method == "spectral-numeric"
    assert "tolerance" in v.certificate
    assert geodetic_dr_check(petersen()).decision
    assert not geodetic_dr_check(hypercube(3)).decision   # not geodetic
    assert geodetic_dr_check(directed_cycle(9)).decision
    assert wdr_by_projection(petersen()).decision
    assert not wdr_by_projection(path(3)).decision


def test_spectral_criteria_non_normal_are_false_with_note():
    for check in (dr_by_simple_set, dr_by_weighted_set, geodetic_dr_check):
        v = check(NONNORMAL)
        assert not v.decision
        assert "note" in v.certificate and not v.certificate["normal"]


def test_spectral_criteria_agree_on_corpus():
    for G in normal_corpus3():
        ctx = AnalysisContext(G)
        expected = dr_direct(ctx.ds).decision
        assert dr_by_simple_set(ctx).decision == expected
        assert dr_by_weighted_set(ctx).decision == expected
        assert wdr_by_projection(ctx).decision == \
            wdr_direct(ctx.ds).decision


# -- Odd girth and trichotomy ------------------------------------------------

def test_odd_girth_routes_agree():
    for G in (petersen(), hypercube(3), directed_cycle(5), complete(4)):
        assert odd_girth_spectral(power_traces(G, G.n)) == odd_girth_walks(G)
    assert odd_girth_spectral([1, 0, 4, 0, 2]) is INFINITE
    assert odd_girth_spectral([1, 0, 4, 6]) == 3


def test_odd_girth_walks_agree_with_traces():
    graphs = [G for n in (1, 2, 3, 4) for G in enumerate_digraphs(n, "strongly_connected")]
    graphs += [hypercube(6), directed_cycle(8), build_digraph(1, [])]
    for G in graphs:
        assert odd_girth_walks(G) == odd_girth_spectral(power_traces(G, G.n)), G
    assert odd_girth_walks(hypercube(6)) is INFINITE
    assert odd_girth_walks(directed_cycle(8)) is INFINITE
    assert odd_girth_walks(build_digraph(1, [])) is INFINITE


def test_odd_girth_walks_stop_once_a_state_repeats(monkeypatch):
    products = []
    inner = classify_module.exact_matmul

    def counted(P, Q, bound):
        products.append(bound)
        return inner(P, Q, bound)
    monkeypatch.setattr(classify_module, "exact_matmul", counted)
    # hypercube(6): the odd walk states reach every odd distance by A^5,
    # and A^7 repeats A^5; one product for A^2, three steps
    assert odd_girth_walks(hypercube(6)) is INFINITE
    assert len(products) == 4
    products.clear()
    # directed_cycle(8): permutation states A, A^3, A^5, A^7, then A^9 = A
    assert odd_girth_walks(directed_cycle(8)) is INFINITE
    assert len(products) == 5


def test_generalized_odd_graph_members():
    assert generalized_odd_graph_check(petersen()).decision
    assert generalized_odd_graph_check(complete(4)).decision
    assert not generalized_odd_graph_check(hypercube(3)).decision
    assert not generalized_odd_graph_check(directed_cycle(5)).decision


def test_trichotomy_branches():
    assert trichotomy(complete(4)).branches == ("generalized-odd-graph",)
    assert trichotomy(directed_cycle(4)).branches == ("bipartite",)
    assert trichotomy(petersen()).branches == ("generalized-odd-graph",)
    r = trichotomy(directed_cycle(5))
    assert r.branches == ("small-odd-girth",)
    assert r.odd_girth == 5 and r.bound == 7
    assert "bipartite" in trichotomy(hypercube(3)).branches


def test_trichotomy_requires_normality():
    with pytest.raises(ValueError):
        trichotomy(NONNORMAL)


# -- Reports -----------------------------------------------------------------

def test_full_report_alarm_free_on_named():
    for G in (petersen(), path(3), directed_cycle(6), hypercube(3),
              complete(4), tensor_lift(directed_cycle(3), 2), NONNORMAL):
        report = full_report(G)
        assert report.alarms == []
        assert all(report.crosschecks.values())


def test_full_report_verdict_evidence():
    report = full_report(petersen())
    dr = report.verdicts["dr"]
    assert dr.decision and dr.method == "spectral-exact"
    assert dr.certificate["direct_decision"] is True
    assert report.verdicts["trichotomy"].branches == ("generalized-odd-graph",)
    report = full_report(NONNORMAL)
    assert report.verdicts["dr"].method == "direct"
    assert "trichotomy" not in report.verdicts


def test_full_report_records_a_failed_weighted_track(monkeypatch):
    def no_perron(*args, **kwargs):
        raise PerronError("no certifiable Perron value")

    monkeypatch.setattr(classify_module, "weighted_layers", no_perron)
    for G in (petersen(), path(3), NONNORMAL):
        report = full_report(G)
        assert report.alarms == ["weighted excess: no certifiable Perron value"]
        assert "weighted" not in report.excess
        assert "weighted_set_agrees" not in report.crosschecks
        assert "weighted_decision" not in report.verdicts["dr"].certificate
        assert emit_report(report, "json") and emit_report(report, "text")
    assert full_report(petersen()).verdicts["dr"].decision


def _complex_conjugation(spec):
    """Lagrange interpolation of z -> conj z on the eigenvalues, keeping
    the imaginary parts of the coefficients."""
    lam = [complex(z) for z, _ in spec.values]
    full = Polynomial((1.0 + 0j,))
    for z in lam:
        full = full * Polynomial((-z, 1.0 + 0j))
    f = Polynomial.zero()
    for z in lam:
        quotient, _ = full.synthetic_divide(z)
        f = f + quotient.scale(np.conj(z) / quotient(z))
    return f


@pytest.mark.parametrize("G, coefficients", [(directed_cycle(40), "complex"),
                                             (paley_tournament(19), "real")])
def test_transpose_gap_equals_scalar_scan(monkeypatch, G, coefficients):
    if coefficients == "complex":
        # directed_cycle(40)'s interpolant has imaginary parts that
        # conjugation_polynomial rejects; feed it to the scan as it is
        monkeypatch.setattr(classify_module, "conjugation_polynomial",
                            _complex_conjugation)
    ctx = AnalysisContext(G)
    gap = list(classify_module.spectral_gaps(ctx))[1]
    f = classify_module.conjugation_polynomial(ctx.numeric_spectrum)
    assert any(isinstance(c, complex) for c in f.coeffs) == (coefficients == "complex")
    fA, AT = matrix_polynomial(f, MatrixPowers(G.adjacency)), G.adjacency.T
    assert gap == float(max(abs(fA[i, j] - AT[i, j])
                            for i in range(G.n) for j in range(G.n)))


def test_transpose_gap_propagates_nan(monkeypatch):
    def nan_last(f, powers):
        fA = matrix_polynomial(f, powers)
        fA[-1, -1] = float("nan")
        return fA

    monkeypatch.setattr(classify_module, "matrix_polynomial", nan_last)
    gaps = list(classify_module.spectral_gaps(AnalysisContext(petersen())))
    assert np.isnan(gaps[1]) and not gaps[1] < 1e-8
    assert full_report(petersen()).crosschecks["conjugation_transposes"] is False


def test_full_report_disconnected():
    report = full_report(build_digraph(3, [(0, 1), (1, 2)]))
    assert report.flags == {"strongly_connected": False}
    assert report.metrics is None and report.verdicts is None


def test_odd_girth_and_dr_oracle_computed_once(monkeypatch):
    names = ("odd_girth", "dr_direct", "bipartite_test",
             "generalized_odd_graph_check", "wdr_projection_sum",
             "upper_projection_sum", "simple_excess")
    calls = dict.fromkeys(names, 0)

    def counted(name):
        inner = getattr(classify_module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(classify_module, name, counted(name))
    for run in (full_report, check_digraph):
        for G in (petersen(), directed_cycle(5), complete(4)):
            calls.update(dict.fromkeys(names, 0))
            run(G)
            assert calls == dict.fromkeys(names, 1), (run.__name__, G.n)


def test_q_norm_check_runs_once_per_report(monkeypatch):
    calls = []
    inner = classify_module.q_norm_check

    def counted(*args):
        calls.append(args)
        return inner(*args)
    monkeypatch.setattr(classify_module, "q_norm_check", counted)
    for G in (petersen(), directed_cycle(5), NONNORMAL):
        calls.clear()
        report = full_report(G)
        assert len(calls) == 1, G
        assert report.bounds["q_norm"]["value"] == \
            report.verdicts["geodetic_dr"].certificate["q_norm"]
    for G in (petersen(), directed_cycle(5)):
        calls.clear()
        check_digraph(G)
        assert len(calls) == 1, G


def test_wdr_oracle_and_delta_profile_computed_once(monkeypatch):
    from dgexcess.harness import check_projection_sums
    calls = {"wdr_direct": 0, "delta_profile": 0}

    def counted(module, name):
        inner = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)
        monkeypatch.setattr(module, name, wrapper)

    counted(classify_module, "wdr_direct")
    counted(classify_module, "delta_profile")
    for run in (full_report, check_digraph):
        for G in (petersen(), directed_cycle(5), NONNORMAL):
            calls.update(wdr_direct=0, delta_profile=0)
            run(G)
            assert calls == {"wdr_direct": 1, "delta_profile": 1}, (run.__name__, G.n)
    ctx = AnalysisContext(petersen())
    calls.update(wdr_direct=0)
    assert check_projection_sums(ctx) == check_projection_sums(ctx) == []
    assert calls["wdr_direct"] == 1


def test_perron_value_refined_once_per_report(monkeypatch):
    import dgexcess.linalg as linalg_module
    seeds = []
    inner = linalg_module.refine_real_root

    def counted(s, seed, dps):
        seeds.append(seed)
        return inner(s, seed, dps)
    monkeypatch.setattr(linalg_module, "refine_real_root", counted)
    for G in (path(4), path(7), NONNORMAL):
        seeds.clear()
        full_report(G)
        assert len(seeds) == 1, G
        seeds.clear()
        ctx = AnalysisContext(G)
        spec, hp = ctx.numeric_spectrum, ctx.hoffman
        assert len(seeds) == 1, G
        assert spec.lambda0 is hp.lambda0 and spec.lambda0_exact == hp.lambda0_exact


def test_full_report_forms_predistance_polynomials_up_to_the_diameter(monkeypatch):
    import dgexcess.linalg as linalg_module
    formed = []
    inner = linalg_module._back_substitute

    def counted(pivots, upper, k):
        formed.append(k)
        return inner(pivots, upper, k)
    monkeypatch.setattr(linalg_module, "_back_substitute", counted)
    report = full_report(circulant(37, (1, 10, 23)))
    D, dhat = report.metrics["diameter"], report.metrics["dhat"]
    assert (D, dhat) == (5, 36)
    # the minimal polynomial, then p_0..p_D, each once
    assert formed == [dhat + 1] + list(range(D + 1))


def test_check_digraph_forms_no_fraction_predistance_polynomial(monkeypatch):
    import dgexcess.linalg as linalg_module
    from dgexcess.linalg import normality_test
    formed = []
    inner = linalg_module._monic

    def counted(c, den):
        formed.append(len(c) - 1)
        return inner(c, den)
    monkeypatch.setattr(linalg_module, "_monic", counted)
    non_normal = 0
    for n in (2, 3, 4):
        for G in enumerate_digraphs(n, "strongly_connected"):
            assert check_digraph(G) == []
            # no Fraction polynomial at all, on the normal members too
            assert formed == [], G.arcs
            non_normal += not normality_test(G.adjacency)
    assert non_normal == 1560
    # the minimal polynomial is held on ints; the report prints Fractions
    for G in (petersen(), path(3), circulant(47, (1, 10, 23))):
        coeffs = AnalysisContext(G).basis.minpoly.coeffs
        assert all(type(c) is int for c in coeffs), G.n
        printed = full_report(G).minimal_polynomial
        assert all(type(c) is Fraction for c in printed) and printed == list(coeffs)

