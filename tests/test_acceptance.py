"""Acceptance gate: one test per advertised guarantee.

Every criterion prints a single [criterion N] PASS/FAIL line with the
checked population size and elapsed time; failures raise with up to
five counterexamples, each embedding the offending digraph as an edge
list.  Exact claims are compared with zero tolerance; numeric claims
at the stated tolerances (1e-9 for excess equalities, 1e-8 for the
spectral-route coefficient and conjugation checks).
"""

import random
import time
from fractions import Fraction

import pytest

import oracles
from dgexcess import (AnalysisContext, build_digraph,
                      circulant, complete, directed_cycle, dr_direct,
                      enumerate_digraphs, generalized_projection_sum,
                      hypercube, kneser_odd_graph, path, petersen,
                      predistance_polynomials, projection_sum_totals,
                      projection_tables, q_norm_check, simple_excess,
                      spectral_excess, tensor_lift, upper_projection_sum,
                      wdr_projection_sum)
from dgexcess.classify import full_report
from dgexcess.harness import (check_conjugation, check_excess_product,
                              check_geodetic_set, check_odd_girth_suite,
                              check_projection_sums, check_simple_set,
                              check_weighted_set, family_suite,
                              random_subset_systems, standard_families)
from dgexcess.linalg import _moment_rows
from test_excess import random_non_regular

EXPECTED_COUNTS = {2: 1, 3: 18, 4: 1606}


@pytest.fixture(scope="module")
def corpus():
    """Analysis contexts for every strongly connected digraph on up to
    four vertices, exhaustively enumerated."""
    out = []
    for n in (2, 3, 4):
        members = [AnalysisContext(G)
                   for G in enumerate_digraphs(n, "strongly_connected")]
        assert len(members) == EXPECTED_COUNTS[n]
        out.extend(members)
    return out


def _conclude(num, description, checked, started, failures):
    elapsed = time.monotonic() - started
    status = "FAIL" if failures else "PASS"
    print(f"[criterion {num}] {status}: {description} "
          f"({checked} checked, {elapsed:.1f}s)")
    if failures:
        raise AssertionError(f"criterion {num}: {len(failures)} failure(s)\n"
                             + "\n".join(failures[:5]))


def test_criterion_1_projection_sums_exhaustive(corpus):
    started = time.monotonic()
    failures = []
    for ctx in corpus:
        failures += check_projection_sums(ctx, systems=20)
    _conclude(1, "projection sums bounded by n, attained iff weakly "
                 "distance-regular, incl. 20 random subset systems per digraph",
              len(corpus), started, failures)


def _fraction_terms(ctx):
    """Squared projections per variant as plain Fractions, term[k][j]
    being what layer k adds for j in S_k."""
    inner, eps, delta = ctx.tables.inner, ctx.basis.norms2, ctx.profile.delta
    r = range(ctx.ds.diameter + 1)
    return {"i": [[delta[k] * inner[j][k] ** 2 / (eps[k] * delta[j]) for j in r]
                  for k in r],
            "ii": [[inner[k][j] ** 2 / eps[j] for j in r] for k in r]}


def _fraction_projection_sum(terms, subsets):
    """The reference for the integer sums over one common denominator."""
    per_k = [sum((terms[k][j] for j in S), Fraction(0))
             for k, S in enumerate(subsets)]
    return sum(per_k, Fraction(0)), per_k


def _seeded_digraph(n, arcs, seed):
    rng = random.Random(seed)
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    return build_digraph(n, sorted(rng.sample(pairs, arcs)))


def test_projection_sums_match_fraction_sums(corpus):
    # path(12) has diameter 11 and the circulant 13 distinct eigenvalues;
    # the seeded non-normal digraph's term denominators pass 2^40, where
    # the corpus stays below 2^20
    extra = [AnalysisContext(G) for G in (
        path(12), circulant(13, (1, 2, 3, 4, 5, 7)),
        _seeded_digraph(12, 72, 235), hypercube(3))]
    attained = below = 0
    for ctx in corpus + extra:
        n, D, delta = ctx.G.n, ctx.ds.diameter, ctx.profile.delta
        rng = random.Random(f"{n}:{ctx.G.arcs}")
        forced = random_subset_systems(D, 20, rng, force_diagonal=True)
        cases = [([[k] for k in range(D + 1)], "ii",
                  wdr_projection_sum(ctx.ds, ctx.basis, None, ctx.tables,
                                     ctx.profile)),
                 ([list(range(k, D + 1)) for k in range(D + 1)], "ii",
                  upper_projection_sum(ctx.ds, ctx.basis, None, ctx.tables,
                                       ctx.profile))]
        cases += [(S, v, None) for S in forced for v in ("i", "ii")]
        cases += [(S, "i", None) for S in
                  random_subset_systems(D, 2, rng, force_diagonal=False)]
        terms = _fraction_terms(ctx)
        by_variant = {"i": ([], [], []), "ii": ([], [], [])}
        for subsets, variant, pb in cases:
            if pb is None:
                pb = generalized_projection_sum(ctx.ds, ctx.basis, subsets, variant,
                                                None, ctx.tables, ctx.profile)
            total, per_k = _fraction_projection_sum(terms[variant], subsets)
            assert type(pb.total) is Fraction and pb.total == total
            assert list(pb.per_k) == per_k
            assert (pb.holds, pb.attained) == (total <= n, total == n)
            assert pb.per_k_holds == tuple(v <= b for v, b in zip(per_k, delta))
            for seen, value in zip(by_variant[variant], (subsets, pb, total)):
                seen.append(value)
            attained += total == n
            below += total < n
        # the batch sums: the same numerators over the same L as the single
        # sums, and the reference's totals, every system in one call
        for variant, (systems, bounds, totals) in by_variant.items():
            (batch, L), = projection_sum_totals(ctx.tables, systems, variant)
            assert batch == [pb.total_num for pb in bounds]
            assert {pb.denominator for pb in bounds} == {L}
            assert [Fraction(t, L) for t in batch] == totals
        assert projection_sum_totals(ctx.tables, forced, "i", "ii") == \
            tuple(projection_sum_totals(ctx.tables, forced, v)[0] for v in ("i", "ii"))
    hypercube_diag = wdr_projection_sum(extra[3].ds, extra[3].basis)
    path_diag = wdr_projection_sum(extra[0].ds, extra[0].basis)
    assert hypercube_diag.attained and hypercube_diag.total == 8
    assert path_diag.holds and not path_diag.attained
    assert attained and below
    assert extra[2].tables.terms_i[1] > 2 ** 40


def _fraction_tables(G, ds, basis):
    """The Fraction views of ProjectionTables (inner, delta_prime,
    norms2, delta) from the definition: schoolbook powers and one
    Fraction per moment <A_k, A^i>, summed term by term."""
    n, D = G.n, ds.diameter
    powers = oracles.naive_power_list(G.adjacency.tolist(), D)

    dist = ds.dist.tolist()
    layers = [[[int(x == k) for x in row] for row in dist] for k in range(D + 1)]
    moments = [[Fraction(sum(layer[x][y] * power[x][y]
                             for x in range(n) for y in range(n)), n)
                for power in powers] for layer in layers]
    inner = tuple(tuple(sum((c * m for c, m in zip(p.coeffs, row)), Fraction(0))
                        for p in basis.polys[:D + 1])
                  for row in moments)
    delta = tuple(Fraction(sum(map(sum, layer)), n) for layer in layers)
    return (inner, tuple(inner[k][k] for k in range(D + 1)), basis.norms2[:D + 1],
            delta)


def _views(tables):
    return tables.inner, tables.delta_prime, tables.norms2, tables.delta


def _lollipop(clique, tail):
    """complete(clique) with a symmetric path of tail vertices hung on
    its last vertex."""
    arcs = [(u, v) for u in range(clique) for v in range(clique) if u != v]
    for v in range(clique - 1, clique + tail - 1):
        arcs += [(v, v + 1), (v + 1, v)]
    return build_digraph(clique + tail, arcs)


def _reference_inputs():
    # path(40) reaches diameter 39 with its table bound n r^D = 40 * 2^39
    # below 2^53, so its tables come straight from float64; on the
    # lollipops n r^D passes 2^53, so theirs come from word-size primes,
    # and with a 17-vertex tail (n = 29, D = 18) the largest moment
    # itself passes 2^65
    return ((path(40), 39, False), (_lollipop(12, 16), 17, True),
            (_lollipop(12, 17), 18, True))


def test_projection_tables_match_fraction_reference(corpus):
    # the tables hold integers; their Fraction views are what the
    # definition gives
    for ctx in corpus:
        reference = _fraction_tables(ctx.G, ctx.ds, ctx.basis)
        assert _views(ctx.tables) == reference
    for G, D, wide in _reference_inputs():
        ctx = AnalysisContext(G)
        reference = _fraction_tables(G, ctx.ds, ctx.basis)
        assert ctx.ds.diameter == D
        r = int(G.adjacency.sum(axis=1).max())
        assert (G.n * r ** D >= 2 ** 53) == wide
        fresh = projection_tables(ctx.ds, ctx.basis)
        assert fresh == ctx.tables
        assert _views(fresh) == _views(ctx.tables) == reference
        assert all(type(x) is int for row in fresh.numerators for x in row)


def test_integer_numerators_give_the_monic_polynomials(corpus):
    """c_k / D_{k-1} is monic[k], and the numerators are orthogonal in
    integers: c_j^T m c_k = D_{k-1} D_k when j = k and 0 otherwise, m
    the moment matrix n <A^i, A^l>."""
    contexts = corpus + [AnalysisContext(G) for G, _, _ in _reference_inputs()]
    for ctx in contexts:
        monic, D = ctx.basis.polys, ctx.ds.diameter
        m = _moment_rows(ctx.G.adjacency, 0, D + 1)
        nums = [monic.numerator(k) for k in range(D + 1)]
        for k, c in enumerate(nums):
            den = monic.denominator(k)
            assert all(type(a) is int for a in c) and len(c) == k + 1
            assert c[-1] == den == (monic.pivots[k - 1] if k else 1)
            assert tuple(Fraction(a, den) for a in c) == monic[k].coeffs
        for j, cj in enumerate(nums):
            for k, ck in enumerate(nums):
                gram = sum(a * b * m[i][l] for i, a in enumerate(cj)
                           for l, b in enumerate(ck))
                assert gram == (monic.denominator(k) * monic.pivots[k]
                                if j == k else 0)


def test_monomial_basis_matches_naive_on_corpus(corpus):
    for ctx in corpus:
        _, norms, minpoly = oracles.naive_gram_schmidt(ctx.G.adjacency.tolist())
        assert list(ctx.basis.norms2) == norms
        assert ctx.basis.minpoly.coeffs == tuple(minpoly)


def test_criterion_2_simple_excess_corpus_and_sampled(corpus):
    started = time.monotonic()
    failures = []
    for ctx in corpus:
        failures += check_simple_set(ctx)
    sampled = 0
    for G in enumerate_digraphs(5, "strongly_connected", sample_limit=20000,
                                seed=1729):
        failures += check_simple_set(AnalysisContext(G))
        sampled += 1
        if sampled == 10000:
            break
    assert sampled == 10000, "sampler yielded fewer than 10^4 digraphs"
    _conclude(2, "simple excess <= spectral excess, equality iff "
                 "distance-regular on normal digraphs (incl. 10^4 at n=5)",
              len(corpus) + sampled, started, failures)


def test_criterion_3_weighted_excess(corpus):
    started = time.monotonic()
    failures = []
    checked = 0
    for ctx in corpus:
        if ctx.normal:
            failures += check_weighted_set(ctx, tol=1e-9)
            checked += 1
    _conclude(3, "weighted excess equality iff distance-regular (exact on "
                 "regular, 1e-9 otherwise), weighted = simple on regular",
              checked, started, failures)


def test_criterion_4_geodetic_excess(corpus):
    started = time.monotonic()
    failures = []
    checked = 0
    for ctx in corpus:
        if ctx.normal:
            failures += check_geodetic_set(ctx)
            checked += 1
    value, attained = q_norm_check(predistance_polynomials(petersen()), 10)
    if not (value == 10 and attained):
        failures.append(f"Petersen q-norm {value} should attain 10")
    value, attained = q_norm_check(predistance_polynomials(hypercube(3)), 8)
    if not (value == 52 and not attained):
        failures.append(f"cube q-norm {value} should be 52, missing 8")
    for n in range(3, 13):
        value, attained = q_norm_check(
            predistance_polynomials(directed_cycle(n)), n)
        if not attained:
            failures.append(f"directed cycle {n}: q-norm {value} missed {n}")
    _conclude(4, "q-norm hits n iff geodetic distance-regular; named values",
              checked + 12, started, failures)


def test_criterion_5_named_values_against_oracle():
    started = time.monotonic()
    cases = [("P_3", path(3), Fraction(2, 3), Fraction(8, 9)),
             ("Petersen", petersen(), Fraction(6), Fraction(6)),
             ("K_4", complete(4), Fraction(3), Fraction(3)),
             ("Q_3", hypercube(3), Fraction(36), Fraction(36))]
    for n in range(3, 13):
        cases.append((f"C_{n}", directed_cycle(n), Fraction(1), Fraction(1)))
    failures = []
    for label, G, want_simple, want_spectral in cases:
        ref = oracles.naive_excess_pair(G.n, G.arcs)
        ctx = AnalysisContext(G)
        got = (simple_excess(ctx.profile, ctx.basis.d, ctx.ds.diameter),
               spectral_excess(ctx.basis))
        if ref != (want_simple, want_spectral):
            failures.append(f"{label}: oracle produced {ref}, expected "
                            f"({want_simple}, {want_spectral})")
        if got != (want_simple, want_spectral):
            failures.append(f"{label}: library produced {got}, expected "
                            f"({want_simple}, {want_spectral})")
    _conclude(5, "named excess pairs reproduced independently by the "
                 "brute-force oracle and the library", len(cases), started,
              failures)


def test_criterion_6_excess_through_spectrum(corpus):
    started = time.monotonic()
    failures = []
    checked = 0
    for ctx in corpus:
        if dr_direct(ctx.ds).decision:
            failures += check_excess_product(ctx, tol=1e-9)
            checked += 1
    ctx = AnalysisContext(petersen())
    s_prime = ctx.basis.minpoly.squarefree_part().derivative()
    pi0 = s_prime(Fraction(3))
    if pi0 != 10 or (Fraction(pi0, 10)) ** 2 * ctx.profile.delta[2] != 6:
        failures.append(f"Petersen pi0 route gave {pi0}")
    _conclude(6, "(pi0/n)^2 * delta_D equals the simple excess on every "
                 "distance-regular member", checked + 1, started, failures)


def test_criterion_7_odd_girth_suite(corpus):
    started = time.monotonic()
    failures = []
    for ctx in corpus:
        failures += check_odd_girth_suite(ctx)
    _conclude(7, "odd-girth ceiling, forcing at the floor, nonempty "
                 "trichotomy, trace route agreement", len(corpus), started,
              failures)


def test_criterion_8_spectral_route_numerics(corpus):
    started = time.monotonic()
    failures = []
    checked = 0
    for ctx in corpus:
        if ctx.normal:
            failures += check_conjugation(ctx, tol=1e-8)
            checked += 1
    for label, G, _expected in standard_families(max_vertices=64):
        ctx = AnalysisContext(G)
        if ctx.normal:
            failures += [f"{label}: {m}" for m in check_conjugation(ctx, tol=1e-8)]
            checked += 1
    _conclude(8, "spectral-route coefficients within 1e-8 of exact and "
                 "f(A) = transpose within 1e-8, corpus and families",
              checked, started, failures)


def test_criterion_9_generator_contracts():
    started = time.monotonic()
    suite = family_suite()
    failures = list(suite.failures)
    for g in (3, 4, 5):
        for m in (2, 3):
            lifted = tensor_lift(directed_cycle(g), m)
            ds = AnalysisContext(lifted).ds
            if not dr_direct(ds).decision or ds.diameter != g:
                failures.append(f"lift of C_{g} by {m}: dr="
                                f"{dr_direct(ds).decision} D={ds.diameter}")
    _conclude(9, "advertised family properties hold via direct oracles; "
                 "cycle lifts are distance-regular with D = g",
              suite.checked + 6, started, failures)


@pytest.mark.parametrize("n", [40, 50])
def test_numeric_weighted_track_completes_on_wide_random_digraphs(n):
    """Large irrational-Perron inputs end with a weighted excess, not an
    error or a weighted-track alarm."""
    for seed in range(3):
        G = random_non_regular(n, round(0.1 * n * (n - 1)), seed)
        report = full_report(G)
        assert report.excess["weighted_exact"] is False, (n, seed)
        assert not [a for a in report.alarms if a.startswith("weighted excess:")], \
            (n, seed, report.alarms)


@pytest.mark.parametrize("G, generalized_odd", [(hypercube(8), False),
                                                (kneser_odd_graph(6), True)],
                         ids=["hypercube8", "kneser6"])
def test_large_few_eigenvalue_families_report_distance_regular(G, generalized_odd):
    """n = 256 and 462: the report decides distance-regularity on both
    routes, with no alarm."""
    report = full_report(G)
    assert report.alarms == []
    assert report.verdicts["dr"].decision
    assert report.verdicts["dr"].certificate["direct_decision"]
    assert report.verdicts["wdr"].decision
    assert report.verdicts["generalized_odd_graph"].decision is generalized_odd
