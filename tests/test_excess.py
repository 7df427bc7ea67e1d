"""Excess quantities and projection bounds.

Claims checked:
  * the two delta-prime routes (path counting vs matrix powers) agree
  * simple, spectral and weighted excess reproduce hand values
  * the scaling substitution between the two normalizations is exact
  * projection sums respect their bounds and detect attainment
  * subset-system validation and the masked-power consistency rule:
    system_mask raises the errors generalized_projection_sum raises (a
    negative index included) and reads duplicates, ranges, tuples and
    numpy ints alike into one int, bit k (D+1) + j for j in S_k; the
    batch sums take those ints and reject a bit past (D+1)^2, an empty
    row or, under variant ii, a missing diagonal bit, and a batch sum of
    masks equals the single sums of their systems
  * the weighted layers from the Perron vectors match the layers
    reweighted by the evaluated Hoffman matrix H(A)
  * on the exact track they equal the layers from an independent
    Fraction null-vector oracle (no Hoffman polynomial), on every
    strongly connected digraph with n <= 4 and on stars up to K_{1,100}
  * the refined Perron vectors are positive integers that solve the
    full eigenproblem to the working precision, and a perturbed Perron
    value fails the dropped equation; on the exact track a polynomial
    other than the Hoffman polynomial, or the wrong Perron value, fails
    the positivity or eigen-equation check
  * an irrational Perron value with a large division remainder in
    absolute terms still passes the Hoffman residual gate, which is
    sized from the precision the caller works at
  * a wrong geodesic count on any layer, past int64 too, fails the
    masked-power rule
"""

import dataclasses
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest

import oracles
from dgexcess import (AnalysisContext, MatrixPowers, PerronError, build_digraph,
                      complete, complete_bipartite, directed_cycle, delta_profile,
                      distance_structure, enumerate_digraphs,
                      generalized_projection_sum, hypercube,
                      masked_power_check, path, petersen,
                      predistance_polynomials, projection_sum_totals,
                      projection_tables, q_norm_check, regularity_test,
                      simple_excess, spectral_excess, strong_connectivity,
                      upper_projection_sum, wdr_projection_sum,
                      weighted_excess, weighted_layers)
from dgexcess.classify import full_report
from dgexcess.excess import _mask_subsets, system_mask
from dgexcess.harness import standard_families
from dgexcess.linalg import hoffman_ingredients, hoffman_perron_vectors, perron_vectors
from dgexcess.polynomial import Polynomial


# -- Helpers -----------------------------------------------------------------

def ctx_for(G):
    return AnalysisContext(G)


def corpus3():
    return list(enumerate_digraphs(3, "strongly_connected"))


# -- Delta-prime routes ------------------------------------------------------

def test_projection_tables_agree_with_path_counts():
    graphs = [path(3), petersen(), hypercube(3), directed_cycle(7)]
    graphs += list(enumerate_digraphs(4, "strongly_connected",
                                      sample_limit=40, seed=9))
    for G in graphs:
        ds = distance_structure(G)
        basis = predistance_polynomials(G)
        tables = projection_tables(ds, basis)
        profile = delta_profile(ds)
        assert tables.delta_prime == profile.delta_prime
        for k in range(ds.diameter + 1):
            assert tables.inner[k][k] == profile.delta_prime[k]


def test_support_vanishing_below_distance():
    ds = distance_structure(petersen())
    tables = projection_tables(ds, predistance_polynomials(petersen()))
    # <A_k, p_j(A)> = 0 whenever j < k: no walks shorter than the distance
    assert tables.inner[2][1] == 0 and tables.inner[1][0] == 0
    assert tables.inner[2][0] == 0


# -- Excess values -----------------------------------------------------------

def test_named_excess_values():
    cases = [
        (path(3), Fraction(2, 3), Fraction(8, 9)),
        (petersen(), Fraction(6), Fraction(6)),
        (complete(4), Fraction(3), Fraction(3)),
        (hypercube(3), Fraction(36), Fraction(36)),
    ]
    for G, eps_g, eps_d in cases:
        ctx = ctx_for(G)
        assert simple_excess(ctx.profile, ctx.basis.d, ctx.ds.diameter) == eps_g
        assert spectral_excess(ctx.basis) == eps_d
    for n in range(3, 13):
        ctx = ctx_for(directed_cycle(n))
        assert simple_excess(ctx.profile, ctx.basis.d, ctx.ds.diameter) == 1
        assert spectral_excess(ctx.basis) == 1


def test_simple_excess_zero_when_d_exceeds_diameter():
    paw = build_digraph(4, [(0, 1), (1, 0), (1, 2), (2, 1), (2, 0), (0, 2),
                            (0, 3), (3, 0)])
    ctx = ctx_for(paw)
    assert ctx.basis.d == 3 and ctx.ds.diameter == 2
    assert simple_excess(ctx.profile, ctx.basis.d, ctx.ds.diameter) == 0
    assert spectral_excess(ctx.basis) > 0


def test_weighted_layers_path3():
    G = path(3)
    ctx = ctx_for(G)
    W = ctx.weighted
    assert not W.exact
    with mpmath.workdps(W.dps):
        assert abs(W.delta[0] - mpmath.mpf(9) / 8) < 1e-30
        assert abs(W.delta[2] - mpmath.mpf(3) / 8) < 1e-30
        assert abs(W.delta_prime[2] - mpmath.mpf(1) / 2) < 1e-30
        ew = weighted_excess(W, ctx.ds, ctx.basis.d)
        assert abs(ew - mpmath.mpf(2) / 3) < 1e-30


def test_weighted_equals_simple_for_regular():
    for G in (petersen(), complete(5), directed_cycle(6), hypercube(3)):
        ctx = ctx_for(G)
        W = ctx.weighted
        assert W.exact
        ew = weighted_excess(W, ctx.ds, ctx.basis.d)
        assert ew == simple_excess(ctx.profile, ctx.basis.d, ctx.ds.diameter)


def test_scaling_substitution_is_exact():
    # <A_k, P_j(A)>^2 / delta_j equals <A_k, p_j(A)>^2 / eps_j, with
    # P_j = c_j p_j and c_j^2 = delta_j / eps_j; both sides as rationals,
    # and both equal to the integer table's variant-ii term
    for G in corpus3():
        ctx = ctx_for(G)
        D = ctx.ds.diameter
        terms, L = ctx.tables.terms_ii
        for k in range(D + 1):
            for j in range(D + 1):
                T = ctx.tables.inner[k][j]
                c2 = ctx.profile.delta[j] / ctx.basis.norms2[j]
                lhs = c2 * T * T / ctx.profile.delta[j]
                rhs = T * T / ctx.basis.norms2[j]
                assert lhs == rhs == Fraction(terms[k][j], L)


# -- Projection bounds -------------------------------------------------------

def test_projection_sums_named():
    ctx = ctx_for(petersen())
    diag = wdr_projection_sum(ctx.ds, ctx.basis)
    upper = upper_projection_sum(ctx.ds, ctx.basis)
    assert diag.total == 10 and diag.attained
    assert upper.total == 10 and upper.attained
    ctx = ctx_for(path(3))
    diag = wdr_projection_sum(ctx.ds, ctx.basis)
    assert diag.total == Fraction(17, 6) and not diag.attained
    assert diag.holds and all(diag.per_k_holds)


def test_q_norm_named_values():
    assert q_norm_check(predistance_polynomials(petersen()), 10) == \
        (Fraction(10), True)
    value, attained = q_norm_check(predistance_polynomials(hypercube(3)), 8)
    assert value == 52 and not attained
    for n in (3, 5, 8, 12):
        assert q_norm_check(predistance_polynomials(directed_cycle(n)), n) == \
            (Fraction(n), True)


def test_generalized_sum_validation():
    ctx = ctx_for(petersen())
    D = ctx.ds.diameter
    good = [[k] for k in range(D + 1)]
    pb = generalized_projection_sum(ctx.ds, ctx.basis, good, "ii")
    assert pb.attained                   # Petersen is distance-regular
    with pytest.raises(ValueError):
        generalized_projection_sum(ctx.ds, ctx.basis, good, "iii")
    with pytest.raises(ValueError):
        generalized_projection_sum(ctx.ds, ctx.basis, good[:-1], "i")
    with pytest.raises(ValueError):
        generalized_projection_sum(ctx.ds, ctx.basis,
                                   [[0], [], [2]], "i")
    with pytest.raises(ValueError):
        generalized_projection_sum(ctx.ds, ctx.basis,
                                   [[0], [1], [D + 1]], "i")
    with pytest.raises(ValueError):
        generalized_projection_sum(ctx.ds, ctx.basis,
                                   [[1], [1], [2]], "ii")  # 0 not in S_0


def _raised(call):
    with pytest.raises(ValueError) as info:
        call()
    return str(info.value)


def test_batch_and_single_sums_raise_the_same_errors():
    # a list system is validated by system_mask, which generalized_projection_sum
    # calls and whose int projection_sum_totals takes
    ctx = ctx_for(path(4))                    # diameter 3
    D = ctx.ds.diameter
    bad = [([[0], [1], [2]], "i", "need 4 index subsets, got 3"),
           ([[0], [], [2], [3]], "i", "subset for layer 1 is empty"),
           ([[0], [1], [2], [D + 1]], "i", "subset for layer 3 leaves the range 0..3"),
           # a negative index raises and does not wrap to D
           ([[0], [1], [-1], [3]], "i", "subset for layer 2 leaves the range 0..3"),
           ([[0], [1], [2, -4], [3]], "ii", "subset for layer 2 leaves the range 0..3"),
           ([[0], [0, 2], [2], [3]], "ii", "variant ii needs 1 in its own subset"),
           ([[0], [1], [2], [3]], "iii", "variant must be 'i' or 'ii', got 'iii'")]
    for subsets, variant, message in bad:
        single = _raised(lambda: generalized_projection_sum(
            ctx.ds, ctx.basis, subsets, variant, tables=ctx.tables))
        assert single == _raised(lambda: system_mask(subsets, D, variant)) == message
    diagonal = system_mask([[k] for k in range(D + 1)], D, "ii")
    assert _raised(lambda: projection_sum_totals(ctx.tables, [diagonal], "iii")) == \
        "variant must be 'i' or 'ii', got 'iii'"
    # a system bad only under variant ii fails a batch that asks for ii
    only_i = system_mask([[1], [1], [2], [3]], D, "i")
    assert _raised(lambda: projection_sum_totals(ctx.tables, [diagonal, only_i],
                                                 "i", "ii")) == \
        "variant ii needs 0 in its own subset"
    assert projection_sum_totals(ctx.tables, [only_i], "i")


def test_batch_sums_reject_a_mask_no_system_gives():
    ctx = ctx_for(path(4))                    # diameter 3: 16 terms, rows of 4 bits
    full = (1 << 16) - 1
    past = "system mask sets a bit past the 16 terms of diameter 3"
    bad = [(full | 1 << 16, "i", past),
           (1 << 40 | 0b1000010000100001, "ii", past),
           (-1, "i", past),                   # a negative int sets every high bit
           (full & ~(0b1111 << 8), "i", "subset for layer 2 is empty"),
           (full & ~(0b1111 << 8), "ii", "subset for layer 2 is empty"),
           (0, "i", "subset for layer 0 is empty"),
           (full & ~(1 << 4 + 1), "ii", "variant ii needs 1 in its own subset"),
           (full & ~(1 << 12 + 3), "ii", "variant ii needs 3 in its own subset")]
    for mask, variant, message in bad:
        assert _raised(lambda: projection_sum_totals(ctx.tables, [full, mask],
                                                     variant)) == message
    # a missing diagonal bit is no fault under variant i alone
    assert projection_sum_totals(ctx.tables, [full & ~(1 << 5), full & ~(1 << 15)], "i")
    with pytest.raises(TypeError, match="system_mask int, got list"):
        projection_sum_totals(ctx.tables, [[[0], [1], [2], [3]]], "i")


def test_subset_spellings_give_the_same_sums():
    ctx = ctx_for(path(4))
    plain = [[0, 1], [1, 3], [0, 2], [3]]
    spellings = [[[0, 1, 0], [3, 1, 1], [2, 0, 2], [3, 3]],          # duplicates
                 [range(2), (1, 3), (0, 2), range(3, 4)],            # range, tuple
                 [np.array(S, dtype=np.int64) for S in plain],       # numpy ints
                 [[np.int32(j) for j in S] for S in plain]]
    # bit k (D+1) + j for j in S_k
    assert system_mask(plain, 3, "i") == sum(1 << 4 * k + j for k, S in enumerate(plain)
                                             for j in S)
    for variant in ("i", "ii"):
        want = generalized_projection_sum(ctx.ds, ctx.basis, plain, variant,
                                          tables=ctx.tables)
        masks = [system_mask(S, 3, variant) for S in [plain] + spellings]
        assert set(masks) == {masks[0]} and all(type(m) is int for m in masks)
        assert _mask_subsets(masks[0], 3) == plain
        (totals, L), = projection_sum_totals(ctx.tables, masks, variant)
        assert L == want.denominator and set(totals) == {want.total_num}
        for subsets in spellings:
            assert generalized_projection_sum(ctx.ds, ctx.basis, subsets, variant,
                                              tables=ctx.tables) == want


def test_generalized_sum_bounded_on_corpus():
    import random
    rng = random.Random(7)
    for G in corpus3():
        ctx = ctx_for(G)
        D = ctx.ds.diameter
        systems, bounds = [], []
        for _ in range(100):
            subsets = []
            for k in range(D + 1):
                S = [j for j in range(D + 1) if rng.random() < 0.6]
                subsets.append(S or [rng.randrange(D + 1)])
            pb = generalized_projection_sum(ctx.ds, ctx.basis, subsets, "i")
            assert pb.holds
            systems.append(system_mask(subsets, D, "i"))
            bounds.append(pb)
        # the batch sum of each system's mask is the single sum's numerator
        (totals, L), = projection_sum_totals(ctx.tables, systems, "i")
        assert totals == [pb.total_num for pb in bounds]
        assert {pb.denominator for pb in bounds} == {L}


def test_masked_power_rule():
    for G in corpus3():
        assert masked_power_check(distance_structure(G))
    assert masked_power_check(distance_structure(petersen()))


def test_masked_power_rule_fails_on_a_wrong_count():
    ds = distance_structure(path(5))
    assert masked_power_check(ds)
    # each pair is compared on its own layer, past int64 too
    for pair, wrong in (((0, 3), 2), ((0, 4), 2 ** 70), ((2, 2), 0)):
        bad = dataclasses.replace(ds, path_counts=ds.path_counts.copy())
        bad.path_counts[pair] = wrong
        assert not masked_power_check(bad), (pair, wrong)
    # K12 with a 17-vertex tail: r^D = 12^18 passes 2^53, so the walk
    # counts come from word-size primes; one top-layer count off by one
    arcs = [(u, v) for u in range(12) for v in range(12) if u != v]
    arcs += [a for v in range(11, 28) for a in ((v, v + 1), (v + 1, v))]
    ds = distance_structure(build_digraph(29, arcs))
    assert 12 ** ds.diameter >= 2 ** 53 and masked_power_check(ds)
    bad = dataclasses.replace(ds, path_counts=ds.path_counts.copy())
    bad.path_counts[0, 28] += 1
    assert ds.dist[0, 28] == ds.diameter and not masked_power_check(bad)


# -- Weighted layers: Perron vectors against the evaluated H(A) --------------

def hoffman_route(ctx):
    """delta~_k and <A~_k, A^k> = (1/n) sum A~_k o A^k with A~_k = H(A) o
    A_k, H(A) evaluated as a schoolbook matrix polynomial; the reference
    the rank-one route replaces."""
    hp, n, D = ctx.hoffman, ctx.G.n, ctx.ds.diameter
    A = ctx.G.adjacency.tolist()

    def build():
        HA = np.array(oracles.naive_matrix_polynomial(hp.poly.coeffs, A), dtype=object)
        powers = oracles.naive_power_list(A, D)
        delta, prime = [], []
        for k in range(D + 1):
            tilde = HA * ctx.ds.layers[k]
            delta.append((tilde * tilde).sum() / n)
            prime.append((tilde * np.array(powers[k], dtype=object)).sum() / n)
        return tuple(delta), tuple(prime)

    if hp.exact:
        return build()
    with mpmath.workdps(hp.dps):
        return build()


def random_non_regular(n, arcs, seed):
    rng = random.Random(seed)
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    while True:
        G = build_digraph(n, rng.sample(pairs, arcs))
        if strong_connectivity(G) and not regularity_test(G)[0]:
            return G


def test_weighted_layers_exact_equal_hoffman_route():
    graphs = corpus3() + [G for _, G, _ in standard_families()]
    graphs += [complete_bipartite(1, 4), complete_bipartite(2, 8)]
    for G in graphs:
        ctx = ctx_for(G)
        if not ctx.hoffman.exact:
            continue
        W = ctx.weighted
        assert W.exact
        assert (W.delta, W.delta_prime) == hoffman_route(ctx)
        assert all(type(x) is Fraction for x in W.delta + W.delta_prime)


def test_weighted_layers_exact_equal_perron_oracle():
    # the oracle reads no Hoffman polynomial, which hoffman_route shares
    graphs = [G for n in range(1, 5) for G in enumerate_digraphs(n, "strongly_connected")]
    graphs += [complete_bipartite(a, b)
               for a, b in ((1, 4), (1, 9), (2, 8), (3, 12), (1, 100))]
    exact = non_regular = 0
    for G in graphs:
        ctx = ctx_for(G)
        if not ctx.hoffman.exact:
            continue
        exact += 1
        non_regular += not regularity_test(G)[0]
        W = ctx.weighted
        assert W.exact
        want = oracles.naive_weighted_layers(G.n, G.arcs, ctx.hoffman.lambda0_exact)
        assert (W.delta, W.delta_prime) == want, G
    assert (exact, non_regular) == (189 + 5, 168 + 5)


def test_weighted_layers_integer_perron_non_regular():
    # symmetric stars with a square number of leaves have an integer
    # Perron value but non-constant Perron vectors
    for a, b, lam in ((1, 4, 2), (2, 8, 4)):
        ctx = ctx_for(complete_bipartite(a, b))
        assert not regularity_test(ctx.G)[0]
        assert ctx.hoffman.lambda0_exact == lam
        W = ctx.weighted
        assert W.exact
        assert W.delta != ctx.profile.delta


def test_weighted_layers_regular_are_the_plain_layers():
    for G in (petersen(), hypercube(4), directed_cycle(9), complete(5)):
        ctx = ctx_for(G)
        assert ctx.weighted.delta == ctx.profile.delta
        assert ctx.weighted.delta_prime == ctx.tables.delta_prime


@pytest.mark.parametrize("precision", [None, "80"])
def test_weighted_layers_numeric_match_hoffman_route(monkeypatch, precision):
    if precision is not None:
        monkeypatch.setenv("DGEXCESS_PRECISION", precision)
    graphs = [path(3), path(5), path(12), complete_bipartite(1, 3),
              random_non_regular(9, 20, seed=11),
              random_non_regular(16, 48, seed=3)]
    for G in graphs:
        ctx = ctx_for(G)
        W = ctx.weighted
        assert not W.exact and W.dps == ctx.dps
        delta, prime = hoffman_route(ctx)
        with mpmath.workdps(W.dps):
            for new, old in zip(W.delta + W.delta_prime, delta + prime):
                assert abs(new - old) < 1e-30


def test_weighted_layers_signature_and_fields():
    ctx = ctx_for(path(4))
    W = weighted_layers(ctx.G, ctx.hoffman, ctx.ds)
    # the powers slot is accepted and not read
    assert W == weighted_layers(ctx.G, ctx.hoffman, ctx.ds,
                                MatrixPowers(ctx.G.adjacency))
    assert not hasattr(W, "matrices")


@pytest.mark.parametrize("precision", [None, "80"])
def test_refined_perron_vectors_solve_the_eigenproblem(monkeypatch, precision):
    if precision is not None:
        monkeypatch.setenv("DGEXCESS_PRECISION", precision)
    for G in (path(40), random_non_regular(36, 126, seed=1)):
        ctx = ctx_for(G)
        hp = ctx.hoffman
        assert not hp.exact
        A = G.adjacency.astype(object)
        with mpmath.workdps(hp.dps):
            u, v = perron_vectors(G.adjacency, hp.lambda0)
        for x, M in ((u, A), (v, A.T)):
            assert all(type(c) is int and c > 0 for c in x)
            with mpmath.workdps(hp.dps + 20):
                lam = mpmath.mpf(hp.lambda0)
                got = [mpmath.mpf(c) for c in M.dot(x)]
                want = [lam * c for c in x]
                gap = max(abs(a - b) for a, b in zip(got, want))
                assert gap <= max(want) * mpmath.mpf(10) ** (5 - hp.dps)


def test_perturbed_perron_value_misses_the_dropped_equation():
    # the star K_{1,4} has Perron value 2 and Hoffman polynomial
    # 5 (x^2 + 2x) / 8, whose column 0 at A is (5/2, 5/4, 5/4, 5/4, 5/4)
    hp = ctx_for(complete_bipartite(1, 4)).hoffman
    A = complete_bipartite(1, 4).adjacency
    u, v = hoffman_perron_vectors(A, hp.poly, hp.lambda0_exact)
    assert list(u) == list(v) == [2, 1, 1, 1, 1]
    # 1 gives e_0, not positive; 1 + x and H + 1 give positive vectors
    # that miss A u = 2 u; at 3 the true column misses it too
    for h, lam in ((Polynomial((1,)), 2), (Polynomial((1, 1)), 2),
                   (hp.poly + Polynomial((1,)), 2), (hp.poly, 3)):
        with pytest.raises(PerronError):
            hoffman_perron_vectors(A, h, Fraction(lam))
    for G in (path(40), random_non_regular(36, 126, seed=1)):
        hp = ctx_for(G).hoffman
        with mpmath.workdps(hp.dps):
            wrong = hp.lambda0 * (1 + mpmath.mpf(10) ** -20)
            with pytest.raises(PerronError):
                perron_vectors(G.adjacency, wrong)


def test_hoffman_gate_scales_with_the_perron_value():
    # lambda0 ~ 4.85 and a degree-50 minimal polynomial: the remainder
    # m(lambda0) is large in absolute terms but tiny against the Horner
    # magnitude sum |c_k| lambda0^k
    G = random_non_regular(50, 245, seed=0)
    report = full_report(G)
    assert report.excess["weighted_exact"] is False
    assert not [a for a in report.alarms if a.startswith("weighted excess:")]
    ctx = ctx_for(G)
    minpoly, lam = ctx.basis.minpoly, ctx.hoffman.lambda0
    with mpmath.workdps(ctx.dps):
        hoffman_ingredients(minpoly, lam)
        with pytest.raises(ValueError):
            hoffman_ingredients(minpoly, lam + mpmath.mpf("1e-3"))


@pytest.mark.parametrize("precision", [20, 80])
def test_hoffman_gate_follows_the_callers_precision(monkeypatch, precision):
    # lambda0 of path(40) is refined to the DGEXCESS_PRECISION the
    # context reads, `precision` digits, and gated at half of them
    monkeypatch.setenv("DGEXCESS_PRECISION", str(precision))
    ctx = AnalysisContext(path(40))
    hp = ctx.hoffman
    assert hp.dps == precision and not hp.exact
    with mpmath.workdps(precision + 10):
        assert abs(hp.lambda0 - 2 * mpmath.cos(mpmath.pi / 41)) < \
            mpmath.mpf(10) ** -(precision - 2)
    W = ctx.weighted
    assert W.dps == precision
    with mpmath.workdps(precision):
        assert abs(weighted_excess(W, ctx.ds, ctx.basis.d) - mpmath.mpf(1) / 20) < \
            mpmath.mpf(10) ** -(precision // 2)
        # a Perron value off in digit 20 leaves a relative remainder near
        # 10^-32: inside a gate at 10^-25, outside one at 10^-40
        wrong = hp.lambda0 * (1 + mpmath.mpf(10) ** -20)
        if precision == 80:
            with pytest.raises(ValueError):
                hoffman_ingredients(ctx.basis.minpoly, wrong, precision)
            hoffman_ingredients(ctx.basis.minpoly, wrong, 50)
