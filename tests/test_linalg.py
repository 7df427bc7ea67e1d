"""Exact matrix arithmetic, minimal polynomials and the spectrum.

Claims checked:
  * MatrixPowers escalates past int64 without losing exactness
  * exact_matmul switches from float64 to int64 at 2^53 and to Python
    ints at 2^62, and a product float64 would round comes back exact
  * MatrixPowers equals schoolbook powers up to A^n across all three
    arithmetic tiers
  * the monomial Gram-Schmidt reproduces a textbook re-derivation, with
    the pre-distance polynomials read in any order and pickled part-read
  * the moment table, from float64 below 2^53 and from word-size primes
    at or above it, equals the schoolbook Frobenius sums, and the basis
    built on it forms no big-integer power
  * the row-sum bound holds every moment and power-row entry of seeded
    strongly connected digraphs and of the family suite, and never
    exceeds the bound rows r^(2K-2) it replaces; on the benchmark's
    random-40 digraph it takes the last moment block from 13 primes to
    at most 9
  * the projection tables, the masked walk counts and the power traces
    take the same split at 2^53 and equal schoolbook powers on both
    sides of it
  * minimal polynomials of the named graphs come out exactly
  * eigenvalue clustering, multiplicities and Perron certification;
    perron_value and spectrum both return a regular digraph's degree
    without polishing it, spectrum's Perron value is perron_value's on
    non-regular digraphs, and a failed clustering raises before any
    refinement
  * Hoffman ingredients divide exactly and reject non-roots
  * the array polish of the real clusters keeps the spectra the scalar
    complex polish recorded (float.hex of every value) on paths, whose
    eigvals come back real, and on a circulant and a random non-normal
    digraph, whose eigvals come back complex; only the clusters off the
    real axis take the scalar loop, and path(19)'s zero stays 0.0
  * _newton_real equals _newton_complex bit for bit from float64 and
    complex128 starts, the df == 0 exit included, and hands back the
    starts that leave the float range
  * full_report and spectrum run np.linalg.eigvals once
  * matrix_polynomial sums float coefficients in float64, equal to the
    object-array sum entry for entry, past 2^62 too; past the float
    range both raise OverflowError, and exact coefficients stay exact
"""

import hashlib
import operator
import os
import pickle
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest

import dgexcess.linalg as linalg
import oracles
from dgexcess import (MatrixPowers, PerronError, Polynomial, SpectrumError,
                      build_digraph, circulant, complete, directed_cycle,
                      distance_structure, hoffman_ingredients, hypercube, masked_power_check,
                      minimal_polynomial, normality_test,
                      orthogonal_monomial_basis, paley_tournament, path,
                      perron_value, petersen, power_traces,
                      predistance_polynomials, projection_tables, spectrum,
                      tensor_lift, working_dps)
from dgexcess.generators import enumerate_digraphs
from dgexcess.harness import standard_families
from dgexcess.linalg import _FLOAT_EXACT, _moment_rows, exact_matmul, refine_real_root


# -- Matrix powers and inner products ----------------------------------------

def test_matrix_powers_basic():
    A = directed_cycle(4).adjacency
    mp = MatrixPowers(A)
    assert (mp[0] == np.eye(4, dtype=np.int64)).all()
    assert (mp[4] == np.eye(4, dtype=np.int64)).all()
    assert power_traces(A, 4) == [4, 0, 0, 0, 4]


def test_matrix_powers_escalates_past_int64():
    A = complete(8).adjacency          # entries grow like 7^k
    mp = MatrixPowers(A)
    P30 = mp[30]
    assert P30.dtype == object
    ref = oracles.naive_power([[int(x) for x in row] for row in A], 30)
    assert int(P30[0, 1]) == ref[0][1]
    assert int(P30[0, 0]) == ref[0][0]
    assert ref[0][1] > 2 ** 63         # the check was not vacuous


@pytest.mark.parametrize("top, dtype", [
    (2 ** 53 - 1, np.int64),    # float64 tier, at its last exact integer
    (2 ** 53 + 1, np.int64),    # int64 tier: float64 would give 2^53
    (2 ** 62 - 1, np.int64),
    (2 ** 62 + 1, object),      # Python ints
    (2 ** 63 + 1, object),      # past int64 altogether
])
def test_exact_matmul_tier_boundaries(top, dtype):
    # [1 1] [a; b] = a + b = top, with a and b below 2^62 and the bound tight
    a = top // 2
    P = np.array([[1, 1]], dtype=np.int64)
    Q = np.array([[a], [top - a]], dtype=np.int64)
    out = exact_matmul(P, Q, top)
    assert out.dtype == dtype
    assert int(out[0, 0]) == top and type(out.tolist()[0][0]) is int


def test_exact_matmul_keeps_odd_products_past_2_53_exact():
    rng = random.Random(53)
    n = 6
    # entries up to 2^48 against entries up to 2^5: products reach 2^54,
    # and most of them are odd, so float64 would round them
    P = np.array([[rng.randrange(1, 2 ** 48) | 1 for _ in range(n)] for _ in range(n)],
                 dtype=object)
    Q = np.array([[rng.randrange(1, 2 ** 5) | 1 for _ in range(n)] for _ in range(n)],
                 dtype=object)
    exact = P @ Q
    bound = int(abs(P).max()) * int(abs(Q).sum(axis=0).max())
    assert _FLOAT_EXACT <= bound < 2 ** 62
    got = exact_matmul(P.astype(np.int64), Q.astype(np.int64).astype(np.float64), bound)
    assert got.dtype == np.int64 and (got.astype(object) == exact).all()
    rounded = (P.astype(np.float64) @ Q.astype(np.float64)).astype(np.int64)
    assert (rounded.astype(object) != exact).any()    # not vacuous
    # the same with signs, past int64, on Python ints
    big = P * (2 ** 20) - 2 ** 67
    got = exact_matmul(big, Q, int(abs(big).max()) * int(abs(Q).sum(axis=0).max()))
    assert got.dtype == object and (got == big @ Q).all()


def _lollipop(clique: int, tail: int):
    """A complete graph on `clique` vertices with a path of `tail` more
    vertices hung from vertex clique - 1, both ways."""
    arcs = [(u, v) for u in range(clique) for v in range(clique) if u != v]
    for v in range(clique - 1, clique + tail - 1):
        arcs += [(v, v + 1), (v + 1, v)]
    return build_digraph(clique + tail, arcs)


@pytest.mark.parametrize("G", [path(40), _lollipop(10, 20)], ids=["path40", "lollipop"])
def test_matrix_powers_match_schoolbook_powers(G):
    A = [[int(x) for x in row] for row in G.adjacency]
    naive = oracles.naive_power_list(A, G.n)
    mp = MatrixPowers(G.adjacency)
    for k, P in enumerate(naive):
        assert mp[k].tolist() == P, k
    tops = [max(max(row) for row in P) for P in naive]
    dtypes = [mp[k].dtype for k in range(G.n + 1)]
    if G.n == 40:
        # path(40): every bound stays below 2^53, so every step is float64
        assert max(tops) < _FLOAT_EXACT and object not in dtypes
    else:
        # the lollipop passes 2^53 in int64, then 2^62 on Python ints
        assert any(t >= _FLOAT_EXACT and d == np.int64 for t, d in zip(tops, dtypes))
        assert dtypes[-1] == object and tops[-1] > 2 ** 63


def _frobenius(P, Q) -> int:
    """Sum of the entrywise product, on Python ints."""
    return int((P.astype(object) * Q.astype(object)).sum())


def test_normality():
    assert normality_test(petersen().adjacency)
    assert normality_test(directed_cycle(5).adjacency)
    assert not normality_test(build_digraph(
        3, [(0, 1), (1, 2), (2, 0), (0, 2)]).adjacency)


# -- Gram-Schmidt against the textbook oracle --------------------------------

def _seeded_digraph(n, arcs, seed):
    rng = random.Random(seed)
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    return build_digraph(n, sorted(rng.sample(pairs, arcs)))


def test_monomial_basis_matches_naive_gram_schmidt():
    # the last three have dhat close to n: circulant(13, .) has moments
    # past 2^63 and 13 distinct eigenvalues, and the seeded non-normal
    # digraph has moments past 2^63 and a minimal polynomial that is
    # not square-free (dhat = 11, d = 10)
    wide = [circulant(13, (1, 2, 3, 4, 5, 7)), path(12),
            _seeded_digraph(12, 72, 235)]
    graphs = [path(3), petersen(), directed_cycle(5), hypercube(3)] + wide
    for G in enumerate_digraphs(4, "strongly_connected", sample_limit=60,
                                seed=3):
        graphs.append(G)
    for G in graphs:
        mb = orthogonal_monomial_basis(MatrixPowers(G.adjacency))
        A = [[int(x) for x in row] for row in G.adjacency]
        basis, norms, minpoly = oracles.naive_gram_schmidt(A)
        assert list(mb.norms2) == norms
        assert [tuple(p.coeffs) for p in mb.polys] == \
            [tuple(b) for b in basis]
        assert tuple(mb.minpoly.coeffs) == tuple(minpoly)
    # the inputs reach what they are there for
    big = max(_frobenius(P, P) for G in (wide[0], wide[2])
              for P in [MatrixPowers(G.adjacency)[G.n]])
    assert big > 2 ** 63
    dhats = [orthogonal_monomial_basis(MatrixPowers(G.adjacency)).dhat
             for G in wide]
    assert dhats == [12, 11, 11]
    assert minimal_polynomial(wide[2])[0].squarefree_part().degree == 11


def test_monomial_basis_polys_read_in_any_order():
    for G in (path(12), circulant(13, (1, 2, 3, 4, 5, 7)),
              _seeded_digraph(12, 72, 235)):
        basis, _, _ = oracles.naive_gram_schmidt(
            [[int(x) for x in row] for row in G.adjacency])
        naive = tuple(Polynomial(tuple(b)) for b in basis)
        top = len(naive) - 1
        mb = orthogonal_monomial_basis(MatrixPowers(G.adjacency))
        assert len(mb.polys) == top + 1 == mb.dhat + 1
        assert mb.polys[top] == naive[top]
        assert mb.polys[-1] is mb.polys[top]
        assert [mb.polys[-k] for k in (2, 5, top + 1)] == \
            [naive[-k] for k in (2, 5, top + 1)]
        for cut in (slice(3, 7), slice(None, None, -2), slice(-4, None),
                    slice(top + 5, None), slice(None)):
            assert mb.polys[cut] == naive[cut]
        assert tuple(mb.polys) == naive and mb.polys == naive
        assert list(reversed(mb.polys)) == list(reversed(naive))
        for k in (top + 1, -top - 2):
            with pytest.raises(IndexError):
                mb.polys[k]


def test_monomial_basis_pickles_part_read():
    G = _seeded_digraph(12, 72, 235)
    mb = orthogonal_monomial_basis(MatrixPowers(G.adjacency))
    first = mb.polys[:3]
    back = pickle.loads(pickle.dumps(mb))
    assert back.polys[:3] == first
    assert back.dhat == mb.dhat and back.norms2 == mb.norms2
    assert back.minpoly == mb.minpoly
    assert tuple(back.polys) == tuple(mb.polys)
    assert back == mb


def test_moment_rows_match_schoolbook_sums():
    # the first three have moments of at least 2^26.5 / n, past every
    # prime n^2 (p - 1)^2 < 2^53 allows: the first two need two or more
    # primes, and complete(8), whose bound 8 * 7^16 stays below 2^53,
    # takes them straight from float64; the last two have dhat far below
    # n, so the elimination stops before the table reaches n + 1 rows
    many_primes = [circulant(13, (1, 2, 3, 4, 5, 7)),
                   _seeded_digraph(12, 72, 235), complete(8)]
    short = [paley_tournament(19), hypercube(5)]
    for G in many_primes + short:
        n = G.n
        mp = MatrixPowers(G.adjacency)
        table = _moment_rows(mp.A, 0, n + 1)
        assert table == [[_frobenius(mp[i], mp[j]) for j in range(n + 1)]
                         for i in range(n + 1)]
        assert all(type(m) is int for row in table for m in row)
        assert _moment_rows(mp.A, 3, n + 1) == table[3:]
        if G in many_primes:
            assert n * n * max(map(max, table)) ** 2 >= 2 ** 53
        mb = orthogonal_monomial_basis(MatrixPowers(G.adjacency))
        basis, norms, minpoly = oracles.naive_gram_schmidt(
            [[int(x) for x in row] for row in G.adjacency])
        assert list(mb.norms2) == norms
        assert [tuple(p.coeffs) for p in mb.polys] == [tuple(b) for b in basis]
        assert tuple(mb.minpoly.coeffs) == tuple(minpoly)
    assert [orthogonal_monomial_basis(MatrixPowers(G.adjacency)).dhat
            for G in short] == [2, 5]


@pytest.mark.parametrize("n, primes", [(12, False), (13, True)])
def test_moment_rows_switch_to_primes_at_2_53(monkeypatch, n, primes):
    # at K = 8 the bound n r^14 with r = n - 1 is 12 * 11^14 < 2^53 for
    # complete(12), taken straight in float64, and 13 * 12^14 > 2^53 for
    # complete(13), taken modulo primes; the traces up to A^14 split at
    # the same bound.  A complete digraph has diameter 1, so the
    # projection tables (bound n r^D) and the masked walk counts (r^D)
    # split on lollipops: K12 with a 12-vertex tail (n = 24, D = 13) is
    # below 2^53 on both, with a 14-vertex tail (n = 26, D = 15) above
    assert (n * (n - 1) ** 14 >= _FLOAT_EXACT) == primes
    drawn = []
    prime = linalg._prime
    monkeypatch.setattr(linalg, "_prime",
                        lambda i, bits: drawn.append(i) or prime(i, bits))

    def draws(f, *args):
        drawn.clear()
        out = f(*args)
        assert bool(drawn) == primes, f.__name__
        return out

    G = complete(n)
    A = [[int(x) for x in row] for row in G.adjacency]
    table = draws(_moment_rows, G.adjacency, 0, 8)
    assert table == [[n * oracles.naive_moment(A, i, j) for j in range(8)]
                     for i in range(8)]
    assert all(type(m) is int for row in table for m in row)
    assert _moment_rows(G.adjacency, 5, 8) == table[5:]
    mb = orthogonal_monomial_basis(MatrixPowers(G.adjacency))
    basis, norms, minpoly = oracles.naive_gram_schmidt(A)
    assert list(mb.norms2) == norms
    assert [tuple(p.coeffs) for p in mb.polys] == [tuple(b) for b in basis]
    assert tuple(mb.minpoly.coeffs) == tuple(minpoly)
    traces = draws(power_traces, G, 14)
    assert traces == [sum(P[i][i] for i in range(n))
                      for P in oracles.naive_power_list(A, 14)]

    L = _lollipop(12, 14 if primes else 12)
    ds = distance_structure(L)
    D, r = ds.diameter, int(L.adjacency.sum(axis=1).max())
    assert (L.n * r ** D >= _FLOAT_EXACT, r ** D >= _FLOAT_EXACT) == (primes, primes)
    powers = oracles.naive_power_list(L.adjacency.tolist(), D)
    basis = predistance_polynomials(L, structure=ds)
    tables = draws(projection_tables, ds, basis)
    moments = [[sum(P[x][y] for x, y in zip(*np.nonzero(layer))) for P in powers]
               for layer in ds.layers]
    assert tables.numerators == tuple(
        tuple(sum(map(operator.mul, basis.polys.numerator(j), row)) for j in range(D + 1))
        for row in moments)
    assert draws(masked_power_check, ds)
    assert ds.path_counts.tolist() == [[powers[ds.dist[x, y]][x][y] for y in range(L.n)]
                                       for x in range(L.n)]


def _strong_digraph(n: int, density: float, seed: int):
    """A random Hamiltonian cycle, so strongly connected, plus every other
    arc with probability density."""
    rng = random.Random(seed)
    order = rng.sample(range(n), n)
    arcs = {(order[i - 1], order[i]) for i in range(n)}
    arcs |= {(u, v) for u in range(n) for v in range(n)
             if u != v and rng.random() < density}
    return build_digraph(n, sorted(arcs))


def _exact_power_rows(A: np.ndarray, K: int, rows: int):
    """Rows 0..rows-1 of A^0..A^{K-1}, each power flattened into one row
    of Python integers, and their sums sum_{u < rows} sum_v A^i A^j."""
    Ao = A.astype(object)
    P = np.eye(A.shape[0], dtype=np.int64)[:rows].astype(object)
    V = []
    for _ in range(K):
        V.append(P.ravel())
        P = P.dot(Ao)
    V = np.array(V, dtype=object)
    return V, V.dot(V.T)


def test_row_sum_bound_holds_every_moment_and_entry():
    # seeded strongly connected digraphs, sparse to dense, and the family
    # suite; the bound is computed here whatever its size, while the
    # moment rows read it only once r^(2K-2) reaches 2^53
    graphs = [_strong_digraph(n, density, 100 * n + i)
              for i, (n, density) in enumerate([(6, 0.1), (9, 0.6), (13, 0.3), (17, 0.45),
                                                (22, 0.2), (28, 0.5), (34, 0.15), (40, 0.1),
                                                (40, 0.6)])]
    graphs += [G for _, G, _ in standard_families()]
    tighter = 0
    for G in graphs:
        A, n = G.adjacency, G.n
        r = int(A.sum(axis=1).max())
        K = min(n + 1, 16 if n <= 40 else 10)
        for rows in (n, 1):
            V, M = _exact_power_rows(A, K, rows)
            bound = linalg._row_sum_bound(A, K, rows)
            assert max(M.max(), V.max()) <= bound, (G, rows)
            used = linalg._moment_bound(A, K, rows)
            assert max(M.max(), V.max()) <= used <= rows * r ** (2 * K - 2), (G, rows)
            tighter += used < rows * r ** (2 * K - 2)
    assert tighter >= 10
    # past the float64 range, or with a negative entry, there is no bound
    assert linalg._row_sum_bound(complete(40).adjacency, 400, 40) is None
    assert linalg._row_sum_bound(-np.eye(3, dtype=np.int64), 4, 3) is None


def _report_roster(monkeypatch, seed: int) -> dict:
    """The benchmark's report roster at seed, from perfbench/workloads.py,
    loaded from its file without writing a bytecode cache beside it."""
    import importlib.util
    import sys
    from pathlib import Path
    import dgexcess
    where = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_workloads", where)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return dict(module.WORKLOADS["report"].build(dgexcess, seed))


def test_row_sums_size_the_moment_primes(monkeypatch):
    # random-40 at seed 1: the last block's crude bound 40 * 10^80 (259
    # bits) took 13 primes, while its largest moment has about 150 bits
    G = _report_roster(monkeypatch, 1)["random-40"]
    blocks = []
    prime, moment_rows = linalg._prime, linalg._moment_rows
    monkeypatch.setattr(linalg, "_prime",
                        lambda i, bits: blocks[-1][1].append(i) or prime(i, bits))

    def recorded(A, start, K, rows=None):
        blocks.append(((start, K), []))
        return moment_rows(A, start, K, rows)
    monkeypatch.setattr(linalg, "_moment_rows", recorded)
    basis = orthogonal_monomial_basis(G)
    (start, K), drawn = blocks[-1]
    assert (start, K, basis.dhat) == (32, 41, 39)
    assert 0 < len(drawn) <= 9
    # the same block at the crude bound, from its 13 primes
    monkeypatch.undo()
    A = G.adjacency
    crude = 40 * int(A.sum(axis=1).max()) ** 80
    assert crude.bit_length() == 259
    assert _moment_rows(A, 32, 41) == \
        linalg._power_image(A, 41, crude, lambda V: V[32:] @ V.T)


def _digest(fractions):
    text = ",".join(f"{x.numerator}/{x.denominator}" for x in fractions)
    return hashlib.sha256(text.encode()).hexdigest()


def test_monomial_basis_forms_no_object_powers():
    mp = MatrixPowers(circulant(47, (1, 10, 23)).adjacency)
    mb = orthogonal_monomial_basis(mp)
    assert mb.dhat == 46
    assert all(P.dtype != object for P in mp._pow)
    # norms2 and minpoly as recorded from entrywise-summed moments
    assert _digest(mb.norms2) == \
        "b58ca4e2ab4a48a21c72903e4f465d739759d0688b5dd2b6b375a161008f0de0"
    assert _digest(mb.minpoly.coeffs) == \
        "6fd83e414a4180e4a68faf4293b43a693ce5537ce20bbda5c2cfeb48c9f7db62"


def test_minimal_polynomials_named():
    m, dhat = minimal_polynomial(path(3))
    assert m == Polynomial((0, -2, 0, 1))          # x^3 - 2x
    assert dhat == 2
    m, _ = minimal_polynomial(complete(4))
    assert m == Polynomial((-3, -2, 1))            # (x-3)(x+1)
    m, _ = minimal_polynomial(directed_cycle(6))
    assert m == Polynomial((-1, 0, 0, 0, 0, 0, 1))
    m, dhat = minimal_polynomial(petersen())
    assert m == Polynomial((6, -5, -2, 1))         # (x-3)(x-1)(x+2)
    assert dhat == 2


def test_power_traces():
    G = petersen()
    traces = power_traces(G, 5)
    naive = oracles.naive_power_list(
        [[int(x) for x in row] for row in G.adjacency], 5)
    assert traces == [sum(P[i][i] for i in range(10)) for P in naive]
    assert traces[5] == 120
    assert traces[3] == 0                          # triangle-free


# -- Spectrum ----------------------------------------------------------------

def test_spectrum_petersen():
    spec = spectrum(petersen())
    assert spec.d == 2
    vals = {(round(z.real, 9), round(z.imag, 9)): m for z, m in spec.values}
    assert vals == {(3.0, 0.0): 1, (1.0, 0.0): 5, (-2.0, 0.0): 4}
    assert spec.lambda0_exact == 3
    assert spec.exact_lambda0


def test_spectrum_directed_cycle_complex_pairs():
    spec = spectrum(directed_cycle(5))
    assert spec.d == 4
    assert spec.lambda0_exact == 1
    assert sum(m for _, m in spec.values) == 5
    offreal = [z for z, _ in spec.values if abs(z.imag) > 1e-9]
    assert len(offreal) == 4


def test_spectrum_irrational_perron_not_certified():
    spec = spectrum(path(3))
    assert spec.lambda0_exact is None
    assert abs(float(spec.lambda0) - 2 ** 0.5) < 1e-12
    assert not spec.exact_lambda0


def test_spectrum_takes_the_perron_value_of_perron_value(monkeypatch):
    for G in [path(n) for n in range(3, 9)] + [
            build_digraph(3, [(0, 1), (1, 2), (2, 0), (0, 2)])]:
        lam, exact = perron_value(G.adjacency, minimal_polynomial(G)[0])
        spec = spectrum(G)
        assert (spec.lambda0, spec.lambda0_exact) == (lam, exact)
        assert spec.values[0] == (complex(float(lam)), 1)
    # the cluster checks come first: a clustering that merges every
    # eigenvalue raises before the Perron value is refined
    monkeypatch.setattr(linalg, "refine_real_root", None)
    with pytest.raises(SpectrumError, match="clustering found 1 distinct"):
        spectrum(path(5), cluster_tol=10.0)


def test_perron_value_regular_fast_path(monkeypatch):
    lam, exact = perron_value(hypercube(3).adjacency,
                              minimal_polynomial(hypercube(3))[0])
    assert exact == 3 and lam == 3
    # spectrum takes the same fast path: on a regular digraph neither
    # polishes the Perron value, and both return the degree
    monkeypatch.setattr(linalg, "refine_real_root", None)
    for G, k in [(petersen(), 3), (hypercube(6), 6), (paley_tournament(103), 51),
                 (directed_cycle(30), 1), (circulant(47, (1, 10, 23)), 3),
                 (tensor_lift(directed_cycle(5), 3), 3), (complete(5), 4)]:
        spec = spectrum(G)
        assert (spec.lambda0, spec.lambda0_exact) == (mpmath.mpf(k), Fraction(k))
        assert type(spec.lambda0) is mpmath.mpf and type(spec.lambda0_exact) is Fraction
        assert spec.values[0] == (complex(k), 1)
        assert perron_value(G.adjacency, minimal_polynomial(G)[0]) == \
            (spec.lambda0, spec.lambda0_exact)
    with pytest.raises(TypeError):
        spectrum(path(3))     # not regular: the Perron value is polished


def test_perron_certification_respects_precision_env(monkeypatch):
    monkeypatch.setenv("DGEXCESS_PRECISION", "30")
    assert working_dps() == 30
    spec = spectrum(path(3))
    with mpmath.workdps(40):
        err = abs(spec.lambda0 ** 2 - 2)
    assert err < mpmath.mpf(10) ** -25
    monkeypatch.setenv("DGEXCESS_PRECISION", "7")
    assert working_dps() == 15                     # floor applied
    monkeypatch.setenv("DGEXCESS_PRECISION", "x")
    with pytest.raises(ValueError):
        working_dps()


def test_refine_real_root_rejects_a_stalled_seed():
    # f'(0) = 0 for x^2 - 2: Newton cannot move, and 0 is not a root
    with pytest.raises(PerronError):
        refine_real_root(Polynomial((-2, 0, 1)), 0.0, 50)
    with pytest.raises(PerronError):
        refine_real_root(Polynomial((1, 0, 1)), 0.5, 50)  # no real root
    x, exact = refine_real_root(Polynomial((-2, 0, 1)), 1.4, 50)
    assert exact is None
    with mpmath.workdps(60):
        assert abs(x - mpmath.sqrt(2)) < mpmath.mpf(10) ** -50


def test_refine_real_root_guards_cancellation():
    # the square-free minimal polynomial of a 40-vertex path cancels
    # about 11 digits near its largest root 2 cos(pi/41)
    m, _ = minimal_polynomial(path(40))
    x, exact = refine_real_root(m.squarefree_part(), 1.9941316023674804, 50)
    assert exact is None
    with mpmath.workdps(80):
        assert abs(x - 2 * mpmath.cos(mpmath.pi / 41)) < mpmath.mpf(10) ** -55


def test_singleton_spectrum():
    spec = spectrum(build_digraph(1, []))
    assert spec.values == ((0j, 1),)
    assert spec.lambda0_exact == 0


# -- Hoffman ingredients -----------------------------------------------------

def test_hoffman_ingredients_exact():
    m, _ = minimal_polynomial(complete(4))
    S, S0 = hoffman_ingredients(m, Fraction(3))
    assert S == Polynomial((1, 1))                 # x + 1
    assert S0 == 4


def test_hoffman_ingredients_rejects_non_root():
    m, _ = minimal_polynomial(complete(4))
    with pytest.raises(ValueError):
        hoffman_ingredients(m, Fraction(2))


# -- Newton polish of the clusters -------------------------------------------

def _random_nonnormal(n: int, seed: int):
    rng = random.Random(seed)
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    while True:
        G = build_digraph(n, sorted(rng.sample(pairs, round(0.2 * len(pairs)))))
        if G.is_strongly_connected and not normality_test(G.adjacency):
            return G


def _spectrum_digest(spec) -> str:
    text = "\n".join(f"{complex(z).real.hex()} {complex(z).imag.hex()} {m}"
                     for z, m in spec.values)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# digests of float.hex of every value, recorded from the scalar complex
# polish (one _newton_complex call per cluster)
@pytest.mark.parametrize("G, dtype, digest", [
    (path(19), "float64", "4027d37cb5f618fa"),
    (path(32), "float64", "52d918ad847beebd"),
    (path(46), "float64", "7a11424f815869c7"),
    (circulant(20, (1, 5, 8)), "complex128", "1b1c377b0ebf3085"),
    (_random_nonnormal(20, 3), "complex128", "d0541550a939b298"),
], ids=["path19", "path32", "path46", "circulant20", "random20"])
def test_array_polish_keeps_the_scalar_spectra(monkeypatch, G, dtype, digest):
    starts = []
    scalar = linalg._newton_complex

    def counted(coeffs, dcoeffs, z, iterations=80):
        starts.append(z)
        return scalar(coeffs, dcoeffs, z, iterations)
    monkeypatch.setattr(linalg, "_newton_complex", counted)
    assert linalg._eigenvalues(G.adjacency).dtype == dtype
    spec = spectrum(G)
    assert _spectrum_digest(spec) == digest
    # the clusters on the real axis are polished together, the rest alone
    assert len(starts) == sum(1 for z, _ in spec.values if z.imag != 0)
    if G == path(19):
        # the first step from the zero cluster divides exactly
        assert [z for z, _ in spec.values if z.real.hex() == "0x0.0p+0"] == [0j]


def test_newton_real_matches_the_scalar_loop_bit_for_bit():
    rng = random.Random(11)
    polys = [Polynomial((-2, 0, 1))] + [
        Polynomial(tuple(rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(deg)) + (1,))
        for deg in (3, 5, 8, 13) for _ in range(3)]
    strays = 0
    for s in polys:
        coeffs = [complex(c) for c in s.coeffs]
        dcoeffs = [complex(c) for c in s.derivative().coeffs]
        # 0.0 is a critical point of x^2 - 2 (the df == 0 exit), 1e200
        # overflows every s here
        starts = [0.0, 1e200] + [rng.uniform(-4.0, 4.0) for _ in range(12)]
        for divide_first, start in ((True, np.float64),
                                    (False, lambda x: np.complex128(complex(x, 0.0)))):
            got = linalg._newton_real(coeffs, dcoeffs, starts, divide_first)
            for x, z in zip(starts, got):
                if z is None:
                    strays += 1
                    continue
                want = complex(linalg._newton_complex(coeffs, dcoeffs, start(x)))
                assert (z.real.hex(), z.imag.hex()) == (want.real.hex(), want.imag.hex())
    assert strays == 2 * len(polys)    # only the 1e200 starts leave the float range
    # the stationary start stays where it is on both paths
    assert linalg._newton_real([-2 + 0j, 0j, 1 + 0j], [0j, 2 + 0j], [0.0], True) == [0j]


def test_one_eigensolve_per_report(monkeypatch):
    calls = []
    eigvals = np.linalg.eigvals

    def counted(M):
        calls.append(M.shape)
        return eigvals(M)
    monkeypatch.setattr(np.linalg, "eigvals", counted)
    from dgexcess import full_report
    full_report(path(12))
    # the Perron seed and the numeric spectrum read the same eigenvalues
    assert calls == [(12, 12)]
    calls.clear()
    spectrum(path(12))
    assert calls == [(12, 12)]


# -- f(A) ----------------------------------------------------------------------

def _object_sum(p, powers):
    """p(A) term by term on object arrays."""
    acc = np.zeros((powers.n, powers.n), dtype=object)
    for k, c in enumerate(p.coeffs):
        if c == 0:
            continue
        acc = acc + powers[k].astype(object) * c
    return acc


def test_matrix_polynomial_sums_float_coefficients_in_float64():
    from dgexcess import conjugation_polynomial
    for G in (paley_tournament(19), hypercube(4), circulant(13, (1, 5))):
        f = conjugation_polynomial(spectrum(G))
        fA = linalg.matrix_polynomial(f, MatrixPowers(G.adjacency))
        want = _object_sum(f, MatrixPowers(G.adjacency))
        assert fA.dtype == np.float64
        assert [x.hex() for x in fA.ravel().tolist()] == [x.hex() for x in want.ravel()]
    # powers past 2^62 are object arrays and convert entry by entry
    A = np.full((3, 3), 1 << 30)
    p = Polynomial((0.25,) + (0.0,) * 5 + (-1.5, 3.0))
    fA, want = (f(p, MatrixPowers(A)) for f in (linalg.matrix_polynomial, _object_sum))
    assert MatrixPowers(A)[7].dtype == object and fA.dtype == np.float64
    assert [x.hex() for x in fA.ravel().tolist()] == [x.hex() for x in want.ravel()]
    # past the float range both sums raise the same error
    p = Polynomial((0.5,) + (0.0,) * 34 + (1.5,))
    for f in (linalg.matrix_polynomial, _object_sum):
        with pytest.raises(OverflowError, match="int too large to convert to float"):
            f(p, MatrixPowers(A))
    # exact coefficients stay exact
    H = linalg.matrix_polynomial(Polynomial((Fraction(1, 3), 2)), MatrixPowers(A))
    assert H.dtype == object and H[0, 0] == Fraction(1, 3) + 2 * (1 << 30)
