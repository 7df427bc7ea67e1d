"""Digraph construction, metric structure and structural predicates.

Claims checked:
  * build validation rejects loops, duplicates, range violations
  * BFS distances agree with Floyd-Warshall on random digraphs
  * geodesic counts agree with explicit path enumeration, on the n <= 4
    corpus and on seeded digraphs up to n = 12, as Python ints
  * geodesic counts stay exact past 2^53, where the frontier search
    leaves float64 for Python ints
  * girth and odd girth agree with brute-force cycle search
  * delta profile, bipartite, geodetic and regularity behave on the
    named graphs with hand-computed values
  * the distance search's per-distance pair counts and geodesic totals,
    and the delta profile read from them, agree with the oracles, and
    stay exact Python ints on either side of 2^53, summed in float64 or
    on Python ints
"""

import random
from fractions import Fraction

import numpy as np
import pytest

import oracles
from dgexcess import (Digraph, DuplicateArcError, INFINITE, LoopArcError,
                      NotStronglyConnectedError, VertexRangeError,
                      bipartite_test, build_digraph, complete, delta_profile,
                      directed_cycle, distance_structure, enumerate_digraphs,
                      geodetic_test, girth, hypercube,
                      is_infinite, kneser_odd_graph, odd_girth, path, petersen,
                      regularity_test, strong_connectivity, tensor_lift)


# -- Helpers -----------------------------------------------------------------

def random_sc_digraphs(n, count, seed):
    """First `count` strongly connected digraphs from the seeded sampler."""
    out = []
    for G in enumerate_digraphs(n, "strongly_connected",
                                sample_limit=20 * count, seed=seed):
        out.append(G)
        if len(out) == count:
            break
    assert len(out) == count
    return out


def small_corpus():
    """Every strongly connected labeled digraph on one to four vertices."""
    return [G for n in (1, 2, 3, 4)
            for G in enumerate_digraphs(n, "strongly_connected")]


def seeded_sc_digraphs(count, seed, sizes=range(5, 13)):
    """Seeded strongly connected digraphs with n cycling through sizes and
    a random arc count between n and 3n."""
    rng = random.Random(seed)
    sizes = list(sizes)
    out = []
    while len(out) < count:
        n = sizes[len(out) % len(sizes)]
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        G = build_digraph(n, rng.sample(pairs, rng.randint(n, 3 * n)))
        if G.is_strongly_connected:
            out.append(G)
    return out


def assert_matches_oracles(G):
    """dist, the layer stack, the geodesic counts and the per-distance
    totals of the search (and the delta profile read from them) against
    Floyd-Warshall and explicit path enumeration."""
    ds = distance_structure(G)
    ref = oracles.fw_distances(G.n, G.arcs)
    D = max(max(row) for row in ref)
    assert ds.dist.dtype == np.int64 and ds.diameter == D
    assert ds.layers.dtype == np.float64 and ds.layers.shape == (D + 1, G.n, G.n)
    sizes, geodesics = [0] * (D + 1), [0] * (D + 1)
    for u in range(G.n):
        for v in range(G.n):
            k = ref[u][v]
            assert ds.dist[u, v] == k
            assert ds.layers[:, u, v].tolist() == [float(j == k) for j in range(D + 1)]
            count = oracles.count_geodesics(G.n, G.arcs, u, v, ref)
            assert type(ds.path_counts[u, v]) is int and ds.path_counts[u, v] == count
            sizes[k] += 1
            geodesics[k] += count
    assert ds.sizes == tuple(sizes) and ds.geodesics == tuple(geodesics)
    assert all(type(x) is int for x in ds.sizes + ds.geodesics)
    prof = delta_profile(ds)
    assert prof.delta == tuple(Fraction(s, G.n) for s in sizes)
    assert prof.delta_prime == tuple(Fraction(g, G.n) for g in geodesics)


# -- Construction ------------------------------------------------------------

def test_build_digraph_validation():
    G = build_digraph(3, [(0, 1), (1, 2), (2, 0)])
    assert G.n == 3 and len(G.arcs) == 3
    with pytest.raises(LoopArcError):
        build_digraph(2, [(0, 0)])
    with pytest.raises(DuplicateArcError):
        build_digraph(2, [(0, 1), (0, 1)])
    with pytest.raises(VertexRangeError):
        build_digraph(2, [(0, 2)])
    with pytest.raises(VertexRangeError):
        build_digraph(2, [(-1, 0)])
    with pytest.raises(ValueError):
        build_digraph(0, [])


def test_adjacency_and_degree_views():
    G = build_digraph(3, [(0, 1), (1, 2), (2, 0), (0, 2)])
    assert G.adjacency[0, 1] == 1 and G.adjacency[1, 0] == 0
    assert G.successors[0] == (1, 2)
    assert G.predecessors[2] == (0, 1)
    assert list(G.out_degrees) == [2, 1, 1]
    assert list(G.in_degrees) == [1, 1, 2]


def test_strong_connectivity():
    assert strong_connectivity(directed_cycle(4))
    assert not strong_connectivity(build_digraph(3, [(0, 1), (1, 2)]))
    assert strong_connectivity(build_digraph(1, []))


def test_infinite_sentinel_ordering():
    assert INFINITE > 10 ** 9
    assert not INFINITE < 3
    assert is_infinite(INFINITE) and not is_infinite(7)
    assert repr(INFINITE) == "infinite"


# -- Distances against the oracles -------------------------------------------

def test_distances_match_floyd_warshall_on_random_digraphs():
    for G in random_sc_digraphs(5, 120, seed=11):
        ds = distance_structure(G)
        ref = oracles.fw_distances(G.n, G.arcs)
        for u in range(G.n):
            for v in range(G.n):
                assert ds.dist[u, v] == ref[u][v]


def test_geodesic_counts_match_enumeration():
    for G in random_sc_digraphs(5, 60, seed=23):
        ds = distance_structure(G)
        ref = oracles.fw_distances(G.n, G.arcs)
        for u in range(G.n):
            for v in range(G.n):
                assert ds.path_counts[u, v] == \
                    oracles.count_geodesics(G.n, G.arcs, u, v, ref)


def test_distance_structure_matches_oracles_on_small_corpus():
    corpus = small_corpus()
    assert len(corpus) == 1 + 1 + 18 + 1606
    for G in corpus:
        assert_matches_oracles(G)


def test_distance_structure_matches_oracles_on_seeded_digraphs():
    for G in seeded_sc_digraphs(30, seed=505):
        assert_matches_oracles(G)


@pytest.mark.parametrize("cycle, m, top_bits", [
    (27, 4, 52),    # largest count 4^26 = 2^52: float64 throughout
    (28, 4, 54),    # 2^54 on the last level only
    (30, 4, 58),    # from 2^54 on, three levels on Python ints
    (36, 3, 55),    # 3^35: odd counts past 2^53, which float64 cannot hold
])
def test_geodesic_counts_exact_past_float_range(cycle, m, top_bits):
    # in the m-fold lift of a directed cycle, a geodesic of length k >= 1
    # picks one of m copies at each of its k - 1 inner vertices
    ds = distance_structure(tensor_lift(directed_cycle(cycle), m))
    u = np.arange(cycle * m) // m
    k = (u[None, :] - u[:, None]) % cycle
    k[(k == 0) & ~np.eye(cycle * m, dtype=bool)] = cycle
    assert (ds.dist == k).all() and ds.diameter == cycle
    expected = [1] + [m ** (j - 1) for j in range(1, cycle + 1)]
    assert all(type(c) is int and c == expected[j]
               for c, j in zip(ds.path_counts.flat, k.flat))
    assert max(ds.path_counts.flat).bit_length() - 1 == top_bits


def test_distance_structure_requires_strong_connectivity():
    with pytest.raises(NotStronglyConnectedError):
        distance_structure(build_digraph(2, [(0, 1)]))


def test_layers_partition_and_diameter():
    G = petersen()
    ds = distance_structure(G)
    assert ds.diameter == 2
    total = sum(layer.sum() for layer in ds.layers)
    assert total == G.n * G.n
    assert (ds.layers[0] == np.eye(10, dtype=np.int64)).all()


# -- Girth and odd girth -----------------------------------------------------

def test_girth_and_odd_girth_match_brute_force():
    for G in random_sc_digraphs(5, 120, seed=37):
        g, go = girth(G), odd_girth(G)
        bg = oracles.brute_girth(G.n, G.arcs)
        bo = oracles.brute_odd_girth(G.n, G.arcs)
        assert g == (INFINITE if bg is oracles.INF else bg)
        assert go == (INFINITE if bo is oracles.INF else bo)


def test_odd_girth_matches_brute_force_on_small_corpus():
    for G in small_corpus():
        bo = oracles.brute_odd_girth(G.n, G.arcs)
        assert odd_girth(G) == (INFINITE if bo is oracles.INF else bo)


def test_odd_girth_fixed_values():
    for G in (hypercube(5), directed_cycle(8), build_digraph(1, [])):
        assert odd_girth(G) is INFINITE
    assert odd_girth(directed_cycle(7)) == 7
    odd5 = kneser_odd_graph(5)
    assert odd_girth(odd5) == 9 == 2 * distance_structure(odd5).diameter + 1


def test_girth_named_values():
    assert girth(directed_cycle(7)) == 7
    assert girth(petersen()) == 2            # symmetric pair is a digon
    assert odd_girth(petersen()) == 5
    assert odd_girth(hypercube(3)) is INFINITE
    assert odd_girth(complete(4)) == 3
    assert girth(build_digraph(1, [])) is INFINITE


# -- Profiles and predicates -------------------------------------------------

def test_delta_profile_path3():
    ds = distance_structure(path(3))
    prof = delta_profile(ds)
    assert prof.delta == (Fraction(1), Fraction(4, 3), Fraction(2, 3))
    assert prof.delta_prime == prof.delta   # geodetic graph
    assert ds.sizes == ds.geodesics == (3, 4, 2)


def test_delta_profile_sums_to_n():
    for G in random_sc_digraphs(4, 40, seed=5):
        prof = delta_profile(distance_structure(G))
        assert sum(prof.delta) == G.n
        assert all(p >= d for p, d in zip(prof.delta_prime, prof.delta))


@pytest.mark.parametrize("cycle, m, regime", [
    # counts up to 4^19, every level's total below 2^53: float64 sums
    pytest.param(20, 4, "float64", id="20-4"),
    # counts below 2^53, but a level's size times its largest is not
    pytest.param(26, 4, "int-sum", id="26-4"),
    # counts past 2^53: Python ints throughout
    pytest.param(30, 4, "object", id="30-4"),
])
def test_delta_profile_geodesic_sums_are_exact(cycle, m, regime):
    # in the m-fold lift of a directed cycle each vertex has m vertices at
    # each distance 1 <= k < cycle, joined by m^(k-1) geodesics each, and
    # its m - 1 other copies at distance cycle, joined by m^(cycle-1)
    ds = distance_structure(tensor_lift(directed_cycle(cycle), m))
    n = ds.n
    sizes = [n] + [n * m] * (cycle - 1) + [n * (m - 1)]
    tops = [1] + [m ** (k - 1) for k in range(1, cycle + 1)]
    widest = max(s * t for s, t in zip(sizes, tops))
    assert regime == ("object" if tops[-1] >= 2 ** 53 else
                      "int-sum" if widest >= 2 ** 53 else "float64")
    assert ds.sizes == tuple(sizes)
    assert ds.geodesics == tuple(s * t for s, t in zip(sizes, tops))
    assert all(type(x) is int for x in ds.sizes + ds.geodesics)
    prof = delta_profile(ds)
    counts, dist = ds.path_counts.ravel().tolist(), ds.dist.ravel().tolist()
    for k in range(ds.diameter + 1):
        assert prof.delta[k] == Fraction(dist.count(k), n)
        assert prof.delta_prime[k] == Fraction(
            sum(c for c, d in zip(counts, dist) if d == k), n)
    assert prof.delta_prime[1:cycle] == tuple(Fraction(m ** k) for k in range(1, cycle))


def test_bipartite_and_geodetic_and_regular():
    assert bipartite_test(hypercube(3))
    assert bipartite_test(directed_cycle(4))
    assert not bipartite_test(directed_cycle(5))
    assert not bipartite_test(petersen())
    assert geodetic_test(distance_structure(path(4)))
    assert not geodetic_test(distance_structure(hypercube(2)))
    assert regularity_test(petersen()) == (True, 3)
    assert regularity_test(path(3)) == (False, None)
    assert regularity_test(directed_cycle(6)) == (True, 1)
