"""Family constructions and small-digraph enumeration.

Claims checked:
  * enumeration counts, order and sampling determinism
  * enumeration caps, and an unknown filter (the retired "normal" one
    included) or a sample_limit below 1 rejected at the call;
    normality_test keeps the six normal strongly connected digraphs on
    3 vertices
  * hand counts: 4 digraphs on 2 vertices, 1 strongly connected; the
    n = 3 strongly connected count matches an independent DFS recount
  * family validation errors (Paley order, circulant connection sets,
    lift factor)
  * structural contracts: degrees, vertex counts, tournament identity
  * FamilySpec dispatch including the lift parameter
"""

import numpy as np
import pytest

from dgexcess import (Digraph, FamilySpec, build_digraph, circulant, complete,
                      complete_bipartite, directed_cycle, distance_structure,
                      enumerate_digraphs, from_arcs, generate, hypercube,
                      kneser_odd_graph, paley_tournament, path, petersen,
                      tensor_lift)
from dgexcess.linalg import normality_test


# -- Helpers -----------------------------------------------------------------

def dfs_strongly_connected(n, arcs):
    """Independent recount primitive: plain recursive DFS both ways."""
    succ = [[] for _ in range(n)]
    pred = [[] for _ in range(n)]
    for u, v in arcs:
        succ[u].append(v)
        pred[v].append(u)

    def reach(adj):
        seen = {0}
        stack = [0]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen)

    return reach(succ) == n and reach(pred) == n


# -- Enumeration -------------------------------------------------------------

def test_enumeration_counts_n2():
    all_two = list(enumerate_digraphs(2, "all"))
    assert len(all_two) == 4
    sc = list(enumerate_digraphs(2, "strongly_connected"))
    assert len(sc) == 1 and sc[0].arcs == ((0, 1), (1, 0))


def test_enumeration_n3_matches_dfs_recount():
    pairs = [(u, v) for u in range(3) for v in range(3) if u != v]
    recount = 0
    for mask in range(1 << 6):
        arcs = [pairs[b] for b in range(6) if (mask >> b) & 1]
        if dfs_strongly_connected(3, arcs):
            recount += 1
    library = sum(1 for _ in enumerate_digraphs(3, "strongly_connected"))
    assert library == recount == 18


def test_enumeration_is_duplicate_free_and_total():
    seen = {G.arcs for G in enumerate_digraphs(3, "all")}
    assert len(seen) == 2 ** 6


def test_sampling_is_deterministic():
    a = [G.arcs for G in enumerate_digraphs(4, "all", sample_limit=1000, seed=42)]
    b = [G.arcs for G in enumerate_digraphs(4, "all", sample_limit=1000, seed=42)]
    c = [G.arcs for G in enumerate_digraphs(4, "all", sample_limit=1000, seed=43)]
    assert a == b and len(a) == 1000
    assert a != c


def test_enumeration_caps():
    with pytest.raises(ValueError):
        list(enumerate_digraphs(6, "all"))
    with pytest.raises(ValueError):
        list(enumerate_digraphs(7, "all", sample_limit=10))
    # nothing drawn: these raise at the call, not at the first next()
    with pytest.raises(ValueError, match="unknown filter"):
        enumerate_digraphs(3, "no_such_filter")
    for limit in (0, -3):
        with pytest.raises(ValueError, match="sample_limit must be at least 1"):
            enumerate_digraphs(5, "strongly_connected", sample_limit=limit)


def test_normal_filter():
    # "normal" is no filter of the enumeration; normality_test filters
    # the strongly connected digraphs instead, and on 3 vertices keeps
    # the two directed triangles and the four connected symmetric ones
    with pytest.raises(ValueError, match="unknown filter"):
        enumerate_digraphs(3, "normal")
    normal = [G for G in enumerate_digraphs(3, "strongly_connected")
              if normality_test(G.adjacency)]
    symmetric = [G for G in normal if (G.adjacency == G.adjacency.T).all()]
    assert len(normal) == 6 and len(symmetric) == 4
    assert {G.arcs for G in normal} - {G.arcs for G in symmetric} == {
        ((0, 1), (1, 2), (2, 0)), ((0, 2), (1, 0), (2, 1))}


# -- Families ----------------------------------------------------------------

def test_basic_shapes():
    assert directed_cycle(5).arcs == ((0, 1), (1, 2), (2, 3), (3, 4), (4, 0))
    assert len(complete(5).arcs) == 20
    assert complete_bipartite(2, 3).n == 5
    assert len(path(4).arcs) == 6
    Q3 = hypercube(3)
    assert Q3.n == 8 and (Q3.adjacency.sum(axis=1) == 3).all()
    assert petersen().arcs == kneser_odd_graph(3).arcs
    assert kneser_odd_graph(2).n == 3          # O_2 is the triangle


def test_paley_tournament_identity():
    G = paley_tournament(7)
    assert G.arcs == circulant(7, (1, 2, 4)).arcs
    A = G.adjacency
    assert ((A + A.T) == (1 - np.eye(7, dtype=np.int64))).all()
    assert normality_test(A)
    assert distance_structure(G).diameter == 2


def test_paley_validation():
    with pytest.raises(ValueError):
        paley_tournament(9)       # prime power, not prime
    with pytest.raises(ValueError):
        paley_tournament(5)       # 1 mod 4
    with pytest.raises(ValueError):
        paley_tournament(4)


def test_circulant_validation():
    with pytest.raises(ValueError):
        circulant(5, ())
    with pytest.raises(ValueError):
        circulant(5, (5,))        # 0 mod n
    G = circulant(6, (1, -1))     # residues normalize mod n
    assert (G.adjacency == G.adjacency.T).all()


def test_tensor_lift_contract():
    inner = directed_cycle(3)
    lifted = tensor_lift(inner, 3)
    assert lifted.n == 9
    assert (lifted.adjacency.sum(axis=1) == 3).all()
    assert (lifted.adjacency.sum(axis=0) == 3).all()
    assert distance_structure(lifted).diameter == 3
    with pytest.raises(ValueError):
        tensor_lift(inner, 1)


def test_from_arcs_passthrough():
    G = from_arcs(3, [(0, 1), (1, 2), (2, 0)])
    assert isinstance(G, Digraph) and G.arcs == ((0, 1), (1, 2), (2, 0))


def test_family_spec_dispatch():
    assert generate(FamilySpec("hypercube", (3,))).arcs == hypercube(3).arcs
    assert generate(FamilySpec("petersen")).n == 10
    assert generate(FamilySpec("circulant", (7, 1, 2, 4))).arcs == \
        paley_tournament(7).arcs
    lifted = generate(FamilySpec("directed_cycle", (4,), lift=2))
    assert lifted.arcs == tensor_lift(directed_cycle(4), 2).arcs
    with pytest.raises(ValueError):
        generate(FamilySpec("no_such_family"))
    with pytest.raises(ValueError):
        generate(FamilySpec("petersen", (3,)))
    with pytest.raises(ValueError):
        generate(FamilySpec("circulant", (7,)))
