"""Generator-attached automorphisms and the row-0 readers they certify.

Claims checked:
  * every generator's attached permutations certify vertex-transitivity,
    and a lift of a digraph without permutations carries none
  * a map that is not a permutation, or a permutation that is not an
    automorphism, raises GraphError on the certificate's first read
  * the orbit search maps each vertex of the orbit by each permutation
    once, n times the number of permutations in all (hypercube(6) among
    them, whose orbit a revisiting frontier reaches k! ways)
  * an identity-only set certifies nothing and runs the dense path
  * digraphs from build_digraph, from_arcs, parse_text and
    enumerate_digraphs carry no permutations
  * attached permutations change neither equality nor the hash
  * circulant(47, {1, 10, 23}) takes the rooted path: every power-row
    seed the context and the masked check use is vertex 0's row alone
  * on every family-suite member with permutations, and on larger and
    non-distance-regular vertex-transitive digraphs, the rooted path
    equals the dense one: moment rows, basis, projection tables, masked
    check, both direct-oracle certificates (witness pairs included) and
    the JSON report, with the rooted moment sums n times smaller
  * the rooted elimination runs on the row-0 sums, its minors n^(k+1)
    times smaller, and restores the dense pivots, numerators,
    denominators, norms, polynomials and minimal polynomial exactly
    (circulant(47, {1, 10, 23}) and paley_tournament(103))
"""

import dataclasses

import pytest

import dgexcess.linalg as linalg
from dgexcess import (AnalysisContext, Digraph, GraphError, build_digraph,
                      circulant, complete, directed_cycle, distance_structure,
                      dr_direct, emit_report, enumerate_digraphs, from_arcs,
                      full_report, hypercube, kneser_odd_graph, masked_power_check,
                      orthogonal_monomial_basis, paley_tournament, parse_text, path,
                      petersen, projection_tables, tensor_lift, wdr_direct)
from dgexcess.harness import standard_families
from dgexcess.linalg import _moment_rows


def _dense(G: Digraph) -> Digraph:
    return dataclasses.replace(G, automorphisms=())


def _record_seeds(monkeypatch) -> list:
    """Patch linalg._power_rows to record the shape of every seed it gets."""
    seeds = []
    power_rows = linalg._power_rows

    def recorded(A, K, seed, p=None):
        seeds.append(seed.shape)
        return power_rows(A, K, seed, p)
    monkeypatch.setattr(linalg, "_power_rows", recorded)
    return seeds


def test_generator_permutations_certify():
    generated = [directed_cycle(9), complete(1), complete(6), circulant(10, (1, 3)),
                 paley_tournament(19), hypercube(4), petersen(), kneser_odd_graph(4),
                 tensor_lift(directed_cycle(4), 3), tensor_lift(circulant(6, (1, 2)), 2)]
    for G in generated:
        assert G.automorphisms and G.vertex_transitive, G
        assert distance_structure(G).rows == 1
    assert len(hypercube(4).automorphisms) == 4
    assert len(kneser_odd_graph(4).automorphisms) == 2
    assert tensor_lift(path(3), 2).automorphisms == ()


def test_invalid_permutations_raise():
    G = circulant(7, (1, 2, 4))
    swap = (1, 0) + tuple(range(2, 7))
    with pytest.raises(GraphError, match="not an automorphism"):
        dataclasses.replace(G, automorphisms=G.automorphisms + (swap,)).vertex_transitive
    for bad in [(0, 0, 1, 2, 3, 4, 5), tuple(range(6)), tuple(range(1, 8))]:
        with pytest.raises(GraphError, match="not a permutation"):
            dataclasses.replace(G, automorphisms=(bad,)).vertex_transitive
    with pytest.raises(GraphError):
        distance_structure(dataclasses.replace(G, automorphisms=(swap,)))


class _CountedPermutation(tuple):
    """A permutation tuple that counts the images read through s[u]."""

    reads = 0

    def __getitem__(self, u):
        _CountedPermutation.reads += 1
        return tuple.__getitem__(self, u)


def test_orbit_search_reads_each_vertex_image_once():
    for G in (hypercube(6), kneser_odd_graph(4), paley_tournament(19),
              tensor_lift(directed_cycle(4), 3)):
        counted = tuple(map(_CountedPermutation, G.automorphisms))
        _CountedPermutation.reads = 0
        assert dataclasses.replace(G, automorphisms=counted).vertex_transitive
        # every vertex enters the frontier once and is mapped by each
        # permutation once
        assert _CountedPermutation.reads == G.n * len(G.automorphisms), G.n


def test_identity_only_set_runs_dense(monkeypatch):
    G = dataclasses.replace(circulant(7, (1, 2, 4)), automorphisms=(tuple(range(7)),))
    assert not G.vertex_transitive
    seeds = _record_seeds(monkeypatch)
    ctx = AnalysisContext(G)
    assert ctx.ds.rows == 7 and masked_power_check(ctx.ds)
    assert seeds and set(seeds) == {(7, 7)}


def test_parsed_and_enumerated_digraphs_carry_none():
    arcs = [(0, 1), (1, 2), (2, 0)]
    parsed = [build_digraph(3, arcs), from_arcs(3, arcs), parse_text("3 3\n0 1\n1 2\n2 0\n"),
              parse_text("3\n0 1 0\n0 0 1\n1 0 0\n", "adjmatrix")]
    parsed += list(enumerate_digraphs(3, "strongly_connected"))
    for G in parsed:
        assert G.automorphisms == () and not G.vertex_transitive
        assert distance_structure(G).rows == G.n


def test_permutations_change_neither_equality_nor_hash():
    for G in (directed_cycle(5), hypercube(3), petersen()):
        bare = build_digraph(G.n, G.arcs)
        assert bare == G and _dense(G) == G
        assert hash(bare) == hash(G)
        assert {bare, G} == {G}


def test_circulant_47_takes_the_rooted_path(monkeypatch):
    G = circulant(47, (1, 10, 23))
    seeds = _record_seeds(monkeypatch)
    ctx = AnalysisContext(G)
    assert masked_power_check(ctx.ds)
    assert ctx.ds.rows == 1 and len(ctx.ds.classes[0]) == 47
    # the moment rows in blocks, the projection tables and the masked check
    assert len(seeds) >= 3 and set(seeds) == {(1, 47)}


ROOTED = [(label, G) for label, G, _ in standard_families() if G.automorphisms]
ROOTED += [("hypercube(7)", hypercube(7)), ("kneser_odd_graph(5)", kneser_odd_graph(5)),
           ("paley_tournament(103)", paley_tournament(103)),
           ("circulant(37,{1,10,23})", circulant(37, (1, 10, 23))),
           ("circulant(47,{1,10,23})", circulant(47, (1, 10, 23))),
           # not weakly distance-regular, so both oracles carry a witness
           ("circulant(12,{5,7,8,10,11})", circulant(12, (5, 7, 8, 10, 11))),
           ("circulant(20,{1,4,7})", circulant(20, (1, 4, 7))),
           ("circulant(13,{1,3,5})", circulant(13, (1, 3, 5)))]


def _everything(G: Digraph) -> dict:
    ds = distance_structure(G)
    basis = orthogonal_monomial_basis(G)
    polys = basis.polys
    tables = projection_tables(ds, basis)
    # the rooted moment sums are the row-0 parts, 1/n of the dense ones
    scale = G.n // ds.rows
    return {"moments": [[scale * m for m in row]
                        for row in _moment_rows(G.adjacency, 0, basis.dhat + 2, ds.rows)],
            "pivots": polys.pivots, "norms2": basis.norms2, "minpoly": basis.minpoly,
            "numerators": [polys.numerator(k) for k in range(len(polys))],
            "tables": (tables.numerators, tables.pivots, tables.sizes),
            "masked": masked_power_check(ds),
            "wdr": wdr_direct(ds), "dr": dr_direct(ds),
            "json": emit_report(full_report(G), "json")}


@pytest.mark.parametrize("label, G", ROOTED, ids=[label for label, _ in ROOTED])
def test_rooted_path_equals_dense(label, G):
    assert G.vertex_transitive
    rooted, dense = _everything(G), _everything(_dense(G))
    assert rooted == dense
    if label.startswith(("circulant(12", "circulant(20", "circulant(13,{1,3,5")):
        assert "witness" in rooted["wdr"].certificate
        assert "witness" in rooted["dr"].certificate


@pytest.mark.parametrize("G", [circulant(47, (1, 10, 23)), paley_tournament(103)],
                         ids=["circulant(47,{1,10,23})", "paley_tournament(103)"])
def test_rooted_elimination_runs_without_the_factor_n(G):
    rooted, dense = orthogonal_monomial_basis(G), orthogonal_monomial_basis(_dense(G))
    n, top = G.n, rooted.dhat
    # the elimination ran on the row-0 sums: its k-th minor is D_k / n^(k+1)
    minors = rooted.polys._pivots
    assert [d * n ** (k + 1) for k, d in enumerate(minors)] == list(dense.polys.pivots)
    assert minors[-1].bit_length() < dense.polys.pivots[-1].bit_length() - top * 5
    assert rooted.polys.pivots == dense.polys.pivots
    assert [rooted.polys.numerator(k) for k in range(top, -1, -1)] == \
        [dense.polys.numerator(k) for k in range(top, -1, -1)]
    assert [rooted.polys.denominator(k) for k in range(top + 1)] == \
        [dense.polys.denominator(k) for k in range(top + 1)]
    assert rooted.norms2 == dense.norms2
    assert rooted.minpoly == dense.minpoly
    assert tuple(rooted.polys) == tuple(dense.polys)
