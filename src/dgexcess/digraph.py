"""Directed graphs, their distance structure and combinatorial tests.

Vertices are 0..n-1, arcs are ordered pairs without loops or repeats.
Everything downstream assumes strong connectivity; the checks that need
it raise :class:`NotStronglyConnectedError` instead of guessing.  The
test itself is two reachability sweeps from vertex 0, each set of
vertices one int bitmask: out- and in-neighbour masks, and the reached
set grown by ORing in its frontier's masks.

Distances, geodesic counts and the odd girth come from breadth-first
searches that run from all sources at once and advance one level per
step, each level one float64 product of the frontier matrix with A.
The sums in those products are of nonnegative integers, so a zero test
is always exact and a count is exact below 2^53; past that the distance
search finishes on Python integers.  Path counts are handed out as
Python integers (they outgrow int64 quickly on dense graphs) inside
object arrays.  The distance search is the one producer of distance
data: it keeps each level's pair count and geodesic total, from which
the delta profile is read, and stores the layers once, as the float64
stack the projection tables and the direct oracles multiply.

The infinite girth of an acyclic or odd-cycle-free graph is the
:data:`INFINITE` singleton, which compares above every integer; it is
never encoded as -1 or a large sentinel.

A generator that knows automorphisms of its digraph attaches them as
permutation tuples (Digraph.automorphisms); nothing else does.  They are
checked once, on the first read of Digraph.vertex_transitive, which
holds when they are automorphisms that carry vertex 0 to every vertex.
The distance structure copies that certificate, and its readers then
take every sum over vertex pairs as n times the sum over the pairs
(0, v): an automorphism carries any pair to one of those with the same
distance, walk and geodesic counts.  Without a certificate they sum
over all n^2 pairs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .linalg import _FLOAT_EXACT, _regular_degree


class GraphError(ValueError):
    """Invalid digraph description."""


class LoopArcError(GraphError):
    pass


class DuplicateArcError(GraphError):
    pass


class VertexRangeError(GraphError):
    pass


class NotStronglyConnectedError(GraphError):
    pass


class _Infinite:
    """Order-maximal marker for girths of graphs without the relevant cycles."""

    __slots__ = ()

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash("_Infinite")

    def __repr__(self):
        return "infinite"


INFINITE = _Infinite()


def is_infinite(x) -> bool:
    return x is INFINITE


@dataclass(frozen=True)
class Digraph:
    """n vertices and a sorted tuple of arcs.

    automorphisms holds vertex permutations (s[u] is the image of u)
    that a generator knows to fix the digraph.  They play no part in
    equality or hashing and nothing checks them here: vertex_transitive
    certifies them on its first read.
    """

    n: int
    arcs: tuple
    automorphisms: tuple = field(default=(), compare=False)

    @cached_property
    def vertex_transitive(self) -> bool:
        """True when the attached permutations certify vertex-transitivity:
        each is an automorphism, and together they carry vertex 0 to every
        vertex.  False without permutations, or when the orbit of 0 is not
        every vertex (those digraphs take the dense path).  A tuple that
        is not a permutation of range(n), or not an automorphism, raises
        GraphError."""
        if not self.automorphisms:
            return False
        A = self.adjacency
        for s in self.automorphisms:
            if sorted(s) != list(range(self.n)):
                raise GraphError(f"attached map {s!r} is not a permutation of 0..{self.n - 1}")
            if not (A[np.ix_(s, s)] == A).all():
                raise GraphError(f"attached permutation {s!r} is not an automorphism")
        # each vertex enters the frontier once: n * len(automorphisms) images
        orbit = {0}
        frontier = {0}
        while frontier:
            frontier = {s[u] for u in frontier for s in self.automorphisms} - orbit
            orbit |= frontier
        return len(orbit) == self.n

    @cached_property
    def adjacency(self) -> np.ndarray:
        A = np.zeros((self.n, self.n), dtype=np.int64)
        for u, v in self.arcs:
            A[u, v] = 1
        return A

    @cached_property
    def successors(self):
        out = [[] for _ in range(self.n)]
        for u, v in self.arcs:
            out[u].append(v)
        return tuple(tuple(s) for s in out)

    @cached_property
    def is_strongly_connected(self) -> bool:
        """Every vertex reaches vertex 0 and is reached from it: one sweep
        from 0 over the out-neighbour masks and one over the in-neighbour
        masks (bit v of out[u] set for each arc (u, v))."""
        n = self.n
        out, into = [0] * n, [0] * n
        for u, v in self.arcs:
            out[u] |= 1 << v
            into[v] |= 1 << u
        everyone = (1 << n) - 1
        return _reach(out, everyone) == everyone == _reach(into, everyone)

    def __repr__(self):
        return f"Digraph(n={self.n}, arcs={len(self.arcs)})"


def _reach(neighbours, everyone: int) -> int:
    """The mask of vertices reached from vertex 0, where neighbours[u] is
    u's neighbour mask; it stops early once everyone is reached."""
    seen = frontier = 1
    while frontier and seen != everyone:
        step = 0
        while frontier:
            low = frontier & -frontier
            step |= neighbours[low.bit_length() - 1]
            frontier ^= low
        frontier = step & ~seen
        seen |= frontier
    return seen


def build_digraph(n, arcs) -> Digraph:
    """Validate and freeze a digraph given as vertex count plus arc list."""
    if not isinstance(n, int) or n < 1:
        raise GraphError(f"vertex count must be a positive integer, got {n!r}")
    seen = set()
    clean = []
    for arc in arcs:
        u, v = arc
        u, v = int(u), int(v)
        if not (0 <= u < n and 0 <= v < n):
            raise VertexRangeError(f"arc ({u}, {v}) outside vertex range 0..{n - 1}")
        if u == v:
            raise LoopArcError(f"loop arc at vertex {u}")
        if (u, v) in seen:
            raise DuplicateArcError(f"duplicate arc ({u}, {v})")
        seen.add((u, v))
        clean.append((u, v))
    clean.sort()
    return Digraph(n, tuple(clean))


def strong_connectivity(G: Digraph) -> bool:
    return G.is_strongly_connected


@dataclass(frozen=True)
class DistanceStructure:
    """Distances, distance layers and geodesic counts of a strongly
    connected digraph, with the per-distance totals the search finds.

    layers is the one stack of the layers every reader multiplies:
    float64, shape (D+1, n, n), layers[k, u, v] = 1 iff dist(u, v) == k.
    sizes[k] counts the pairs at distance k and geodesics[k] sums their
    geodesic counts, both as Python ints, so that delta_k = sizes[k] / n
    and delta'_k = geodesics[k] / n.
    """

    n: int
    dist: np.ndarray          # int64, dist[u, v] along directed paths
    diameter: int
    layers: np.ndarray        # float64 (D+1, n, n), 0/1
    path_counts: np.ndarray   # object array of Python ints, geodesics u -> v
    sizes: tuple              # pairs at distance k, k = 0..D
    geodesics: tuple          # geodesics joining the pairs at distance k
    # the digraph's vertex_transitive certificate
    transitive: bool = False

    @property
    def rows(self) -> int:
        """How many source rows stand for every pair: 1 on a certified
        vertex-transitive digraph, where an automorphism carries each
        pair (u, v) to a pair (0, w) at the same distance with the same
        counts, and n otherwise."""
        return 1 if self.transitive else self.n

    @cached_property
    def classes(self) -> tuple:
        """The pairs in the first `rows` rows grouped by distance: (order,
        starts, ks), where order[starts[c]:starts[c + 1]] are the flat
        indices of those pairs at distance ks[c].  Every distance occurs
        in them."""
        flat = self.dist[:self.rows].ravel()
        order = np.argsort(flat, kind="stable")
        svals = flat[order]
        cuts = np.flatnonzero(np.diff(svals)) + 1
        starts = [0] + cuts.tolist() + [flat.size]
        return order, starts, [int(svals[s]) for s in starts[:-1]]


def distance_structure(G: Digraph) -> DistanceStructure:
    """Distances and geodesic counts from all sources at once, one level
    per step: the frontier F_k holds the geodesic counts of the pairs at
    distance k, and F_{k+1} is F_k A restricted to the pairs not reached
    yet, one float64 product per level.

    Every entry of F_k A is a sum of nonnegative integers, so its sign is
    exact, and so is its value below 2^53; a level with a new count at or
    past 2^53 is redone on Python-int object arrays, which the remaining
    levels keep.  Each level's pair count and geodesic total are taken
    as it is found: in float64 while the number of new pairs times their
    largest count stays below 2^53, and on Python ints otherwise.
    """
    if not G.is_strongly_connected:
        raise NotStronglyConnectedError("distance structure needs strong connectivity")
    n = G.n
    A = G.adjacency.astype(np.float64)
    F = np.eye(n)
    counts = F.copy()
    dist = np.full((n, n), -1, dtype=np.int64)
    np.fill_diagonal(dist, 0)
    sizes, geodesics = [n], [n]
    k = 0
    while (dist < 0).any():
        P = F @ A
        new = (P > 0) & (dist < 0)
        fresh = P[new]
        if P.dtype != object and fresh.max() >= _FLOAT_EXACT:
            A = G.adjacency.astype(object)
            F, counts = (M.astype(np.int64).astype(object) for M in (F, counts))
            P = F @ A
            fresh = P[new]
        k += 1
        dist[new] = k
        counts[new] = fresh
        F = np.where(new, P, 0)
        sizes.append(fresh.size)
        if P.dtype == object or fresh.size * int(fresh.max()) < _FLOAT_EXACT:
            geodesics.append(int(fresh.sum()))
        else:
            geodesics.append(sum(fresh.astype(np.int64).tolist()))
    if counts.dtype != object:
        counts = counts.astype(np.int64).astype(object)
    layers = (dist == np.arange(k + 1)[:, None, None]).astype(np.float64)
    return DistanceStructure(n, dist, k, layers, counts, tuple(sizes),
                             tuple(geodesics), G.vertex_transitive)


@dataclass(frozen=True)
class DeltaProfile:
    """Mean layer sizes delta_k and mean geodesic counts delta'_k, exact.

    delta_k averages |Gamma_k(u)| over the vertices; delta'_k averages
    the number of shortest paths leaving u for its distance-k layer.
    delta_k <= delta'_k always, with equality for all k exactly on the
    geodetic graphs.
    """

    delta: tuple               # Fractions, k = 0..D
    delta_prime: tuple         # Fractions, k = 0..D


def delta_profile(ds: DistanceStructure) -> DeltaProfile:
    """delta_k = sizes[k] / n and delta'_k = geodesics[k] / n, from the
    totals the distance search took at each level."""
    return DeltaProfile(tuple(Fraction(s, ds.n) for s in ds.sizes),
                        tuple(Fraction(g, ds.n) for g in ds.geodesics))


def girth(G: Digraph, ds: DistanceStructure = None):
    """Length of a shortest directed cycle; INFINITE only for the one-vertex graph."""
    if ds is None:
        ds = distance_structure(G)
    tails, heads = np.nonzero(G.adjacency)
    if tails.size == 0:
        return INFINITE
    # an arc u -> v closes a shortest cycle through it with a geodesic v -> u
    return 1 + int(ds.dist[heads, tails].min())


def odd_girth(G: Digraph):
    """Length of a shortest odd directed cycle, INFINITE when none exists.

    A shortest odd closed walk is an odd cycle (any closed walk splits
    into cycles and an odd total forces an odd, no longer, part), so a
    search over (source, vertex, parity) states suffices.  It runs from
    all sources at once, one level per step: F_{k+1} is the support of
    F_k A minus the states already seen at the parity of k + 1, and the
    first odd level that reaches a source's own state closes the cycle.
    """
    if not G.is_strongly_connected:
        raise NotStronglyConnectedError("odd girth needs strong connectivity")
    n = G.n
    A = G.adjacency.astype(np.float64)
    F = np.eye(n, dtype=bool)
    seen = [F.copy(), np.zeros((n, n), dtype=bool)]
    k = 0
    while F.any():
        k += 1
        F = ((F @ A) > 0) & ~seen[k % 2]
        if k % 2 and F.diagonal().any():
            return k
        seen[k % 2] |= F
    return INFINITE


def bipartite_test(G: Digraph) -> bool:
    """True iff no directed closed walk has odd length."""
    if not G.is_strongly_connected:
        raise NotStronglyConnectedError("bipartiteness test needs strong connectivity")
    color = [-1] * G.n
    color[0] = 0
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for v in G.successors[u]:
            if color[v] < 0:
                color[v] = color[u] ^ 1
                queue.append(v)
    # strong connectivity makes the forced coloring total; any arc that
    # fails to alternate closes an odd walk
    return all(color[v] == color[u] ^ 1 for u, v in G.arcs)


def geodetic_test(ds: DistanceStructure) -> bool:
    """True iff every ordered vertex pair is joined by a unique geodesic."""
    return all(c <= 1 for c in ds.path_counts.flat)


def regularity_test(G: Digraph):
    """Returns (is_regular, degree); regular means all in- and out-degrees
    agree (linalg._regular_degree)."""
    k = _regular_degree(G.adjacency)
    return k is not None, k
