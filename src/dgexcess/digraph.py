"""Directed graphs, their distance structure and combinatorial tests.

Vertices are 0..n-1, arcs are ordered pairs without loops or repeats.
Everything downstream assumes strong connectivity; the checks that need
it raise :class:`NotStronglyConnectedError` instead of guessing.

Distances, geodesic counts and the odd girth come from breadth-first
searches that run from all sources at once and advance one level per
step, each level one float64 product of the frontier matrix with A.
The sums in those products are of nonnegative integers, so a zero test
is always exact and a count is exact below 2^53; past that the distance
search finishes on Python integers.  Path counts are handed out as
Python integers (they outgrow int64 quickly on dense graphs) inside
object arrays.  The infinite girth of an acyclic or odd-cycle-free graph
is the :data:`INFINITE` singleton, which compares above every integer;
it is never encoded as -1 or a large sentinel.

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

from .linalg import _FLOAT_EXACT


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
        orbit = {0}
        frontier = [0]
        while frontier:
            frontier = [s[u] for u in frontier for s in self.automorphisms
                        if s[u] not in orbit]
            orbit.update(frontier)
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
    def predecessors(self):
        out = [[] for _ in range(self.n)]
        for u, v in self.arcs:
            out[v].append(u)
        return tuple(tuple(s) for s in out)

    @cached_property
    def out_degrees(self) -> np.ndarray:
        return self.adjacency.sum(axis=1)

    @cached_property
    def in_degrees(self) -> np.ndarray:
        return self.adjacency.sum(axis=0)

    @cached_property
    def is_strongly_connected(self) -> bool:
        if self.n == 1:
            return True
        return (_reach_count(self.successors, 0) == self.n
                and _reach_count(self.predecessors, 0) == self.n)

    def __repr__(self):
        return f"Digraph(n={self.n}, arcs={len(self.arcs)})"


def _reach_count(neighbors, start: int) -> int:
    seen = [False] * len(neighbors)
    seen[start] = True
    queue = deque([start])
    count = 1
    while queue:
        u = queue.popleft()
        for v in neighbors[u]:
            if not seen[v]:
                seen[v] = True
                count += 1
                queue.append(v)
    return count


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
    """Distances, distance layers and geodesic counts of a strongly connected digraph."""

    n: int
    dist: np.ndarray          # int64, dist[u, v] along directed paths
    diameter: int
    layers: tuple             # layers[k][u, v] = 1 iff dist(u, v) == k
    path_counts: np.ndarray   # object array of Python ints, geodesics u -> v
    # float64 copy of path_counts when every count is below 2^53, else None
    path_counts_float: np.ndarray = None
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
    levels keep.
    """
    if not G.is_strongly_connected:
        raise NotStronglyConnectedError("distance structure needs strong connectivity")
    n = G.n
    A = G.adjacency.astype(np.float64)
    F = np.eye(n)
    counts = F.copy()
    dist = np.full((n, n), -1, dtype=np.int64)
    np.fill_diagonal(dist, 0)
    k = 0
    while (dist < 0).any():
        P = F @ A
        new = (P > 0) & (dist < 0)
        if P.dtype != object and P[new].max() >= _FLOAT_EXACT:
            A = G.adjacency.astype(object)
            F, counts = (M.astype(np.int64).astype(object) for M in (F, counts))
            P = F @ A
        k += 1
        dist[new] = k
        counts[new] = P[new]
        F = np.where(new, P, 0)
    counts_float = None
    if counts.dtype != object:
        counts_float, counts = counts, counts.astype(np.int64).astype(object)
    layers = tuple((dist == j).astype(np.int64) for j in range(k + 1))
    return DistanceStructure(n, dist, k, layers, counts, counts_float,
                             G.vertex_transitive)


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
    vertex_counts: np.ndarray  # int64, vertex_counts[k, u] = |Gamma_k(u)|
    vertex_prime: np.ndarray   # object ints, geodesics from u to its layer k


def delta_profile(ds: DistanceStructure) -> DeltaProfile:
    """Per-vertex layer sizes and geodesic sums, one bin per (k, u).

    A vertex's geodesic sum is at most n times the largest count, so
    below 2^53 it is summed exactly in float64; otherwise on Python ints.
    """
    D, n = ds.diameter, ds.n
    bins = (ds.dist * n + np.arange(n)[:, None]).ravel()   # k n + u
    counts = np.bincount(bins, minlength=(D + 1) * n).reshape(D + 1, n)
    pc = ds.path_counts_float
    if pc is not None and n * int(pc.max()) < _FLOAT_EXACT:
        prime = np.bincount(bins, weights=pc.ravel(), minlength=(D + 1) * n)
        prime = prime.astype(np.int64).astype(object).reshape(D + 1, n)
    else:
        prime = np.zeros((D + 1, n), dtype=object)
        for k, layer in enumerate(ds.layers):
            prime[k] = (ds.path_counts * layer.astype(object)).sum(axis=1)
    delta = tuple(Fraction(int(counts[k].sum()), ds.n) for k in range(D + 1))
    delta_prime = tuple(Fraction(int(prime[k].sum()), ds.n) for k in range(D + 1))
    return DeltaProfile(delta, delta_prime, counts, prime)


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
    """Returns (is_regular, degree); regular means all in- and out-degrees agree."""
    out = G.out_degrees
    if G.n == 0:
        return True, 0
    k = int(out[0])
    if np.all(out == k) and np.all(G.in_degrees == k):
        return True, k
    return False, None
