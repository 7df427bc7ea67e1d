"""Deterministic digraph families and small-digraph enumeration.

Families cover both sides of every classifier: distance-regular members
(cycles, complete and complete bipartite graphs, hypercubes, Petersen,
odd graphs, tensor lifts of cycles) and assorted non-examples (paths,
general circulants, Paley tournaments).  Constructions use canonical
encodings (bitsets for cube and Kneser vertices) so the arc order and
the vertex numbering never depend on hashing or iteration accidents.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, replace

from .digraph import Digraph, build_digraph
from .linalg import normality_test
from .polynomial import _is_prime

ENUMERATION_CAP_EXHAUSTIVE = 5
ENUMERATION_CAP_SAMPLED = 6


@dataclass(frozen=True)
class FamilySpec:
    family: str
    params: tuple = ()
    lift: int = 0          # 0 means no tensor lift applied

    def lifted(self, m: int) -> "FamilySpec":
        return FamilySpec(self.family, self.params, m)


# -- Individual families -----------------------------------------------------

def _shift(n: int) -> tuple:
    """The permutation u -> u + 1 (mod n)."""
    return tuple(range(1, n)) + (0,)


def directed_cycle(n: int) -> Digraph:
    if n < 2:
        raise ValueError("directed cycle needs n >= 2")
    G = build_digraph(n, [(u, (u + 1) % n) for u in range(n)])
    return replace(G, automorphisms=(_shift(n),))


def complete(n: int) -> Digraph:
    if n < 1:
        raise ValueError("complete graph needs n >= 1")
    G = build_digraph(n, [(u, v) for u in range(n) for v in range(n) if u != v])
    return replace(G, automorphisms=(_shift(n),))


def complete_bipartite(a: int, b: int) -> Digraph:
    if a < 1 or b < 1:
        raise ValueError("complete bipartite graph needs both sides nonempty")
    arcs = []
    for u in range(a):
        for v in range(a, a + b):
            arcs.append((u, v))
            arcs.append((v, u))
    return build_digraph(a + b, arcs)


def path(n: int) -> Digraph:
    """Symmetrized path P_n: arcs both ways along 0-1-...-(n-1)."""
    if n < 2:
        raise ValueError("path needs n >= 2")
    arcs = []
    for u in range(n - 1):
        arcs.append((u, u + 1))
        arcs.append((u + 1, u))
    return build_digraph(n, arcs)


def hypercube(k: int) -> Digraph:
    """Q_k on bitstrings of length k, adjacent at Hamming distance 1."""
    if k < 1:
        raise ValueError("hypercube needs k >= 1")
    n = 1 << k
    arcs = []
    for u in range(n):
        for bit in range(k):
            v = u ^ (1 << bit)
            arcs.append((u, v))
    translations = tuple(tuple(u ^ (1 << bit) for u in range(n)) for bit in range(k))
    return replace(build_digraph(n, arcs), automorphisms=translations)


def petersen() -> Digraph:
    """Kneser graph on the 2-subsets of a 5-set, disjointness adjacency."""
    return kneser_odd_graph(3)


def kneser_odd_graph(k: int) -> Digraph:
    """Odd graph O_k: vertices the (k-1)-subsets of [2k-1], arcs between
    disjoint subsets (both directions).  O_3 is the Petersen graph.

    Attaches the transposition (0 1) and the cycle (0 1 ... 2k-2) of the
    ground set, acting on subsets; they generate its symmetric group."""
    if k < 2:
        raise ValueError("odd graph needs k >= 2")
    ground = range(2 * k - 1)
    subsets = [frozenset(c) for c in itertools.combinations(ground, k - 1)]
    index = {s: i for i, s in enumerate(subsets)}
    arcs = []
    for s in subsets:
        for t in subsets:
            if s is not t and not (s & t):
                arcs.append((index[s], index[t]))
    G = build_digraph(len(subsets), sorted(set(arcs)))
    swap = (1, 0) + tuple(ground[2:])
    perms = tuple(tuple(index[frozenset(g[x] for x in s)] for s in subsets)
                  for g in (swap, _shift(len(ground))))
    return replace(G, automorphisms=perms)


def circulant(n: int, connection) -> Digraph:
    """Circulant on Z_n with arc u -> u+s for every s in the connection set."""
    S = sorted({int(s) % n for s in connection})
    if n < 2:
        raise ValueError("circulant needs n >= 2")
    if not S or 0 in S:
        raise ValueError("connection set must be nonempty and avoid 0 mod n")
    arcs = [(u, (u + s) % n) for u in range(n) for s in S]
    return replace(build_digraph(n, arcs), automorphisms=(_shift(n),))


def paley_tournament(q: int) -> Digraph:
    """Paley tournament on Z_q, q prime with q = 3 (mod 4): arc u -> v
    iff v - u is a nonzero quadratic residue.

    Prime powers are not supported (field construction not worth the
    weight here); they raise like any other invalid order.
    """
    if not _is_prime(q):
        raise ValueError("Paley tournament order must be prime")
    if q % 4 != 3:
        raise ValueError("Paley tournament needs q = 3 (mod 4)")
    residues = {pow(x, 2, q) for x in range(1, q)}
    return circulant(q, residues)


def tensor_lift(inner: Digraph, m: int) -> Digraph:
    """Blow-up on V x [m]: arc ((u,i),(v,j)) iff u -> v, for all i, j.

    Vertex (u, i) is numbered u*m + i.  When inner carries permutations
    the lift carries each of them as (u, i) -> (s u, i), and the shift
    (0, i) -> (0, i + 1 mod m) inside fibre 0.
    """
    if m < 2:
        raise ValueError("tensor lift needs m >= 2")
    arcs = []
    for u, v in inner.arcs:
        for i in range(m):
            for j in range(m):
                arcs.append((u * m + i, v * m + j))
    G = build_digraph(inner.n * m, arcs)
    if not inner.automorphisms:
        return G
    lifted = tuple(tuple(s[x // m] * m + x % m for x in range(G.n))
                   for s in inner.automorphisms)
    fibre = _shift(m) + tuple(range(m, G.n))
    return replace(G, automorphisms=lifted + (fibre,))


def from_arcs(n: int, arcs) -> Digraph:
    """Edge-list passthrough, validated like every other family."""
    return build_digraph(n, arcs)


# -- Dispatch ----------------------------------------------------------------

_FAMILIES = {
    "directed_cycle": (directed_cycle, 1),
    "complete": (complete, 1),
    "complete_bipartite": (complete_bipartite, 2),
    "path": (path, 1),
    "hypercube": (hypercube, 1),
    "petersen": (petersen, 0),
    "kneser_odd_graph": (kneser_odd_graph, 1),
    "paley_tournament": (paley_tournament, 1),
}


def family_names():
    return sorted(_FAMILIES) + ["circulant"]


def generate(spec: FamilySpec) -> Digraph:
    """Build the digraph a FamilySpec describes, applying any lift last."""
    if spec.family == "circulant":
        if len(spec.params) < 2:
            raise ValueError("circulant needs n and at least one connection element")
        G = circulant(int(spec.params[0]), [int(s) for s in spec.params[1:]])
    elif spec.family in _FAMILIES:
        fn, arity = _FAMILIES[spec.family]
        if len(spec.params) != arity:
            raise ValueError(f"{spec.family} takes {arity} parameter(s), "
                             f"got {len(spec.params)}")
        G = fn(*[int(p) for p in spec.params])
    else:
        raise ValueError(f"unknown family {spec.family!r}; "
                         f"known: {', '.join(family_names())}")
    if spec.lift:
        G = tensor_lift(G, spec.lift)
    return G


# -- Enumeration -------------------------------------------------------------

def _digraph_from_code(n: int, code: int, pairs) -> Digraph:
    arcs = [pairs[b] for b in range(len(pairs)) if (code >> b) & 1]
    return Digraph(n, tuple(arcs))


def _passes(G: Digraph, filter: str) -> bool:
    if filter == "all":
        return True
    if filter == "strongly_connected":
        return G.is_strongly_connected
    return G.is_strongly_connected and normality_test(G.adjacency)


def enumerate_digraphs(n: int, filter: str = "all", sample_limit=None,
                       seed: int = 0):
    """Iterator over loopless labeled digraphs on n vertices.

    Exhaustive (all 2^(n(n-1)) arc subsets, increasing code order) up to
    n = 5; beyond that a sample_limit is mandatory and codes are drawn
    uniformly with a fixed-seed generator, duplicates allowed, so runs
    are reproducible.  An n past the caps, a sample_limit below 1 or an
    unknown filter raises ValueError at the call, before any digraph is
    drawn.
    """
    if n < 1:
        raise ValueError("enumeration needs n >= 1")
    if filter not in ("all", "strongly_connected", "normal"):
        raise ValueError(f"unknown filter {filter!r}")
    if sample_limit is not None and sample_limit < 1:
        raise ValueError(f"sample_limit must be at least 1, got {sample_limit}")
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    total = 1 << len(pairs)
    if sample_limit is None:
        if n > ENUMERATION_CAP_EXHAUSTIVE:
            raise ValueError(f"exhaustive enumeration capped at "
                             f"n = {ENUMERATION_CAP_EXHAUSTIVE}; pass sample_limit")
        codes = range(total)
    else:
        if n > ENUMERATION_CAP_SAMPLED:
            raise ValueError(f"sampled enumeration capped at "
                             f"n = {ENUMERATION_CAP_SAMPLED}")
        rng = random.Random(seed)
        codes = (rng.randrange(total) for _ in range(sample_limit))
    digraphs = (_digraph_from_code(n, code, pairs) for code in codes)
    return (G for G in digraphs if _passes(G, filter))
