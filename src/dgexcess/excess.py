"""Excess quantities and projection bounds.

The simple excess compares the mean distance-d layer against the mean
geodesic count; the spectral excess is the squared norm of the degree-d
pre-distance polynomial; the weighted excess repeats the simple one on
layers reweighted by the Hoffman matrix H(A).  The projection sums bound
n from above by summed squared projections between distance matrices
and polynomial layers and are tight exactly on the weakly
distance-regular graphs, which is what turns them into decision
procedures.

H(A) is never formed.  The Perron value is simple, so H(A) = n u v^T /
(v^T u) with u and v the right and left Perron vectors, and each
weighted layer is a sum of vector products over one distance class,
O(n^2) in all.  Regular digraphs have u = v = 1 and weighted layers
equal to the plain ones; a rational Perron value keeps them exact.  An
irrational one gives u and v as fixed-point integers accurate past the
working precision, so the class sums stay exact integer sums and only
the one division per layer rounds, in mpmath.

All inner products against the normalized polynomials P_k enter only
squared, so the irrational normalization c_k = sqrt(delta_k/epsilon_k)
never appears: each term is c_k^2 times a rational, hence exact.  The
rationals are never formed as Fractions on the way to a verdict.  The
elimination gives each p_k as an integer vector over the leading minor
D_{k-1} and its squared norm as D_k / (n D_{k-1}), so the projection
tables hold integers only: N_kj = n D_{j-1} <A_k, p_j(A)>, the pivots
and the layer sizes n delta_k.  Each variant's terms are then integers
over one structured common denominator L, n times the lcm of the pivot
products D_{j-1} D_j (and of the layer sizes, for variant i).  An index
system S_0..S_D is validated once into a flat 0/1 mask over the
(D+1)^2 terms (system_mask), entry k (D+1) + j for term (k, j), and its
projection sum is the integer sum(compress(terms, mask)) over the terms
read row-major, compared against n L.  generalized_projection_sum wraps
one such sum in a ProjectionBound, one piece per mask row;
projection_sum_totals sums a batch of systems and returns bare
numerators over L.

On a certified vertex-transitive digraph (DistanceStructure.rows = 1)
the projection tables read row 0 of each layer and each power of A, n
<A_k, A^i> being n times the row-0 sum, and the masked power check
compares A^dist(0, v)[0, v] with the geodesic counts from vertex 0.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import mpmath
import numpy as np

from .digraph import DeltaProfile, Digraph, DistanceStructure
from .linalg import (MatrixPowers, MonomialBasis, _max_row_sum, _power_image,
                     perron_vectors)
from .orthopoly import HoffmanPolynomial


def _adjacency(ds: DistanceStructure) -> np.ndarray:
    """A as exact 0/1 float64, which is layers[1] whenever the digraph
    has arcs."""
    return ds.layers[1] if ds.diameter else np.zeros((ds.n, ds.n))


@dataclass(frozen=True)
class ProjectionTables:
    """The projections <A_k, p_j(A)> for k, j up to the diameter, held as
    integers.

    numerators[k][j] = N_kj = n D_{j-1} <A_k, p_j(A)>, the moments
    n <A_k, A^i> dotted with p_j's integer numerator vector D_{j-1} p_j;
    pivots are the leading minors D_0..D_D of the moment matrix, with
    D_{-1} = 1, so that epsilon_j = D_j / (n D_{j-1}); sizes[k] = |A_k| =
    n delta_k counts the pairs at distance k.

    inner, delta_prime, norms2 (epsilon_j) and delta are the same data
    as Fractions, each formed on its first read.  inner[k][k] equals
    <A_k, A^k> (lower-degree terms of the monic polynomial die on the
    distance-k support), which is the mean geodesic count delta'_k
    computed through unmasked powers of A instead of the distance
    search's masked frontiers; the two routes agreeing is a cross-check.

    terms_i and terms_ii hold each variant's squared projections, formed
    once per table, as integer rows over one denominator L; terms(variant)
    reads them by the variant's name, and every projection sum reads
    them through a system_mask.  A batch of sums flattens the rows for
    the one call only: a flattened copy held beside them lifts peak RSS
    on the wide digraphs (~0.4 MB over the perfbench report roster).
    """

    n: int
    numerators: tuple
    pivots: tuple
    sizes: tuple

    @cached_property
    def _dens(self) -> tuple:
        """n D_{j-1}, the denominator of inner[k][j]."""
        return tuple(self.n * p for p in (1,) + self.pivots[:-1])

    @cached_property
    def inner(self) -> tuple:
        return tuple(tuple(map(Fraction, row, self._dens)) for row in self.numerators)

    @cached_property
    def delta_prime(self) -> tuple:
        return tuple(Fraction(row[k], m) for k, (row, m) in
                     enumerate(zip(self.numerators, self._dens)))

    @cached_property
    def norms2(self) -> tuple:
        return tuple(map(Fraction, self.pivots, self._dens))

    @cached_property
    def delta(self) -> tuple:
        """delta_k, bounds the layer-k piece of every sum."""
        return tuple(Fraction(s, self.n) for s in self.sizes)

    @cached_property
    def terms_i(self) -> tuple:
        """<A_j, P_k(A)>^2 / delta_j = |A_k| N_jk^2 / (n D_{k-1} D_k |A_j|),
        as (rows times L, L) with L = n M lcm_j |A_j|."""
        M, mult = self._pivot_scale
        A = self.sizes
        lcm_sizes = math.lcm(*A)
        per_j = [lcm_sizes // a for a in A]
        return (tuple(tuple(a * m * x * x * s for x, s in zip(col, per_j))
                      for a, m, col in zip(A, mult, zip(*self.numerators))),
                self.n * M * lcm_sizes)

    @cached_property
    def terms_ii(self) -> tuple:
        """<A_k, P_j(A)>^2 / delta_j = N_kj^2 / (n D_{j-1} D_j), as
        (rows times L, L) with L = n M."""
        M, mult = self._pivot_scale
        return (tuple(tuple(x * x * m for x, m in zip(row, mult))
                      for row in self.numerators), self.n * M)

    def terms(self, variant: str) -> tuple:
        """terms_i or terms_ii, by the variant's name."""
        if variant == "i":
            return self.terms_i
        if variant == "ii":
            return self.terms_ii
        raise ValueError(f"variant must be 'i' or 'ii', got {variant!r}")

    @cached_property
    def _pivot_scale(self) -> tuple:
        """M = lcm_j D_{j-1} D_j and the multipliers M / (D_{j-1} D_j)."""
        products = list(map(operator.mul, (1,) + self.pivots[:-1], self.pivots))
        M = math.lcm(*products)
        return M, [M // q for q in products]


def projection_tables(ds: DistanceStructure, basis: MonomialBasis,
                      powers: MatrixPowers = None) -> ProjectionTables:
    """The tables of ds against the pre-distance basis, which is read on
    integers only: its numerators and pivots up to the diameter.  powers
    is accepted for the callers that hold one and is not needed."""
    n, D, m = ds.n, ds.diameter, ds.rows
    layers = ds.layers[:, :m].reshape(D + 1, m * n)
    A = _adjacency(ds)
    # moments[k][i] = n <A_k, A^i>, one product of the stacked 0/1 layer
    # rows and power rows, a sum over part of the first m rows of |A^i|,
    # whose entries sum to at most m r^i; for i < k it vanishes by
    # support.  On m = 1 row (a vertex-transitive digraph) it is n times
    # the row-0 sum.
    moments = _power_image(A, D + 1, m * _max_row_sum(A) ** D, lambda V: layers @ V.T, m)
    scale = n // m
    # N[k][j] = n D_{j-1} <A_k, p_j(A)>, one integer dot product each
    polys = basis.polys
    nums = [polys.numerator(j) for j in range(D + 1)]
    N = tuple(tuple(scale * sum(map(operator.mul, c, row)) for c in nums)
              for row in moments)
    return ProjectionTables(n, N, tuple(polys.pivots[:D + 1]), ds.sizes)


# -- The three excess quantities --------------------------------------------

def simple_excess(profile: DeltaProfile, d: int, D: int) -> Fraction:
    """delta'_d^2 / delta_d, or zero when d exceeds the diameter."""
    if d > D:
        return Fraction(0)
    return profile.delta_prime[d] ** 2 / profile.delta[d]


def spectral_excess(basis: MonomialBasis) -> Fraction:
    """Squared norm of the degree-d pre-distance polynomial."""
    return basis.norms2[basis.d]


@dataclass(frozen=True)
class WeightedLayers:
    """Distance layers reweighted entrywise by the Hoffman matrix."""

    delta: tuple          # <A~_k, A~_k>
    delta_prime: tuple    # <A~_k, A^k>
    exact: bool
    dps: int


def _weighted_sums(ds: DistanceStructure, u: np.ndarray, v: np.ndarray, div):
    """delta~_k and <A~_k, A^k> for H(A) = n u v^T / (v^T u), one sum per
    distance class; A^k agrees with the geodesic counts on layer k."""
    n = ds.n
    vu = (v * u).sum()
    u2, v2 = u * u, v * v
    delta, prime = [], []
    for layer in ds.layers:
        xs, ys = np.nonzero(layer)
        delta.append(div(n * (u2[xs] * v2[ys]).sum(), vu * vu))
        prime.append(div((u[xs] * v[ys] * ds.path_counts[xs, ys]).sum(), vu))
    return tuple(delta), tuple(prime)


def weighted_layers(G: Digraph, hp: HoffmanPolynomial, ds: DistanceStructure,
                    powers: MatrixPowers = None) -> WeightedLayers:
    """Weighted layers from the Perron vectors, without forming H(A).

    H(A) = n u v^T / (v^T u), so delta~_k = n sum u_x^2 v_y^2 / (v^T u)^2
    and <A~_k, A^k> = sum u_x v_y N_xy / (v^T u) over dist(x, y) = k, with
    N the geodesic counts.  u and v are Python integers on both tracks,
    so the sums are exact; each layer is a Fraction when the Perron
    value is rational (regular digraphs give the plain layers), and
    otherwise the fixed-point vectors' sums rounded once to hp.dps
    digits.  powers is accepted for the callers that hold one and is
    not needed.
    """
    if hp.exact:
        u, v = perron_vectors(G.adjacency, hp.lambda0_exact)
        return WeightedLayers(*_weighted_sums(ds, u, v, Fraction), True, hp.dps)
    with mpmath.workdps(hp.dps):
        u, v = perron_vectors(G.adjacency, hp.lambda0)
        return WeightedLayers(*_weighted_sums(ds, u, v, mpmath.fdiv), False, hp.dps)


def weighted_excess(W: WeightedLayers, ds: DistanceStructure, d: int):
    """<A~_d, A^d>^2 / delta~_d, or zero when d exceeds the diameter."""
    if d > ds.diameter:
        return Fraction(0) if W.exact else mpmath.mpf(0)
    if W.delta[d] == 0:
        raise ArithmeticError("weighted distance-d layer vanished")
    with mpmath.workdps(W.dps):   # no effect on the exact track's Fractions
        return W.delta_prime[d] ** 2 / W.delta[d]


# -- Projection bounds on n --------------------------------------------------

@dataclass(frozen=True)
class ProjectionBound:
    """A sum of squared projections that reaches n exactly on the weakly
    distance-regular graphs.  Its layer pieces, each bounded by delta_k,
    are integers over one denominator, each the sum of one term row
    under one row of a system_mask (generalized_projection_sum), summed
    once into total_num; total and per_k read them as Fractions."""

    per_k_num: tuple
    denominator: int
    bound: int
    per_k_bound: tuple
    total_num: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "total_num", sum(self.per_k_num))

    @property
    def total(self) -> Fraction:
        return Fraction(self.total_num, self.denominator)

    @property
    def per_k(self) -> tuple:
        return tuple(Fraction(v, self.denominator) for v in self.per_k_num)

    @property
    def holds(self) -> bool:
        return self.total_num <= self.bound * self.denominator

    @property
    def attained(self) -> bool:
        return self.total_num == self.bound * self.denominator

    @property
    def per_k_holds(self) -> tuple:
        L = self.denominator
        return tuple(v * b.denominator <= b.numerator * L
                     for v, b in zip(self.per_k_num, self.per_k_bound))


def wdr_projection_sum(ds: DistanceStructure, basis: MonomialBasis,
                       powers: MatrixPowers = None, tables: ProjectionTables = None,
                       profile: DeltaProfile = None) -> ProjectionBound:
    """sum_k <A_k, P_k(A)>^2 / delta_k: variant ii, S_k = {k}."""
    return generalized_projection_sum(ds, basis, [[k] for k in range(ds.diameter + 1)],
                                      "ii", powers, tables, profile)


def upper_projection_sum(ds: DistanceStructure, basis: MonomialBasis,
                         powers: MatrixPowers = None, tables: ProjectionTables = None,
                         profile: DeltaProfile = None) -> ProjectionBound:
    """sum_k sum_{j>=k} <A_k, P_j(A)>^2 / delta_j: variant ii, S_k = {k..D}."""
    D = ds.diameter
    return generalized_projection_sum(ds, basis, [range(k, D + 1) for k in range(D + 1)],
                                      "ii", powers, tables, profile)


def system_mask(subsets, D: int, variant: str) -> bytearray:
    """The index system S_0..S_D as a flat 0/1 mask over the (D+1)^2
    terms read row-major, entry k (D+1) + j set for each j in S_k.

    Raises ValueError unless the system is one a projection sum takes:
    D + 1 subsets of integer indices, each nonempty and inside 0..D (a
    negative index is out of range, never wrapped), with k in S_k under
    variant ii.  A repeated index counts once.
    """
    if variant not in ("i", "ii"):
        raise ValueError(f"variant must be 'i' or 'ii', got {variant!r}")
    m = D + 1
    subsets = list(subsets)
    if len(subsets) != m:
        raise ValueError(f"need {m} index subsets, got {len(subsets)}")
    mask = bytearray(m * m)
    base = 0
    for k, S in enumerate(subsets):
        empty = True
        for j in S:
            if not 0 <= j <= D:
                raise ValueError(f"subset for layer {k} leaves the range 0..{D}")
            mask[base + j] = 1
            empty = False
        if empty:
            raise ValueError(f"subset for layer {k} is empty")
        if variant == "ii" and not mask[base + k]:
            raise ValueError(f"variant ii needs {k} in its own subset")
        base += m
    return mask


def generalized_projection_sum(ds: DistanceStructure, basis: MonomialBasis,
                               subsets, variant: str, powers: MatrixPowers = None,
                               tables: ProjectionTables = None,
                               profile: DeltaProfile = None) -> ProjectionBound:
    """Projection sum over a chosen index family S_0, ..., S_D.

    variant "i" projects each polynomial layer onto the distance
    matrices indexed by its subset; variant "ii" projects each distance
    matrix onto polynomial layers and requires k in S_k.  The system is
    validated into a system_mask, and layer k's piece is the integer
    sum of the variant's term row k under mask row k; powers and
    profile are accepted and not needed.
    """
    m = ds.diameter + 1
    mask = system_mask(subsets, ds.diameter, variant)
    if tables is None:
        tables = projection_tables(ds, basis)
    rows, L = tables.terms(variant)
    per_k = tuple(sum(itertools.compress(row, mask[b:b + m]))
                  for row, b in zip(rows, range(0, m * m, m)))
    return ProjectionBound(per_k, L, ds.n, tables.delta)


def projection_sum_totals(tables: ProjectionTables, systems, *variants) -> tuple:
    """The projection sums of many index systems as bare integers: one
    (totals, L) per variant, in order, totals[s] being system s's sum
    times the variant's L, so that it attains n exactly when it equals
    n L.  Each system is validated once, under variant ii's stricter
    rule when ii is asked for, raising generalized_projection_sum's
    ValueErrors; no Fraction or ProjectionBound is formed."""
    terms = [tables.terms(v) for v in variants]
    D = len(tables.sizes) - 1
    strict = "ii" if "ii" in variants else "i"
    masks = [system_mask(S, D, strict) for S in systems]
    out = []
    for rows, L in terms:
        row = list(itertools.chain.from_iterable(rows))
        out.append(([sum(itertools.compress(row, mask)) for mask in masks], L))
    return tuple(out)


def q_norm_check(basis: MonomialBasis, n: int):
    """Squared norm of the summed pre-distance polynomials against n.

    Orthogonality collapses the norm to the sum of the squared norms;
    the flag reports exact attainment of n, which characterizes the
    geodetic weakly distance-regular graphs.
    """
    value = sum(basis.norms2, Fraction(0))
    return value, value == n


def masked_power_check(ds: DistanceStructure) -> bool:
    """Walks of length exactly dist(u, v) are geodesics: A^dist(u, v)[u, v],
    one gather from the power rows at the bound r^D, must equal every
    pair's geodesic count, compared as Python integers.  On a certified
    vertex-transitive digraph the pairs (0, v) stand for all."""
    n, D, m = ds.n, ds.diameter, ds.rows
    A = _adjacency(ds)
    dist, pairs = ds.dist[:m].ravel(), np.arange(m * n)
    walks = _power_image(A, D + 1, _max_row_sum(A) ** D, lambda V: V[dist, pairs], m)
    return walks == ds.path_counts[:m].ravel().tolist()
