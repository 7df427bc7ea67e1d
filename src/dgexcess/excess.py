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
never appears: each term is c_k^2 times a rational, hence exact, and
each variant's terms are tabulated once per digraph as integers over one
common denominator, so a projection sum is an integer sum.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import mpmath
import numpy as np

from .digraph import DeltaProfile, Digraph, DistanceStructure
from .linalg import MatrixPowers, exact_matmul, perron_vectors
from .orthopoly import HoffmanPolynomial, PredistanceBasis


def _powers_for(ds: DistanceStructure, powers) -> MatrixPowers:
    # layers[1] is the adjacency matrix whenever the graph has arcs
    if powers is not None:
        return powers
    if ds.diameter == 0:
        return MatrixPowers(np.zeros((ds.n, ds.n), dtype=np.int64))
    return MatrixPowers(ds.layers[1])


@dataclass(frozen=True)
class ProjectionTables:
    """inner[k][j] = <A_k, monic_j(A)> for k, j up to the diameter.

    inner[k][k] equals <A_k, A^k> (lower-degree terms of the monic
    polynomial die on the distance-k support), which is the mean
    geodesic count delta'_k computed through unmasked matrix powers
    instead of the distance search's masked frontiers; the two routes
    agreeing is a cross-check.
    """

    inner: tuple
    delta_prime: tuple
    norms2: tuple    # epsilon_j
    delta: tuple     # delta_k, bounds the layer-k piece of every sum

    @cached_property
    def terms_i(self) -> tuple:
        """<A_j, P_k(A)>^2 / delta_j = delta_k inner[j][k]^2 / (eps_k delta_j)."""
        d, e = self.delta, self.norms2
        return _scaled([[(d[k].numerator * e[k].denominator * x.numerator ** 2 * d[j].denominator,
                          d[k].denominator * e[k].numerator * x.denominator ** 2 * d[j].numerator)
                         for j, x in enumerate(col)]
                        for k, col in enumerate(zip(*self.inner))])

    @cached_property
    def terms_ii(self) -> tuple:
        """<A_k, P_j(A)>^2 / delta_j = inner[k][j]^2 / eps_j."""
        return _scaled([[(x.numerator ** 2 * e.denominator, x.denominator ** 2 * e.numerator)
                         for x, e in zip(row, self.norms2)]
                        for row in self.inner])


def _scaled(rows) -> tuple:
    """(rows * L as integers, L) for rows of fractions held as (numerator,
    positive denominator) pairs, L the least common reduced denominator."""
    rows = [[(a // g, b // g) for a, b in row for g in (math.gcd(a, b),)] for row in rows]
    L = math.lcm(*(b for row in rows for _, b in row))
    return tuple(tuple(a * (L // b) for a, b in row) for row in rows), L


def projection_tables(ds: DistanceStructure, basis: PredistanceBasis,
                      powers: MatrixPowers = None) -> ProjectionTables:
    powers = _powers_for(ds, powers)
    n, D = ds.n, ds.diameter
    # moments[k][i] = n <A_k, A^i>, one product of the stacked 0/1 layers
    # and powers, each at most n^2 max|A^i|; for i < k it vanishes by
    # support
    layers = np.array(ds.layers, dtype=np.float64).reshape(D + 1, n * n)
    pw = np.stack([powers[i].ravel() for i in range(D + 1)])
    bound = n * n * max(map(powers.bound, range(D + 1)))
    moments = exact_matmul(layers, pw.T, bound).tolist()
    # inner[k][j] as one integer sum over the common denominator of
    # monic_j's coefficients
    cols = []
    for p in basis.monic[:D + 1]:
        den = math.lcm(*(c.denominator for c in p.coeffs))
        nums = [c.numerator * (den // c.denominator) for c in p.coeffs]
        cols.append([Fraction(sum(map(operator.mul, nums, row)), n * den)
                     for row in moments])
    inner = tuple(zip(*cols))
    norms2 = basis.norms2[:D + 1]
    return ProjectionTables(inner, tuple(inner[k][k] for k in range(D + 1)),
                            norms2, tuple(c * e for c, e in zip(basis.c2, norms2)))


# -- The three excess quantities --------------------------------------------

def simple_excess(profile: DeltaProfile, d: int, D: int) -> Fraction:
    """delta'_d^2 / delta_d, or zero when d exceeds the diameter."""
    if d > D:
        return Fraction(0)
    return profile.delta_prime[d] ** 2 / profile.delta[d]


def spectral_excess(basis: PredistanceBasis) -> Fraction:
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
    are integers over one denominator; total and per_k read them as Fractions."""

    per_k_num: tuple
    denominator: int
    bound: int
    per_k_bound: tuple

    @property
    def total(self) -> Fraction:
        return Fraction(sum(self.per_k_num), self.denominator)

    @property
    def per_k(self) -> tuple:
        return tuple(Fraction(v, self.denominator) for v in self.per_k_num)

    @property
    def holds(self) -> bool:
        return sum(self.per_k_num) <= self.bound * self.denominator

    @property
    def attained(self) -> bool:
        return sum(self.per_k_num) == self.bound * self.denominator

    @property
    def per_k_holds(self) -> tuple:
        L = self.denominator
        return tuple(v * b.denominator <= b.numerator * L
                     for v, b in zip(self.per_k_num, self.per_k_bound))


def wdr_projection_sum(ds: DistanceStructure, basis: PredistanceBasis,
                       powers: MatrixPowers = None, tables: ProjectionTables = None,
                       profile: DeltaProfile = None) -> ProjectionBound:
    """sum_k <A_k, P_k(A)>^2 / delta_k: variant ii, S_k = {k}."""
    return generalized_projection_sum(ds, basis, [[k] for k in range(ds.diameter + 1)],
                                      "ii", powers, tables, profile)


def upper_projection_sum(ds: DistanceStructure, basis: PredistanceBasis,
                         powers: MatrixPowers = None, tables: ProjectionTables = None,
                         profile: DeltaProfile = None) -> ProjectionBound:
    """sum_k sum_{j>=k} <A_k, P_j(A)>^2 / delta_j: variant ii, S_k = {k..D}."""
    D = ds.diameter
    return generalized_projection_sum(ds, basis, [range(k, D + 1) for k in range(D + 1)],
                                      "ii", powers, tables, profile)


def generalized_projection_sum(ds: DistanceStructure, basis: PredistanceBasis,
                               subsets, variant: str, powers: MatrixPowers = None,
                               tables: ProjectionTables = None,
                               profile: DeltaProfile = None) -> ProjectionBound:
    """Projection sum over a chosen index family S_0, ..., S_D.

    variant "i" projects each polynomial layer onto the distance
    matrices indexed by its subset; variant "ii" projects each distance
    matrix onto polynomial layers and requires k in S_k.  Adds integer
    terms of the variant's table; profile is accepted and not needed.
    """
    if variant not in ("i", "ii"):
        raise ValueError(f"variant must be 'i' or 'ii', got {variant!r}")
    if tables is None:
        tables = projection_tables(ds, basis, powers)
    D = ds.diameter
    subsets = list(subsets)
    if len(subsets) != D + 1:
        raise ValueError(f"need {D + 1} index subsets, got {len(subsets)}")
    terms, L = tables.terms_i if variant == "i" else tables.terms_ii
    per_k = []
    for k, S in enumerate(subsets):
        S = set(map(int, S))
        if not S:
            raise ValueError(f"subset for layer {k} is empty")
        if min(S) < 0 or max(S) > D:
            raise ValueError(f"subset for layer {k} leaves the range 0..{D}")
        if variant == "ii" and k not in S:
            raise ValueError(f"variant ii needs {k} in its own subset")
        per_k.append(sum(map(terms[k].__getitem__, S)))
    return ProjectionBound(tuple(per_k), L, ds.n, tables.delta)


def q_norm_check(basis: PredistanceBasis, n: int):
    """Squared norm of the summed pre-distance polynomials against n.

    Orthogonality collapses the norm to the sum of the squared norms;
    the flag reports exact attainment of n, which characterizes the
    geodetic weakly distance-regular graphs.
    """
    value = sum(basis.norms2, Fraction(0))
    return value, value == n


def masked_power_check(ds: DistanceStructure, powers: MatrixPowers = None) -> bool:
    """Walks of length exactly dist(u, v) are geodesics; on each layer's
    support the walk matrix must reproduce the geodesic counts, compared
    as Python integers."""
    powers = _powers_for(ds, powers)
    order, starts, ks = ds.classes
    counts = ds.path_counts.ravel()
    for c, k in enumerate(ks):
        support = order[starts[c]:starts[c + 1]]
        if powers[k].ravel()[support].tolist() != counts[support].tolist():
            return False
    return True
