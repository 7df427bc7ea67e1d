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
equal to the plain ones; a rational Perron value keeps them exact, and
an irrational one puts them on the mpmath track.

All inner products against the normalized polynomials P_k enter only
squared, so the irrational normalization c_k = sqrt(delta_k/epsilon_k)
never appears: each term is c_k^2 times a rational, hence exact.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np

from .digraph import DeltaProfile, Digraph, DistanceStructure, delta_profile
from .linalg import MatrixPowers, perron_vectors, trace_inner_product
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
    geodesic count delta'_k computed through matrix powers instead of
    breadth-first search; the two routes agreeing is a cross-check.
    """

    inner: tuple
    delta_prime: tuple


def projection_tables(ds: DistanceStructure, basis: PredistanceBasis,
                      powers: MatrixPowers = None) -> ProjectionTables:
    powers = _powers_for(ds, powers)
    D = ds.diameter
    # layer_moment[k][i] = <A_k, A^i>; zero below the diagonal by support
    layer_moment = [[Fraction(0)] * (D + 1) for _ in range(D + 1)]
    for k in range(D + 1):
        for i in range(k, D + 1):
            layer_moment[k][i] = trace_inner_product(ds.layers[k], powers[i])
    inner = []
    for k in range(D + 1):
        row = []
        for j in range(D + 1):
            p = basis.monic[j]
            row.append(sum((c * layer_moment[k][i]
                            for i, c in enumerate(p.coeffs) if c and i >= k),
                           Fraction(0)))
        inner.append(tuple(row))
    return ProjectionTables(tuple(inner), tuple(inner[k][k] for k in range(D + 1)))


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
    N the geodesic counts.  Exact (Fractions) when the Perron value is
    rational, and regular digraphs give the plain layers; otherwise the
    sums run in mpmath at hp.dps.  powers is accepted for the callers
    that hold one and is not needed.
    """
    if hp.exact:
        u, v = perron_vectors(G.adjacency, hp.lambda0_exact)
        return WeightedLayers(*_weighted_sums(ds, u, v, Fraction), True, hp.dps)
    with mpmath.workdps(hp.dps):
        u, v = perron_vectors(G.adjacency, hp.lambda0)
        return WeightedLayers(*_weighted_sums(ds, u, v, operator.truediv),
                              False, hp.dps)


def weighted_excess(W: WeightedLayers, ds: DistanceStructure, d: int):
    """<A~_d, A^d>^2 / delta~_d, or zero when d exceeds the diameter."""
    if d > ds.diameter:
        return Fraction(0) if W.exact else mpmath.mpf(0)
    if W.delta[d] == 0:
        raise ArithmeticError("weighted distance-d layer vanished")
    if W.exact:
        return W.delta_prime[d] ** 2 / W.delta[d]
    with mpmath.workdps(W.dps):
        return W.delta_prime[d] ** 2 / W.delta[d]


# -- Projection bounds on n --------------------------------------------------

@dataclass(frozen=True)
class ProjectionBound:
    """A sum of squared projections that reaches n exactly on the weakly
    distance-regular graphs; per_k carries the layer pieces, each
    bounded by delta_k."""

    total: Fraction
    bound: int
    per_k: tuple
    per_k_bound: tuple

    @property
    def holds(self) -> bool:
        return self.total <= self.bound

    @property
    def attained(self) -> bool:
        return self.total == self.bound

    @property
    def per_k_holds(self) -> tuple:
        return tuple(v <= b for v, b in zip(self.per_k, self.per_k_bound))

    @property
    def per_k_attained(self) -> tuple:
        return tuple(v == b for v, b in zip(self.per_k, self.per_k_bound))


def wdr_projection_sum(ds: DistanceStructure, basis: PredistanceBasis,
                       powers: MatrixPowers = None, tables: ProjectionTables = None,
                       profile: DeltaProfile = None) -> ProjectionBound:
    """sum_k <A_k, P_k(A)>^2 / delta_k, the diagonal projection bound."""
    if tables is None:
        tables = projection_tables(ds, basis, powers)
    if profile is None:
        profile = delta_profile(ds)
    per_k = tuple(tables.delta_prime[k] ** 2 / basis.norms2[k]
                  for k in range(ds.diameter + 1))
    return ProjectionBound(sum(per_k, Fraction(0)), ds.n, per_k, profile.delta)


def upper_projection_sum(ds: DistanceStructure, basis: PredistanceBasis,
                         powers: MatrixPowers = None, tables: ProjectionTables = None,
                         profile: DeltaProfile = None) -> ProjectionBound:
    """sum_k sum_{j>=k} <A_k, P_j(A)>^2 / delta_j, the triangular bound."""
    if tables is None:
        tables = projection_tables(ds, basis, powers)
    if profile is None:
        profile = delta_profile(ds)
    D = ds.diameter
    per_k = tuple(sum((tables.inner[k][j] ** 2 / basis.norms2[j]
                       for j in range(k, D + 1)), Fraction(0))
                  for k in range(D + 1))
    return ProjectionBound(sum(per_k, Fraction(0)), ds.n, per_k, profile.delta)


def generalized_projection_sum(ds: DistanceStructure, basis: PredistanceBasis,
                               subsets, variant: str,
                               powers: MatrixPowers = None,
                               tables: ProjectionTables = None,
                               profile: DeltaProfile = None) -> ProjectionBound:
    """Projection sum over a chosen index family S_0, ..., S_D.

    variant "i" projects each polynomial layer onto the distance
    matrices indexed by its subset; variant "ii" projects each distance
    matrix onto polynomial layers and requires k in S_k.
    """
    if variant not in ("i", "ii"):
        raise ValueError(f"variant must be 'i' or 'ii', got {variant!r}")
    if tables is None:
        tables = projection_tables(ds, basis, powers)
    if profile is None:
        profile = delta_profile(ds)
    D = ds.diameter
    subsets = [sorted(set(int(j) for j in S)) for S in subsets]
    if len(subsets) != D + 1:
        raise ValueError(f"need {D + 1} index subsets, got {len(subsets)}")
    for k, S in enumerate(subsets):
        if not S:
            raise ValueError(f"subset for layer {k} is empty")
        if S[0] < 0 or S[-1] > D:
            raise ValueError(f"subset for layer {k} leaves the range 0..{D}")
        if variant == "ii" and k not in S:
            raise ValueError(f"variant ii needs {k} in its own subset")
    per_k = []
    for k, S in enumerate(subsets):
        if variant == "i":
            # <A_j, P_k(A)>^2/delta_j = delta_k <A_j, monic_k(A)>^2/(eps_k delta_j)
            total = sum((profile.delta[k] * tables.inner[j][k] ** 2
                         / (basis.norms2[k] * profile.delta[j]) for j in S),
                        Fraction(0))
        else:
            total = sum((tables.inner[k][j] ** 2 / basis.norms2[j] for j in S),
                        Fraction(0))
        per_k.append(total)
    return ProjectionBound(sum(per_k, Fraction(0)), ds.n, tuple(per_k), profile.delta)


def q_norm_check(basis: PredistanceBasis, n: int):
    """Squared norm of the summed pre-distance polynomials against n.

    Orthogonality collapses the norm to the sum of the squared norms;
    the flag reports exact attainment of n, which characterizes the
    geodetic weakly distance-regular graphs.
    """
    value = sum(basis.norms2, Fraction(0))
    return value, value == n


def masked_power_check(ds: DistanceStructure, powers: MatrixPowers = None) -> bool:
    """Walks of length exactly dist(u, v) are geodesics; the walk matrix
    masked to each layer must reproduce the geodesic counts."""
    powers = _powers_for(ds, powers)
    for k in range(ds.diameter + 1):
        layer = ds.layers[k].astype(object)
        if not ((powers[k].astype(object) * layer) == ds.path_counts * layer).all():
            return False
    return True
