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
over one structured common denominator, n times the lcm of the pivot
products D_{j-1} D_j (and of the layer sizes, for variant i), and a
projection sum is an integer sum compared against n times it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import mpmath
import numpy as np

from .digraph import DeltaProfile, Digraph, DistanceStructure
from .linalg import MatrixPowers, MonomialBasis, exact_matmul, perron_vectors
from .orthopoly import HoffmanPolynomial


def _powers_for(ds: DistanceStructure, powers) -> MatrixPowers:
    # layers[1] is the adjacency matrix whenever the graph has arcs
    if powers is not None:
        return powers
    if ds.diameter == 0:
        return MatrixPowers(np.zeros((ds.n, ds.n), dtype=np.int64))
    return MatrixPowers(ds.layers[1])


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
    computed through unmasked matrix powers instead of the distance
    search's masked frontiers; the two routes agreeing is a cross-check.
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

    @cached_property
    def _pivot_scale(self) -> tuple:
        """M = lcm_j D_{j-1} D_j and the multipliers M / (D_{j-1} D_j)."""
        products = list(map(operator.mul, (1,) + self.pivots[:-1], self.pivots))
        M = math.lcm(*products)
        return M, [M // q for q in products]


def projection_tables(ds: DistanceStructure, basis: MonomialBasis,
                      powers: MatrixPowers = None) -> ProjectionTables:
    """The tables of ds against the pre-distance basis, which is read on
    integers only: its numerators and pivots up to the diameter."""
    powers = _powers_for(ds, powers)
    n, D = ds.n, ds.diameter
    # moments[k][i] = n <A_k, A^i>, one product of the stacked 0/1 layers
    # and powers, each at most n^2 max|A^i|; for i < k it vanishes by
    # support
    layers = np.array(ds.layers, dtype=np.float64).reshape(D + 1, n * n)
    pw = np.stack([powers[i].ravel() for i in range(D + 1)])
    bound = n * n * max(map(powers.bound, range(D + 1)))
    moments = exact_matmul(layers, pw.T, bound).tolist()
    # N[k][j] = n D_{j-1} <A_k, p_j(A)>, one integer dot product each
    polys = basis.polys
    nums = [polys.numerator(j) for j in range(D + 1)]
    N = tuple(tuple(sum(map(operator.mul, c, row)) for c in nums) for row in moments)
    sizes = tuple(map(int, layers.sum(axis=1).tolist()))
    return ProjectionTables(n, N, tuple(polys.pivots[:D + 1]), sizes)


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
    are integers over one denominator, summed once into total_num; total
    and per_k read them as Fractions."""

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


def generalized_projection_sum(ds: DistanceStructure, basis: MonomialBasis,
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
    indices = set(range(D + 1))
    per_k = []
    for k, (S, row) in enumerate(zip(subsets, terms)):
        S = set(map(int, S))
        if not S:
            raise ValueError(f"subset for layer {k} is empty")
        if not S <= indices:
            raise ValueError(f"subset for layer {k} leaves the range 0..{D}")
        if variant == "ii" and k not in S:
            raise ValueError(f"variant ii needs {k} in its own subset")
        per_k.append(sum([row[j] for j in S]))
    return ProjectionBound(tuple(per_k), L, ds.n, tables.delta)


def q_norm_check(basis: MonomialBasis, n: int):
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
