"""Decision procedures for distance-regularity and its relatives.

Two independent routes decide each property.  The direct oracles group
intersection counts by distance class and test constancy, straight from
the definitions: each stack of float64 count products is gathered once
by distance class and reduced to per-class extremes, and a refuting
witness is read from that same stack.  On a certified vertex-transitive
digraph each product is formed and scanned on row 0 alone, which holds
every class value and the same witness.  The spectral-side criteria
decide the same properties through exact equalities between excess
quantities and projection sums.
Agreement between the routes is asserted wherever both apply; a
disagreement is an InconsistencyAlarm, never silently absorbed.

Verdicts are evidence-carrying: both sides of every deciding
(in)equality travel in the certificate so a consumer can audit the
comparison, including any tolerance used on the numeric track.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property

import mpmath
import numpy as np

from .digraph import (Digraph, DistanceStructure, INFINITE, is_infinite,
                      bipartite_test, delta_profile, distance_structure,
                      geodetic_test, girth, odd_girth, regularity_test,
                      strong_connectivity)
from .excess import (masked_power_check, projection_tables, q_norm_check,
                     simple_excess, spectral_excess, upper_projection_sum,
                     wdr_projection_sum, weighted_excess, weighted_layers)
from .linalg import (MatrixPowers, PerronError, SpectrumError, _eigenvalues, _perron_value,
                     _spectrum, exact_matmul, matrix_polynomial, normality_test,
                     working_dps)
from .orthopoly import (_hoffman_at, conjugation_polynomial,
                        predistance_polynomials, spectral_predistance)

# The gate each gap of spectral_gaps must stay below, in full_report's
# cross-checks and in harness.check_conjugation.
SPECTRAL_GAP_TOL = 1e-8
# The default tolerance of the numeric weighted track (dr_by_weighted_set).
WEIGHTED_TOL = 1e-9


class InconsistencyAlarm(RuntimeError):
    """Two routes that must agree did not; carries the offending digraph."""


@dataclass(frozen=True)
class Verdict:
    name: str
    decision: bool
    method: str        # "direct", "spectral-exact" or "spectral-numeric"
    certificate: dict


class AnalysisContext:
    """Shared scaffolding for the classifiers on one digraph.

    The exact core (distance structure, delta profile, the pre-distance
    basis, normality, projection tables) is computed eagerly, from the
    adjacency matrix and the distance layers; no explicit power of A is
    formed for it.  The basis (a
    linalg.MonomialBasis, which also holds the minimal polynomial) and
    the projection tables are held on integers, the pre-distance
    polynomials as numerators over the elimination's pivots and the
    tables as N_kj = n D_{j-1} <A_k, p_j(A)>; the Fraction polynomials
    and the tables' Fraction views are formed only when read, and the
    projection sums never read them.  Every other
    invariant with two or more readers is cached on first use, so each
    classifier and check reads one value: eigenvalues (np.linalg.eigvals
    of A in float64, the Perron seed and the numeric spectrum's
    clusters), perron (perron_value's result, refined once for both
    hoffman and numeric_spectrum), hoffman,
    weighted, numeric_spectrum, odd_girth, bipartite, simple_excess, the
    diagonal and triangular projection bounds wdr_projection and
    upper_projection, q_norm, wdr_direct, dr_direct (each a Verdict) and
    generalized_odd_graph.

    tol is accepted and not read: each check takes its own tolerance.
    dps is the working precision DGEXCESS_PRECISION gives when the
    context is built (linalg.working_dps).
    """

    def __init__(self, G: Digraph, tol: float = WEIGHTED_TOL):
        if not strong_connectivity(G):
            raise ValueError("analysis context needs a strongly connected digraph")
        self.G = G
        self.dps = working_dps()
        self.ds = distance_structure(G)
        self.profile = delta_profile(self.ds)
        self.basis = predistance_polynomials(G, structure=self.ds)
        self.normal = normality_test(G.adjacency)
        self.tables = projection_tables(self.ds, self.basis)

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        return _eigenvalues(self.G.adjacency)

    @cached_property
    def perron(self):
        return _perron_value(self.G.adjacency, self.basis.minpoly, self.dps,
                             lambda: self.eigenvalues)

    @cached_property
    def hoffman(self):
        return _hoffman_at(self.G.n, self.basis.minpoly, self.perron, self.dps)

    @cached_property
    def weighted(self):
        return weighted_layers(self.G, self.hoffman, self.ds)

    @cached_property
    def numeric_spectrum(self):
        return _spectrum(self.G.adjacency, None, self.basis.minpoly, lambda: self.perron,
                         lambda: self.eigenvalues)

    @cached_property
    def odd_girth(self):
        return odd_girth(self.G)

    @cached_property
    def bipartite(self) -> bool:
        return bipartite_test(self.G)

    @cached_property
    def simple_excess(self) -> Fraction:
        return simple_excess(self.profile, self.basis.d, self.ds.diameter)

    @cached_property
    def wdr_projection(self):
        return wdr_projection_sum(self.ds, self.basis, tables=self.tables)

    @cached_property
    def upper_projection(self):
        return upper_projection_sum(self.ds, self.basis, tables=self.tables)

    @cached_property
    def q_norm(self):
        return q_norm_check(self.basis, self.G.n)

    @cached_property
    def wdr_direct(self) -> Verdict:
        return wdr_direct(self.ds)

    @cached_property
    def dr_direct(self) -> Verdict:
        return dr_direct(self.ds)

    @cached_property
    def generalized_odd_graph(self) -> Verdict:
        return generalized_odd_graph_check(self)


def _ctx(G) -> AnalysisContext:
    return G if isinstance(G, AnalysisContext) else AnalysisContext(G)


# -- Direct oracles ----------------------------------------------------------

def _class_scan(blocks: np.ndarray, classes, wanted):
    """The first non-constant wanted class of a stack of count matrices,
    each cut to the distance structure's scan rows (DistanceStructure.rows),
    or None when every wanted class is constant.

    One gather by distance class and one min/max reduction per class
    segment; wanted is a (len(blocks), number of classes) bool array, or
    True for every class.  Rows are scanned in order, each row's classes
    in increasing distance, and the witness is the first smallest and
    first largest pair, in row-major order, of the first spread found:
    (row, {"class_distance", "pairs", "values"}).
    """
    order, starts, ks = classes
    flat = blocks.reshape(len(blocks), -1)[:, order]
    lo = np.minimum.reduceat(flat, starts[:-1], axis=1)
    hi = np.maximum.reduceat(flat, starts[:-1], axis=1)
    spread = np.argwhere((lo != hi) & wanted)
    if not spread.size:
        return None
    row, c = (int(x) for x in spread[0])
    a, n = starts[c], blocks.shape[-1]
    seg = flat[row, a:starts[c + 1]]
    pairs = [list(divmod(int(order[a + int(f(seg))]), n))
             for f in (np.argmin, np.argmax)]
    return row, {"class_distance": ks[c], "pairs": pairs,
                 "values": [int(lo[row, c]), int(hi[row, c])]}


def wdr_direct(ds: DistanceStructure) -> Verdict:
    """Constancy of |Gamma^+_i(u) n Gamma^-_j(v)| per distance class.

    Each i scans all j in one stacked float64 product S_i S_j; every
    count is at most n < 2^53, so the products are exact and are read
    as they are.  The certificate's witness names the first (i, j) and
    class whose counts differ, with a smallest and a largest pair;
    without one it counts (D+1)^2 times the classes as checked.

    On a certified vertex-transitive digraph only row 0 of each product
    is scanned, S_i[0] S_j, over row 0's classes.  The witness is the
    same: every value a class takes occurs in row 0, which comes first
    in row-major order, so the first smallest and largest pairs lie in
    it.
    """
    D, m = ds.diameter, ds.rows
    S = ds.layers
    for i in range(D + 1):
        found = _class_scan(S[i, :m] @ S, ds.classes, True)
        if found is not None:
            j, witness = found
            witness.update({"i": i, "j": j})
            return Verdict("weakly-distance-regular", False, "direct",
                           {"consistent": False, "witness": witness})
    checked = (D + 1) ** 2 * len(ds.classes[2])
    return Verdict("weakly-distance-regular", True, "direct",
                   {"consistent": True, "classes_checked": checked})


def dr_direct(ds: DistanceStructure) -> Verdict:
    """Constancy of |Gamma^+_i(u) n Gamma^+_1(v)| over pairs at distance
    k >= 1, for each i up to k+1, in one stacked float64 product; the
    counts are at most n < 2^53, so the product is exact.  On a
    certified vertex-transitive digraph it is row 0 alone, S_i[0] S_1^T,
    with the same witness as wdr_direct's."""
    D = ds.diameter
    if D == 0:
        return Verdict("distance-regular", True, "direct",
                       {"consistent": True, "classes_checked": 0})
    S = ds.layers
    ks = np.array(ds.classes[2])
    wanted = ks >= np.maximum(1, np.arange(D + 1) - 1)[:, None]
    found = _class_scan(S[:, :ds.rows] @ S[1].T, ds.classes, wanted)
    if found is not None:
        i, witness = found
        witness.update({"i": i, "j": 1})
        return Verdict("distance-regular", False, "direct",
                       {"consistent": False, "witness": witness})
    return Verdict("distance-regular", True, "direct",
                   {"consistent": True, "classes_checked": int(wanted.sum())})


# -- Spectral-side criteria --------------------------------------------------

_NOT_NORMAL = "equality criterion needs a normal digraph; not normal"


def dr_by_simple_set(G) -> Verdict:
    """Distance-regularity via simple excess = spectral excess (exact)."""
    ctx = _ctx(G)
    eps_g = ctx.simple_excess
    eps_d = spectral_excess(ctx.basis)
    cert = {"simple_excess": eps_g, "spectral_excess": eps_d,
            "difference": eps_d - eps_g, "normal": ctx.normal}
    if not ctx.normal:
        cert["note"] = _NOT_NORMAL
    return Verdict("distance-regular", ctx.normal and eps_g == eps_d,
                   "spectral-exact", cert)


def dr_by_weighted_set(G, tol: float = WEIGHTED_TOL) -> Verdict:
    """Distance-regularity via weighted excess = spectral excess.

    Exact when the Perron value certified rational, else compared at
    tol * max(1, spectral excess) in the working precision.
    """
    ctx = _ctx(G)
    eps_d = spectral_excess(ctx.basis)
    eps_w = weighted_excess(ctx.weighted, ctx.ds, ctx.basis.d)
    cert = {"weighted_excess": eps_w, "spectral_excess": eps_d, "normal": ctx.normal}
    if ctx.weighted.exact:
        cert["difference"] = eps_d - eps_w
        method, equal = "spectral-exact", eps_w == eps_d
    else:
        with mpmath.workdps(ctx.weighted.dps):
            gap = abs(mpmath.mpf(eps_d.numerator) / eps_d.denominator - eps_w)
            equal = bool(gap <= tol * max(1, float(eps_d)))
        cert["difference"] = float(gap)
        cert["tolerance"] = tol * max(1, float(eps_d))
        method = "spectral-numeric"
    if not ctx.normal:
        cert["note"] = _NOT_NORMAL
    return Verdict("distance-regular", ctx.normal and equal, method, cert)


def geodetic_dr_check(G) -> Verdict:
    """Geodetic distance-regularity via the summed squared norms hitting n."""
    ctx = _ctx(G)
    value, attained = ctx.q_norm
    cert = {"q_norm": value, "n": ctx.G.n, "normal": ctx.normal}
    if not ctx.normal:
        cert["note"] = _NOT_NORMAL
    return Verdict("geodetic-distance-regular", ctx.normal and attained,
                   "spectral-exact", cert)


def wdr_by_projection(G) -> Verdict:
    """Weak distance-regularity via the diagonal projection sum hitting n."""
    pb = _ctx(G).wdr_projection
    cert = {"projection_sum": pb.total, "n": pb.bound}
    return Verdict("weakly-distance-regular", pb.attained, "spectral-exact", cert)


def spectral_gaps(ctx: AnalysisContext):
    """The numeric spectral route against the exact one, on a normal
    digraph.  Yields the worst coefficient gap between the exact and the
    spectral pre-distance polynomials, then max |f(A) - A^T| for the
    conjugation polynomial f.  Raises SpectrumError or PerronError where
    the numeric spectrum or a numeric construction cannot be built; a
    gap already yielded stays valid.
    """
    spec = ctx.numeric_spectrum
    sb = spectral_predistance(spec)
    worst = 0.0
    for p_exact, p_num in zip(ctx.basis.polys, sb.polys):
        for i in range(max(p_exact.degree, p_num.degree) + 1):
            worst = max(worst, abs(float(p_exact.coefficient(i))
                                   - float(p_num.coefficient(i))))
    yield worst
    f = conjugation_polynomial(spec)
    fA = matrix_polynomial(f, MatrixPowers(ctx.G.adjacency))
    # one array scan, so a NaN anywhere propagates and fails the gate;
    # hypot is the modulus the scalar complex abs takes
    gap = fA.astype(complex) - ctx.G.adjacency.T
    yield float(np.hypot(gap.real, gap.imag).max())


# -- Odd girth and the classification around it ------------------------------

def odd_girth_spectral(traces):
    """Smallest odd k with tr(A^k) nonzero, INFINITE when none is.

    Takes the power-trace list tr(A^0..A^m); m should be at least n,
    since a shortest odd cycle is simple.
    """
    for k in range(1, len(traces), 2):
        if traces[k] != 0:
            return k
    return INFINITE


def odd_girth_walks(G: Digraph):
    """Same value as odd_girth_spectral, through boolean walk powers.

    With a nonnegative adjacency matrix tr(A^k) != 0 exactly when a
    closed walk of length k exists, so reachability powers decide the
    trace test without big-integer arithmetic; each entry of a product
    of 0/1 matrices is at most n, so the products run in float64.  The
    next odd walk state is a function of the current one, so once a
    state repeats an earlier one the sequence is periodic, every state
    to come has been seen (with a zero trace), and the search stops.
    """
    n = G.n
    walk = G.adjacency.astype(np.float64)
    step2 = (exact_matmul(walk, walk, n) > 0).astype(np.float64)
    seen = {np.packbits(walk > 0).tobytes()}
    for k in range(1, n + 1, 2):
        if walk.trace() != 0:
            return k
        reach = exact_matmul(walk, step2, n) > 0
        state = np.packbits(reach).tobytes()
        if state in seen:
            break
        seen.add(state)
        walk = reach.astype(np.float64)
    return INFINITE


def generalized_odd_graph_check(G) -> Verdict:
    """Distance-regular graph (symmetric adjacency) with odd-girth 2D+1."""
    ctx = _ctx(G)
    drv = ctx.dr_direct
    symmetric = bool((ctx.G.adjacency == ctx.G.adjacency.T).all())
    g_o = ctx.odd_girth
    required = 2 * ctx.ds.diameter + 1
    decision = drv.decision and symmetric and g_o == required
    cert = {"distance_regular": drv.decision, "symmetric": symmetric,
            "odd_girth": g_o, "required_odd_girth": required}
    return Verdict("generalized-odd-graph", decision, "direct", cert)


@dataclass(frozen=True)
class TrichotomyResult:
    branches: tuple    # nonempty subset of the three branch names
    odd_girth: object
    d: int
    diameter: int
    bound: int         # min(2d-1, 2D+1)


def trichotomy(G) -> TrichotomyResult:
    """Sort a connected normal digraph into at least one of: bipartite,
    generalized odd graph, odd-girth at most min(2d-1, 2D+1).

    An empty branch set would falsify the classification and raises an
    InconsistencyAlarm carrying the digraph; it is never swallowed.
    """
    ctx = _ctx(G)
    if not ctx.normal:
        raise ValueError("trichotomy classifies normal digraphs only")
    g_o = ctx.odd_girth
    d = ctx.basis.d
    D = ctx.ds.diameter
    bound = min(2 * d - 1, 2 * D + 1)
    branches = []
    if ctx.bipartite:
        branches.append("bipartite")
    if ctx.generalized_odd_graph.decision:
        branches.append("generalized-odd-graph")
    if not is_infinite(g_o) and g_o <= bound:
        branches.append("small-odd-girth")
    if not branches:
        raise InconsistencyAlarm(
            "digraph escapes all three branches: "
            f"n={ctx.G.n} arcs={ctx.G.arcs} odd_girth={g_o} d={d} D={D}")
    return TrichotomyResult(tuple(branches), g_o, d, D, bound)


# -- The aggregate report ----------------------------------------------------

@dataclass
class AnalysisReport:
    input: dict
    flags: dict
    metrics: dict = None
    minimal_polynomial: list = None
    spectrum: dict = None
    delta: list = None
    delta_prime: list = None
    excess: dict = None
    bounds: dict = None
    verdicts: dict = None
    crosschecks: dict = None
    alarms: list = None
    tolerances: dict = None


def _input_block(G: Digraph, source=None) -> dict:
    lines = [f"{G.n} {len(G.arcs)}"] + [f"{u} {v}" for u, v in G.arcs]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]
    block = {"n": G.n, "arcs": len(G.arcs), "format": "internal", "hash": digest}
    if source:
        block.update(source)
    return block


def _spectrum_block(spec) -> dict:
    return {
        "values": [[z.real, z.imag, m] for z, m in spec.values],
        "lambda0": mpmath.nstr(spec.lambda0, 17),
        "lambda0_exact": spec.lambda0_exact,
        "exact_lambda0": spec.exact_lambda0,
        "d": spec.d,
    }


def _with_evidence(v: Verdict, **extra) -> Verdict:
    """v with extra entries appended to its certificate."""
    return replace(v, certificate=dict(v.certificate, **extra))


def full_report(G: Digraph, tol: float = WEIGHTED_TOL, source=None) -> AnalysisReport:
    """Every invariant, verdict and cross-check on one digraph.

    Never raises for graph-shaped reasons: a disconnected input yields a
    connectivity-only report, and internal disagreements are collected
    into the alarms list instead of propagating.
    """
    report = AnalysisReport(input=_input_block(G, source), flags={})
    if not strong_connectivity(G):
        report.flags["strongly_connected"] = False
        return report

    ctx = AnalysisContext(G)
    alarms = []
    g, g_o = girth(G, ctx.ds), ctx.odd_girth
    regular, degree = regularity_test(G)
    geodetic = geodetic_test(ctx.ds)
    d = ctx.basis.d
    D = ctx.ds.diameter

    report.flags = {
        "strongly_connected": True,
        "normal": ctx.normal,
        "regular": regular,
        "geodetic": geodetic,
        "bipartite": ctx.bipartite,
    }
    report.metrics = {
        "diameter": D, "d": d, "dhat": ctx.basis.dhat,
        "girth": g, "odd_girth": g_o, "degree": degree,
    }
    report.minimal_polynomial = [Fraction(c) for c in ctx.basis.minpoly.coeffs]
    report.delta = list(ctx.profile.delta)
    report.delta_prime = list(ctx.profile.delta_prime)

    try:
        report.spectrum = _spectrum_block(ctx.numeric_spectrum)
    except (SpectrumError, PerronError) as e:
        alarms.append(f"spectrum: {e}")

    report.excess = {"simple": ctx.simple_excess,
                     "spectral": spectral_excess(ctx.basis), "exact": True}
    # A weighted track that fails (no certifiable Perron value, or an
    # arithmetic fault) is an alarm; the weighted verdict and its
    # cross-check are then left out of the report.
    try:
        weighted = ctx.weighted
        report.excess["weighted"] = weighted_excess(weighted, ctx.ds, d)
        report.excess["weighted_exact"] = weighted.exact
        if not weighted.exact:
            report.excess["weighted_dps"] = weighted.dps
    except (ArithmeticError, PerronError) as e:
        alarms.append(f"weighted excess: {e}")
        weighted = None

    diag, upper = ctx.wdr_projection, ctx.upper_projection
    q_value, q_attained = ctx.q_norm
    report.bounds = {
        "wdr_projection": {"total": diag.total, "per_k": list(diag.per_k)},
        "upper_projection": {"total": upper.total, "per_k": list(upper.per_k)},
        "q_norm": {"value": q_value, "attained": q_attained},
    }

    wdr_v = ctx.wdr_direct
    dr_v = ctx.dr_direct
    simple_v = dr_by_simple_set(ctx)
    weighted_v = None if weighted is None else dr_by_weighted_set(ctx, tol)
    geodetic_v = geodetic_dr_check(ctx)
    projection_v = wdr_by_projection(ctx)

    # Headline verdicts are the spectral criteria where they apply; the
    # direct-oracle outcome rides along in each certificate.
    if ctx.normal:
        extra = {"direct_decision": dr_v.decision}
        if weighted_v is not None:
            extra["weighted_decision"] = weighted_v.decision
        headline_dr = _with_evidence(simple_v, **extra)
    else:
        headline_dr = _with_evidence(dr_v, normal=False)
    report.verdicts = {
        "wdr": _with_evidence(projection_v, direct_decision=wdr_v.decision),
        "dr": headline_dr,
        "geodetic_dr": _with_evidence(geodetic_v,
                                      direct_decision=dr_v.decision and geodetic),
        "generalized_odd_graph": ctx.generalized_odd_graph,
    }
    if ctx.normal:
        try:
            report.verdicts["trichotomy"] = trichotomy(ctx)
        except InconsistencyAlarm as e:
            alarms.append(str(e))

    checks = {}
    checks["dr_equals_normal_and_wdr"] = \
        dr_v.decision == (ctx.normal and wdr_v.decision)
    checks["wdr_projection_agrees"] = projection_v.decision == wdr_v.decision
    checks["geodetic_set_agrees"] = \
        geodetic_v.decision == (dr_v.decision and geodetic and ctx.normal)
    if ctx.normal:
        checks["simple_set_agrees"] = simple_v.decision == dr_v.decision
        if weighted_v is not None:
            checks["weighted_set_agrees"] = weighted_v.decision == dr_v.decision
        checks["diagonalizable"] = ctx.basis.dhat == d
    checks["odd_girth_bound"] = is_infinite(g_o) or g_o <= 2 * D + 1
    if ctx.normal and not is_infinite(g_o) and g_o >= 2 * d + 1:
        checks["odd_girth_floor_forces_dr"] = dr_v.decision and g_o == 2 * d + 1
    checks["odd_girth_spectral_agrees"] = odd_girth_walks(G) == g_o
    checks["masked_power_rule"] = (
        masked_power_check(ctx.ds)
        and ctx.tables.delta_prime == ctx.profile.delta_prime)
    checks["geodetic_iff_delta_equal"] = \
        geodetic == (ctx.profile.delta == ctx.profile.delta_prime)
    if ctx.normal:
        try:
            for name, gap in zip(("spectral_basis_agrees", "conjugation_transposes"),
                                 spectral_gaps(ctx)):
                checks[name] = gap < SPECTRAL_GAP_TOL
        except (SpectrumError, PerronError) as e:
            alarms.append(f"spectral cross-checks: {e}")
    for name, ok in checks.items():
        if ok is False:
            alarms.append(f"cross-check failed: {name}")
    report.crosschecks = checks
    report.alarms = alarms
    # the numeric spectrum clusters at its default; the field stays null
    report.tolerances = {"tol": tol, "cluster_tol": None, "dps": ctx.dps}
    return report
