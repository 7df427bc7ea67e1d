"""Batch verification of the theory on enumerated corpora and families.

Each check_* function takes an AnalysisContext and returns failure
messages (empty list means the digraph passed).  The equality checks
read the classifier verdicts full_report reads (dr_by_simple_set,
dr_by_weighted_set, geodetic_dr_check, spectral_gaps) and hold them
against the direct oracles, and the odd girth is held against the walk
route full_report cross-checks it with (odd_girth_walks); the
invariants they share come from the context's cached properties, so
every check on one context reads one value.  A numeric spectrum or a
weighted track that cannot be built is a failure worded as
full_report's alarm.  check_digraph bundles the checks; verify_corpus
runs it over the digraphs generators.enumerate_digraphs
yields, optionally fanning them out to worker processes, and every
failure message embeds the digraph as an edge list so a counterexample
is immediately reproducible.

Random subset systems are seeded from the digraph itself, so results
do not depend on traversal or worker order.  check_projection_sums
validates each drawn system once for both variants and sums it as a
flat mask over the tables' integer term rows (projection_sum_totals),
comparing each total with n L as integers; a Fraction is formed only
to word a failure.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from multiprocessing import Pool

import mpmath

from .classify import (AnalysisContext, InconsistencyAlarm, dr_by_simple_set,
                       dr_by_weighted_set, geodetic_dr_check, odd_girth_walks,
                       spectral_gaps, trichotomy)
from .digraph import Digraph, geodetic_test, girth, is_infinite, regularity_test
from .excess import projection_sum_totals
from .generators import (circulant, complete, complete_bipartite,
                         directed_cycle, enumerate_digraphs, hypercube,
                         kneser_odd_graph, paley_tournament, path, petersen,
                         tensor_lift)
from .linalg import PerronError, SpectrumError
from .reportio import digraph_to_edgelist


def _tag(G: Digraph, message: str) -> str:
    return f"{message}\n{digraph_to_edgelist(G)}"


def _graph_rng(G: Digraph) -> random.Random:
    return random.Random(f"{G.n}:{G.arcs}")


def random_subset_systems(D: int, count: int, rng, force_diagonal=True):
    """Random S_0..S_D with nonempty S_k subseteq {0..D}; k in S_k when
    force_diagonal (the regime where attaining the bound characterizes
    weak distance-regularity)."""
    draw = rng.random
    indices = range(D + 1)
    out = []
    for _ in range(count):
        system = []
        for k in indices:
            # one draw per j, in order, whether or not j is forced in
            S = [j for j in indices if draw() < 0.5 or (force_diagonal and j == k)]
            if not S:
                S.append(rng.randrange(D + 1))
            system.append(S)
        out.append(system)
    return out


# -- Per-digraph checks ------------------------------------------------------

def check_projection_sums(ctx: AnalysisContext, systems: int = 20) -> list:
    """Diagonal and upper-triangular projection sums stay at or below n,
    attaining it exactly for the weakly distance-regular digraphs; the
    same for random subset-system sums in both variants."""
    G, n = ctx.G, ctx.G.n
    failures = []
    is_wdr = ctx.wdr_direct.decision

    diag, upper = ctx.wdr_projection, ctx.upper_projection
    for label, pb in (("diagonal", diag), ("triangular", upper)):
        if not pb.holds:
            failures.append(_tag(G, f"{label} projection sum {pb.total} > {n}"))
        if pb.attained != is_wdr:
            failures.append(_tag(G, f"{label} sum {pb.total} attains n={n}: "
                                    f"{pb.attained}, but wdr_direct: {is_wdr}"))
        if not all(pb.per_k_holds):
            failures.append(_tag(G, f"a per-class {label} projection exceeds delta_k"))

    # the random systems as bare integer sums over each variant's L; a
    # Fraction is formed only to word a failure
    rng = _graph_rng(G)
    D = ctx.ds.diameter
    forced = random_subset_systems(D, systems, rng, force_diagonal=True)
    free = random_subset_systems(D, 2, rng, force_diagonal=False)
    sums = projection_sum_totals(ctx.tables, forced, "i", "ii")
    for s, system in enumerate(forced):
        for variant, (totals, L) in zip(("i", "ii"), sums):
            total, nL = totals[s], n * L
            if total > nL:
                failures.append(_tag(G, f"subset-system sum (variant {variant}) "
                                        f"{Fraction(total, L)} > {n} for {system}"))
            if (total == nL) != is_wdr:
                failures.append(_tag(G, f"subset-system sum (variant {variant}) "
                                        f"{Fraction(total, L)} attains n={n}: "
                                        f"{total == nL}, wdr_direct: {is_wdr} "
                                        f"for {system}"))
    (totals, L), = projection_sum_totals(ctx.tables, free, "i")
    for system, total in zip(free, totals):
        if total > n * L:
            failures.append(_tag(G, f"free subset-system sum {Fraction(total, L)} "
                                    f"> {n} for {system}"))
    return failures


def check_simple_set(ctx: AnalysisContext) -> list:
    """Simple excess never exceeds spectral excess; on the normal
    digraphs the equality verdict (dr_by_simple_set) agrees with the
    direct oracle."""
    G = ctx.G
    failures = []
    verdict = dr_by_simple_set(ctx)
    eps_g = verdict.certificate["simple_excess"]
    eps_d = verdict.certificate["spectral_excess"]
    if eps_g > eps_d:
        failures.append(_tag(G, f"simple excess {eps_g} > spectral excess {eps_d}"))
    if ctx.normal:
        is_dr = ctx.dr_direct.decision
        if verdict.decision != is_dr:
            failures.append(_tag(G, f"simple excess {eps_g} vs spectral {eps_d}: "
                                    f"equality {verdict.decision}, dr_direct {is_dr}"))
    return failures


def check_weighted_set(ctx: AnalysisContext, tol: float = 1e-9) -> list:
    """On the normal digraphs the weighted equality verdict
    (dr_by_weighted_set: exact, or to tol on the numeric track) agrees
    with the direct oracle, and the weighted excess equals the simple
    excess exactly whenever the digraph is regular.  A weighted track
    that cannot be built is one failure, in full_report's alarm words."""
    G = ctx.G
    if not ctx.normal:
        return []
    try:
        verdict = dr_by_weighted_set(ctx, tol)
    except (ArithmeticError, PerronError) as e:
        return [_tag(G, f"weighted excess: {e}")]
    failures = []
    eps_d = verdict.certificate["spectral_excess"]
    eps_w = verdict.certificate["weighted_excess"]
    is_dr = ctx.dr_direct.decision
    if verdict.decision != is_dr:
        comparison = (f"equality {verdict.decision}" if ctx.weighted.exact else
                      f"|gap| = {verdict.certificate['difference']}")
        failures.append(_tag(G, f"weighted excess {eps_w} vs spectral {eps_d}: "
                                f"{comparison}, dr_direct {is_dr}"))
    if regularity_test(G)[0]:
        eps_g = ctx.simple_excess
        if not ctx.weighted.exact:
            failures.append(_tag(G, "regular digraph landed on the numeric "
                                    "weighted track"))
        elif eps_w != eps_g:
            failures.append(_tag(G, f"regular digraph: weighted excess {eps_w} "
                                    f"!= simple excess {eps_g}"))
    return failures


def check_geodetic_set(ctx: AnalysisContext) -> list:
    """On the normal digraphs the summed squared norms hit n
    (geodetic_dr_check) exactly for the geodetic distance-regular ones."""
    G = ctx.G
    if not ctx.normal:
        return []
    verdict = geodetic_dr_check(ctx)
    expected = ctx.dr_direct.decision and geodetic_test(ctx.ds)
    if verdict.decision != expected:
        return [_tag(G, f"q-norm {verdict.certificate['q_norm']} attains n={G.n}: "
                        f"{verdict.decision}, dr and geodetic: {expected}")]
    return []


def check_excess_product(ctx: AnalysisContext, tol: float = 1e-9) -> list:
    """For distance-regular members the simple excess factors through
    the spectrum: (pi0/n)^2 * delta_D, with pi0 the product of
    (lambda0 - lambda_i) over the other distinct eigenvalues."""
    G = ctx.G
    if not ctx.dr_direct.decision:
        return []
    eps_g = ctx.simple_excess
    delta_D = ctx.profile.delta[ctx.ds.diameter]
    s_prime = ctx.basis.minpoly.squarefree_part().derivative()
    lam = ctx.hoffman
    if lam.lambda0_exact is not None:
        pi0 = s_prime(lam.lambda0_exact)
        lhs = (Fraction(pi0) / G.n) ** 2 * delta_D
        if lhs != eps_g:
            return [_tag(G, f"(pi0/n)^2*delta_D = {lhs} != simple excess {eps_g}")]
        return []
    with mpmath.workdps(lam.dps):
        pi0 = s_prime(lam.lambda0)
        lhs = (pi0 / G.n) ** 2 * mpmath.mpf(delta_D.numerator) / delta_D.denominator
        gap = abs(lhs - mpmath.mpf(eps_g.numerator) / eps_g.denominator)
    if not gap <= tol:
        return [_tag(G, f"(pi0/n)^2*delta_D off by {float(gap)} from {eps_g}")]
    return []


def check_odd_girth_suite(ctx: AnalysisContext) -> list:
    """Odd-girth ceiling, the forcing of distance-regularity at the
    floor, the three-way classification, and the walk route for the
    odd girth itself (odd_girth_walks, as full_report checks it)."""
    G = ctx.G
    failures = []
    g_o = ctx.odd_girth
    D = ctx.ds.diameter
    d = ctx.basis.d
    if not is_infinite(g_o) and g_o > 2 * D + 1:
        failures.append(_tag(G, f"odd girth {g_o} exceeds 2D+1 = {2 * D + 1}"))
    if ctx.normal and not is_infinite(g_o) and g_o >= 2 * d + 1:
        if not ctx.dr_direct.decision or g_o != 2 * d + 1:
            failures.append(_tag(G, f"odd girth {g_o} >= 2d+1 = {2 * d + 1} "
                                    f"should force distance-regularity"))
    if ctx.normal:
        try:
            trichotomy(ctx)
        except InconsistencyAlarm as e:
            failures.append(_tag(G, str(e)))
    walks = odd_girth_walks(G)
    if walks != g_o:
        failures.append(_tag(G, f"walk odd girth {walks} != odd girth {g_o}"))
    return failures


def check_conjugation(ctx: AnalysisContext, tol: float = 1e-8) -> list:
    """Numeric spectral route reproduces the exact pre-distance
    coefficients, and the conjugation polynomial maps A to its
    transpose, on normal digraphs (the gaps of spectral_gaps).  A
    numeric spectrum that cannot be built is a failure, reported as
    full_report's alarm words it."""
    G = ctx.G
    if not ctx.normal:
        return []
    failures = []
    messages = ("spectral pre-distance coefficients off by {}",
                "f(A) differs from transpose by {}")
    try:
        for message, gap in zip(messages, spectral_gaps(ctx)):
            if not gap < tol:
                failures.append(_tag(G, message.format(gap)))
    except (SpectrumError, PerronError) as e:
        failures.append(_tag(G, f"spectral cross-checks: {e}"))
    return failures


def check_digraph(G: Digraph) -> list:
    """Every per-digraph suite on one strongly connected digraph."""
    ctx = AnalysisContext(G)
    failures = []
    failures += check_projection_sums(ctx, 5)
    failures += check_simple_set(ctx)
    failures += check_weighted_set(ctx)
    failures += check_geodetic_set(ctx)
    failures += check_excess_product(ctx)
    failures += check_odd_girth_suite(ctx)
    return failures


# -- Corpus walking ----------------------------------------------------------

@dataclass
class SuiteResult:
    name: str
    checked: int
    failures: list

    @property
    def passed(self) -> bool:
        return not self.failures


def corpus_sample_limit(n: int, sample):
    """The sample limit verify_corpus enumerates n with: None (every
    digraph) below n = 5, `sample` from n = 5 on."""
    return sample if n >= 5 else None


def verify_corpus(max_n: int = 4, sample=None, seed: int = 0, jobs: int = 1):
    """Run every per-digraph suite over the strongly connected digraphs
    enumerate_digraphs yields for each n up to max_n (all of them below
    n = 5, `sample` seeded draws from n = 5 on), plus the family suite.
    An n past the generator's enumeration caps is a suite failure that
    names the cap."""
    results = []
    for n in range(2, max_n + 1):
        limit = corpus_sample_limit(n, sample)
        kind = "exhaustive" if limit is None else f"sampled {limit}"
        label = f"corpus n={n} ({kind})"
        try:
            digraphs = enumerate_digraphs(n, "strongly_connected",
                                          sample_limit=limit, seed=seed + n)
        except ValueError as e:
            results.append(SuiteResult(label, 0, [str(e)]))
            continue
        checked = 0
        failures = []
        if jobs > 1:
            with Pool(jobs) as pool:
                for fails in pool.imap_unordered(check_digraph, digraphs, chunksize=64):
                    checked += 1
                    failures += fails
        else:
            for fails in map(check_digraph, digraphs):
                checked += 1
                failures += fails
        results.append(SuiteResult(label, checked, failures))
    results.append(family_suite())
    return results


# -- Family contracts --------------------------------------------------------

def standard_families(max_vertices: int = 64):
    """The advertised corpus: (label, digraph, expected properties)."""
    roster = []

    def add(label, G, **expected):
        if G.n <= max_vertices:
            roster.append((label, G, expected))

    for n in range(3, 13):
        add(f"directed_cycle({n})", directed_cycle(n), dr=True,
            diameter=n - 1, girth=n)
    for g in (3, 4, 5):
        for m in (2, 3):
            add(f"tensor_lift(directed_cycle({g}), {m})",
                tensor_lift(directed_cycle(g), m), dr=True, diameter=g, girth=g)
    for n in range(3, 7):
        add(f"complete({n})", complete(n), dr=True, diameter=1)
    add("complete_bipartite(2,2)", complete_bipartite(2, 2), dr=True, bipartite=True)
    add("complete_bipartite(3,3)", complete_bipartite(3, 3), dr=True, bipartite=True)
    add("complete_bipartite(2,3)", complete_bipartite(2, 3), dr=False,
        bipartite=True)
    for n in range(3, 7):
        add(f"path({n})", path(n), dr=False, bipartite=True)
    for k in range(1, 7):
        add(f"hypercube({k})", hypercube(k), dr=True, diameter=k, bipartite=True)
    add("petersen", petersen(), dr=True, diameter=2, gog=True)
    for k in (2, 3, 4):
        add(f"kneser_odd_graph({k})", kneser_odd_graph(k), dr=True,
            diameter=k - 1, gog=True)
    add("circulant(7,{1,2,4})", circulant(7, (1, 2, 4)), normal=True, diameter=2)
    add("circulant(13,{1,3,9})", circulant(13, (1, 3, 9)), normal=True)
    for q in (7, 11, 19):
        add(f"paley_tournament({q})", paley_tournament(q), normal=True)
    return roster


def family_suite(tol: float = 1e-9) -> SuiteResult:
    """Criterion checks for every advertised family membership claim.
    tol is not read: the checks here run at their own tolerances."""
    failures = []
    checked = 0
    for label, G, expected in standard_families():
        checked += 1
        ctx = AnalysisContext(G)
        if "dr" in expected and ctx.dr_direct.decision != expected["dr"]:
            failures.append(_tag(G, f"{label}: dr_direct != {expected['dr']}"))
        if "diameter" in expected and ctx.ds.diameter != expected["diameter"]:
            failures.append(_tag(G, f"{label}: diameter {ctx.ds.diameter} "
                                    f"!= {expected['diameter']}"))
        if "girth" in expected and girth(G, ctx.ds) != expected["girth"]:
            failures.append(_tag(G, f"{label}: girth {girth(G, ctx.ds)} "
                                    f"!= {expected['girth']}"))
        if expected.get("bipartite") and not ctx.bipartite:
            failures.append(_tag(G, f"{label}: expected bipartite"))
        if expected.get("gog") and not ctx.generalized_odd_graph.decision:
            failures.append(_tag(G, f"{label}: expected generalized odd graph"))
        if expected.get("normal") and not ctx.normal:
            failures.append(_tag(G, f"{label}: expected normal"))
        if ctx.normal:
            failures += [f"{label}: {m}" for m in check_conjugation(ctx)]
            failures += [f"{label}: {m}" for m in check_simple_set(ctx)]
    return SuiteResult("families", checked, failures)
