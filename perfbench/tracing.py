"""Spans around calls into the package's public functions.

A traced run replays, stage by stage, what AnalysisContext, full_report
and harness.check_digraph do, calling each module's public function on
fresh inputs and recording one span per call: its name, start, end,
the span that caused it, and the request (one digraph) it belongs to.
Spans stay in memory and are written out once, when the run ends.
Nothing inside the package is instrumented.

Span names are "<module>.<stage>"; a metric "<module>.<stage>_s" is the
sum of those spans' durations over one pass.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

# Exceptions full_report turns into alarms; a replayed stage that raises
# one is recorded as such and the replay goes on, as full_report does.
STAGE_ERRORS = (ArithmeticError, ValueError, RuntimeError)


class Tracer:
    def __init__(self):
        self.spans = []        # [name, start, end, parent, request]
        self._stack = []
        self.request = None

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        record = [name, time.perf_counter(), None, parent, self.request]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def totals(self, first: int = 0) -> dict:
        """Summed duration per span name over spans[first:]."""
        out = {}
        for name, start, end, _parent, _request in self.spans[first:]:
            out[name] = out.get(name, 0.0) + (end - start)
        return out

    def write(self, path) -> None:
        """One JSON object: the field names, then one list per span;
        parent is the index of the causing span or null."""
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "request"],
                       "spans": self.spans}, fh, separators=(",", ":"))


# Replayed stages whose sum full_report's own span is compared against;
# what full_report spends beyond one call of each is classify.overhead.
# polynomial.squarefree is left out: predistance_polynomials, spectrum
# and perron_value each call squarefree_part inside their own spans, so
# its separate span is for attribution only and would count twice.
REPORT_STAGES = (
    "digraph.distance_structure", "digraph.delta_profile", "linalg.powers",
    "linalg.monomial_basis", "orthopoly.predistance",
    "excess.projection_tables", "linalg.spectrum", "orthopoly.hoffman_polynomial",
    "excess.weighted_layers", "orthopoly.spectral_crosscheck", "excess.bounds",
    "classify.direct_oracles", "digraph.odd_girth",
)


def replay_core(dg, G, dhat: int, tr: Tracer, counts: dict) -> dict:
    """The AnalysisContext stages, the direct oracles and the odd girth,
    each on fresh objects.  Returns the stage outputs later stages use."""
    with tr.span("digraph.distance_structure"):
        ds = dg.distance_structure(G)
    with tr.span("digraph.delta_profile"):
        profile = dg.delta_profile(ds)
    with tr.span("linalg.powers"):
        powers = dg.MatrixPowers(G.adjacency)
        for k in range(dhat + 2):
            powers[k]
    escalation = next((k for k in range(dhat + 2) if powers[k].dtype == object), None)
    if escalation is not None:
        counts["linalg.escalation_power"] = min(
            escalation, counts.get("linalg.escalation_power", escalation))
    with tr.span("linalg.monomial_basis"):
        mono = dg.orthogonal_monomial_basis(powers)
    bits = max(max(x.numerator.bit_length(), x.denominator.bit_length())
               for x in mono.norms2)
    counts["linalg.moment_bits_max"] = max(bits, counts.get("linalg.moment_bits_max", 0))
    with tr.span("polynomial.squarefree"):
        mono.minpoly.squarefree_part()
    with tr.span("orthopoly.predistance"):
        basis = dg.predistance_polynomials(G, powers, mono, ds)
    with tr.span("excess.projection_tables"):
        tables = dg.projection_tables(ds, basis, powers)
    with tr.span("classify.direct_oracles"):
        dg.wdr_direct(ds)
        dg.dr_direct(ds)
    with tr.span("digraph.odd_girth"):
        dg.odd_girth(G)
    return {"ds": ds, "profile": profile, "powers": powers, "mono": mono,
            "basis": basis, "tables": tables, "escalation": escalation}


def replay_weighted(dg, G, st: dict, tr: Tracer, counts: dict) -> None:
    """Hoffman polynomial and weighted layers, as AnalysisContext's lazy
    properties compute them."""
    hp = None
    with tr.span("orthopoly.hoffman_polynomial"):
        try:
            hp = dg.hoffman_polynomial(G, st["powers"], st["mono"].minpoly,
                                       dg.working_dps())
        except STAGE_ERRORS:
            pass
    if hp is None:
        return
    with tr.span("excess.weighted_layers"):
        try:
            dg.weighted_layers(G, hp, st["ds"], st["powers"])
        except STAGE_ERRORS:
            pass
    if not hp.exact:
        counts["excess.weighted_numeric"] = counts.get("excess.weighted_numeric", 0) + 1


def replay_bounds(dg, G, st: dict, tr: Tracer) -> None:
    ds, basis, powers, tables = st["ds"], st["basis"], st["powers"], st["tables"]
    profile = st["profile"]
    with tr.span("excess.bounds"):
        dg.wdr_projection_sum(ds, basis, powers, tables, profile)
        dg.upper_projection_sum(ds, basis, powers, tables, profile)
        dg.q_norm_check(basis, G.n)


def replay_report(dg, G, tr: Tracer, counts: dict) -> None:
    """AnalysisContext as one call, then every stage full_report runs,
    once each, on fresh objects."""
    with tr.span("classify.context"):
        ctx = dg.AnalysisContext(G)
    st = replay_core(dg, G, ctx.basis.dhat, tr, counts)
    spec = None
    with tr.span("linalg.spectrum"):
        try:
            spec = dg.spectrum(G, None, minpoly=st["mono"].minpoly,
                               dps=dg.working_dps())
        except STAGE_ERRORS:
            pass
    replay_weighted(dg, G, st, tr, counts)
    replay_bounds(dg, G, st, tr)
    if spec is not None and ctx.normal:
        with tr.span("orthopoly.spectral_crosscheck"):
            try:
                dg.spectral_predistance(spec)
                f = dg.conjugation_polynomial(spec)
                dg.matrix_polynomial(f, st["powers"])
            except STAGE_ERRORS:
                pass


def replay_check(dg, harness, G, tr: Tracer, counts: dict) -> list:
    """harness.check_digraph, one check per span, plus its stages.
    Returns the checks' failure messages."""
    with tr.span("classify.context"):
        ctx = dg.AnalysisContext(G, tol=1e-9)
    st = replay_core(dg, G, ctx.basis.dhat, tr, counts)
    if ctx.normal:
        # check_weighted_set reads the weighted layers of normal digraphs
        replay_weighted(dg, G, st, tr, counts)
    replay_bounds(dg, G, st, tr)
    failures = []
    with tr.span("harness.check_projection_sums"):
        failures += harness.check_projection_sums(ctx, 5)
    with tr.span("harness.check_simple_set"):
        failures += harness.check_simple_set(ctx)
    with tr.span("harness.check_weighted_set"):
        failures += harness.check_weighted_set(ctx, 1e-9)
    with tr.span("harness.check_geodetic_set"):
        failures += harness.check_geodetic_set(ctx)
    with tr.span("harness.check_excess_product"):
        failures += harness.check_excess_product(ctx)
    with tr.span("harness.check_odd_girth_suite"):
        failures += harness.check_odd_girth_suite(ctx)
    return failures
