"""The benchmark's workloads: which digraphs each one runs, and why.

Every workload is one closed-loop process with no threads and jobs=1:
the next call starts only when the previous one has returned.

report
    full_report + emit_report on two groups of digraphs.
    The families (Petersen, Kneser, hypercube, Paley, cycles, a lift)
    are regular with few distinct eigenvalues: all on the exact weighted
    track, so their time goes to the Hoffman-matrix weighted layers, the
    distance structure and the direct oracles, and the exact core costs
    little.  The wide digraphs have a number of distinct eigenvalues
    close to n: their time moves into the exact core (big-integer
    powers, moments, Gram-Schmidt, square-free parts), the numeric
    weighted track and the spectral cross-checks, and circulant(47)
    carries the scaling cliff.  Two wide inputs are random strongly
    connected non-normal digraphs drawn from the workload seed with
    exactly round(0.1 n(n-1)) arcs; a fixed arc count keeps their cost
    from swinging with the seed as much as a per-arc coin would.
verify-corpus
    harness.verify_corpus over thousands of tiny digraphs, where the
    constant cost per call (context construction, Fraction
    construction, the direct oracles, enumeration) dominates and the
    weighted layers and the spectrum barely run.

The families and the wide digraphs share one workload so that each run
can be long enough for steady timings within the benchmark's time
budget; the per-digraph lines keep the two groups apart.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

ARC_DENSITY = 0.1


@dataclass(frozen=True)
class ReportWorkload:
    """full_report followed by emit_report(..., "json") on each digraph."""

    name: str
    fixed: tuple      # (label, callable taking the dgexcess module)
    seeded: tuple     # (label, vertex count) of seeded random digraphs

    def build(self, dg, seed: int) -> list:
        """[(label, Digraph)] in roster order; same seed, same digraphs."""
        roster = [(label, make(dg)) for label, make in self.fixed]
        rng = random.Random(seed)
        roster += [(label, random_digraph(dg, n, rng)) for label, n in self.seeded]
        return roster


@dataclass(frozen=True)
class VerifyWorkload:
    """One harness.verify_corpus call per pass."""

    name: str
    max_n: int
    sample: int
    exhaustive_counts: dict   # n -> strongly connected labeled digraphs

    def build(self, dg, seed: int) -> dict:
        return {"max_n": self.max_n, "sample": self.sample, "seed": seed,
                "jobs": 1}


def random_digraph(dg, n: int, rng: random.Random):
    """A strongly connected, non-normal digraph on n vertices with
    exactly round(ARC_DENSITY * n * (n - 1)) arcs, by rejection."""
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    m = round(ARC_DENSITY * len(pairs))
    if m <= n:
        # n arcs can only make a directed n-cycle strongly connected,
        # and that is normal
        raise ValueError(f"{m} arcs on {n} vertices: no strongly connected "
                         "non-normal digraph to draw")
    while True:
        G = dg.build_digraph(n, sorted(rng.sample(pairs, m)))
        if G.is_strongly_connected and not dg.normality_test(G.adjacency):
            return G


FAMILIES = (
    ("petersen", lambda dg: dg.petersen()),
    ("kneser-4", lambda dg: dg.kneser_odd_graph(4)),
    ("hypercube-6", lambda dg: dg.hypercube(6)),
    ("paley-103", lambda dg: dg.paley_tournament(103)),
    ("cycle-30", lambda dg: dg.directed_cycle(30)),
    ("lift-cycle-5x3", lambda dg: dg.tensor_lift(dg.directed_cycle(5), 3)),
)
WIDE = (
    ("circulant-37", lambda dg: dg.circulant(37, (1, 10, 23))),
    ("circulant-47", lambda dg: dg.circulant(47, (1, 10, 23))),
    ("path-32", lambda dg: dg.path(32)),
    ("path-40", lambda dg: dg.path(40)),
)

WORKLOADS = {
    w.name: w for w in (
        ReportWorkload("report", fixed=FAMILIES + WIDE,
                       seeded=(("random-36", 36), ("random-40", 40))),
        # OEIS A035512: 1, 18, 1606 strongly connected labeled digraphs
        # on 2, 3, 4 vertices.
        VerifyWorkload("verify-corpus", max_n=5, sample=1500,
                       exhaustive_counts={2: 1, 3: 18, 4: 1606}),
    )
}
