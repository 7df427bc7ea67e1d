"""Benchmark for dgexcess: certified full reports and corpus verification.

Run from the root of a checkout:

    python3 perfbench/run.py --workload report --seed 1 \\
        --seconds 45 --trace 0

Workloads are described in workloads.py.  Each run is one closed-loop
process (no threads, jobs=1).  It builds the inputs from --seed, repeats
whole passes over them until --seconds have gone by, checks every
output (checks.py), and prints one line per metric, then as its last
line one JSON object with the keys correct, attempted, failed and
metrics.  Gated pass times are scaled to a reference host speed
measured in the same run (hostspeed.py).

--trace 0 measures the end-to-end metrics with tracing off.  --trace 1
is a separate run that replays each call stage by stage under spans
(tracing.py), reports the per-layer metrics, and writes the spans to
perfbench/out/.  The package is imported from src/ of the checkout;
without it the run exits non-zero and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from workloads import WORKLOADS, ReportWorkload  # noqa: E402

SETUP_PROBES = 9

END_TO_END = {"setup_s": "s", "pass_s": "s", "digraphs_per_s": "1/s",
              "peak_rss_mb": "MB"}

SPAN_METRICS = (
    "digraph.distance_structure", "digraph.delta_profile", "digraph.odd_girth",
    "linalg.powers", "linalg.monomial_basis", "linalg.spectrum",
    "polynomial.squarefree",
    "orthopoly.predistance", "orthopoly.hoffman_polynomial",
    "orthopoly.spectral_crosscheck",
    "excess.projection_tables", "excess.bounds", "excess.weighted_layers",
    "classify.context", "classify.direct_oracles", "classify.full_report",
    "reportio.emit_json",
    "harness.check_projection_sums", "harness.check_simple_set",
    "harness.check_weighted_set", "harness.check_geodetic_set",
    "harness.check_excess_product", "harness.check_odd_girth_suite",
    "harness.family_suite",
    "generators.enumerate",
)
COUNT_METRICS = ("linalg.escalation_power", "linalg.moment_bits_max",
                 "excess.weighted_numeric", "classify.alarms",
                 "reportio.json_bytes", "harness.checked", "harness.attempted")
PER_LAYER = dict(
    [(name + "_s", "s") for name in SPAN_METRICS]
    + [("classify.overhead_s", "s"), ("traced.pass_s", "s")]
    + [(name, "count") for name in COUNT_METRICS]
    + [("harness.useful_ratio", "ratio")])

# Spans that stand for the untraced run's own work, per workload kind;
# their sum per pass is traced.pass_s, and traced.pass_s minus the
# untraced pass_s is the tracing overhead.  (In report replays,
# classify.context is an extra call, not part of the untraced work.)
TRACED_WORK = {
    "report": ("classify.full_report", "reportio.emit_json"),
    "verify": ("generators.enumerate", "classify.context",
               "harness.check_projection_sums", "harness.check_simple_set",
               "harness.check_weighted_set", "harness.check_geodetic_set",
               "harness.check_excess_product", "harness.check_odd_girth_suite",
               "harness.family_suite"),
}


def load_package():
    if not (ROOT / "src" / "dgexcess" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no src/dgexcess under {ROOT}; run from a "
                         "checkout of the repository")
    sys.path.insert(0, str(ROOT / "src"))
    import dgexcess
    import dgexcess.harness
    return dgexcess


def summary(values: list) -> dict:
    med = statistics.median(values)
    if len(values) < 2:
        return {"median": med, "q1": med, "q3": med, "n": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def line(name: str, unit: str, values: list) -> str:
    s = summary(values)
    return (f"{name}: median {s['median']:.6g} {unit} "
            f"(q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={s['n']})")


def measure_setup(workload: str, seed: int) -> list:
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up probe failed\n{proc.stderr}")
        samples.append(float(proc.stdout.split()[-1]))
    return samples


class Run:
    """State of one benchmark run: operations, failures, gate findings.

    An operation is one call on one input (full_report + emit on one
    roster digraph, check_digraph on one corpus digraph, the family
    suite).  Passes repeat every operation to time it again, and must
    repeat its outcome; attempted and failed count operations, not
    repeats, so they do not depend on how many passes fit in a run."""

    def __init__(self, dg, tr):
        self.dg = dg
        self.tr = tr
        self.speed = HostSpeed()
        self.attempted = set()   # labels of operations attempted
        self.failed = set()      # labels of operations that failed
        self.problems = []       # gate violations; any makes correct false
        self.notes = []          # recorded defects seen, for the log
        self.passes = []         # per-pass {"pass_s", "digraphs", ...}
        self.layers = []         # per-pass per-layer metrics (traced)
        self.counts = {}         # exact counts of the current pass (traced)
        self.op_times = {}       # operation label -> seconds, one per pass
        self.verify_call = None  # (seconds, digraphs) of the verify_corpus call

    def span(self, name):
        return self.tr.span(name) if self.tr else contextlib.nullcontext()

    def outcome(self, label, failed: bool) -> None:
        self.attempted.add(label)
        if failed:
            self.failed.add(label)

    def layer_totals(self, first_span: int, kind: str) -> dict:
        """Per-layer metrics of the pass whose spans start at first_span."""
        counts = self.counts
        totals = self.tr.totals(first_span)
        out = {name + "_s": totals.get(name, 0.0) for name in SPAN_METRICS}
        out["traced.pass_s"] = sum(totals.get(n, 0.0) for n in TRACED_WORK[kind])
        full = totals.get("classify.full_report")
        out["classify.overhead_s"] = 0.0 if full is None else \
            full - sum(totals.get(n, 0.0) for n in tracing.REPORT_STAGES)
        for name in COUNT_METRICS:
            out[name] = counts.get(name, 0)
        attempted = counts.get("harness.attempted", 0)
        out["harness.useful_ratio"] = (counts.get("harness.checked", 0) / attempted
                                       if attempted else 0.0)
        return out


# -- report -----------------------------------------------------------------

def report_once(run: Run, label: str, G):
    """One operation: full_report then emit_report(..., "json").
    Returns (seconds, report or None, outcome string)."""
    dg = run.dg
    report = text = error = None
    t0 = time.perf_counter()
    try:
        with run.span("classify.full_report"):
            report = dg.full_report(G)
        with run.span("reportio.emit_json"):
            text = dg.emit_report(report, "json")
    except Exception as e:   # every failure is counted and judged below
        error = e
    elapsed = time.perf_counter() - t0
    run.outcome(label, error is not None)
    if error is None:
        outcome = "json " + checks.sha256(text)
        if run.tr:
            run.counts["reportio.json_bytes"] = \
                run.counts.get("reportio.json_bytes", 0) + len(text.encode())
        return elapsed, report, outcome
    outcome = f"error {type(error).__name__}: {error}"
    if checks.is_known_defect(error):
        run.notes.append(f"{label}: recorded defect: {outcome}")
    else:
        run.problems.append(f"{label}: {outcome}")
    return elapsed, report, outcome


def run_report(run: Run, workload: ReportWorkload, seed: int, seconds: float,
               expected: dict, oracles) -> None:
    dg, tr = run.dg, run.tr
    roster = workload.build(dg, seed)
    dg.emit_report(dg.full_report(dg.petersen()), "json")        # warm-up
    first = {}               # label -> (report, outcome, fingerprint)
    deadline = time.perf_counter() + seconds
    while not run.passes or time.perf_counter() < deadline:
        first_span = len(tr.spans) if tr else 0
        run.counts = {}
        times = []
        for label, G in roster:
            # Untraced runs stop at any operation once the first pass is
            # done, so the time left is spent on more samples, not on
            # finishing a long pass; traced runs keep whole passes.
            if run.passes and not tr and time.perf_counter() >= deadline:
                break
            if tr:
                tr.request = label
            run.speed.tick()
            elapsed, report, outcome = report_once(run, label, G)
            times.append(elapsed)
            run.op_times.setdefault(label, []).append(elapsed)
            if tr and report is not None:
                run.counts["classify.alarms"] = \
                    run.counts.get("classify.alarms", 0) + len(report.alarms or ())
                tracing.replay_report(dg, G, tr, run.counts)
            got = (outcome, checks.fingerprint(report) if report else None)
            if label not in first:
                first[label] = (report,) + got
            elif got != first[label][1:]:
                run.problems.append(f"{label}: output changed between passes")
        if len(times) < len(roster):
            break
        run.passes.append({"pass_s": sum(times), "max_s": max(times),
                           "digraphs": len(roster)})
        if tr:
            run.layers.append(run.layer_totals(first_span, "report"))

    # The gate, outside the timed region.
    table = expected.get(workload.name, {})
    for label, G in roster:
        report, outcome, fp = first[label]
        want = table.get(label)
        if report is None:
            continue          # already counted as failed
        if want is None:
            problem = checks.oracle_mismatch(oracles, G, report)
            if problem:
                run.problems.append(f"{label}: {problem}")
            continue
        if fp != want["fingerprint"]:
            run.problems.append(f"{label}: report differs from the recorded one")
        if "json_sha256" in want and outcome != "json " + want["json_sha256"]:
            run.problems.append(f"{label}: emitted JSON differs from the recorded "
                                f"digest ({outcome[:80]})")


# -- verify-corpus ----------------------------------------------------------

def corpus(dg, args: dict):
    """(n, Digraph) for every code verify_corpus decodes, in its order:
    exhaustive below n = 5, a seeded sample of args["sample"] codes at 5."""
    for n in range(2, args["max_n"] + 1):
        sampled = n >= 5 and args["sample"] < 2 ** (n * (n - 1))
        for G in dg.enumerate_digraphs(n, "all",
                                       sample_limit=args["sample"] if sampled else None,
                                       seed=args["seed"] + n):
            yield n, G


def corpus_pass(run: Run, args: dict, deadline: float) -> dict:
    """One pass of check_digraph over the corpus, then the family suite,
    each call timed on its own.  Returns strongly connected digraphs
    checked per n, or None when the deadline cut the pass short."""
    dg, tr = run.dg, run.tr
    harness = dg.harness
    checked = {}
    walk = corpus(dg, args)
    index = 0
    while True:
        if run.passes and not tr and time.perf_counter() >= deadline:
            return None
        run.speed.tick()
        t0 = time.perf_counter()
        with run.span("generators.enumerate"):
            item = next(walk, None)
            keep = item is not None and item[1].is_strongly_connected
        if item is None:
            break
        n, G = item
        if tr:
            run.counts["harness.attempted"] = run.counts.get("harness.attempted", 0) + 1
        failures = []
        if keep:
            checked[n] = checked.get(n, 0) + 1
            try:
                if tr:
                    tr.request = f"n{n}:{index}"
                    failures = tracing.replay_check(dg, harness, G, tr, run.counts)
                else:
                    failures = harness.check_digraph(G)
            except Exception as e:   # counted as a failed operation
                failures = [f"raised {type(e).__name__}: {e}"]
        run.op_times.setdefault(index, []).append(time.perf_counter() - t0)
        if keep:
            run.outcome(index, bool(failures))
            if failures:
                run.problems.append(f"check_digraph: {failures[0].splitlines()[0]}")
        index += 1
    if tr:
        tr.request = "families"
        run.counts["harness.checked"] = sum(checked.values())
    run.speed.tick()
    t0 = time.perf_counter()
    with run.span("harness.family_suite"):
        families = harness.family_suite(1e-9)
    run.op_times.setdefault("families", []).append(time.perf_counter() - t0)
    run.outcome("families", bool(families.failures))
    if families.failures:
        run.problems.append(f"family_suite: {families.failures[0].splitlines()[0]}")
    return checked


def run_verify(run: Run, workload, seed: int, seconds: float) -> None:
    """Passes of the per-digraph calls verify_corpus makes, each call
    timed on its own, until the deadline.  A traced run then makes the
    real verify_corpus call once, gated and timed; see README.md for why
    the untraced run does not."""
    dg, tr = run.dg, run.tr
    args = workload.build(dg, seed)
    dg.harness.verify_corpus(max_n=2, jobs=1)                     # warm-up
    deadline = time.perf_counter() + seconds
    want = dict(workload.exhaustive_counts)
    while not run.passes or time.perf_counter() < deadline:
        run.counts = {}
        first_span = len(tr.spans) if tr else 0
        t0 = time.perf_counter()
        checked = corpus_pass(run, args, deadline)
        if checked is None:
            break
        for n, count in want.items():
            if checked.get(n, 0) != count:
                run.problems.append(f"corpus n={n}: {checked.get(n, 0)} checked, "
                                    f"expected {count}")
        want.update(checked)
        run.passes.append({"pass_s": time.perf_counter() - t0,
                           "digraphs": sum(checked.values())})
        if tr:
            run.layers.append(run.layer_totals(first_span, "verify"))
    if not tr:
        return
    t0 = time.perf_counter()
    try:
        results = dg.harness.verify_corpus(**args)
    except Exception as e:   # counted as a failed operation
        run.outcome("verify_corpus", True)
        run.problems.append(f"verify_corpus raised {type(e).__name__}: {e}")
        return
    run.verify_call = (time.perf_counter() - t0,
                       sum(r.checked for r in results if r.name.startswith("corpus")))
    problems = checks.verify_mismatches(results, want,
                                        len(dg.harness.standard_families()))
    run.outcome("verify_corpus", bool(problems))
    run.problems += problems


# -- output -----------------------------------------------------------------

def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args(argv)
    result = run_benchmark(WORKLOADS[a.workload], a.seed, a.seconds, bool(a.trace))
    print(json.dumps(result))
    return 0


def run_benchmark(workload, seed: int, seconds: float, trace: bool,
                  expected: dict = None, probe_as: str = None) -> dict:
    """Run one workload and print its metric lines; returns the result
    object.  The self-test passes its own workload and expectations, and
    in probe_as the workload whose set-up is probed."""
    dg = load_package()
    oracles = checks.load_oracles(ROOT)
    if expected is None:
        expected = checks.load_expected()
    setup_samples = [] if trace else measure_setup(probe_as or workload.name, seed)
    run = Run(dg, tracing.Tracer() if trace else None)
    if isinstance(workload, ReportWorkload):
        run_report(run, workload, seed, seconds, expected, oracles)
    else:
        run_verify(run, workload, seed, seconds)

    if trace:
        for name in COUNT_METRICS:
            values = {layer[name] for layer in run.layers}
            if len(values) > 1:
                run.problems.append(f"count {name} differs between passes: "
                                    f"{sorted(values)}")

    print(f"workload {workload.name} seed {seed} trace {int(trace)}: "
          f"{len(run.passes)} passes")
    pass_s = [x["pass_s"] for x in run.passes]
    rate = [x["digraphs"] / x["pass_s"] for x in run.passes]
    if isinstance(workload, ReportWorkload):
        print(line("report_s", "s", pass_s))
        print(line("report_max_s", "s", [x["max_s"] for x in run.passes]))
        for label, values in run.op_times.items():
            print(line(f"op_s.{label}", "s", values))
    else:
        if run.verify_call:
            call_s, checked = run.verify_call
            print(f"verify_s: {call_s:.6g} s (one verify_corpus call, n=1)")
            print(f"verify_digraphs_per_s: {checked / call_s:.6g} 1/s (n=1)")
        print(line("corpus_pass_s", "s", pass_s))
        print(line("corpus_digraphs_per_s", "1/s", rate))
    # The gated times: each operation's mean time over the passes, summed,
    # and scaled to the reference host speed (hostspeed.py).  The host's
    # speed swings with other tenants' load over seconds to minutes; the
    # scaling takes that out.  Unscaled figures are printed beside them.
    factor = run.speed.factor()
    pass_raw = sum(statistics.fmean(v) for v in run.op_times.values())
    pass_scaled = pass_raw * factor
    digraphs = run.passes[-1]["digraphs"]
    print(f"pass_s: {pass_scaled:.6g} s (sum of each operation's mean time at "
          f"reference host speed; {sum(map(len, run.op_times.values()))} "
          f"operations timed; unscaled {pass_raw:.6g} s)")
    print(f"digraphs_per_s: {digraphs / pass_scaled:.6g} 1/s ({digraphs} digraphs "
          f"per pass over pass_s; unscaled {digraphs / pass_raw:.6g} 1/s)")
    print(line("host_kernel_s", "s", run.speed.seconds)
          + f"; scaling {factor:.6g}")
    print(f"error_rate: {len(run.failed) / max(len(run.attempted), 1):.6g} "
          f"({len(run.failed)} of {len(run.attempted)} operations failed)")
    for note in sorted(set(run.notes)):
        print(f"note: {note[:200]}")
    for problem in run.problems:
        print(f"INCORRECT: {problem[:300]}")

    if trace:
        metrics = {}
        for name, unit in PER_LAYER.items():
            values = [layer[name] for layer in run.layers]
            metrics[name] = {"value": statistics.median(values), "unit": unit}
            print(line(name, unit, values))
        for label in run.op_times if isinstance(workload, ReportWorkload) else ():
            spans = [end - start for nm, start, end, _p, req in run.tr.spans
                     if nm == "classify.full_report" and req == label]
            print(line(f"classify.full_report_s.{label}", "s", spans))
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        run.tr.write(out_dir / f"trace-{workload.name}-seed{seed}.json")
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        # Set-up is not scaled: the probes are other processes, whose
        # import time did not follow the kernel (see README.md).
        print(line("setup_s", "s", setup_samples))
        print(f"peak_rss_mb: {rss_mb:.6g} MB (n=1)")
        values = {
            "setup_s": statistics.median(setup_samples),
            "pass_s": pass_scaled,
            "digraphs_per_s": digraphs / pass_scaled,
            "peak_rss_mb": rss_mb,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    return {"correct": not run.problems, "attempted": len(run.attempted),
            "failed": len(run.failed), "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
