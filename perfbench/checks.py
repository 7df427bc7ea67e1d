"""The correctness gate.

Fixed-roster digraphs are compared with values recorded in
expected.json: the sha256 of the emitted JSON, and a fingerprint of the
report's exact fields that needs no decimal conversion, so it also
covers inputs whose emit fails.  Digraphs without a recorded entry (the
seeded random ones) are compared, once per run and outside the timed
region, with the independent reference in tests/oracles.py.

Recorded defect: emit_report raises ValueError ("Exceeds the limit (4300
digits) for integer string conversion") when an exact value has more
than 4300 decimal digits, as q_norm does on circulant(47,{1,10,23}) and
on the seeded 40-vertex digraph.  Such an emit counts as a failed
operation but does not make the run incorrect; any other exception, or
any mismatch, does.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import numbers
from fractions import Fraction
from pathlib import Path

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"
KNOWN_DEFECT = "integer string conversion"


def is_known_defect(exc: BaseException) -> bool:
    return isinstance(exc, ValueError) and KNOWN_DEFECT in str(exc)


def load_expected() -> dict:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def load_oracles(root: Path):
    """tests/oracles.py of the checkout, which shares no code with the package."""
    path = root / "tests" / "oracles.py"
    if not path.is_file():
        raise FileNotFoundError(f"independent oracles not found at {path}")
    spec = importlib.util.spec_from_file_location("dgexcess_bench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _exact(x):
    """Canonical text of exact report content; integers in hex, so values
    past the decimal-conversion limit still serialize."""
    if isinstance(x, bool) or x is None or isinstance(x, str):
        return repr(x)
    if isinstance(x, Fraction):
        return f"{x.numerator:x}/{x.denominator:x}"
    if isinstance(x, numbers.Integral):           # int and numpy integers
        return f"{int(x):x}"
    if isinstance(x, dict):
        return "{" + ",".join(f"{k}:{_exact(v)}" for k, v in sorted(x.items())) + "}"
    if isinstance(x, (list, tuple)):
        return "[" + ",".join(_exact(v) for v in x) + "]"
    if hasattr(x, "decision"):                     # Verdict
        return f"V({x.name},{x.decision},{x.method})"
    if hasattr(x, "branches"):                     # TrichotomyResult
        return f"T({x.branches})"
    return repr(float(x)) if hasattr(x, "__float__") else repr(x)


def fingerprint(report) -> str:
    """sha256 over the report's exact fields (no spectrum floats, no
    certificates, no tolerances)."""
    fields = ("input", "flags", "metrics", "minimal_polynomial", "delta",
              "delta_prime", "excess", "bounds", "verdicts", "crosschecks",
              "alarms")
    return sha256(_exact({f: getattr(report, f) for f in fields}))


def oracle_mismatch(oracles, G, report):
    """None when (simple, spectral) excess match the naive reference."""
    simple, spectral = oracles.naive_excess_pair(G.n, G.arcs)
    got = (report.excess["simple"], report.excess["spectral"])
    if got != (simple, spectral):
        return "excess (simple, spectral) differs from tests/oracles.py"
    return None


def verify_mismatches(results, exhaustive_counts: dict, family_count: int) -> list:
    """Zero failures in every suite, the exhaustive counts, every family."""
    problems = []
    by_n = {}
    for r in results:
        if r.failures:
            problems.append(f"{r.name}: {len(r.failures)} failures; first: "
                            f"{r.failures[0].splitlines()[0]}")
        if r.name.startswith("corpus n="):
            by_n[int(r.name.split("=")[1].split()[0])] = r.checked
        elif r.name == "families" and r.checked != family_count:
            problems.append(f"families checked {r.checked}, expected {family_count}")
    for n, count in exhaustive_counts.items():
        if by_n.get(n) != count:
            problems.append(f"corpus n={n} checked {by_n.get(n)}, expected {count}")
    return problems
