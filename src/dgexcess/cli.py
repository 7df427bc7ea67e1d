"""Command-line front end.

analyze   full invariant/verdict report for one digraph file
check     single property with exit code 0 (holds) / 1 (fails) / 2 (error)
generate  family construction written as an edge list
verify    corpus + family property suites with counterexample output,
          then the corpus digraphs checked per second
"""

from __future__ import annotations

import argparse
import sys
import time

from .classify import (WEIGHTED_TOL, InconsistencyAlarm, dr_direct,
                       full_report, generalized_odd_graph_check,
                       geodetic_dr_check, trichotomy, wdr_direct)
from .digraph import (Digraph, GraphError, NotStronglyConnectedError,
                      bipartite_test, distance_structure, regularity_test)
from .generators import FamilySpec, generate
from .harness import verify_corpus
from .linalg import normality_test
from .reportio import ParseError, digraph_to_edgelist, emit_report, parse_input


def _load(args) -> Digraph:
    return parse_input(args.file, args.format)


def _cmd_analyze(args) -> int:
    G = _load(args)
    report = full_report(G, tol=args.tol,
                         source={"format": args.format, "path": args.file})
    sys.stdout.write(emit_report(report, "json" if args.json else "text"))
    return 0


def _check_property(name: str, G: Digraph):
    """Return (holds, detail line)."""
    if name == "normal":
        return normality_test(G.adjacency), ""
    if name == "regular":
        ok, degree = regularity_test(G)
        return ok, f"degree {degree}" if ok else ""
    if name == "bipartite":
        return bipartite_test(G), ""
    if name == "wdr":
        verdict = wdr_direct(distance_structure(G))
        witness = verdict.certificate.get("witness")
        return verdict.decision, f"witness {witness}" if witness else ""
    if name == "dr":
        verdict = dr_direct(distance_structure(G))
        witness = verdict.certificate.get("witness")
        return verdict.decision, f"witness {witness}" if witness else ""
    if name == "geodetic-dr":
        verdict = geodetic_dr_check(G)
        return verdict.decision, (f"q-norm {verdict.certificate['q_norm']} "
                                  f"vs n = {verdict.certificate['n']}")
    if name == "gog":
        verdict = generalized_odd_graph_check(G)
        return verdict.decision, str(verdict.certificate)
    if name == "trichotomy":
        result = trichotomy(G)
        return True, "branches: " + ", ".join(result.branches)
    raise ValueError(f"unknown property {name!r}")


def _cmd_check(args) -> int:
    G = _load(args)
    try:
        holds, detail = _check_property(args.property, G)
    except (NotStronglyConnectedError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except InconsistencyAlarm as e:
        print(f"internal inconsistency: {e}", file=sys.stderr)
        return 2
    line = f"{args.property} {'holds' if holds else 'fails'}"
    if detail:
        line += f" ({detail})"
    print(line)
    return 0 if holds else 1


def _cmd_generate(args) -> int:
    spec = FamilySpec(args.family, tuple(args.params), args.lift or 0)
    G = generate(spec)
    sys.stdout.write(digraph_to_edgelist(G))
    return 0


def _cmd_verify(args) -> int:
    started = time.perf_counter()
    # verify_corpus raises on an n past the caps before its first suite
    results = verify_corpus(max_n=args.max_n, sample=args.sample,
                            seed=args.seed, jobs=args.jobs)
    elapsed = time.perf_counter() - started
    exit_code = 0
    for suite in results:
        mark = "PASS" if suite.passed else "FAIL"
        print(f"[{mark}] {suite.name}: {suite.checked} digraphs checked, "
              f"{len(suite.failures)} failure(s)")
        for failure in suite.failures:
            exit_code = 1
            print(failure)
    # the corpus digraphs over the whole call, the family suite's time included
    corpus = sum(s.checked for s in results if s.name.startswith("corpus"))
    print(f"throughput: {corpus} strongly connected corpus digraphs checked in "
          f"{elapsed:.2f} s (whole call), {corpus / elapsed:.1f} digraphs/s")
    return exit_code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dgexcess",
        description="Spectral and metric excess analysis of directed graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full report for one digraph file")
    p.add_argument("file")
    p.add_argument("--format", choices=("edgelist", "adjmatrix"),
                   default="edgelist")
    p.add_argument("--tol", type=float, default=WEIGHTED_TOL,
                   help="numeric comparison tolerance (default %(default)g)")
    p.add_argument("--json", action="store_true",
                   help="emit the JSON report instead of text")
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("check", help="test one property, exit 0/1/2")
    p.add_argument("property", choices=("normal", "regular", "wdr", "dr",
                                        "geodetic-dr", "gog", "bipartite",
                                        "trichotomy"))
    p.add_argument("file")
    p.add_argument("--format", choices=("edgelist", "adjmatrix"),
                   default="edgelist")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("generate", help="write a family member as an edge list")
    p.add_argument("family")
    p.add_argument("params", nargs="*", type=int)
    p.add_argument("--lift", type=int, default=0,
                   help="tensor-lift the family by this factor (>= 2)")
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser("verify", help="run the corpus property suites")
    p.add_argument("--max-n", type=int, default=4)
    p.add_argument("--sample", type=int, default=None,
                   help="sample size per vertex count from n = 5 up")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(fn=_cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ParseError, GraphError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
