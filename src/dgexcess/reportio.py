"""File formats and report serialization.

Two input formats: an edge list ("n m" header then one arc per line)
and a dense 0/1 adjacency matrix.  Parse errors carry 1-based line
numbers.  Reports serialize to a stable-key-order JSON object in which
every rational is a "p/q" string (never a float) and every inexact
block carries its exactness marker, or to a human-readable text table.
"""

from __future__ import annotations

import decimal
import functools
import json
from fractions import Fraction

import mpmath
import numpy as np

from .classify import AnalysisReport, TrichotomyResult, Verdict
from .digraph import Digraph, build_digraph, is_infinite
from .polynomial import Polynomial


class ParseError(ValueError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


# -- Parsing -----------------------------------------------------------------

def _content_lines(text: str):
    """Yield (1-based line number, stripped content), dropping comments
    and blank lines."""
    for number, raw in enumerate(text.splitlines(), start=1):
        content = raw.split("#", 1)[0].strip()
        if content:
            yield number, content


def _parse_edgelist(text: str) -> Digraph:
    lines = list(_content_lines(text))
    if not lines:
        raise ParseError(1, "empty input; expected header 'n m'")
    number, header = lines[0]
    parts = header.split()
    if len(parts) != 2:
        raise ParseError(number, f"expected header 'n m', got {header!r}")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError(number, f"non-integer header {header!r}") from None
    if n < 1 or m < 0:
        raise ParseError(number, f"invalid sizes n={n} m={m}")
    if len(lines) - 1 != m:
        extra = lines[m + 1] if len(lines) - 1 > m else None
        if extra is not None:
            raise ParseError(extra[0], f"trailing content {extra[1]!r} "
                                       f"after the {m} declared arcs")
        raise ParseError(lines[-1][0], f"expected {m} arcs, found {len(lines) - 1}")
    arcs = []
    seen = set()
    for number, content in lines[1:]:
        parts = content.split()
        if len(parts) != 2:
            raise ParseError(number, f"expected 'u v', got {content!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(number, f"non-integer arc {content!r}") from None
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(number, f"vertex out of range in arc {u} {v}")
        if u == v:
            raise ParseError(number, f"loop at vertex {u}")
        if (u, v) in seen:
            raise ParseError(number, f"duplicate arc {u} {v}")
        seen.add((u, v))
        arcs.append((u, v))
    return build_digraph(n, arcs)


def _parse_adjmatrix(text: str) -> Digraph:
    lines = list(_content_lines(text))
    if not lines:
        raise ParseError(1, "empty input; expected header 'n'")
    number, header = lines[0]
    try:
        n = int(header)
    except ValueError:
        raise ParseError(number, f"expected vertex count, got {header!r}") from None
    if n < 1:
        raise ParseError(number, f"invalid vertex count {n}")
    if len(lines) - 1 != n:
        if len(lines) - 1 > n:
            extra = lines[n + 1]
            raise ParseError(extra[0], f"trailing content {extra[1]!r} "
                                       f"after the {n} matrix rows")
        raise ParseError(lines[-1][0], f"expected {n} rows, found {len(lines) - 1}")
    arcs = []
    for u, (number, content) in enumerate(lines[1:]):
        entries = content.split()
        if len(entries) != n:
            raise ParseError(number, f"row {u} has {len(entries)} entries, "
                                     f"expected {n}")
        for v, e in enumerate(entries):
            if e not in ("0", "1"):
                raise ParseError(number, f"entry {e!r} is not 0 or 1")
            if e == "1":
                if u == v:
                    raise ParseError(number, f"loop at vertex {u}")
                arcs.append((u, v))
    return build_digraph(n, arcs)


def parse_input(path, format: str = "edgelist") -> Digraph:
    with open(path) as fh:
        text = fh.read()
    return parse_text(text, format)


def parse_text(text: str, format: str = "edgelist") -> Digraph:
    if format == "edgelist":
        return _parse_edgelist(text)
    if format == "adjmatrix":
        return _parse_adjmatrix(text)
    raise ValueError(f"unknown format {format!r}; use edgelist or adjmatrix")


def digraph_to_edgelist(G: Digraph) -> str:
    lines = [f"{G.n} {len(G.arcs)}"]
    lines += [f"{u} {v}" for u, v in G.arcs]
    return "\n".join(lines) + "\n"


def digraph_to_adjmatrix(G: Digraph) -> str:
    lines = [str(G.n)]
    lines += [" ".join(str(int(x)) for x in row) for row in G.adjacency]
    return "\n".join(lines) + "\n"


# -- JSON serialization ------------------------------------------------------

def _int_str(n: int) -> str:
    """Decimal digits of an integer of any size.

    str(int) refuses integers past the interpreter's digit limit (4300
    by default); a Decimal converts exactly and prints the same digits.
    """
    return str(decimal.Decimal(n))


def _rat(x) -> str:
    f = Fraction(x)
    return f"{_int_str(f.numerator)}/{_int_str(f.denominator)}"


def _plain(x, rat):
    """Recursive conversion to JSON-safe values with the rational-string
    convention: Fractions become "p/q" by rat (_rat, or a memo of it),
    never floats."""
    if isinstance(x, bool):
        return x
    if isinstance(x, Fraction):
        return rat(x)
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, (float, np.floating)):
        return float(x)
    if isinstance(x, mpmath.mpf):
        return float(x)
    if is_infinite(x):
        return "infinite"
    if x is None or isinstance(x, str):
        return x
    if isinstance(x, Verdict):
        return {"name": x.name, "decision": x.decision, "method": x.method,
                "certificate": _plain(x.certificate, rat)}
    if isinstance(x, TrichotomyResult):
        return {"branches": list(x.branches), "odd_girth": _plain(x.odd_girth, rat),
                "d": x.d, "diameter": x.diameter, "bound": x.bound}
    if isinstance(x, Polynomial):
        return [_plain(c, rat) for c in x.coeffs]
    if isinstance(x, dict):
        return {str(k): _plain(v, rat) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_plain(v, rat) for v in x]
    if isinstance(x, complex):
        return [x.real, x.imag]
    raise TypeError(f"cannot serialize {type(x).__name__}")


def _round12(x: float) -> float:
    r = round(float(x), 12)
    return 0.0 if r == 0 else r


def _spectrum_json(block: dict) -> dict:
    out = {
        "values": [[_round12(re), _round12(im), int(m)]
                   for re, im, m in block["values"]],
        "lambda0": block["lambda0"],
        "exact_lambda0": block["exact_lambda0"],
        "d": block["d"],
    }
    out["lambda0_exact"] = (_rat(block["lambda0_exact"])
                            if block["lambda0_exact"] is not None else None)
    return out


def report_to_dict(report: AnalysisReport) -> dict:
    # One memo per call: an exact value that appears twice (q_norm sits
    # in the bounds and in the geodetic certificate) is converted once.
    rat = functools.cache(_rat)
    plain = functools.partial(_plain, rat=rat)
    out = {"input": plain(report.input), "flags": plain(report.flags)}
    if not report.flags.get("strongly_connected", False):
        return out
    out["metrics"] = plain(report.metrics)
    out["minimal_polynomial"] = [rat(c) for c in report.minimal_polynomial]
    if report.spectrum is not None:
        out["spectrum"] = _spectrum_json(report.spectrum)
    out["delta"] = [rat(x) for x in report.delta]
    out["delta_prime"] = [rat(x) for x in report.delta_prime]

    excess = {"simple_excess": rat(report.excess["simple"]),
              "spectral_excess": rat(report.excess["spectral"]),
              "exact": report.excess["exact"]}
    if "weighted" in report.excess:
        w = report.excess["weighted"]
        if report.excess["weighted_exact"]:
            excess["weighted_excess"] = rat(w)
        else:
            excess["weighted_excess"] = float(w)
            excess["weighted_dps"] = report.excess["weighted_dps"]
        excess["weighted_exact"] = report.excess["weighted_exact"]
    out["excess"] = excess
    out["bounds"] = plain(report.bounds)
    out["verdicts"] = {k: plain(v) for k, v in report.verdicts.items()}
    out["crosschecks"] = plain(report.crosschecks)
    out["alarms"] = list(report.alarms)
    out["tolerances"] = plain(report.tolerances)
    return out


# -- Text rendering ----------------------------------------------------------

def _fmt(x) -> str:
    if isinstance(x, Fraction):
        return _int_str(x.numerator) if x.denominator == 1 else _rat(x)
    if is_infinite(x):
        return "infinite"
    if isinstance(x, (float, mpmath.mpf)):
        return f"{float(x):.12g}"
    return str(x)


def _poly_text(coeffs) -> str:
    terms = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = Fraction(coeffs[k])
        if c == 0:
            continue
        mag = abs(c)
        if k == 0:
            body = _fmt(mag)
        else:
            x = "x" if k == 1 else f"x^{k}"
            body = x if mag == 1 else f"{_fmt(mag)}{x}"
        terms.append((("- " if c < 0 else "+ ") if terms else
                      ("-" if c < 0 else "")) + body)
    return " ".join(terms) if terms else "0"


def _excess_line(report: AnalysisReport) -> str:
    s = report.excess["simple"]
    d = report.excess["spectral"]
    if s == d:
        line = f"simple excess {_fmt(s)} = spectral excess {_fmt(d)}"
        if report.flags["normal"]:
            line += " ⇒ distance-regular"
        return line
    return (f"simple excess {_fmt(s)} < spectral excess {_fmt(d)} "
            f"⇒ not distance-regular")


def report_to_text(report: AnalysisReport) -> str:
    inp = report.input
    lines = [f"digraph: n={inp['n']} arcs={inp['arcs']} hash={inp['hash']}"]
    flags = report.flags
    if not flags.get("strongly_connected", False):
        lines.append("strongly connected: no")
        lines.append("not strongly connected; no further analysis")
        return "\n".join(lines) + "\n"
    lines.append("flags: " + "  ".join(
        f"{k}={'yes' if v else 'no'}" for k, v in flags.items()))
    m = report.metrics
    lines.append(f"metrics: D={m['diameter']}  d={m['d']}  dhat={m['dhat']}  "
                 f"girth={_fmt(m['girth'])}  odd_girth={_fmt(m['odd_girth'])}")
    lines.append("minimal polynomial: " + _poly_text(report.minimal_polynomial))
    if report.spectrum is not None:
        sp = report.spectrum
        vals = ", ".join(
            (f"{_round12(re):.10g}" if im == 0 else
             f"{_round12(re):.10g}{'+' if im >= 0 else '-'}{abs(_round12(im)):.10g}i")
            + f" (x{mult})" for re, im, mult in sp["values"])
        tag = "rational" if sp["exact_lambda0"] else "certified irrational"
        lines.append(f"spectrum: {vals}")
        lines.append(f"lambda0: {sp['lambda0']} ({tag})")
    lines.append("delta:  " + ", ".join(_fmt(x) for x in report.delta))
    lines.append("delta': " + ", ".join(_fmt(x) for x in report.delta_prime))
    lines.append(_excess_line(report))
    if "weighted" in report.excess:
        track = "exact" if report.excess["weighted_exact"] else "numeric"
        lines.append(f"weighted excess {_fmt(report.excess['weighted'])} ({track})")
    b = report.bounds
    lines.append(f"projection sums: diagonal {_fmt(b['wdr_projection']['total'])}, "
                 f"triangular {_fmt(b['upper_projection']['total'])}, "
                 f"q-norm {_fmt(b['q_norm']['value'])}  (bound n = {inp['n']})")
    lines.append("verdicts:")
    for key, v in report.verdicts.items():
        if isinstance(v, TrichotomyResult):
            lines.append(f"  {key}: {', '.join(v.branches)}")
        else:
            lines.append(f"  {key}: {'yes' if v.decision else 'no'} ({v.method})")
    bad = [k for k, ok in report.crosschecks.items() if not ok]
    lines.append("crosschecks: all agree" if not bad
                 else "crosschecks FAILED: " + ", ".join(bad))
    if report.alarms:
        lines.append("alarms:")
        lines += [f"  {a}" for a in report.alarms]
    else:
        lines.append("alarms: none")
    return "\n".join(lines) + "\n"


def emit_report(report: AnalysisReport, format: str = "json") -> str:
    if format == "json":
        return json.dumps(report_to_dict(report), indent=2) + "\n"
    if format == "text":
        return report_to_text(report)
    raise ValueError(f"unknown report format {format!r}; use json or text")
