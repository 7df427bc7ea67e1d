"""File formats, report serialization and the command line.

Claims checked:
  * both input formats parse their documented examples and reject
    malformed input with the offending line number
  * generator output round-trips through the parser unchanged
  * JSON reports keep rationals as "p/q" strings, stay byte-identical
    across runs, and contain the documented verdict shapes; one emit
    converts an exact value that appears twice (q_norm) once; the direct
    oracle's dr verdict of a non-normal digraph, witness included, is
    the one docs/report-schema.md shows
  * the text report carries the excess comparison line
  * CLI subcommands and their exit-code contract (0 holds, 1 fails,
    2 error or internal inconsistency)
  * verify ends with the corpus digraphs checked per second
"""

import hashlib
import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

from dgexcess import (build_digraph, circulant, complete_bipartite, directed_cycle,
                      full_report, hypercube, emit_report, parse_text, path,
                      petersen, digraph_to_adjmatrix, digraph_to_edgelist)
from dgexcess.cli import main
from dgexcess.harness import standard_families
from dgexcess.reportio import ParseError


# -- Parsing -----------------------------------------------------------------

def test_parse_edgelist_documented_examples():
    G = parse_text("3 3\n0 1\n1 2\n2 0")
    assert G.arcs == ((0, 1), (1, 2), (2, 0))
    G = parse_text("2\n0 1\n1 0", format="adjmatrix")
    assert G.arcs == ((0, 1), (1, 0))
    with pytest.raises(ParseError) as err:
        parse_text("2 1\n0 0")
    assert "line 2" in str(err.value) and "loop" in str(err.value)


def test_parse_edgelist_error_lines():
    with pytest.raises(ParseError, match="line 1"):
        parse_text("")
    with pytest.raises(ParseError, match="line 1"):
        parse_text("3")
    with pytest.raises(ParseError, match="line 2"):
        parse_text("2 1\n0 two")
    with pytest.raises(ParseError, match="line 3"):
        parse_text("2 1\n0 1\n1 0")              # trailing garbage
    with pytest.raises(ParseError, match="line 3"):
        parse_text("2 2\n0 1\n0 1")              # duplicate
    with pytest.raises(ParseError, match="line 2"):
        parse_text("2 1\n0 5")                   # out of range
    G = parse_text("# leading comment\n2 1  # header\n0 1 # arc")
    assert G.arcs == ((0, 1),)


def test_parse_adjmatrix_error_lines():
    with pytest.raises(ParseError, match="line 2"):
        parse_text("2\n0 2\n0 0", format="adjmatrix")
    with pytest.raises(ParseError, match="line 3"):
        parse_text("2\n0 1\n1", format="adjmatrix")
    with pytest.raises(ParseError, match="line 2"):
        parse_text("1\n1", format="adjmatrix")    # loop on the diagonal
    with pytest.raises(ValueError, match="unknown format"):
        parse_text("1", format="csv")


def test_round_trip_families():
    for _label, G, _expected in standard_families(max_vertices=16):
        assert parse_text(digraph_to_edgelist(G)) == G
        assert parse_text(digraph_to_adjmatrix(G), format="adjmatrix") == G


# -- JSON contract -----------------------------------------------------------

def test_json_rationals_are_strings():
    obj = json.loads(emit_report(full_report(petersen()), "json"))
    assert obj["excess"]["spectral_excess"] == "6/1"
    assert obj["excess"]["simple_excess"] == "6/1"
    assert obj["delta"] == ["1/1", "3/1", "6/1"]
    assert obj["verdicts"]["dr"] == {
        "name": "distance-regular", "decision": True,
        "method": "spectral-exact",
        "certificate": obj["verdicts"]["dr"]["certificate"]}
    cert = obj["verdicts"]["dr"]["certificate"]
    assert cert["simple_excess"] == "6/1" and cert["spectral_excess"] == "6/1"


def test_json_byte_stable():
    a = emit_report(full_report(path(3)), "json")
    b = emit_report(full_report(path(3)), "json")
    assert a == b
    a = emit_report(full_report(directed_cycle(7)), "json")
    b = emit_report(full_report(directed_cycle(7)), "json")
    assert a == b


GOLDEN_JSON_SHA256 = {
    "petersen": ("73e90864ac80276f07a868f37dafa409"
                 "ccbed4a4d660ce781a68a8869a3b7506"),
    "path(3)": ("e1247652f8d2901ee6bd67e12bd63677"
                "0bbcf5a773a9bcbf898d4278be67f756"),
    "path(5)": ("d6c861e0d01a0e058bffb92c7981b5be"
                "034ca8d05f690c45e5be356e9163d934"),
    "K_1,4": ("1614486cc6959b3d63f96c84903270b4"
              "d5e0c1f2d03a67a7d25e4a467e0d81a8"),
    "directed_cycle(7)": ("6396a01814e03b5d7449384c495e8cf8"
                          "83d5ff06982024306f63669614e83ac9"),
    # not normal: its dr verdict is the direct oracle's, witness included
    "chord triangle": ("1ec160857283549f1f34d14d2ddd7bbc"
                       "21cc687700cbe3e57320c9fd244c122d"),
}
CHORD_TRIANGLE = build_digraph(3, [(0, 1), (1, 2), (2, 0), (0, 2)])
SCHEMA = Path(__file__).resolve().parent.parent / "docs" / "report-schema.md"


def test_json_matches_golden_digests():
    graphs = {"petersen": petersen(), "path(3)": path(3), "path(5)": path(5),
              "K_1,4": complete_bipartite(1, 4),
              "directed_cycle(7)": directed_cycle(7),
              "chord triangle": CHORD_TRIANGLE}
    for label, G in graphs.items():
        text = emit_report(full_report(G), "json")
        assert hashlib.sha256(text.encode()).hexdigest() == \
            GOLDEN_JSON_SHA256[label], label


def test_not_normal_dr_verdict_matches_the_schema_example():
    section = SCHEMA.read_text().split("## Outcome: not normal", 1)[1]
    documented = json.loads(section.split("```json", 1)[1].split("```", 1)[0])
    report = json.loads(emit_report(full_report(CHORD_TRIANGLE), "json"))
    assert report["verdicts"]["dr"] == documented["verdicts"]["dr"]


def test_emit_beyond_the_integer_digit_limit():
    big = Fraction(10 ** 5001 + 7, 3)
    digits = "1" + "0" * 5000 + "7"              # 10**5001 + 7, no str(int)
    report = full_report(petersen())
    report.bounds["q_norm"]["value"] = big
    report.excess["spectral"] = big
    report.minimal_polynomial = [big] + report.minimal_polynomial[1:]
    out = json.loads(emit_report(report, "json"))
    assert out["bounds"]["q_norm"]["value"] == digits + "/3"
    assert out["excess"]["spectral_excess"] == digits + "/3"
    assert out["minimal_polynomial"][0] == digits + "/3"
    text = emit_report(report, "text")
    assert f"q-norm {digits}/3" in text
    report.bounds["q_norm"]["value"] = Fraction(-10 ** 5001)
    text = emit_report(report, "text")
    assert "q-norm -1" + "0" * 5001 + " " in text


def test_emit_converts_each_exact_value_once_per_call(monkeypatch):
    import dgexcess.reportio as reportio
    report = full_report(circulant(47, (1, 10, 23)))
    q = report.bounds["q_norm"]["value"]
    assert report.verdicts["geodetic_dr"].certificate["q_norm"] is q
    assert q.numerator.bit_length() > 10000
    converted = []
    int_str = reportio._int_str

    def counted(n):
        converted.append(n)
        return int_str(n)
    monkeypatch.setattr(reportio, "_int_str", counted)
    first = emit_report(report, "json")
    # the bounds and the geodetic certificate print one conversion
    assert converted.count(q.numerator) == 1
    # the memo lives for one call only
    assert emit_report(report, "json") == first
    assert converted.count(q.numerator) == 2
    obj = json.loads(first)
    assert obj["bounds"]["q_norm"]["value"] == \
        obj["verdicts"]["geodetic_dr"]["certificate"]["q_norm"] == reportio._rat(q)


def test_json_infinite_and_spectrum_digits():
    obj = json.loads(emit_report(full_report(hypercube(2)), "json"))
    assert obj["metrics"]["odd_girth"] == "infinite"
    for re, im, mult in obj["spectrum"]["values"]:
        assert isinstance(re, float) and isinstance(mult, int)
    assert obj["spectrum"]["lambda0_exact"] == "2/1"


def test_text_report_excess_lines():
    text = emit_report(full_report(path(3)), "text")
    assert "simple excess 2/3 < spectral excess 8/9 ⇒ not distance-regular" \
        in text
    text = emit_report(full_report(petersen()), "text")
    assert "simple excess 6 = spectral excess 6 ⇒ distance-regular" in text


def test_disconnected_report_has_no_downstream_fields():
    report = full_report(build_digraph(2, [(0, 1)]))
    obj = json.loads(emit_report(report, "json"))
    assert obj["flags"] == {"strongly_connected": False}
    assert set(obj) == {"input", "flags"}
    assert "no further analysis" in emit_report(report, "text")


# -- CLI ---------------------------------------------------------------------

def _write(tmp_path, name, content):
    p = tmp_path / name
    p.write_text(content)
    return str(p)


def test_cli_analyze_json(tmp_path, capsys):
    f = _write(tmp_path, "c5.edges", digraph_to_edgelist(directed_cycle(5)))
    assert main(["analyze", f, "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["verdicts"]["dr"]["decision"] is True


def test_cli_check_exit_codes(tmp_path, capsys):
    dr = _write(tmp_path, "c5.edges", digraph_to_edgelist(directed_cycle(5)))
    notdr = _write(tmp_path, "p4.edges", digraph_to_edgelist(path(4)))
    disco = _write(tmp_path, "d.edges", "2 1\n0 1")
    nonnormal = _write(tmp_path, "nn.edges", "3 4\n0 1\n0 2\n1 2\n2 0")
    assert main(["check", "dr", dr]) == 0
    assert "dr holds" in capsys.readouterr().out
    assert main(["check", "dr", notdr]) == 1
    assert "witness" in capsys.readouterr().out
    assert main(["check", "wdr", disco]) == 2
    assert main(["check", "trichotomy", nonnormal]) == 2
    assert main(["check", "trichotomy", dr]) == 0
    assert "small-odd-girth" in capsys.readouterr().out
    assert main(["check", "bipartite", dr]) == 1
    assert main(["check", "normal", nonnormal]) == 1
    assert main(["check", "regular", dr]) == 0


def test_cli_generate_matches_library(tmp_path, capsys):
    assert main(["generate", "petersen"]) == 0
    out = capsys.readouterr().out
    assert parse_text(out) == petersen()
    assert main(["generate", "directed_cycle", "3", "--lift", "2"]) == 0
    G = parse_text(capsys.readouterr().out)
    assert G.n == 6
    assert main(["generate", "paley_tournament", "9"]) == 2
    assert "prime" in capsys.readouterr().err


def test_cli_parse_error_exit(tmp_path, capsys):
    bad = _write(tmp_path, "bad.edges", "2 1\n0 0")
    assert main(["analyze", bad]) == 2
    assert "line 2" in capsys.readouterr().err
    assert main(["analyze", str(tmp_path / "missing.edges")]) == 2


def test_cli_verify_small(capsys):
    assert main(["verify", "--max-n", "3"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] corpus n=2" in out
    assert "[PASS] corpus n=3" in out
    assert "[PASS] families" in out
    # one throughput line after the suite lines: 1 + 18 corpus digraphs
    lines = out.splitlines()
    assert lines[-2].startswith("[PASS] families")
    found = re.fullmatch(r"throughput: 19 strongly connected corpus digraphs "
                         r"checked in (\d+\.\d\d) s \(whole call\), "
                         r"(\d+\.\d) digraphs/s", lines[-1])
    assert found, lines[-1]
    seconds, rate = map(float, found.groups())
    assert rate > 0
    if seconds >= 0.1:   # rounding leaves the ratio loose for shorter calls
        assert rate == pytest.approx(19 / seconds, rel=0.06)
