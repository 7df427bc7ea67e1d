"""Record the fixed rosters' expected outputs into expected.json.

Run from the root of a checkout, at a commit whose reports are known to
be right:

    python3 perfbench/record.py

For each fixed-roster digraph it stores the report fingerprint and
either the sha256 of the emitted JSON or, where emit_report hits the
recorded defect, that defect.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import dgexcess  # noqa: E402
import checks  # noqa: E402
from workloads import WORKLOADS, ReportWorkload  # noqa: E402


def main() -> None:
    expected = {}
    for w in WORKLOADS.values():
        if not isinstance(w, ReportWorkload):
            continue
        table = expected[w.name] = {}
        for label, make in w.fixed:
            report = dgexcess.full_report(make(dgexcess))
            entry = {"fingerprint": checks.fingerprint(report)}
            try:
                entry["json_sha256"] = checks.sha256(dgexcess.emit_report(report, "json"))
            except ValueError as e:
                if not checks.is_known_defect(e):
                    raise
                entry["emit_error"] = checks.KNOWN_DEFECT
            table[label] = entry
    with open(checks.EXPECTED_PATH, "w") as fh:
        json.dump(expected, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
