"""Fast self-test of the benchmark on a tiny roster.

    python3 perfbench/selftest.py

Runs a tiny report workload and a tiny verify workload, once untraced
and twice traced, one pass each.  Checks that every metric named in
BENCHMARK.json appears with its unit, that the tiny runs are correct,
that the exact counts repeat between the two traced runs, and that a
wrong recorded digest makes a run incorrect.  Exits 1 on any failure.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import ReportWorkload, VerifyWorkload  # noqa: E402

TINY_REPORT = ReportWorkload(
    "tiny-report",
    fixed=(("petersen", lambda dg: dg.petersen()),
           ("cycle-5", lambda dg: dg.directed_cycle(5))),
    seeded=(("random-20", 20),))
TINY_VERIFY = VerifyWorkload("tiny-verify", max_n=3, sample=10,
                             exhaustive_counts={2: 1, 3: 18})
# Set-up is probed on the full workload of the same kind.
PROBE_AS = {"tiny-report": "report", "tiny-verify": "verify-corpus"}


def main() -> int:
    with open(HERE.parent / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    wanted = {False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              True: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in (TINY_REPORT, TINY_VERIFY):
        traced_counts = []
        for trace in (False, True, True):
            result = run.run_benchmark(workload, 3, 0, trace,
                                       probe_as=PROBE_AS[workload.name])
            where = f"{workload.name} trace={int(trace)}"
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: not a clean correct run")
            got = result["metrics"]
            if set(got) != set(wanted[trace]):
                problems.append(f"{where}: metrics {sorted(set(got) ^ set(wanted[trace]))} "
                                "differ from BENCHMARK.json")
            for name, unit in wanted[trace].items():
                if name in got and got[name]["unit"] != unit:
                    problems.append(f"{where}: {name} in {got[name]['unit']}, not {unit}")
            if trace:
                traced_counts.append({k: v["value"] for k, v in got.items()
                                      if v["unit"] == "count"})
        if traced_counts[0] != traced_counts[1]:
            problems.append(f"{workload.name}: exact counts differ between traced "
                            f"runs: {traced_counts}")

    wrong = {"tiny-report": {"petersen": {"fingerprint": "0" * 64,
                                          "json_sha256": "0" * 64}}}
    result = run.run_benchmark(TINY_REPORT, 3, 0, False, expected=wrong,
                               probe_as="report")
    if result["correct"]:
        problems.append("a wrong recorded digest was not caught")

    for p in problems:
        print(f"SELFTEST FAIL: {p}")
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
