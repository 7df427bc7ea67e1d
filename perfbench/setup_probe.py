"""Set-up cost of one workload, measured in a fresh process.

Times importing dgexcess (numpy and mpmath included) and building the
workload's inputs from its seed, and prints the seconds on stdout.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import time

t0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

if __name__ == "__main__":
    import dgexcess
    from workloads import WORKLOADS

    WORKLOADS[sys.argv[1]].build(dgexcess, int(sys.argv[2]))
    print(repr(time.perf_counter() - t0))
