"""Self-test: simulated metrics repeat exactly and follow the seed.

Runs the traced benchmark twice at one seed and once at another, then
checks that

- the two same-seed runs report byte-identical simulated metrics:
  ``sim_*``, ``steady.*``, allocator moves and spills, the ILP
  objective and the ring and slice counts;
- a different seed changes the traffic-derived ones (the steady-window
  Mb/s and the ring counts of the ``chip-*`` workloads).

Run from the root of a checkout (takes a few minutes, most of it the
two traced compiles)::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED, OTHER_SEED = 7, 8
SECONDS = 2

#: metrics that are a pure function of the program and the seed.
EXACT_SUFFIXES = (
    ".alloc.moves",
    ".alloc.spills",
    ".ilp.objective",
    ".ilp.variables",
    ".ilp.constraints",
    ".ixp.instructions",
)
EXACT_PREFIXES = (
    "sim_",
    "steady.",
    "ring.deq_calls",
    "ring.empty_polls",
    "ring.empty_poll_frac",
    "ring.tx_full",
    "rx_high_water",
    "machine.slices",
    "engine.mem_stall_frac",
    "steer.",
)
#: metrics a different traffic seed must move on the chip workloads.
TRAFFIC = ("sim_mbps", "ring.deq_calls")


def traced(workload: str, seed: int) -> dict[str, str]:
    out = subprocess.run(
        [
            sys.executable, "perfbench/run.py",
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(SECONDS),
            "--trace", "1",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise AssertionError(f"{workload} seed {seed}: output check failed")
    # repr of the float: "byte-identical" means every digit agrees.
    return {
        name: repr(metric["value"])
        for name, metric in result["metrics"].items()
        if name.endswith(EXACT_SUFFIXES) or name.startswith(EXACT_PREFIXES)
    }


def main() -> int:
    problems = []
    for workload in ("chip-aes", "compile"):
        first, second = traced(workload, SEED), traced(workload, SEED)
        for name in sorted(first):
            if first[name] != second[name]:
                problems.append(
                    f"{workload}: {name} {first[name]} != {second[name]} "
                    f"at seed {SEED}"
                )
        if workload.startswith("chip-"):
            other = traced(workload, OTHER_SEED)
            for name in TRAFFIC:
                if other[name] == first[name]:
                    problems.append(
                        f"{workload}: {name} did not change with the seed"
                    )
        print(f"selftest: {workload}: {len(first)} exact metrics checked")
    for problem in problems:
        print(f"selftest: FAIL: {problem}")
    if not problems:
        print("selftest: OK")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
