"""CI perf smoke: read BENCH_sim.json and fail on pathological regressions.

Run after ``pytest benchmarks/test_sim_speed.py`` has refreshed the
``results`` block::

    PYTHONPATH=src python benchmarks/perf_smoke.py

Two checks, both deliberately loose so machine-speed differences between
the recording host and CI runners never flake:

- the compiled tier must stay within 5x of the recorded baseline
  instructions/sec (a >5x drop means the generated code regressed
  pathologically);
- the compiled/interpreter speedup must stay >= 4x (a *ratio*, so
  machine-independent).
"""

import json
import pathlib
import sys

BENCH_FILE = pathlib.Path(__file__).resolve().parent.parent / "BENCH_sim.json"

MAX_REGRESSION = 5.0
MIN_SPEEDUP = 4.0


def main() -> int:
    if not BENCH_FILE.exists():
        print(f"perf_smoke: {BENCH_FILE} missing — run "
              "`pytest benchmarks/test_sim_speed.py` first", file=sys.stderr)
        return 2
    data = json.loads(BENCH_FILE.read_text())
    results = data.get("results", {})
    baseline = data.get("baseline", {})
    if not results:
        print("perf_smoke: no results recorded", file=sys.stderr)
        return 2

    failures = []
    header = f"{'bench':<12} {'ips compiled':>13} {'com/int':>8}"
    print(header)
    print("-" * len(header))
    for key, row in sorted(results.items()):
        ips = row["ips_compiled"]
        base = baseline.get(key, {}).get("ips_compiled", ips)
        speedup = row["speedup"]
        print(f"{key:<12} {ips:>13,} {speedup:>7.1f}x")
        if ips * MAX_REGRESSION < base:
            failures.append(
                f"{key}: compiled ips {ips:,} is >{MAX_REGRESSION:.0f}x "
                f"below baseline {base:,}"
            )
        if speedup < MIN_SPEEDUP:
            failures.append(
                f"{key}: compiled/interpreter speedup {speedup:.1f}x "
                f"< {MIN_SPEEDUP:.0f}x"
            )
    for failure in failures:
        print(f"perf_smoke: FAIL {failure}", file=sys.stderr)
    if not failures:
        print("perf_smoke: ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
