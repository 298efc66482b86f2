"""Simulator speed: interpreter vs compiled codegen.

Runs the two Section 11 cipher benchmarks (AES at 16-byte payloads,
Kasumi at 8-byte payloads) on the allocated code under both simulator
tiers and records instructions/sec and simulated cycles/sec to
``BENCH_sim.json`` at the repo root.  ``benchmarks/perf_smoke.py`` reads
that file in CI and fails on pathological regressions.

Methodology: ten short warmup runs per tier (populates the codegen
cache *and* lets CPython 3.11 specialize the generated code — code
objects quicken only after ~8 calls, and every Machine's bound slice
function shares the graph's one code object, so the specialization
carries into the timed runs), then interleaved timed runs of 40 packets
per thread on 4 threads, best of ``TIMED_REPS`` per tier.  Timing uses
``time.process_time`` so CPU steal on shared hosts cannot distort the
ratio.  Instructions executed are identical across tiers (codegen is
observationally invisible — see ``tests/test_decode_parity.py``), so the
instructions/sec ratio is a CPU-time ratio.
"""

import json
import pathlib
import sys
import time

from repro.apps.driver import run_physical_threads

from benchmarks.conftest import print_table

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_FILE = ROOT / "BENCH_sim.json"

#: (app name, payload bytes, cipher block bytes)
BENCHES = [("AES", 16, 16), ("Kasumi", 8, 8)]

MODES = ("interp", "compiled")

WARMUP_RUNS = 10
TIMED_REPS = 5

#: conservative floor for the compiled tier's speedup over the
#: interpreter: the product of the floors once set for the two steps of
#: the three-tier simulator (3.0 interp→decoded, 2.5 decoded→compiled).
#: Recorded ratios sit at 20x and above; the floor only guards against
#: the generated code silently regressing toward interpretation.
MIN_SPEEDUP = 7.5


def _payload_words(payload_bytes: int) -> list[int]:
    data = bytes((i * 37 + 11) & 0xFF for i in range(payload_bytes))
    return [
        int.from_bytes(data[i : i + 4], "big") for i in range(0, len(data), 4)
    ]


def _one_run(compiled_apps, name, payload_bytes, block, sim_mode, packets):
    app, comp = compiled_apps[name]
    words = _payload_words(payload_bytes)
    start = time.process_time()
    result = run_physical_threads(
        comp,
        app,
        words,
        packets_per_thread=packets,
        threads=4,
        input_overrides={"nblocks": payload_bytes // block},
        sim_mode=sim_mode,
    )
    seconds = time.process_time() - start
    run = result.run
    return run.instructions / seconds, run.cycles / seconds


def _measure(compiled_apps, name, payload_bytes, block):
    """Best-of ips/cps per tier, warmed and interleaved."""
    for mode in MODES:
        for _ in range(WARMUP_RUNS):
            _one_run(compiled_apps, name, payload_bytes, block, mode, 2)
    best = {mode: (0.0, 0.0) for mode in MODES}
    for _ in range(TIMED_REPS):
        for mode in MODES:
            ips, cps = _one_run(
                compiled_apps, name, payload_bytes, block, mode, 40
            )
            if ips > best[mode][0]:
                best[mode] = (ips, cps)
    return best


def write_bench_file(results: dict) -> None:
    """Persist results; the baseline block is frozen once recorded."""
    data = {
        "meta": {
            "benchmark": "benchmarks/test_sim_speed.py",
            "units": {"ips": "simulated instructions/sec", "cps": "simulated cycles/sec"},
            "timer": "time.process_time",
            "python": sys.version.split()[0],
        },
        "results": results,
    }
    baseline = None
    if BENCH_FILE.exists():
        try:
            baseline = json.loads(BENCH_FILE.read_text()).get("baseline")
        except (OSError, ValueError):
            baseline = None
    data["baseline"] = baseline or {
        key: {
            "ips_interp": row["ips_interp"],
            "ips_compiled": row["ips_compiled"],
        }
        for key, row in results.items()
    }
    BENCH_FILE.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def test_sim_speed_table(compiled_apps):
    rows = []
    results = {}
    for name, payload_bytes, block in BENCHES:
        key = f"{name}-{payload_bytes}"
        best = _measure(compiled_apps, name, payload_bytes, block)
        ips_int, cps_int = best["interp"]
        ips_com, cps_com = best["compiled"]
        speedup = ips_com / ips_int
        results[key] = {
            "ips_interp": round(ips_int),
            "ips_compiled": round(ips_com),
            "cps_interp": round(cps_int),
            "cps_compiled": round(cps_com),
            "speedup": round(speedup, 2),
        }
        rows.append(
            [
                key,
                f"{ips_int / 1e6:.2f}M",
                f"{ips_com / 1e6:.2f}M",
                f"{speedup:.1f}x",
            ]
        )
    print_table(
        "Simulator speed: interp vs compiled (4 threads)",
        ["bench", "ips interp", "ips compiled", "com/int"],
        rows,
    )
    write_bench_file(results)
    for key, row in results.items():
        assert row["speedup"] >= MIN_SPEEDUP, (
            f"{key}: compiled tier only {row['speedup']}x over the "
            f"interpreter (floor {MIN_SPEEDUP}x)"
        )
