"""Whole-chip streaming throughput: 1 vs 4 vs 6 engines (Section 11).

The paper reports line-card throughput on the full IXP1200 — six
micro-engines, four hardware threads each, workers pulling packets from
per-engine receive rings behind a flow-hash dispatch stage.  This
benchmark drives each allocated application (AES, Kasumi, NAT) through
``repro.ixp.net`` with a saturating backlog (per-engine RX rings sized
to the whole stream, so queueing — not drops — absorbs the burst) on 1,
4 and 6 engines and records cycles, throughput and latency percentiles
to ``BENCH_net.json`` at the repo root.  A second block re-runs the
full chip at the paper's own payload sizes (AES 16-byte blocks, Kasumi
8, 16 and 256 bytes, NAT 40-byte headers) so EXPERIMENTS.md can put
measured whole-chip Mb/s directly against the paper's published
numbers, and checks the paper's shape there:

- each cipher is within 8x of its published Mb/s at small payloads;
- AES beats Kasumi in Mb/s at 16-byte payloads (paper: 270 vs 210);
- multithreading hides memory latency: with 4 threads per engine the
  chip drains the AES backlog in fewer cycles than with 1.

``benchmarks/net_smoke.py`` reads the file in CI and fails on
scaling/validation regressions.

Everything here is *simulated* time, so the numbers are deterministic
for a given allocation — the scaling ratio is a property of the code,
the steering and the memory-port model, not of the host machine.
"""

import json
import pathlib
import sys

from repro.ixp.net import NetConfig, run_stream, stream_app

from benchmarks.conftest import print_table

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_FILE = ROOT / "BENCH_net.json"

#: (fixture name, stream adapter name, payload-size distribution)
BENCHES = [
    ("AES", "aes", (16, 32, 64)),
    ("Kasumi", "kasumi", (8, 16, 32)),
    ("NAT", "nat", None),
]

#: the paper's Section 11 operating points: row key -> (stream adapter,
#: payload sizes, published whole-chip Mb/s).  NAT's table has no direct
#: Mb/s figure.
PAPER = {
    "aes": ("aes", (16,), 270),
    "kasumi": ("kasumi", (8,), 320),
    "kasumi-16": ("kasumi", (16,), 210),
    "kasumi-256": ("kasumi", (256,), 60),
    "nat": ("nat", None, None),
}

#: the shape checks hold each published small-payload figure to within
#: this factor of the measured one.
PAPER_FACTOR = 8

PACKETS = 96
THREADS = 4
SEED = 7
ENGINE_COUNTS = (1, 4, 6)

#: the acceptance bar: 4 engines must deliver at least this much more
#: throughput than 1 on at least MIN_SCALING_APPS of the three apps,
#: and the full chip must scale strictly beyond the 4-engine run.
MIN_SCALING = 2.5
MIN_SCALING_APPS = 2


def _run(name: str, comp, sizes, engines: int, threads: int = THREADS):
    config = NetConfig(
        engines=engines,
        threads=threads,
        # every per-engine ring holds the whole backlog, so even a
        # worst-case flow-hash pileup on one engine cannot drop
        rx_capacity=PACKETS + 4,
        tx_capacity=32,
        packets=PACKETS,
        seed=SEED,
        arrival="backlog",
    )
    return run_stream(stream_app(name, comp, sizes), config)


def write_bench_file(results: dict, paper: dict) -> None:
    """Persist results; the baseline block is frozen once recorded.

    Baselines recorded before the whole-chip scale-out (no
    ``scaling_6e`` key) are discarded — the per-engine-ring topology
    changed every number's meaning, so they are not comparable.
    """
    data = {
        "meta": {
            "benchmark": "benchmarks/test_net_throughput.py",
            "units": {
                "cycles": "simulated cycles to drain the stream",
                "mbps": "payload Mbit/s at the 233 MHz IXP1200 clock",
            },
            "packets": PACKETS,
            "threads": THREADS,
            "seed": SEED,
            "engine_counts": list(ENGINE_COUNTS),
            "python": sys.version.split()[0],
        },
        "results": results,
        "paper": paper,
    }
    baseline = None
    if BENCH_FILE.exists():
        try:
            baseline = json.loads(BENCH_FILE.read_text()).get("baseline")
        except (OSError, ValueError):
            baseline = None
    if baseline and any(
        "scaling_6e" not in row for row in baseline.values()
    ):
        baseline = None  # pre-scale-out schema: not comparable
    data["baseline"] = baseline or {
        key: {
            "mbps_6e": row["mbps_6e"],
            "scaling_4e": row["scaling_4e"],
            "scaling_6e": row["scaling_6e"],
        }
        for key, row in results.items()
    }
    BENCH_FILE.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def test_net_throughput_table(compiled_apps):
    rows = []
    results = {}
    comps = {}
    for fixture_name, stream_name, sizes in BENCHES:
        _, comp = compiled_apps[fixture_name]
        comps[stream_name] = comp
        runs = {}
        for engines in ENGINE_COUNTS:
            result = _run(stream_name, comp, sizes, engines)
            assert result.completed == result.generated == PACKETS
            assert result.dropped == 0, "backlog config must not drop"
            assert result.inflight == 0
            assert not result.mismatches, (
                f"{stream_name}/{engines}e: {len(result.mismatches)} packets "
                "diverged from the reference implementation"
            )
            runs[engines] = result
        one, four, six = (runs[n] for n in ENGINE_COUNTS)
        scaling_4e = one.cycles / four.cycles
        scaling_6e = one.cycles / six.cycles
        results[stream_name] = {
            "cycles_1e": one.cycles,
            "cycles_4e": four.cycles,
            "cycles_6e": six.cycles,
            "mbps_1e": round(one.mbps, 3),
            "mbps_4e": round(four.mbps, 3),
            "mbps_6e": round(six.mbps, 3),
            "scaling_4e": round(scaling_4e, 2),
            "scaling_6e": round(scaling_6e, 2),
            "completed": six.completed,
            "dropped": six.dropped,
            "mismatches": len(six.mismatches),
            "latency_p50_6e": six.percentile(50),
            "latency_p95_6e": six.percentile(95),
            "rx_high_water_6e": six.rx_high_water,
            "steered_6e": six.steered,
        }
        rows.append(
            [
                stream_name,
                one.cycles,
                four.cycles,
                six.cycles,
                f"{six.mbps:.1f}",
                f"{scaling_4e:.2f}x",
                f"{scaling_6e:.2f}x",
                six.percentile(95),
            ]
        )
    print_table(
        f"Streaming throughput: 1/4/6 engines ({PACKETS} packets, "
        f"{THREADS} threads/engine, flow steering)",
        ["app", "cyc 1e", "cyc 4e", "cyc 6e", "mbps 6e", "scale 4e",
         "scale 6e", "p95 6e"],
        rows,
    )
    # The paper-comparison runs: full chip at the paper's payload
    # sizes.  Measured whole-chip Mb/s lands next to the published
    # figure (EXPERIMENTS.md Section 11 table).
    paper = {}
    chips = {}
    for key, (stream_name, sizes, published) in PAPER.items():
        chip = chips[key] = _run(stream_name, comps[stream_name], sizes, 6)
        assert chip.completed == PACKETS and not chip.mismatches
        paper[key] = {
            "payload_bytes": list(sizes) if sizes else [40],
            "paper_mbps": published,
            "ours_mbps_6e": round(chip.mbps, 3),
            "latency_p95": chip.percentile(95),
        }
    paper_rows = [
        [
            name,
            "/".join(str(b) for b in row["payload_bytes"]),
            row["paper_mbps"] if row["paper_mbps"] is not None else "-",
            f"{row['ours_mbps_6e']:.1f}",
        ]
        for name, row in paper.items()
    ]
    print_table(
        "Whole-chip (6x4) vs the paper's published Mb/s",
        ["app", "payload B", "paper", "ours"],
        paper_rows,
    )
    # Four threads per engine against one, on the same AES backlog.
    single = _run("aes", comps["aes"], (16,), 6, threads=1)
    assert single.completed == PACKETS and not single.mismatches
    quad = chips["aes"]
    print_table(
        f"Multithreading: AES 16 B, {PACKETS} packets on 6 engines",
        ["threads/engine", "cycles", "Mb/s"],
        [
            [n, run.cycles, f"{run.mbps:.1f}"]
            for n, run in ((1, single), (THREADS, quad))
        ],
    )
    write_bench_file(results, paper)
    for key in ("aes", "kasumi", "kasumi-16"):
        ours, published = paper[key]["ours_mbps_6e"], paper[key]["paper_mbps"]
        assert published / PAPER_FACTOR <= ours <= published * PAPER_FACTOR, (
            f"{key}: {ours:.0f} Mb/s vs paper {published}"
        )
    assert chips["aes"].mbps > chips["kasumi-16"].mbps
    assert quad.cycles < single.cycles
    scaled = [
        k for k, row in results.items() if row["scaling_4e"] >= MIN_SCALING
    ]
    assert len(scaled) >= MIN_SCALING_APPS, (
        f"only {scaled} reached {MIN_SCALING}x 4-engine scaling: "
        f"{ {k: row['scaling_4e'] for k, row in results.items()} }"
    )
    beyond = [
        k
        for k, row in results.items()
        if row["scaling_6e"] > row["scaling_4e"]
    ]
    assert len(beyond) >= MIN_SCALING_APPS, (
        f"the full chip must out-scale 4 engines on at least "
        f"{MIN_SCALING_APPS} apps; only {beyond} did: "
        f"{ {k: (row['scaling_4e'], row['scaling_6e']) for k, row in results.items()} }"
    )
