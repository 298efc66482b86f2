"""CI net smoke: BENCH_net.json regressions + a live whole-chip run.

Run after ``pytest benchmarks/test_net_throughput.py`` has refreshed the
``results`` block::

    PYTHONPATH=src python benchmarks/net_smoke.py

Checks (all on *simulated* cycles, so they are machine-independent):

- every packet of every recorded run validated against the reference
  implementation (zero mismatches), none were dropped (the benchmark
  sizes every per-engine RX ring to the whole backlog) and none were
  left in flight;
- 4-engine throughput is at least MIN_SCALING x the 1-engine run on at
  least MIN_SCALING_APPS of the three applications (AES and Kasumi are
  SRAM-table-bound, so perfect 4x is not expected — the paper's own
  Section 11 contention point);
- the full chip (6 engines) out-scales the 4-engine run on at least
  MIN_SCALING_APPS applications — per-engine rings must keep buying
  throughput past 4 engines;
- no app's scaling collapsed below the recorded baseline by more than
  SCALING_SLACK (an absolute ratio drop, catching e.g. a ring or port
  model change that serializes the engines).  Baselines from before the
  whole-chip scale-out (no ``scaling_6e``) are ignored — the topology
  change redefined the numbers;
- a **live 6x4 whole-chip pump**: a fresh virtual NAT stream on the
  paper's full topology must complete with zero mismatches and packet
  conservation (``generated == completed + dropped + inflight``);
- a **net-fuzz spot check**: a ten-scenario ``repro.fuzz.netgen``
  campaign (random program x traffic x topology, all metamorphic
  invariants) plus the three config-validation regression probes must
  come back clean;
- a **corpus spot check**: ``repro.fuzz.inject.corpus_probe`` must
  show the coverage-guided mutation loop catching the broken-steering
  injection from a near-miss corpus entry (with a <= 10 event shrunk
  witness) while fresh sampling at the same budget stays blind.
"""

import json
import pathlib
import sys

BENCH_FILE = pathlib.Path(__file__).resolve().parent.parent / "BENCH_net.json"

MIN_SCALING = 2.5
MIN_SCALING_APPS = 2
SCALING_SLACK = 0.5


def live_chip_smoke(failures: list) -> None:
    """Stream a seeded NAT backlog through the paper's 6x4 topology."""
    from repro.ixp.net import NetConfig, compile_app, run_stream, stream_app

    comp = compile_app("nat", virtual=True)  # virtual: fast, deterministic
    config = NetConfig(
        engines=6, threads=4, packets=48, seed=11, arrival="backlog",
        rx_capacity=52, tx_capacity=16,
    )
    result = run_stream(stream_app("nat", comp), config)
    conserved = (
        result.generated
        == result.completed + result.dropped + result.inflight
    )
    print(
        f"live 6x4 pump: generated={result.generated} "
        f"completed={result.completed} dropped={result.dropped} "
        f"inflight={result.inflight} mismatches={len(result.mismatches)} "
        f"steered={result.steered}"
    )
    if result.mismatches:
        failures.append(
            f"live 6x4 pump: {len(result.mismatches)} reference mismatches"
        )
    if not conserved:
        failures.append("live 6x4 pump: packet conservation violated")
    if result.completed != result.generated:
        failures.append(
            f"live 6x4 pump: only {result.completed}/{result.generated} "
            "packets completed"
        )
    if sum(result.steered) != result.generated:
        failures.append("live 6x4 pump: steering lost packets")


def live_netfuzz_smoke(failures: list) -> None:
    """A tiny streaming-scenario fuzz campaign as a CI tripwire."""
    from repro.fuzz.netgen import run_net_campaign

    result = run_net_campaign(seed=0, count=10, shrink_findings=False)
    summary = result.summary()
    print(
        f"live netfuzz: {summary['ok']}/{summary['scenarios']} scenarios ok, "
        f"{summary['invalid']} invalid, {summary['probe_failures']} probe "
        f"failures in {summary['seconds']:.1f}s"
    )
    for failure in result.probe_failures:
        failures.append(f"netfuzz validation probe: {failure}")
    for unit in result.failed:
        failures.append(
            f"netfuzz seed {unit.seed}: "
            + (unit.invalid or "; ".join(unit.violations))
        )


def live_corpus_smoke(failures: list) -> None:
    """The corpus mutation loop must out-hunt fresh sampling."""
    from repro.fuzz.inject import corpus_probe

    outcome = corpus_probe()
    print(
        f"live corpus probe: corpus_found_in={outcome['corpus_found_in']} "
        f"fresh_found_in={outcome['fresh_found_in']} "
        f"mutation={outcome['mutation']} "
        f"witness_events={outcome['witness_events']}"
    )
    if outcome["corpus_found_in"] is None:
        failures.append(
            "corpus probe: mutation loop missed broken_steering"
        )
    elif outcome["witness_events"] > 10:
        failures.append(
            f"corpus probe: witness has {outcome['witness_events']} "
            "events (want <= 10)"
        )
    if outcome["fresh_found_in"] is not None:
        failures.append(
            "corpus probe: fresh window is no longer blind — repin "
            "fresh_start in repro.fuzz.inject.corpus_probe"
        )


def main() -> int:
    if not BENCH_FILE.exists():
        print(f"net_smoke: {BENCH_FILE} missing — run "
              "`pytest benchmarks/test_net_throughput.py` first",
              file=sys.stderr)
        return 2
    data = json.loads(BENCH_FILE.read_text())
    results = data.get("results", {})
    baseline = data.get("baseline", {})
    if not results:
        print("net_smoke: no results recorded", file=sys.stderr)
        return 2

    failures = []
    header = (f"{'app':<8} {'cyc 1e':>10} {'cyc 4e':>10} {'cyc 6e':>10} "
              f"{'mbps 6e':>10} {'scal 4e':>8} {'scal 6e':>8} {'mism':>5}")
    print(header)
    print("-" * len(header))
    scaled = 0
    chip_beyond = 0
    for app, row in sorted(results.items()):
        scaling_4e = row["scaling_4e"]
        scaling_6e = row["scaling_6e"]
        print(f"{app:<8} {row['cycles_1e']:>10,} {row['cycles_4e']:>10,} "
              f"{row['cycles_6e']:>10,} {row['mbps_6e']:>10,.1f} "
              f"{scaling_4e:>7.2f}x {scaling_6e:>7.2f}x "
              f"{row['mismatches']:>5}")
        if row["mismatches"]:
            failures.append(f"{app}: {row['mismatches']} reference mismatches")
        if row["dropped"]:
            failures.append(f"{app}: {row['dropped']} drops in no-drop config")
        if row.get("inflight"):
            failures.append(f"{app}: {row['inflight']} packets unaccounted")
        if scaling_4e >= MIN_SCALING:
            scaled += 1
        if scaling_6e > scaling_4e:
            chip_beyond += 1
        base = baseline.get(app, {})
        for key in ("scaling_4e", "scaling_6e"):
            recorded = base.get(key)
            if recorded is not None and row[key] < recorded - SCALING_SLACK:
                failures.append(
                    f"{app}: {key} {row[key]:.2f}x fell more than "
                    f"{SCALING_SLACK} below recorded baseline "
                    f"{recorded:.2f}x"
                )
    if scaled < MIN_SCALING_APPS:
        failures.append(
            f"only {scaled} app(s) reached {MIN_SCALING}x 4-engine scaling "
            f"(need {MIN_SCALING_APPS})"
        )
    if chip_beyond < MIN_SCALING_APPS:
        failures.append(
            f"only {chip_beyond} app(s) out-scaled 4 engines on the full "
            f"chip (need {MIN_SCALING_APPS})"
        )
    live_chip_smoke(failures)
    live_netfuzz_smoke(failures)
    live_corpus_smoke(failures)
    for failure in failures:
        print(f"net_smoke: FAIL {failure}", file=sys.stderr)
    if not failures:
        print("net_smoke: ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
