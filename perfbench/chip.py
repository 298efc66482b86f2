"""``chip-aes``: a whole-chip stream on the default topology.

It runs an allocated Section 11 application on ``NetConfig``'s default
chip (6 engines x 4 threads, default simulator tier) under a seeded
Poisson source.  One stream has a fixed packet count, so its simulated
statistics are a pure function of the seed; the run repeats that same
stream a fixed number of times and reports the median stream's scaled
CPU seconds.  The count is fixed rather than fitted to ``--seconds`` so
that every commit is judged by the same statistic over the same number
of samples: a faster commit does not get a larger sample.

- ``chip-aes``: AES, 16-byte payloads, offered at about 1.15x the
  chip's capacity (the paper's Section 11 operating point).  RX rings
  are deep enough that nothing drops, so after fill the engines never
  idle and the steady-window Mb/s is the chip's capacity.

A ``chip-nat`` workload (NAT at a fifth of capacity, where idle polling
dominates host time) did not fit the benchmark's time budget; its
layers are all measured here too.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass, replace

from common import HostSpeed, Probe, artifact, fresh_setup, median, probe_cost

#: the paper's whole-chip AES figure (Section 11), for the gap ratio only.
PAPER_AES_MBPS = 270.0


@dataclass(frozen=True)
class ChipSpec:
    app: str
    packets: int
    mean_gap: float
    rx_capacity: int
    #: streams per untraced run, about ten seconds of work.
    streams: int


SPECS = {
    "chip-aes": ChipSpec(
        "aes", packets=600, mean_gap=305.0, rx_capacity=120, streams=7
    ),
}
#: untraced/traced stream pairs per traced run.
TRACED_PAIRS = 2


def _config(spec: ChipSpec, seed: int, packets: int | None = None):
    from repro.ixp.net import NetConfig

    return NetConfig(
        packets=packets or spec.packets,
        seed=seed,
        mean_gap=spec.mean_gap,
        rx_capacity=spec.rx_capacity,
    )


def setup(workload: str, seed: int):
    """Artifact load, stream adapter and runtime construction (decode)."""
    from repro.ixp.net import NetRuntime, stream_app

    spec = SPECS[workload]
    comp = artifact(spec.app)
    app = stream_app(spec.app, comp)
    NetRuntime(app, _config(spec, seed))
    return comp, app


def check(result) -> int:
    """Failures in one stream: mismatches, drops, broken conservation."""
    failures = len(result.mismatches) + result.dropped + result.inflight
    if result.truncated:
        failures += 1
    if result.generated != result.completed + result.dropped + result.inflight:
        failures += 1
    return failures


def steady_mbps(result) -> float:
    """Payload Mb/s between fill and drain.

    The window opens when a tenth of the packets have drained (the
    pipeline is full) and closes at the last arrival (the source stops,
    so drain begins).
    """
    from repro.ixp.machine import CLOCK_MHZ

    drains = sorted(p.drained for p in result.packets if p.status == "done")
    opened = drains[math.ceil(len(drains) / 10) - 1]
    closed = max(p.arrival for p in result.packets)
    bits = sum(
        p.payload_bytes * 8
        for p in result.packets
        if p.status == "done" and opened < p.drained <= closed
    )
    return bits / ((closed - opened) / (CLOCK_MHZ * 1e6)) / 1e6


def sim_metrics(result) -> dict[str, float]:
    return {
        "sim_mbps": steady_mbps(result),
        "sim_latency_p50_cycles": result.percentile(50),
        "sim_latency_p99_cycles": result.percentile(99),
    }


def _stream(app, config):
    """One stream; (result, CPU seconds)."""
    from repro.ixp.net import run_stream

    start = time.process_time()
    result = run_stream(app, config)
    return result, time.process_time() - start


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = SPECS[workload]
    config = _config(spec, seed)
    # In process first: a checkout's first run compiles the artifact here,
    # so the timed set-ups below only ever load it.
    comp, app = setup(workload, seed)
    if trace:
        return _run_traced(spec, comp, app, config, seed)
    setup_s = fresh_setup(f"import chip; chip.setup({workload!r}, {seed})")
    speed = HostSpeed()
    raw, costs, results = [], [], []
    for _ in range(spec.streams):
        result, cost = _stream(app, config)
        raw.append(cost)
        costs.append(speed.scaled(cost))
        results.append(result)
    work = median(costs)
    metrics = {
        "setup_s": setup_s,
        "work_s": work,
        # Derived: work_s per packet, so it moves only with work_s.
        "op_ms": work * 1000 / spec.packets,
    }
    return {
        "metrics": metrics,
        "attempted": sum(r.generated for r in results),
        "failed": sum(check(r) for r in results),
        "samples": {"stream_cpu_s": raw, "stream_scaled_s": costs},
    }


def _run_traced(spec, comp, app, config, seed):
    """Untraced and traced streams in turn; per-layer metrics.

    Alternating the two keeps slow drifts of the host out of the
    tracing overhead.  Layer metrics come from the first traced stream;
    the simulated ones are the same in every stream of the seed.
    """
    cost_per_call = probe_cost()
    speed = HostSpeed()
    plain, traced, results, layers = [], [], [], None
    for _ in range(TRACED_PAIRS):
        result, cost = _stream(app, config)
        plain.append(speed.scaled(cost))
        results.append(result)
        observed, result, cost = _traced(app, config, cost_per_call)
        traced.append(speed.scaled(cost))
        results.append(result)
        layers = layers or observed
    metrics = dict(layers)
    metrics["trace.overhead_frac"] = median(traced) / median(plain) - 1
    metrics.update(sim_metrics(results[0]))
    metrics[f"{spec.app}.alloc.moves"] = comp.alloc.moves
    metrics[f"{spec.app}.alloc.spills"] = comp.alloc.spills
    if spec.app == "aes":
        longer, _ = _stream(app, _config(spec, seed, 2 * spec.packets))
        results.append(longer)
        doubled = steady_mbps(longer)
        metrics["steady.sim_mbps_2x"] = doubled
        metrics["steady.ratio"] = metrics["sim_mbps"] / doubled
        metrics["steady.paper_gap"] = PAPER_AES_MBPS / metrics["sim_mbps"]
        print(
            f"chip-aes: steady window {metrics['sim_mbps']:.1f} Mb/s at "
            f"{spec.packets} packets, {doubled:.1f} Mb/s "
            f"at {2 * spec.packets} (ratio {metrics['steady.ratio']:.3f}); "
            f"paper {PAPER_AES_MBPS:.0f} Mb/s, {metrics['steady.paper_gap']:.2f}x "
            "higher; the cycle model is otherwise unvalidated",
            file=sys.stderr,
        )
    return {
        "metrics": metrics,
        "attempted": sum(r.generated for r in results),
        "failed": sum(check(r) for r in results),
    }


def _traced(app, config, cost_per_call: float):
    """One stream with the probes installed and ``net.*`` spans on.

    The runtime is built first and the probes go on its own machines
    and rings, so they count only the event loop's calls: not ring
    operations a simulated program makes, and the TX ring apart from
    the RX rings.  ``net.loop_s`` is the run's wall time minus the time
    inside the wrapped calls and minus the wrappers' own bookkeeping
    (``probe.overhead_s``, from ``cost_per_call``).
    """
    from repro.ixp.net import NetRuntime
    from repro.trace import Tracer

    probe = Probe()
    tracer = Tracer()
    traced_app = replace(app, generate=probe.wrap("generate", app.generate))
    start, cpu_start = time.perf_counter(), time.process_time()
    runtime = NetRuntime(traced_app, config, tracer)
    built = time.perf_counter()
    for machine in runtime.machines:
        machine.service = probe.wrap("service", machine.service)
        machine.dispatch = probe.wrap("dispatch", machine.dispatch)
    rings = [("rx", ring) for ring in runtime.rx] + [("tx", runtime.tx)]
    for kind, ring in rings:
        ring.try_enqueue = probe.wrap(f"{kind}.enqueue", ring.try_enqueue)
        ring.try_dequeue = probe.wrap(f"{kind}.dequeue", ring.try_dequeue)
    result = runtime.run()
    end = time.perf_counter()
    cost = time.process_time() - cpu_start
    engines = [s.counters for s in tracer.spans if s.name == "net.engine"]
    thread_cycles = sum(e["cycles"] for e in engines) * config.threads
    instructions = sum(e["instructions"] for e in engines)
    overhead = probe.outer_calls * cost_per_call
    loop_s = end - built - probe.outer_seconds - overhead
    steered = result.steered
    ring_ops = ("rx.enqueue", "rx.dequeue", "tx.enqueue", "tx.dequeue")
    polls = probe.calls["rx.dequeue"]
    layers = {
        "machine.service_s": probe.seconds["service"],
        "machine.slices": probe.calls["service"],
        "machine.ips": instructions / probe.seconds["service"],
        "machine.dispatch_s": probe.seconds["dispatch"],
        "net.run_s": end - start,
        "net.build_s": built - start,
        "net.loop_s": loop_s,
        "net.loop_ns_per_sim_cycle": loop_s * 1e9 / result.cycles,
        "probe.overhead_s": overhead,
        "ring.ops_s": sum(probe.seconds[name] for name in ring_ops),
        "ring.deq_calls": polls,
        "ring.empty_polls": probe.nones["rx.dequeue"],
        "ring.empty_poll_frac": probe.nones["rx.dequeue"] / polls,
        "ring.tx_full": probe.nones["tx.enqueue"],
        "engine.mem_stall_frac": sum(e["mem_stall_cycles"] for e in engines)
        / thread_cycles,
        "steer.imbalance": max(steered) / (sum(steered) / len(steered)),
        "rx_high_water": result.rx_high_water,
        "ref.generate_s": probe.seconds["generate"],
    }
    return layers, result, cost
