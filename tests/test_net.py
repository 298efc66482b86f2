"""Streaming-runtime behaviour: backpressure, drops, determinism,
sink validation, the refusal of spilled inputs, and the throughput
zero-division guard.

Everything else here runs *virtual* (pre-allocation) compilations —
fully deterministic, no ILP solve — through small NAT/Kasumi streams;
the allocated path is exercised end to end by
``benchmarks/test_net_throughput.py``.
"""

import collections
import dataclasses

import pytest

from repro.apps.aes_nova import AppBundle
from repro.errors import SimulatorError
from repro.ixp.net import (
    NetConfig,
    NetRuntime,
    StreamApp,
    StreamPacket,
    StreamResult,
    TraceEvent,
    capture_trace,
    run_stream,
    stream_app,
    stream_trace_lines,
)
from repro.trace import Tracer

from tests.helpers import (
    SPILLED_INPUTS_SOURCE,
    SPILLED_PARAMS,
    compile_full,
    compile_virtual,
)


@pytest.fixture(scope="module")
def nat_stream():
    app = stream_app("nat", None)
    return dataclasses.replace(app, comp=compile_virtual(app.bundle.source))


@pytest.fixture(scope="module")
def kasumi_stream():
    app = stream_app("kasumi", None, (8, 16))
    return dataclasses.replace(app, comp=compile_virtual(app.bundle.source))


def test_stream_completes_and_validates(nat_stream):
    result = run_stream(
        nat_stream, NetConfig(packets=16, seed=2, arrival="backlog",
                              rx_capacity=32)
    )
    assert result.generated == result.completed == 16
    assert result.dropped == 0 and result.inflight == 0
    assert result.mismatches == []
    assert all(p.status == "done" for p in result.packets)
    assert result.cycles > 0 and result.mbps > 0
    assert len(result.latencies) == 16
    assert result.rx_high_water <= 32
    assert sum(result.steered) == 16  # every packet got a dispatch verdict


def test_overload_drops_at_rx_and_accounts_every_packet(nat_stream):
    # 4-packet RX ring, packets arriving far faster than one engine
    # drains them: the dispatch stage must tail-drop, and every
    # generated packet must end up either completed or dropped.
    config = NetConfig(
        packets=48, seed=5, arrival="constant", mean_gap=4, burst=2,
        rx_capacity=4, tx_capacity=4, engines=1, threads=2,
    )
    result = run_stream(nat_stream, config)
    assert result.dropped > 0
    assert result.completed + result.dropped == result.generated == 48
    assert result.inflight == 0
    assert result.mismatches == []
    assert result.rx_high_water == 4  # the ring actually filled
    assert sum(result.rx_drops) == result.dropped  # per-ring accounting
    assert 0 < result.drop_rate < 1
    statuses = {p.status for p in result.packets}
    assert statuses == {"done", "dropped"}


def test_slow_sink_backpressures_workers(nat_stream):
    # A sink that drains one packet per 3000 cycles with a tiny TX ring:
    # workers must hit a full TX ring and retry (tx_stalls), and the TX
    # high-water mark must reach the ring's capacity.
    config = NetConfig(
        packets=12, seed=3, arrival="backlog", rx_capacity=16,
        tx_capacity=2, sink_gap=3000,
    )
    result = run_stream(nat_stream, config)
    assert result.completed == 12
    assert result.tx_high_water == 2
    assert sum(p.tx_stalls for p in result.packets) > 0
    # drains are spaced by the sink gap, so latency grows along the run
    drains = sorted(p.drained for p in result.packets)
    assert all(b - a >= 3000 for a, b in zip(drains, drains[1:]))


def test_same_seed_reproduces_exactly(kasumi_stream):
    config = NetConfig(packets=20, seed=11, arrival="poisson", mean_gap=40,
                       engines=2, threads=2)
    a = run_stream(kasumi_stream, config)
    b = run_stream(kasumi_stream, config)
    assert a.summary() == b.summary()
    assert [dataclasses.asdict(p) for p in a.packets] == [
        dataclasses.asdict(p) for p in b.packets
    ]


def test_different_seeds_differ(kasumi_stream):
    config = NetConfig(packets=20, seed=11, arrival="poisson", mean_gap=40)
    a = run_stream(kasumi_stream, config)
    b = run_stream(
        kasumi_stream, dataclasses.replace(config, seed=12)
    )
    assert [p.payload_words for p in a.packets] != [
        p.payload_words for p in b.packets
    ]


def test_multi_engine_spreads_work(nat_stream):
    config = NetConfig(engines=4, threads=2, packets=32, seed=9,
                       arrival="backlog", rx_capacity=40)
    result = run_stream(nat_stream, config)
    assert result.completed == 32
    engines_used = {p.engine for p in result.packets}
    assert len(engines_used) > 1, "work never left the first engine"
    assert len(result.engine_cycles) == 4
    assert sum(result.engine_instructions) > 0


def test_sink_catches_corrupted_reference(nat_stream):
    # Poison one packet's expectations: the sink must flag exactly it.
    runtime = NetRuntime(
        nat_stream, NetConfig(packets=6, seed=2, arrival="backlog",
                              rx_capacity=8)
    )
    original = runtime.app.generate

    def poisoned(rng, seq):
        packet = original(rng, seq)
        if seq == 3:
            packet.expected_results = (0xDEAD,)
        return packet

    runtime.app = dataclasses.replace(runtime.app, generate=poisoned)
    result = runtime.run()
    assert [m["packet"] for m in result.mismatches] == [3]
    assert result.packets[3].status == "mismatch"
    assert sum(p.status == "done" for p in result.packets) == 5


def test_net_spans_record_latency_histogram(nat_stream):
    tracer = Tracer()
    run_stream(
        nat_stream,
        NetConfig(packets=8, seed=2, arrival="backlog", rx_capacity=16,
                  engines=2),
        tracer,
    )
    run_span = tracer.get("net.run")
    assert run_span is not None
    assert run_span.counters["completed"] == 8
    assert run_span.counters["mismatches"] == 0
    buckets = {
        k: v for k, v in run_span.counters.items()
        if k.startswith("latency.le_")
    }
    assert sum(buckets.values()) == 8
    assert len(tracer.all("net.engine")) == 2


def test_ring_regions_must_fit_in_scratch(nat_stream):
    with pytest.raises(ValueError, match="does not fit scratch"):
        NetRuntime(nat_stream, NetConfig(rx_capacity=2048))


def test_ring_layout_boundary_is_exact(nat_stream):
    # Rings grow down from the top of the 1024-word scratch; with no
    # program scratch data the boundary is address 0.  The largest
    # per-engine RX capacity that fits must construct, one more word
    # per ring must not (it used to underflow into negative bases).
    top = max(
        (addr + len(words)
         for addr, words in nat_stream.bundle.memory_image.get(
             "scratch", ())),
        default=0,
    )
    free = 1024 - top - (2 + 32)  # minus the TX ring
    per_engine = free // 6 - 2
    NetRuntime(nat_stream, NetConfig(rx_capacity=per_engine))  # fits
    with pytest.raises(ValueError, match="does not fit scratch"):
        NetRuntime(nat_stream, NetConfig(rx_capacity=per_engine + 1))


def test_nonpositive_ring_capacities_rejected(nat_stream):
    with pytest.raises(ValueError, match="capacities must be positive"):
        NetRuntime(nat_stream, NetConfig(rx_capacity=0))
    with pytest.raises(ValueError, match="capacities must be positive"):
        NetRuntime(nat_stream, NetConfig(tx_capacity=-4))


def test_bad_arrival_process_rejected(nat_stream):
    # Validated in NetRuntime.__init__ now -- the typo used to surface
    # only deep inside _gap() after the first burst fired.
    with pytest.raises(ValueError, match="unknown arrival"):
        NetRuntime(nat_stream, NetConfig(packets=2, arrival="bursty"))
    with pytest.raises(ValueError, match="unknown arrival"):
        run_stream(nat_stream, NetConfig(packets=2, arrival="bursty"))


# -- trace-driven replay ---------------------------------------------------


def _fingerprints(result):
    return [
        (p.seq, p.arrival, p.flow, p.engine, p.status, p.latency,
         tuple(p.payload_words), tuple(p.results))
        for p in result.packets
    ]


def test_trace_replay_reproduces_seeded_run_exactly(nat_stream):
    # Capture a lossy poisson run's traffic and replay it: every packet
    # must come back with the same arrival, steering verdict, results
    # and latency — drops and makespan included.
    config = NetConfig(engines=2, threads=2, packets=24, seed=1234,
                       rx_capacity=6, tx_capacity=4)
    seeded = run_stream(nat_stream, config)
    trace = capture_trace(seeded)
    assert len(trace) == seeded.generated
    assert all(event.gap >= 0 for event in trace)
    replayed = run_stream(
        nat_stream, dataclasses.replace(config, trace=trace)
    )
    assert _fingerprints(replayed) == _fingerprints(seeded)
    assert replayed.dropped == seeded.dropped
    assert replayed.cycles == seeded.cycles


def test_trace_replays_on_a_different_topology(nat_stream):
    # The trace is pure traffic: the same events on one engine with
    # oversize rings must complete every packet the source offered.
    config = NetConfig(engines=2, threads=2, packets=24, seed=1234,
                       rx_capacity=6, tx_capacity=4)
    trace = capture_trace(run_stream(nat_stream, config))
    wide = dataclasses.replace(
        config, trace=trace, engines=1,
        rx_capacity=len(trace) + 4, tx_capacity=len(trace) + 4,
    )
    result = run_stream(nat_stream, wide)
    assert result.completed == result.generated == len(trace)
    assert result.mismatches == []


def test_trace_events_carry_explicit_flows(nat_stream):
    # Replayed packets keep the recorded flow identity even if events
    # are deleted around them — the point of storing flows explicitly.
    config = NetConfig(engines=3, threads=1, packets=12, seed=5,
                       arrival="backlog", rx_capacity=16)
    seeded = run_stream(nat_stream, config)
    trace = capture_trace(seeded)
    thinned = trace[::2]
    result = run_stream(
        nat_stream,
        dataclasses.replace(
            config, trace=thinned, rx_capacity=len(trace) + 4
        ),
    )
    survivors = [p for p in seeded.packets][::2]
    assert [p.flow for p in result.packets] == [p.flow for p in survivors]
    assert [p.engine for p in result.packets] == [
        p.engine for p in survivors
    ]


def test_trace_validation_errors(nat_stream):
    good = TraceEvent(gap=0, flow=1, payload=(1, 2, 3))
    with pytest.raises(ValueError, match="negative gap"):
        NetRuntime(
            nat_stream,
            NetConfig(trace=(dataclasses.replace(good, gap=-1),)),
        )
    no_replay = dataclasses.replace(nat_stream, replay=None)
    with pytest.raises(ValueError, match="no replay constructor"):
        NetRuntime(no_replay, NetConfig(trace=(good,)))


def test_empty_trace_runs_clean(nat_stream):
    result = run_stream(nat_stream, NetConfig(trace=()))
    assert result.generated == result.completed == 0


def test_instance_probes_see_every_event_loop_call(kasumi_stream):
    """Wrappers put on a built runtime's machines and rings count every
    call its event loop makes, and change nothing it reports.

    Profilers (``perfbench/chip.py``) wrap ``service``, ``dispatch``
    and the rings' ``try_dequeue``/``try_enqueue`` on the instances
    between construction and :meth:`NetRuntime.run`; a fast path that
    binds these at construction, or goes around them, fails here.
    """
    config = NetConfig(
        engines=2, threads=2, packets=16, seed=4, mean_gap=60.0,
        tx_capacity=2, sink_gap=2000,
    )
    plain = NetRuntime(kasumi_stream, config)
    expected = stream_trace_lines(plain.run(), plain.memory)

    runtime = NetRuntime(kasumi_stream, config)
    calls = collections.Counter()

    def counted(name, method):
        def wrapper(*args):
            calls[name] += 1
            return method(*args)

        return wrapper

    for machine in runtime.machines:
        machine.service = counted("service", machine.service)
        machine.dispatch = counted("dispatch", machine.dispatch)
    for ring in runtime.rx:
        ring.try_dequeue = counted("rx.dequeue", ring.try_dequeue)
    runtime.tx.try_enqueue = counted("tx.enqueue", runtime.tx.try_enqueue)
    result = runtime.run()

    assert stream_trace_lines(result, runtime.memory) == expected
    assert result.completed > 0 and result.mismatches == []
    assert calls["service"] > 0
    assert calls["dispatch"] == result.completed
    assert calls["rx.dequeue"] >= result.completed
    stalls = sum(p.tx_stalls for p in result.packets)
    assert stalls > 0
    assert calls["tx.enqueue"] == result.completed + stalls


def test_capture_trace_requires_kept_packets(nat_stream):
    result = run_stream(
        nat_stream, NetConfig(packets=4, arrival="backlog", rx_capacity=8)
    )
    result.packets = []
    with pytest.raises(ValueError, match="kept no packets"):
        capture_trace(result)


def test_truncation_by_cycle_budget(nat_stream):
    config = NetConfig(packets=64, seed=2, arrival="backlog", engines=1,
                       rx_capacity=80, max_cycles=2000)
    result = run_stream(nat_stream, config)
    assert result.truncated
    assert result.completed < result.generated
    # Conservation survives truncation: what the budget stranded on the
    # rings/engines is counted, not silently lost.
    assert result.inflight > 0
    assert (
        result.completed + result.dropped + result.inflight
        == result.generated
    )
    assert result.cycles <= 2000 + 5000  # last slice may overshoot a bit


def test_spilled_input_is_refused():
    """A spilled input lives at one scratch address that every thread
    shares, so per-packet values would race: the runtime refuses it."""
    comp = compile_full(SPILLED_INPUTS_SOURCE)
    inputs = {name: i for i, name in enumerate(SPILLED_PARAMS)}

    def generate(rng, seq):
        return StreamPacket(
            seq=seq, payload_words=[0], payload_bytes=4, inputs=inputs,
            expected_results=(630,), expected_words=[0],
        )

    bundle = AppBundle("spilled", SPILLED_INPUTS_SOURCE)
    app = StreamApp("spilled", bundle, comp, 1, generate)
    # Small rings keep the ring layout clear of the spill slots.
    config = NetConfig(engines=1, threads=1, packets=1, arrival="backlog",
                       rx_capacity=4, tx_capacity=4)
    with pytest.raises(
        SimulatorError,
        match="was spilled to scratch; the streaming runtime needs "
        "register-resident inputs",
    ):
        run_stream(app, config)


# -- throughput zero-division guard --------------------------------------


def test_stream_result_mbps_zero_cycles():
    result = StreamResult(
        app="nat", config=NetConfig(), generated=0, completed=0, dropped=0,
        mismatches=[], cycles=0, latencies=[], payload_bits=0,
        rx_high_water=0, tx_high_water=0, engine_cycles=[0],
        engine_instructions=[0],
    )
    assert result.mbps == 0.0
    assert result.drop_rate == 0.0
    assert result.percentile(50) == -1
    assert result.latency_histogram() == {}
