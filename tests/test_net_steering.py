"""Flow-hash steering, dispatch/retirement correctness, and the
percentile / histogram fixes that rode along with the whole-chip
scale-out.

The scenario behind the retirement test: with a backlog arrival every
packet is generated at cycle 0 and ``source_done`` is set immediately,
but the dispatch stage only lands descriptors ``dispatch_cycles``
later.  Workers polling their empty RX rings at cycle 0 would — under
the old ``source_done && ring-empty → dormant`` rule — retire on the
spot and strand the entire stream.  Retirement must instead key on
"nothing steered to this engine can still arrive".
"""

import dataclasses

import pytest

from repro.fuzz.netmeta import check_result, check_steering
from repro.ixp.machine import hash48
from repro.ixp.net import (
    NetConfig,
    NetRuntime,
    chip_seed,
    run_sharded,
    run_stream,
    stream_app,
    nearest_rank,
)
from repro.trace import Tracer, log2_bound

from tests.helpers import compile_virtual


@pytest.fixture(scope="module")
def nat_stream():
    app = stream_app("nat", None)
    return dataclasses.replace(app, comp=compile_virtual(app.bundle.source))


@pytest.fixture(scope="module")
def kasumi_stream():
    app = stream_app("kasumi", None, (8,))
    return dataclasses.replace(app, comp=compile_virtual(app.bundle.source))


# -- the retirement race ---------------------------------------------------


def test_workers_survive_dispatch_latency(nat_stream):
    # Backlog + a dispatch delay: at cycle 0 the source is done and all
    # RX rings are empty (descriptors land at cycle 8).  A retirement
    # rule keyed on ring emptiness retires every worker at cycle 0 and
    # strands all 24 packets; the pending-based rule must drain them.
    config = NetConfig(
        engines=3, threads=2, packets=24, seed=4, arrival="backlog",
        rx_capacity=32, dispatch_cycles=8,
    )
    result = run_stream(nat_stream, config)
    assert result.completed == result.generated == 24
    assert result.inflight == 0 and result.dropped == 0
    assert result.mismatches == []


def test_zero_dispatch_latency_still_works(nat_stream):
    config = NetConfig(
        engines=2, threads=2, packets=12, seed=4, arrival="backlog",
        rx_capacity=16, dispatch_cycles=0,
    )
    result = run_stream(nat_stream, config)
    assert result.completed == 12 and result.mismatches == []


# -- steering invariants ---------------------------------------------------


def test_nat_steering_invariants_metamorphic(nat_stream):
    # Flow affinity, per-flow order, conservation and engine-count
    # independence over 1/2/6-engine topologies (see repro.fuzz.netmeta).
    assert check_steering(nat_stream, packets=32, seed=7) == []


def test_kasumi_default_flow_key_invariants(kasumi_stream):
    # No app flow_key: flows default to a hash of the sequence number.
    assert check_steering(kasumi_stream, packets=24, seed=3) == []


def test_same_flow_same_engine(nat_stream):
    config = NetConfig(engines=6, threads=2, packets=48, seed=9,
                       arrival="backlog", rx_capacity=56)
    result = run_stream(nat_stream, config)
    engine_of: dict[int, int] = {}
    for packet in result.packets:
        assert packet.engine == engine_of.setdefault(packet.flow, packet.engine)
    # NAT keys on the address pair, and 8 mappings give far fewer flows
    # than packets — steering must still spread them over >1 engine.
    assert len(set(engine_of.values())) > 1


def test_round_robin_steering(nat_stream):
    config = NetConfig(engines=4, threads=2, packets=16, seed=2,
                       arrival="backlog", rx_capacity=16, steer="rr")
    result = run_stream(nat_stream, config)
    assert result.completed == 16
    for packet in result.packets:
        assert packet.engine == packet.seq % 4
    assert result.steered == [4, 4, 4, 4]


def test_check_steering_round_robin(nat_stream):
    # Affinity is a steer="flow" property; under "rr" the oracle must
    # still enforce conservation, per-engine FIFO pull order and
    # engine-count independence — and report nothing for legal sprays.
    assert check_steering(nat_stream, packets=24, seed=3, steer="rr") == []


def test_check_result_allows_flow_spray_under_rr(nat_stream):
    # NAT has fewer flows than packets, so round-robin necessarily
    # splits flows across engines: legal under "rr", a violation that
    # check_result must not raise (it is gated on the steer mode).
    config = NetConfig(engines=4, threads=2, packets=16, seed=2,
                       arrival="backlog", rx_capacity=20, tx_capacity=20,
                       steer="rr")
    result = run_stream(nat_stream, config)
    engines_by_flow: dict[int, set] = {}
    for packet in result.packets:
        engines_by_flow.setdefault(packet.flow, set()).add(packet.engine)
    assert any(len(engines) > 1 for engines in engines_by_flow.values())
    assert check_result(result) == []


def test_check_result_flags_mismatched_packets(nat_stream):
    # Errored packets (status "mismatch") must surface as a violation
    # and still participate in the per-engine order check.
    def corrupt(rng, seq):
        packet = nat_stream.generate(rng, seq)
        packet.expected_results = tuple(
            (value ^ 1) & 0xFFFFFFFF for value in packet.expected_results
        )
        return packet

    bad_app = dataclasses.replace(nat_stream, generate=corrupt)
    config = NetConfig(engines=2, threads=2, packets=8, seed=3,
                       arrival="backlog", rx_capacity=12, tx_capacity=12)
    result = run_stream(bad_app, config)
    assert result.mismatches
    violations = check_result(result)
    assert any("mismatched the reference" in v for v in violations)
    # the corrupted expectations break validation, not scheduling
    assert not any("out of arrival order" in v for v in violations)


def test_unknown_steer_mode_rejected(nat_stream):
    with pytest.raises(ValueError, match="steering policy"):
        NetRuntime(nat_stream, NetConfig(steer="random"))
    with pytest.raises(ValueError, match="dispatch_cycles"):
        NetRuntime(nat_stream, NetConfig(dispatch_cycles=-1))


# -- percentile semantics --------------------------------------------------


def test_percentile_boundaries():
    data = list(range(10, 110, 10))  # 10..100
    assert nearest_rank(data, 0) == 10  # p=0 is the minimum by definition
    assert nearest_rank(data, 100) == 100
    assert nearest_rank(data, 50) == 50  # ceil(10 * 0.5) = rank 5
    assert nearest_rank(data, 51) == 60
    assert nearest_rank(data, 0.0001) == 10  # ceil of a sliver is rank 1
    assert nearest_rank([], 50) == -1


def test_percentile_rejects_out_of_range():
    with pytest.raises(ValueError, match="percentile"):
        nearest_rank([1, 2, 3], -1)
    with pytest.raises(ValueError, match="percentile"):
        nearest_rank([1, 2, 3], 100.5)


def test_percentile_float_rank_is_exact():
    data = list(range(1, 11))
    # 30.0 is exactly representable: rank must be exactly ceil(3) = 3,
    # immune to 10 * 30.0 / 100 = 2.9999... style drift.
    assert nearest_rank(data, 30.0) == 3
    # A non-terminating p lands strictly inside the next rank.
    assert nearest_rank(data, 100 / 3) == 4  # ceil(3.333...) = 4
    # One latency: every p in (0, 100] is that latency.
    assert nearest_rank([42], 100 / 7) == 42


# -- shared log2 bucketing -------------------------------------------------


def test_log2_bound_edges():
    assert log2_bound(0) == 1
    assert log2_bound(1) == 1
    assert log2_bound(2) == 2  # exact power of two is its own bound
    assert log2_bound(3) == 4
    assert log2_bound(1024) == 1024
    assert log2_bound(1025) == 2048


def test_histogram_and_span_buckets_agree(nat_stream):
    tracer = Tracer()
    result = run_stream(
        nat_stream,
        NetConfig(engines=2, threads=2, packets=12, seed=6,
                  arrival="backlog", rx_capacity=16),
        tracer,
    )
    hist = result.latency_histogram()
    span = tracer.get("net.run")
    buckets = {
        int(key.split("le_")[1]): count
        for key, count in span.counters.items()
        if key.startswith("latency.le_")
    }
    assert buckets == hist  # one bucketing function, one answer


# -- multi-chip sharding ---------------------------------------------------


def test_run_sharded_aggregates_chips():
    config = NetConfig(engines=2, threads=2, packets=10, seed=20,
                       arrival="backlog", rx_capacity=16)
    sharded = run_sharded("nat", config, chips=3, virtual=True, jobs=1)
    assert sharded.chips == 3 and len(sharded.results) == 3
    assert sharded.generated == 30
    assert sharded.completed == 30 and not sharded.mismatches
    # chips run in parallel: aggregate rate sums, makespan is the max
    assert sharded.mbps == pytest.approx(sum(r.mbps for r in sharded.results))
    assert sharded.cycles == max(r.cycles for r in sharded.results)
    # per-chip seeds differ, so chips see different traffic
    assert sharded.results[0].latencies != sharded.results[1].latencies
    assert sharded.percentile(50) in sharded.latencies
    summary = sharded.summary()
    assert summary["chips"] == 3 and summary["generated"] == 30


def test_run_sharded_rejects_zero_chips():
    with pytest.raises(ValueError, match="at least one chip"):
        run_sharded("nat", NetConfig(), chips=0)


def test_chip_seeds_do_not_alias_across_deployments():
    # The old scheme seeded chip i with ``config.seed + i``, so chip 1
    # of a seed-0 deployment replayed chip 0 of a seed-1 deployment
    # packet for packet.  chip_seed mixes (seed, chip) through hash48.
    assert chip_seed(0, 1) != chip_seed(1, 0)
    assert chip_seed(0, 0) != chip_seed(0, 1)
    pairs = {chip_seed(seed, chip) for seed in range(8) for chip in range(6)}
    assert len(pairs) == 48  # no collisions across a whole sweep
    assert chip_seed(3, 2) == hash48((3 * 0x9E3779B1 + 2) & 0xFFFFFFFF)


def test_sharded_chips_see_distinct_traffic_across_base_seeds():
    config = NetConfig(engines=2, threads=2, packets=10, seed=0,
                       arrival="backlog", rx_capacity=16)
    deploy0 = run_sharded("nat", config, chips=2, virtual=True, jobs=1)
    deploy1 = run_sharded(
        "nat", dataclasses.replace(config, seed=1), chips=2, virtual=True,
        jobs=1,
    )
    # the aliasing bug made these two latency series identical
    assert (
        deploy0.results[1].latencies != deploy1.results[0].latencies
    )
