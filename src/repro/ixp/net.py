"""``repro.ixp.net`` — a multi-engine packet-streaming runtime.

The paper's measurement context is a line card: six micro-engines drain
receive FIFOs and scratch rings under sustained traffic (Section 11).
This module models that queue-coupled regime, the one the paper's
throughput numbers live in:

- **N micro-engines** — N :class:`~repro.ixp.machine.Machine` instances
  interleaved on one global event clock over a *shared*
  :class:`~repro.ixp.memory.MemorySystem`, so engines contend for the
  SRAM/SDRAM/scratch service ports exactly like threads already do
  within one engine (the paper's full chip, 6 engines x 4 threads, is
  the default topology);
- **per-engine RX rings with flow-hash steering** — a dispatch stage
  steers every arriving packet to one engine's private RX ring by a
  hash of its flow key (app-supplied ``flow_key``; NAT keys on the
  source/destination address pair so per-flow ordering is preserved,
  other apps default to a hash of the packet sequence number), then a
  shared TX ring carries finished descriptors to the transmit sink;
  every enqueue/dequeue is a single-word scratch transfer (port
  occupancy + latency), a full target ring drops at dispatch (tail
  drop) and a full TX ring *backpressures* workers;
- **a seeded traffic source** — configurable arrival process (poisson /
  constant / backlog), payload-size distribution and burst factor;
- **a validating TX sink** — every drained packet is checked word for
  word against the application's pure-Python reference implementation
  (results *and* the packet's SDRAM region);
- **observability** — per-packet latency (arrival → drain) with a log2
  histogram, throughput, queue-depth high-water marks and drop rates,
  emitted as ``net.*`` trace spans and via ``novac pump``.

Scheduling model
----------------

A single global event heap orders four actors — arrivals, the dispatch
stage, workers (one per hardware thread per engine), and the sink — by
cycle time.  Each engine keeps its own clock (engines run in parallel
in hardware); a worker slice runs its thread through the engine's
existing stepping primitives (:meth:`Machine.service`) from
``max(engine clock, event time)``.  The dispatch stage reserves room in
the steered engine's ring at arrival (or tail-drops) and performs the
actual ring push ``dispatch_cycles`` later — the descriptor only
becomes pollable once the push lands, so worker *retirement* must not
key on ring emptiness alone: a worker goes dormant only when the
source is done **and** nothing steered to its engine is still queued
or in the dispatch stage (``pending``), the condition under which no
packet can ever reach its ring.  Worker ring interaction happens at
the scheduling layer: a thread that finishes a packet (halt) enqueues
its descriptor on the TX ring and dequeues the next from its engine's
RX ring, paying the ring's scratch-port costs; an empty RX or full TX
re-polls every ``poll`` cycles.  This is the receive/transmit
scheduler glue the paper says ships with every application; it is the
only code that touches the rings (no instruction does).
"""

from __future__ import annotations

import hashlib
import heapq
import math
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import SimulatorError
from repro.ixp.machine import CLOCK_MHZ, SIM_MODES, Machine, hash48
from repro.ixp.memory import MemorySystem, ScratchRing
from repro.trace import ensure, log2_bound, nearest_rank

#: event kinds on the global heap (tie-broken by sequence number).
_EV_ARRIVE, _EV_WORKER, _EV_SINK, _EV_PUSH = 0, 1, 2, 3

#: recognised dispatch-steering policies.
STEER_MODES = ("flow", "rr")

#: recognised seeded arrival processes (a trace-driven source bypasses
#: the arrival process entirely — see :class:`TraceEvent`).
ARRIVAL_MODES = ("poisson", "constant", "backlog")


@dataclass(frozen=True)
class TraceEvent:
    """One packet of a replayable traffic trace.

    A trace is an explicit schedule the source replays instead of
    drawing from its seeded RNG: ``gap`` cycles after the previous
    arrival (the first event is relative to cycle 0) a packet with
    exactly ``payload`` arrives at the dispatch stage.  ``flow`` pins
    the packet's flow identity — captured traces always record it so
    deleting events from a trace (ddmin shrinking) never changes how
    the survivors steer.  ``flow=None`` falls back to the app's
    ``flow_key`` (or the hash-of-sequence default), which *does* depend
    on the packet's position in the trace.
    """

    gap: int
    flow: int | None
    payload: tuple[int, ...]
    #: on-the-wire size; ``None`` means ``4 * len(payload)``.
    payload_bytes: int | None = None

    @property
    def size_bytes(self) -> int:
        return (
            self.payload_bytes
            if self.payload_bytes is not None
            else 4 * len(self.payload)
        )


@dataclass
class NetConfig:
    """Streaming-run parameters (all cycle values in engine cycles).

    The defaults are the paper's full chip: 6 micro-engines x 4
    hardware threads, each engine with a private RX ring fed by the
    flow-hash dispatch stage.
    """

    engines: int = 6
    #: hardware threads per engine.
    threads: int = 4
    #: capacity of each engine's private RX ring.
    rx_capacity: int = 32
    tx_capacity: int = 32
    #: packet budget: the source stops after this many packets.
    packets: int = 64
    #: cycle budget: the run stops scheduling past this time (None =
    #: run until every packet is drained or dropped).
    max_cycles: int | None = None
    seed: int = 0
    #: arrival process: 'poisson' (exponential gaps), 'constant', or
    #: 'backlog' (every packet arrives at cycle 0 — closed loop).
    arrival: str = "poisson"
    #: mean cycles between bursts (poisson/constant).
    mean_gap: float = 64.0
    #: packets per burst.
    burst: int = 1
    #: minimum cycles between TX-sink drains (0 = line rate unlimited).
    sink_gap: int = 0
    #: re-poll interval for idle workers (empty RX) and backpressured
    #: workers (full TX).
    poll: int = 16
    #: dispatch policy: 'flow' steers by a hash of the packet's flow
    #: key (same flow -> same engine), 'rr' round-robins by sequence.
    steer: str = "flow"
    #: cycles between a packet's arrival at the receive unit and its
    #: descriptor's ring push landing (the dispatch stage's steering +
    #: descriptor-write latency; the descriptor is pollable only then).
    dispatch_cycles: int = 8
    #: simulator tier for the engines: "compiled" (generated code) or
    #: "interp" (the reference interpreter); observably identical.
    sim_mode: str = "compiled"
    #: explicit traffic trace: when set the source replays these events
    #: verbatim (``arrival``/``mean_gap``/``burst``/``packets``/``seed``
    #: no longer shape the traffic) via the app's ``replay`` constructor.
    trace: tuple[TraceEvent, ...] | None = None


@dataclass
class StreamPacket:
    """One packet's life: payload, expectations, and timeline."""

    seq: int
    payload_words: list[int]
    payload_bytes: int
    #: per-packet source-level input overrides (never includes base).
    inputs: dict[str, int]
    expected_results: tuple[int, ...]
    expected_words: list[int]
    arrival: int = 0
    slot: int | None = None
    #: flow identity (the app's flow key, or a hash of ``seq``).
    flow: int = 0
    #: steered engine — fixed by the dispatch stage at arrival.
    engine: int = -1
    thread: int = -1
    rx_ready: int = 0
    dispatched: int = 0
    halted: int = 0
    tx_ready: int = 0
    drained: int = 0
    latency: int = -1
    #: times the worker found the TX ring full (backpressure events).
    tx_stalls: int = 0
    results: tuple[int, ...] = ()
    status: str = "new"  # new|queued|inflight|done|mismatch|dropped


@dataclass
class StreamApp:
    """A compiled application bound to the streaming runtime."""

    name: str
    bundle: object  # AppBundle
    comp: object  # Compilation (virtual or allocated)
    #: SDRAM words per packet slot (stride is rounded up to even).
    slot_words: int
    #: (rng, seq) -> StreamPacket with payload + expectations filled.
    generate: Callable[[random.Random, int], StreamPacket]
    #: packet -> flow identity for dispatch steering (same key -> same
    #: engine); ``None`` defaults to a hash of the packet sequence.
    flow_key: Callable[[StreamPacket], int] | None = None
    #: (seq, TraceEvent) -> StreamPacket rebuilt from the event's
    #: payload (expectations recomputed from the reference
    #: implementation); required for trace-driven runs.
    replay: Callable[[int, TraceEvent], StreamPacket] | None = None


@dataclass
class StreamResult:
    """Everything a streaming run observed."""

    app: str
    config: NetConfig
    generated: int
    completed: int
    dropped: int
    mismatches: list[dict]
    #: end-to-end makespan: last drain / busiest engine clock.
    cycles: int
    latencies: list[int]
    #: payload bits of *completed* packets (throughput numerator).
    payload_bits: int
    #: deepest occupancy across all per-engine RX rings.
    rx_high_water: int
    tx_high_water: int
    engine_cycles: list[int]
    engine_instructions: list[int]
    #: packets still queued or on an engine when the run stopped (only
    #: non-zero on ``max_cycles`` truncation); the conservation law
    #: ``generated == completed + dropped + inflight`` always holds.
    inflight: int = 0
    truncated: bool = False
    #: per-engine RX ring high-water marks / tail drops / steered counts.
    rx_high_waters: list[int] = field(default_factory=list)
    rx_drops: list[int] = field(default_factory=list)
    steered: list[int] = field(default_factory=list)
    packets: list[StreamPacket] = field(default_factory=list, repr=False)

    @property
    def mbps(self) -> float:
        """Payload megabits per second at the IXP1200 clock."""
        if self.cycles == 0:
            return 0.0
        seconds = self.cycles / (CLOCK_MHZ * 1e6)
        return self.payload_bits / seconds / 1e6

    @property
    def drop_rate(self) -> float:
        if self.generated == 0:
            return 0.0
        return self.dropped / self.generated

    def percentile(self, p: float) -> int:
        """Nearest-rank latency percentile (cycles); -1 if no packets.

        ``p`` must lie in [0, 100].  ``p == 0`` is defined as the
        minimum and ``p == 100`` as the maximum; in between the rank is
        ``ceil(n * p / 100)``, computed with exact rational arithmetic
        so a float ``p`` can never drift the rank across a boundary.
        """
        return nearest_rank(self.latencies, p)

    def latency_histogram(self) -> dict[int, int]:
        """Log2 buckets: upper bound (cycles) → packet count.

        Bucketing is :func:`repro.trace.log2_bound` — the same helper
        trace spans use — so run summaries and ``net.run`` span
        histograms agree bucket for bucket (values <= 1 land in bucket
        1, exact powers of two in their own bound).
        """
        hist: dict[int, int] = {}
        for latency in self.latencies:
            bound = log2_bound(latency)
            hist[bound] = hist.get(bound, 0) + 1
        return dict(sorted(hist.items()))

    def summary(self) -> dict:
        return {
            "app": self.app,
            "engines": self.config.engines,
            "threads": self.config.threads,
            "generated": self.generated,
            "completed": self.completed,
            "dropped": self.dropped,
            "inflight": self.inflight,
            "mismatches": len(self.mismatches),
            "cycles": self.cycles,
            "mbps": round(self.mbps, 3),
            "latency_p50": self.percentile(50),
            "latency_p95": self.percentile(95),
            "latency_max": max(self.latencies, default=-1),
            "rx_high_water": self.rx_high_water,
            "tx_high_water": self.tx_high_water,
            "truncated": self.truncated,
        }


def capture_trace(result: StreamResult) -> tuple[TraceEvent, ...]:
    """The traffic of a finished run as a replayable trace.

    Gaps are reconstructed from per-packet arrival times and every
    event records its packet's flow identity explicitly, so replaying
    the trace through :func:`run_stream` (``NetConfig.trace``)
    reproduces the run's traffic exactly — on the original topology or
    any other — and shrinking the trace cannot re-steer survivors.
    Requires the run to have kept its packets (``result.packets``).
    """
    if result.generated and not result.packets:
        raise ValueError("run kept no packets; cannot capture its trace")
    events = []
    previous = 0
    for packet in result.packets:
        events.append(
            TraceEvent(
                gap=packet.arrival - previous,
                flow=packet.flow,
                payload=tuple(packet.payload_words),
                payload_bytes=packet.payload_bytes,
            )
        )
        previous = packet.arrival
    return tuple(events)


def coverage_signature(result: StreamResult) -> tuple[str, ...]:
    """Stable coverage features of one streaming run.

    The net fuzzer's corpus layer (:mod:`repro.fuzz.corpus`) retains a
    scenario iff its run lights up a counter bucket no stored entry
    reached; this function defines those buckets from the runtime's own
    accounting, so "interesting" means *the queues behaved differently*,
    not merely "the trace differs":

    - the topology itself (engine/thread counts, ring capacities, steer
      mode) — a trace replayed on a new topology is new coverage;
    - per-ring RX high-water marks, tail drops and steered counts in
      :func:`repro.trace.log2_bound` buckets;
    - the shared TX ring's high water, total backpressure stalls
      (workers finding the TX ring full) and total drops;
    - the latency-histogram *shape*: each occupied log2 latency bucket
      paired with the log2 bucket of its packet count;
    - truncation / in-flight leftovers (``max_cycles`` runs).

    The result is a sorted tuple of short feature strings — identical
    seeded runs produce identical signatures, and the tuple is stable
    across sessions so stored corpora stay comparable.  Tests pin the
    exact format (:mod:`tests.test_corpus`); change it only with a
    migration story for on-disk corpora.
    """
    config = result.config
    features = {
        f"topo:e{config.engines}xt{config.threads}"
        f":rx{config.rx_capacity}:tx{config.tx_capacity}"
        f":{config.steer}:d{config.dispatch_cycles}",
    }
    for engine in range(config.engines):
        if engine < len(result.rx_high_waters) and result.rx_high_waters[engine]:
            features.add(
                f"rx{engine}.hwm<={log2_bound(result.rx_high_waters[engine])}"
            )
        if engine < len(result.rx_drops) and result.rx_drops[engine]:
            features.add(
                f"rx{engine}.drops<={log2_bound(result.rx_drops[engine])}"
            )
        if engine < len(result.steered) and result.steered[engine]:
            features.add(
                f"rx{engine}.steered<={log2_bound(result.steered[engine])}"
            )
    if result.tx_high_water:
        features.add(f"tx.hwm<={log2_bound(result.tx_high_water)}")
    stalls = sum(p.tx_stalls for p in result.packets)
    if stalls:
        features.add(f"tx.stalls<={log2_bound(stalls)}")
    if result.dropped:
        features.add(f"dropped<={log2_bound(result.dropped)}")
    for bound, count in result.latency_histogram().items():
        features.add(f"lat<={bound}x{log2_bound(count)}")
    if result.truncated:
        features.add("truncated")
    if result.inflight:
        features.add(f"inflight<={log2_bound(result.inflight)}")
    return tuple(sorted(features))


def trace_to_json(trace: tuple[TraceEvent, ...]) -> list:
    """A trace as plain JSON rows ``[gap, flow, payload, bytes]``."""
    return [
        [event.gap, event.flow, list(event.payload), event.payload_bytes]
        for event in trace
    ]


def trace_from_json(rows: list) -> tuple[TraceEvent, ...]:
    """Inverse of :func:`trace_to_json`."""
    return tuple(
        TraceEvent(
            gap=gap,
            flow=flow,
            payload=tuple(payload),
            payload_bytes=payload_bytes,
        )
        for gap, flow, payload, payload_bytes in rows
    )


def config_to_dict(config: NetConfig) -> dict:
    """A :class:`NetConfig` as a plain JSON topology dict.

    The traffic trace is serialized separately (:func:`trace_to_json`)
    — witness artifacts and corpus entries store topology and traffic
    as distinct, independently swappable axes.  The simulator tier is
    not written: it is not a scenario axis (the tiers are identical by
    contract).
    """
    from dataclasses import asdict

    return {
        k: v
        for k, v in asdict(config).items()
        if k not in ("trace", "sim_mode")
    }


def config_from_dict(data: dict) -> NetConfig:
    """Inverse of :func:`config_to_dict`.

    The simulator-tier keys older versions wrote (``decode``,
    ``sim_mode``) are dropped, so stored corpora stay loadable; any
    other unknown key is rejected.
    """
    return NetConfig(**{
        k: v
        for k, v in data.items()
        if k not in ("trace", "decode", "sim_mode")
    })


def memory_digest(memory: MemorySystem) -> str:
    """Stable short digest of every non-zero word in every space."""
    sha = hashlib.sha256()
    for name in sorted(memory.spaces):
        words = memory.spaces[name].words
        for addr in sorted(words):
            if words[addr]:
                sha.update(f"{name}:{addr}:{words[addr]};".encode())
    return sha.hexdigest()[:16]


# --------------------------------------------------------------------------
# Application adapters
# --------------------------------------------------------------------------


def _to_words(data: bytes) -> list[int]:
    return [
        int.from_bytes(data[i : i + 4], "big") for i in range(0, len(data), 4)
    ]


def _rand_bytes(rng: random.Random, count: int) -> bytes:
    return bytes(rng.getrandbits(8) for _ in range(count))


def _event_bytes(event: TraceEvent) -> bytes:
    data = b"".join(word.to_bytes(4, "big") for word in event.payload)
    return data[: event.size_bytes]


def _aes_stream_app(comp, payload_sizes: tuple[int, ...]) -> StreamApp:
    from repro.apps.aes_nova import (
        aes_reference_ciphertext,
        aes_trailer,
        build_aes_app,
    )

    for size in payload_sizes:
        if size <= 0 or size % 16:
            raise ValueError(f"AES payloads are 16-byte blocks, got {size}")
    bundle = build_aes_app()

    def from_payload(seq: int, payload: bytes) -> StreamPacket:
        ciphertext = aes_reference_ciphertext(payload)
        return StreamPacket(
            seq=seq,
            payload_words=_to_words(payload),
            payload_bytes=len(payload),
            inputs={"nblocks": len(payload) // 16, "align": 0},
            expected_results=(aes_trailer(ciphertext),),
            expected_words=ciphertext,
        )

    def generate(rng: random.Random, seq: int) -> StreamPacket:
        size = payload_sizes[rng.randrange(len(payload_sizes))]
        return from_payload(seq, _rand_bytes(rng, size))

    def replay(seq: int, event: TraceEvent) -> StreamPacket:
        return from_payload(seq, _event_bytes(event))

    return StreamApp(
        "aes", bundle, comp, max(payload_sizes) // 4, generate, replay=replay
    )


def _kasumi_stream_app(comp, payload_sizes: tuple[int, ...]) -> StreamApp:
    from repro.apps.kasumi_nova import (
        build_kasumi_app,
        kasumi_reference_ciphertext,
        kasumi_xor_sum,
    )

    for size in payload_sizes:
        if size <= 0 or size % 8:
            raise ValueError(f"Kasumi payloads are 8-byte blocks, got {size}")
    bundle = build_kasumi_app()

    def from_payload(seq: int, payload: bytes) -> StreamPacket:
        ciphertext = kasumi_reference_ciphertext(payload)
        return StreamPacket(
            seq=seq,
            payload_words=_to_words(payload),
            payload_bytes=len(payload),
            inputs={"nblocks": len(payload) // 8},
            expected_results=(kasumi_xor_sum(ciphertext),),
            expected_words=ciphertext,
        )

    def generate(rng: random.Random, seq: int) -> StreamPacket:
        size = payload_sizes[rng.randrange(len(payload_sizes))]
        return from_payload(seq, _rand_bytes(rng, size))

    def replay(seq: int, event: TraceEvent) -> StreamPacket:
        return from_payload(seq, _event_bytes(event))

    return StreamApp(
        "kasumi", bundle, comp, max(payload_sizes) // 4, generate, replay=replay
    )


def _nat_stream_mappings(count: int = 8) -> dict[tuple[int, int, int, int], int]:
    """``count`` IPv6 → IPv4 mappings with distinct table indexes (the
    table is direct-mapped; colliding addresses would evict each other)."""
    from repro.apps.refimpl import nat

    mappings: dict[tuple[int, int, int, int], int] = {}
    used: set[int] = set()
    host = 0
    while len(mappings) < count:
        host += 1
        addr = (0x20010DB8, 0, 0x5EED, host)
        index = nat.nat_table_index(list(addr))
        if index in used:
            continue
        used.add(index)
        mappings[addr] = 0x0A000000 + len(mappings) + 1
    return mappings


def _nat_stream_app(comp) -> StreamApp:
    from repro.apps.nat_nova import build_nat_app
    from repro.apps.refimpl import nat

    mappings = _nat_stream_mappings()
    bundle = build_nat_app(mappings=mappings)
    table = nat.build_nat_table(mappings)
    addresses = list(mappings)

    def from_words(seq: int, words: list[int]) -> StreamPacket:
        header = nat.translate_ipv6_to_ipv4(words, table)
        return StreamPacket(
            seq=seq,
            payload_words=list(words),
            payload_bytes=40,  # the translated IPv6 header
            inputs={},
            expected_results=(header[2] & 0xFFFF,),
            expected_words=words[:5] + header,
        )

    def generate(rng: random.Random, seq: int) -> StreamPacket:
        src = addresses[rng.randrange(len(addresses))]
        dst = addresses[rng.randrange(len(addresses))]
        tclass = rng.getrandbits(8)
        flow = rng.getrandbits(20)
        payload_length = rng.randrange(0, 1024)
        next_header = rng.getrandbits(8)
        hop = rng.randrange(1, 256)
        w0 = (6 << 28) | (tclass << 20) | flow
        w1 = (payload_length << 16) | (next_header << 8) | hop
        return from_words(seq, [w0, w1, *src, *dst])

    def replay(seq: int, event: TraceEvent) -> StreamPacket:
        return from_words(seq, list(event.payload))

    def flow_key(packet: StreamPacket) -> int:
        # The translation 5-tuple stand-in: the source/destination
        # address pair (words 2..9 of the IPv6 header).  Same pair ->
        # same key -> same engine, so per-flow order survives steering.
        key = 0
        for word in packet.payload_words[2:10]:
            key = hash48(key ^ word)
        return key

    return StreamApp("nat", bundle, comp, 10, generate, flow_key, replay)


def stream_app(
    name: str, comp, payload_sizes: tuple[int, ...] | None = None
) -> StreamApp:
    """Build the streaming adapter for one of the Section 11 apps.

    ``comp`` may be a virtual (pre-allocation) or allocated
    compilation of the app's bundled source; ``payload_sizes`` is the
    payload-size distribution for AES (multiples of 16) and Kasumi
    (multiples of 8) — NAT packets are always one 40-byte header.
    """
    if name == "aes":
        return _aes_stream_app(comp, payload_sizes or (16,))
    if name == "kasumi":
        return _kasumi_stream_app(comp, payload_sizes or (8,))
    if name == "nat":
        return _nat_stream_app(comp)
    raise ValueError(f"unknown streaming app '{name}'")


def compile_app(
    name: str, virtual: bool = False, cache_dir: str | None = None, tracer=None
):
    """Compile one of the Section 11 apps for :func:`stream_app`.

    ``virtual`` stops before register allocation; otherwise the ILP
    allocator runs with a 900 s solve budget.  With ``cache_dir`` the
    compile goes through the content-addressed cache there.
    """
    from repro.apps import build_aes_app, build_kasumi_app, build_nat_app
    from repro.cache import CompileCache, cached_compile
    from repro.compiler import CompileOptions

    build_app = {
        "aes": build_aes_app,
        "kasumi": build_kasumi_app,
        "nat": build_nat_app,
    }[name]
    options = CompileOptions()
    options.run_allocator = not virtual
    options.alloc.solve.time_limit = 900
    cache = CompileCache(cache_dir, tracer) if cache_dir else None
    comp, _ = cached_compile(
        build_app().source, f"{name}.nova", options, cache, tracer
    )
    return comp


# --------------------------------------------------------------------------
# The runtime
# --------------------------------------------------------------------------


class NetRuntime:
    """One streaming run: build with an adapter + config, call :meth:`run`."""

    def __init__(self, app: StreamApp, config: NetConfig, tracer=None):
        self._validate_config(app, config)
        self.app = app
        self.comp = app.comp
        self.config = config
        self.tracer = ensure(tracer)
        self.rng = random.Random(config.seed)

        self.memory = MemorySystem.create()
        bundle = app.bundle
        # Payloads are written per slot on arrival, not preloaded.
        self.memory.load_image(
            {
                space: [
                    (addr, words)
                    for addr, words in chunks
                    if space != "sdram" or addr < bundle.payload_base
                ]
                for space, chunks in bundle.memory_image.items()
            }
        )
        # Ring layout, downward from the top of scratch: the shared TX
        # ring, then one private RX ring per engine ("rx0".."rxN-1").
        scratch = self.memory["scratch"]
        tx_base = scratch.size - (2 + config.tx_capacity)
        rx_stride = 2 + config.rx_capacity
        rx_base = tx_base - config.engines * rx_stride
        self._check_ring_layout(rx_base, scratch.size)
        self.rx = [
            ScratchRing(
                f"rx{i}", scratch, rx_base + i * rx_stride, config.rx_capacity
            )
            for i in range(config.engines)
        ]
        self.tx = ScratchRing("tx", scratch, tx_base, config.tx_capacity)

        physical = self.comp.alloc is not None
        graph = self.comp.physical if physical else self.comp.flowgraph
        # The runtime enforces config.max_cycles at the event level (a
        # clean truncated result); the machines get headroom beyond it
        # so an in-flight slice never trips their internal guard first.
        machine_budget = (
            config.max_cycles * 4 + 1_000_000
            if config.max_cycles is not None
            else 1_000_000_000
        )
        self.machines = [
            Machine(
                graph,
                memory=self.memory,
                threads=config.threads,
                physical=physical,
                input_provider=lambda tid, it: None,  # runtime dispatches
                max_cycles=machine_budget,
                mode=config.sim_mode,
            )
            for _ in range(config.engines)
        ]
        self.engine_clock = [0] * config.engines

        workers = config.engines * config.threads
        self.worker_state = ["idle"] * workers
        self.worker_packet: list[StreamPacket | None] = [None] * workers

        #: packets steered to each engine and not yet pulled by one of
        #: its workers (queued in the ring OR still in the dispatch
        #: stage).  Retirement keys on this, not on ring emptiness.
        self.pending = [0] * config.engines
        #: dispatch pushes reserved but not yet landed, per engine.
        self.rx_inflight = [0] * config.engines
        #: tail drops at dispatch, per target engine.
        self.rx_drops = [0] * config.engines
        #: packets steered per engine (including later drops).
        self.steered = [0] * config.engines

        #: enough buffer slots that ring bounds, not slot exhaustion,
        #: limit the number of in-flight packets.
        self.slot_count = (
            config.engines * config.rx_capacity
            + workers
            + config.tx_capacity
            + 2
        )
        self.slot_stride = app.slot_words + (app.slot_words % 2)
        self.free_slots: deque[int] = deque(range(self.slot_count))
        self.slot_packet: dict[int, StreamPacket] = {}

        self.packets: list[StreamPacket] = []
        self.generated = 0
        self.completed = 0
        self.dropped = 0
        self.accounted = 0
        self.mismatches: list[dict] = []
        self.latencies: list[int] = []
        self.payload_bits = 0
        self.source_done = False
        self.truncated = False
        self.end_cycle = 0
        self.sink_next_free = 0
        self.sink_scheduled = False

        self._heap: list[tuple[int, int, int, int]] = []
        self._seq = 0
        #: next trace event to replay (trace-driven source only).
        self._trace_index = 0
        #: generated programs have no per-packet SDRAM slot parameter.
        self._has_base = "base" in self.comp.inputs_by_name()

    # -- config validation ---------------------------------------------------

    @staticmethod
    def _validate_config(app: StreamApp, config: NetConfig) -> None:
        """Reject bad topologies/sources up front, before any state is
        built — a typo'd arrival process used to surface only deep in
        :meth:`_gap` after the first burst fired."""
        if config.engines <= 0 or config.threads <= 0:
            raise ValueError("need at least one engine and one thread")
        if config.sim_mode not in SIM_MODES:
            raise ValueError(
                f"unknown simulator mode '{config.sim_mode}' "
                f"(expected one of {', '.join(SIM_MODES)})"
            )
        if config.steer not in STEER_MODES:
            raise ValueError(
                f"unknown steering policy '{config.steer}' "
                f"(expected one of {STEER_MODES})"
            )
        if config.dispatch_cycles < 0:
            raise ValueError("dispatch_cycles must be >= 0")
        if config.rx_capacity <= 0 or config.tx_capacity <= 0:
            raise ValueError(
                "ring capacities must be positive, got "
                f"rx_capacity={config.rx_capacity} "
                f"tx_capacity={config.tx_capacity}"
            )
        if config.poll <= 0:
            raise ValueError(
                f"poll must be >= 1 (idle workers re-poll), got {config.poll}"
            )
        if config.trace is not None:
            if app.replay is None:
                raise ValueError(
                    f"app '{app.name}' has no replay constructor; "
                    "trace-driven runs need StreamApp.replay"
                )
            for index, event in enumerate(config.trace):
                if event.gap < 0:
                    raise ValueError(
                        f"trace event {index} has negative gap {event.gap}"
                    )
            return  # the seeded-source knobs below don't shape traffic
        if config.arrival not in ARRIVAL_MODES:
            raise ValueError(
                f"unknown arrival process '{config.arrival}' "
                f"(expected one of {ARRIVAL_MODES})"
            )
        if config.arrival != "backlog" and config.mean_gap <= 0:
            raise ValueError(
                f"mean_gap must be > 0, got {config.mean_gap}"
            )
        if config.burst <= 0:
            raise ValueError(f"burst must be >= 1, got {config.burst}")

    def _check_ring_layout(self, rx_base: int, scratch_size: int) -> None:
        """Reject ring layouts that fall off the bottom of scratch or
        underflow into the program's own scratch data / spill slots.

        The rings grow downward from the top of scratch, so a large
        ``engines x rx_capacity`` product used to push ``rx_base``
        into program data (silent corruption) or negative (an opaque
        ring-construction error)."""
        data_top = 0
        for addr, words in self.app.bundle.memory_image.get("scratch", ()):
            data_top = max(data_top, addr + len(words))
        if self.comp.alloc is not None:
            slots = self.comp.alloc.decoded.spill_slots
            if slots:
                data_top = max(data_top, max(slots.values()) + 1)
        if rx_base < data_top:
            config = self.config
            need = scratch_size - rx_base
            raise ValueError(
                f"ring layout does not fit scratch: {config.engines} RX "
                f"rings of {config.rx_capacity} + a TX ring of "
                f"{config.tx_capacity} need {need} words but only "
                f"{scratch_size - data_top} are free above the program's "
                f"data (top {data_top}); shrink the rings or the engine "
                "count"
            )

    # -- event plumbing -----------------------------------------------------

    def _push(self, time: int, kind: int, data: int = 0) -> None:
        heapq.heappush(self._heap, (time, self._seq, kind, data))
        self._seq += 1

    def _slot_base(self, slot: int) -> int:
        return self.app.bundle.payload_base + slot * self.slot_stride

    def _gap(self) -> int:
        config = self.config
        if config.arrival == "poisson":
            return max(1, round(self.rng.expovariate(1.0 / config.mean_gap)))
        if config.arrival == "constant":
            return max(1, round(config.mean_gap))
        raise ValueError(f"unknown arrival process '{config.arrival}'")

    # -- actors --------------------------------------------------------------

    def _flow_of(self, packet: StreamPacket) -> int:
        if self.app.flow_key is not None:
            return self.app.flow_key(packet) & 0xFFFFFFFF
        return hash48(packet.seq)

    def _steer(self, packet: StreamPacket) -> int:
        """The dispatch stage's engine choice for ``packet``."""
        if self.config.steer == "rr":
            return packet.seq % self.config.engines
        return hash48(packet.flow) % self.config.engines

    def _admit(
        self, packet: StreamPacket, now: int, flow: int | None = None
    ) -> None:
        """The dispatch stage sees one arriving packet: steer it,
        reserve ring room (or tail-drop), DMA the payload into its
        slot and schedule the descriptor push.  ``flow`` pins the
        packet's flow identity (trace replay); ``None`` derives it
        from the app's flow key."""
        packet.arrival = now
        self.generated += 1
        self.packets.append(packet)
        packet.flow = self._flow_of(packet) if flow is None else flow
        engine = self._steer(packet)
        packet.engine = engine
        self.steered[engine] += 1
        ring = self.rx[engine]
        # Reserve ring room at arrival (counting pushes still in
        # the dispatch stage); tail-drop when the *steered* ring is
        # full — other engines' rings having room doesn't help a
        # flow pinned to this one.
        room = ring.capacity - ring.depth() - self.rx_inflight[engine]
        if room <= 0 or not self.free_slots:
            packet.status = "dropped"
            self.dropped += 1
            self.rx_drops[engine] += 1
            self.accounted += 1
            return
        slot = self.free_slots.popleft()
        packet.slot = slot
        # The receive unit DMAs the payload into the slot's SDRAM
        # region (back door — its bus is not the engines' port).
        self.memory["sdram"].load_words(
            self._slot_base(slot), packet.payload_words
        )
        packet.status = "queued"
        self.slot_packet[slot] = packet
        self.pending[engine] += 1
        self.rx_inflight[engine] += 1
        self._push(now + self.config.dispatch_cycles, _EV_PUSH, slot)

    def _on_arrival(self, now: int) -> None:
        config = self.config
        if config.trace is not None:
            # Trace-driven source: replay events verbatim.  Consecutive
            # zero-gap events arrive on the same cycle (one burst).
            trace = config.trace
            while self._trace_index < len(trace):
                event = trace[self._trace_index]
                packet = self.app.replay(self._trace_index, event)
                self._trace_index += 1
                self._admit(packet, now, flow=event.flow)
                if (
                    self._trace_index < len(trace)
                    and trace[self._trace_index].gap == 0
                ):
                    continue
                break
            if self._trace_index >= len(trace):
                self.source_done = True
            else:
                self._push(
                    now + trace[self._trace_index].gap, _EV_ARRIVE
                )
            return
        count = (
            config.packets
            if config.arrival == "backlog"
            else min(config.burst, config.packets - self.generated)
        )
        for _ in range(count):
            packet = self.app.generate(self.rng, self.generated)
            self._admit(packet, now)
        if self.generated >= config.packets:
            self.source_done = True
        else:
            self._push(now + self._gap(), _EV_ARRIVE)

    def _on_push(self, now: int, slot: int) -> None:
        """The dispatch stage lands one reserved ring push: the
        descriptor becomes pollable and the scratch port is charged."""
        packet = self.slot_packet[slot]
        finish = self.rx[packet.engine].try_enqueue(now, slot)
        assert finish is not None, "dispatch reserved ring room at arrival"
        packet.rx_ready = finish
        self.rx_inflight[packet.engine] -= 1

    def _bind_inputs(self, packet: StreamPacket) -> dict:
        values = dict(self.app.bundle.inputs)
        values.update(packet.inputs)
        if self._has_base:
            values["base"] = self._slot_base(packet.slot)
        raw = self.comp.make_inputs(**values)
        if self.comp.alloc is None:
            return raw
        # Imported here: repro.alloc loads the ILP stack, which a stream
        # of virtual code never needs.
        from repro.alloc.decode import SpilledInput, place_inputs

        try:
            return place_inputs(self.comp.alloc.decoded.input_locations, raw)
        except SpilledInput as exc:
            # A spilled input lives at an absolute scratch address shared
            # by every thread: per-packet values would race.
            raise SimulatorError(
                f"input {exc.args[0]} was spilled to scratch; the streaming "
                "runtime needs register-resident inputs"
            ) from None

    def _worker_pull(self, now: int, worker: int) -> None:
        engine, tid = divmod(worker, self.config.threads)
        popped = self.rx[engine].try_dequeue(now)
        if popped is None:
            # Retire only once no packet can ever reach this engine's
            # ring: the source is done AND nothing steered here is
            # still queued or sitting in the dispatch stage.  An empty
            # ring alone proves nothing — a descriptor reserved at
            # arrival may land ``dispatch_cycles`` later.
            if self.source_done and self.pending[engine] == 0:
                self.worker_state[worker] = "dormant"
            else:
                self._push(now + self.config.poll, _EV_WORKER, worker)
            return
        slot, finish = popped
        self.pending[engine] -= 1
        packet = self.slot_packet[slot]
        packet.dispatched = finish
        packet.thread = tid
        packet.status = "inflight"
        self.machines[engine].dispatch(tid, self._bind_inputs(packet), finish)
        self.worker_packet[worker] = packet
        self.worker_state[worker] = "run"
        self._push(finish, _EV_WORKER, worker)

    def _worker_halt(self, clock: int, worker: int) -> None:
        """Worker ``worker``'s thread halted at ``clock``: hand its
        packet to the TX stage."""
        engine, tid = divmod(worker, self.config.threads)
        # Collect this thread's own halt values.  Sibling threads of
        # the same engine halt in interleaved slices, so the shared
        # ``machine.results`` list is in no useful order — the
        # per-thread hand-off is the only race-free channel.
        values = self.machines[engine].take_result(tid)
        assert values is not None, "halted thread must have halt values"
        packet = self.worker_packet[worker]
        packet.halted = clock
        packet.results = values
        self.worker_state[worker] = "txwait"
        self._worker_tx(clock, worker)

    def _worker_tx(self, now: int, worker: int) -> None:
        packet = self.worker_packet[worker]
        finish = self.tx.try_enqueue(now, packet.slot)
        if finish is None:
            packet.tx_stalls += 1  # backpressure: sink is behind
            self._push(now + self.config.poll, _EV_WORKER, worker)
            return
        packet.tx_ready = finish
        self.worker_packet[worker] = None
        self.worker_state[worker] = "idle"
        self._ensure_sink(finish)
        self._push(finish, _EV_WORKER, worker)

    def _ensure_sink(self, time: int) -> None:
        if not self.sink_scheduled:
            self.sink_scheduled = True
            self._push(max(time, self.sink_next_free), _EV_SINK)

    def _on_sink(self, now: int) -> None:
        self.sink_scheduled = False
        popped = self.tx.try_dequeue(now)
        if popped is None:
            return  # re-armed by the next TX enqueue
        slot, finish = popped
        drain = max(finish, self.sink_next_free)
        self.sink_next_free = drain + self.config.sink_gap
        packet = self.slot_packet.pop(slot)
        self._validate(packet, drain)
        self.free_slots.append(slot)
        self.completed += 1
        self.accounted += 1
        self.end_cycle = max(self.end_cycle, drain)
        if not self.tx.empty:
            self._ensure_sink(self.sink_next_free)

    def _validate(self, packet: StreamPacket, drain: int) -> None:
        packet.drained = drain
        packet.latency = drain - packet.arrival
        self.latencies.append(packet.latency)
        self.payload_bits += packet.payload_bytes * 8
        got_words = self.memory["sdram"].dump_words(
            self._slot_base(packet.slot), len(packet.expected_words)
        )
        ok = (
            tuple(packet.results) == tuple(packet.expected_results)
            and got_words == list(packet.expected_words)
        )
        if ok:
            packet.status = "done"
            return
        packet.status = "mismatch"
        self.mismatches.append(
            {
                "packet": packet.seq,
                "results": tuple(packet.results),
                "expected_results": tuple(packet.expected_results),
                "words": got_words,
                "expected_words": list(packet.expected_words),
            }
        )

    # -- the run -------------------------------------------------------------

    def _finished(self) -> bool:
        return self.source_done and self.accounted >= self.generated

    def _loop(self) -> None:
        """Pop events until every packet is accounted for (or the
        ``max_cycles`` horizon).  Workers in state ``run`` — most of
        the events — are serviced inline, so a slice costs one call,
        the machine's own ``service``."""
        heap, state = self._heap, self.worker_state
        engine_clock = self.engine_clock
        heappop, heappush = heapq.heappop, heapq.heappush
        max_cycles = self.config.max_cycles
        horizon = math.inf if max_cycles is None else max_cycles
        # Bound here, not at construction: a caller may wrap a
        # machine's ``service`` on the instance in between (probes).
        workers = [
            (engine, tid, machine.threads[tid], machine.service)
            for engine, machine in enumerate(self.machines)
            for tid in range(self.config.threads)
        ]
        while heap:
            time, _, kind, data = heappop(heap)
            if time > horizon:
                self.truncated = True
                return
            if kind == _EV_WORKER:
                worker_state = state[data]
                if worker_state == "run":
                    engine, tid, thread, service = workers[data]
                    free = engine_clock[engine]
                    clock = service(tid, time if time > free else free)
                    engine_clock[engine] = clock
                    if clock > self.end_cycle:
                        self.end_cycle = clock
                    if thread.done:
                        self._worker_halt(clock, data)
                    else:
                        heappush(
                            heap, (thread.ready_at, self._seq, _EV_WORKER, data)
                        )
                        self._seq += 1
                elif worker_state == "idle":
                    self._worker_pull(time, data)
                elif worker_state == "txwait":
                    self._worker_tx(time, data)
                continue  # worker events never account for a packet
            if kind == _EV_PUSH:
                self._on_push(time, data)
                continue
            if kind == _EV_ARRIVE:
                self._on_arrival(time)
            else:
                self._on_sink(time)
            if self._finished():
                return

    def run(self) -> StreamResult:
        config = self.config
        with self.tracer.span(
            "net.run",
            app=self.app.name,
            engines=config.engines,
            threads=config.threads,
            seed=config.seed,
        ) as sp:
            if config.trace is not None:
                if config.trace:
                    self._push(config.trace[0].gap, _EV_ARRIVE)
                else:
                    self.source_done = True
            else:
                self._push(0, _EV_ARRIVE)
            for worker in range(len(self.worker_state)):
                self._push(0, _EV_WORKER, worker)
            if not self._finished():
                self._loop()
            # Packet conservation: every generated packet is completed,
            # dropped, or still somewhere in the pipeline (queued /
            # dispatching / on an engine / awaiting the sink) — the
            # latter only on max_cycles truncation.
            inflight = sum(
                1
                for packet in self.packets
                if packet.status not in ("done", "mismatch", "dropped")
            )
            assert self.generated == self.completed + self.dropped + inflight
            assert inflight == 0 or self.truncated
            rx_high_waters = [ring.high_water for ring in self.rx]
            result = StreamResult(
                app=self.app.name,
                config=config,
                generated=self.generated,
                completed=self.completed,
                dropped=self.dropped,
                mismatches=self.mismatches,
                cycles=self.end_cycle,
                latencies=self.latencies,
                payload_bits=self.payload_bits,
                rx_high_water=max(rx_high_waters),
                tx_high_water=self.tx.high_water,
                engine_cycles=list(self.engine_clock),
                engine_instructions=[
                    sum(t.stats.instructions for t in m.threads)
                    for m in self.machines
                ],
                inflight=inflight,
                truncated=self.truncated,
                rx_high_waters=rx_high_waters,
                rx_drops=list(self.rx_drops),
                steered=list(self.steered),
                packets=self.packets,
            )
            if sp:
                summary = result.summary()
                summary.pop("app", None)
                sp.add(**summary)
                for latency in result.latencies:
                    sp.bucket("latency", latency)
            for engine, machine in enumerate(self.machines):
                with self.tracer.span("net.engine") as esp:
                    if esp:
                        esp.add(
                            engine=engine,
                            cycles=self.engine_clock[engine],
                            instructions=sum(
                                t.stats.instructions for t in machine.threads
                            ),
                            packets=sum(
                                t.stats.iterations for t in machine.threads
                            ),
                            mem_stall_cycles=sum(
                                t.stats.mem_stall_cycles
                                for t in machine.threads
                            ),
                            steered=self.steered[engine],
                            rx_high_water=self.rx[engine].high_water,
                            rx_drops=self.rx_drops[engine],
                        )
        return result


def run_stream(app: StreamApp, config: NetConfig, tracer=None) -> StreamResult:
    """Convenience wrapper: build the runtime and run it."""
    return NetRuntime(app, config, tracer).run()


def stream_trace_lines(result: StreamResult, memory: MemorySystem | None = None) -> list[str]:
    """A deterministic, human-readable run transcript (golden tests)."""
    config = result.config
    lines = [
        f"app={result.app} engines={config.engines} threads={config.threads} "
        f"seed={config.seed} arrival={config.arrival} packets={config.packets}",
        f"rx_capacity={config.rx_capacity} tx_capacity={config.tx_capacity} "
        f"sink_gap={config.sink_gap} steer={config.steer} "
        f"dispatch_cycles={config.dispatch_cycles}",
    ]
    for packet in result.packets:
        if packet.status == "dropped":
            lines.append(
                f"pkt {packet.seq:03d} bytes={packet.payload_bytes:<4d} "
                f"arrival={packet.arrival:<8d} flow={packet.flow:08x} "
                f"engine={packet.engine} dropped"
            )
            continue
        lines.append(
            f"pkt {packet.seq:03d} bytes={packet.payload_bytes:<4d} "
            f"arrival={packet.arrival:<8d} flow={packet.flow:08x} "
            f"engine={packet.engine} "
            f"dispatch={packet.dispatched:<8d} halt={packet.halted:<8d} "
            f"drain={packet.drained:<8d} latency={packet.latency:<8d} "
            f"{packet.status}"
        )
    for engine in range(config.engines):
        hwm = (
            result.rx_high_waters[engine]
            if engine < len(result.rx_high_waters)
            else 0
        )
        drops = result.rx_drops[engine] if engine < len(result.rx_drops) else 0
        steered = result.steered[engine] if engine < len(result.steered) else 0
        lines.append(
            f"rx{engine} steered={steered} hwm={hwm} drops={drops}"
        )
    lines.append(
        f"generated={result.generated} completed={result.completed} "
        f"dropped={result.dropped} inflight={result.inflight} "
        f"mismatches={len(result.mismatches)}"
    )
    conserved = (
        result.generated
        == result.completed + result.dropped + result.inflight
    )
    lines.append(
        "conservation generated==completed+dropped+inflight "
        f"{'holds' if conserved else 'VIOLATED'}"
    )
    lines.append(
        f"cycles={result.cycles} rx_hwm={result.rx_high_water} "
        f"tx_hwm={result.tx_high_water} p50={result.percentile(50)} "
        f"p95={result.percentile(95)}"
    )
    if memory is not None:
        lines.append(f"memory_digest={memory_digest(memory)}")
    return lines
