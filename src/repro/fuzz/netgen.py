"""``repro.fuzz.netgen`` — differential fuzzing of the streaming runtime.

The compiler oracle (:mod:`repro.fuzz.oracle`) holds the *program*
fixed across configurations; this module holds the *traffic* and the
*topology* random too.  One scenario is a seeded triple:

- a random pure Nova program (:mod:`repro.fuzz.gen` with
  :data:`STREAM_FEATURES` — memory and CSR constructs are excluded so
  packets cannot interfere through shared state and every packet's
  expected halt values are computable by a single-thread reference
  run);
- a random traffic schedule — arrival process, gaps, bursts, packet
  budget, and a small pool of *flow tokens* the first parameter draws
  from, so flows repeat and the affinity/order invariants have teeth;
- a random topology — engine/thread counts, ring capacities, steer
  mode and dispatch latency.

Each scenario streams through :func:`repro.ixp.net.run_stream` and is
judged by metamorphic invariants generalized from
:mod:`repro.fuzz.netmeta`:

1. **conservation** and per-engine FIFO order on the scenario's own
   (possibly lossy) topology;
2. **replay fidelity** — capturing the run's traffic as an explicit
   :class:`~repro.ixp.net.TraceEvent` trace and replaying it must
   reproduce the run packet for packet (arrival, steering, results,
   latency);
3. **flow affinity / per-flow order / loss-free completion** on
   oversize rings;
4. **engine-count independence** — the per-packet results of the
   captured trace are the same on 1 engine and on the scenario's
   engine count;
5. **latency monotone in offered load** — stretching every gap 4x
   must not raise the mean latency (beyond a poll-quantization slack).

A failing scenario is shrunk on *two axes*: ddmin over the traffic
trace (events carry explicit flows, so deleting events never re-steers
survivors) interleaved with the line shrinker over the program, and
persisted as a ``(program, trace, topology)`` witness artifact.

``novac fuzz --net`` runs campaigns of these scenarios over the
:mod:`repro.batch` pool; the campaign also replays the three
config-validation regressions (arrival typo, non-positive/oversize
rings, chip-seed aliasing) as live probes before fuzzing.  With
``--corpus-dir`` the campaign is coverage-guided: clean runs whose
:func:`~repro.ixp.net.coverage_signature` reaches an uncovered counter
bucket are persisted by :mod:`repro.fuzz.corpus`, and a
``--mutate-ratio`` fraction of later slots replays mutated corpus
entries instead of fresh generator scenarios.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field, replace

from repro.batch import scatter
from repro.compiler import CompileOptions, compile_nova
from repro.errors import NovaError, SimulatorError
from repro.fuzz.gen import ALL_FEATURES, GenConfig, GenProgram, generate
from repro.fuzz.netmeta import check_result
from repro.fuzz.shrink import ShrinkStats, shrink, shrink_list
from repro.ixp.machine import Machine
from repro.ixp.memory import MemorySystem
from repro.ixp.net import (
    ARRIVAL_MODES,
    STEER_MODES,
    NetConfig,
    NetRuntime,
    StreamApp,
    StreamPacket,
    StreamResult,
    TraceEvent,
    chip_seed,
    capture_trace,
    config_from_dict,
    config_to_dict,
    coverage_signature,
    run_stream,
    trace_from_json,
    trace_to_json,
)
from repro.trace import Tracer, emit_trace, ensure

#: program features safe under the streaming runtime: no ``memory``
#: (absolute SRAM/SDRAM/scratch addresses are shared across engines, so
#: packets would interfere and per-packet expectations would not be
#: computable) and no ``csr`` (per-engine control registers are shared
#: by that engine's threads).
STREAM_FEATURES = frozenset(ALL_FEATURES - {"memory", "csr"})

#: cycle budget for the single-thread reference run of one packet.
REFERENCE_MAX_CYCLES = 5_000_000

#: offered-load multiplier for the latency-monotonicity check.
LOAD_STRETCH = 4


class ScenarioInvalid(Exception):
    """The scenario itself is unusable (generator bug, not a finding)."""


@dataclass(frozen=True)
class NetGenConfig:
    """The scenario space one campaign samples from."""

    engine_choices: tuple[int, ...] = (1, 2, 3, 6)
    thread_choices: tuple[int, ...] = (1, 2, 4)
    rx_choices: tuple[int, ...] = (4, 8, 16, 48)
    tx_choices: tuple[int, ...] = (4, 8, 32)
    steer_choices: tuple[str, ...] = STEER_MODES
    arrival_choices: tuple[str, ...] = ARRIVAL_MODES
    min_packets: int = 8
    max_packets: int = 32
    mean_gap_choices: tuple[float, ...] = (12.0, 48.0, 200.0)
    burst_choices: tuple[int, ...] = (1, 2, 4)
    dispatch_choices: tuple[int, ...] = (0, 4, 8, 16)
    sink_gap_choices: tuple[int, ...] = (0, 0, 0, 25)
    #: flow-token pool size range: x0 draws from this many values.
    max_flows: int = 4
    #: program-shape knobs (kept small: the runtime, not the compiler,
    #: is under test here).
    gen: GenConfig = GenConfig(max_stmts=5, features=STREAM_FEATURES)


@dataclass
class NetScenario:
    """One seeded (program, traffic, topology) triple."""

    seed: int
    program: GenProgram
    config: NetConfig
    #: the flow-token pool packet payloads draw their first word from.
    flows: tuple[int, ...]


def gen_scenario(seed: int, config: NetGenConfig | None = None) -> NetScenario:
    """Deterministically derive one scenario from ``seed``."""
    config = config or NetGenConfig()
    program = generate(seed, config.gen)
    # A distinct stream from the program generator's Random(seed).
    rng = random.Random(f"net-{seed}")
    flows = tuple(
        rng.randrange(1 << 32)
        for _ in range(rng.randrange(1, config.max_flows + 1))
    )
    net = NetConfig(
        engines=rng.choice(config.engine_choices),
        threads=rng.choice(config.thread_choices),
        rx_capacity=rng.choice(config.rx_choices),
        tx_capacity=rng.choice(config.tx_choices),
        packets=rng.randrange(config.min_packets, config.max_packets + 1),
        seed=seed,
        arrival=rng.choice(config.arrival_choices),
        mean_gap=rng.choice(config.mean_gap_choices),
        burst=rng.choice(config.burst_choices),
        sink_gap=rng.choice(config.sink_gap_choices),
        steer=rng.choice(config.steer_choices),
        dispatch_cycles=rng.choice(config.dispatch_choices),
    )
    return NetScenario(seed=seed, program=program, config=net, flows=flows)


def _reference_results(comp, program: GenProgram, vector: dict) -> tuple:
    """Single-thread reference run: one packet's expected halt values.

    It runs on the interpreter, so a stream on the (default) compiled
    tier is checked against the oracle rather than against itself.
    """
    raw = comp.make_inputs(**vector)
    memory = MemorySystem.create()
    for space, chunks in (program.memory_image or {}).items():
        for addr, words in chunks:
            memory[space].load_words(addr, words)
    machine = Machine(
        comp.flowgraph,
        memory=memory,
        threads=1,
        physical=False,
        input_provider=lambda tid, it: dict(raw) if it == 0 else None,
        max_cycles=REFERENCE_MAX_CYCLES,
        mode="interp",
    )
    try:
        run = machine.run()
    except SimulatorError as exc:
        raise ScenarioInvalid(f"reference run failed: {exc}") from exc
    return tuple(run.results[0][1])


def build_scenario_app(
    scenario: NetScenario, source: str | None = None
) -> StreamApp:
    """Compile the scenario's program and wrap it as a streaming app.

    The packet payload is one word per ``main`` parameter; the first
    word is drawn from the scenario's flow-token pool and doubles as
    the flow key, so flows repeat across the stream.  Expected halt
    values come from a memoized single-thread reference run per
    distinct payload; the expected slot words are the payload itself
    (pinning the receive DMA and slot isolation).  ``source``
    substitutes a shrunk program body.
    """
    from repro.apps.aes_nova import AppBundle

    program = scenario.program
    src = program.source if source is None else source
    options = CompileOptions()
    options.run_allocator = False
    try:
        comp = compile_nova(src, f"gen{scenario.seed}.nova", options)
    except NovaError as exc:
        raise ScenarioInvalid(f"compile failed: {exc}") from exc
    bundle = AppBundle(
        name=f"gen{scenario.seed}",
        source=src,
        memory_image=program.memory_image or {},
        inputs={},
        payload_base=512,
    )
    params = program.params
    flows = scenario.flows
    expectations: dict[tuple, tuple] = {}

    def from_payload(seq: int, payload: tuple[int, ...]) -> StreamPacket:
        expected = expectations.get(payload)
        if expected is None:
            vector = dict(zip(params, payload))
            expected = _reference_results(comp, program, vector)
            expectations[payload] = expected
        return StreamPacket(
            seq=seq,
            payload_words=list(payload),
            payload_bytes=4 * len(payload),
            inputs=dict(zip(params, payload)),
            expected_results=expected,
            expected_words=list(payload),
        )

    def gen_packet(rng: random.Random, seq: int) -> StreamPacket:
        payload = (rng.choice(flows),) + tuple(
            rng.randrange(1 << 32) for _ in params[1:]
        )
        return from_payload(seq, payload)

    def replay(seq: int, event: TraceEvent) -> StreamPacket:
        return from_payload(seq, tuple(event.payload))

    def flow_key(packet: StreamPacket) -> int:
        return packet.payload_words[0] & 0xFFFFFFFF

    return StreamApp(
        name=f"gen{scenario.seed}",
        bundle=bundle,
        comp=comp,
        slot_words=len(params),
        generate=gen_packet,
        flow_key=flow_key,
        replay=replay,
    )


# --------------------------------------------------------------------------
# The net oracle: metamorphic invariants over one scenario
# --------------------------------------------------------------------------


def _fingerprints(result: StreamResult) -> list[tuple]:
    return [
        (
            p.seq,
            p.arrival,
            p.flow,
            p.engine,
            p.status,
            p.latency,
            tuple(p.payload_words),
            tuple(p.results),
        )
        for p in result.packets
    ]


def _oversize(config: NetConfig, trace: tuple, engines: int) -> NetConfig:
    """The trace on ``engines`` engines with rings nothing can drop from."""
    return replace(
        config,
        trace=trace,
        engines=engines,
        rx_capacity=len(trace) + 4,
        tx_capacity=len(trace) + 4,
    )


def _latency_slack(config: NetConfig) -> int:
    """Scheduling noise allowed by the latency-monotonicity check:
    idle workers and the sink re-poll on ``poll`` boundaries, so a
    *lighter* load can pay a few extra poll quanta per packet."""
    return 4 * config.poll + 2 * config.dispatch_cycles + 128


def trace_violations(
    app: StreamApp, config: NetConfig, trace: tuple[TraceEvent, ...]
) -> list[str]:
    """Metamorphic invariants of one captured trace (empty = pass).

    Replays the trace on the scenario topology (conservation, order,
    affinity under loss), on oversize rings at 1 and ``config.engines``
    engines (loss-free completion + engine-count independence), and at
    1/``LOAD_STRETCH`` the offered load (latency monotonicity).
    """
    if not trace:
        return []
    violations: list[str] = []
    lossy = run_stream(app, replace(config, trace=trace))
    violations.extend(
        f"[replay] {v}" for v in check_result(lossy, expect_no_drops=False)
    )

    outcomes: dict[int, list] = {}
    results: dict[int, StreamResult] = {}
    counts = sorted({1, config.engines})
    for engines in counts:
        result = run_stream(app, _oversize(config, trace, engines))
        results[engines] = result
        violations.extend(
            f"[{engines}e] {v}" for v in check_result(result)
        )
        if result.completed != result.generated:
            violations.append(
                f"[{engines}e] {result.generated - result.completed} "
                "packets missing despite oversize rings"
            )
        outcomes[engines] = sorted(
            (p.seq, tuple(p.results))
            for p in result.packets
            if p.status == "done"
        )
    baseline = outcomes[counts[0]]
    for engines in counts[1:]:
        if outcomes[engines] != baseline:
            violations.append(
                f"per-packet results differ between {counts[0]} and "
                f"{engines} engines"
            )

    heavy = results[config.engines]
    light_trace = tuple(
        replace(event, gap=event.gap * LOAD_STRETCH) for event in trace
    )
    light = run_stream(
        app, _oversize(config, light_trace, config.engines)
    )
    if heavy.latencies and light.latencies:
        mean_heavy = sum(heavy.latencies) / len(heavy.latencies)
        mean_light = sum(light.latencies) / len(light.latencies)
        if mean_light > mean_heavy + _latency_slack(config):
            violations.append(
                "latency not monotone in offered load: mean "
                f"{mean_light:.0f} cycles at 1/{LOAD_STRETCH} the load "
                f"vs {mean_heavy:.0f} at full load"
            )
    return violations


@dataclass
class ScenarioReport:
    """Everything the net oracle concluded about one scenario."""

    seed: int
    violations: list[str] = field(default_factory=list)
    trace: tuple[TraceEvent, ...] | None = None
    invalid: str | None = None
    #: :func:`repro.ixp.net.coverage_signature` of the seeded run —
    #: the corpus layer's retention signal.
    signature: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return self.invalid is None and not self.violations


def check_scenario(
    scenario: NetScenario, app: StreamApp | None = None
) -> ScenarioReport:
    """Run one scenario through every net invariant."""
    try:
        app = app or build_scenario_app(scenario)
        seeded = run_stream(app, scenario.config)
    except ScenarioInvalid as exc:
        return ScenarioReport(seed=scenario.seed, invalid=str(exc))
    report = ScenarioReport(seed=scenario.seed)
    report.signature = coverage_signature(seeded)
    report.violations.extend(
        f"[seeded] {v}"
        for v in check_result(seeded, expect_no_drops=False)
    )
    report.trace = capture_trace(seeded)
    replayed = run_stream(app, replace(scenario.config, trace=report.trace))
    if _fingerprints(replayed) != _fingerprints(seeded):
        diffs = [
            f"pkt {a[0]}: seeded={a} replayed={b}"
            for a, b in zip(_fingerprints(seeded), _fingerprints(replayed))
            if a != b
        ]
        report.violations.append(
            "trace replay diverged from the seeded run: "
            + "; ".join(diffs[:3])
        )
    report.violations.extend(
        trace_violations(app, scenario.config, report.trace)
    )
    return report


# --------------------------------------------------------------------------
# Two-axis shrinking and witness artifacts
# --------------------------------------------------------------------------


def shrink_scenario(
    scenario: NetScenario,
    app: StreamApp,
    trace: tuple[TraceEvent, ...],
    max_predicate_calls: int = 160,
) -> tuple[str, tuple[TraceEvent, ...], dict]:
    """Minimize a failing scenario on both axes.

    ddmin over the traffic trace first (cheap — no recompilation; the
    events' explicit flows keep survivors steering identically), then
    the line shrinker over the program (each candidate recompiles and
    replays the minimized trace), then one more trace pass against the
    minimized program.  A candidate is interesting iff *any* net
    invariant still fails.  Returns ``(source, trace, stats)``.
    """
    config = scenario.config

    def trace_fails(app_: StreamApp):
        def predicate(events: list) -> bool:
            try:
                return bool(trace_violations(app_, config, tuple(events)))
            except Exception:
                return False

        return predicate

    budgets = (
        max_predicate_calls // 2,
        max_predicate_calls // 4,
        max_predicate_calls // 4,
    )
    events, trace_stats = shrink_list(
        list(trace), trace_fails(app), max_predicate_calls=budgets[0]
    )
    minimized_trace = tuple(events)

    def source_fails(source: str) -> bool:
        try:
            candidate = build_scenario_app(scenario, source=source)
            return bool(
                trace_violations(candidate, config, minimized_trace)
            )
        except Exception:
            return False

    minimized_source, line_stats = shrink(
        scenario.program.source, source_fails, max_predicate_calls=budgets[1]
    )
    try:
        minimized_app = build_scenario_app(scenario, source=minimized_source)
    except ScenarioInvalid:
        minimized_app = app
        minimized_source = scenario.program.source
    events, trace_stats2 = shrink_list(
        list(minimized_trace),
        trace_fails(minimized_app),
        max_predicate_calls=budgets[2],
    )
    minimized_trace = tuple(events)
    stats = {
        "predicate_calls": (
            trace_stats.predicate_calls
            + line_stats.predicate_calls
            + trace_stats2.predicate_calls
        ),
        "events_before": len(trace),
        "events_after": len(minimized_trace),
        "lines_before": line_stats.lines_before,
        "lines_after": line_stats.lines_after,
    }
    return minimized_source, minimized_trace, stats


@dataclass
class NetArtifact:
    """On-disk witness for one net finding."""

    directory: str
    program_path: str
    minimized_path: str
    trace_path: str
    minimized_trace_path: str
    report_path: str


def write_net_artifact(
    directory,
    scenario: NetScenario,
    report: ScenarioReport,
    minimized_source: str | None = None,
    minimized_trace: tuple[TraceEvent, ...] | None = None,
    shrink_stats: dict | None = None,
) -> NetArtifact:
    """Persist a ``(program, trace, topology)`` witness directory."""
    from pathlib import Path

    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    program_path = path / "program.nova"
    program_path.write_text(scenario.program.source)
    minimized_path = path / "minimized.nova"
    if minimized_source is not None:
        minimized_path.write_text(minimized_source)
    trace_path = path / "trace.json"
    if report.trace is not None:
        trace_path.write_text(
            json.dumps(trace_to_json(report.trace)) + "\n"
        )
    minimized_trace_path = path / "minimized-trace.json"
    if minimized_trace is not None:
        minimized_trace_path.write_text(
            json.dumps(trace_to_json(minimized_trace)) + "\n"
        )
    topology = config_to_dict(scenario.config)
    payload = {
        "seed": scenario.seed,
        "flows": list(scenario.flows),
        "topology": topology,
        "violations": list(report.violations),
        "invalid": report.invalid,
    }
    if shrink_stats is not None:
        payload["shrink"] = dict(shrink_stats)
    report_path = path / "report.json"
    report_path.write_text(json.dumps(payload, indent=2) + "\n")
    return NetArtifact(
        directory=str(path),
        program_path=str(program_path),
        minimized_path=str(minimized_path),
        trace_path=str(trace_path),
        minimized_trace_path=str(minimized_trace_path),
        report_path=str(report_path),
    )


# --------------------------------------------------------------------------
# Campaign driver + ``novac fuzz --net``
# --------------------------------------------------------------------------


def validation_probes() -> list[str]:
    """Replay the three config-validation regressions as live probes.

    Campaigns run these first: each probe is the exact class of
    misconfiguration the validation bugfixes guard against (arrival
    typo, non-positive capacity, ring layout underflow, chip-seed
    aliasing) and must be rejected loudly.  Returns failures.
    """
    failures: list[str] = []
    scenario = gen_scenario(0)
    app = build_scenario_app(scenario)
    rejected = [
        ("arrival typo", replace(scenario.config, arrival="bursty")),
        ("rx_capacity=0", replace(scenario.config, rx_capacity=0)),
        ("tx_capacity=-4", replace(scenario.config, tx_capacity=-4)),
        (
            "ring layout underflow",
            replace(scenario.config, engines=6, rx_capacity=2048),
        ),
    ]
    for name, config in rejected:
        try:
            NetRuntime(app, config)
        except ValueError:
            continue
        failures.append(f"probe '{name}' was accepted instead of rejected")
    if chip_seed(0, 1) == chip_seed(1, 0):
        failures.append(
            "chip seeds alias: chip_seed(0, 1) == chip_seed(1, 0)"
        )
    return failures


@dataclass
class NetUnit:
    """Verdict for one scenario slot (fresh seed or corpus mutant)."""

    seed: int
    ok: bool
    seconds: float
    violations: list = field(default_factory=list)
    invalid: str | None = None
    #: provenance: ``fresh`` or ``mutant:<op>``.
    origin: str = "fresh"
    #: parent corpus entry id (mutants only).
    parent: str | None = None
    #: coverage signature of the seeded run (corpus retention signal).
    signature: tuple = ()
    #: captured trace as JSON rows, shipped back for corpus intake.
    trace_rows: list | None = None


@dataclass
class NetFuzzResult:
    units: list[NetUnit]
    seconds: float
    jobs: int
    artifacts: list = field(default_factory=list)
    probe_failures: list = field(default_factory=list)
    #: corpus accounting when the campaign ran with ``corpus_dir``.
    corpus: dict | None = None

    @property
    def failed(self) -> list[NetUnit]:
        return [u for u in self.units if not u.ok]

    @property
    def invalid(self) -> list[NetUnit]:
        return [u for u in self.units if u.invalid is not None]

    def summary(self) -> dict:
        out = {
            "scenarios": len(self.units),
            "ok": sum(1 for u in self.units if u.ok),
            "violating": len(self.failed) - len(self.invalid),
            "invalid": len(self.invalid),
            "mutants": sum(
                1 for u in self.units if u.origin.startswith("mutant")
            ),
            "probe_failures": len(self.probe_failures),
            "jobs": self.jobs,
            "seconds": round(self.seconds, 3),
        }
        if self.corpus is not None:
            out["corpus"] = dict(self.corpus)
        return out


def _scenario_from_task(task: dict, gen_config: NetGenConfig) -> NetScenario:
    """Rebuild the scenario a campaign task describes.

    ``fresh`` tasks re-derive everything from the seed (nothing but the
    int crosses the process boundary); ``mutant`` tasks carry the
    corpus entry's stored program plus the mutated trace/topology as
    plain JSON rows, and their scenario config replays that trace.
    """
    if task["kind"] == "fresh":
        return gen_scenario(task["seed"], gen_config)
    from repro.fuzz.corpus import StoredProgram

    config = replace(
        config_from_dict(task["topology"]),
        trace=trace_from_json(task["trace"]),
    )
    return NetScenario(
        seed=task["seed"],
        program=StoredProgram(
            seed=task["seed"],
            source=task["source"],
            params=tuple(task["params"]),
        ),
        config=config,
        flows=tuple(task["flows"]),
    )


def _net_unit(
    task: dict, gen_config: NetGenConfig, trace: bool
) -> tuple[NetUnit, list]:
    """One scenario: rebuild, check, report.  Runs in pool workers."""
    tracer = Tracer() if trace else None
    span_source = ensure(tracer)
    start = time.perf_counter()
    seed = task["seed"]
    origin = task.get("origin", "fresh")
    parent = task.get("parent")
    with span_source.span("netfuzz.unit", seed=seed, origin=origin) as sp:
        try:
            scenario = _scenario_from_task(task, gen_config)
            report = check_scenario(scenario)
        except Exception as exc:  # an internal crash is a finding too
            unit = NetUnit(
                seed=seed,
                ok=False,
                seconds=time.perf_counter() - start,
                violations=[
                    f"internal error: {type(exc).__name__}: {exc}"
                ],
                origin=origin,
                parent=parent,
            )
            if sp:
                sp.add(outcome="internal-error")
            return unit, list(span_source.spans) if tracer else []
        unit = NetUnit(
            seed=seed,
            ok=report.ok,
            seconds=time.perf_counter() - start,
            violations=list(report.violations),
            invalid=report.invalid,
            origin=origin,
            parent=parent,
            signature=tuple(report.signature),
            trace_rows=(
                trace_to_json(report.trace)
                if report.trace is not None
                else None
            ),
        )
        if sp:
            sp.add(outcome="ok" if report.ok else "violating")
    return unit, list(span_source.spans) if tracer else []


def run_net_campaign(
    seed: int = 0,
    count: int = 100,
    jobs: int = 1,
    gen_config: NetGenConfig | None = None,
    artifact_dir: str = ".netfuzz-artifacts",
    tracer=None,
    shrink_budget: int = 160,
    shrink_findings: bool = True,
    pool=None,
    corpus_dir=None,
    mutate_ratio: float = 0.5,
) -> NetFuzzResult:
    """Fuzz ``count`` streaming scenarios from ``seed`` upward.

    Mirrors :func:`repro.fuzz.driver.run_campaign`: scenarios fan out
    over the batch pool (each worker re-derives its scenario from the
    seed), violating seeds are re-run and two-axis-shrunk in the
    driver process, and every finding becomes a witness directory
    under ``artifact_dir``.  The three validation-regression probes
    run first and are reported alongside scenario verdicts.
    ``pool`` reuses an existing executor across campaigns (see
    :func:`repro.batch.scatter`).

    With ``corpus_dir``, the campaign goes coverage-guided: each slot
    is a corpus mutant with probability ``mutate_ratio`` (when the
    store has entries to mutate) and a fresh generator scenario
    otherwise; every clean run whose signature lights up an uncovered
    feature is retained, and the store is minimized afterwards.
    """
    gen_config = gen_config or NetGenConfig()
    tracer = ensure(tracer)
    start = time.perf_counter()
    store = None
    corpus_stats = None
    if corpus_dir is not None:
        from repro.fuzz.corpus import (
            CorpusStore,
            entry_from_scenario,
            mutate_entry,
        )

        store = CorpusStore(corpus_dir)
    with tracer.span("netfuzz", seed=seed, count=count, jobs=jobs) as sp:
        probe_failures = validation_probes()
        rng = random.Random(f"netfuzz-corpus-{seed}")
        tasks: list[dict] = []
        for s in range(seed, seed + count):
            if (
                store is not None
                and len(store)
                and rng.random() < mutate_ratio
            ):
                entry = store.pick(rng)
                op, trace, config = mutate_entry(rng, entry, gen_config)
                tasks.append(
                    {
                        "kind": "mutant",
                        "seed": s,
                        "source": entry.source,
                        "params": list(entry.params),
                        "flows": list(entry.flows),
                        "trace": trace_to_json(trace),
                        "topology": config_to_dict(config),
                        "origin": f"mutant:{op}",
                        "parent": entry.entry_id,
                    }
                )
            else:
                tasks.append({"kind": "fresh", "seed": s})
        outcomes = scatter(
            _net_unit,
            [(task, gen_config, tracer.enabled) for task in tasks],
            jobs,
            pool=pool,
        )
        units = []
        for unit, spans in outcomes:
            units.append(unit)
            tracer.adopt(spans, parent="netfuzz")
        if store is not None:
            retained = 0
            new_features = 0
            for task, unit in zip(tasks, units):
                if (
                    not unit.ok
                    or not unit.signature
                    or unit.trace_rows is None
                ):
                    continue
                entry = entry_from_scenario(
                    _scenario_from_task(task, gen_config),
                    trace_from_json(unit.trace_rows),
                    unit.signature,
                    origin=unit.origin,
                    parent=unit.parent,
                )
                fresh_features = store.consider(entry)
                if fresh_features:
                    retained += 1
                    new_features += len(fresh_features)
            removed = store.minimize()
            corpus_stats = dict(store.summary())
            corpus_stats.update(
                retained=retained,
                new_features=new_features,
                minimized_away=len(removed),
            )
        artifacts = []
        for task, unit in zip(tasks, units):
            if unit.ok or unit.invalid is not None:
                continue
            with tracer.span("netfuzz.shrink", seed=unit.seed):
                scenario = _scenario_from_task(task, gen_config)
                report = check_scenario(scenario)
                minimized_source = None
                minimized_trace = None
                stats = None
                if (
                    shrink_findings
                    and report.trace
                    and not report.ok
                ):
                    app = build_scenario_app(scenario)
                    minimized_source, minimized_trace, stats = (
                        shrink_scenario(
                            scenario,
                            app,
                            report.trace,
                            max_predicate_calls=shrink_budget,
                        )
                    )
                artifacts.append(
                    write_net_artifact(
                        f"{artifact_dir}/net-seed{unit.seed}",
                        scenario,
                        report,
                        minimized_source=minimized_source,
                        minimized_trace=minimized_trace,
                        shrink_stats=stats,
                    )
                )
        if sp:
            sp.add(
                ok=sum(1 for u in units if u.ok),
                violating=sum(
                    1 for u in units if not u.ok and u.invalid is None
                ),
                invalid=sum(1 for u in units if u.invalid is not None),
                probe_failures=len(probe_failures),
            )
    return NetFuzzResult(
        units=units,
        seconds=time.perf_counter() - start,
        jobs=jobs,
        artifacts=artifacts,
        probe_failures=probe_failures,
        corpus=corpus_stats,
    )


def netfuzz_main(argv: list | None = None) -> int:
    """``novac fuzz --net`` — streaming-scenario fuzzing subcommand."""
    import argparse
    import sys

    parser = argparse.ArgumentParser(
        prog="novac fuzz --net",
        description="fuzz the streaming runtime with random "
        "(program, traffic, topology) scenarios under metamorphic "
        "invariants",
    )
    parser.add_argument("--seed", type=int, default=0, help="first seed")
    parser.add_argument(
        "--count", type=int, default=100, help="number of scenarios"
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N", help="parallel workers"
    )
    parser.add_argument(
        "--artifact-dir",
        default=".netfuzz-artifacts",
        help="directory for witness artifacts (default %(default)s)",
    )
    parser.add_argument(
        "--max-stmts", type=int, default=5, help="program size knob"
    )
    parser.add_argument(
        "--max-packets",
        type=int,
        default=32,
        help="largest per-scenario packet budget (default %(default)s)",
    )
    parser.add_argument(
        "--no-shrink",
        action="store_true",
        help="skip minimization of findings (faster triage-later mode)",
    )
    parser.add_argument(
        "--corpus-dir",
        default=None,
        metavar="DIR",
        help="persistent coverage-guided corpus directory; retained "
        "scenarios seed mutants in this and later campaigns",
    )
    parser.add_argument(
        "--mutate-ratio",
        type=float,
        default=0.5,
        metavar="R",
        help="fraction of scenario slots fed from corpus mutants when "
        "the corpus is non-empty (default %(default)s)",
    )
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--trace-json", metavar="FILE")
    args = parser.parse_args(argv)

    if args.max_packets < 2:
        print("novac fuzz --net: --max-packets must be >= 2", file=sys.stderr)
        return 2
    if not 0.0 <= args.mutate_ratio <= 1.0:
        print(
            "novac fuzz --net: --mutate-ratio must be in [0, 1]",
            file=sys.stderr,
        )
        return 2
    gen_config = NetGenConfig(
        min_packets=min(8, args.max_packets),
        max_packets=args.max_packets,
        gen=GenConfig(max_stmts=args.max_stmts, features=STREAM_FEATURES),
    )
    tracer = Tracer() if (args.trace or args.trace_json) else None

    result = run_net_campaign(
        seed=args.seed,
        count=args.count,
        jobs=args.jobs,
        gen_config=gen_config,
        artifact_dir=args.artifact_dir,
        tracer=tracer,
        shrink_findings=not args.no_shrink,
        corpus_dir=args.corpus_dir,
        mutate_ratio=args.mutate_ratio,
    )

    for failure in result.probe_failures:
        print(f"validation probe FAILED: {failure}")
    for unit in result.units:
        if unit.invalid is not None:
            print(f"seed {unit.seed}: INVALID ({unit.invalid})")
        elif not unit.ok:
            print(f"seed {unit.seed}: VIOLATING")
            for violation in unit.violations:
                print(f"  {violation}")
    for artifact in result.artifacts:
        print(f"witness artifact: {artifact.directory}")
    if result.corpus is not None:
        corpus = result.corpus
        print(
            f"corpus: {corpus['entries']} entries covering "
            f"{corpus['covered_features']} features "
            f"(+{corpus['retained']} retained, "
            f"{corpus['minimized_away']} minimized away) in "
            f"{corpus['directory']}"
        )
    summary = result.summary()
    print(
        f"netfuzz: {summary['ok']}/{summary['scenarios']} ok, "
        f"{summary['violating']} violating, {summary['invalid']} invalid, "
        f"{summary['probe_failures']} probe failures in "
        f"{summary['seconds']:.1f}s (jobs={summary['jobs']})"
    )
    code = (
        1
        if (result.failed or result.invalid or result.probe_failures)
        else 0
    )
    return (
        emit_trace(tracer, "novac fuzz --net", args.trace, args.trace_json)
        or code
    )
