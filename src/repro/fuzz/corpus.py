"""``repro.fuzz.corpus`` — a coverage-guided record/replay corpus.

PR 7 made traffic a first-class, replayable artifact
(:class:`~repro.ixp.net.TraceEvent`, ``NetConfig.trace``,
:func:`~repro.ixp.net.capture_trace`); this module stops throwing the
interesting ones away.  A :class:`CorpusStore` persists
``(program, trace, topology)`` scenarios as JSON entries compatible
with the witness-artifact layout, and an entry is retained iff its
run's :func:`~repro.ixp.net.coverage_signature` lights up a counter
bucket — a ring high-water, drop or backpressure-stall log2 bucket, a
latency-histogram cell, a topology — that no stored entry reached.

The **mutation engine** turns retained entries back into new scenarios:

- ``splice`` — cut a contiguous run of trace events and reinsert it
  elsewhere (cross-flow reordering at the schedule level);
- ``duplicate`` — replay a short burst of events a second time;
- ``reorder`` — swap two events (a local inversion ddmin cannot reach,
  since deletion alone never *creates* an inversion);
- ``gap_jitter`` — squeeze or stretch inter-arrival gaps (bursts,
  lulls, zero-gap pileups);
- ``retoken`` — remap one flow's token to another token from the
  entry's flow pool (flow collision / rebalance; the payload's flow
  word moves with it, so replay expectations stay derivable);
- ``topology`` — replay the trace unchanged on a freshly drawn
  topology (engine count, ring capacities, steer mode).

Every mutation preserves trace validity: gaps stay non-negative
integers, payload words stay 32-bit, flows stay inside the entry's
flow pool — :func:`trace_problems` is the executable definition, and
``tests/test_corpus_props.py`` holds hypothesis to it.

The campaign driver (:func:`repro.fuzz.netgen.run_net_campaign` with
``corpus_dir=``, i.e. ``novac fuzz --net --corpus-dir``) mixes fresh
generator scenarios with corpus mutants at ``mutate_ratio``, feeds
every clean run's signature back into the store, and finishes with
:meth:`CorpusStore.minimize` so subsumed entries don't accumulate.
CI caches the directory across nightly runs, so coverage accumulates.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.ixp.net import (
    NetConfig,
    TraceEvent,
    capture_trace,
    config_from_dict,
    config_to_dict,
    coverage_signature,
    run_stream,
    trace_from_json,
    trace_to_json,
)

#: recognised mutation operators (``mutate_entry`` draws uniformly).
MUTATIONS = (
    "splice",
    "duplicate",
    "reorder",
    "gap_jitter",
    "retoken",
    "topology",
)

#: the trace-shaped subset of :data:`MUTATIONS` (no topology swap).
TRACE_MUTATIONS = tuple(op for op in MUTATIONS if op != "topology")

#: gap multipliers for ``gap_jitter`` (0 builds zero-gap bursts).
_GAP_SCALES = (0, 0, 1, 2, 4)

_WORD_MASK = 0xFFFFFFFF


@dataclass(frozen=True)
class StoredProgram:
    """A corpus entry's program, shaped like :class:`~repro.fuzz.gen.
    GenProgram` as far as the streaming fuzzer cares.

    Entries store the program *source* (not just the seed), so replay
    does not depend on the generator staying bit-identical across
    versions; ``params`` pins the payload-word binding order.  Corpus
    scenarios come from :data:`~repro.fuzz.netgen.STREAM_FEATURES`
    programs, which never preload memory.
    """

    seed: int
    source: str
    params: tuple[str, ...]
    memory_image: dict = field(default_factory=dict)


@dataclass(frozen=True)
class CorpusEntry:
    """One persisted ``(program, trace, topology)`` scenario."""

    entry_id: str
    seed: int
    source: str
    params: tuple[str, ...]
    #: the flow-token pool mutations may draw from (``retoken``).
    flows: tuple[int, ...]
    trace: tuple[TraceEvent, ...]
    #: :func:`~repro.ixp.net.config_to_dict` topology (no trace, no
    #: simulator tier).
    topology: dict
    #: :func:`~repro.ixp.net.coverage_signature` of the recorded run.
    signature: tuple[str, ...]
    #: provenance: ``fresh``, ``mutant:<op>`` or ``probe``.
    origin: str = "fresh"
    #: parent entry id for mutants.
    parent: str | None = None
    #: the features this entry covered first (discovery stats).
    new_features: tuple[str, ...] = ()

    def config(self) -> NetConfig:
        """The entry's topology as a :class:`NetConfig` (no trace)."""
        return config_from_dict(self.topology)

    def scenario(self, with_trace: bool = True):
        """Rebuild a :class:`~repro.fuzz.netgen.NetScenario` whose
        config replays this entry's trace (``with_trace=False`` leaves
        the seeded-source knobs in charge)."""
        from repro.fuzz.netgen import NetScenario

        config = self.config()
        if with_trace:
            config = replace(config, trace=self.trace)
        return NetScenario(
            seed=self.seed,
            program=StoredProgram(
                seed=self.seed, source=self.source, params=self.params
            ),
            config=config,
            flows=self.flows,
        )


def entry_id_for(source: str, trace: tuple[TraceEvent, ...], topology: dict) -> str:
    """Content-addressed entry id over the three scenario axes."""
    payload = json.dumps(
        {
            "program": source,
            "trace": trace_to_json(trace),
            "topology": topology,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def entry_from_scenario(
    scenario,
    trace: tuple[TraceEvent, ...],
    signature: tuple[str, ...],
    origin: str = "fresh",
    parent: str | None = None,
) -> CorpusEntry:
    """Build a :class:`CorpusEntry` from a checked scenario's captured
    trace and coverage signature."""
    topology = config_to_dict(scenario.config)
    return CorpusEntry(
        entry_id=entry_id_for(scenario.program.source, trace, topology),
        seed=scenario.seed,
        source=scenario.program.source,
        params=tuple(scenario.program.params),
        flows=tuple(scenario.flows),
        trace=tuple(trace),
        topology=topology,
        signature=tuple(signature),
        origin=origin,
        parent=parent,
    )


def _entry_to_json(entry: CorpusEntry) -> dict:
    return {
        "entry_id": entry.entry_id,
        "seed": entry.seed,
        "program": entry.source,
        "params": list(entry.params),
        "flows": list(entry.flows),
        "trace": trace_to_json(entry.trace),
        "topology": dict(entry.topology),
        "signature": list(entry.signature),
        "origin": entry.origin,
        "parent": entry.parent,
        "new_features": list(entry.new_features),
    }


def _entry_from_json(data: dict) -> CorpusEntry:
    return CorpusEntry(
        entry_id=data["entry_id"],
        seed=data["seed"],
        source=data["program"],
        params=tuple(data["params"]),
        flows=tuple(data["flows"]),
        trace=trace_from_json(data["trace"]),
        topology=dict(data["topology"]),
        signature=tuple(data["signature"]),
        origin=data.get("origin", "fresh"),
        parent=data.get("parent"),
        new_features=tuple(data.get("new_features", ())),
    )


class CorpusStore:
    """A directory of corpus entries with a union coverage map.

    Layout: one ``entry-<id>.json`` per retained scenario (the id is
    content-addressed over program + trace + topology, so re-adding an
    identical scenario is naturally idempotent).  The store keeps the
    union of every entry's signature in :attr:`covered`;
    :meth:`consider` retains an entry iff it contributes at least one
    uncovered feature.
    """

    def __init__(self, directory):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.entries: dict[str, CorpusEntry] = {}
        self.covered: set[str] = set()
        for path in sorted(self.directory.glob("entry-*.json")):
            entry = _entry_from_json(json.loads(path.read_text()))
            self.entries[entry.entry_id] = entry
            self.covered |= set(entry.signature)

    def __len__(self) -> int:
        return len(self.entries)

    def _path(self, entry_id: str) -> Path:
        return self.directory / f"entry-{entry_id}.json"

    def _write(self, entry: CorpusEntry) -> None:
        self._path(entry.entry_id).write_text(
            json.dumps(_entry_to_json(entry), indent=2, sort_keys=True) + "\n"
        )

    def add(self, entry: CorpusEntry) -> None:
        """Retain unconditionally (seeding probes and tests)."""
        self.entries[entry.entry_id] = entry
        self.covered |= set(entry.signature)
        self._write(entry)

    def consider(self, entry: CorpusEntry) -> tuple[str, ...]:
        """Retain ``entry`` iff it is coverage-novel.

        Returns the features it covered first — empty means the entry
        was subsumed by the existing corpus and discarded.
        """
        new = tuple(sorted(set(entry.signature) - self.covered))
        if not new:
            return ()
        self.add(replace(entry, new_features=new))
        return new

    def minimize(self) -> list[str]:
        """Drop entries whose signature is subsumed by the kept set.

        Greedy set cover over the union coverage: repeatedly keep the
        entry covering the most still-uncovered features (ties broken
        by entry id, so minimization is deterministic), then delete
        everything that no longer contributes.  Returns removed ids.
        """
        remaining = dict(self.entries)
        keep: dict[str, CorpusEntry] = {}
        covered: set[str] = set()
        while remaining:
            best = max(
                remaining.values(),
                key=lambda e: (len(set(e.signature) - covered), e.entry_id),
            )
            if not set(best.signature) - covered:
                break
            keep[best.entry_id] = best
            covered |= set(best.signature)
            del remaining[best.entry_id]
        removed = [eid for eid in self.entries if eid not in keep]
        for entry_id in removed:
            self._path(entry_id).unlink(missing_ok=True)
        self.entries = keep
        return removed

    def pick(self, rng: random.Random) -> CorpusEntry:
        """A deterministic random entry (sorted ids, then choice)."""
        if not self.entries:
            raise ValueError("corpus is empty")
        return self.entries[rng.choice(sorted(self.entries))]

    def verify(self) -> list[str]:
        """Replay every entry; returns problems (empty = all faithful)."""
        problems: list[str] = []
        for entry_id in sorted(self.entries):
            problems.extend(verify_entry(self.entries[entry_id]))
        return problems

    def summary(self) -> dict:
        return {
            "entries": len(self.entries),
            "covered_features": len(self.covered),
            "directory": str(self.directory),
        }


def verify_entry(entry: CorpusEntry) -> list[str]:
    """Replay one entry and check it reproduces its recorded run.

    Packet-for-packet fidelity without storing packets: replaying the
    stored trace must (a) re-capture to *exactly* the stored trace —
    same arrivals, flows, payload words and sizes — and (b) reproduce
    the recorded coverage signature, which pins every ring high-water,
    drop count, steered count and latency bucket of the original run.
    """
    from repro.fuzz.netgen import ScenarioInvalid, build_scenario_app

    scenario = entry.scenario()
    try:
        app = build_scenario_app(scenario)
    except ScenarioInvalid as exc:
        return [f"entry {entry.entry_id}: stored program unusable: {exc}"]
    result = run_stream(app, scenario.config)
    problems = []
    if capture_trace(result) != entry.trace:
        problems.append(
            f"entry {entry.entry_id}: replay diverged from the stored trace"
        )
    signature = coverage_signature(result)
    if signature != entry.signature:
        missing = set(entry.signature) - set(signature)
        gained = set(signature) - set(entry.signature)
        problems.append(
            f"entry {entry.entry_id}: replay signature drifted "
            f"(-{sorted(missing)} +{sorted(gained)})"
        )
    return problems


# --------------------------------------------------------------------------
# The mutation engine
# --------------------------------------------------------------------------


def trace_problems(
    trace: tuple[TraceEvent, ...], flows: tuple[int, ...] | None = None
) -> list[str]:
    """Validity violations of a (possibly mutated) trace (empty = ok).

    The executable contract every mutation must preserve: non-empty,
    non-negative integer gaps, 32-bit payload words, and — when the
    entry's flow pool is given — every event's flow drawn from it.
    A trace that passes here is accepted by ``NetConfig.trace``
    validation and replayable by any app with a ``replay`` constructor.
    """
    problems: list[str] = []
    if not trace:
        return ["trace is empty"]
    pool = set(flows) if flows else None
    for index, event in enumerate(trace):
        if not isinstance(event.gap, int) or event.gap < 0:
            problems.append(f"event {index}: bad gap {event.gap!r}")
        for word in event.payload:
            if not isinstance(word, int) or not 0 <= word <= _WORD_MASK:
                problems.append(f"event {index}: bad payload word {word!r}")
        if event.flow is not None and not isinstance(event.flow, int):
            problems.append(f"event {index}: bad flow {event.flow!r}")
        if pool is not None and event.flow is not None and event.flow not in pool:
            problems.append(
                f"event {index}: flow {event.flow:#x} outside the pool"
            )
    return problems


def _splice(rng: random.Random, events: list[TraceEvent]) -> list[TraceEvent]:
    if len(events) < 2:
        return events
    length = rng.randrange(1, max(2, len(events) // 2))
    start = rng.randrange(0, len(events) - length + 1)
    segment = events[start : start + length]
    rest = events[:start] + events[start + length :]
    at = rng.randrange(0, len(rest) + 1)
    return rest[:at] + segment + rest[at:]


def _duplicate(rng: random.Random, events: list[TraceEvent]) -> list[TraceEvent]:
    length = rng.randrange(1, min(4, len(events)) + 1)
    start = rng.randrange(0, len(events) - length + 1)
    segment = events[start : start + length]
    at = rng.randrange(0, len(events) + 1)
    return events[:at] + segment + events[at:]


def _reorder(rng: random.Random, events: list[TraceEvent]) -> list[TraceEvent]:
    if len(events) < 2:
        return events
    i = rng.randrange(0, len(events))
    j = rng.randrange(0, len(events))
    events = list(events)
    events[i], events[j] = events[j], events[i]
    return events


def _gap_jitter(rng: random.Random, events: list[TraceEvent]) -> list[TraceEvent]:
    out = []
    for event in events:
        if rng.random() < 0.5:
            event = replace(
                event, gap=int(event.gap * rng.choice(_GAP_SCALES))
            )
        out.append(event)
    return out


def _retoken(
    rng: random.Random, events: list[TraceEvent], flows: tuple[int, ...]
) -> list[TraceEvent]:
    present = sorted({e.flow for e in events if e.flow is not None})
    if not present or not flows:
        return events
    old = rng.choice(present)
    new = rng.choice(flows)
    out = []
    for event in events:
        if event.flow == old:
            payload = event.payload
            if payload:
                # generated scenario payloads carry the flow token in
                # word 0 (it doubles as the app's flow key) — move it
                # with the flow so replay expectations stay derivable.
                payload = (new & _WORD_MASK,) + payload[1:]
            event = replace(event, flow=new, payload=payload)
        out.append(event)
    return out


def mutate_trace(
    rng: random.Random,
    op: str,
    trace: tuple[TraceEvent, ...],
    flows: tuple[int, ...],
) -> tuple[TraceEvent, ...]:
    """Apply one named trace mutation; always returns a valid trace."""
    events = list(trace)
    if op == "splice":
        events = _splice(rng, events)
    elif op == "duplicate":
        events = _duplicate(rng, events)
    elif op == "reorder":
        events = _reorder(rng, events)
    elif op == "gap_jitter":
        events = _gap_jitter(rng, events)
    elif op == "retoken":
        events = _retoken(rng, events, flows)
    else:
        raise ValueError(f"unknown trace mutation '{op}'")
    return tuple(events)


def mutate_topology(
    rng: random.Random, config: NetConfig, gen_config=None
) -> NetConfig:
    """A fresh topology for cross-topology replay, drawn from the same
    choice space the scenario generator samples (so every swap is a
    topology the runtime accepts)."""
    if gen_config is None:
        from repro.fuzz.netgen import NetGenConfig

        gen_config = NetGenConfig()
    return replace(
        config,
        engines=rng.choice(gen_config.engine_choices),
        threads=rng.choice(gen_config.thread_choices),
        rx_capacity=rng.choice(gen_config.rx_choices),
        tx_capacity=rng.choice(gen_config.tx_choices),
        steer=rng.choice(gen_config.steer_choices),
        dispatch_cycles=rng.choice(gen_config.dispatch_choices),
    )


def mutate_entry(
    rng: random.Random, entry: CorpusEntry, gen_config=None
) -> tuple[str, tuple[TraceEvent, ...], NetConfig]:
    """One mutated scenario from a corpus entry.

    Draws an operator uniformly from :data:`MUTATIONS` and returns
    ``(op, trace, config)`` — ``topology`` keeps the trace and swaps
    the config, every other operator keeps the config and mutates the
    trace.
    """
    op = rng.choice(MUTATIONS)
    if op == "topology":
        return op, entry.trace, mutate_topology(rng, entry.config(), gen_config)
    return op, mutate_trace(rng, op, entry.trace, entry.flows), entry.config()
