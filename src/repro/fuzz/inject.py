"""Deliberate bug injection — sanity checks for the oracles.

A differential fuzzer that has never caught a bug proves nothing; these
context managers break the compiler (:func:`broken_constant_fold`), the
compiled simulator tier (:func:`broken_codegen`) or the streaming
runtime's dispatch stage (:func:`broken_steering`) in controlled,
realistic ways so the test suite can demonstrate the oracle *fails* and
the shrinker produces a small reproducer.  Each patch is
config-dependent on purpose: the bug must manifest under some
configurations of the matrix but not the reference point, which is
exactly the class of bug the oracle is built to catch.  For simulator
bugs the reference point is the interpreter, which shares no evaluation
code with the generated tier.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager

# ``repro.cps`` re-exports a *function* named ``optimize``; go through
# importlib so we get the submodule whose ``_fold`` global we patch.
_optimize = importlib.import_module("repro.cps.optimize")


@contextmanager
def broken_constant_fold(op: str = "xor", delta: int = 1):
    """Make the optimizer's constant folder mis-evaluate one primitive.

    ``x ^ y`` folded at compile time comes out ``delta`` too large, so
    any program whose optimized form folds that op diverges between the
    optimizing configurations and ``no-opt`` (whose folder never runs).
    The simulator is untouched — exactly a constant-folding miscompile.
    """
    original = _optimize._fold

    def bad_fold(fold_op: str, values: list) -> int | None:
        result = original(fold_op, values)
        if fold_op == op and result is not None:
            return (result + delta) & 0xFFFFFFFF
        return result

    _optimize._fold = bad_fold
    try:
        yield
    finally:
        _optimize._fold = original


@contextmanager
def broken_codegen(op: str = "xor", delta: int = 1):
    """Make the compiled simulator tier mis-evaluate one ALU op.

    The codegen template for ``op`` comes out ``delta`` too large, so
    any program executing that op on runtime values diverges from the
    interpreter: the ``sim-compiled`` configuration from the reference,
    and a net-fuzz stream (engines on the compiled tier) from its
    expected halt values (computed on the interpreter).  Constant
    folding is untouched (it goes through ``machine._ALU_FNS``), so the
    bug only manifests in *generated* code — exactly a miscompiled
    simulator, not a miscompiled program.

    The compiled-graph cache is cleared on entry and exit: cached
    functions were generated from the unpatched template (and vice
    versa on the way out), and the cache is keyed by graph identity,
    not template contents.
    """
    from repro.ixp import codegen

    original = codegen._ALU_EXPRS[op]
    codegen._ALU_EXPRS[op] = f"((({original}) + {delta}) & 4294967295)"
    codegen.clear_cache()
    try:
        yield
    finally:
        codegen._ALU_EXPRS[op] = original
        codegen.clear_cache()


@contextmanager
def broken_steering():
    """Make the dispatch stage ignore the flow key entirely.

    Every packet steers by raw sequence number — the classic bug the
    flow-hash dispatch stage exists to prevent: a flow's packets spray
    across engines, so flow affinity (and, with multiple engines,
    per-flow order) breaks under ``steer="flow"`` whenever a flow
    spans packets whose sequence numbers differ mod the engine count.
    Results stay correct — only the *steering* invariants fail, which
    is exactly what the net oracle must catch and the trace shrinker
    must minimize.
    """
    from repro.ixp.net import NetRuntime

    original = NetRuntime._steer

    def bad_steer(self, packet):
        return packet.seq % self.config.engines

    NetRuntime._steer = bad_steer
    try:
        yield
    finally:
        NetRuntime._steer = original


def corpus_probe(
    budget: int = 12,
    probe_seed: int = 34,
    fresh_start: int = 1104,
    corpus_dir=None,
) -> dict:
    """Prove the corpus mutation loop out-hunts fresh sampling.

    Seeds a corpus with a *near-miss* scenario for
    :func:`broken_steering`: an aligned trace in which every flow token
    sticks to one ``seq % engines`` residue class, so even the broken
    dispatcher (steer by raw sequence number) happens to preserve flow
    affinity and the entry looks healthy.  Then, with the bug injected,
    the real mutation engine (:func:`repro.fuzz.corpus.mutate_entry`)
    attacks the entry for ``budget`` scenarios while fresh generator
    sampling gets the same budget over the pinned ``fresh_start``
    window.  ``splice``/``duplicate``/``reorder`` shift a flow's later
    occurrences to a different residue class and ``retoken`` merges two
    pinned flows, so a mutant exposes the bug within a few attempts;
    the fresh window is chosen (and pinned by the test suite) so that
    no fresh scenario does.  The winning mutant's trace is ddmin-shrunk
    to a small witness.

    Returns ``{"corpus_found_in", "fresh_found_in", "mutation",
    "witness_events", "witness"}``; ``corpus_dir`` additionally
    persists the near-miss entry through a real
    :class:`~repro.fuzz.corpus.CorpusStore`.
    """
    import random
    from dataclasses import replace

    from repro.fuzz.corpus import entry_from_scenario, mutate_entry
    from repro.fuzz.netgen import (
        ScenarioInvalid,
        build_scenario_app,
        gen_scenario,
    )
    from repro.fuzz.netmeta import check_result
    from repro.fuzz.shrink import shrink_list
    from repro.ixp.net import TraceEvent, coverage_signature, run_stream

    scenario = gen_scenario(probe_seed)
    config = scenario.config
    engines = config.engines
    flows = sorted(set(scenario.flows))[:engines]
    if config.steer != "flow" or engines < 2 or len(flows) < engines:
        raise ValueError(
            f"probe seed {probe_seed} cannot express the near miss"
        )
    app = build_scenario_app(scenario)
    extras = tuple(3 for _ in scenario.program.params[1:])
    aligned = tuple(
        TraceEvent(
            gap=16,
            flow=flows[i % engines],
            payload=(flows[i % engines],) + extras,
            payload_bytes=4 * (1 + len(extras)),
        )
        for i in range(3 * engines)
    )

    def affinity_broken(events, cfg=config) -> bool:
        try:
            result = run_stream(app, replace(cfg, trace=tuple(events)))
        except Exception:
            return False
        return any(
            "split across engines" in v
            for v in check_result(result, expect_no_drops=False)
        )

    recorded = run_stream(app, replace(config, trace=aligned))
    entry = entry_from_scenario(
        scenario, aligned, coverage_signature(recorded), origin="probe"
    )
    if corpus_dir is not None:
        from repro.fuzz.corpus import CorpusStore

        CorpusStore(corpus_dir).add(entry)

    rng = random.Random(f"corpus-probe-{probe_seed}")
    outcome = {
        "corpus_found_in": None,
        "fresh_found_in": None,
        "mutation": None,
        "witness_events": None,
        "witness": None,
    }
    with broken_steering():
        if affinity_broken(aligned):
            raise AssertionError(
                "near-miss trace already trips the injected bug"
            )
        found = None
        for attempt in range(1, budget + 1):
            op, trace, cfg = mutate_entry(rng, entry)
            if affinity_broken(trace, cfg):
                found = (attempt, op, trace, cfg)
                break
        for offset in range(budget):
            fresh = gen_scenario(fresh_start + offset)
            try:
                fresh_app = build_scenario_app(fresh)
            except ScenarioInvalid:
                continue
            result = run_stream(fresh_app, fresh.config)
            if any(
                "split across engines" in v
                for v in check_result(result, expect_no_drops=False)
            ):
                outcome["fresh_found_in"] = offset + 1
                break
        if found is not None:
            attempt, op, trace, cfg = found
            events, _ = shrink_list(
                list(trace), lambda evs: affinity_broken(evs, cfg)
            )
            outcome.update(
                corpus_found_in=attempt,
                mutation=op,
                witness_events=len(events),
                witness=tuple(events),
            )
    return outcome


@contextmanager
def disabled_constant_fold():
    """Turn constant folding off entirely (a *benign* injection).

    Useful as a control: the oracle must NOT report divergences for a
    patch that only loses an optimization, since the folded and unfolded
    programs still agree on every input.
    """
    original = _optimize._fold

    def no_fold(fold_op: str, values: list) -> int | None:
        return None

    _optimize._fold = no_fold
    try:
        yield
    finally:
        _optimize._fold = original
