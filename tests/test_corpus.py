"""The coverage-guided record/replay corpus (``repro.fuzz.corpus``).

Three things have to hold for a persistent corpus to be trustworthy:
the coverage signature must be a *stable* function of a run (identical
runs agree, topology changes disagree, and the exact feature strings
are pinned so stored corpora survive refactors); stored entries must
replay packet-for-packet identical to the run that was recorded (the
PR 7 trace-replay fidelity oracle, now across a store round-trip and a
topology swap); and the retention/minimization logic must keep exactly
the entries that pay for themselves in coverage.
"""

import json
import random

import pytest

from repro.fuzz.corpus import (
    CorpusEntry,
    CorpusStore,
    entry_from_scenario,
    entry_id_for,
    mutate_topology,
    verify_entry,
)
from repro.fuzz.netgen import (
    NetScenario,
    build_scenario_app,
    check_scenario,
    gen_scenario,
    run_net_campaign,
)
from repro.ixp.net import (
    config_from_dict,
    config_to_dict,
    coverage_signature,
    run_stream,
)
from repro.fuzz.netgen import _fingerprints


@pytest.fixture(scope="module")
def recorded1():
    """Seed 1's scenario with its captured trace and signature."""
    scenario = gen_scenario(1)
    app = build_scenario_app(scenario)
    report = check_scenario(scenario, app=app)
    assert report.ok and report.trace
    return scenario, app, report


# -- coverage signature ----------------------------------------------------


def test_signature_deterministic_across_identical_runs():
    scenario = gen_scenario(0)
    app = build_scenario_app(scenario)
    first = coverage_signature(run_stream(app, scenario.config))
    second = coverage_signature(run_stream(app, scenario.config))
    assert first == second
    assert first == tuple(sorted(first))  # canonical order


def test_signature_sensitive_to_topology():
    from dataclasses import replace

    scenario = gen_scenario(0)
    app = build_scenario_app(scenario)
    base = coverage_signature(run_stream(app, scenario.config))
    more_engines = coverage_signature(
        run_stream(app, replace(scenario.config, engines=4))
    )
    tighter_rx = coverage_signature(
        run_stream(app, replace(scenario.config, rx_capacity=2))
    )
    assert more_engines != base
    assert tighter_rx != base


def test_signature_pinned_regression():
    """The exact feature strings for seed 0 — stored corpora depend on
    the signature staying byte-stable, so a change here is a breaking
    format change, not a refactor."""
    scenario = gen_scenario(0)
    app = build_scenario_app(scenario)
    assert coverage_signature(run_stream(app, scenario.config)) == (
        "lat<=1024x1",
        "lat<=128x1",
        "lat<=256x4",
        "lat<=512x16",
        "rx0.hwm<=8",
        "rx0.steered<=16",
        "rx1.hwm<=8",
        "rx1.steered<=16",
        "topo:e2xt1:rx48:tx4:rr:d16",
        "tx.hwm<=2",
    )


# -- store round-trip fidelity ---------------------------------------------


def test_store_roundtrip_replays_packet_for_packet(tmp_path, recorded1):
    scenario, app, report = recorded1
    seeded = run_stream(app, scenario.config)
    entry = entry_from_scenario(scenario, report.trace, report.signature)
    CorpusStore(tmp_path).add(entry)

    reloaded = CorpusStore(tmp_path)  # fresh load from disk
    assert len(reloaded) == 1
    loaded = reloaded.entries[entry.entry_id]
    assert loaded == entry
    assert verify_entry(loaded) == []
    replay = loaded.scenario()
    result = run_stream(build_scenario_app(replay), replay.config)
    assert _fingerprints(result) == _fingerprints(seeded)


def test_store_roundtrip_across_topology_swap(tmp_path, recorded1):
    """Capture the stored trace's run on a *swapped* topology, store
    that as a new entry, and the reloaded entry must still replay
    byte-identically (trace and signature both)."""
    from dataclasses import replace

    from repro.ixp.net import capture_trace

    scenario, app, report = recorded1
    rng = random.Random("topo-swap")
    swapped = mutate_topology(rng, scenario.config)
    assert swapped != scenario.config
    result = run_stream(app, replace(swapped, trace=report.trace))
    trace = capture_trace(result)
    swapped_scenario = NetScenario(
        seed=scenario.seed,
        program=scenario.program,
        config=swapped,
        flows=scenario.flows,
    )
    entry = entry_from_scenario(
        swapped_scenario, trace, coverage_signature(result)
    )
    assert entry.topology == config_to_dict(swapped)
    CorpusStore(tmp_path).add(entry)
    reloaded = CorpusStore(tmp_path).entries[entry.entry_id]
    assert verify_entry(reloaded) == []


def test_entry_ids_are_content_addressed(recorded1):
    scenario, _app, report = recorded1
    a = entry_from_scenario(scenario, report.trace, report.signature)
    b = entry_from_scenario(scenario, report.trace, report.signature)
    assert a.entry_id == b.entry_id
    assert a.entry_id == entry_id_for(
        scenario.program.source, report.trace, a.topology
    )
    shorter = entry_from_scenario(
        scenario, report.trace[:-1], report.signature
    )
    assert shorter.entry_id != a.entry_id


# -- retention and minimization --------------------------------------------


def _synthetic(tag: str, signature: tuple) -> CorpusEntry:
    return CorpusEntry(
        entry_id=f"fake-{tag}",
        seed=0,
        source=f"fn main(x) {{ halt {tag}; }}",
        params=("x",),
        flows=(1,),
        trace=(),
        topology={"engines": 1},
        signature=signature,
    )


def test_consider_retains_only_coverage_novel_entries(tmp_path):
    store = CorpusStore(tmp_path)
    assert store.consider(_synthetic("a", ("f1", "f2"))) == ("f1", "f2")
    assert store.consider(_synthetic("b", ("f2",))) == ()  # subsumed
    assert store.consider(_synthetic("c", ("f2", "f3"))) == ("f3",)
    assert sorted(store.entries) == ["fake-a", "fake-c"]
    assert store.covered == {"f1", "f2", "f3"}
    assert store.entries["fake-c"].new_features == ("f3",)
    # idempotent across a reload
    assert CorpusStore(tmp_path).consider(_synthetic("a", ("f1",))) == ()


def test_minimize_drops_subsumed_entries(tmp_path):
    store = CorpusStore(tmp_path)
    store.add(_synthetic("wide", ("f1", "f2", "f3")))
    store.add(_synthetic("narrow", ("f2",)))
    store.add(_synthetic("edge", ("f3", "f4")))
    removed = store.minimize()
    assert removed == ["fake-narrow"]
    assert sorted(store.entries) == ["fake-edge", "fake-wide"]
    assert store.covered == {"f1", "f2", "f3", "f4"}
    assert not (tmp_path / "entry-fake-narrow.json").exists()
    assert (tmp_path / "entry-fake-wide.json").exists()


def test_pick_is_deterministic(tmp_path):
    store = CorpusStore(tmp_path)
    with pytest.raises(ValueError):
        store.pick(random.Random(0))
    store.add(_synthetic("a", ("f1",)))
    store.add(_synthetic("b", ("f2",)))
    assert (
        store.pick(random.Random(7)).entry_id
        == store.pick(random.Random(7)).entry_id
    )


def test_entries_persist_as_stable_json(tmp_path, recorded1):
    scenario, _app, report = recorded1
    entry = entry_from_scenario(scenario, report.trace, report.signature)
    store = CorpusStore(tmp_path)
    store.add(entry)
    path = tmp_path / f"entry-{entry.entry_id}.json"
    payload = json.loads(path.read_text())
    assert payload["program"] == scenario.program.source
    assert payload["topology"]["engines"] == scenario.config.engines
    assert "trace" not in payload["topology"]
    assert "sim_mode" not in payload["topology"]
    assert payload["signature"] == list(report.signature)


#: seed 1's topology as older versions stored it: with the switch of the
#: since-removed decoded simulator tier and a null ``sim_mode``.
LEGACY_TOPOLOGY = {
    "engines": 3, "threads": 4, "rx_capacity": 8, "tx_capacity": 32,
    "packets": 19, "max_cycles": None, "seed": 1, "arrival": "poisson",
    "mean_gap": 12.0, "burst": 2, "sink_gap": 25, "poll": 16,
    "steer": "flow", "dispatch_cycles": 4, "decode": True, "sim_mode": None,
}


def test_stored_entry_with_legacy_tier_keys_loads_and_replays(
    tmp_path, recorded1
):
    scenario, _app, report = recorded1
    assert config_to_dict(scenario.config) == {
        k: v for k, v in LEGACY_TOPOLOGY.items()
        if k not in ("decode", "sim_mode")
    }
    entry = entry_from_scenario(scenario, report.trace, report.signature)
    CorpusStore(tmp_path).add(entry)
    path = tmp_path / f"entry-{entry.entry_id}.json"
    payload = json.loads(path.read_text())
    payload["topology"] = dict(LEGACY_TOPOLOGY)
    path.write_text(json.dumps(payload))
    store = CorpusStore(tmp_path)
    assert store.entries[entry.entry_id].config() == scenario.config
    assert store.verify() == []


def test_unknown_topology_key_still_rejected():
    with pytest.raises(TypeError):
        config_from_dict({**LEGACY_TOPOLOGY, "warp": 1})


# -- end-to-end campaign acceptance ----------------------------------------


def test_campaign_with_corpus_retains_and_replays(tmp_path):
    """Acceptance: a seeded campaign with ``corpus_dir`` retains at
    least one coverage-novel entry, every retained entry replays
    byte-identically, and a follow-up all-mutant campaign actually
    schedules mutants from the store."""
    corpus = tmp_path / "corpus"
    first = run_net_campaign(
        seed=0,
        count=4,
        artifact_dir=str(tmp_path / "art"),
        shrink_findings=False,
        corpus_dir=str(corpus),
    )
    assert first.corpus is not None
    assert first.corpus["retained"] >= 1
    store = CorpusStore(corpus)
    assert len(store) >= 1
    assert store.verify() == []

    second = run_net_campaign(
        seed=50,
        count=4,
        artifact_dir=str(tmp_path / "art"),
        shrink_findings=False,
        corpus_dir=str(corpus),
        mutate_ratio=1.0,
    )
    mutants = [u for u in second.units if u.origin.startswith("mutant:")]
    assert mutants, "mutate_ratio=1.0 scheduled no mutants"
    assert all(u.parent in store.entries or u.parent for u in mutants)
    assert second.summary()["mutants"] == len(mutants)
    assert CorpusStore(corpus).verify() == []


def test_campaign_without_corpus_dir_unchanged(tmp_path):
    result = run_net_campaign(
        seed=0, count=2, artifact_dir=str(tmp_path), shrink_findings=False
    )
    assert result.corpus is None
    assert "corpus" not in result.summary()
    assert all(u.origin == "fresh" for u in result.units)
