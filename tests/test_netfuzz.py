"""The streaming-scenario fuzzer (``novac fuzz --net``).

The acceptance bar for the net oracle mirrors the compiler oracle's:
it must stay silent on the healthy runtime, catch a deliberately broken
dispatch stage, and shrink the witness trace to a handful of events.
"""

import json
import pathlib

import pytest

from repro.cli import main
from repro.fuzz.inject import broken_codegen, broken_steering
from repro.fuzz.netgen import (
    build_scenario_app,
    check_scenario,
    gen_scenario,
    run_net_campaign,
    shrink_scenario,
    trace_from_json,
    trace_to_json,
    validation_probes,
)
from repro.ixp import isa
from repro.trace import Tracer


@pytest.fixture(scope="module")
def scenario6():
    # Seed 6 draws a multi-engine, steer="flow" topology whose flow
    # pool spans packets with differing seq % engines — the smallest
    # seed in the default window that exposes broken_steering.
    scenario = gen_scenario(6)
    assert scenario.config.steer == "flow" and scenario.config.engines > 1
    return scenario


def test_scenario_generation_is_deterministic():
    a = gen_scenario(5)
    b = gen_scenario(5)
    assert a.program.source == b.program.source
    assert a.config == b.config
    assert a.flows == b.flows
    assert gen_scenario(7).config != a.config or (
        gen_scenario(7).program.source != a.program.source
    )


def test_clean_scenarios_pass_every_invariant():
    for seed in range(4):
        report = check_scenario(gen_scenario(seed))
        assert report.ok, f"seed {seed}: {report.violations or report.invalid}"
        assert report.trace  # a captured, replayable trace comes back


def test_validation_probes_pass_on_fixed_runtime():
    assert validation_probes() == []


def test_trace_json_roundtrip():
    scenario = gen_scenario(1)
    report = check_scenario(scenario)
    assert report.trace
    rows = trace_to_json(report.trace)
    assert trace_from_json(rows) == report.trace
    assert trace_from_json(json.loads(json.dumps(rows))) == report.trace


def test_broken_steering_is_caught_and_shrunk(scenario6):
    """Acceptance: the oracle flags a dispatch stage that ignores the
    flow key, and the two-axis shrinker reduces the witness trace to
    <= 10 events (the healthy runtime then re-passes)."""
    app = build_scenario_app(scenario6)
    with broken_steering():
        report = check_scenario(scenario6, app=app)
        assert not report.ok
        assert any("split across engines" in v for v in report.violations)
        source, trace, stats = shrink_scenario(
            scenario6, app, report.trace
        )
    assert len(trace) <= 10
    assert stats["events_after"] == len(trace)
    assert stats["events_before"] >= stats["events_after"]
    assert stats["predicate_calls"] <= 160
    # with the patch gone the same scenario is healthy again
    assert check_scenario(scenario6, app=app).ok


def test_broken_codegen_is_caught_as_sink_mismatches():
    """Streams run on generated code while the expected halt values come
    from the interpreter, so a miscompiled ALU template surfaces as sink
    mismatches.  Seed 1's program xors runtime values; without the
    injection it passes (``test_clean_scenarios_pass_every_invariant``)."""
    scenario = gen_scenario(1)
    with broken_codegen(op="xor", delta=1):
        app = build_scenario_app(scenario)
        assert any(
            isinstance(instr, isa.Alu) and instr.op == "xor"
            for _, _, instr in app.comp.flowgraph.instructions()
        )
        report = check_scenario(scenario, app=app)
    assert report.invalid is None
    assert any(
        "mismatched the reference" in v for v in report.violations
    ), report.violations


def test_campaign_writes_witness_artifact(tmp_path, scenario6):
    with broken_steering():
        result = run_net_campaign(
            seed=6, count=1, artifact_dir=str(tmp_path), shrink_budget=120
        )
    assert len(result.failed) == 1
    assert result.artifacts
    directory = pathlib.Path(result.artifacts[0].directory)
    assert (directory / "program.nova").exists()
    assert (directory / "minimized.nova").exists()
    payload = json.loads((directory / "report.json").read_text())
    assert payload["seed"] == 6
    assert payload["violations"]
    assert payload["topology"]["engines"] == scenario6.config.engines
    minimized = trace_from_json(
        json.loads((directory / "minimized-trace.json").read_text())
    )
    assert 0 < len(minimized) <= 10
    full = trace_from_json(
        json.loads((directory / "trace.json").read_text())
    )
    assert len(full) >= len(minimized)


def test_small_campaign_all_ok(tmp_path):
    tracer = Tracer()
    result = run_net_campaign(
        seed=0, count=3, artifact_dir=str(tmp_path), tracer=tracer
    )
    assert len(result.units) == 3
    assert all(unit.ok for unit in result.units)
    assert result.artifacts == [] and result.probe_failures == []
    summary = result.summary()
    assert summary["ok"] == 3 and summary["violating"] == 0
    names = [span.name for span in tracer.spans]
    assert "netfuzz" in names and names.count("netfuzz.unit") == 3


def test_cli_net_fuzz_exit_codes(tmp_path, capsys):
    code = main(
        [
            "fuzz",
            "--net",
            "--seed",
            "0",
            "--count",
            "2",
            "--artifact-dir",
            str(tmp_path),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "netfuzz: 2/2 ok" in out


def test_cli_net_fuzz_rejects_bad_packet_budget(capsys):
    code = main(["fuzz", "--net", "--max-packets", "1"])
    assert code == 2
    assert "max-packets" in capsys.readouterr().err


def test_cli_net_fuzz_corpus_flags(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    code = main(
        [
            "fuzz",
            "--net",
            "--seed",
            "0",
            "--count",
            "3",
            "--artifact-dir",
            str(tmp_path / "art"),
            "--corpus-dir",
            str(corpus),
            "--mutate-ratio",
            "0.5",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "corpus:" in out and "retained" in out
    assert list(corpus.glob("entry-*.json"))


def test_cli_net_fuzz_rejects_bad_mutate_ratio(capsys):
    code = main(["fuzz", "--net", "--mutate-ratio", "1.5"])
    assert code == 2
    assert "mutate-ratio" in capsys.readouterr().err


def test_corpus_probe_beats_fresh_sampling(tmp_path):
    """Acceptance: seeded with a near-miss entry, the real mutation
    engine exposes ``broken_steering`` within the budget and ddmin
    shrinks the winning mutant to <= 10 events, while fresh generator
    sampling over the pinned window finds nothing at the same budget."""
    from repro.fuzz.corpus import CorpusStore
    from repro.fuzz.inject import corpus_probe

    outcome = corpus_probe(corpus_dir=str(tmp_path))
    assert outcome["corpus_found_in"] is not None
    assert outcome["corpus_found_in"] <= 12
    assert outcome["fresh_found_in"] is None
    assert outcome["witness_events"] <= 10
    assert len(outcome["witness"]) == outcome["witness_events"]
    # the near-miss went through a real store and is itself replayable
    store = CorpusStore(tmp_path)
    assert len(store) == 1
    (entry,) = store.entries.values()
    assert entry.origin == "probe"
    assert store.verify() == []
