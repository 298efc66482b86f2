"""Golden regression for the streaming runtime: a fixed-seed NAT trace.

One seeded NAT stream (virtual compilation — deterministic across
platforms, like the listing goldens) is rendered to a line-per-packet
transcript pinning packet order, per-packet timing, drop count, queue
high-water marks and a digest of the final memory image, and compared
byte-for-byte against ``tests/goldens/net_nat_stream.golden``.  Any
change to ring costs, the port model, worker scheduling or the arrival
process shows up as a readable diff.

To accept intentional timing-model changes::

    PYTHONPATH=src python -m pytest tests/test_net_golden.py --update-goldens
"""

import pathlib

import pytest

from repro.ixp.net import NetConfig, NetRuntime, stream_app, stream_trace_lines

from tests.helpers import compile_virtual

GOLDENS = pathlib.Path(__file__).resolve().parent / "goldens"
GOLDEN_PATH = GOLDENS / "net_nat_stream.golden"

#: deliberately overloaded: a small RX ring plus bursty arrivals force
#: drops, so the golden pins the drop accounting too.
CONFIG = NetConfig(
    engines=2,
    threads=2,
    rx_capacity=6,
    tx_capacity=4,
    packets=24,
    seed=1234,
    arrival="poisson",
    mean_gap=24.0,
    burst=2,
    sink_gap=50,
)


def _transcript(sim_mode: str = CONFIG.sim_mode) -> str:
    import dataclasses

    app = stream_app("nat", None)
    app = dataclasses.replace(app, comp=compile_virtual(app.bundle.source))
    config = dataclasses.replace(CONFIG, sim_mode=sim_mode)
    runtime = NetRuntime(app, config)
    result = runtime.run()
    return "\n".join(stream_trace_lines(result, runtime.memory)) + "\n"


def test_nat_stream_reproduces_exactly_across_runs():
    assert _transcript() == _transcript()


def test_nat_stream_compiled_tier_transcript_is_byte_identical():
    """The codegen tier must be invisible to the streaming runtime: the
    whole transcript — packet order, per-packet timing, drops, RX
    high-water marks, the conservation verdict and the memory digest —
    must match the interpreter's byte for byte."""
    assert _transcript("compiled") == _transcript("interp")


def test_nat_stream_matches_golden(update_goldens):
    """The default tier's transcript and the interpreter's both match."""
    transcript = _transcript()
    if update_goldens:
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(transcript)
        pytest.skip(f"updated {GOLDEN_PATH.name}")
    assert GOLDEN_PATH.exists(), (
        "missing streaming golden; run pytest with --update-goldens"
    )
    golden = GOLDEN_PATH.read_text()
    for tier, text in (("default", transcript), ("interp", _transcript("interp"))):
        assert text == golden, (
            f"{tier} streaming transcript drifted from {GOLDEN_PATH.name}; "
            "if the timing-model change is intentional, rerun with "
            "--update-goldens"
        )


def test_golden_covers_drops_and_contention():
    """The pinned scenario must actually exercise the interesting paths
    (otherwise the golden silently stops guarding them)."""
    transcript = _transcript()
    assert " dropped" in transcript
    assert "memory_digest=" in transcript
    lines = transcript.splitlines()
    assert sum(1 for line in lines if line.startswith("pkt ")) == 24
    # packet conservation is pinned in the transcript itself
    assert "conservation generated==completed+dropped+inflight holds" in lines
    totals = next(line for line in lines if line.startswith("generated="))
    counts = dict(piece.split("=") for piece in totals.split())
    assert int(counts["generated"]) == (
        int(counts["completed"])
        + int(counts["dropped"])
        + int(counts["inflight"])
    )
    # steering spread the stream over both engines' private rings
    assert any(line.startswith("rx0 steered=") for line in lines)
    assert any(line.startswith("rx1 steered=") for line in lines)
