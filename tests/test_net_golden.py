"""Golden regression for the streaming runtime: fixed-seed app traces.

One seeded stream per Section 11 app (virtual compilation —
deterministic across platforms, like the listing goldens) is rendered
to a line-per-packet transcript pinning packet order, per-packet
timing, drop count, queue high-water marks and a digest of the final
memory image, and compared byte-for-byte against
``tests/goldens/net_<app>_stream.golden``.  Any change to ring costs,
the port model, worker scheduling or the arrival process shows up as a
readable diff.  The AES and Kasumi streams also pin the sink's
reference path: every packet is checked word for word against the
pure-Python cipher, so a wrong expectation shows up as a mismatch.

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


#: a slow sink behind a two-slot TX ring: besides RX drops, workers
#: wait on a full TX ring (the ``txwait`` state), and payloads of one
#: and of several cipher blocks mix.
CIPHER_CONFIG = NetConfig(
    engines=2,
    threads=2,
    rx_capacity=6,
    tx_capacity=2,
    packets=24,
    seed=1234,
    mean_gap=60.0,
    burst=2,
    sink_gap=2000,
)
CIPHER_PAYLOADS = {"aes": (16, 32), "kasumi": (8, 24)}


def _run(name: str, config: NetConfig, payload_sizes=None):
    import dataclasses

    app = stream_app(name, None, payload_sizes)
    app = dataclasses.replace(app, comp=compile_virtual(app.bundle.source))
    runtime = NetRuntime(app, config)
    return runtime.run(), runtime.memory


def _transcript(sim_mode: str = CONFIG.sim_mode) -> str:
    import dataclasses

    config = dataclasses.replace(CONFIG, sim_mode=sim_mode)
    result, memory = _run("nat", config)
    return "\n".join(stream_trace_lines(result, memory)) + "\n"


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


@pytest.mark.parametrize("name", sorted(CIPHER_PAYLOADS))
def test_cipher_stream_matches_golden(name, update_goldens):
    """Both tiers reproduce the app's pinned transcript, with every
    packet validated against the reference cipher."""
    import dataclasses

    path = GOLDENS / f"net_{name}_stream.golden"
    transcripts = {}
    for tier in ("compiled", "interp"):
        config = dataclasses.replace(CIPHER_CONFIG, sim_mode=tier)
        result, memory = _run(name, config, CIPHER_PAYLOADS[name])
        assert result.mismatches == []
        transcripts[tier] = "\n".join(stream_trace_lines(result, memory)) + "\n"
    if update_goldens:
        path.write_text(transcripts["compiled"])
        pytest.skip(f"updated {path.name}")
    assert path.exists(), "missing streaming golden; run pytest with --update-goldens"
    golden = path.read_text()
    for tier, text in transcripts.items():
        assert text == golden, (
            f"{tier} {name} transcript drifted from {path.name}; if the "
            "timing-model change is intentional, rerun with --update-goldens"
        )


@pytest.mark.parametrize("name", sorted(CIPHER_PAYLOADS))
def test_cipher_golden_covers_drops_txwait_and_multiblock(name):
    """The cipher scenario must keep exercising RX drops, TX
    backpressure and multi-block payloads."""
    result, _ = _run(name, CIPHER_CONFIG, CIPHER_PAYLOADS[name])
    block = min(CIPHER_PAYLOADS[name])
    done = [p for p in result.packets if p.status == "done"]
    assert result.dropped > 0 and done
    assert sum(p.tx_stalls for p in result.packets) > 0
    assert any(p.payload_bytes > block for p in done)
