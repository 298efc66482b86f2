#!/usr/bin/env python3
"""A crypto gateway: AES and KASUMI line-rate encryption on the IXP1200.

Compiles the paper's two cipher benchmarks, streams packets through the
whole simulated chip (six micro-engines x four threads), checks every
packet's ciphertext against the pure-Python references, and measures
throughput at the 233 MHz IXP1200 clock — the Section 11 experiment.

Run:  python examples/crypto_gateway.py          (takes ~30s: 2 ILP solves)
"""

from repro.ixp.net import NetConfig, compile_app, run_stream, stream_app

PACKETS = 48


def compile_cipher(name):
    print(f"[{name}] compiling (ILP bank assignment + coloring)...")
    comp = compile_app(name)
    alloc = comp.alloc
    print(
        f"[{name}] {alloc.status}: {alloc.variables} vars, "
        f"{alloc.moves} moves, {alloc.spills} spills, "
        f"solve {alloc.integer_seconds:.1f}s"
    )
    return comp


def stream(name, comp, payload_bytes):
    """A backlog of packets through the chip; the sink checks each one."""
    config = NetConfig(
        packets=PACKETS, arrival="backlog", rx_capacity=PACKETS + 4, seed=7
    )
    result = run_stream(stream_app(name, comp, (payload_bytes,)), config)
    assert result.completed == PACKETS, "packets lost in the stream"
    assert not result.mismatches, "simulated ciphertext mismatch!"
    return result


def main() -> None:
    rows = []
    for name, block in (("aes", 16), ("kasumi", 8)):
        comp = compile_cipher(name)
        sizes = (block, block * 2, 256)
        for payload_bytes in sizes:
            result = stream(name, comp, payload_bytes)
            rows.append((name, payload_bytes, result))
        print(
            f"[{name}] ciphertext verified against the reference "
            f"({len(sizes) * PACKETS} packets)"
        )

    # --- throughput sweep (Section 11) ---
    print("\npayload sweep, 6 engines x 4 threads, 233 MHz:")
    print(f"{'cipher':8s} {'payload':>8s} {'Mb/s':>8s} {'p50 cyc':>9s}")
    for name, payload_bytes, result in rows:
        print(
            f"{name:8s} {payload_bytes:>7d}B {result.mbps:>8.1f} "
            f"{result.percentile(50):>9d}"
        )


if __name__ == "__main__":
    main()
