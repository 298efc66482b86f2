#!/usr/bin/env python3
"""An IPv6→IPv4 NAT fast path, end to end.

The paper's third benchmark as a runnable scenario: a stream of IPv6
packets arrives in SDRAM; the compiled Nova fast path translates each
header through the hash-indexed mapping table, moves the packet start,
fills in the IPv4 checksum, and punts non-IPv6 packets to the slow path
via an exception.

Run:  python examples/packet_pipeline.py         (takes ~10s: 1 ILP solve)
"""

from repro.apps import build_nat_app
from repro.apps.nat_nova import NAT_TABLE_BASE, nat_reference_output
from repro.apps.refimpl import nat as nat_ref
from repro.alloc.decode import place_inputs
from repro.compiler import CompileOptions, compile_nova
from repro.ixp.machine import Machine
from repro.ixp.memory import MemorySystem


def make_packets():
    """A small mixed traffic sample: three IPv6 flows + one IPv4 stray."""
    flows = [
        ((0x20010DB8, 0, 0, 0x11), (0x20010DB8, 0, 0, 0x21), 120, 6, 61),
        ((0x20010DB8, 0, 0, 0x12), (0x20010DB8, 0, 0, 0x22), 48, 17, 64),
        ((0x20010DB8, 0, 0, 0x13), (0x20010DB8, 0, 0, 0x23), 1280, 6, 2),
    ]
    packets = []
    mappings = {}
    for i, (src, dst, plen, proto, hop) in enumerate(flows):
        w0 = (6 << 28) | ((i * 3) << 20) | (0x100 + i)
        w1 = (plen << 16) | (proto << 8) | hop
        packets.append([w0, w1, *src, *dst])
        mappings[src] = 0x0A640000 + 2 * i + 1
        mappings[dst] = 0x0A640000 + 2 * i + 2
    # One stray IPv4 packet (version 4): must take the slow path.
    packets.append([(4 << 28) | 0x5001234] + [0] * 9)
    return packets, mappings


def main() -> None:
    packets, mappings = make_packets()
    app = build_nat_app(ipv6_words=packets[0], mappings=mappings)

    options = CompileOptions()
    options.alloc.solve.time_limit = 900
    print("compiling the NAT fast path...")
    comp = compile_nova(app.source, options=options)
    print(
        f"allocated: {comp.alloc.moves} moves, {comp.alloc.spills} spills, "
        f"{comp.physical.num_instructions()} instructions"
    )

    memory = MemorySystem.create()
    memory["sram"].load_words(
        NAT_TABLE_BASE, nat_ref.build_nat_table(mappings)
    )
    stride = 0x40
    base = 0x200
    for i, packet in enumerate(packets):
        memory["sdram"].load_words(base + i * stride, packet)

    def provider(tid: int, iteration: int):
        if iteration >= len(packets):
            return None
        return place_inputs(
            comp.alloc.decoded.input_locations,
            comp.make_inputs(base=base + iteration * stride),
            memory,
        )

    machine = Machine(
        comp.physical, memory=memory, physical=True, input_provider=provider
    )
    run = machine.run()

    print(f"\nprocessed {len(run.results)} packets in {run.cycles} cycles")
    for i, (_, values) in enumerate(run.results):
        code = values[0]
        if code == 0xFFFFFFFF:
            print(f"  packet {i}: not IPv6 -> slow path")
            continue
        if code == 0xFFFFFFFE:
            print(f"  packet {i}: no mapping -> slow path")
            continue
        header = memory["sdram"].dump_words(base + i * stride + 5, 5)
        expect, _ = nat_reference_output(packets[i], mappings)
        status = "OK" if header == expect else "MISMATCH"
        print(
            f"  packet {i}: IPv4 {header[3]:#010x} -> {header[4]:#010x} "
            f"checksum={code:#06x} [{status}]"
        )
        assert header == expect


if __name__ == "__main__":
    main()
