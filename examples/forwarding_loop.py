#!/usr/bin/env python3
"""The full fast path: receive FIFO → process → transmit FIFO.

The paper notes that each application ships with "code that synchronizes
with the receive scheduler, reads in the packet from the receive FIFOs
..., synchronizes with the transmit scheduler" (Section 11).  This
example is that harness in Nova: four hardware threads share a work
queue guarded by a lock bit, pull packet elements from the receive FIFO,
decrement the IPv4 TTL (with an incremental RFC-1624-style checksum
fix-up through layouts), archive the header to SDRAM, and push the
packet to the transmit FIFO.

Run:  python examples/forwarding_loop.py          (takes ~10s: 1 ILP solve)
"""

from repro.alloc.decode import place_inputs
from repro.compiler import CompileOptions, compile_nova
from repro.ixp.machine import Machine
from repro.ixp.memory import MemorySystem

SOURCE = """
// Shared work queue: scratch[0] is the next free element index, guarded
// by lock bit 0.  Each main() invocation forwards one packet.

layout ipv4 = {
  version : 4, ihl : 4, tos : 8, total_length : 16,
  ident : 16, flags_frag : 16,
  ttl : 8, protocol : 8, checksum : 16,
  src : 32, dst : 32
};

fun claim_element () : word {
  lock(0);
  let index = scratch(0);
  scratch(0) <- (index + 1);
  unlock(0);
  index
}

fun main (nelems, archive) : word {
  try {
    let index = claim_element();
    if (index >= nelems) raise Drained (index);

    // Receive: one 16-word FIFO element holds the header + start of
    // payload; the header is the first five words.
    let elem = index << 4;
    let (h0, h1, h2, h3, h4, p0, p1, p2) = rfifo(elem);
    let u = unpack[ipv4]((h0, h1, h2, h3, h4));
    if (u.version != 4) raise NotIpv4 (u.version);
    if (u.ttl == 0) raise Expired (index);

    // Decrement TTL and patch the checksum incrementally (the ttl
    // field sits in the high byte of the third word; subtracting one
    // from it adds 0x100 to the ones'-complement sum).
    let ck = u.checksum + 0x100;
    let ck2 = (ck & 0xffff) + (ck >> 16);
    let (n0, n1, n2, n3, n4) = pack[ipv4] [
      version = 4, ihl = u.ihl, tos = u.tos,
      total_length = u.total_length,
      ident = u.ident, flags_frag = u.flags_frag,
      ttl = u.ttl - 1, protocol = u.protocol, checksum = ck2,
      src = u.src, dst = u.dst
    ];

    // Archive the rewritten header to SDRAM for the slow path.
    sdram(archive + (index << 3)) <- (n0, n1, n2, n3, n4, p0, p1, p2);

    // Transmit.
    tfifo(elem) <- (n0, n1, n2, n3, n4, p0, p1, p2);
    index
  }
  handle Drained (i) { 0xffffffff }
  handle NotIpv4 (v) { 0xfffffffe }
  handle Expired (i) { 0xfffffffd }
}
"""


def ipv4_header(ttl: int, ident: int) -> list[int]:
    words = [
        (4 << 28) | (5 << 24) | 84,
        (ident << 16) | 0x4000,
        (ttl << 24) | (6 << 16),
        0x0A000001,
        0x0A000002 + ident,
    ]
    total = sum((w >> 16) + (w & 0xFFFF) for w in words)
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    words[2] |= (~total) & 0xFFFF
    return words


def checksum_ok(words: list[int]) -> bool:
    total = sum((w >> 16) + (w & 0xFFFF) for w in words)
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return total == 0xFFFF


def main() -> None:
    options = CompileOptions()
    options.alloc.solve.time_limit = 900
    print("compiling the forwarding loop...")
    comp = compile_nova(SOURCE, options=options)
    print(
        f"allocated: {comp.alloc.status}, {comp.alloc.moves} moves, "
        f"{comp.alloc.spills} spills"
    )

    n_packets = 8
    memory = MemorySystem.create()
    packets = []
    for i in range(n_packets):
        header = ipv4_header(ttl=10 + i, ident=i)
        payload = [0x1000 + i, 0x2000 + i, 0x3000 + i]
        packets.append(header)
        memory["rfifo"].load_words(i * 16, header + payload)

    inputs = place_inputs(
        comp.alloc.decoded.input_locations,
        comp.make_inputs(nelems=n_packets, archive=0x800),
        memory,
    )

    def provider(tid: int, iteration: int):
        # each thread tries up to 3 packets
        return dict(inputs) if iteration < 3 else None

    machine = Machine(
        comp.physical,
        memory=memory,
        physical=True,
        threads=4,
        input_provider=provider,
    )
    run = machine.run()

    forwarded = [v[0] for _, v in run.results if v[0] < 0xF0000000]
    drained = sum(1 for _, v in run.results if v[0] == 0xFFFFFFFF)
    print(
        f"\n{len(forwarded)} packets forwarded by 4 threads in "
        f"{run.cycles} cycles; {drained} idle polls after drain"
    )
    assert sorted(forwarded) == list(range(n_packets))

    for i in range(n_packets):
        out = memory["tfifo"].dump_words(i * 16, 5)
        ttl = out[2] >> 24
        print(
            f"  packet {i}: ttl {10 + i} -> {ttl}, checksum "
            f"{'valid' if checksum_ok(out) else 'INVALID'}"
        )
        assert ttl == 10 + i - 1
        assert checksum_ok(out)
        # Archived copy matches what went out.
        archived = memory["sdram"].dump_words(0x800 + i * 8, 5)
        assert archived == out


if __name__ == "__main__":
    main()
