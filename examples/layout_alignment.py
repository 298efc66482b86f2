#!/usr/bin/env python3
"""Layouts and misalignment: the paper's Section 3.2 worked example.

Real packet data does not respect SDRAM/SRAM alignment.  Nova's layout
sublanguage lets one definition serve every alignment: this example
compiles the paper's three-way-aligned header extractor, shows the
*different* shift/mask code the compiler generates per branch, and runs
all three alignments on the simulator.

Run:  python examples/layout_alignment.py
"""

from repro import compile_nova
from repro.alloc.decode import place_inputs
from repro.ixp.machine import Machine
from repro.ixp.memory import MemorySystem

# Directly from the paper (Section 3.2), completed into a program: a
# 56-bit layout that can sit at offsets 0, 16 or 24 within 3 words.
SOURCE = """
layout lyt = { x : 16, y : 32, z : 8 };   // size = 56 bits

fun main (alignment, base) : word {
  let (p0, p1, p2) = sram(base);
  let udata =
    if (alignment == 0)
      unpack[lyt ## {40}]((p0, p1, p2))
    else if (alignment == 16)
      unpack[{16} ## lyt ## {24}]((p0, p1, p2))
    else
      unpack[{24} ## lyt ## {16}]((p0, p1, p2));
  if (udata.x == 0x3456) udata.y else 0xffffffff
}
"""


def place_at_alignment(alignment: int) -> list[int]:
    """Pack x=0x3456, y=0xCAFEBABE, z=0x77 at the given bit offset."""
    bits = (0x3456 << 40) | (0xCAFEBABE << 8) | 0x77  # the 56-bit value
    stream = bits << (96 - 56 - alignment)
    return [(stream >> 64) & 0xFFFFFFFF, (stream >> 32) & 0xFFFFFFFF, stream & 0xFFFFFFFF]


def main() -> None:
    result = compile_nova(SOURCE)
    print("--- allocated code (one extractor, three alignments) ---")
    print(result.physical.pretty())

    for alignment in (0, 16, 24):
        memory = MemorySystem.create()
        memory["sram"].load_words(8, place_at_alignment(alignment))
        physical = place_inputs(
            result.alloc.decoded.input_locations,
            result.make_inputs(alignment=alignment, base=8),
            memory,
        )
        machine = Machine(
            result.physical,
            memory=memory,
            physical=True,
            input_provider=lambda tid, it, p=physical: p if it == 0 else None,
        )
        run = machine.run()
        (_, values), = run.results
        print(
            f"alignment {alignment:2d}: y = {values[0]:#010x} "
            f"({'ok' if values[0] == 0xCAFEBABE else 'WRONG'})"
        )
        assert values[0] == 0xCAFEBABE


if __name__ == "__main__":
    main()
