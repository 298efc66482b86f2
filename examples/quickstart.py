#!/usr/bin/env python3
"""Quickstart: compile a Nova program and watch it run on the IXP1200.

This walks the whole pipeline on a small packet-counting program:
parse → typecheck → CPS → ILP register/bank allocation → simulation,
printing the interesting artifacts along the way.

Run:  python examples/quickstart.py
"""

from repro import compile_nova
from repro.alloc.decode import place_inputs
from repro.cps import ir
from repro.ixp.machine import Machine
from repro.ixp.memory import MemorySystem

SOURCE = """
// Count IPv4 vs other packets in a small ring of headers.

layout ip_ver = { version : 4, rest : 28 };

fun classify (w) : word {
  let u = unpack[ip_ver](w);
  if (u.version == 4) 1 else 0
}

fun main (ring_base, n) : word {
  let i = 0;
  let ipv4 = 0;
  while (i < n) {
    let w = sram(ring_base + i);
    ipv4 := ipv4 + classify(w);
    i := i + 1;
  };
  ipv4
}
"""


def main() -> None:
    print("=== Compiling ===")
    result = compile_nova(SOURCE)

    print("\n--- optimized CPS (static single use form) ---")
    print(ir.pretty(result.ssu.term))

    print("--- virtual flowgraph ---")
    print(result.flowgraph.pretty())

    alloc = result.alloc
    assert alloc is not None
    print("--- ILP allocation ---")
    print(
        f"status={alloc.status}  variables={alloc.variables}  "
        f"constraints={alloc.constraints}"
    )
    print(f"inter-bank moves={alloc.moves}  spills={alloc.spills}")

    print("\n--- allocated (physical) code ---")
    print(result.physical.pretty())

    print("=== Running on the simulator ===")
    memory = MemorySystem.create()
    headers = [0x45000054, 0x60012345, 0x45000028, 0x60FF1122, 0x45ABCDEF]
    memory["sram"].load_words(64, headers)

    physical_inputs = place_inputs(
        alloc.decoded.input_locations,
        result.make_inputs(ring_base=64, n=len(headers)),
        memory,
    )

    machine = Machine(
        result.physical,
        memory=memory,
        physical=True,
        input_provider=lambda tid, it: physical_inputs if it == 0 else None,
    )
    run = machine.run()
    (tid, values), = run.results
    print(f"IPv4 packets counted: {values[0]}  (expected 3)")
    print(f"cycles: {run.cycles}  instructions: {run.instructions}")


if __name__ == "__main__":
    main()
