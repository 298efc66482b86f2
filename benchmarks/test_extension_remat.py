"""Section 12 extension: constant rematerialization through bank C.

The paper describes (as future work, with the AMPL model written but
the compiler side unfinished): "We treat every individual constant as a
temporary and invent a virtual register bank C... A move from C
represents the load operation of the corresponding constant; its cost
depends on the value."

This repository completes the loop; the benchmark shows the payoff on a
loop-heavy kernel and on KASUMI: constant loads migrate to cold code,
cutting dynamic instructions, while semantics stay bit-exact.
"""

from repro.alloc.decode import place_inputs
from repro.compiler import CompileOptions, compile_nova
from repro.ixp.machine import Machine

from benchmarks.conftest import APP_BUILDERS, print_table
from tests.helpers import make_memory

KERNEL = """
fun main (b, n) {
  let i = 0;
  let acc = 0;
  while (i < n) {
    let x = sram(b + i);
    acc := (acc + (x & 0x12345)) & 0xffff;
    acc := acc ^ ((x >> 3) & 0x7f00);
    i := i + 1;
  };
  acc
}
"""


def _compile(source, remat):
    options = CompileOptions()
    options.alloc.model.remat_constants = remat
    options.alloc.solve.time_limit = 900
    return compile_nova(source, options=options)


def _run(comp, image, **inputs):
    memory = make_memory(image)
    raw = comp.make_inputs(**inputs)
    pinned = place_inputs(comp.alloc.decoded.input_locations, raw, memory)
    machine = Machine(
        comp.physical,
        memory=memory,
        physical=True,
        input_provider=lambda tid, it: pinned if it == 0 else None,
    )
    return machine.run()


def test_remat_on_loop_kernel():
    image = {"sram": [(0, list(range(50, 90)))]}
    rows = []
    runs = {}
    for remat in (False, True):
        comp = _compile(KERNEL, remat)
        run = _run(comp, image, b=0, n=40)
        runs[remat] = run
        rows.append(
            [
                "with C bank" if remat else "without",
                run.instructions,
                run.cycles,
                comp.alloc.moves,
            ]
        )
    print_table(
        "Section 12 rematerialization (40-iteration masking kernel)",
        ["variant", "dyn instrs", "cycles", "ILP moves"],
        rows,
    )
    assert runs[True].results == runs[False].results
    assert runs[True].instructions < runs[False].instructions
    assert runs[True].cycles < runs[False].cycles


def test_remat_on_kasumi():
    """KASUMI's table bases are wide constants used every FI call."""
    app = APP_BUILDERS["Kasumi"]()
    rows = []
    results = {}
    for remat in (False, True):
        comp = _compile(app.source, remat)
        run = _run(comp, app.memory_image, **app.inputs)
        results[remat] = run.results
        rows.append(
            [
                "with C bank" if remat else "without",
                run.instructions,
                run.cycles,
                comp.alloc.status,
            ]
        )
    print_table(
        "Section 12 rematerialization (KASUMI, one block)",
        ["variant", "dyn instrs", "cycles", "status"],
        rows,
    )
    assert results[True] == results[False]
    # Rematerialization must never *hurt* the dynamic schedule by much
    # (the solver may keep the same placement).
    assert rows[1][1] <= rows[0][1] * 1.05


def test_remat_solve_speed(benchmark):
    benchmark.pedantic(
        lambda: _compile(KERNEL, True), rounds=1, iterations=1
    )
