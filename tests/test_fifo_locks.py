"""FIFO access and inter-thread locking (paper Section 3.3)."""

import pytest

from repro.errors import SimulatorError, TypeError_
from repro.ixp import isa
from repro.ixp.banks import Bank
from repro.ixp.flowgraph import Block, FlowGraph
from repro.ixp.machine import Machine
from repro.nova.parser import parse_program
from repro.nova.typecheck import typecheck_program

from tests.helpers import compile_full, compile_virtual, run_main, run_physical


def T(name):
    return isa.Temp(name)


class TestFifoLanguage:
    def test_rfifo_read(self):
        comp = compile_virtual(
            "fun main (e) { let (a, b) = rfifo(e); a + b }"
        )
        results, _ = run_main(
            comp, {"rfifo": [(16, [7, 8])]}, e=16
        )
        assert results == [(15,)]

    def test_tfifo_write(self):
        comp = compile_virtual(
            "fun main (e, x) { tfifo(e) <- (x, x + 1); 0 }"
        )
        _, memory = run_main(comp, e=32, x=5)
        assert memory["tfifo"].dump_words(32, 2) == [5, 6]

    def test_rfifo_is_read_only(self):
        with pytest.raises(TypeError_, match="read-only"):
            compile_virtual("fun main (e) { rfifo(e) <- (1, 2); 0 }")

    def test_tfifo_is_write_only(self):
        with pytest.raises(TypeError_, match="write-only"):
            compile_virtual("fun main (e) { let x = tfifo(e); x }")

    def test_fifo_through_full_allocation(self):
        """FIFO transfers use L/S aggregates like SRAM: the ILP colors
        them and the physical code must agree with the virtual one."""
        comp = compile_full(
            """
            fun main (e) {
              let (a, b, c, d) = rfifo(e);
              tfifo(e) <- (d, c, b, a);
              a ^ d
            }
            """
        )
        image = {"rfifo": [(0, [1, 2, 3, 4])]}
        rv, mv = run_main(comp, image, e=0)
        rp, mp = run_physical(comp, image, e=0)
        assert rv == rp == [(5,)]
        assert mv["tfifo"].dump_words(0, 4) == [4, 3, 2, 1]
        assert mp["tfifo"].dump_words(0, 4) == [4, 3, 2, 1]
        # The aggregate landed in L / left from S.
        mem_ops = [
            i
            for _, _, i in comp.physical.instructions()
            if isinstance(i, isa.MemOp)
        ]
        read, write = mem_ops
        assert all(r.bank is Bank.L for r in read.regs)
        assert all(r.bank is Bank.S for r in write.regs)


class TestLockLanguage:
    def test_lock_unlock_roundtrip(self):
        comp = compile_virtual(
            "fun main (x) { lock(3); unlock(3); x }"
        )
        assert run_main(comp, x=9)[0] == [(9,)]

    def test_lock_number_range_checked(self):
        with pytest.raises(TypeError_, match="0..15"):
            compile_virtual("fun main () { lock(16); 0 }")

    def test_unlock_without_lock_traps(self):
        comp = compile_virtual("fun main (x) { unlock(2); x }")
        with pytest.raises(SimulatorError, match="unlocking"):
            run_main(comp, x=1)

    def test_relock_traps(self):
        comp = compile_virtual("fun main (x) { lock(1); lock(1); x }")
        with pytest.raises(SimulatorError, match="re-acquiring"):
            run_main(comp, x=1)


def critical_section_graph():
    """Each thread: lock 0; read counter; add 1; write back; unlock."""
    instrs = [
        isa.LockInstr("lock", 0),
        isa.Immed(T("addr"), 100),
        isa.MemOp("scratch", "read", T("addr"), (T("v"),)),
        isa.Alu(T("v2"), "add", T("v"), isa.Imm(1)),
        isa.MemOp("scratch", "write", T("addr"), (T("v2"),)),
        isa.LockInstr("unlock", 0),
        isa.HaltInstr(()),
    ]
    return FlowGraph("entry", {"entry": Block("entry", instrs)})


class TestLockContention:
    def test_counter_with_lock_is_exact(self):
        graph = critical_section_graph()
        machine = Machine(
            graph,
            threads=4,
            physical=False,
            input_provider=lambda tid, it: {} if it < 5 else None,
        )
        run = machine.run()
        assert machine.memory["scratch"].dump_words(100, 1) == [20]
        assert len(run.results) == 20

    def test_counter_without_lock_races(self):
        """Dropping the lock loses increments (read-modify-write race
        across the memory latency) — evidence the lock actually
        serializes."""
        graph = critical_section_graph()
        for block in graph.blocks.values():
            block.instrs = [
                i for i in block.instrs if not isinstance(i, isa.LockInstr)
            ]
        machine = Machine(
            graph,
            threads=4,
            physical=False,
            input_provider=lambda tid, it: {} if it < 5 else None,
        )
        machine.run()
        assert machine.memory["scratch"].dump_words(100, 1) != [20]

    def test_lock_holder_blocks_others(self):
        graph = critical_section_graph()
        machine = Machine(
            graph,
            threads=2,
            physical=False,
            input_provider=lambda tid, it: {} if it < 1 else None,
        )
        run = machine.run()
        # Both critical sections executed, strictly serialized.
        assert machine.memory["scratch"].dump_words(100, 1) == [2]
        assert run.cycles > 30  # two serialized scratch round-trips


class TestParsing:
    def test_lock_parses(self):
        program = parse_program("fun main () { lock(5); unlock(5); 0 }")
        typecheck_program(program)

    def test_fifo_spaces_parse(self):
        program = parse_program(
            "fun main (e) { let (a, b) = rfifo(e); tfifo(e) <- (a, b); 0 }"
        )
        typecheck_program(program)
