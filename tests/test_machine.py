"""Simulator tests: semantics, cycle model, threads, datapath checks."""

import pytest

from repro.errors import SimulatorError
from repro.ixp import isa
from repro.ixp.banks import Bank
from repro.ixp.flowgraph import Block, FlowGraph
from repro.ixp.machine import Machine, hash48, run_virtual
from repro.ixp.memory import LATENCY, MemorySystem


def graph_of(instrs, inputs=()):
    block = Block("entry", list(instrs))
    return FlowGraph("entry", {"entry": block}, tuple(inputs))


def T(name):
    return isa.Temp(name)


def P(bank, index):
    return isa.PhysReg(bank, index)


class TestVirtualExecution:
    def test_alu_ops(self):
        graph = graph_of(
            [
                isa.Immed(T("a"), 12),
                isa.Alu(T("b"), "add", T("a"), isa.Imm(30)),
                isa.Alu(T("c"), "shl", T("b"), isa.Imm(2)),
                isa.Alu(T("d"), "not", T("c")),
                isa.HaltInstr((T("b"), T("c"), T("d"))),
            ]
        )
        result = run_virtual(graph)
        assert result.results == [(0, (42, 168, ~168 & 0xFFFFFFFF))]

    def test_wraparound(self):
        graph = graph_of(
            [
                isa.Immed(T("a"), 0xFFFFFFFF),
                isa.Alu(T("b"), "add", T("a"), isa.Imm(2)),
                isa.Alu(T("c"), "neg", T("b")),
                isa.HaltInstr((T("b"), T("c"))),
            ]
        )
        assert run_virtual(graph).results == [(0, (1, 0xFFFFFFFF))]

    def test_read_undefined_register_traps(self):
        graph = graph_of([isa.HaltInstr((T("nope"),))])
        with pytest.raises(SimulatorError, match="undefined"):
            run_virtual(graph)

    def test_branching(self):
        blocks = {
            "entry": Block(
                "entry",
                [
                    isa.Immed(T("x"), 5),
                    isa.BrCmp("lt", T("x"), isa.Imm(10), "small", "big"),
                ],
            ),
            "small": Block(
                "small", [isa.Immed(T("r"), 1), isa.HaltInstr((T("r"),))]
            ),
            "big": Block(
                "big", [isa.Immed(T("r"), 2), isa.HaltInstr((T("r"),))]
            ),
        }
        graph = FlowGraph("entry", blocks)
        assert run_virtual(graph).results == [(0, (1,))]

    def test_memory_read_write(self):
        memory = MemorySystem.create()
        memory["sram"].load_words(10, [7, 8])
        graph = graph_of(
            [
                isa.Immed(T("addr"), 10),
                isa.MemOp("sram", "read", T("addr"), (T("a"), T("b"))),
                isa.Alu(T("c"), "add", T("a"), T("b")),
                isa.Immed(T("addr2"), 20),
                isa.MemOp("sram", "write", T("addr2"), (T("c"),)),
                isa.HaltInstr((T("c"),)),
            ]
        )
        result = run_virtual(graph, memory=memory)
        assert result.results == [(0, (15,))]
        assert memory["sram"].dump_words(20, 1) == [15]

    def test_hash_deterministic(self):
        graph = graph_of(
            [
                isa.Immed(T("x"), 99),
                isa.HashInstr(T("h"), T("x")),
                isa.HaltInstr((T("h"),)),
            ]
        )
        assert run_virtual(graph).results == [(0, (hash48(99),))]

    def test_csr(self):
        graph = graph_of(
            [
                isa.Immed(T("x"), 5),
                isa.CsrWr(3, T("x")),
                isa.CsrRd(T("y"), 3),
                isa.HaltInstr((T("y"),)),
            ]
        )
        assert run_virtual(graph).results == [(0, (5,))]


class TestCycleModel:
    def test_alu_one_cycle_each(self):
        graph = graph_of(
            [
                isa.Immed(T("a"), 1),
                isa.Alu(T("b"), "add", T("a"), isa.Imm(1)),
                isa.Alu(T("c"), "add", T("b"), isa.Imm(1)),
                isa.HaltInstr(()),
            ]
        )
        result = run_virtual(graph)
        assert result.cycles == 4  # 3 single-cycle ops + halt

    def test_wide_immed_costs_two(self):
        graph = graph_of([isa.Immed(T("a"), 0x12345678), isa.HaltInstr(())])
        assert run_virtual(graph).cycles == 3

    def test_memory_latency_blocks_single_thread(self):
        graph = graph_of(
            [
                isa.Immed(T("a"), 0),
                isa.MemOp("sram", "read", T("a"), (T("x"),)),
                isa.HaltInstr(()),
            ]
        )
        result = run_virtual(graph)
        assert result.cycles >= LATENCY["sram"]

    def test_two_threads_hide_latency(self):
        """The core of the IXP design: thread swap hides memory latency."""
        instrs = [
            isa.Immed(T("a"), 0),
            isa.MemOp("sram", "read", T("a"), (T("x"),)),
            isa.MemOp("scratch", "read", T("a"), (T("y"),)),
            isa.HaltInstr(()),
        ]
        one = run_virtual(graph_of(instrs), iterations=2, threads=1)
        two = run_virtual(graph_of(instrs), iterations=1, threads=2)
        assert two.cycles < one.cycles

    def test_memory_contention_queues(self):
        """A memory unit accepts one request per OCCUPANCY window, so
        concurrent threads queue (the AES-table contention effect the
        paper mentions) — but requests overlap, unlike full
        serialization."""
        sram_heavy = [
            isa.Immed(T("a"), 0),
            isa.MemOp("sram", "read", T("a"), tuple(T(f"x{i}") for i in range(8))),
            isa.HaltInstr(()),
        ]
        one = run_virtual(graph_of(sram_heavy), iterations=1, threads=1)
        four = run_virtual(graph_of(sram_heavy), iterations=1, threads=4)
        # Queueing slows the 4-thread run down...
        assert four.cycles > one.cycles
        # ...but far less than 4x: the unit pipeline overlaps requests.
        assert four.cycles < one.cycles * 4


@pytest.fixture(params=["interp", "compiled"])
def mode(request):
    """Run datapath-check tests under both simulator tiers."""
    return request.param


class TestPhysicalChecks:
    def test_legal_alu(self, mode):
        graph = graph_of(
            [
                isa.Immed(P(Bank.A, 0), 1),
                isa.Immed(P(Bank.B, 0), 2),
                isa.Alu(P(Bank.A, 1), "add", P(Bank.A, 0), P(Bank.B, 0)),
                isa.HaltInstr((P(Bank.A, 1),)),
            ]
        )
        machine = Machine(graph, physical=True, mode=mode)
        assert machine.run().results == [(0, (3,))]

    def test_two_operands_same_bank_trap(self, mode):
        graph = graph_of(
            [
                isa.Immed(P(Bank.A, 0), 1),
                isa.Immed(P(Bank.A, 1), 2),
                isa.Alu(P(Bank.A, 2), "add", P(Bank.A, 0), P(Bank.A, 1)),
                isa.HaltInstr(()),
            ]
        )
        with pytest.raises(SimulatorError, match="two operands from bank A"):
            Machine(graph, physical=True, mode=mode).run()

    def test_two_transfer_operands_trap(self, mode):
        graph = graph_of(
            [
                isa.Immed(P(Bank.A, 0), 0),
                isa.MemOp("sram", "read", P(Bank.A, 0), (P(Bank.L, 0),)),
                isa.MemOp("sdram", "read", P(Bank.A, 0), (P(Bank.LD, 0), P(Bank.LD, 1))),
                isa.Alu(P(Bank.A, 1), "add", P(Bank.L, 0), P(Bank.LD, 0)),
                isa.HaltInstr(()),
            ]
        )
        with pytest.raises(SimulatorError, match="transfer banks"):
            Machine(graph, physical=True, mode=mode).run()

    def test_alu_result_to_read_bank_traps(self, mode):
        graph = graph_of(
            [
                isa.Immed(P(Bank.A, 0), 1),
                isa.Alu(P(Bank.L, 0), "add", P(Bank.A, 0), isa.Imm(1)),
                isa.HaltInstr(()),
            ]
        )
        with pytest.raises(SimulatorError, match="cannot go to bank"):
            Machine(graph, physical=True, mode=mode).run()

    def test_move_within_transfer_bank_traps(self, mode):
        graph = graph_of(
            [
                isa.Immed(P(Bank.A, 0), 0),
                isa.MemOp("sram", "read", P(Bank.A, 0), (P(Bank.L, 0),)),
                isa.Move(P(Bank.L, 1), P(Bank.L, 0)),
                isa.HaltInstr(()),
            ]
        )
        with pytest.raises(SimulatorError, match="cannot go to bank"):
            Machine(graph, physical=True, mode=mode).run()

    def test_aggregate_must_be_adjacent(self, mode):
        graph = graph_of(
            [
                isa.Immed(P(Bank.A, 0), 0),
                isa.MemOp(
                    "sram", "read", P(Bank.A, 0), (P(Bank.L, 0), P(Bank.L, 2))
                ),
                isa.HaltInstr(()),
            ]
        )
        with pytest.raises(SimulatorError, match="adjacent"):
            Machine(graph, physical=True, mode=mode).run()

    def test_aggregate_wrong_bank_traps(self, mode):
        graph = graph_of(
            [
                isa.Immed(P(Bank.A, 0), 0),
                isa.MemOp("sram", "read", P(Bank.A, 0), (P(Bank.LD, 0),)),
                isa.HaltInstr(()),
            ]
        )
        with pytest.raises(SimulatorError, match="not in bank"):
            Machine(graph, physical=True, mode=mode).run()

    def test_address_from_transfer_bank_traps(self, mode):
        graph = graph_of(
            [
                isa.Immed(P(Bank.A, 0), 0),
                isa.MemOp("sram", "read", P(Bank.A, 0), (P(Bank.L, 0),)),
                isa.MemOp("sram", "read", P(Bank.L, 0), (P(Bank.L, 1),)),
                isa.HaltInstr(()),
            ]
        )
        with pytest.raises(SimulatorError, match="address"):
            Machine(graph, physical=True, mode=mode).run()

    def test_hash_same_register_number_enforced(self, mode):
        graph = graph_of(
            [
                isa.Immed(P(Bank.S, 2), 1),
                isa.HashInstr(P(Bank.L, 3), P(Bank.S, 2)),
                isa.HaltInstr(()),
            ]
        )
        with pytest.raises(SimulatorError, match="SameReg"):
            Machine(graph, physical=True, mode=mode).run()

    def test_register_index_bounds(self, mode):
        graph = graph_of([isa.Immed(P(Bank.A, 16), 1), isa.HaltInstr(())])
        with pytest.raises(SimulatorError, match="out of range"):
            Machine(graph, physical=True, mode=mode).run()

    def test_clone_must_not_survive_allocation(self, mode):
        graph = graph_of(
            [
                isa.Immed(P(Bank.A, 0), 1),
                isa.Clone(P(Bank.A, 1), P(Bank.A, 0)),
                isa.HaltInstr(()),
            ]
        )
        with pytest.raises(SimulatorError, match="clone"):
            Machine(graph, physical=True, mode=mode).run()


class TestMemorySystem:
    def test_sdram_alignment(self):
        memory = MemorySystem.create()
        with pytest.raises(SimulatorError, match="alignment"):
            memory["sdram"].read(1, 2)
        with pytest.raises(SimulatorError, match="alignment"):
            memory["sdram"].read(0, 3)

    def test_bounds(self):
        memory = MemorySystem.create({"scratch": 16})
        with pytest.raises(SimulatorError, match="out of range"):
            memory["scratch"].read(15, 2)

    def test_unknown_space(self):
        memory = MemorySystem.create()
        with pytest.raises(SimulatorError, match="unknown memory space"):
            memory["tcam"]

    def test_space_without_timing_rejected(self):
        with pytest.raises(SimulatorError, match="no timing entry"):
            MemorySystem.create({"tcam": 16})

    def test_uninitialized_reads_zero(self):
        memory = MemorySystem.create()
        assert memory["sram"].read(5, 2) == [0, 0]


class TestFlowgraphStructure:
    def test_validate_rejects_missing_terminator(self):
        graph = FlowGraph(
            "entry", {"entry": Block("entry", [isa.Immed(T("a"), 1)])}
        )
        with pytest.raises(ValueError, match="terminator"):
            graph.validate()

    def test_validate_rejects_unknown_target(self):
        graph = FlowGraph("entry", {"entry": Block("entry", [isa.Br("gone")])})
        with pytest.raises(ValueError, match="unknown block"):
            graph.validate()

    def test_points_numbering(self):
        graph = graph_of(
            [isa.Immed(T("a"), 1), isa.Immed(T("b"), 2), isa.HaltInstr(())]
        )
        pm = graph.points()
        assert pm.count == 4
        assert pm.before("entry", 0) == 0
        assert pm.after("entry", 0) == pm.before("entry", 1)
        assert pm.after("entry", 2) == pm.exit("entry")
