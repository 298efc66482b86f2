"""Unit tests for the allocator's components: liveness, frequency,
pruning, move costs, A/B coloring, baseline."""

import pytest

from repro.alloc import liveness
from repro.alloc.baseline import allocate_baseline
from repro.alloc.frequency import (
    block_frequencies,
    branch_probabilities,
    dempster_shafer,
    point_weights,
)
from repro.alloc.pruning import build_move_costs, candidate_banks
from repro.ixp import isa
from repro.ixp.banks import Bank
from repro.ixp.flowgraph import Block, FlowGraph
from repro.ixp.machine import Machine
from repro.ixp.memory import MemorySystem

from tests.helpers import compile_virtual


def T(name):
    return isa.Temp(name)


def straightline(instrs):
    return FlowGraph("entry", {"entry": Block("entry", list(instrs))})


class TestLiveness:
    def graph(self):
        return straightline(
            [
                isa.Immed(T("a"), 1),  # p0 -> p1
                isa.Immed(T("b"), 2),  # p1 -> p2
                isa.Alu(T("c"), "add", T("a"), T("b")),  # p2 -> p3
                isa.HaltInstr((T("c"),)),  # p3 -> p4
            ]
        )

    def test_live_ranges(self):
        info = liveness.analyze(self.graph())
        # a live from p1 (after def) to p2 (its use).
        assert "a" in info.live_at[1]
        assert "a" in info.live_at[2]
        assert "a" not in info.live_at[3]
        assert "c" in info.live_at[3]

    def test_exists_includes_dead_defs(self):
        graph = straightline(
            [
                isa.Immed(T("dead"), 1),  # result never used
                isa.HaltInstr(()),
            ]
        )
        info = liveness.analyze(graph)
        # (p1, dead) exists even though dead is nowhere live (paper 5.2).
        assert (1, "dead") in info.exists
        assert not any(
            "dead" in live for live in info.live_at.values()
        )

    def test_copy_set_within_block(self):
        info = liveness.analyze(self.graph())
        # a carried unchanged across instruction 1 (p1 -> p2).
        assert (1, 2, "a") in info.copies
        # a not copied across its own definition.
        assert (0, 1, "a") not in info.copies

    def test_copy_across_edges(self):
        blocks = {
            "entry": Block(
                "entry",
                [isa.Immed(T("x"), 1), isa.Br("next")],
            ),
            "next": Block("next", [isa.HaltInstr((T("x"),))]),
        }
        graph = FlowGraph("entry", blocks)
        info = liveness.analyze(graph)
        points = graph.points()
        edge = (points.exit("entry"), points.entry("next"), "x")
        assert edge in info.copies

    def test_interference_pairs_exclude_clones(self):
        graph = straightline(
            [
                isa.Immed(T("x"), 1),
                isa.Clone(T("y"), T("x")),
                isa.Alu(T("z"), "add", T("x"), isa.Imm(1)),
                isa.HaltInstr((T("y"), T("z"))),
            ]
        )
        info = liveness.analyze(graph)
        pairs = liveness.interference_pairs(info, {"x": "x", "y": "x"})
        assert ("x", "y") not in pairs and ("y", "x") not in pairs
        assert ("y", "z") in pairs or ("z", "y") in pairs


class TestFrequency:
    def test_dempster_shafer_combination(self):
        assert dempster_shafer(0.5, 0.8) == pytest.approx(0.8)
        assert dempster_shafer(0.8, 0.8) > 0.9
        assert dempster_shafer(0.8, 0.2) == pytest.approx(0.5)

    def loop_graph(self):
        blocks = {
            "entry": Block("entry", [isa.Immed(T("i"), 0), isa.Br("head")]),
            "head": Block(
                "head",
                [isa.BrCmp("lt", T("i"), isa.Imm(10), "body", "exit")],
            ),
            "body": Block(
                "body",
                [isa.Alu(T("i"), "add", T("i"), isa.Imm(1)), isa.Br("head")],
            ),
            "exit": Block("exit", [isa.HaltInstr(())]),
        }
        return FlowGraph("entry", blocks)

    def test_loop_branch_heuristic(self):
        probs = branch_probabilities(self.loop_graph())
        assert probs[("head", "body")] > 0.8
        assert probs[("head", "exit")] < 0.2

    def test_loop_blocks_hotter_than_entry(self):
        freq = block_frequencies(self.loop_graph())
        assert freq["body"] > 3 * freq["entry"]
        assert freq["exit"] == pytest.approx(freq["entry"], rel=0.05)

    def test_point_weights_follow_blocks(self):
        graph = self.loop_graph()
        weights = point_weights(graph)
        points = graph.points()
        hot = weights[points.before("body", 0)]
        cold = weights[points.before("entry", 0)]
        assert hot > cold

    def test_frequencies_converge_on_irreducible_graph(self):
        # Two-entry loop (irreducible): a -> b -> c -> b, a -> c.
        blocks = {
            "a": Block(
                "a", [isa.BrCmp("eq", T("x"), isa.Imm(0), "b", "c")]
            ),
            "b": Block(
                "b", [isa.BrCmp("eq", T("x"), isa.Imm(1), "c", "exit")]
            ),
            "c": Block(
                "c", [isa.BrCmp("eq", T("x"), isa.Imm(2), "b", "exit")]
            ),
            "exit": Block("exit", [isa.HaltInstr(())]),
        }
        graph = FlowGraph("a", blocks)
        graph.inputs = ("x",)
        freq = block_frequencies(graph)
        assert all(0 < f < 100 for f in freq.values())


class TestPruningAndCosts:
    def test_load_never_stored(self):
        comp = compile_virtual(
            "fun main (b) { let x = sram(b); x + 1 }"
        )
        cand = candidate_banks(comp.flowgraph)
        # Find the memory-read target.
        (read,) = [
            i
            for _, _, i in comp.flowgraph.instructions()
            if isinstance(i, isa.MemOp)
        ]
        banks = cand.of(read.regs[0].name)
        assert Bank.L in banks
        assert Bank.S not in banks
        assert Bank.SD not in banks
        assert Bank.LD not in banks

    def test_sdram_read_gets_ld(self):
        comp = compile_virtual(
            "fun main (b) { let (x, y) = sdram(b); x + y }"
        )
        cand = candidate_banks(comp.flowgraph)
        (read,) = [
            i
            for _, _, i in comp.flowgraph.instructions()
            if isinstance(i, isa.MemOp)
        ]
        assert Bank.LD in cand.of(read.regs[0].name)

    def test_disabled_pruning_gives_all_banks(self):
        comp = compile_virtual("fun main (x) { x + 1 }")
        cand = candidate_banks(comp.flowgraph, enabled=False)
        assert len(cand.of("anything")) == 7

    def test_move_costs_match_paper_section7(self):
        costs = build_move_costs()
        # Direct ALU pass.
        assert costs.cost(Bank.A, Bank.B) == 1
        assert costs.cost(Bank.L, Bank.S) == 1
        # Spill: move + store (paper: Move A->M = mvC + stC).
        assert costs.cost(Bank.A, Bank.M) == 201
        # Store-side spill from S is just the store.
        assert costs.cost(Bank.S, Bank.M) == 200
        # Reload lands in L directly.
        assert costs.cost(Bank.M, Bank.L) == 200
        # Reload + move (paper: M -> A).
        assert costs.cost(Bank.M, Bank.A) == 201
        # Round trip (paper: Move A->L = mvC + stC + ldC).
        assert costs.cost(Bank.A, Bank.L) == 401
        # LD is unreachable by moves.
        assert not costs.legal(Bank.A, Bank.LD)
        assert not costs.legal(Bank.M, Bank.LD)

    def test_identity_moves_free(self):
        costs = build_move_costs()
        for bank in Bank:
            assert costs.cost(bank, bank) == 0


class TestBaseline:
    def test_baseline_runs_simple_program(self):
        comp = compile_virtual(
            """
            fun main (b) {
              let (x, y) = sram(b);
              sram(b + 4) <- (y, x);
              x + y
            }
            """
        )
        result = allocate_baseline(comp.flowgraph)
        assert result.spills == 0
        assert result.physical is not None
        # Drains 2 reads + stages 2 writes = at least 4 moves.
        assert result.moves >= 4
        memory = MemorySystem.create()
        memory["sram"].load_words(0, [5, 6])
        from repro.alloc.baseline import baseline_input_locations
        from repro.alloc.decode import place_inputs

        locations = baseline_input_locations(comp.flowgraph, result)
        inputs = place_inputs(locations, comp.make_inputs(b=0), memory)
        machine = Machine(
            result.physical,
            memory=memory,
            physical=True,
            input_provider=lambda tid, it: inputs if it == 0 else None,
        )
        run = machine.run()
        assert run.results == [(0, (11,))]
        assert memory["sram"].dump_words(4, 2) == [6, 5]

    def test_baseline_reports_spills_under_pressure(self):
        n = 35
        reads = "\n".join(f"  let x{i} = sram(b + {i});" for i in range(n))
        uses = " + ".join(f"x{i}" for i in range(n))
        comp = compile_virtual(f"fun main (b) {{\n{reads}\n  {uses}\n}}")
        result = allocate_baseline(comp.flowgraph)
        assert result.spills > 0
        assert result.physical is None
