"""End-to-end allocation tests: the ILP back end (paper Sections 5-10).

For every corpus program, the allocated physical code must execute on
the datapath-checking simulator and agree with the virtual-register
semantics — this exercises the whole stack: model, solver, transfer
coloring, A/B coloring with coalescing, decode, spills.
"""

import dataclasses
import math

import pytest

from repro.alloc.verify import check_equivalence
from repro.compiler import CompileOptions, compile_nova
from repro.fuzz.gen import generate
from repro.ilp.model import Solution
from repro.ixp.banks import Bank
from repro.trace import Tracer

from tests.helpers import PRESSURE_VALUES, compile_full, run_main, run_physical
from tests.programs import CASES, case

# ILP solves take a couple hundred ms each; run the full corpus.
CORPUS = [tc for tc in CASES]


@pytest.mark.parametrize("tc", CORPUS, ids=lambda tc: tc.name)
def test_allocated_code_matches_virtual(tc):
    comp = compile_full(tc.source)
    assert comp.alloc is not None
    assert comp.alloc.status == "optimal"
    virtual_results, virtual_mem = run_main(comp, tc.memory, **tc.inputs)
    physical_results, physical_mem = run_physical(comp, tc.memory, **tc.inputs)
    assert physical_results == virtual_results
    spill_lo = comp.alloc.model.options and 0
    del spill_lo
    spill_slots = set(comp.alloc.decoded.spill_slots.values())
    for space in ("sram", "sdram", "scratch"):
        words_v = {a: w for a, w in virtual_mem[space].words.items() if w}
        words_p = {
            a: w
            for a, w in physical_mem[space].words.items()
            if w and not (space == "scratch" and a in spill_slots)
        }
        assert words_v == words_p, space


def test_check_equivalence_helper():
    tc = case("memory_roundtrip")
    comp = compile_full(tc.source)
    report = check_equivalence(
        comp.flowgraph,
        comp.physical,
        comp.make_inputs(**tc.inputs),
        comp.alloc.decoded.input_locations,
        memory_image=tc.memory,
        spill_region=(960, 64),
    )
    assert report.ok, report.detail


class TestPaperScenarios:
    def test_fragmentation_eviction(self):
        """Paper Section 2.1: a read fills the bank; dead values leave
        holes; a later aggregate needs contiguous space, so the solver
        must evict/arrange registers so both reads fit."""
        source = """
        fun main (a1, a2) {
          let (u, v, w, x, p, q, r, s) = sram(a1);
          // v and x die immediately; u, w live across the second read
          let keep = u + w + p + q + r + s + v + x;
          let (y, z, y2, z2, y3, z3) = sram(a2);
          keep + y + z + y2 + z2 + y3 + z3
        }
        """
        comp = compile_full(source)
        assert comp.alloc.spills == 0
        tcv, _ = run_main(comp, {"sram": [(0, list(range(1, 9))), (16, list(range(9, 15)))]}, a1=0, a2=16)
        tcp, _ = run_physical(comp, {"sram": [(0, list(range(1, 9))), (16, list(range(9, 15)))]}, a1=0, a2=16)
        assert tcv == tcp == [(sum(range(1, 15)),)]

    def test_conflicting_write_positions_need_clones(self):
        """Paper Section 2.1: x at different positions in two stores —
        without SSU/cloning the colorings would conflict."""
        source = """
        fun main (b, u, v, w, a, c) {
          let x = u ^ v;
          sram(b) <- (u, v, x, w);
          sram(b + 8) <- (a, x, w, c);
          x
        }
        """
        comp = compile_full(source)
        assert comp.ssu_stats.clones_inserted >= 2
        rv, mv = run_main(comp, b=0, u=1, v=2, w=3, a=4, c=5)
        rp, mp = run_physical(comp, b=0, u=1, v=2, w=3, a=4, c=5)
        assert rv == rp == [(3,)]
        assert mv["sram"].dump_words(0, 4) == [1, 2, 3, 3]
        assert mv["sram"].dump_words(8, 4) == [4, 3, 3, 5]
        assert mp["sram"].dump_words(8, 4) == [4, 3, 3, 5]

    def test_hash_same_register(self):
        """SameReg: hash src (S) and dst (L) share a register number."""
        source = "fun main (x) { hash(x) + hash(x + 1) }"
        comp = compile_full(source)
        rv, _ = run_main(comp, x=7)
        rp, _ = run_physical(comp, x=7)
        assert rv == rp
        # Check the color constraint held.
        colors = comp.alloc.alloc.colors
        same_reg = comp.alloc.model.sets.same_reg
        assert same_reg
        for _, _, d, s in same_reg:
            assert colors[(d, Bank.L)] == colors[(s, Bank.S)]

    def test_aggregate_colors_adjacent(self):
        source = """
        fun main (b) {
          let (p, q, r, s) = sram(b);
          p + q + r + s
        }
        """
        comp = compile_full(source)
        sets = comp.alloc.model.sets
        colors = comp.alloc.alloc.colors
        ((_, _, names),) = sets.def_l
        values = [colors[(v, Bank.L)] for v in names]
        assert values == list(range(values[0], values[0] + 4))

    def test_spill_forced_under_pressure(self, pressure_compilation):
        """33 values live at once, more than A and B hold (15 + 16):
        the allocation ends optimal or with a timeout incumbent, and its
        code computes what the virtual code does.

        Whether the allocator spills is not asserted: the default path
        keeps all 33 values in registers, the surplus in L.  The solve
        accepts the first incumbent within a coarse gap and waits out
        its 90 s limit, so it is shared (``pressure_compilation``).
        """
        n = PRESSURE_VALUES
        comp = pressure_compilation
        assert comp.alloc.status in ("optimal", "timeout")
        image = {"sram": [(0, list(range(1, n + 1)))]}
        rv, _ = run_main(comp, image, b=0)
        rp, _ = run_physical(comp, image, b=0)
        assert rv == rp == [(sum(range(1, n + 1)),)]

    def test_zero_spills_for_normal_pressure(self):
        tc = case("memory_roundtrip")
        comp = compile_full(tc.source)
        assert comp.alloc.spills == 0

    def test_two_phase_matches_one_shot(self):
        tc = case("clone_heavy")
        one = compile_full(tc.source, two_phase=False)
        two = compile_full(tc.source, two_phase=True)
        assert two.alloc.status == "optimal"
        assert two.alloc.spills == one.alloc.spills == 0
        rv, _ = run_physical(one, tc.memory, **tc.inputs)
        rp, _ = run_physical(two, tc.memory, **tc.inputs)
        assert rv == rp == tc.expect_results

    def test_clones_share_register_at_clone_point(self):
        tc = case("clone_heavy")
        comp = compile_full(tc.source)
        assert comp.alloc.decoded.stats.clones_dropped >= 1


def _solve_objective(tracer) -> float:
    return tracer.last("solve").counters["objective"]


class TestSpillFreeFirst:
    """The default allocation solves the model without the M bank first
    and builds the full model only when that solve yields nothing."""

    def test_one_shot_tie_with_a_spill(self):
        # Both models reach objective 401 here; the one-shot optimum may
        # take a tie with a spill, the spill-free model cannot.
        source = generate(95).source
        traced = {}
        for two_phase in (True, False):
            options = CompileOptions()
            options.alloc.two_phase = two_phase
            tracer = Tracer()
            comp = compile_nova(source, options=options, tracer=tracer)
            assert comp.alloc.status == "optimal"
            traced[two_phase] = (comp, _solve_objective(tracer))
        (default, objective), (_, one_shot_objective) = traced[True], traced[False]
        assert default.alloc.spills == 0
        gap = CompileOptions().alloc.solve.gap
        assert abs(objective - one_shot_objective) <= gap * max(
            1.0, abs(one_shot_objective)
        )

    @staticmethod
    def _patch_first_solve(monkeypatch, rewrite):
        """Pass the spill-free solve's answer through ``rewrite``."""
        import repro.alloc.allocator as allocator_mod

        real = allocator_mod._solve
        calls = []

        def patched(model, options, tracer=None):
            solution = real(model, options, tracer)
            calls.append(model.num_vars)
            return rewrite(solution) if len(calls) == 1 else solution

        monkeypatch.setattr(allocator_mod, "_solve", patched)
        return calls

    def test_timeout_without_incumbent_reaches_full_model(self, monkeypatch):
        import numpy as np

        calls = self._patch_first_solve(
            monkeypatch,
            lambda s: Solution(
                "timeout", math.inf, np.zeros(len(s.values)), 0.0, 1.0
            ),
        )
        tc = case("clone_heavy")
        comp = compile_full(tc.source)
        assert len(calls) == 2 and calls[0] < calls[1]
        assert comp.alloc.variables == calls[1]
        assert comp.alloc.status == "optimal"
        assert comp.alloc.fallback is None
        rp, _ = run_physical(comp, tc.memory, **tc.inputs)
        assert rp == tc.expect_results

    def test_timeout_with_incumbent_is_returned(self, monkeypatch):
        calls = self._patch_first_solve(
            monkeypatch, lambda s: dataclasses.replace(s, status="timeout")
        )
        tc = case("clone_heavy")
        comp = compile_full(tc.source)
        assert len(calls) == 1
        assert comp.alloc.variables == calls[0]
        assert comp.alloc.status == "timeout"
        assert comp.alloc.fallback is None
        assert comp.alloc.spills == 0
        rp, _ = run_physical(comp, tc.memory, **tc.inputs)
        assert rp == tc.expect_results

    def test_spill_free_crash_reaches_full_model(self, monkeypatch):
        def crash(solution):
            raise RuntimeError("synthetic solver crash")

        calls = self._patch_first_solve(monkeypatch, crash)
        tc = case("clone_heavy")
        comp = compile_full(tc.source)
        assert len(calls) == 2
        assert comp.alloc.variables == calls[1]
        assert comp.alloc.status == "optimal"
        assert comp.alloc.fallback is None
