"""Decoder-level tests: spill code, exit-point moves, input locations."""

import pytest

from repro.ixp import isa
from repro.ixp.banks import Bank

from tests.helpers import compile_full, run_main, run_physical


def find_instrs(graph, cls):
    return [i for _, _, i in graph.instructions() if isinstance(i, cls)]


class TestSpillSequencesUnit:
    """Deterministic spill decoding: force a spill through the model by
    removing the GPR banks from one temp's candidates."""

    def force_spilled(self):
        from repro.alloc import abcolor, decode
        from repro.alloc.ilpmodel import extract_solution
        from repro.ilp.solve import solve_model
        from repro.ixp.banks import Bank
        from tests.helpers import compile_virtual

        # x may only live in L or M; the 8-word read needs the whole L
        # bank, so x must take a scratch round-trip (store + reload).
        comp = compile_virtual(
            """
            fun main (b) {
              let x = sram(b);
              let (a1, a2, a3, a4, a5, a6, a7, a8) = sram(b + 1, 8);
              a1 + a2 + a3 + a4 + a5 + a6 + a7 + a8 + x
            }
            """
        )
        am = build_model_with_candidates(comp.flowgraph, lambda sets: {
            sets.def_l[0][2][0]: (Bank.L, Bank.M)
        })
        sol = solve_model(am.model)
        assert sol.status == "optimal"
        decoded_sol = extract_solution(am, sol)
        ab = abcolor.assign_ab_registers(
            comp.flowgraph,
            decoded_sol.banks_before,
            decoded_sol.banks_after,
            am.clone_rep,
        )
        result = decode.decode(am, decoded_sol, ab)
        return comp, decoded_sol, result

    def test_forced_spill_roundtrips(self):
        from repro.alloc.decode import place_inputs
        from repro.ixp.machine import Machine
        from repro.ixp.memory import MemorySystem

        comp, sol, result = self.force_spilled()
        assert sol.spills >= 1
        assert result.stats.spill_stores >= 1
        assert result.stats.spill_reloads >= 1
        # Run the decoded code: semantics must hold despite the detour.
        memory = MemorySystem.create()
        memory["sram"].load_words(0, [100, 1, 2, 3, 4, 5, 6, 7, 8])
        inputs = place_inputs(
            result.input_locations, comp.make_inputs(b=0), memory
        )
        machine = Machine(
            result.graph,
            memory=memory,
            physical=True,
            input_provider=lambda tid, it: inputs if it == 0 else None,
        )
        run = machine.run()
        assert run.results == [(0, (136,))]


def build_model_with_candidates(graph, make_restrictions):
    """Like build_model, but with per-temp candidate-bank restrictions
    (``make_restrictions(sets)`` returns temp → banks)."""
    from repro.alloc import ilpmodel as m
    from repro.alloc import frequency, liveness, pruning
    from repro.ilp.model import Model

    options = m.ModelOptions()
    points = graph.points()
    live = liveness.analyze(graph)
    sets = m.build_instr_sets(graph, points)
    candidates = pruning.candidate_banks(graph, True)
    for temp, banks in make_restrictions(sets).items():
        candidates.banks[temp] = frozenset(banks)
    costs = pruning.build_move_costs()
    weights = frequency.point_weights(graph)
    reps = m.clone_groups(sets)
    am = m.AllocModel(
        Model("restricted"),
        graph,
        points,
        live,
        sets,
        candidates,
        costs,
        weights,
        options,
        reps,
    )
    m._build_location_vars(am)
    m._build_operand_constraints(am)
    m._build_k_constraints(am)
    m._build_color_constraints(am)
    m._build_clone_constraints(am)
    m._build_spare_register_constraints(am)
    m._build_objective(am)
    return am


class TestSpillCode:
    def test_spill_sequences_use_scratch(self, pressure_compilation):
        comp = pressure_compilation
        if comp.alloc.spills == 0:
            pytest.skip("solver fit everything without spills")
        scratch_ops = [
            i
            for i in find_instrs(comp.physical, isa.MemOp)
            if i.space == "scratch"
        ]
        stores = [i for i in scratch_ops if i.direction == "write"]
        loads = [i for i in scratch_ops if i.direction == "read"]
        assert stores and loads
        # Stores go out through S, loads come back through L.
        for op in stores:
            assert all(r.bank is Bank.S for r in op.regs)
        for op in loads:
            assert all(r.bank is Bank.L for r in op.regs)
        # Slot addressing uses the reserved A15.
        spare_immeds = [
            i
            for i in find_instrs(comp.physical, isa.Immed)
            if isinstance(i.dst, isa.PhysReg)
            and i.dst.bank is Bank.A
            and i.dst.index == 15
        ]
        assert spare_immeds

    def test_spill_slots_disjoint(self, pressure_compilation):
        slots = list(pressure_compilation.alloc.decoded.spill_slots.values())
        assert len(slots) == len(set(slots))

    def test_a15_never_allocated_to_temps(self, pressure_compilation):
        comp = pressure_compilation
        for (temp, bank), index in comp.alloc.ab.colors.items():
            if bank is Bank.A:
                assert index != 15


class TestMovePlacement:
    def test_exit_point_moves_precede_terminator(self):
        # A diamond whose join forces values into one location: any
        # decoded move must come before the block's terminator.
        comp = compile_full(
            """
            fun main (x, b) {
              let (p, q) = sram(b);
              let r = if (x < 5) p + q else p ^ q;
              sram(b + 4) <- (r, x);
              r
            }
            """
        )
        for block in comp.physical.blocks.values():
            for instr in block.instrs[:-1]:
                assert not isinstance(instr, isa.TERMINATORS)
        rv, _ = run_main(comp, {"sram": [(0, [3, 9])]}, x=1, b=0)
        rp, _ = run_physical(comp, {"sram": [(0, [3, 9])]}, x=1, b=0)
        assert rv == rp == [(12,)]

    def test_input_locations_cover_used_params(self):
        comp = compile_full("fun main (x, y) { x + y }")
        locations = comp.alloc.decoded.input_locations
        mapping = comp.inputs_by_name()
        for name in ("x", "y"):
            (temp,) = mapping[name]
            assert temp in locations
            kind, where = locations[temp]
            assert kind == "reg"
            assert where.bank in (Bank.A, Bank.B)

    def test_unused_input_has_no_location(self):
        comp = compile_full("fun main (x, unused) { x + 1 }")
        locations = comp.alloc.decoded.input_locations
        (unused_temp,) = comp.inputs_by_name()["unused"]
        assert unused_temp not in locations

    def test_clone_instructions_never_survive(self):
        from tests.programs import case

        comp = compile_full(case("clone_heavy").source)
        assert not find_instrs(comp.physical, isa.Clone)

    def test_decode_stats_consistent(self):
        from tests.programs import case

        comp = compile_full(case("clone_heavy").source)
        stats = comp.alloc.decoded.stats
        assert stats.clones_dropped == len(comp.alloc.model.sets.clones)
        assert stats.spill_stores == stats.spill_reloads == 0
