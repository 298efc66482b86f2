"""Tests for the independent verifiers (solution replay + equivalence)."""

import pytest

from repro.alloc.ilpmodel import AllocSolution
from repro.alloc.verify import check_equivalence, check_solution
from repro.ixp import isa
from repro.ixp.banks import Bank

from tests.helpers import compile_full
from tests.programs import case


@pytest.mark.parametrize(
    "name",
    [
        "memory_roundtrip",
        "clone_heavy",
        "while_sum",
        "hash_unit",
        "sdram_pairs",
    ],
)
def test_solutions_pass_replay(name):
    tc = case(name)
    comp = compile_full(tc.source)
    report = check_solution(comp.alloc.model, comp.alloc.alloc)
    assert report.ok, report.violations


def _tamper(solution: AllocSolution, **changes) -> AllocSolution:
    return AllocSolution(
        banks_before=changes.get("banks_before", solution.banks_before),
        banks_after=changes.get("banks_after", solution.banks_after),
        moves=solution.moves,
        colors=changes.get("colors", solution.colors),
        spills=solution.spills,
        move_count=solution.move_count,
    )


class TestReplayCatchesCorruption:
    def comp(self):
        return compile_full(case("memory_roundtrip").source)

    def test_detects_wrong_aggregate_bank(self):
        comp = self.comp()
        solution = comp.alloc.alloc
        # Force one read target's Before bank to A (illegal: must be L).
        (p1, p2, names) = comp.alloc.model.sets.def_l[0]
        banks_before = dict(solution.banks_before)
        banks_before[(p2, names[0])] = Bank.A
        report = check_solution(comp.alloc.model, _tamper(solution, banks_before=banks_before))
        assert not report.ok
        assert any("aggregate" in v or "DefL" in v for v in report.violations)

    def test_detects_nonadjacent_colors(self):
        comp = self.comp()
        solution = comp.alloc.alloc
        (p1, p2, names) = comp.alloc.model.sets.def_l[0]
        colors = dict(solution.colors)
        first = colors[(names[0], Bank.L)]
        colors[(names[1], Bank.L)] = (first + 3) % 8
        report = check_solution(
            comp.alloc.model, _tamper(solution, colors=colors)
        )
        assert not report.ok
        assert any("adjacent" in v for v in report.violations)

    def test_detects_broken_copy(self):
        comp = self.comp()
        solution = comp.alloc.alloc
        # Flip one live temp's After bank mid-range without a move.
        p1, p2, v = sorted(comp.alloc.model.live.copies)[0]
        banks_after = dict(solution.banks_after)
        current = banks_after.get((p1, v))
        if current is None:
            pytest.skip("no after entry on this copy edge")
        banks_after[(p1, v)] = Bank.B if current is not Bank.B else Bank.A
        report = check_solution(
            comp.alloc.model, _tamper(solution, banks_after=banks_after)
        )
        assert not report.ok

    def test_detects_interfering_transfer_registers(self):
        """Shift the second L aggregate of xfer_pressure, members still
        adjacent, onto the register of a live temp of the first."""
        from tests.test_model_encodings import PROGRAMS

        comp = compile_full(PROGRAMS["xfer_pressure"])
        am, solution = comp.alloc.model, comp.alloc.alloc
        first, second = (names for _, _, names in am.sets.def_l)
        colors = dict(solution.colors)

        def clashes(moved):
            for p, live in am.live.live_at.items():
                in_l = {
                    v for v in live if solution.banks_before.get((p, v)) is Bank.L
                }
                for v in in_l.intersection(first):
                    for w in in_l.intersection(second):
                        if moved[w] == colors[(v, Bank.L)]:
                            return True
            return False

        for shift in range(-7, 8):
            moved = {w: colors[(w, Bank.L)] + shift for w in second}
            if all(0 <= r < 8 for r in moved.values()) and clashes(moved):
                break
        else:
            pytest.fail("no shift puts two live L temps in one register")
        colors.update({(w, Bank.L): r for w, r in moved.items()})
        report = check_solution(am, _tamper(solution, colors=colors))
        assert report.violations
        assert all("interference" in v for v in report.violations)

    def test_detects_same_bank_operands(self):
        comp = compile_full("fun main (x, y) { x + y }")
        solution = comp.alloc.alloc
        sets = comp.alloc.model.sets
        if not sets.arith:
            pytest.skip("no two-operand instruction")
        p1, p2, a, b = sets.arith[0]
        banks_after = dict(solution.banks_after)
        banks_after[(p1, a)] = banks_after[(p1, b)] = Bank.A
        report = check_solution(
            comp.alloc.model, _tamper(solution, banks_after=banks_after)
        )
        assert not report.ok
        assert any("both operands" in v for v in report.violations)


class TestReplayCatchesRegisterSharing:
    """Corruptions that make two live values share one register."""

    def test_detects_shared_transfer_register(self):
        comp = compile_full(case("sdram_pairs").source)
        solution = comp.alloc.alloc
        # Collapse an aggregate onto one transfer register: both members
        # get the same color, i.e. two live ranges in one register.
        found = None
        for p1, p2, names in (
            comp.alloc.model.sets.def_l + comp.alloc.model.sets.def_ld
        ):
            if len(names) >= 2:
                found = names
                break
        assert found is not None
        bank = comp.alloc.alloc.banks_before[
            (p2, found[0])
        ]  # the aggregate's bank
        colors = dict(solution.colors)
        colors[(found[1], bank)] = colors[(found[0], bank)]
        report = check_solution(
            comp.alloc.model, _tamper(solution, colors=colors)
        )
        assert not report.ok
        assert any("adjacent" in v for v in report.violations)

    def test_detects_missing_assignment(self):
        comp = compile_full(case("memory_roundtrip").source)
        solution = comp.alloc.alloc
        p, v = sorted(comp.alloc.model.live.exists)[0]
        banks_before = dict(solution.banks_before)
        del banks_before[(p, v)]
        report = check_solution(
            comp.alloc.model, _tamper(solution, banks_before=banks_before)
        )
        assert not report.ok
        assert any("no Before bank" in v for v in report.violations)

    def test_detects_hash_register_mismatch(self):
        comp = compile_full(case("hash_unit").source)
        solution = comp.alloc.alloc
        sets = comp.alloc.model.sets
        if not sets.same_reg:
            pytest.skip("no hash pair in this program")
        p1, p2, d, s = sets.same_reg[0]
        colors = dict(solution.colors)
        from repro.ixp.banks import Bank as B

        colors[(d, B.L)] = (colors.get((d, B.L), 0) + 1) % 8
        if colors[(d, B.L)] == colors.get((s, B.S)):
            colors[(d, B.L)] = (colors[(d, B.L)] + 1) % 8
        report = check_solution(
            comp.alloc.model, _tamper(solution, colors=colors)
        )
        assert not report.ok
        assert any("SameReg" in v for v in report.violations)


class TestEquivalenceChecker:
    def test_passes_on_correct_code(self):
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
        assert report.ok

    def test_catches_sabotaged_code(self):
        tc = case("memory_roundtrip")
        comp = compile_full(tc.source)
        # Sabotage: flip an ALU op in the physical code.
        sabotaged = False
        for block in comp.physical.blocks.values():
            for i, instr in enumerate(block.instrs):
                if isinstance(instr, isa.Alu) and instr.op == "add":
                    block.instrs[i] = isa.Alu(instr.dst, "sub", instr.a, instr.b)
                    sabotaged = True
                    break
            if sabotaged:
                break
        assert sabotaged
        report = check_equivalence(
            comp.flowgraph,
            comp.physical,
            comp.make_inputs(**tc.inputs),
            comp.alloc.decoded.input_locations,
            memory_image=tc.memory,
            spill_region=(960, 64),
        )
        assert not report.ok

    def test_catches_register_aliasing(self):
        """Redirecting a result into another live register (two ranges
        aliased onto one register) must show up as a behaviour change."""
        tc = case("memory_roundtrip")
        comp = compile_full(tc.source)
        aliased = False
        for block in comp.physical.blocks.values():
            for i, instr in enumerate(block.instrs):
                if (
                    isinstance(instr, isa.Alu)
                    and isinstance(instr.dst, isa.PhysReg)
                    and instr.dst.bank in (Bank.A, Bank.B)
                ):
                    wrong = isa.PhysReg(instr.dst.bank, (instr.dst.index + 1) % 15)
                    if wrong != instr.dst:
                        block.instrs[i] = isa.Alu(wrong, instr.op, instr.a, instr.b)
                        aliased = True
                        break
            if aliased:
                break
        assert aliased
        report = check_equivalence(
            comp.flowgraph,
            comp.physical,
            comp.make_inputs(**tc.inputs),
            comp.alloc.decoded.input_locations,
            memory_image=tc.memory,
            spill_region=(960, 64),
        )
        assert not report.ok
