"""Independent verification of allocated code.

Three layers of checking:

1. **Solution replay** — :func:`check_solution` re-derives the paper's
   constraint families (one place only, copy propagation, operand/result
   banks, K capacities, aggregate adjacency, SameReg, clone location
   agreement, transfer-register interference) directly from the
   flowgraph and asserts the extracted ILP solution satisfies each one —
   independently of the model builder that produced the constraints.
2. **Static datapaths** — the simulator's physical mode traps every
   Figure 1 violation (ALU bank legality, aggregate adjacency,
   transfer-bank isolation, hash SameReg, register bounds).
3. **Dynamic equivalence** — :func:`check_equivalence` runs the virtual
   (pre-allocation) and physical (post-allocation) graphs on the same
   inputs and memory image and requires identical halt values and memory
   contents (ignoring the reserved spill region).

Together these make the ILP model, the decoder and the A/B coloring
mutually accountable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.alloc.decode import place_inputs
from repro.errors import SimulatorError
from repro.ixp.banks import (
    ALU_INPUT_BANKS,
    ALU_OUTPUT_BANKS,
    K_CAPACITY,
    XFER_BANKS,
    XFER_SIZE,
    Bank,
)
from repro.ixp.flowgraph import FlowGraph
from repro.ixp.machine import Machine
from repro.ixp.memory import MemorySystem


@dataclass
class EquivalenceReport:
    ok: bool
    virtual_results: list
    physical_results: list
    detail: str = ""


def _run(
    graph: FlowGraph,
    physical: bool,
    inputs: dict,
    memory: MemorySystem,
    iterations: int = 1,
) -> list:
    def provider(tid: int, iteration: int):
        if iteration >= iterations:
            return None
        return dict(inputs)

    machine = Machine(
        graph,
        memory=memory,
        threads=1,
        physical=physical,
        input_provider=provider,
    )
    result = machine.run()
    return [values for _, values in result.results]


def check_equivalence(
    virtual: FlowGraph,
    physical: FlowGraph,
    virtual_inputs: dict[str, int],
    input_locations: dict[str, tuple],
    memory_image: dict[str, list[tuple[int, list[int]]]] | None = None,
    spill_region: tuple[int, int] | None = None,
    iterations: int = 1,
) -> EquivalenceReport:
    """Run both graphs and compare results and memory.

    ``memory_image`` maps space name to (addr, words) preload chunks.
    ``spill_region`` is a scratch (start, length) window excluded from
    the comparison (the physical code's spill slots live there).
    """
    mem_v = MemorySystem.create()
    mem_p = MemorySystem.create()
    for mem in (mem_v, mem_p):
        mem.load_image(memory_image or {})
    physical_inputs = place_inputs(input_locations, virtual_inputs, mem_p)

    try:
        virtual_out = _run(virtual, False, virtual_inputs, mem_v, iterations)
        physical_out = _run(physical, True, physical_inputs, mem_p, iterations)
    except SimulatorError as exc:
        return EquivalenceReport(False, [], [], f"simulator trap: {exc}")

    if virtual_out != physical_out:
        return EquivalenceReport(
            False,
            virtual_out,
            physical_out,
            "halt values differ",
        )

    for space in ("sram", "sdram", "scratch"):
        words_v = dict(mem_v[space].words)
        words_p = dict(mem_p[space].words)
        if space == "scratch" and spill_region is not None:
            lo, hi = spill_region[0], spill_region[0] + spill_region[1]
            words_p = {a: w for a, w in words_p.items() if not lo <= a < hi}
        # Ignore zero-valued cells (reads return 0 for untouched cells).
        words_v = {a: w for a, w in words_v.items() if w != 0}
        words_p = {a: w for a, w in words_p.items() if w != 0}
        if words_v != words_p:
            return EquivalenceReport(
                False,
                virtual_out,
                physical_out,
                f"{space} contents differ",
            )
    return EquivalenceReport(True, virtual_out, physical_out)


# --------------------------------------------------------------------------
# Layer 1: replay the paper's constraints against an extracted solution
# --------------------------------------------------------------------------


@dataclass
class SolutionReport:
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, message: str) -> None:
        self.violations.append(message)


def check_solution(am, solution) -> SolutionReport:
    """Replay Sections 5-10 constraint families against a solution.

    ``am`` is the :class:`repro.alloc.ilpmodel.AllocModel` and
    ``solution`` the :class:`repro.alloc.ilpmodel.AllocSolution`
    extracted from the solver output.  The checks re-derive every rule
    from the flowgraph itself, so a bug in the model builder cannot hide
    in both places.
    """
    report = SolutionReport()
    before = solution.banks_before
    after = solution.banks_after
    live = am.live

    # In one place only: every existing (point, temp) has exactly one
    # Before bank and one After bank.
    for p, v in sorted(live.exists):
        if (p, v) not in before:
            report.add(f"no Before bank for {v} at point {p}")
        if (p, v) not in after:
            report.add(f"no After bank for {v} at point {p}")

    # Copy propagation: carried temporaries keep their location.
    for p1, p2, v in sorted(live.copies):
        a = after.get((p1, v))
        b = before.get((p2, v))
        if a is not None and b is not None and a != b:
            report.add(f"copy broken: {v} is {a} after {p1}, {b} before {p2}")

    sets = am.sets

    for p1, p2, v in sets.def_abw:
        bank = before.get((p2, v))
        if bank not in ALU_OUTPUT_BANKS:
            report.add(f"DefABW: {v} defined into {bank} at {p2}")
    for p1, p2, v in sets.def_ab:
        if before.get((p2, v)) not in (Bank.A, Bank.B):
            report.add(f"DefAB: {v} defined into {before.get((p2, v))}")
    for p1, p2, v in sets.use_reg1:
        if after.get((p1, v)) not in ALU_INPUT_BANKS:
            report.add(f"UseReg1: {v} read from {after.get((p1, v))} at {p1}")
    for p1, p2, v in sets.use_addr:
        if after.get((p1, v)) not in (Bank.A, Bank.B):
            report.add(f"UseAddr: {v} addresses from {after.get((p1, v))}")
    for p1, p2, x, y in sets.arith:
        bx, by = after.get((p1, x)), after.get((p1, y))
        if bx not in ALU_INPUT_BANKS or by not in ALU_INPUT_BANKS:
            report.add(f"Arith: {x}/{y} in {bx}/{by} at {p1}")
        elif bx == by:
            report.add(f"Arith: both operands {x},{y} in {bx} at {p1}")
        elif {bx, by} == {Bank.L, Bank.LD}:
            report.add(f"Arith: both operands in transfer banks at {p1}")

    # Aggregates: correct bank and adjacent ascending colors.
    for bank, aggregates, side in (
        (Bank.L, sets.def_l, "def"),
        (Bank.LD, sets.def_ld, "def"),
        (Bank.S, sets.use_s, "use"),
        (Bank.SD, sets.use_sd, "use"),
    ):
        for p1, p2, names in aggregates:
            colors = []
            for v in names:
                location = (
                    before.get((p2, v)) if side == "def" else after.get((p1, v))
                )
                if location is not bank:
                    report.add(f"aggregate member {v} in {location}, not {bank}")
                color = solution.colors.get((v, bank))
                if color is None:
                    report.add(f"aggregate member {v} has no {bank} color")
                else:
                    colors.append(color)
            if colors and colors != list(
                range(colors[0], colors[0] + len(colors))
            ):
                report.add(f"aggregate {names} colors not adjacent: {colors}")

    # SameReg (hash): equal register numbers across L and S.
    for p1, p2, d, s in sets.same_reg:
        cd = solution.colors.get((d, Bank.L))
        cs = solution.colors.get((s, Bank.S))
        if cd != cs:
            report.add(f"SameReg: hash {d}/{s} colors {cd}/{cs}")

    # Clones agree on location (and transfer color) at the clone point.
    for p1, p2, d, s in sets.clones:
        bd = before.get((p2, d))
        bs = after.get((p1, s))
        if bd != bs:
            report.add(f"clone {d}={s}: banks {bd}/{bs} at clone point")
        elif bd in XFER_BANKS:
            if solution.colors.get((d, bd)) != solution.colors.get((s, bd)):
                report.add(f"clone {d}={s}: colors differ in {bd}")

    # Transfer interference: two temps live at one point, of different
    # clone groups, in one transfer bank before (or after) it hold
    # different registers.
    for p, temps in sorted(live.live_at.items()):
        for table, name in ((before, "before"), (after, "after")):
            holder: dict[tuple[Bank, int], str] = {}
            for v in sorted(temps):
                bank = table.get((p, v))
                if bank not in XFER_BANKS:
                    continue
                color = solution.colors.get((v, bank))
                if color is None:
                    continue  # the aggregate rule reports a missing color
                other = holder.setdefault((bank, color), v)
                if am.clone_rep.get(other, other) != am.clone_rep.get(v, v):
                    report.add(
                        f"interference: {other} and {v} share {bank} "
                        f"register {color} {name} point {p}"
                    )

    # K capacities per point, counting clone groups once.
    exists_by_point: dict[int, list[str]] = {}
    for p, v in live.exists:
        exists_by_point.setdefault(p, []).append(v)
    capacities = {**K_CAPACITY, **dict.fromkeys(XFER_BANKS, XFER_SIZE)}
    for p, temps in exists_by_point.items():
        for table, name in ((before, "before"), (after, "after")):
            for bank, capacity in capacities.items():
                occupants = {
                    am.clone_rep.get(v, v)
                    for v in temps
                    if table.get((p, v)) is bank
                }
                if bank in XFER_BANKS:
                    # Occupancy is by register number in transfer banks.
                    registers = {
                        solution.colors.get((v, bank))
                        for v in temps
                        if table.get((p, v)) is bank
                    } - {None}
                    if len(registers) > capacity:
                        report.add(
                            f"K: {len(registers)} registers of {bank} "
                            f"{name} point {p}"
                        )
                elif len(occupants) > capacity:
                    report.add(
                        f"K: {len(occupants)} temps in {bank} {name} "
                        f"point {p} (cap {capacity})"
                    )
    return report
