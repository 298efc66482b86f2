"""Decode an ILP solution into physical IXP code.

Takes the bank assignment (Before/After), the inserted inter-bank moves,
the transfer-register colors, and the A/B coloring, and rewrites the
virtual flowgraph into physical-register form:

- every operand is replaced by its assigned ``PhysReg``;
- ``Move[p,v,b1,b2]`` decisions materialize at point p as real code —
  an ALU move, or a spill/reload sequence through scratch memory using
  the spare S/L transfer register the ``needsSpill`` constraints kept
  free and the reserved A15 for the slot address;
- multiple moves at one point form a *parallel copy*, sequentialized
  with dependency ordering and A15 for cycles (the reason the ILP's K
  constraint for A is 15, Section 6);
- ``clone`` pseudo-instructions vanish (the model guarantees source and
  clone share a register at the clone point);
- coalesced same-bank moves (same physical register on both sides)
  vanish — the optimistic-coalescing payoff.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import AllocError
from repro.ixp import isa
from repro.ixp.banks import Bank, XFER_SIZE
from repro.ixp.flowgraph import Block, FlowGraph
from repro.alloc.abcolor import SPARE_A, AbAssignment
from repro.alloc.ilpmodel import AllocModel, AllocSolution

#: First scratch word used for spill slots.
SPILL_BASE = 960


@dataclass
class DecodeStats:
    moves_inserted: int = 0
    moves_coalesced: int = 0
    spill_stores: int = 0
    spill_reloads: int = 0
    clones_dropped: int = 0


@dataclass
class DecodeResult:
    graph: FlowGraph
    #: program input name → physical location ('reg', PhysReg) or
    #: ('slot', scratch word address)
    input_locations: dict[str, tuple]
    spill_slots: dict[str, int]
    stats: DecodeStats = field(default_factory=DecodeStats)


class SpilledInput(Exception):
    """A spilled input with no memory to write it to (``args[0]`` is
    the input temp)."""


def place_inputs(
    locations: dict[str, tuple], values: dict[str, int], memory=None
) -> dict[tuple[Bank, int], int]:
    """Put virtual input values where the allocated code reads them.

    ``locations`` is an ``input_locations`` map: a
    :class:`DecodeResult`'s, or the baseline allocator's, which has the
    same shape.  A register input becomes a ``(bank, index)`` key of
    the returned dict, the form a physical
    :class:`~repro.ixp.machine.Machine` takes from its input provider.
    A spilled input is written to its slot in the scratch space of
    ``memory`` (a :class:`~repro.ixp.memory.MemorySystem`), or raises
    :class:`SpilledInput` when ``memory`` is None.
    An input the program never reads has no location and is dropped.
    """
    out = {}
    for temp, value in values.items():
        location = locations.get(temp)
        if location is None:
            continue  # unused input
        kind, where = location
        if kind == "reg":
            out[(where.bank, where.index)] = value
        elif memory is None:
            raise SpilledInput(temp)
        else:
            memory["scratch"].load_words(where, [value])
    return out


class _Decoder:
    def __init__(self, am: AllocModel, solution: AllocSolution, ab: AbAssignment):
        self.am = am
        self.sol = solution
        self.ab = ab
        self.stats = DecodeStats()
        self.moves_at: dict[int, list[tuple[str, Bank, Bank]]] = {}
        for p, v, b1, b2 in solution.moves:
            self.moves_at.setdefault(p, []).append((v, b1, b2))
        self.spill_slots: dict[str, int] = {}
        spilled = sorted(
            {
                v
                for (_, v), b in list(solution.banks_before.items())
                + list(solution.banks_after.items())
                if b is Bank.M
            }
        )
        for i, v in enumerate(spilled):
            self.spill_slots[v] = SPILL_BASE + i

    # -- register lookup ----------------------------------------------------

    def reg_of(self, v: str, bank: Bank) -> isa.PhysReg:
        if bank in (Bank.A, Bank.B):
            return isa.PhysReg(bank, self.ab.reg(v, bank))
        if bank in (Bank.L, Bank.S, Bank.LD, Bank.SD):
            color = self.sol.colors.get((v, bank))
            if color is None:
                raise AllocError(f"no color for '{v}' in bank {bank}")
            return isa.PhysReg(bank, color)
        raise AllocError(f"'{v}' has no register in bank {bank}")

    def use_reg(self, p1: int, v: str) -> isa.PhysReg:
        bank = self.sol.banks_after.get((p1, v))
        if bank is None:
            raise AllocError(f"no After bank for '{v}' at point {p1}")
        return self.reg_of(v, bank)

    def def_reg(self, p2: int, v: str) -> isa.PhysReg:
        bank = self.sol.banks_before.get((p2, v))
        if bank is None:
            raise AllocError(f"no Before bank for '{v}' at point {p2}")
        return self.reg_of(v, bank)

    def _free_xfer(self, p: int, bank: Bank) -> isa.PhysReg:
        """A transfer register in ``bank`` unoccupied at point p."""
        occupied: set[int] = set()
        for table in (self.sol.banks_before, self.sol.banks_after):
            for (q, v), b in table.items():
                if q == p and b is bank:
                    occupied.add(self.sol.colors[(v, bank)])
        for r in range(XFER_SIZE):
            if r not in occupied:
                return isa.PhysReg(bank, r)
        raise AllocError(
            f"no spare {bank} register at point {p}; needsSpill "
            "constraints should have prevented this"
        )

    # -- move materialization ---------------------------------------------------

    def _move_sequences(self, p: int):
        """Each ILP move at p as (reads, writes, instruction list)."""
        sequences = []
        spare_a = isa.PhysReg(Bank.A, SPARE_A)
        const_temps = getattr(self.am, "const_temps", {})
        for v, b1, b2 in self.moves_at.get(p, []):
            slot = self.spill_slots.get(v)
            instrs: list[isa.Instr] = []
            reads: list[isa.PhysReg] = []
            writes: list[isa.PhysReg] = []
            if b2 is Bank.C:
                # Discarding a constant from a register: no code.
                continue
            if b1 is Bank.C:
                # Loading a constant (Section 12 rematerialization).
                dst = self.reg_of(v, b2)
                writes.append(dst)
                instrs.append(isa.Immed(dst, const_temps[v]))
                sequences.append((reads, writes, instrs))
                self.stats.moves_inserted += 1
                continue
            if b2 is Bank.M:
                # Spill: route through an S register unless already there.
                assert slot is not None
                src = self.reg_of(v, b1)
                reads.append(src)
                if b1 is Bank.S:
                    staging = src
                else:
                    staging = self._free_xfer(p, Bank.S)
                    instrs.append(isa.Move(staging, src))
                instrs.append(isa.Immed(spare_a, slot))
                instrs.append(isa.MemOp("scratch", "write", spare_a, (staging,)))
                self.stats.spill_stores += 1
            elif b1 is Bank.M:
                # Reload: lands in L, then moves on if needed.
                assert slot is not None
                dst = self.reg_of(v, b2)
                writes.append(dst)
                landing = dst if b2 is Bank.L else self._free_xfer(p, Bank.L)
                instrs.append(isa.Immed(spare_a, slot))
                instrs.append(isa.MemOp("scratch", "read", spare_a, (landing,)))
                if b2 is not Bank.L:
                    instrs.append(isa.Move(dst, landing))
                self.stats.spill_reloads += 1
            elif b1 is Bank.S or b2 is Bank.L:
                # No direct path: round-trip through a scratch slot.
                src = self.reg_of(v, b1)
                dst = self.reg_of(v, b2)
                reads.append(src)
                writes.append(dst)
                slot = self.spill_slots.setdefault(
                    v, SPILL_BASE + 32 + len(self.spill_slots)
                )
                staging = src if b1 is Bank.S else self._free_xfer(p, Bank.S)
                if b1 is not Bank.S:
                    instrs.append(isa.Move(staging, src))
                instrs.append(isa.Immed(spare_a, slot))
                instrs.append(isa.MemOp("scratch", "write", spare_a, (staging,)))
                landing = dst if b2 is Bank.L else self._free_xfer(p, Bank.L)
                instrs.append(isa.MemOp("scratch", "read", spare_a, (landing,)))
                if b2 is not Bank.L:
                    instrs.append(isa.Move(dst, landing))
                self.stats.spill_stores += 1
                self.stats.spill_reloads += 1
            else:
                src = self.reg_of(v, b1)
                dst = self.reg_of(v, b2)
                if src == dst:
                    continue  # coalesced: same register on both sides
                reads.append(src)
                writes.append(dst)
                instrs.append(isa.Move(dst, src))
            if instrs:
                sequences.append((reads, writes, instrs))
                self.stats.moves_inserted += 1
        return sequences

    def emit_moves(self, p: int, out: list[isa.Instr]) -> None:
        """Sequentialize the parallel copy at point p."""
        sequences = self._move_sequences(p)
        if not sequences:
            return
        pending = list(range(len(sequences)))
        renames: dict[isa.PhysReg, isa.PhysReg] = {}
        spare_a = isa.PhysReg(Bank.A, SPARE_A)
        while pending:
            progressed = False
            for i in list(pending):
                reads, writes, instrs = sequences[i]
                # Safe if nothing still pending reads what we write.
                clobbers = any(
                    w in sequences[j][0]
                    for j in pending
                    if j != i
                    for w in writes
                )
                if clobbers:
                    continue
                for instr in instrs:
                    out.append(_apply_renames(instr, renames))
                pending.remove(i)
                progressed = True
            if progressed:
                continue
            # Cycle among register moves: park one source in A15.
            reads, writes, instrs = sequences[pending[0]]
            victim = reads[0]
            out.append(isa.Move(spare_a, _apply_renames_reg(victim, renames)))
            renames[victim] = spare_a
            # The victim's readers now read the spare instead.
            for j in pending:
                sequences[j] = (
                    [spare_a if r == victim else r for r in sequences[j][0]],
                    sequences[j][1],
                    sequences[j][2],
                )

    # -- instruction rewriting -------------------------------------------------------

    def rewrite(self, label: str, index: int, instr: isa.Instr) -> list[isa.Instr]:
        points = self.am.points
        p1 = points.before(label, index)
        p2 = points.after(label, index)

        def use(reg):
            if isinstance(reg, isa.Imm) or reg is None:
                return reg
            return self.use_reg(p1, reg.name)

        def define(reg):
            return self.def_reg(p2, reg.name)

        if isinstance(instr, isa.Alu):
            return [isa.Alu(define(instr.dst), instr.op, use(instr.a), use(instr.b))]
        if isinstance(instr, isa.Immed):
            return [isa.Immed(define(instr.dst), instr.value)]
        if isinstance(instr, isa.Move):
            dst = define(instr.dst)
            src = use(instr.src)
            if dst == src:
                self.stats.moves_coalesced += 1
                return []
            return [isa.Move(dst, src)]
        if isinstance(instr, isa.Clone):
            dst_bank = self.sol.banks_before.get((p2, instr.dst.name))
            src_bank = self.sol.banks_after.get((p1, instr.src.name))
            if dst_bank != src_bank:
                raise AllocError(
                    f"clone {instr} assigned differing banks "
                    f"{dst_bank}/{src_bank}"
                )
            dst = self.def_reg(p2, instr.dst.name)
            src = self.reg_of(instr.src.name, src_bank)
            if dst != src:
                raise AllocError(
                    f"clone {instr} assigned differing registers {dst}/{src}"
                )
            self.stats.clones_dropped += 1
            return []
        if isinstance(instr, isa.MemOp):
            if instr.direction == "read":
                regs = tuple(define(r) for r in instr.regs)
            else:
                regs = tuple(use(r) for r in instr.regs)
            return [isa.MemOp(instr.space, instr.direction, use(instr.addr), regs)]
        if isinstance(instr, isa.HashInstr):
            return [isa.HashInstr(define(instr.dst), use(instr.src))]
        if isinstance(instr, isa.CsrRd):
            return [isa.CsrRd(define(instr.dst), instr.csr)]
        if isinstance(instr, isa.CsrWr):
            return [isa.CsrWr(instr.csr, use(instr.src))]
        if isinstance(instr, (isa.CtxArb, isa.LockInstr)):
            return [instr]
        if isinstance(instr, isa.Br):
            return [instr]
        if isinstance(instr, isa.BrCmp):
            return [
                isa.BrCmp(
                    instr.cmp,
                    use(instr.a),
                    use(instr.b),
                    instr.then_target,
                    instr.else_target,
                )
            ]
        if isinstance(instr, isa.HaltInstr):
            return [isa.HaltInstr(tuple(use(r) for r in instr.results))]
        raise AllocError(f"unhandled instruction {instr!r}")

    # -- main ---------------------------------------------------------------------------

    def run(self) -> DecodeResult:
        graph = self.am.graph
        points = self.am.points
        new_blocks: dict[str, Block] = {}
        for label in graph.block_order():
            block = graph.blocks[label]
            out: list[isa.Instr] = []
            for index, instr in enumerate(block.instrs):
                self.emit_moves(points.before(label, index), out)
                out.extend(self.rewrite(label, index, instr))
            # Moves at the exit point (only legal after plain jumps):
            # they belong before the terminator.
            exit_moves_at = points.exit(label)
            if exit_moves_at in self.moves_at:
                terminator = out.pop()
                self.emit_moves(exit_moves_at, out)
                out.append(terminator)
            new_blocks[label] = Block(label, out)

        physical = FlowGraph(graph.entry, new_blocks, graph.inputs)
        physical.validate()

        entry_point = points.entry(graph.entry)
        input_locations: dict[str, tuple] = {}
        for name in graph.inputs:
            bank = self.sol.banks_before.get((entry_point, name))
            if bank is None:
                continue  # unused input
            if bank is Bank.M:
                input_locations[name] = ("slot", self.spill_slots[name])
            else:
                input_locations[name] = ("reg", self.reg_of(name, bank))
        return DecodeResult(
            physical, input_locations, dict(self.spill_slots), self.stats
        )


def _apply_renames_reg(reg, renames):
    return renames.get(reg, reg)


def _apply_renames(instr: isa.Instr, renames: dict) -> isa.Instr:
    if not renames:
        return instr
    # Only rename uses (sources); writes keep their targets.
    if isinstance(instr, isa.Move):
        return isa.Move(instr.dst, renames.get(instr.src, instr.src))
    if isinstance(instr, isa.MemOp) and instr.direction == "write":
        return isa.MemOp(
            instr.space,
            instr.direction,
            renames.get(instr.addr, instr.addr),
            tuple(renames.get(r, r) for r in instr.regs),
        )
    return instr


def decode(
    am: AllocModel, solution: AllocSolution, ab: AbAssignment
) -> DecodeResult:
    """Materialize an ILP solution as a physical-register flowgraph."""
    return _Decoder(am, solution, ab).run()
