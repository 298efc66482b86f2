"""Heuristic baseline allocator (the non-ILP comparator).

This models what a conventional compiler (or careful hand assembly
without global planning — the paper's "state of the art ... (a very
quirky) assembly") does on the IXP:

- every value loaded from memory is *drained* out of the transfer bank
  into a general-purpose register immediately after the read;
- every value stored to memory is *staged* into a write-transfer
  register immediately before the write;
- transfer registers are always used from index 0 upward (no global
  planning of aggregate placement — legal because everything drains
  immediately, but it costs a move per aggregate member);
- general registers are assigned by greedy graph coloring over A and B;
  when the 31 available GPRs run out, the highest-degree temporaries are
  spilled to scratch.

The interesting comparison against the ILP allocator is the number of
register-register moves and spills: the ILP keeps values *in* transfer
banks across their uses whenever the datapaths allow, the baseline
cannot.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import AllocError
from repro.ixp import isa
from repro.ixp.banks import K_CAPACITY, Bank, READ_BANK, WRITE_BANK
from repro.ixp.flowgraph import Block, FlowGraph
from repro.alloc import liveness

#: GPR colors: A0..A14 plus B0..B15 (A15 stays the spare, as in the ILP).
_GPR_COLORS = [
    (bank, i) for bank, k in K_CAPACITY.items() for i in range(k)
]


@dataclass
class BaselineResult:
    physical: FlowGraph | None
    moves: int
    spills: int
    drained_reads: int
    staged_writes: int
    stats: dict = field(default_factory=dict)


def allocate_baseline(graph: FlowGraph) -> BaselineResult:
    """Allocate ``graph`` with the drain/stage heuristic."""
    staged, moves, drains, stages = _stage_transfers(graph)
    coloring, spills = _color_gprs(staged)
    physical = _rewrite(staged, coloring) if spills == 0 else None
    return BaselineResult(
        physical=physical,
        moves=moves,
        spills=spills,
        drained_reads=drains,
        staged_writes=stages,
    )


def _stage_transfers(graph: FlowGraph):
    """Insert drain/stage moves around memory, halting at a new graph.

    Transfer-register placement after this pass is trivial: member k of
    every aggregate sits at index k, hash uses index 7.
    """
    new_blocks: dict[str, Block] = {}
    moves = 0
    drains = 0
    stages = 0
    counter = [0]

    def fresh(prefix: str) -> isa.Temp:
        counter[0] += 1
        return isa.Temp(f"{prefix}%{counter[0]}")

    # Map: xfer temp name -> PhysReg, fixed at creation.
    xfer_assignment: dict[str, isa.PhysReg] = {}

    for label, block in graph.blocks.items():
        out: list[isa.Instr] = []
        for instr in block.instrs:
            if isinstance(instr, isa.MemOp) and instr.direction == "read":
                bank = READ_BANK[instr.space]
                landing = []
                for k, reg in enumerate(instr.regs):
                    t = fresh("xin")
                    xfer_assignment[t.name] = isa.PhysReg(bank, k)
                    landing.append(t)
                out.append(
                    isa.MemOp(instr.space, "read", instr.addr, tuple(landing))
                )
                for t, reg in zip(landing, instr.regs):
                    out.append(isa.Move(reg, t))
                    moves += 1
                    drains += 1
            elif isinstance(instr, isa.MemOp):
                bank = WRITE_BANK[instr.space]
                staged_regs = []
                for k, reg in enumerate(instr.regs):
                    t = fresh("xout")
                    xfer_assignment[t.name] = isa.PhysReg(bank, k)
                    out.append(isa.Move(t, reg))
                    moves += 1
                    stages += 1
                    staged_regs.append(t)
                out.append(
                    isa.MemOp(
                        instr.space, "write", instr.addr, tuple(staged_regs)
                    )
                )
            elif isinstance(instr, isa.HashInstr):
                src_t = fresh("xout")
                dst_t = fresh("xin")
                xfer_assignment[src_t.name] = isa.PhysReg(Bank.S, 7)
                xfer_assignment[dst_t.name] = isa.PhysReg(Bank.L, 7)
                out.append(isa.Move(src_t, instr.src))
                out.append(isa.HashInstr(dst_t, src_t))
                out.append(isa.Move(instr.dst, dst_t))
                moves += 2
            elif isinstance(instr, isa.Clone):
                out.append(isa.Move(instr.dst, instr.src))
                moves += 1
            else:
                out.append(instr)
        new_blocks[label] = Block(label, out)

    staged = FlowGraph(graph.entry, new_blocks, graph.inputs)
    staged.xfer_assignment = xfer_assignment  # type: ignore[attr-defined]
    return staged, moves, drains, stages


def _color_gprs(graph: FlowGraph):
    """Greedy-color the non-transfer temps over A/B; count failures.

    Besides liveness interference, the two register operands of one ALU
    instruction must come from *different* banks (Figure 1), which the
    coloring honours with bank-difference edges.
    """
    xfer = getattr(graph, "xfer_assignment", {})
    info = liveness.analyze(graph)
    neighbors: dict[str, set[str]] = {}
    for live in info.live_at.values():
        gpr_live = [v for v in live if v not in xfer]
        for v in gpr_live:
            neighbors.setdefault(v, set()).update(
                w for w in gpr_live if w != v
            )
    for temp in graph.temps():
        if temp not in xfer:
            neighbors.setdefault(temp, set())

    # A definition writes its register even when the result is dead (a
    # drained-but-unused memory word, for instance), so the destination
    # interferes with everything live across the instruction — liveness
    # sets alone would give a dead destination an empty range and let
    # the coloring overlap it with a live value it then clobbers.
    for label, block in graph.blocks.items():
        live = set(info.live_exit[label])
        for instr in reversed(block.instrs):
            defs = {r.name for r in instr.defs() if isinstance(r, isa.Temp)}
            uses = {r.name for r in instr.uses() if isinstance(r, isa.Temp)}
            for dst in defs:
                if dst in xfer:
                    continue
                for w in live:
                    if w == dst or w in xfer:
                        continue
                    neighbors.setdefault(dst, set()).add(w)
                    neighbors.setdefault(w, set()).add(dst)
            live = (live - defs) | uses

    # Every input occupies a register at program entry — including ones
    # the program never reads, whose live range is otherwise empty.  They
    # interfere pairwise and with everything live into the entry block;
    # without these edges the coloring can overlap a dead input with a
    # live one, and whoever preloads the input registers clobbers it.
    entry_live = set(info.live_entry.get(graph.entry, set()))
    gpr_inputs = [v for v in graph.inputs if v not in xfer]
    for v in gpr_inputs:
        others = {
            w
            for w in (set(gpr_inputs) | entry_live)
            if w != v and w not in xfer
        }
        neighbors.setdefault(v, set()).update(others)
        for w in others:
            neighbors.setdefault(w, set()).add(v)

    diff_bank: dict[str, set[str]] = {}
    for _, _, instr in graph.instructions():
        operands = [
            r.name
            for r in instr.uses()
            if isinstance(r, isa.Temp) and r.name not in xfer
        ]
        if isinstance(instr, (isa.Alu, isa.BrCmp)) and len(operands) == 2:
            a, b = operands
            if a != b:
                diff_bank.setdefault(a, set()).add(b)
                diff_bank.setdefault(b, set()).add(a)

    order = sorted(neighbors, key=lambda v: (-len(neighbors[v]), v))
    coloring: dict[str, isa.PhysReg] = {}
    spills = 0
    for temp in order:
        taken = {
            (coloring[w].bank, coloring[w].index)
            for w in neighbors[temp]
            if w in coloring
        }
        banned_banks = {
            coloring[w].bank
            for w in diff_bank.get(temp, ())
            if w in coloring
        }
        for bank, index in _GPR_COLORS:
            if bank in banned_banks:
                continue
            if (bank, index) not in taken:
                coloring[temp] = isa.PhysReg(bank, index)
                break
        else:
            spills += 1
    coloring.update({name: reg for name, reg in xfer.items()})
    return coloring, spills


def _rewrite(graph: FlowGraph, coloring: dict[str, isa.PhysReg]) -> FlowGraph:
    def phys(reg):
        if isinstance(reg, isa.Temp):
            try:
                return coloring[reg.name]
            except KeyError:
                raise AllocError(f"baseline: no register for {reg}") from None
        return reg

    new_blocks = {}
    for label, block in graph.blocks.items():
        instrs = []
        for instr in block.instrs:
            mapped = instr.map_regs(phys)
            if isinstance(mapped, isa.Move) and mapped.dst == mapped.src:
                continue
            instrs.append(mapped)
        new_blocks[label] = Block(label, instrs)
    physical = FlowGraph(graph.entry, new_blocks, graph.inputs)
    physical.validate()
    return physical


def baseline_input_locations(
    graph: FlowGraph, result: BaselineResult
) -> dict[str, tuple]:
    """Input temp → physical location, mirroring the ILP decode result."""
    if result.physical is None:
        return {}
    # Inputs keep whatever GPR the coloring gave them.
    coloring: dict[str, isa.PhysReg] = {}
    # Recover the coloring by re-running (cheap for our sizes).
    staged, _, _, _ = _stage_transfers(graph)
    colors, _ = _color_gprs(staged)
    for name in graph.inputs:
        reg = colors.get(name)
        if reg is not None:
            coloring[name] = reg
    return {name: ("reg", reg) for name, reg in coloring.items()}
