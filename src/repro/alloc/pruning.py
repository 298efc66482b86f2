"""Static analysis reducing ILP model size (paper Section 8).

"A million variables": with 7 banks there are 49 Move variables per live
temporary per point.  The fix is a per-temporary *candidate bank* set
derived from how the temporary is defined and used:

- only temporaries defined by SDRAM reads can ever be in LD;
- only operands of SDRAM writes can ever be in SD;
- only operands of SRAM/scratch writes (or the hash source) can be in S;
- only results of SRAM/scratch reads (or the hash result, or reloads) can
  be in L;
- A, B, and the spill space M are candidates for everything.

Ruling out these banks means spills go directly {L,A,B} → M and reloads
M → {L,A,B}, which the paper notes is no loss in practice.  This module
also derives the inter-bank move cost table by shortest path over the
primitive datapaths (ALU pass, scratch store, scratch load), reproducing
the composite costs of Section 7 (e.g. A→M = move+store, A→L =
move+store+load).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ixp import isa
from repro.ixp.banks import Bank, READ_BANK, WRITE_BANK
from repro.ixp.flowgraph import FlowGraph

INFINITE = float("inf")

#: Section 7's costs: a register-register move (mvC), a scratch load
#: (ldC) and a scratch store (stC).
MV_COST = 1.0
LD_COST = 200.0
ST_COST = 200.0


@dataclass(frozen=True)
class MoveCosts:
    """Shortest-path inter-bank move costs (in mvC/ldC/stC units)."""

    table: dict[tuple[Bank, Bank], float]

    def cost(self, src: Bank, dst: Bank) -> float:
        if src == dst:
            return 0.0
        return self.table.get((src, dst), INFINITE)

    def legal(self, src: Bank, dst: Bank) -> bool:
        return self.cost(src, dst) < INFINITE


def build_move_costs() -> MoveCosts:
    """Floyd-Warshall over the primitive datapath edges.

    Primitive edges:
      {A,B,L,LD} → {A,B,S,SD}   (ALU pass, cost MV_COST)
      S → M                     (scratch store, cost ST_COST)
      SD → M                    (spill via SDRAM store, cost ST_COST)
      M → L                     (scratch load, cost LD_COST)

    LD is only reachable through an SDRAM read, never by a move, so no
    edge produces it.
    """
    banks = [Bank.A, Bank.B, Bank.L, Bank.S, Bank.LD, Bank.SD, Bank.M]
    dist: dict[tuple[Bank, Bank], float] = {}
    for src in (Bank.A, Bank.B, Bank.L, Bank.LD):
        for dst in (Bank.A, Bank.B, Bank.S, Bank.SD):
            if src != dst:
                dist[(src, dst)] = MV_COST
    dist[(Bank.S, Bank.M)] = ST_COST
    dist[(Bank.SD, Bank.M)] = ST_COST
    dist[(Bank.M, Bank.L)] = LD_COST
    for mid in banks:
        for src in banks:
            for dst in banks:
                if src == dst:
                    continue
                through = dist.get((src, mid), INFINITE) + dist.get(
                    (mid, dst), INFINITE
                )
                if through < dist.get((src, dst), INFINITE):
                    dist[(src, dst)] = through
    return MoveCosts(dist)


@dataclass
class Candidates:
    """Per-temporary candidate banks, plus required banks at def/use."""

    banks: dict[str, frozenset[Bank]]
    #: statistics for the pruning ablation
    total_bank_slots: int = 0

    def of(self, temp: str) -> frozenset[Bank]:
        return self.banks.get(temp, frozenset(_ALL_BANKS))


_ALL_BANKS = (Bank.A, Bank.B, Bank.L, Bank.S, Bank.LD, Bank.SD, Bank.M)


def candidate_banks(graph: FlowGraph, enabled: bool = True) -> Candidates:
    """Compute the Section 8 candidate sets (or all banks if disabled)."""
    if not enabled:
        banks = {t: frozenset(_ALL_BANKS) for t in graph.temps()}
        return Candidates(banks, sum(len(b) for b in banks.values()))

    needs: dict[str, set[Bank]] = {
        temp: {Bank.A, Bank.B, Bank.M} for temp in graph.temps()
    }

    def mark(reg: isa.Reg, bank: Bank) -> None:
        if isinstance(reg, isa.Temp):
            needs[reg.name].add(bank)

    for _, _, instr in graph.instructions():
        if isinstance(instr, isa.MemOp):
            bank = (
                READ_BANK[instr.space]
                if instr.direction == "read"
                else WRITE_BANK[instr.space]
            )
            for reg in instr.regs:
                mark(reg, bank)
        elif isinstance(instr, isa.HashInstr):
            mark(instr.dst, Bank.L)
            mark(instr.src, Bank.S)
        elif isinstance(instr, isa.Clone):
            # A clone can stand wherever its source can; unify below.
            pass

    # Clone groups share candidate sets (a clone starts in its source's
    # register and the source may satisfy any of the clone's uses).
    changed = True
    clone_pairs = [
        (instr.dst.name, instr.src.name)
        for _, _, instr in graph.instructions()
        if isinstance(instr, isa.Clone)
        and isinstance(instr.dst, isa.Temp)
        and isinstance(instr.src, isa.Temp)
    ]
    while changed:
        changed = False
        for dst, src in clone_pairs:
            merged = needs[dst] | needs[src]
            if merged != needs[dst] or merged != needs[src]:
                needs[dst] = set(merged)
                needs[src] = set(merged)
                changed = True

    banks = {temp: frozenset(b) for temp, b in needs.items()}
    return Candidates(banks, sum(len(b) for b in banks.values()))
