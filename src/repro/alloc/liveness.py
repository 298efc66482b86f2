"""Liveness analysis over IXP flowgraphs; builds Exists and Copy.

Paper Section 5.2: for any temporary v live at a point p, (p, v) ∈
Exists; additionally, a result that is immediately dead still *exists* at
the point right after its defining instruction (it occupies a register
for an instant).  (p1, p2, v) ∈ Copy whenever v is live and carried
unchanged from p1 to p2 — including across control-flow edges, which is
how locations propagate along branches.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ixp import isa
from repro.ixp.flowgraph import FlowGraph, PointMap


def _temp_names(regs: list[isa.Reg]) -> set[str]:
    return {r.name for r in regs if isinstance(r, isa.Temp)}


@dataclass
class Liveness:
    graph: FlowGraph
    points: PointMap
    #: live temporaries at each program point id
    live_at: dict[int, set[str]] = field(default_factory=dict)
    #: (point, temp) pairs — the paper's Exists set
    exists: set[tuple[int, str]] = field(default_factory=set)
    #: (p1, p2, temp) — the paper's Copy set
    copies: set[tuple[int, int, str]] = field(default_factory=set)
    live_entry: dict[str, set[str]] = field(default_factory=dict)
    live_exit: dict[str, set[str]] = field(default_factory=dict)


def analyze(graph: FlowGraph) -> Liveness:
    points = graph.points()
    info = Liveness(graph, points)

    # Block-level fixpoint.
    gen: dict[str, set[str]] = {}
    kill: dict[str, set[str]] = {}
    for label, block in graph.blocks.items():
        g: set[str] = set()
        k: set[str] = set()
        for instr in block.instrs:
            g |= _temp_names(instr.uses()) - k
            k |= _temp_names(instr.defs())
        gen[label], kill[label] = g, k
        info.live_entry[label] = set()
        info.live_exit[label] = set()

    changed = True
    while changed:
        changed = False
        for label in reversed(graph.block_order()):
            block = graph.blocks[label]
            out: set[str] = set()
            for succ in block.successors():
                out |= info.live_entry[succ]
            new_in = gen[label] | (out - kill[label])
            if out != info.live_exit[label] or new_in != info.live_entry[label]:
                info.live_exit[label] = out
                info.live_entry[label] = new_in
                changed = True

    # Per-point liveness and the Exists / Copy sets.
    for label in graph.block_order():
        block = graph.blocks[label]
        live = set(info.live_exit[label])
        info.live_at[points.exit(label)] = set(live)
        for index in range(len(block.instrs) - 1, -1, -1):
            instr = block.instrs[index]
            defs = _temp_names(instr.defs())
            uses = _temp_names(instr.uses())
            after = set(live)
            live = (live - defs) | uses
            info.live_at[points.before(label, index)] = set(live)
            p1 = points.before(label, index)
            p2 = points.after(label, index)
            # Exists: everything live, plus immediately-dead results.
            for v in live:
                info.exists.add((p1, v))
            for v in after | defs:
                info.exists.add((p2, v))
            # Copy: carried unchanged across the instruction.
            for v in live & after - defs:
                info.copies.add((p1, p2, v))

    # Copy across control-flow edges: the point after a branch connects
    # to all points at the targets (Section 5.2).
    for label, block in graph.blocks.items():
        exit_p = points.exit(label)
        for succ in block.successors():
            entry_p = points.entry(succ)
            for v in info.live_entry[succ]:
                info.copies.add((exit_p, entry_p, v))

    return info


def interference_pairs(
    info: Liveness, same_clone: dict[str, str] | None = None
) -> set[tuple[str, str]]:
    """Pairs of temporaries simultaneously live at some point.

    ``same_clone`` maps each temp to its clone-group representative;
    temps of one group never interfere (paper Section 10).
    """
    same_clone = same_clone or {}
    pairs: set[tuple[str, str]] = set()
    for live in info.live_at.values():
        ordered = sorted(live)
        for i, v1 in enumerate(ordered):
            for v2 in ordered[i + 1 :]:
                if same_clone.get(v1, v1) == same_clone.get(v2, v2):
                    continue
                pairs.add((v1, v2))
    return pairs
