"""Register assignment within the A and B banks (paper Section 9).

"In the work of Appel and George the program generated from the results
of integer-linear programming satisfied the K constraints, and subsequent
coloring phases were used to assign registers using a variation of the
Park and Moon optimistic coalescing.  We use the same approach for the A
and B bank..."

The ILP fixes *which bank* every temporary occupies at every point and
guarantees at most 15 (A) / 16 (B) simultaneous occupants; this phase
picks register *numbers*.  Like the transfer-bank ``Color`` variables,
assignments are point-independent: one register per (temporary, bank).

Coalescing, in Park-Moon optimistic style:

1. mandatory merges — clone-set members resident in one bank share a
   register (they are counted once by the K constraints);
2. aggressive merges — ``move`` instructions whose source and destination
   sit in the same bank are coalesced when the merged nodes do not
   interfere, making the move a no-op that the decoder deletes;
3. color greedily in max-degree-first order; if an aggressive merge makes
   the graph uncolorable, undo it (optimism) and retry.

Register A15 is reserved as the spare for parallel-copy cycles and spill
addressing, which is why the ILP's K constraint for A is 15 (Section 6).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import AllocError
from repro.ixp import isa
from repro.ixp.banks import K_CAPACITY, Bank
from repro.ixp.flowgraph import FlowGraph

#: Colors usable per bank: the K capacities.
AVAILABLE = {bank: list(range(k)) for bank, k in K_CAPACITY.items()}
#: The A register the K capacity leaves out (A15).
SPARE_A = K_CAPACITY[Bank.A]


@dataclass
class AbAssignment:
    """(temp, bank) → register index for the A and B banks."""

    colors: dict[tuple[str, Bank], int]
    coalesced_moves: int = 0

    def reg(self, temp: str, bank: Bank) -> int:
        return self.colors[(temp, bank)]


def assign_ab_registers(
    graph: FlowGraph,
    banks_before: dict[tuple[int, str], Bank],
    banks_after: dict[tuple[int, str], Bank],
    clone_rep: dict[str, str],
) -> AbAssignment:
    """Color the A/B residencies implied by the ILP solution."""
    residency: dict[tuple[str, Bank], set[int]] = {}
    for (p, v), b in list(banks_before.items()) + list(banks_after.items()):
        if b in (Bank.A, Bank.B):
            residency.setdefault((v, b), set()).add(p)

    # Union-find over (temp, bank) nodes.
    parent: dict[tuple[str, Bank], tuple[str, Bank]] = {
        key: key for key in residency
    }

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y) -> None:
        root_x, root_y = find(x), find(y)
        if root_x != root_y:
            parent[root_x] = root_y

    # 1. Mandatory: clone-set members in the same bank share a register.
    by_group: dict[tuple[str, Bank], list[tuple[str, Bank]]] = {}
    for v, b in residency:
        rep = clone_rep.get(v)
        if rep is not None:
            by_group.setdefault((rep, b), []).append((v, b))
    for members in by_group.values():
        for other in members[1:]:
            union(members[0], other)

    def merged_points(root) -> set[int]:
        out: set[int] = set()
        for key, pts in residency.items():
            if find(key) == root:
                out |= pts
        return out

    def interferes(root_x, root_y) -> bool:
        return bool(merged_points(root_x) & merged_points(root_y))

    # 2. Aggressive: coalesce same-bank moves.  Source and destination of
    # a move may overlap at the move's own two points (they hold the same
    # value there); overlap anywhere else is real interference.
    candidate_merges: list[
        tuple[tuple[str, Bank], tuple[str, Bank], frozenset[int]]
    ] = []
    points = graph.points()
    for label, index, instr in graph.instructions():
        if not isinstance(instr, isa.Move):
            continue
        if not isinstance(instr.dst, isa.Temp) or not isinstance(
            instr.src, isa.Temp
        ):
            continue
        p1 = points.before(label, index)
        p2 = points.after(label, index)
        src_bank = banks_after.get((p1, instr.src.name))
        dst_bank = banks_before.get((p2, instr.dst.name))
        if src_bank is None or dst_bank is None or src_bank != dst_bank:
            continue
        if src_bank not in (Bank.A, Bank.B):
            continue
        key_src = (instr.src.name, src_bank)
        key_dst = (instr.dst.name, dst_bank)
        if key_src in residency and key_dst in residency:
            candidate_merges.append((key_src, key_dst, frozenset((p1, p2))))

    # Points at which two roots may legitimately overlap: the union of
    # the connecting moves' own points (copies make the values equal).
    allowed_overlap: dict[frozenset, set[int]] = {}

    applied: list[tuple] = []
    for key_src, key_dst, move_pts in candidate_merges:
        root_s, root_d = find(key_src), find(key_dst)
        if root_s == root_d:
            applied.append((key_src, key_dst))
            continue
        pair = frozenset((root_s, root_d))
        allowed = allowed_overlap.get(pair, set()) | set(move_pts)
        overlap = merged_points(root_s) & merged_points(root_d)
        if overlap - allowed:
            allowed_overlap[pair] = allowed
            continue
        union(key_src, key_dst)
        merged_root = find(key_src)
        # Carry allowed-overlap credit into the merged node.
        for other_pair, pts in list(allowed_overlap.items()):
            if root_s in other_pair or root_d in other_pair:
                remaining = (other_pair - {root_s, root_d}) | {merged_root}
                if len(remaining) == 2:
                    key = frozenset(remaining)
                    allowed_overlap[key] = allowed_overlap.get(key, set()) | pts
        applied.append((key_src, key_dst))

    # 3. Color, optimistically undoing aggressive merges on failure.
    while True:
        coloring = _try_color(residency, find)
        if coloring is not None:
            colors = {
                key: coloring[find(key)] for key in residency
            }
            return AbAssignment(colors, coalesced_moves=len(applied))
        if not applied:
            raise AllocError(
                "A/B coloring failed despite K constraints; this "
                "indicates a bug in the ILP model"
            )
        # Undo all aggressive merges (simple but effective optimism).
        parent = {key: key for key in residency}
        for members in by_group.values():
            for other in members[1:]:
                union(members[0], other)
        applied = []


def _try_color(residency, find) -> dict | None:
    roots: dict[tuple[str, Bank], set[int]] = {}
    for key, pts in residency.items():
        root = find(key)
        roots.setdefault(root, set()).update(pts)
    order = sorted(
        roots, key=lambda r: (-len(roots[r]), r[0], r[1].value)
    )
    coloring: dict[tuple[str, Bank], int] = {}
    for root in order:
        bank = root[1]
        taken = {
            coloring[other]
            for other in coloring
            if other[1] == bank and roots[other] & roots[root]
        }
        for color in AVAILABLE[bank]:
            if color not in taken:
                coloring[root] = color
                break
        else:
            return None
    return coloring
