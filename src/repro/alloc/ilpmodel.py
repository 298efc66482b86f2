"""The paper's ILP model: bank assignment + aggregate coloring + spills.

This module plays the role of the AMPL model *and* its data section
(paper Figures 2-3).  From a flowgraph it derives the sets

    P, V, Exists, Copy, DefABW, DefAB, Arith, UseReg1, UseAddr,
    DefL[i], DefLD[j], UseS[i], UseSD[j], SameReg, Clone, Interferes

and instantiates the 0-1 variables and constraint families of Sections
5, 6, 9 and 10:

- ``Move[p,v,b1,b2]``, ``Before[p,v,b]``, ``After[p,v,b]`` with the
  in-before/in-after, in-one-place-only, and copy-propagation ties;
- operand and result constraints per instruction kind;
- K constraints for A (15, one spare for parallel-copy cycles) and B (16),
  with clone-representative counting;
- ``Color[v,b,r]`` with point-independent coloring, interference,
  aggregate adjacency, redundant position elimination, and SameReg;
- ``colorAvail``/``needsSpill`` for the L and S banks;
- clone sets: location agreement at the clone point, non-interference,
  and once-only counting of group moves (``cloneMove``);
- the weighted-move objective with the A-over-B bias.

Before it adds the coloring families, :func:`build_model` looks for a
*bank-independent* transfer coloring: one register per (temp, transfer
bank) that satisfies every coloring row with each bank-side variable at
its worst case, 1.  When one exists the model leaves ``Color``,
``BothIn``, ``colorAvail`` and ``needsSpill`` out and
:func:`extract_solution` returns that coloring; the optimum is the same,
because every row that couples a color to a bank-side variable only
tightens as that variable rises, and colors cost nothing.

Model-size reductions of Section 8 (candidate banks) are applied through
:mod:`repro.alloc.pruning`; the flags on :class:`ModelOptions` expose the
paper's engineering choices for the ablation benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.errors import AllocError
from repro.ixp import isa
from repro.ixp.banks import Bank, K_CAPACITY, READ_BANK, WRITE_BANK, XFER_SIZE
from repro.ixp.flowgraph import FlowGraph, PointMap
from repro.ilp.model import Family, LinExpr, Model
from repro.ilp.options import SolveOptions, load_solver_stack
from repro.trace import ensure
from repro.alloc import frequency, liveness, pruning

#: The bank sets of :mod:`repro.ixp.banks` in the order the builders
#: walk them; that order fixes variable and row ids.
ALU_IN = (Bank.A, Bank.B, Bank.L, Bank.LD)
ALU_OUT = (Bank.A, Bank.B, Bank.S, Bank.SD)
GPR = (Bank.A, Bank.B)
XFER = (Bank.L, Bank.S, Bank.LD, Bank.SD)


@dataclass
class ModelOptions:
    """Engineering switches of the ILP formulation."""

    #: Section 8 candidate-bank pruning.
    prune_banks: bool = True
    #: Section 9 redundant aggregate-position constraints (solver speed).
    redundant_position_constraints: bool = True
    #: Section 9 tightening of needsSpill from above.
    tighten_needs_spill: bool = True
    #: Section 7 bias towards A registers over B.
    a_bank_bias: float = 1.01
    #: Interference-coloring encoding: "aux" collapses the per-point
    #: quantification with one both-in-bank witness per pair (equivalent
    #: but much smaller); "direct" is the paper-literal form.
    interference_encoding: str = "aux"
    #: Section 12 extension: constants as temporaries in the virtual C
    #: bank (the graph must have been through
    #: :func:`repro.alloc.remat.lift_constants`).
    remat_constants: bool = False


# --------------------------------------------------------------------------
# The "AMPL data": instruction-derived sets
# --------------------------------------------------------------------------


@dataclass
class InstrSets:
    """Operand/result sets in the paper's vocabulary (Figure 3)."""

    def_abw: list[tuple[int, int, str]] = field(default_factory=list)
    def_ab: list[tuple[int, int, str]] = field(default_factory=list)
    arith: list[tuple[int, int, str, str]] = field(default_factory=list)
    use_reg1: list[tuple[int, int, str]] = field(default_factory=list)
    use_addr: list[tuple[int, int, str]] = field(default_factory=list)
    def_l: list[tuple[int, int, tuple[str, ...]]] = field(default_factory=list)
    def_ld: list[tuple[int, int, tuple[str, ...]]] = field(default_factory=list)
    use_s: list[tuple[int, int, tuple[str, ...]]] = field(default_factory=list)
    use_sd: list[tuple[int, int, tuple[str, ...]]] = field(default_factory=list)
    same_reg: list[tuple[int, int, str, str]] = field(default_factory=list)
    clones: list[tuple[int, int, str, str]] = field(default_factory=list)
    #: points where inserting a move is illegal (after two-way branches
    #: and halts — "situations where it would be illegal to insert move
    #: instructions", Section 5.2)
    no_move_points: set[int] = field(default_factory=set)

    def figure6_stats(self) -> dict[str, int]:
        """Temporaries participating in coloring (paper Figure 6)."""
        def count(sets):
            return sum(len(vs) for _, _, vs in sets)

        return {
            "DefLi": count(self.def_l),
            "DefLDj": count(self.def_ld),
            "UseSi": count(self.use_s),
            "UseSDj": count(self.use_sd),
        }


def _temp(reg) -> str | None:
    return reg.name if isinstance(reg, isa.Temp) else None


def build_instr_sets(graph: FlowGraph, points: PointMap) -> InstrSets:
    sets = InstrSets()
    for label, index, instr in graph.instructions():
        p1 = points.before(label, index)
        p2 = points.after(label, index)
        if isinstance(instr, isa.Alu):
            a, b = _temp(instr.a), _temp(instr.b) if instr.b else None
            if a and b and a != b:
                sets.arith.append((p1, p2, a, b))
            elif a and b and a == b:
                raise AllocError(
                    f"ALU reads temp '{a}' on both ports at {label}:{index}; "
                    "selection should have rewritten this"
                )
            elif a:
                sets.use_reg1.append((p1, p2, a))
            elif b:
                sets.use_reg1.append((p1, p2, b))
            sets.def_abw.append((p1, p2, instr.dst.name))
        elif isinstance(instr, isa.Move):
            sets.use_reg1.append((p1, p2, instr.src.name))
            sets.def_abw.append((p1, p2, instr.dst.name))
        elif isinstance(instr, isa.Immed):
            sets.def_abw.append((p1, p2, instr.dst.name))
        elif isinstance(instr, isa.MemOp):
            addr = _temp(instr.addr)
            if addr:
                sets.use_addr.append((p1, p2, addr))
            names = tuple(r.name for r in instr.regs)
            bank = (
                READ_BANK[instr.space]
                if instr.direction == "read"
                else WRITE_BANK[instr.space]
            )
            if instr.direction == "read":
                (sets.def_l if bank is Bank.L else sets.def_ld).append(
                    (p1, p2, names)
                )
            else:
                (sets.use_s if bank is Bank.S else sets.use_sd).append(
                    (p1, p2, names)
                )
        elif isinstance(instr, isa.HashInstr):
            sets.same_reg.append((p1, p2, instr.dst.name, instr.src.name))
        elif isinstance(instr, isa.Clone):
            sets.clones.append((p1, p2, instr.dst.name, instr.src.name))
        elif isinstance(instr, isa.CsrRd):
            sets.def_ab.append((p1, p2, instr.dst.name))
        elif isinstance(instr, isa.CsrWr):
            sets.use_addr.append((p1, p2, instr.src.name))
        elif isinstance(instr, isa.BrCmp):
            a, b = _temp(instr.a), _temp(instr.b)
            if a and b and a != b:
                sets.arith.append((p1, p2, a, b))
            elif a and b:
                pass  # same temp compared with itself: constant branch
            elif a:
                sets.use_reg1.append((p1, p2, a))
            elif b:
                sets.use_reg1.append((p1, p2, b))
        elif isinstance(instr, isa.HaltInstr):
            for reg in instr.results:
                name = _temp(reg)
                if name:
                    sets.use_reg1.append((p1, p2, name))
    # No moves after branch/halt terminators: those exit points fan out
    # to several targets (or to nothing).
    for label, block in graph.blocks.items():
        term = block.terminator
        if isinstance(term, (isa.BrCmp, isa.HaltInstr)):
            sets.no_move_points.add(points.exit(label))
    return sets


# --------------------------------------------------------------------------
# Clone groups
# --------------------------------------------------------------------------


def clone_groups(sets: InstrSets) -> dict[str, str]:
    """Union-find: temp → clone-group representative."""
    parent: dict[str, str] = {}

    def find(x: str) -> str:
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for _, _, dst, src in sets.clones:
        root_d, root_s = find(dst), find(src)
        if root_d != root_s:
            parent[root_d] = root_s
    return {x: find(x) for x in parent}


# --------------------------------------------------------------------------
# The model builder
# --------------------------------------------------------------------------


@dataclass
class AllocModel:
    """The instantiated ILP plus everything needed to decode a solution."""

    model: Model
    graph: FlowGraph
    points: PointMap
    live: liveness.Liveness
    sets: InstrSets
    candidates: pruning.Candidates
    costs: pruning.MoveCosts
    weights: frequency.PointWeights
    options: ModelOptions
    clone_rep: dict[str, str]
    # variable families
    before: object = None
    after: object = None
    move: object = None
    color: object = None

    #: constant-temp name → value (Section 12 rematerialization).
    const_temps: dict[str, int] = field(default_factory=dict)
    #: the bank-independent transfer coloring, (temp, bank) → register,
    #: when the model leaves coloring out; None when ``color`` holds it.
    fixed_colors: dict[tuple[str, Bank], int] | None = None
    #: whether temps may live in M; the allocator's spill-free solve
    #: builds the model without it.
    allow_spill: bool = True
    #: temp → :meth:`allowed` and temp → :meth:`colorable_banks`, each
    #: computed once per model (the row builders ask per point); a
    #: ``replace`` view of the model shares them.
    _allowed: dict[str, frozenset[Bank]] = field(
        default_factory=dict, repr=False, compare=False
    )
    _colorable: dict[str, tuple[Bank, ...]] = field(
        default_factory=dict, repr=False, compare=False
    )

    def allowed(self, temp: str) -> frozenset[Bank]:
        banks = self._allowed.get(temp)
        if banks is None:
            if temp in self.const_temps:
                banks = frozenset((Bank.C, Bank.A, Bank.B))
            else:
                banks = self.candidates.of(temp)
                if not self.allow_spill:
                    banks = banks - {Bank.M}
            self._allowed[temp] = banks
        return banks

    def colorable_banks(self, temp: str) -> tuple[Bank, ...]:
        banks = self._colorable.get(temp)
        if banks is None:
            allowed = self.allowed(temp)
            banks = tuple(b for b in XFER if b in allowed)
            self._colorable[temp] = banks
        return banks

    def move_legal(self, temp: str, b1: Bank, b2: Bank) -> bool:
        if b1 == b2:
            return True
        if Bank.C in (b1, b2):
            if temp not in self.const_temps:
                return False
            if b2 is Bank.C:
                return True  # discarding a constant is always possible
            return b2 in (Bank.A, Bank.B)  # loading a constant
        return self.costs.legal(b1, b2)

    def move_cost(self, temp: str, b1: Bank, b2: Bank) -> float:
        from repro.alloc.remat import immed_cost

        if b1 == b2:
            return 0.0
        if b2 is Bank.C:
            return 0.0  # discard
        if b1 is Bank.C:
            return float(immed_cost(self.const_temps[temp]))
        return self.costs.cost(b1, b2)


def build_model(
    graph: FlowGraph,
    options: ModelOptions | None = None,
    tracer=None,
    allow_spill: bool = True,
) -> AllocModel:
    """Instantiate the allocation ILP for ``graph``; without
    ``allow_spill`` no temp may live in M (the spill-free model)."""
    options = options or ModelOptions()
    tracer = ensure(tracer)
    with tracer.span("model") as sp:
        points = graph.points()
        live = liveness.analyze(graph)
        sets = build_instr_sets(graph, points)
        candidates = pruning.candidate_banks(graph, options.prune_banks)
        costs = pruning.build_move_costs()
        weights = frequency.point_weights(graph)
        reps = clone_groups(sets)

        from repro.alloc.remat import const_temps_of

        am = AllocModel(
            Model("ixp-alloc"),
            graph,
            points,
            live,
            sets,
            candidates,
            costs,
            weights,
            options,
            reps,
            const_temps=const_temps_of(graph) if options.remat_constants else {},
            allow_spill=allow_spill,
        )
        _build_location_vars(am)
        _build_operand_constraints(am)
        _build_k_constraints(am)
        am.fixed_colors = _fixed_coloring(am, tracer)
        color_rows = am.fixed_colors is None
        if color_rows:
            _build_color_constraints(am)
        _build_clone_constraints(am, color=color_rows)
        if color_rows:
            _build_spare_register_constraints(am)
        _build_objective(am)
        if sp:
            stats = am.model.stats()
            # Section 8 pruning: candidate (temp, bank) slots kept vs the
            # unpruned 7-banks-per-temp baseline.
            full_slots = 7 * len(candidates.banks)
            sp.add(
                variables=stats["variables"],
                constraints=stats["constraints"],
                nonzeros=am.model.nonzeros(),
                objective_terms=stats["objective_terms"],
                points=points.count,
                temps=len(candidates.banks),
                candidate_slots=candidates.total_bank_slots,
                candidate_slots_full=full_slots,
                candidate_slots_pruned=full_slots - candidates.total_bank_slots,
                **sets.figure6_stats(),
            )
    return am


# -- location variables ------------------------------------------------------


def _build_location_vars(am: AllocModel) -> None:
    m = am.model
    before = m.family("Before")
    after = m.family("After")
    move = m.family("Move")
    am.before, am.after, am.move = before, after, move

    for p, v in sorted(am.live.exists):
        banks = sorted(am.allowed(v), key=lambda b: b.value)
        if not banks:
            raise AllocError(f"temp '{v}' has no candidate banks")
        if p in am.sets.no_move_points:
            # No moves here: Before and After are the same variable.
            vars_ = [before[(p, v, b)] for b in banks]
            for b, var in zip(banks, vars_):
                after.index[(p, v, b)] = var
            m.add_sum_eq(vars_, 1, "one-place")
            continue
        for b1 in banks:
            row = []
            for b2 in banks:
                if not am.move_legal(v, b1, b2):
                    continue
                row.append(move[(p, v, b1, b2)])
            # Before[p,v,b1] = sum over destinations of Move
            expr = {var: 1.0 for var in row}
            expr[before[(p, v, b1)]] = -1.0
            m.add(expr, "==", 0, "in-before")
        for b2 in banks:
            col = []
            for b1 in banks:
                key = (p, v, b1, b2)
                if key in move:
                    col.append(move[key])
            expr = {var: 1.0 for var in col}
            expr[after[(p, v, b2)]] = -1.0
            m.add(expr, "==", 0, "in-after")
        m.add_sum_eq([before[(p, v, b)] for b in banks], 1, "one-place")

    # Constant temporaries start the program parked in the C bank
    # (Section 12: they are "loaded" by moves out of C).
    if am.const_temps:
        entry_point = am.points.entry(am.graph.entry)
        for v in sorted(am.const_temps):
            var = before.get((entry_point, v, Bank.C))
            if var is not None:
                m.add({var: 1.0}, "==", 1, "Const.start")

    # Copy propagation: location carried across instructions and edges.
    for p1, p2, v in sorted(am.live.copies):
        for b in sorted(am.allowed(v), key=lambda b: b.value):
            a_var = after.get((p1, v, b))
            b_var = before.get((p2, v, b))
            if a_var is None or b_var is None:
                # The variable does not exist at one endpoint (e.g. the
                # copy crosses a point the temp is not tracked at);
                # force the existing side to zero for this bank.
                continue
            m.add({a_var: 1.0, b_var: -1.0}, "==", 0, "copy")


def _sum_eq_one(am: AllocModel, fam, p: int, v: str, banks, note: str) -> None:
    m = am.model
    vars_ = []
    for b in banks:
        if b in am.allowed(v):
            vars_.append(fam[(p, v, b)])
    if not vars_:
        raise AllocError(
            f"temp '{v}' cannot satisfy {note}: candidates "
            f"{sorted(b.value for b in am.allowed(v))} exclude "
            f"{[b.value for b in banks]}"
        )
    m.add_sum_eq(vars_, 1, note)


# -- operand / result constraints ------------------------------------------------


def _build_operand_constraints(am: AllocModel) -> None:
    m = am.model
    before, after = am.before, am.after

    for p1, p2, v in am.sets.def_abw:
        _sum_eq_one(am, before, p2, v, ALU_OUT, "DefABW")
    for p1, p2, v in am.sets.def_ab:
        _sum_eq_one(am, before, p2, v, GPR, "DefAB")
    for p1, p2, v in am.sets.use_reg1:
        _sum_eq_one(am, after, p1, v, ALU_IN, "UseReg1")
    for p1, p2, v in am.sets.use_addr:
        _sum_eq_one(am, after, p1, v, GPR, "UseAddr")

    for p1, p2, x, y in am.sets.arith:
        _sum_eq_one(am, after, p1, x, ALU_IN, "Arith.x")
        _sum_eq_one(am, after, p1, y, ALU_IN, "Arith.y")
        # x and y cannot come from the same bank...
        for b in ALU_IN:
            if b in am.allowed(x) and b in am.allowed(y):
                m.add(
                    {after[(p1, x, b)]: 1.0, after[(p1, y, b)]: 1.0},
                    "<=",
                    1,
                    "Arith.same-bank",
                )
        # ...and not both from transfer banks.
        for bx, by in ((Bank.L, Bank.LD), (Bank.LD, Bank.L)):
            if bx in am.allowed(x) and by in am.allowed(y):
                m.add(
                    {after[(p1, x, bx)]: 1.0, after[(p1, y, by)]: 1.0},
                    "<=",
                    1,
                    "Arith.xfer-mix",
                )

    for bank, aggregates, fam_side in (
        (Bank.L, am.sets.def_l, "def"),
        (Bank.LD, am.sets.def_ld, "def"),
        (Bank.S, am.sets.use_s, "use"),
        (Bank.SD, am.sets.use_sd, "use"),
    ):
        for p1, p2, names in aggregates:
            for v in names:
                if fam_side == "def":
                    _sum_eq_one(am, before, p2, v, (bank,), f"Def{bank}")
                else:
                    _sum_eq_one(am, after, p1, v, (bank,), f"Use{bank}")

    for p1, p2, d, s in am.sets.same_reg:
        # hash: src read from S, dst lands in L.
        _sum_eq_one(am, after, p1, s, (Bank.S,), "SameReg.src")
        _sum_eq_one(am, before, p2, d, (Bank.L,), "SameReg.dst")


# -- K constraints (A/B occupancy) ------------------------------------------------


def _exists_by_point(am: AllocModel) -> dict[int, list[str]]:
    """Point → the temps that exist there, both in ascending order."""
    out: dict[int, list[str]] = {}
    for p, v in sorted(am.live.exists):
        out.setdefault(p, []).append(v)
    return out


def _build_k_constraints(am: AllocModel) -> None:
    """A ≤ 15 / B ≤ 16, counting each clone set once (Section 10)."""
    m = am.model
    clone_before = m.family("cloneBefore")
    clone_after = m.family("cloneAfter")

    for p, temps in _exists_by_point(am).items():
        groups: dict[str, list[str]] = {}
        singles: list[str] = []
        for v in temps:
            rep = am.clone_rep.get(v)
            if rep is None:
                singles.append(v)
            else:
                groups.setdefault(rep, []).append(v)
        for bank, capacity in K_CAPACITY.items():
            for fam, side in ((am.before, clone_before), (am.after, clone_after)):
                if fam is am.after and p in am.sets.no_move_points:
                    continue  # After == Before there
                expr: dict[int, float] = {}
                for v in singles:
                    if bank in am.allowed(v):
                        expr[fam[(p, v, bank)]] = 1.0
                for rep, members in groups.items():
                    in_bank = [v for v in members if bank in am.allowed(v)]
                    if not in_bank:
                        continue
                    if len(in_bank) == 1:
                        expr[fam[(p, in_bank[0], bank)]] = 1.0
                        continue
                    witness = side[(p, rep, bank.value)]
                    # witness >= each member; witness <= sum of members
                    total: dict[int, float] = {witness: -1.0}
                    for v in in_bank:
                        member = fam[(p, v, bank)]
                        m.add(
                            {witness: 1.0, member: -1.0},
                            ">=",
                            0,
                            "cloneCount.lower",
                        )
                        total[member] = 1.0
                    m.add(total, ">=", 0, "cloneCount.upper")
                    expr[witness] = 1.0
                if len(expr) > capacity:
                    m.add(expr, "<=", capacity, f"K.{bank}")


# -- coloring ---------------------------------------------------------------------


def _aggregate_positions(am: AllocModel) -> dict[tuple[str, Bank], tuple[int, int]]:
    """For each aggregate member: (index within aggregate, aggregate size).

    SSA/SSU guarantee one read/write position per temp, so this map is
    well defined (conflicting positions would make coloring infeasible —
    exactly what Sections 9-10 argue).
    """
    out: dict[tuple[str, Bank], tuple[int, int]] = {}
    for bank, aggregates in (
        (Bank.L, am.sets.def_l),
        (Bank.LD, am.sets.def_ld),
        (Bank.S, am.sets.use_s),
        (Bank.SD, am.sets.use_sd),
    ):
        for _, _, names in aggregates:
            for k, v in enumerate(names):
                key = (v, bank)
                if key in out and out[key] != (k, len(names)):
                    raise AllocError(
                        f"temp '{v}' used at conflicting aggregate "
                        f"positions in bank {bank}; program is not in "
                        "SSA/SSU form"
                    )
                out[key] = (k, len(names))
    return out


def _build_color_constraints(am: AllocModel) -> None:
    m = am.model
    color = m.family("Color")
    am.color = color
    positions = _aggregate_positions(am)

    colorable: list[tuple[str, Bank]] = []
    for v in am.graph.temps():
        for b in am.colorable_banks(v):
            colorable.append((v, b))

    # A color must exist for a temporary that can live in a transfer bank.
    for v, b in colorable:
        m.add_sum_eq(
            [color[(v, b, r)] for r in range(XFER_SIZE)], 1, "Color.exists"
        )

    # Redundant position constraints (speed): member k of an aggregate of
    # size n can only have colors k .. 8-n+k.
    if am.options.redundant_position_constraints:
        for (v, b), (k, n) in positions.items():
            for r in range(XFER_SIZE):
                if r < k or r > XFER_SIZE - n + k:
                    m.add({color[(v, b, r)]: 1.0}, "==", 0, "Color.position")

    # Aggregate adjacency: consecutive members get consecutive colors.
    for bank, aggregates in (
        (Bank.L, am.sets.def_l),
        (Bank.LD, am.sets.def_ld),
        (Bank.S, am.sets.use_s),
        (Bank.SD, am.sets.use_sd),
    ):
        for _, _, names in aggregates:
            for v1, v2 in zip(names, names[1:]):
                for r in range(XFER_SIZE):
                    if r + 1 < XFER_SIZE:
                        m.add(
                            {
                                color[(v1, bank, r)]: 1.0,
                                color[(v2, bank, r + 1)]: -1.0,
                            },
                            "==",
                            0,
                            "Color.adjacent",
                        )
                    else:
                        m.add(
                            {color[(v1, bank, r)]: 1.0},
                            "==",
                            0,
                            "Color.adjacent-end",
                        )

    # Same register number across banks (hash etc., Section 9).
    for _, _, d, s in am.sets.same_reg:
        for r in range(XFER_SIZE):
            m.add(
                {color[(d, Bank.L, r)]: 1.0, color[(s, Bank.S, r)]: -1.0},
                "==",
                0,
                "SameReg.color",
            )

    _build_interference_constraints(am, colorable)


def _build_interference_constraints(am: AllocModel, colorable) -> None:
    """Interfering temporaries simultaneously in one transfer bank must
    not share a color (Section 9)."""
    m = am.model
    color = am.color
    pairs = liveness.interference_pairs(am.live, am.clone_rep)
    colorable_set = set(colorable)
    both = m.family("BothIn")

    # Cache exists-points per temp for speed.
    points_of: dict[str, set[int]] = {}
    for p, v in am.live.exists:
        points_of.setdefault(v, set()).add(p)

    for v1, v2 in sorted(pairs):
        for b in XFER:
            if (v1, b) not in colorable_set or (v2, b) not in colorable_set:
                continue
            shared = sorted(points_of[v1] & points_of[v2])
            if not shared:
                continue
            if am.options.interference_encoding == "direct":
                for p in shared:
                    for fam in (am.before, am.after):
                        if fam is am.after and p in am.sets.no_move_points:
                            continue
                        k1 = fam.get((p, v1, b))
                        k2 = fam.get((p, v2, b))
                        if k1 is None or k2 is None:
                            continue
                        for r in range(XFER_SIZE):
                            m.add(
                                {
                                    k1: 1.0,
                                    k2: 1.0,
                                    color[(v1, b, r)]: 1.0,
                                    color[(v2, b, r)]: 1.0,
                                },
                                "<=",
                                3,
                                "Interfere.direct",
                            )
                continue
            # Compact encoding: one witness for "both in bank b at some
            # shared point".
            witness = both[(v1, v2, b.value)]
            for p in shared:
                for fam in (am.before, am.after):
                    if fam is am.after and p in am.sets.no_move_points:
                        continue
                    k1 = fam.get((p, v1, b))
                    k2 = fam.get((p, v2, b))
                    if k1 is None or k2 is None:
                        continue
                    m.add(
                        {k1: 1.0, k2: 1.0, witness: -1.0},
                        "<=",
                        1,
                        "Interfere.witness",
                    )
            for r in range(XFER_SIZE):
                m.add(
                    {
                        color[(v1, b, r)]: 1.0,
                        color[(v2, b, r)]: 1.0,
                        witness: 1.0,
                    },
                    "<=",
                    2,
                    "Interfere.color",
                )


# -- clones ------------------------------------------------------------------------


def _build_clone_constraints(
    am: AllocModel, location: bool = True, color: bool = True
) -> None:
    """Clone rows, clone by clone: ``location`` agreement at the clone
    point, then ``color`` agreement in the transfer banks."""
    m = am.model
    for p1, p2, d, s in am.sets.clones:
        banks = sorted(am.allowed(d) | am.allowed(s), key=lambda b: b.value)
        for b in banks if location else ():
            b_var = am.before.get((p2, d, b))
            a_var = am.after.get((p1, s, b))
            if b_var is None and a_var is None:
                continue
            expr: dict[int, float] = {}
            if b_var is not None:
                expr[b_var] = 1.0
            if a_var is not None:
                expr[a_var] = expr.get(a_var, 0.0) - 1.0
            m.add(expr, "==", 0, "Clone.location")
        # Color agreement where the clone starts in a transfer bank.
        for b in XFER if color else ():
            b_var = am.before.get((p2, d, b))
            if b_var is None:
                continue
            if b not in am.colorable_banks(d) or b not in am.colorable_banks(s):
                continue
            for r in range(XFER_SIZE):
                cd = am.color[(d, b, r)]
                cs = am.color[(s, b, r)]
                m.add(
                    {cd: 1.0, cs: -1.0, b_var: 1.0}, "<=", 1, "Clone.color"
                )
                m.add(
                    {cs: 1.0, cd: -1.0, b_var: 1.0}, "<=", 1, "Clone.color"
                )


# -- spare registers for spills in L and S ---------------------------------------------


def _spill_moves_needing_spare(
    am: AllocModel, p: int, temps: list[str]
) -> dict[Bank, list[int]]:
    """Moves at point p of ``temps``, in order, that transiently need a
    register in S (store path) or L (load path)."""
    out: dict[Bank, list[int]] = {Bank.S: [], Bank.L: []}
    if p in am.sets.no_move_points:
        return out
    for v in temps:
        banks = sorted(am.allowed(v), key=lambda b: b.value)
        for b1 in banks:
            for b2 in banks:
                if b1 == b2:
                    continue
                key = (p, v, b1, b2)
                var = am.move.get(key)
                if var is None:
                    continue
                # Store path passes through S when the source can feed the
                # ALU and the value must reach memory (M) or come back (L).
                if b1 in (Bank.A, Bank.B, Bank.L, Bank.LD) and b2 in (Bank.M, Bank.L):
                    out[Bank.S].append(var)
                # Load path passes through L when pulling out of M to a
                # non-L destination.
                if b1 is Bank.M and b2 is not Bank.L:
                    out[Bank.L].append(var)
    return out


def _build_spare_register_constraints(am: AllocModel) -> None:
    """colorAvail / needsSpill for banks L and S (Section 9)."""
    m = am.model
    occupied = m.family("colorAvail")
    needs_spill = m.family("needsSpill")

    for p, temps in _exists_by_point(am).items():
        movers = _spill_moves_needing_spare(am, p, temps)
        for bank in (Bank.L, Bank.S):
            occupants = [v for v in temps if bank in am.colorable_banks(v)]
            spare_movers = movers[bank]
            if not spare_movers:
                continue  # no spare needed at p: skip the whole family
            ns = needs_spill[(p, bank.value)]
            for var in spare_movers:
                m.add({ns: 1.0, var: -1.0}, ">=", 0, "needsSpill.lower")
            if am.options.tighten_needs_spill:
                expr = {var: 1.0 for var in spare_movers}
                expr[ns] = -1.0
                m.add(expr, ">=", 0, "needsSpill.upper")
            if not occupants:
                continue
            row = []
            for r in range(XFER_SIZE):
                occ = occupied[(p, bank.value, r)]
                row.append(occ)
                for v in occupants:
                    b_var = am.before.get((p, v, bank))
                    if b_var is None:
                        continue
                    m.add(
                        {
                            am.color[(v, bank, r)]: 1.0,
                            b_var: 1.0,
                            occ: -1.0,
                        },
                        "<=",
                        1,
                        "colorAvail",
                    )
            expr = {var: 1.0 for var in row}
            expr[ns] = 1.0
            m.add(expr, "<=", XFER_SIZE, "K.xfer")


# -- the bank-independent coloring pre-solve ---------------------------------------------

#: Families that say where a temp is or moves, not which register it
#: holds; the coloring pre-solve folds them in as the constant 1.
BANK_SIDE = frozenset(("Before", "After", "Move", "BothIn", "needsSpill"))


class _ColoringModel(Model):
    """The coloring rows alone, with every bank-side variable at 1.

    Variables of :data:`BANK_SIDE` families get negative ids, and
    :meth:`add` moves their terms to the right-hand side.  A row left
    with no variable constrains bank-side variables only (it always
    holds at 1) and is dropped.
    """

    def __init__(self):
        super().__init__("ixp-colors")
        self._ones = 0

    def _new_var(self, family: str, key: tuple) -> int:
        if family not in BANK_SIDE:
            return super()._new_var(family, key)
        self._ones -= 1
        return self._ones

    def add(self, expr, sense, rhs, note=""):
        coeffs = expr.coeffs if isinstance(expr, LinExpr) else expr
        kept = {var: c for var, c in coeffs.items() if var >= 0}
        if kept:
            ones = sum(c for var, c in coeffs.items() if var < 0)
            super().add(kept, sense, rhs - ones, note)


class _Folded(Family):
    """A bank-side family of the full model, in a :class:`_ColoringModel`:
    the same keys, each a constant-1 variable."""

    def __init__(self, model: _ColoringModel, full: Family):
        super().__init__(model, full.name)
        self.full = full

    def get(self, key: tuple) -> int | None:
        return self[key] if key in self.full else None


def _pigeonhole(am: AllocModel) -> bool:
    """True when no bank-independent coloring can exist: at some point,
    more pairwise-interfering temps (those live there, each clone group
    once) could be in one transfer bank than it has registers — 8, or 7
    where a spill path may need a spare L/S register."""
    xfer_of = {v: set(am.colorable_banks(v)) for v in am.graph.temps()}
    exists = _exists_by_point(am)
    for p, live in sorted(am.live.live_at.items()):
        for b in XFER:
            groups = {am.clone_rep.get(v, v) for v in live if b in xfer_of[v]}
            if len(groups) < XFER_SIZE:
                continue
            limit = XFER_SIZE
            if b in (Bank.L, Bank.S) and _spill_moves_needing_spare(
                am, p, exists[p]
            )[b]:
                limit -= 1
            if len(groups) > limit:
                return True
    return False


def _solve(model: Model, options: SolveOptions):
    """:func:`repro.ilp.solve.solve_model` for the coloring pre-solve,
    often the first solve in a process, which loads the solver stack."""
    return load_solver_stack().solve_model(model, options)


def _fixed_coloring(am: AllocModel, tracer) -> dict[tuple[str, Bank], int] | None:
    """The coloring pre-solve: a bank-independent transfer coloring, or None.

    It builds the coloring rows with the same builders as the full model
    into a :class:`_ColoringModel` and solves that feasibility problem
    (no objective, no time limit, no store), so the path a program takes
    depends on the program alone.
    """
    with tracer.span("colors") as sp:
        colors = cm = None
        if not _pigeonhole(am):
            cm = _ColoringModel()
            view = replace(
                am,
                model=cm,
                before=_Folded(cm, am.before),
                after=_Folded(cm, am.after),
                move=_Folded(cm, am.move),
            )
            _build_color_constraints(view)
            _build_clone_constraints(view, location=False)
            _build_spare_register_constraints(view)
            solution = _solve(cm, SolveOptions(time_limit=None))
            if solution.status == "optimal":
                colors = {
                    (v, b): r
                    for (v, b, r), var in view.color.items()
                    if solution.is_one(var)
                }
        if sp:
            sp.add(
                fixed=int(colors is not None),
                filtered=int(cm is None),
                variables=cm.num_vars if cm else 0,
                constraints=cm.num_constraints if cm else 0,
            )
    return colors


# -- objective -------------------------------------------------------------------------


def _build_objective(am: AllocModel) -> None:
    m = am.model
    clone_move = m.family("cloneMove")
    coeffs: dict[int, float] = {}

    # Group moves: charge once per (point, group, b1, b2).
    group_movers: dict[tuple[int, str, Bank, Bank], list[int]] = {}

    for (p, v, b1, b2), var in am.move.items():
        if b1 == b2:
            continue
        weight = am.weights[p]
        cost = am.move_cost(v, b1, b2)
        if b1 is Bank.B:
            cost *= am.options.a_bank_bias
        rep = am.clone_rep.get(v)
        if rep is None:
            coeffs[var] = coeffs.get(var, 0.0) + weight * cost
        else:
            group_movers.setdefault((p, rep, b1, b2), []).append(var)

    for (p, rep, b1, b2), vars_ in sorted(
        group_movers.items(), key=lambda kv: (kv[0][0], kv[0][1], kv[0][2].value, kv[0][3].value)
    ):
        weight = am.weights[p]
        cost = am.move_cost(rep, b1, b2) if rep in am.const_temps else am.costs.cost(b1, b2)
        if b1 is Bank.B:
            cost *= am.options.a_bank_bias
        if len(vars_) == 1:
            coeffs[vars_[0]] = coeffs.get(vars_[0], 0.0) + weight * cost
            continue
        witness = clone_move[(p, rep, b1.value, b2.value)]
        for var in vars_:
            m.add({witness: 1.0, var: -1.0}, ">=", 0, "cloneMove")
        coeffs[witness] = coeffs.get(witness, 0.0) + weight * cost

    m.minimize(coeffs)


# -- solution summary ------------------------------------------------------------------


@dataclass
class AllocSolution:
    """Decoded high-level facts of an ILP solution."""

    banks_before: dict[tuple[int, str], Bank]
    banks_after: dict[tuple[int, str], Bank]
    moves: list[tuple[int, str, Bank, Bank]]
    colors: dict[tuple[str, Bank], int]
    spills: int
    move_count: int


def extract_solution(am: AllocModel, solution) -> AllocSolution:
    banks_before: dict[tuple[int, str], Bank] = {}
    banks_after: dict[tuple[int, str], Bank] = {}
    for (p, v, b), var in am.before.items():
        if solution.is_one(var):
            banks_before[(p, v)] = b
    for (p, v, b), var in am.after.items():
        if solution.is_one(var):
            banks_after[(p, v)] = b
    moves = []
    spills = 0
    for (p, v, b1, b2), var in am.move.items():
        if b1 != b2 and solution.is_one(var):
            moves.append((p, v, b1, b2))
            if b2 is Bank.M:
                spills += 1
    if am.fixed_colors is not None:
        colors = dict(am.fixed_colors)
    else:
        colors = {
            (v, b): r
            for (v, b, r), var in am.color.items()
            if solution.is_one(var)
        }
    return AllocSolution(
        banks_before, banks_after, sorted(moves), colors, spills, len(moves)
    )
