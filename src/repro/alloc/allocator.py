"""Top-level allocator driver: model → solve → color → decode.

Also implements the paper's *two-phase* variant (Section 11): a first
solve with an objective that merely detects whether spills are needed at
all; when none are (the common case — Figure 7 reports zero spills for
all three applications), the model is rebuilt without the M bank, which
eliminates many variables and constraints involving memory and solves
much faster (the paper reports 9s for AES vs 35.9s one-shot).

Solver robustness is graceful degradation rather than an exception: the
chain ``highs`` → ``bnb`` → the heuristic graph-coloring allocator
(:mod:`repro.alloc.baseline`) is walked with per-stage time budgets, so
a solver timeout, numerical failure, or crash downgrades to a feasible
(if less optimal) allocation.  Every downgrade records a ``fallback``
trace span carrying the stage it moved to and the reason.  Genuinely
infeasible models still raise :class:`AllocError` — no solver can help
there, and the ablation suites depend on the diagnosis.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from repro.errors import AllocError
from repro.ixp.banks import Bank
from repro.ixp.flowgraph import FlowGraph
from repro.ilp.solve import SolveOptions, check_engine, solve_model
from repro.trace import ensure
from repro.alloc import abcolor, decode as decode_mod
from repro.alloc.ilpmodel import (
    AllocModel,
    AllocSolution,
    ModelOptions,
    build_model,
    extract_solution,
)


@dataclass
class AllocOptions:
    model: ModelOptions = field(default_factory=ModelOptions)
    solve: SolveOptions = field(default_factory=SolveOptions)
    two_phase: bool = False
    spill_base: int = decode_mod.SPILL_BASE
    #: Degrade gracefully (``highs`` → ``bnb`` → baseline coloring) when
    #: a solver times out without an incumbent, fails numerically, or
    #: crashes.  Infeasible models raise regardless.
    fallback: bool = True
    #: Time budget (seconds) for the ``bnb`` retry stage of the chain.
    fallback_time_limit: float | None = 60.0


@dataclass
class AllocResult:
    physical: FlowGraph
    alloc: AllocSolution | None
    ab: abcolor.AbAssignment | None
    decoded: decode_mod.DecodeResult
    model: AllocModel | None
    #: Figure 7 numbers.
    variables: int
    constraints: int
    objective_terms: int
    root_seconds: float
    integer_seconds: float
    moves: int
    spills: int
    status: str
    #: Which fallback stage produced this result (``"bnb"`` /
    #: ``"baseline"``), or None when the primary solver succeeded.
    fallback: str | None = None

    def figure7_row(self) -> dict[str, float]:
        return {
            "root_time_s": round(self.root_seconds, 3),
            "integer_time_s": round(self.integer_seconds, 3),
            "variables_k": round(self.variables / 1000, 1),
            "constraints_k": round(self.constraints / 1000, 1),
            "objective_terms_k": round(self.objective_terms / 1000, 1),
            "moves": self.moves,
            "spills": self.spills,
        }


def _solve_chain(model, options: AllocOptions, tracer, phase: str = ""):
    """Solve ``model`` through the engine chain.

    Returns ``(solution, fallback)`` where ``fallback`` is ``"bnb"``
    when the retry stage produced the answer.  Returns ``(None, None)``
    when every engine stage failed (the caller then degrades to the
    baseline allocator or raises).  Infeasibility raises immediately.
    """
    suffix = f" ({phase})" if phase else ""

    def run(solve_options):
        try:
            return solve_model(model, solve_options, tracer), None
        except Exception as exc:  # solver crash = failed stage, not fatal
            return None, f"{type(exc).__name__}: {exc}"

    solution, crash = run(options.solve)
    if solution is not None and solution.status == "infeasible":
        raise AllocError(f"allocation ILP is infeasible{suffix}")
    if solution is not None and solution.usable:
        return solution, None
    reason = crash if crash else f"status={solution.status}"
    # No point retrying bnb when it was the primary engine.
    if not options.fallback or options.solve.engine == "bnb":
        return None, reason
    retry_options = replace(
        options.solve, engine="bnb", time_limit=options.fallback_time_limit
    )
    with tracer.span("fallback", stage="bnb", reason=reason):
        retry, crash = run(retry_options)
    if retry is not None and retry.status == "infeasible":
        raise AllocError(f"allocation ILP is infeasible{suffix}")
    if retry is not None and retry.usable:
        return retry, "bnb"
    return None, crash if crash else f"status={retry.status}"


def allocate(
    graph: FlowGraph,
    options: AllocOptions | None = None,
    tracer=None,
    prebuilt: AllocModel | None = None,
) -> AllocResult:
    """Run the paper's ILP-based allocation pipeline on a flowgraph.

    ``prebuilt`` reuses an :class:`AllocModel` already built from the
    *same graph and model options* (the caller's responsibility — the
    fuzz oracle shares one model across its solver-engine configs).  It
    is ignored for the two-phase and rematerialization variants, which
    transform the graph or mutate the model's objective.
    """
    options = options or AllocOptions()
    # A misconfigured engine is an error, not a solver failure to fall
    # back from.
    check_engine(options.solve.engine)
    tracer = ensure(tracer)
    if options.model.remat_constants:
        from repro.alloc.remat import lift_constants

        graph, _ = lift_constants(graph)
        prebuilt = None
    if options.two_phase:
        return _allocate_two_phase(graph, options, tracer)
    am = prebuilt if prebuilt is not None else build_model(
        graph, options.model, tracer
    )
    solution, downgraded = _solve_chain(am.model, options, tracer)
    if solution is None:
        return _degrade_to_baseline(graph, options, tracer, downgraded)
    return _finish(graph, am, solution, options, fallback=downgraded)


def _degrade_to_baseline(
    graph: FlowGraph, options: AllocOptions, tracer, reason
) -> AllocResult:
    """Last stage of the chain: the heuristic drain/stage allocator.

    Feasible whenever greedy coloring finds registers for every temp;
    when even that spills (or fallback is disabled) there is nothing
    left to degrade to and the allocator raises.
    """
    if not options.fallback:
        raise AllocError(f"allocation solver failed: {reason}")
    from repro.alloc.baseline import allocate_baseline, baseline_input_locations

    start = time.perf_counter()
    with tracer.span("fallback", stage="baseline", reason=str(reason)) as sp:
        result = allocate_baseline(graph)
        if sp:
            sp.add(moves=result.moves, spills=result.spills)
    if result.physical is None:
        raise AllocError(
            f"allocation solver failed ({reason}) and the baseline "
            f"allocator spilled {result.spills} temporaries"
        )
    decoded = decode_mod.DecodeResult(
        graph=result.physical,
        input_locations=baseline_input_locations(graph, result),
        spill_slots={},
    )
    return AllocResult(
        physical=result.physical,
        alloc=None,
        ab=None,
        decoded=decoded,
        model=None,
        variables=0,
        constraints=0,
        objective_terms=0,
        root_seconds=0.0,
        integer_seconds=time.perf_counter() - start,
        moves=result.moves,
        spills=result.spills,
        status="baseline",
        fallback="baseline",
    )


def _finish(graph, am, solution, options, fallback=None) -> AllocResult:
    alloc = extract_solution(am, solution)
    ab = abcolor.assign_ab_registers(
        graph, alloc.banks_before, alloc.banks_after, am.clone_rep
    )
    decoded = decode_mod.decode(am, alloc, ab, options.spill_base)
    stats = am.model.stats()
    return AllocResult(
        physical=decoded.graph,
        alloc=alloc,
        ab=ab,
        decoded=decoded,
        model=am,
        variables=stats["variables"],
        constraints=stats["constraints"],
        objective_terms=stats["objective_terms"],
        root_seconds=solution.root_relaxation_seconds,
        integer_seconds=solution.integer_seconds,
        moves=alloc.move_count,
        spills=alloc.spills,
        status=solution.status,
        fallback=fallback,
    )


def _allocate_two_phase(
    graph: FlowGraph, options: AllocOptions, tracer
) -> AllocResult:
    """Phase 1: are spills needed at all?  Phase 2: solve without M."""
    am1 = build_model(graph, options.model, tracer)
    # Replace the objective: one unit per move into the M bank.
    am1.model.objective = {}
    spill_obj = {}
    for (p, v, b1, b2), var in am1.move.items():
        if b2 is Bank.M and b1 is not Bank.M:
            spill_obj[var] = 1.0
    am1.model.minimize(spill_obj)
    phase1, downgraded1 = _solve_chain(am1.model, options, tracer, "phase 1")
    if phase1 is None:
        return _degrade_to_baseline(graph, options, tracer, downgraded1)
    needs_spills = phase1.objective > 0.5

    model_opts = replace(options.model, allow_spill=needs_spills)
    am2 = build_model(graph, model_opts, tracer)
    solution, downgraded2 = _solve_chain(am2.model, options, tracer, "phase 2")
    if solution is None:
        return _degrade_to_baseline(graph, options, tracer, downgraded2)
    return _finish(graph, am2, solution, options, fallback=downgraded2)
