"""Top-level allocator driver: model → solve → color → decode.

By default it runs the paper's *two-phase* allocation (Section 11) as
one solve: it first builds the model without the M bank, which drops
many of the variables and constraints involving memory (the paper
reports AES in 9 s instead of 35.9 s one-shot).  Optimal allocations
rarely spill (Figure 7 reports zero spills for all three applications),
so that solve usually settles the allocation.  Only when it proves
spills necessary, ends without an incumbent, fails or crashes does the
allocator build the full model.  ``AllocOptions.two_phase = False``
solves the full model directly: the paper's one-shot model, whose sizes
Figure 7 tabulates.  A model whose transfer coloring left the ILP is
solved LP relaxation first (:attr:`SolveOptions.root_relaxation`): its
integral vertex, when it has one, is the optimum without branch and cut.

Solver robustness is graceful degradation rather than an exception: for
the full model the chain ``highs`` → ``bnb`` → the heuristic
graph-coloring allocator (:mod:`repro.alloc.baseline`) is walked with
per-stage time budgets, so a solver timeout, numerical failure, or crash
downgrades to a feasible (if less optimal) allocation.  Every downgrade
records a ``fallback`` trace span carrying the stage it moved to and the
reason.  Genuinely infeasible models still raise :class:`AllocError` —
no solver can help there, and the ablation suites depend on the
diagnosis.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from repro.errors import AllocError
from repro.ixp.flowgraph import FlowGraph
from repro.ilp.options import SolveOptions, check_engine, load_solver_stack
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
    #: Solve the spill-free model first and build the full model only
    #: when that solve yields no allocation; False is the paper's
    #: one-shot model.
    two_phase: bool = True
    #: Degrade gracefully (``highs`` → ``bnb`` → baseline coloring) when
    #: a solver times out without an incumbent, fails numerically, or
    #: crashes on the full model.  Infeasible models raise regardless.
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


def _solve_options(am: AllocModel, options: AllocOptions) -> SolveOptions:
    """The solve options for ``am``: the caller's, plus the LP relaxation
    first when the model's transfer coloring left the ILP, since those
    models' LP optimum is integral in practice and then ends the solve."""
    if am.fixed_colors is None:
        return options.solve
    return replace(options.solve, root_relaxation=True)


def _solve(model, options: SolveOptions, tracer):
    """:func:`repro.ilp.solve.solve_model`: both allocator solves go
    through here, and the first in a process loads the solver stack."""
    return load_solver_stack().solve_model(model, options, tracer)


def _solve_chain(model, options: AllocOptions, tracer):
    """Solve ``model`` through the engine chain.

    Returns ``(solution, fallback)`` where ``fallback`` is ``"bnb"``
    when the retry stage produced the answer.  Returns ``(None, None)``
    when every engine stage failed (the caller then degrades to the
    baseline allocator or raises).  Infeasibility raises immediately.
    """
    def run(solve_options):
        try:
            return _solve(model, solve_options, tracer), None
        except Exception as exc:  # solver crash = failed stage, not fatal
            return None, f"{type(exc).__name__}: {exc}"

    solution, crash = run(options.solve)
    if solution is not None and solution.status == "infeasible":
        raise AllocError("allocation ILP is infeasible")
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
        raise AllocError("allocation ILP is infeasible")
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
    *same graph* and the model options this call builds first: the
    spill-free model when ``options.two_phase`` is set, else the full
    one (the caller's responsibility — the fuzz oracle shares one model
    across its solver-engine configs).  It is ignored for the
    rematerialization variant, which transforms the graph.
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
        result = _allocate_spill_free(graph, options, tracer, prebuilt)
        if result is not None:
            return result
        prebuilt = None
    am = prebuilt if prebuilt is not None else build_model(
        graph, options.model, tracer
    )
    solution, downgraded = _solve_chain(
        am.model, replace(options, solve=_solve_options(am, options)), tracer
    )
    if solution is None:
        return _degrade_to_baseline(graph, options, tracer, downgraded)
    return _finish(graph, am, solution, fallback=downgraded)


def first_model_options(options: AllocOptions) -> ModelOptions:
    """The model options :func:`allocate` builds its first model with."""
    if options.two_phase:
        return replace(options.model, allow_spill=False)
    return options.model


def _allocate_spill_free(
    graph: FlowGraph, options: AllocOptions, tracer, prebuilt
) -> AllocResult | None:
    """Solve the model without the M bank once, with no fallback chain.

    Returns None when that solve yields no allocation: it proved
    spills necessary, stopped without an incumbent, failed or raised.
    The caller then solves the full model.
    """
    am = prebuilt if prebuilt is not None else build_model(
        graph, first_model_options(options), tracer
    )
    try:
        solution = _solve(am.model, _solve_options(am, options), tracer)
    except Exception:  # solver crash: the full model's chain handles it
        return None
    if not solution.usable:
        return None
    return _finish(graph, am, solution)


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


def _finish(graph, am, solution, fallback=None) -> AllocResult:
    alloc = extract_solution(am, solution)
    ab = abcolor.assign_ab_registers(
        graph, alloc.banks_before, alloc.banks_after, am.clone_rep
    )
    decoded = decode_mod.decode(am, alloc, ab)
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
