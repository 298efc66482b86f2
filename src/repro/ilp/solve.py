"""Solvers for 0-1 integer linear programs (the CPLEX substitute).

Two engines:

- ``highs`` — scipy's :func:`scipy.optimize.milp` (HiGHS branch & cut),
  the default production solver;
- ``bnb`` — our own depth-first best-bound branch-and-bound over HiGHS
  LP relaxations, kept as an independently-testable reference (and proof
  that no black-box integer solver is required).

Both report the two timings Figure 7 tabulates: the *root relaxation*
(optimal LP solution) and the total time to integer optimality.  The
``highs`` engine solves the root relaxation with ``linprog`` only when
:attr:`SolveOptions.root_relaxation` is set, since ``milp`` does not
report it.  When that LP's optimal vertex is integral and satisfies
every row, it is the ILP's proven optimum (gap 0) and ``milp`` never
runs; otherwise ``milp`` solves the model as without the option, on
what is left of the time budget.  The allocator sets the option for
models whose transfer coloring left the ILP, whose LP optimum is
integral in practice.  A tracer never turns it on: tracing a compile
must not change the work it does, so a traced ``highs`` solve that did
not ask for the LP reports a root time of 0.

Reuse by content: when :attr:`SolveOptions.hint_dir` is set,
:func:`solve_model` consults a :class:`~repro.ilp.hints.HintStore`.  A
proven optimum of the identical model (same standard form, engine, gap
and scipy) is returned without a solve; otherwise the engine solves
cold, exactly as without a store, and an ``optimal`` result is recorded
by content for the next solve.

This module is the solver side of :mod:`repro.ilp`: it turns a
:class:`~repro.ilp.model.Model` into sparse standard form
(:func:`standard_form`) and imports numpy and scipy to do so.  Outside
:mod:`repro.ilp` it is reached only through
:func:`repro.ilp.options.load_solver_stack`, so a process that never
solves never loads the libraries.
"""

from __future__ import annotations

import math
import time

import numpy as np
from scipy import optimize, sparse

from repro.ilp.hints import (
    HintStore,
    reused_optimum,
    satisfies_rows,
    solve_digest,
)
from repro.ilp.model import SENSES, Model, Solution
from repro.ilp.options import SolveOptions, check_engine
from repro.trace import ensure

#: How far an LP value may sit from 0 or 1 and still count as integral.
INTEGRAL_TOL = 1e-6


def standard_form(model: Model) -> tuple:
    """Return (c, A, lb_row, ub_row) with one row per constraint.

    Row senses are encoded as [lb, ub] bounds on A @ x, suitable for
    :class:`scipy.optimize.LinearConstraint`.  The model's flat row
    arrays are the COO triplets, rows in insertion order and columns in
    each row's own order, so scipy's COO→CSR conversion treats explicit
    zeros and duplicates exactly as for per-row input.
    """
    ends = np.array(model.ends, dtype=np.int64)
    rows = np.repeat(np.arange(len(ends)), np.diff(ends, prepend=0))
    matrix = sparse.csr_matrix(
        (np.array(model.coefs), (rows, np.array(model.cols))),
        shape=(len(ends), model.num_vars),
    )
    senses = np.array(model.senses)
    rhs = np.array(model.rhs)
    lb = np.where(senses == SENSES.index("<="), -np.inf, rhs)
    ub = np.where(senses == SENSES.index(">="), np.inf, rhs)
    c = np.zeros(model.num_vars)
    terms = len(model.objective)
    c[np.fromiter(model.objective, np.intp, terms)] = np.fromiter(
        model.objective.values(), np.float64, terms
    )
    return c, matrix, lb, ub


def solve_root_relaxation(model: Model) -> tuple[float, float, np.ndarray]:
    """Solve the LP relaxation; returns (objective, seconds, x)."""
    return _root_relaxation(*standard_form(model))


def _root_relaxation(c, matrix, lb, ub, time_limit=None):
    """The LP relaxation; objective ``inf`` when it fails or runs out
    of ``time_limit`` seconds."""
    a_ub, b_ub = _ub_matrix(matrix, lb, ub)
    a_eq, b_eq = _eq_matrix(matrix, lb, ub)
    start = time.perf_counter()
    res = optimize.linprog(
        c,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=(0, 1),
        method="highs",
        options={} if time_limit is None else {"time_limit": time_limit},
    )
    seconds = time.perf_counter() - start
    if not res.success:
        return math.inf, seconds, np.zeros(len(c))
    return float(res.fun), seconds, res.x


def _split_rows(matrix, lb, ub):
    eq_rows = np.where(lb == ub)[0]
    le_rows = np.where((ub < np.inf) & (lb != ub))[0]
    ge_rows = np.where((lb > -np.inf) & (lb != ub))[0]
    return eq_rows, le_rows, ge_rows


def _ub_matrix(matrix, lb, ub):
    _, le_rows, ge_rows = _split_rows(matrix, lb, ub)
    parts = []
    rhs = []
    if len(le_rows):
        parts.append(matrix[le_rows])
        rhs.append(ub[le_rows])
    if len(ge_rows):
        parts.append(-matrix[ge_rows])
        rhs.append(-lb[ge_rows])
    if not parts:
        return None, None
    return sparse.vstack(parts), np.concatenate(rhs)

def _eq_matrix(matrix, lb, ub):
    eq_rows, _, _ = _split_rows(matrix, lb, ub)
    if not len(eq_rows):
        return None, None
    return matrix[eq_rows], ub[eq_rows]


def solve_model(
    model: Model, options: SolveOptions | None = None, tracer=None
) -> Solution:
    options = options or SolveOptions()
    check_engine(options.engine)
    tracer = ensure(tracer)
    if model.num_vars == 0:
        return Solution("optimal", 0.0, np.zeros(0), 0.0, 0.0)
    with tracer.span("solve", engine=options.engine) as sp:
        form = standard_form(model)
        store, digest, solution = _reuse(form, options, tracer)
        if solution is None:
            if options.engine == "bnb":
                solution = _solve_bnb(form, options)
            else:
                solution = _solve_highs(form, options)
            if store is not None and solution.status == "optimal":
                store.save_optimum(digest, solution)
        if sp:
            sp.add(
                rows=model.num_constraints,
                cols=model.num_vars,
                nonzeros=model.nonzeros(),
                status=solution.status,
                objective=float(solution.objective),
                root_relaxation_seconds=solution.root_relaxation_seconds,
                integer_seconds=solution.integer_seconds,
                nodes=solution.nodes,
                gap=float(solution.gap),
            )
    return solution


def _reuse(form: tuple, options: SolveOptions, tracer):
    """Look up a proven optimum of the model whose standard form is
    ``form``.

    Returns ``(store, digest, reused)``: the store, the model's
    :func:`~repro.ilp.hints.solve_digest`, and the stored optimum as a
    :class:`Solution` or None.  All three are None unless ``options``
    names a store.  The span keeps its historical
    ``portfolio.warm_start`` name, which existing trace consumers read.
    """
    if not options.hint_dir:
        return None, None, None
    store = HintStore(options.hint_dir)
    with tracer.span("portfolio.warm_start") as sp:
        digest = solve_digest(form, options.engine, options.gap)
        entry = store.load_optimum(digest)
        reused = reused_optimum(form, entry) if entry is not None else None
        if sp:
            sp.add(
                key=digest[:12],
                outcome="none" if reused is None else "reused",
            )
    return store, digest, reused


#: :func:`scipy.optimize.milp` status codes → :class:`Solution` statuses
#: (0 optimal and 1 iteration/time limit are handled separately above).
_MILP_STATUS = {2: "infeasible", 3: "unbounded", 4: "failed"}


def _solve_highs(form: tuple, options: SolveOptions) -> Solution:
    """HiGHS branch & cut via :func:`scipy.optimize.milp`, after the LP
    relaxation when :attr:`SolveOptions.root_relaxation` asks for it."""
    c, matrix, lb, ub = form
    num_vars = len(c)
    root_seconds = 0.0
    time_limit = options.time_limit
    if options.root_relaxation:
        bound, root_seconds, x = _root_relaxation(c, matrix, lb, ub, time_limit)
        answer = _integral_vertex(matrix, lb, ub, bound, x)
        if answer is not None:
            return Solution(
                "optimal",
                float(c @ answer),
                answer,
                root_seconds,
                root_seconds,
                nodes=1,
                gap=0.0,
            )
        if time_limit is not None:
            time_limit = max(0.0, time_limit - root_seconds)
    start = time.perf_counter()
    constraints = []
    if matrix.shape[0]:
        constraints.append(optimize.LinearConstraint(matrix, lb, ub))
    milp_options = {"mip_rel_gap": options.gap}
    if time_limit is not None:
        milp_options["time_limit"] = time_limit
    res = optimize.milp(
        c,
        constraints=constraints,
        integrality=np.ones(num_vars),
        bounds=optimize.Bounds(0, 1),
        options=milp_options,
    )
    seconds = time.perf_counter() - start
    nodes = int(getattr(res, "mip_node_count", 0) or 0)
    gap = float(getattr(res, "mip_gap", 0.0) or 0.0)
    if res.status == 0 and res.x is not None:
        values = np.round(res.x)
        return Solution(
            "optimal", float(res.fun), values, root_seconds, seconds, nodes, gap
        )
    if res.status == 1:  # iteration/time limit
        if res.x is not None:
            return Solution(
                "timeout",
                float(res.fun),
                np.round(res.x),
                root_seconds,
                seconds,
                nodes,
                gap,
            )
        return Solution(
            "timeout",
            math.inf,
            np.zeros(num_vars),
            root_seconds,
            seconds,
            nodes,
            math.inf,
        )
    # milp statuses: 2 infeasible, 3 unbounded, 4 numerical failure.
    status = _MILP_STATUS.get(res.status, "failed")
    return Solution(
        status,
        math.inf,
        np.zeros(num_vars),
        root_seconds,
        seconds,
        nodes,
        math.inf,
    )


def _integral_vertex(matrix, lb, ub, bound, x):
    """The LP optimum ``x`` rounded to 0-1, or None.

    None unless the LP solved (``bound`` finite), every entry is within
    :data:`INTEGRAL_TOL` of 0 or 1, and the rounded point satisfies
    every row (:func:`~repro.ilp.hints.satisfies_rows`, as a stored
    optimum must).  Such a point is optimal for the ILP, whose feasible
    set the LP's contains.
    """
    if not math.isfinite(bound):
        return None
    rounded = np.round(x)
    if np.any(np.abs(x - rounded) > INTEGRAL_TOL):
        return None
    if not satisfies_rows(matrix, lb, ub, rounded):
        return None
    return rounded


# --------------------------------------------------------------------------
# Our own branch and bound
# --------------------------------------------------------------------------


def _relative_gap(incumbent: float, bound: float) -> float:
    """CPLEX-style relative MIP gap between incumbent and best bound."""
    if not math.isfinite(incumbent):
        return math.inf
    return (incumbent - bound) / max(1.0, abs(incumbent))


def _solve_bnb(form: tuple, options: SolveOptions) -> Solution:
    """Depth-first branch-and-bound with best-bound pruning.

    LP relaxations are solved by HiGHS ``linprog`` with variable fixings
    expressed through bounds.  Branches on the most fractional variable;
    explores the rounded branch first to find incumbents early.  Each
    open node carries its parent's LP bound, which gives (a) pruning
    before paying for the node's LP solve and (b) a global best bound —
    the minimum over open nodes — so the search stops as soon as the
    incumbent is within ``options.gap`` of it (relative MIP gap), exactly
    like CPLEX's ``mipgap`` termination.
    """
    c, matrix, lb, ub = form
    a_ub, b_ub = _ub_matrix(matrix, lb, ub)
    a_eq, b_eq = _eq_matrix(matrix, lb, ub)
    n = len(c)
    start = time.perf_counter()
    root_seconds = [0.0]

    def relax(fix_lo: np.ndarray, fix_hi: np.ndarray):
        bounds = list(zip(fix_lo, fix_hi))
        t0 = time.perf_counter()
        res = optimize.linprog(
            c,
            A_ub=a_ub,
            b_ub=b_ub,
            A_eq=a_eq,
            b_eq=b_eq,
            bounds=bounds,
            method="highs",
        )
        if root_seconds[0] == 0.0:
            root_seconds[0] = time.perf_counter() - t0
        if not res.success:
            return math.inf, None
        return float(res.fun), res.x

    best_obj = math.inf
    best_x: np.ndarray | None = None
    best_bound = -math.inf
    nodes = 0
    status = "optimal"

    # (fixed lower bounds, fixed upper bounds, parent's LP bound)
    stack: list[tuple[np.ndarray, np.ndarray, float]] = [
        (np.zeros(n), np.ones(n), -math.inf)
    ]
    while stack:
        # ``is not None``: a budget of 0.0 means "stop immediately", not
        # "run forever" (falsiness would drop the check entirely).
        if (
            options.time_limit is not None
            and time.perf_counter() - start > options.time_limit
        ):
            status = "timeout"
            break
        if nodes >= options.node_limit:
            status = "timeout"
            break
        best_bound = min(parent for _, _, parent in stack)
        if best_x is not None and _relative_gap(best_obj, best_bound) <= options.gap:
            break  # incumbent proved within the MIP gap: stop the search
        fix_lo, fix_hi, parent_bound = stack.pop()
        if parent_bound >= best_obj - 1e-9:
            continue  # pruned by the parent's bound: no LP solve needed
        nodes += 1
        bound, x = relax(fix_lo, fix_hi)
        if x is None or bound >= best_obj - 1e-9:
            continue
        frac = np.abs(x - np.round(x))
        branch_var = int(np.argmax(frac))
        if frac[branch_var] < INTEGRAL_TOL:
            # Integral solution.
            best_obj = bound
            best_x = np.round(x)
            continue
        # Explore the rounding of the fractional value first.
        first = int(round(x[branch_var]))
        for value in (1 - first, first):
            lo2, hi2 = fix_lo.copy(), fix_hi.copy()
            lo2[branch_var] = hi2[branch_var] = value
            stack.append((lo2, hi2, bound))

    if not stack:
        best_bound = best_obj  # search exhausted: the bound is proved

    seconds = time.perf_counter() - start
    if best_x is None:
        return Solution(
            "infeasible" if status == "optimal" else status,
            math.inf,
            np.zeros(n),
            root_seconds[0],
            seconds,
            nodes,
            math.inf,
        )
    return Solution(
        status,
        best_obj,
        best_x,
        root_seconds[0],
        seconds,
        nodes,
        max(0.0, _relative_gap(best_obj, best_bound)),
    )
