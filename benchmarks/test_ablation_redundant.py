"""Section 9 ablations: redundant constraints and model tightenings.

- "We found that adding a redundant set of constraints that immediately
  rules out a number of impossible allocations for an aggregate speeds
  up the solver" (aggregate position constraints).
- "We found that the second constraint (which is not necessary for
  correctness) improves solve times by tightening the model somewhat"
  (the upper bound on needsSpill).

Reproduced claims: with and without each, the optimum is identical; the
variants' solve times are reported side by side.  Both ablations run on
models that keep the transfer coloring in the ILP (NAT's, and AES's full
model): where one coloring fits every bank assignment the model leaves
these rows out, and "with" and "without" would be the same ILP.
"""

import time

from repro.alloc.ilpmodel import ModelOptions, build_model, extract_solution
from repro.ilp.solve import solve_model

from benchmarks.conftest import print_table


def _solve(graph, **options):
    am = build_model(graph, ModelOptions(**options))
    start = time.perf_counter()
    sol = solve_model(am.model)
    seconds = time.perf_counter() - start
    assert sol.status == "optimal"
    decoded = extract_solution(am, sol)
    return sol, decoded, seconds, am.model.stats()


def test_redundant_position_constraints(virtual_apps):
    graph = virtual_apps["NAT"][1].flowgraph
    rows = []
    outcomes = {}
    sizes = {}
    for flag in (True, False):
        sol, decoded, seconds, stats = _solve(
            graph, redundant_position_constraints=flag
        )
        outcomes[flag] = (round(sol.objective, 6), decoded.spills)
        sizes[flag] = stats["constraints"]
        rows.append(
            [
                "with" if flag else "without",
                stats["constraints"],
                round(seconds, 2),
                round(sol.objective, 3),
                decoded.move_count,
            ]
        )
    print_table(
        "Section 9: redundant aggregate-position constraints (NAT)",
        ["variant", "constraints", "solve s", "objective", "moves"],
        rows,
    )
    assert sizes[True] != sizes[False], "the variants must differ"
    assert outcomes[True] == outcomes[False], "optimum must not change"


def test_needs_spill_tightening(virtual_apps):
    graph = virtual_apps["AES"][1].flowgraph
    rows = []
    outcomes = {}
    sizes = {}
    for flag in (True, False):
        sol, decoded, seconds, stats = _solve(graph, tighten_needs_spill=flag)
        outcomes[flag] = (round(sol.objective, 6), decoded.spills)
        sizes[flag] = stats["constraints"]
        rows.append(
            [
                "with" if flag else "without",
                stats["constraints"],
                round(seconds, 2),
                round(sol.objective, 3),
            ]
        )
    print_table(
        "Section 9: needsSpill upper-bound tightening (AES)",
        ["variant", "constraints", "solve s", "objective"],
        rows,
    )
    assert sizes[True] != sizes[False], "the variants must differ"
    assert outcomes[True] == outcomes[False]


def test_solve_speed_with_redundant(benchmark, virtual_apps):
    graph = virtual_apps["NAT"][1].flowgraph
    benchmark.pedantic(
        lambda: _solve(graph, redundant_position_constraints=True),
        rounds=1,
        iterations=1,
    )


def test_solve_speed_without_redundant(benchmark, virtual_apps):
    graph = virtual_apps["NAT"][1].flowgraph
    benchmark.pedantic(
        lambda: _solve(graph, redundant_position_constraints=False),
        rounds=1,
        iterations=1,
    )
