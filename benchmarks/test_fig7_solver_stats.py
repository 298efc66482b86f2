"""Figure 7: solver statistics — the paper's headline table.

Paper's values (CPLEX on an 800 MHz dual Pentium-III, 2 GB):

            Root(s)  Integer(s)  Vars(k)  Cons(k)  ObjTerms(k)  Moves  Spills
  AES        30.4      35.9       108      102       37          25      0
  Kasumi     48.2      59.2       138      131       50          20      0
  NAT        69.2     155.6       208      203       72          60      0

Ours use scipy's HiGHS instead of CPLEX and today's hardware, so the
absolute times differ; the claims that must reproduce are:

- the models stay *practical* (10^4-10^5 variables, solved to optimality
  in seconds-to-minutes, "compile times short enough to accommodate an
  edit-compile-debug cycle"),
- **zero spills** for all three applications,
- inter-bank moves in the tens at most,
- NAT's model largest relative to its program (pack-heavy).

The benchmark times the full ILP solve per application (one round —
each solve takes seconds).
"""

import pytest

from benchmarks.conftest import compile_app, print_table, span_counters

PAPER_FIG7 = {
    "AES": (30.4, 35.9, 108, 102, 37, 25, 0),
    "Kasumi": (48.2, 59.2, 138, 131, 50, 20, 0),
    "NAT": (69.2, 155.6, 208, 203, 72, 60, 0),
}


def test_fig7_table(one_shot_apps):
    # Figure 7 is assembled from the tracer's spans: model sizes from the
    # ``model`` span, solver timings/nodes from ``solve``, and the
    # decoded moves/spills from the ``allocate`` summary span.
    rows = []
    for name, (_, comp) in one_shot_apps.items():
        model = span_counters(comp, "model")
        solve = span_counters(comp, "solve")
        alloc = span_counters(comp, "allocate")
        assert solve["nodes"] >= 0  # solver node count is always recorded
        rows.append(
            [
                name,
                round(solve["root_relaxation_seconds"], 2),
                round(solve["integer_seconds"], 2),
                round(model["variables"] / 1000, 1),
                round(model["constraints"] / 1000, 1),
                round(model["objective_terms"] / 1000, 1),
                alloc["moves"],
                alloc["spills"],
                alloc["status"],
            ]
        )
    print_table(
        "Figure 7: solver statistics (this reproduction, HiGHS)",
        ["program", "root s", "int s", "vars k", "cons k", "obj k", "moves", "spills", "status"],
        rows,
    )
    print_table(
        "Figure 7: paper's values (CPLEX, 800 MHz P-III)",
        ["program", "root s", "int s", "vars k", "cons k", "obj k", "moves", "spills"],
        [[k, *v] for k, v in PAPER_FIG7.items()],
    )
    by_name = {row[0]: row for row in rows}
    for name in ("AES", "Kasumi", "NAT"):
        assert by_name[name][8] == "optimal"
        assert by_name[name][7] == 0, f"{name} must not spill (paper Fig 7)"
        assert by_name[name][6] <= 80, "moves should stay in the tens"
        # Model size in the practical 10^4..10^5 band.
        assert 1 <= by_name[name][3] <= 500


@pytest.mark.parametrize("name", ["AES", "Kasumi", "NAT"])
def test_ilp_solve_speed(benchmark, name):
    def solve():
        _, comp = compile_app(name, one_shot=True)
        assert comp.alloc.status == "optimal"
        return comp

    benchmark.pedantic(solve, rounds=1, iterations=1)
