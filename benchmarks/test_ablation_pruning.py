"""Section 8 ablation: "A million variables".

Without the static candidate-bank analysis, every live temporary gets
7x7 Move variables at every point — the paper extrapolates about a
million Move variables for a full instruction store.  With the analysis,
temporaries that are loaded and never stored are ruled out of S/SD/LD
and so on, and "spilling will move the temporary either from {L,A,B}
directly to M" — "dramatically smaller optimization problems".

Reproduced claims: the pruned model is several times smaller than the
unpruned one on the real applications, and on a program solved both
ways the optimum is unchanged (the ruled-out banks were useless).
"""

from repro.alloc.ilpmodel import ModelOptions, build_model, extract_solution
from repro.ilp.solve import solve_model

from benchmarks.conftest import print_table
from tests.helpers import compile_virtual
from tests.programs import case

SMALL = """
fun main (b) {
  let (p, q, r, s) = sram(b);
  let x = p + q;
  let y = r ^ s;
  sram(b + 8) <- (y, x);
  x + y
}
"""


def test_pruning_shrinks_app_models(virtual_apps):
    rows = []
    for name, (_, comp) in virtual_apps.items():
        pruned = build_model(comp.flowgraph, ModelOptions(prune_banks=True))
        unpruned = build_model(comp.flowgraph, ModelOptions(prune_banks=False))
        rows.append(
            [
                name,
                pruned.model.num_vars,
                unpruned.model.num_vars,
                round(unpruned.model.num_vars / pruned.model.num_vars, 2),
                pruned.model.num_constraints,
                unpruned.model.num_constraints,
            ]
        )
    print_table(
        "Section 8 pruning ablation (model sizes)",
        [
            "program",
            "vars pruned",
            "vars unpruned",
            "ratio",
            "cons pruned",
            "cons unpruned",
        ],
        rows,
    )
    for row in rows:
        assert row[3] > 1.5, f"{row[0]}: pruning should shrink the model"


def test_pruning_preserves_optimum():
    comp = compile_virtual(SMALL)
    results = {}
    for prune in (True, False):
        am = build_model(comp.flowgraph, ModelOptions(prune_banks=prune))
        sol = solve_model(am.model)
        assert sol.status == "optimal"
        decoded = extract_solution(am, sol)
        results[prune] = (round(sol.objective, 6), decoded.spills)
    assert results[True] == results[False]


def test_pruning_preserves_optimum_on_corpus_case():
    comp = compile_virtual(case("memory_roundtrip").source)
    objectives = {}
    for prune in (True, False):
        am = build_model(comp.flowgraph, ModelOptions(prune_banks=prune))
        sol = solve_model(am.model)
        assert sol.status == "optimal"
        objectives[prune] = round(sol.objective, 6)
    assert objectives[True] == objectives[False]


def test_model_build_speed_pruned(benchmark, virtual_apps):
    graph = virtual_apps["Kasumi"][1].flowgraph
    benchmark.pedantic(
        lambda: build_model(graph, ModelOptions(prune_banks=True)),
        rounds=2,
        iterations=1,
    )


def test_model_build_speed_unpruned(benchmark, virtual_apps):
    graph = virtual_apps["Kasumi"][1].flowgraph
    benchmark.pedantic(
        lambda: build_model(graph, ModelOptions(prune_banks=False)),
        rounds=2,
        iterations=1,
    )
