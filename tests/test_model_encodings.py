"""ILP model encoding tests: equivalences and structure.

The compact ("aux") interference encoding must be exactly equivalent to
the paper-literal ("direct") quantification; the ModelOptions toggles
must never change the optimum (only the size/solve time).  The two
encodings differ only where the transfer coloring stays in the ILP.
"""

import pytest

from repro.alloc.ilpmodel import (
    ModelOptions,
    build_instr_sets,
    build_model,
    clone_groups,
    extract_solution,
)
from repro.ilp.solve import solve_model
from repro.ixp.banks import Bank

from tests.helpers import compile_virtual
from tests.programs import case

PROGRAMS = {
    "xfer_pressure": """
        fun main (b) {
          let (p, q, r, s) = sram(b);
          let (t, u) = sram(b + 8);
          sram(b + 16) <- (q + t, p ^ u);
          p + q + r + s + t + u
        }
    """,
    "clones": case("clone_heavy").source,
    # Nine values read into L are live at once: no coloring fits every
    # bank assignment.
    "l_overflow": """
        fun main (b) {
          let (p, q, r, s, t, u, v, w) = sram(b, 8);
          let x = sram(b + 8);
          p + q + r + s + t + u + v + w + x
        }
    """,
}
#: The programs whose transfer coloring stays in the ILP.
COLORED_IN_ILP = {"clones", "l_overflow"}


def _solve(source, **options):
    comp = compile_virtual(source)
    am = build_model(comp.flowgraph, ModelOptions(**options))
    sol = solve_model(am.model)
    assert sol.status == "optimal", sol.status
    return am, sol


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_interference_encodings_equivalent(name):
    source = PROGRAMS[name]
    am_aux, sol_aux = _solve(source, interference_encoding="aux")
    am_direct, sol_direct = _solve(source, interference_encoding="direct")
    assert sol_aux.objective == pytest.approx(sol_direct.objective, abs=1e-6)
    assert (am_aux.fixed_colors is None) == (name in COLORED_IN_ILP)
    aux = am_aux.model.num_constraints
    direct = am_direct.model.num_constraints
    if name in COLORED_IN_ILP:
        assert direct > aux  # the direct form has many more constraints
    else:
        assert direct == aux  # a fixed coloring leaves interference out


def test_direct_encoding_solution_decodes():
    comp = compile_virtual(PROGRAMS["xfer_pressure"])
    am = build_model(
        comp.flowgraph, ModelOptions(interference_encoding="direct")
    )
    sol = solve_model(am.model)
    decoded = extract_solution(am, sol)
    assert decoded.spills == 0
    from repro.alloc.verify import check_solution

    assert check_solution(am, decoded).ok


class TestInstrSets:
    def test_memory_aggregates_classified(self):
        comp = compile_virtual(PROGRAMS["xfer_pressure"])
        graph = comp.flowgraph
        sets = build_instr_sets(graph, graph.points())
        assert len(sets.def_l) == 2
        assert len(sets.use_s) == 1
        ((_, _, names),) = sets.use_s
        assert len(names) == 2

    def test_no_move_points_cover_branches(self):
        comp = compile_virtual(case("branch").source)
        graph = comp.flowgraph
        sets = build_instr_sets(graph, graph.points())
        points = graph.points()
        from repro.ixp import isa

        for label, block in graph.blocks.items():
            if isinstance(block.terminator, (isa.BrCmp, isa.HaltInstr)):
                assert points.exit(label) in sets.no_move_points

    def test_clone_groups_union(self):
        comp = compile_virtual(case("clone_heavy").source)
        graph = comp.flowgraph
        sets = build_instr_sets(graph, graph.points())
        groups = clone_groups(sets)
        # All clones of one source share one representative.
        reps = {}
        for _, _, d, s in sets.clones:
            reps.setdefault(groups[s], set()).update({d, s})
        for members in reps.values():
            assert len({groups[m] for m in members}) == 1

    def test_figure6_stats_shape(self):
        comp = compile_virtual(PROGRAMS["xfer_pressure"])
        graph = comp.flowgraph
        stats = build_instr_sets(graph, graph.points()).figure6_stats()
        assert stats["DefLi"] == 6
        assert stats["UseSi"] == 2
        assert stats["DefLDj"] == 0


class TestModelToggles:
    @pytest.mark.parametrize(
        "options",
        [
            {"redundant_position_constraints": False},
            {"tighten_needs_spill": False},
            {"a_bank_bias": 1.0},
            {"prune_banks": False},
        ],
        ids=lambda o: next(iter(o)),
    )
    def test_toggles_preserve_feasibility_and_spills(self, options):
        source = PROGRAMS["xfer_pressure"]
        _, sol_default = _solve(source)
        am, sol = _solve(source, **options)
        decoded = extract_solution(am, sol)
        assert decoded.spills == 0

    def test_no_spill_mode_drops_m_bank(self):
        comp = compile_virtual(PROGRAMS["xfer_pressure"])
        am = build_model(comp.flowgraph, allow_spill=False)
        for v in comp.flowgraph.temps():
            assert Bank.M not in am.allowed(v)
