"""The coloring pre-solve of :func:`repro.alloc.ilpmodel.build_model`,
and the LP relaxation's answer that it enables.

When one transfer coloring fits every bank assignment, the allocation
model leaves coloring out and uses that coloring, and the allocator
solves the LP relaxation first: an integral vertex is the optimum and
``milp`` never runs.  Neither may change the optimum: each program
compiles three times (as shipped, with the LP answer refused, and with
the pre-solve reporting no coloring), and all three must reach the same
objective and pass the solution replay and the equivalence check.
"""

import pathlib

import pytest
import scipy.optimize

from repro.alloc import ilpmodel
from repro.alloc.ilpmodel import build_model
from repro.alloc.verify import check_equivalence, check_solution
from repro.apps import build_nat_app
from repro.compiler import CompileOptions, compile_nova
from repro.fuzz.gen import generate
from repro.ilp import solve as solve_mod
from repro.trace import Tracer

from tests.helpers import PRESSURE_SOURCE, compile_virtual, record_calls
from tests.programs import case
from tests.test_model_encodings import PROGRAMS

GAP = CompileOptions().alloc.solve.gap

#: The replay cases of test_verify.py (clone_heavy is test_model_encodings'
#: "clones"), xfer_pressure, and generated programs ("gen<seed>").
NAMES = [
    "memory_roundtrip",
    "clone_heavy",
    "while_sum",
    "hash_unit",
    "sdram_pairs",
    "xfer_pressure",
    "gen0",
    "gen1",
    "gen2",
    "gen3",
]
#: Its clones would need one register in banks where their aggregate
#: positions differ, so no bank-independent coloring exists.
KEEPS_COLORING = {"clone_heavy"}


def _program(name):
    """(source, source inputs, memory image) of one program."""
    if name.startswith("gen"):
        prog = generate(int(name[3:]))
        return prog.source, prog.vectors[0], prog.memory_image
    if name == "xfer_pressure":
        return PROGRAMS[name], {"b": 0}, {"sram": [(0, list(range(7, 23)))]}
    tc = case(name)
    return tc.source, tc.inputs, tc.memory


def _compile(source):
    """The compilation and its ILP objective."""
    tracer = Tracer()
    comp = compile_nova(source, options=CompileOptions(), tracer=tracer)
    (solve,) = [s for s in tracer.spans if s.name == "solve"]
    return comp, solve.counters["objective"]


@pytest.mark.parametrize("name", NAMES)
def test_presolve_keeps_the_optimum(name, monkeypatch):
    source, inputs, image = _program(name)
    fixed, objective = _compile(source)
    with monkeypatch.context() as patch:
        patch.setattr(solve_mod, "_integral_vertex", lambda *args: None)
        branched, branched_objective = _compile(source)
    monkeypatch.setattr(ilpmodel, "_fixed_coloring", lambda am, tracer: None)
    full, full_objective = _compile(source)
    assert (fixed.alloc.model.fixed_colors is None) == (name in KEEPS_COLORING)
    assert full.alloc.model.fixed_colors is None
    for other in (branched_objective, full_objective):
        assert abs(objective - other) <= GAP * max(
            1.0, abs(objective), abs(other)
        )
    for comp in (fixed, branched, full):
        report = check_solution(comp.alloc.model, comp.alloc.alloc)
        assert report.ok, report.violations
        equivalence = check_equivalence(
            comp.flowgraph,
            comp.physical,
            comp.make_inputs(**inputs),
            comp.alloc.decoded.input_locations,
            memory_image=image,
            spill_region=(960, 64),
        )
        assert equivalence.ok, equivalence.detail


def test_lp_answers_a_fixed_coloring_model(monkeypatch):
    """The allocation model takes the LP relaxation's integral vertex;
    this program's coloring pre-solve has no variable, so nothing in
    the compile may reach milp."""
    record_calls(monkeypatch, scipy.optimize, "milp", fail=True)
    path = pathlib.Path(__file__).parent.parent / "examples" / "ttl_decrement.nova"
    tracer = Tracer()
    comp = compile_nova(path.read_text(), options=CompileOptions(), tracer=tracer)
    assert comp.alloc.model.fixed_colors is not None
    assert comp.alloc.status == "optimal" and comp.alloc.fallback is None
    (solve,) = [s.counters for s in tracer.spans if s.name == "solve"]
    assert (solve["nodes"], solve["gap"]) == (1, 0.0)
    assert solve["root_relaxation_seconds"] == solve["integer_seconds"] > 0


def test_colored_model_reaches_milp_once(monkeypatch):
    """A model that keeps coloring in the ILP is solved by milp alone."""
    calls = record_calls(monkeypatch, scipy.optimize, "milp")
    tracer = Tracer()
    comp = compile_nova(PROGRAMS["l_overflow"], tracer=tracer)
    assert comp.alloc.model.fixed_colors is None
    assert len(calls) == 1
    (solve,) = [s.counters for s in tracer.spans if s.name == "solve"]
    assert solve["root_relaxation_seconds"] == 0


def _colors_span(tracer):
    (span,) = [s for s in tracer.spans if s.name == "colors"]
    assert span.parent == "model"
    return span.counters


def test_fixed_coloring_leaves_the_coloring_families_out():
    comp = compile_virtual(PROGRAMS["xfer_pressure"])
    tracer = Tracer()
    am = build_model(comp.flowgraph, tracer=tracer, allow_spill=False)
    assert am.fixed_colors
    assert _colors_span(tracer)["fixed"] == 1
    assert not {"Color", "BothIn", "colorAvail", "needsSpill"} & set(
        am.model.families
    )


def test_nat_keeps_coloring_in_the_ilp():
    comp = compile_virtual(build_nat_app().source)
    am = build_model(comp.flowgraph, allow_spill=False)
    assert am.fixed_colors is None
    assert len(am.model.families["Color"]) > 0


def test_pigeonhole_rejects_without_a_presolve(monkeypatch):
    """33 values read into L are live at once: more than L's 8 registers."""
    comp = compile_virtual(PRESSURE_SOURCE)

    def no_solve(*args, **kwargs):
        raise AssertionError("the coloring pre-solve ran")

    monkeypatch.setattr(ilpmodel, "_solve", no_solve)
    for allow_spill in (False, True):
        tracer = Tracer()
        am = build_model(
            comp.flowgraph, tracer=tracer, allow_spill=allow_spill
        )
        assert _colors_span(tracer) == {
            "fixed": 0,
            "filtered": 1,
            "variables": 0,
            "constraints": 0,
        }
        assert "Color" in am.model.families
