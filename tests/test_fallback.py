"""Allocator graceful degradation: highs → bnb → baseline coloring.

A solver timeout or crash must downgrade to a feasible allocation with
the downgrade recorded in the trace — never an unhandled exception —
while genuinely infeasible models keep raising :class:`AllocError`.
"""

import pytest

from repro.alloc.allocator import AllocOptions, allocate
from repro.compiler import CompileOptions, compile_nova
from repro.errors import AllocError
from repro.ilp.options import SolveOptions
from repro.trace import Tracer

from tests.helpers import run_physical

SOURCE = """
layout h = { a : 8, b : 24 };
fun main (x) {
  let u = unpack[h](x);
  u.a + u.b
}
"""


def _options(engine="bnb", time_limit=0.0, **alloc_kwargs):
    options = CompileOptions()
    options.alloc.solve = SolveOptions(engine=engine, time_limit=time_limit)
    for key, value in alloc_kwargs.items():
        setattr(options.alloc, key, value)
    return options


def test_forced_timeout_degrades_to_baseline():
    tracer = Tracer()
    result = compile_nova(SOURCE, options=_options(), tracer=tracer)
    alloc = result.alloc
    assert alloc.fallback == "baseline"
    assert alloc.status == "baseline"
    assert alloc.spills == 0
    result.physical.validate()
    spans = tracer.all("fallback")
    assert [s.counters["stage"] for s in spans] == ["baseline"]
    assert "timeout" in spans[0].counters["reason"]


def test_baseline_fallback_runs_on_the_simulator():
    result = compile_nova(SOURCE, options=_options())
    results, _ = run_physical(result, x=0x45001234)
    # a=0x45, b=0x001234 -> 0x1279, same as the ILP-allocated program.
    assert results == [(0x1279,)]


def test_fallback_disabled_raises():
    with pytest.raises(AllocError, match="solver failed"):
        compile_nova(SOURCE, options=_options(fallback=False))


def test_highs_crash_falls_back_to_bnb(monkeypatch):
    calls = []

    def exploding_highs(*args, **kwargs):
        calls.append(1)
        raise RuntimeError("synthetic HiGHS failure")

    # The whole highs engine, LP relaxation included: this program's LP
    # would answer without milp, and bnb's own LPs must still run.
    monkeypatch.setattr("repro.ilp.solve._solve_highs", exploding_highs)
    tracer = Tracer()
    options = CompileOptions()
    options.alloc.solve = SolveOptions(engine="highs")
    result = compile_nova(SOURCE, options=options, tracer=tracer)
    assert calls, "the primary engine was attempted"
    alloc = result.alloc
    assert alloc.fallback == "bnb"
    assert alloc.status == "optimal"  # bnb finished the job properly
    assert alloc.spills == 0
    spans = tracer.all("fallback")
    assert [s.counters["stage"] for s in spans] == ["bnb"]
    assert "RuntimeError" in spans[0].counters["reason"]
    result.physical.validate()


def test_two_phase_timeout_degrades_to_baseline():
    tracer = Tracer()
    result = compile_nova(
        SOURCE, options=_options(two_phase=True), tracer=tracer
    )
    assert result.alloc.fallback == "baseline"
    assert tracer.all("fallback")


def test_infeasible_diagnosis_still_raises():
    # SSU disabled: conflicting aggregate positions have no feasible
    # coloring (paper Sections 9-10); that is a diagnosis, not a reason
    # to hand back a heuristic allocation.
    source = """
    fun main (addr, x, a, b, c) {
      sram(addr) <- (x, a, b, c);
      sram(addr + 8) <- (a, b, c, x);
      0
    }
    """
    options = CompileOptions()
    options.run_ssu = False
    with pytest.raises(AllocError, match="conflicting aggregate positions"):
        compile_nova(source, options=options)


def test_solver_infeasibility_raises_through_the_chain():
    from repro.alloc.allocator import _solve_chain
    from repro.ilp.model import Model
    from repro.trace import NULL

    m = Model("infeasible")
    x = m.family("x")
    m.add({x[(0,)]: 1.0, x[(1,)]: 1.0}, ">=", 3)  # two 0-1 vars can't reach 3
    m.minimize({x[(0,)]: 1.0})
    with pytest.raises(AllocError, match="infeasible"):
        _solve_chain(m, AllocOptions(), NULL)


def test_direct_allocate_fallback():
    comp = compile_nova(SOURCE, options=CompileOptions(run_allocator=False))
    graph = comp.flowgraph
    options = AllocOptions()
    options.solve = SolveOptions(engine="bnb", time_limit=0.0)
    result = allocate(graph, options)
    assert result.fallback == "baseline"
    assert result.variables == 0 and result.model is None
