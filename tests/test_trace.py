"""The tracing/metrics layer (``repro.trace``) and its pipeline hooks."""

import json

from repro.compiler import CompileOptions, compile_nova
from repro.ixp.machine import Machine
from repro.trace import NULL, NullTracer, Tracer, ensure

SOURCE = """
layout h = { a : 8, b : 24 };
fun main (x) {
  let u = unpack[h](x);
  u.a + u.b
}
"""

PHASES = (
    "parse",
    "typecheck",
    "cps",
    "deproc",
    "optimize",
    "ssu",
    "select",
    "allocate",
)


class TestTracer:
    def test_spans_record_time_and_counters(self):
        t = Tracer()
        with t.span("outer", fixed=1) as sp:
            sp.add(extra=2)
            with t.span("inner") as inner:
                inner.tally("hits")
                inner.tally("hits", 2)
        assert [s.name for s in t.spans] == ["outer", "inner"]
        outer, inner = t.spans
        assert outer.seconds >= 0 and inner.seconds >= 0
        assert outer.counters == {"fixed": 1, "extra": 2}
        assert inner.counters == {"hits": 3}
        assert outer.parent is None and inner.parent == "outer"
        assert outer.depth == 0 and inner.depth == 1

    def test_post_exit_add(self):
        # A phase's summary counters are often computed from its result,
        # after the with-block has closed; the span must still accept them.
        t = Tracer()
        with t.span("phase") as sp:
            pass
        sp.add(late=42)
        assert t.get("phase").counters["late"] == 42

    def test_lookup_helpers(self):
        t = Tracer()
        with t.span("solve", phase=1):
            pass
        with t.span("solve", phase=2):
            pass
        assert t.get("solve").counters["phase"] == 1
        assert t.last("solve").counters["phase"] == 2
        assert len(t.all("solve")) == 2
        assert t.get("missing") is None and t.last("missing") is None

    def test_jsonl_round_trip(self):
        t = Tracer()
        with t.span("a", n=1):
            with t.span("b", inf=float("inf")):
                pass
        lines = t.to_jsonl().splitlines()
        assert len(lines) == 2
        records = [json.loads(line) for line in lines]
        assert records[0]["name"] == "a"
        assert records[1]["parent"] == "a"
        # Non-finite counters are nulled so every line is strict JSON.
        assert records[1]["counters"]["inf"] is None

    def test_table_renders_every_span(self):
        t = Tracer()
        with t.span("parse", lines=6):
            pass
        table = t.table()
        assert "parse" in table and "lines=6" in table

    def test_null_tracer_is_inert(self):
        handle = NULL.span("anything", n=1)
        assert not handle
        handle.add(n=2).tally("k")
        with handle:
            pass
        assert NULL.spans == ()
        assert NULL.get("anything") is None
        assert NULL.table() == "" and NULL.to_jsonl() == ""

    def test_ensure(self):
        t = Tracer()
        assert ensure(t) is t
        assert ensure(None) is NULL
        assert isinstance(ensure(None), NullTracer)


class TestPipelineSpans:
    def test_every_phase_records_a_span(self):
        t = Tracer()
        comp = compile_nova(SOURCE, tracer=t)
        names = [s.name for s in t.spans]
        for phase in PHASES:
            assert phase in names, f"missing span for {phase}"
        assert comp.trace is t

    def test_model_and_solve_spans_nested_under_allocate(self):
        t = Tracer()
        compile_nova(SOURCE, tracer=t)
        model = t.get("model")
        solve = t.get("solve")
        assert model.parent == "allocate" and solve.parent == "allocate"
        assert model.counters["variables"] > 0
        assert model.counters["constraints"] > 0
        assert model.counters["nonzeros"] >= model.counters["constraints"]
        # Section 8 pruning reduces candidate (temp, bank) slots.
        assert model.counters["candidate_slots_pruned"] > 0
        assert solve.counters["nodes"] >= 1
        assert solve.counters["status"] == "optimal"
        # With tracing on, the highs engine measures the root relaxation.
        assert solve.counters["root_relaxation_seconds"] > 0

    def test_ir_size_counters(self):
        t = Tracer()
        compile_nova(SOURCE, tracer=t)
        for phase in ("cps", "deproc", "optimize", "ssu"):
            assert t.get(phase).counters["term_nodes"] > 0
        select = t.get("select").counters
        assert select["instructions"] > 0 and select["blocks"] > 0

    def test_untraced_compile_records_nothing(self):
        comp = compile_nova(SOURCE)
        assert comp.trace is None

    def test_two_phase_traces_both_solves(self):
        t = Tracer()
        options = CompileOptions()
        options.alloc.two_phase = True
        compile_nova(SOURCE, options=options, tracer=t)
        assert len(t.all("model")) == 2
        assert len(t.all("solve")) == 2


class TestMachineSpans:
    def test_simulate_span_has_opcode_histogram(self):
        t = Tracer()
        comp = compile_nova(SOURCE)
        machine = Machine(
            comp.flowgraph,
            physical=False,
            input_provider=lambda tid, it: (
                comp.make_inputs(x=0x45001234) if it == 0 else None
            ),
            tracer=t,
        )
        run = machine.run()
        span = t.get("simulate")
        assert span is not None
        assert span.counters["cycles"] == run.cycles
        assert span.counters["instructions"] == run.instructions
        per_op = {
            k: v for k, v in span.counters.items() if k.startswith("count.")
        }
        assert per_op, "expected per-opcode counters"
        assert sum(per_op.values()) == run.instructions
        cycle_keys = [
            k for k in span.counters if k.startswith("cycles.")
        ]
        assert cycle_keys and all(span.counters[k] > 0 for k in cycle_keys)

    def test_untraced_machine_keeps_no_histogram(self):
        comp = compile_nova(SOURCE)
        machine = Machine(
            comp.flowgraph,
            physical=False,
            input_provider=lambda tid, it: (
                comp.make_inputs(x=1) if it == 0 else None
            ),
        )
        machine.run()
        assert machine._opcode_hist is None
