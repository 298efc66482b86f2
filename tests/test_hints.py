"""Warm starts: `repro.ilp.hints` and the hint lookup in `solve_model`."""

import json

import pytest

from repro.alloc.allocator import AllocOptions, allocate
from repro.cache import frontend_fingerprint
from repro.compiler import CompileOptions, compile_nova
from repro.ilp.hints import HINT_FORMAT, HintStore, hint_incumbent
from repro.ilp.model import Model
from repro.ilp.solve import ENGINES, SolveOptions, solve_model
from repro.trace import Tracer


def assignment_model(n=4):
    """n×n one-to-one assignment; unique optimum on distinct costs."""
    m = Model("assign")
    x = m.family("x")
    for i in range(n):
        m.add_sum_eq([x[(i, j)] for j in range(n)], 1)
    for j in range(n):
        m.add_sum_eq([x[(i, j)] for i in range(n)], 1)
    m.minimize({x[(i, j)]: (i * n + j) % 7 + 1 for i in range(n) for j in range(n)})
    return m


def hinted(tmp_path, engine="highs"):
    return SolveOptions(
        engine=engine, hint_dir=str(tmp_path / "hints"), hint_key="ab" * 32
    )


def hinted_compile(tmp_path):
    options = CompileOptions()
    options.alloc.solve.hint_dir = str(tmp_path / "hints")
    options.alloc.solve.hint_key = "ef" * 32
    return options


class TestHints:
    def test_store_roundtrip_and_seeded_warm_start(self, tmp_path):
        options = hinted(tmp_path)
        tracer = Tracer()
        cold = solve_model(assignment_model(), options, tracer)
        assert tracer.get("portfolio.warm_start").counters["outcome"] == "none"
        assert HintStore(options.hint_dir).load(options.hint_key) is not None

        warm_tracer = Tracer()
        warm = solve_model(assignment_model(), options, warm_tracer)
        ws = warm_tracer.get("portfolio.warm_start")
        assert ws.counters["outcome"] == "seeded"
        assert ws.counters["incumbent"] == pytest.approx(cold.objective)
        assert warm.status == "optimal"
        assert warm.objective == pytest.approx(cold.objective)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_warm_start_runs_inside_every_engines_solve(self, engine, tmp_path):
        # The hint recorded by one engine seeds the other: hints are
        # names of one-valued variables, not engine state.
        other = next(e for e in ENGINES if e != engine)
        reference = solve_model(assignment_model(), hinted(tmp_path, other))
        tracer = Tracer()
        warm = solve_model(assignment_model(), hinted(tmp_path, engine), tracer)
        solve = tracer.get("solve")
        lookup = tracer.get("portfolio.warm_start")
        assert solve.counters["engine"] == engine
        assert lookup.parent == "solve"
        assert lookup.counters["outcome"] == "seeded"
        assert warm.status == "optimal"
        assert warm.objective == pytest.approx(reference.objective)

    def test_no_lookup_without_both_hint_fields(self, tmp_path):
        for options in (
            SolveOptions(hint_dir=str(tmp_path / "hints")),
            SolveOptions(hint_key="ab" * 32),
        ):
            tracer = Tracer()
            solve_model(assignment_model(), options, tracer)
            assert tracer.get("portfolio.warm_start") is None
        assert not (tmp_path / "hints").exists()

    def test_unusable_result_is_not_recorded(self, tmp_path):
        m = Model("infeasible")
        x = m.family("x")[(0,)]
        m.add({x: 1.0}, ">=", 2)  # binary var can't reach 2
        m.minimize({x: 1.0})
        options = hinted(tmp_path)
        assert solve_model(m, options).status == "infeasible"
        assert HintStore(options.hint_dir).load(options.hint_key) is None

    def test_incumbent_maps_by_name_and_validates(self):
        m = assignment_model()
        reference = solve_model(m, SolveOptions(engine="highs"))
        store_hint = {
            "format": HINT_FORMAT,
            "objective": float(reference.objective),
            "status": "optimal",
            "ones": [
                m.name_of(v)
                for v in range(m.num_vars)
                if reference.values[v] > 0.5
            ],
        }
        warm = hint_incumbent(m, store_hint)
        assert warm is not None
        assert warm[0] == pytest.approx(reference.objective)
        # Unknown names are dropped; the truncated point then violates
        # the assignment rows and the hint is rejected, not mis-seeded.
        stale = dict(store_hint, ones=["x[99,99]"] + store_hint["ones"][1:])
        assert hint_incumbent(m, stale) is None

    def test_tampered_hint_file_reads_as_no_hint(self, tmp_path):
        store = HintStore(tmp_path)
        key = "cd" * 32
        path = store.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("not json {")
        assert store.load(key) is None
        assert not path.exists()  # corrupt entry deleted
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"format": HINT_FORMAT + 1, "ones": []}))
        assert store.load(key) is None  # wrong format version

    def test_bnb_accepts_a_seeded_incumbent(self):
        from repro.ilp.solve import _solve_bnb

        m = assignment_model()
        reference = solve_model(m, SolveOptions(engine="highs"))
        warm = hint_incumbent(
            m,
            {
                "format": HINT_FORMAT,
                "objective": float(reference.objective),
                "status": "optimal",
                "ones": [
                    m.name_of(v)
                    for v in range(m.num_vars)
                    if reference.values[v] > 0.5
                ],
            },
        )
        solution = _solve_bnb(m, SolveOptions(engine="bnb"), incumbent=warm)
        assert solution.status == "optimal"
        assert solution.objective == pytest.approx(reference.objective)


SOURCE = """
layout h = { a : 8, b : 24 };
fun main (x) {
  let u = unpack[h](x);
  u.a + u.b
}
"""


class TestEndToEnd:
    def test_compile_with_hints(self, tmp_path):
        options = hinted_compile(tmp_path)
        comp = compile_nova(SOURCE, options=options)
        assert comp.alloc.status == "optimal"
        # A second compile under different allocator knobs still shares
        # the incumbent: the key is the *front-end* fingerprint.
        variant = CompileOptions()
        variant.alloc.solve.gap = 1e-3
        assert frontend_fingerprint(options) == frontend_fingerprint(variant)
        variant.alloc.solve.hint_dir = options.alloc.solve.hint_dir
        variant.alloc.solve.hint_key = options.alloc.solve.hint_key
        tracer = Tracer()
        again = compile_nova(SOURCE, options=variant, tracer=tracer)
        assert tracer.get("portfolio.warm_start").counters["outcome"] == "seeded"
        assert again.alloc.moves == comp.alloc.moves

    def test_fallback_bnb_retry_is_warm(self, tmp_path):
        # Zero budgets: highs stops before finding a solution, and so
        # would bnb — unless the chain's retry starts from the hint.
        compile_nova(SOURCE, options=hinted_compile(tmp_path))
        starved = hinted_compile(tmp_path)
        starved.alloc.solve.time_limit = 0.0
        starved.alloc.fallback_time_limit = 0.0
        tracer = Tracer()
        comp = compile_nova(SOURCE, options=starved, tracer=tracer)
        assert comp.alloc.fallback == "bnb"
        assert comp.alloc.status == "timeout"
        bnb = [s for s in tracer.spans if s.name == "solve"][-1]
        assert bnb.counters["engine"] == "bnb"
        lookups = [s for s in tracer.spans if s.name == "portfolio.warm_start"]
        assert [s.counters["outcome"] for s in lookups] == ["seeded"] * 2
        # Without a hint the same budgets end at the baseline allocator.
        cold = CompileOptions()
        cold.alloc.solve.time_limit = 0.0
        cold.alloc.fallback_time_limit = 0.0
        assert compile_nova(SOURCE, options=cold).alloc.fallback == "baseline"


class TestEngineValidation:
    @pytest.mark.parametrize("engine", ["higs", "portfolio"])
    def test_solve_model_rejects_unknown_engine(self, engine):
        with pytest.raises(ValueError, match="unknown solver engine"):
            solve_model(assignment_model(), SolveOptions(engine=engine))

    def test_allocate_does_not_fall_back_on_unknown_engine(self):
        # A typo is a configuration error, not a solver crash: the
        # fallback chain must not turn it into a baseline allocation.
        options = CompileOptions()
        options.alloc.solve.engine = "higs"
        with pytest.raises(ValueError, match="unknown solver engine"):
            compile_nova(SOURCE, options=options)
        front = CompileOptions()
        front.run_allocator = False
        graph = compile_nova(SOURCE, options=front).flowgraph
        with pytest.raises(ValueError, match="'higs'"):
            allocate(graph, AllocOptions(solve=SolveOptions(engine="higs")))
