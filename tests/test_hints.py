"""Warm starts: `repro.ilp.hints` and the hint lookup in `solve_model`."""

import dataclasses
import json

import pytest

from repro.alloc.allocator import AllocOptions, allocate
from repro.cache import frontend_fingerprint
from repro.compiler import CompileOptions, compile_nova
from repro.ilp.hints import (
    HINT_FORMAT,
    HintStore,
    hint_incumbent,
    solve_digest,
)
from repro.ilp.model import Model
from repro.ilp.solve import ENGINES, SolveOptions, solve_model
from repro.trace import Tracer


def assignment_model(n=4, shift=0):
    """n×n one-to-one assignment; unique optimum on distinct costs.

    ``shift`` changes only the objective, so an optimum of one shift is
    a feasible warm start for another.
    """
    m = Model("assign")
    x = m.family("x")
    for i in range(n):
        m.add_sum_eq([x[(i, j)] for j in range(n)], 1)
    for j in range(n):
        m.add_sum_eq([x[(i, j)] for i in range(n)], 1)
    m.minimize(
        {
            x[(i, j)]: (i * n + j + shift) % 7 + 1
            for i in range(n)
            for j in range(n)
        }
    )
    return m


def triangle_cover_model():
    """Vertex cover of a triangle: LP bound 1.5 at all-halves, optimum 2."""
    m = Model("triangle")
    x = m.family("x")
    for i, j in ((0, 1), (1, 2), (0, 2)):
        m.add({x[(i,)]: 1.0, x[(j,)]: 1.0}, ">=", 1)
    m.minimize({x[(i,)]: 1.0 for i in range(3)})
    return m


def outcome(tracer):
    return tracer.get("portfolio.warm_start").counters["outcome"]


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
        first = solve_model(assignment_model(), options, tracer)
        assert tracer.get("portfolio.warm_start").counters["outcome"] == "none"
        assert HintStore(options.hint_dir).load(options.hint_key) is not None

        # Only the objective differs, so the model is not the one whose
        # optimum was recorded, and the first optimum seeds its solve.
        perturbed = assignment_model(shift=1)
        cold = solve_model(assignment_model(shift=1), SolveOptions())
        warm_tracer = Tracer()
        warm = solve_model(perturbed, options, warm_tracer)
        ws = warm_tracer.get("portfolio.warm_start")
        assert ws.counters["outcome"] == "seeded"
        c = perturbed.standard_form()[0]
        assert ws.counters["incumbent"] == pytest.approx(c @ first.values)
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
        store = HintStore(options.hint_dir)
        assert store.load(options.hint_key) is None
        assert store.load_optimum(solve_digest(m, "highs", options.gap)) is None

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


class TestReuse:
    """Proven optima of an identical model are returned without a solve."""

    @pytest.mark.parametrize("engine", ENGINES)
    def test_identical_model_is_reused_without_a_solve(
        self, engine, tmp_path, monkeypatch
    ):
        options = hinted(tmp_path, engine)
        cold = solve_model(assignment_model(), options)
        assert cold.status == "optimal"

        def no_solve(*args, **kwargs):
            raise AssertionError("a reused optimum must not call the solver")

        monkeypatch.setattr("scipy.optimize.milp", no_solve)
        monkeypatch.setattr("scipy.optimize.linprog", no_solve)
        # Another budget and another hint key: neither is in the digest.
        again = SolveOptions(
            engine=engine,
            time_limit=1.0,
            hint_dir=options.hint_dir,
            hint_key="cd" * 32,
        )
        tracer = Tracer()
        reused = solve_model(assignment_model(), again, tracer)
        assert outcome(tracer) == "reused"
        assert reused.status == "optimal"
        assert reused.objective == cold.objective
        assert reused.gap == cold.gap
        assert (reused.values == cold.values).all()
        assert tracer.get("solve").counters["nodes"] == 0
        # A reuse is a lookup: it records no hint of its own.
        assert HintStore(options.hint_dir).load(again.hint_key) is None

    def test_no_reuse_across_engine_gap_or_scipy_version(
        self, tmp_path, monkeypatch
    ):
        import scipy

        options = hinted(tmp_path)
        solve_model(assignment_model(), options)
        for variant in (
            dataclasses.replace(options, engine="bnb"),
            dataclasses.replace(options, gap=1e-3),
        ):
            tracer = Tracer()
            solve_model(assignment_model(), variant, tracer)
            assert outcome(tracer) == "seeded"
        monkeypatch.setattr(scipy, "__version__", scipy.__version__ + "+other")
        tracer = Tracer()
        solve_model(assignment_model(), options, tracer)
        assert outcome(tracer) == "seeded"

    def test_no_reuse_after_a_seeded_solve(self, tmp_path):
        options = hinted(tmp_path)
        solve_model(assignment_model(), options)
        for _ in range(2):
            tracer = Tracer()
            seeded = solve_model(assignment_model(shift=1), options, tracer)
            assert outcome(tracer) == "seeded"
            assert seeded.status == "optimal"
        digest = solve_digest(assignment_model(shift=1), "highs", options.gap)
        assert HintStore(options.hint_dir).load_optimum(digest) is None

    def test_no_reuse_after_a_non_optimal_solve(self, tmp_path):
        # Two nodes find the optimum's point but not its proof.
        options = dataclasses.replace(hinted(tmp_path, "bnb"), node_limit=2)
        starved = solve_model(triangle_cover_model(), options)
        assert starved.status == "timeout" and starved.usable
        tracer = Tracer()
        full = dataclasses.replace(options, node_limit=200_000)
        assert solve_model(triangle_cover_model(), full, tracer).status == "optimal"
        assert outcome(tracer) == "seeded"
        digest = solve_digest(triangle_cover_model(), "bnb", options.gap)
        assert HintStore(options.hint_dir).load_optimum(digest) is None

    @pytest.mark.parametrize(
        "tamper",
        [
            lambda doc: dict(doc, objective=doc["objective"] + 1.0),
            lambda doc: dict(doc, ones=doc["ones"][1:]),  # violates a row
            lambda doc: dict(doc, ones=doc["ones"] + [10**6]),
            lambda doc: dict(doc, ones=[str(v) for v in doc["ones"]]),
            lambda doc: dict(doc, format=doc["format"] + 1),
            lambda doc: "not json {",
        ],
        ids=["objective", "infeasible", "index", "type", "format", "corrupt"],
    )
    def test_tampered_entry_is_not_reused(self, tamper, tmp_path):
        options = hinted(tmp_path)
        cold = solve_model(assignment_model(), options)
        store = HintStore(options.hint_dir)
        path = store.optimum_path(
            solve_digest(assignment_model(), "highs", options.gap)
        )
        doc = tamper(json.loads(path.read_text()))
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        tracer = Tracer()
        again = solve_model(assignment_model(), options, tracer)
        assert outcome(tracer) == "seeded"
        assert again.objective == pytest.approx(cold.objective)


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
        # Another A-bank bias changes only the objective, so the starved
        # model has no proven optimum of its own and the hint seeds it.
        # The hint is the spill-free solution; its variable names map
        # onto both the spill-free and the full model.  Three lookups:
        # the spill-free solve (highs stops without an incumbent), then
        # the full model's chain, highs and the bnb retry.
        compile_nova(SOURCE, options=hinted_compile(tmp_path))
        starved = hinted_compile(tmp_path)
        starved.alloc.model.a_bank_bias = 1.02
        starved.alloc.solve.time_limit = 0.0
        starved.alloc.fallback_time_limit = 0.0
        tracer = Tracer()
        comp = compile_nova(SOURCE, options=starved, tracer=tracer)
        assert comp.alloc.fallback == "bnb"
        assert comp.alloc.status == "timeout"
        bnb = [s for s in tracer.spans if s.name == "solve"][-1]
        assert bnb.counters["engine"] == "bnb"
        lookups = [s for s in tracer.spans if s.name == "portfolio.warm_start"]
        assert [s.counters["outcome"] for s in lookups] == ["seeded"] * 3
        solves = [s for s in tracer.spans if s.name == "solve"]
        assert [s.counters["engine"] for s in solves] == ["highs"] * 2 + ["bnb"]
        assert solves[0].counters["cols"] < solves[1].counters["cols"]
        assert solves[1].counters["cols"] == solves[2].counters["cols"]
        # Without a hint the same budgets end at the baseline allocator.
        cold = CompileOptions()
        cold.alloc.model.a_bank_bias = 1.02
        cold.alloc.solve.time_limit = 0.0
        cold.alloc.fallback_time_limit = 0.0
        assert compile_nova(SOURCE, options=cold).alloc.fallback == "baseline"

    def test_starved_recompile_of_an_unchanged_model_is_reused(self, tmp_path):
        # The same zero budgets on the unchanged model: its proven
        # optimum answers without a solve, so nothing falls back.
        first = compile_nova(SOURCE, options=hinted_compile(tmp_path))
        starved = hinted_compile(tmp_path)
        starved.alloc.solve.time_limit = 0.0
        starved.alloc.fallback_time_limit = 0.0
        tracer = Tracer()
        comp = compile_nova(SOURCE, options=starved, tracer=tracer)
        assert comp.alloc.fallback is None
        assert comp.alloc.status == "optimal"
        lookups = [s for s in tracer.spans if s.name == "portfolio.warm_start"]
        assert [s.counters["outcome"] for s in lookups] == ["reused"]
        assert comp.physical.pretty() == first.physical.pretty()

    def test_comment_only_edit_is_reused(self, tmp_path):
        # A comment changes the source, and with it the daemon's hint
        # key, but not the model: its proven optimum answers by content.
        compile_nova(SOURCE, options=hinted_compile(tmp_path))
        edited_source = SOURCE + "// a comment\n"
        edited = hinted_compile(tmp_path)
        edited.alloc.solve.hint_key = "01" * 32
        tracer = Tracer()
        comp = compile_nova(edited_source, options=edited, tracer=tracer)
        assert outcome(tracer) == "reused"
        local = compile_nova(edited_source)
        assert comp.physical.pretty() == local.physical.pretty()


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
