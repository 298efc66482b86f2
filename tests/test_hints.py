"""Proven optima reused by content: `repro.ilp.hints` and `solve_model`."""

import dataclasses
import json

import pytest

from repro.alloc.allocator import AllocOptions, allocate
from repro.compiler import CompileOptions, compile_nova
from repro.ilp import solve as solve_mod
from repro.ilp.hints import OPTIMUM_FORMAT, HintStore, solve_digest
from repro.ilp.model import Model
from repro.ilp.options import ENGINES, SolveOptions
from repro.ilp.solve import solve_model, standard_form
from repro.trace import Tracer

from tests.helpers import record_calls


def assignment_model(n=4, shift=0):
    """n×n one-to-one assignment; unique optimum on distinct costs.

    ``shift`` changes only the objective: another model, and another
    digest, over the same constraints.
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


def digest_of(model, engine, gap):
    """The store key of a solve of ``model``."""
    return solve_digest(standard_form(model), engine, gap)


def outcome(tracer):
    return tracer.get("portfolio.warm_start").counters["outcome"]


def hinted(tmp_path, engine="highs"):
    return SolveOptions(engine=engine, hint_dir=str(tmp_path / "hints"))


def hinted_compile(tmp_path):
    options = CompileOptions()
    options.alloc.solve.hint_dir = str(tmp_path / "hints")
    return options


class TestHints:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_warm_start_runs_inside_every_engines_solve(self, engine, tmp_path):
        # The lookup nests under either engine's solve span: the first
        # solve finds nothing and records its optimum, the second
        # reuses it.  Both return what a solve without a store returns.
        reference = solve_model(assignment_model(), SolveOptions(engine=engine))
        options = hinted(tmp_path, engine)
        digest = digest_of(assignment_model(), engine, options.gap)
        for expected in ("none", "reused"):
            tracer = Tracer()
            solution = solve_model(assignment_model(), options, tracer)
            solve = tracer.get("solve")
            lookup = tracer.get("portfolio.warm_start")
            assert solve.counters["engine"] == engine
            assert lookup.parent == "solve"
            assert lookup.counters["outcome"] == expected
            assert lookup.counters["key"] == digest[:12]
            assert solution.status == "optimal"
            assert solution.objective == reference.objective
            assert (solution.values == reference.values).all()

    @pytest.mark.parametrize("engine", ENGINES)
    def test_cold_solve_converts_the_model_once(
        self, engine, tmp_path, monkeypatch
    ):
        # The store lookup, the engine and the record of the optimum all
        # read one standard form.
        calls = record_calls(monkeypatch, solve_mod, "standard_form")
        options = hinted(tmp_path, engine)
        assert solve_model(assignment_model(), options).status == "optimal"
        assert calls == ["standard_form"]

    def test_no_lookup_without_both_hint_fields(self):
        # Without hint_dir a solve is the plain cold solve: no lookup.
        tracer = Tracer()
        solve_model(assignment_model(), SolveOptions(), tracer)
        assert tracer.get("solve") is not None
        assert tracer.get("portfolio.warm_start") is None

    def test_unusable_result_is_not_recorded(self, tmp_path):
        m = Model("infeasible")
        x = m.family("x")[(0,)]
        m.add({x: 1.0}, ">=", 2)  # binary var can't reach 2
        m.minimize({x: 1.0})
        options = hinted(tmp_path)
        assert solve_model(m, options).status == "infeasible"
        store = HintStore(options.hint_dir)
        assert store.load_optimum(digest_of(m, "highs", options.gap)) is None
        assert not list(store.root.rglob("*.json"))

    def test_tampered_hint_file_reads_as_no_hint(self, tmp_path):
        store = HintStore(tmp_path)
        digest = "cd" * 32
        path = store.optimum_path(digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("not json {")
        assert store.load_optimum(digest) is None
        assert not path.exists()  # corrupt entry deleted
        entry = {"format": OPTIMUM_FORMAT, "objective": 1.0, "gap": 0.0, "ones": []}
        path.write_text(json.dumps(entry))
        assert store.load_optimum(digest) == entry
        path.write_text(json.dumps(dict(entry, format=OPTIMUM_FORMAT + 1)))
        assert store.load_optimum(digest) is None  # wrong format version


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

        path = HintStore(options.hint_dir).optimum_path(
            digest_of(assignment_model(), engine, options.gap)
        )
        written = path.stat().st_mtime_ns
        monkeypatch.setattr("scipy.optimize.milp", no_solve)
        monkeypatch.setattr("scipy.optimize.linprog", no_solve)
        # Another budget: it is not in the digest.
        again = dataclasses.replace(options, time_limit=1.0)
        tracer = Tracer()
        reused = solve_model(assignment_model(), again, tracer)
        assert outcome(tracer) == "reused"
        assert reused.status == "optimal"
        assert reused.objective == cold.objective
        assert reused.gap == cold.gap
        assert (reused.values == cold.values).all()
        assert tracer.get("solve").counters["nodes"] == 0
        # A reuse is a lookup: it writes nothing.
        assert list(tmp_path.joinpath("hints").rglob("*.json")) == [path]
        assert path.stat().st_mtime_ns == written

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
            assert outcome(tracer) == "none"
        monkeypatch.setattr(scipy, "__version__", scipy.__version__ + "+other")
        tracer = Tracer()
        solve_model(assignment_model(), options, tracer)
        assert outcome(tracer) == "none"

    def test_no_reuse_after_a_seeded_solve(self, tmp_path):
        # No solve is seeded from another model's solution: an
        # objective-only variant of a stored model solves cold, exactly
        # as without a store, and records its own optimum, which the
        # next solve of the variant reuses.
        options = hinted(tmp_path)
        solve_model(assignment_model(), options)
        storeless = solve_model(assignment_model(shift=1), SolveOptions())
        tracer = Tracer()
        variant = solve_model(assignment_model(shift=1), options, tracer)
        assert outcome(tracer) == "none"
        assert variant.status == "optimal"
        assert variant.objective == storeless.objective
        assert (variant.values == storeless.values).all()
        digest = digest_of(assignment_model(shift=1), "highs", options.gap)
        assert HintStore(options.hint_dir).load_optimum(digest) is not None
        tracer = Tracer()
        again = solve_model(assignment_model(shift=1), options, tracer)
        assert outcome(tracer) == "reused"
        assert (again.values == storeless.values).all()

    def test_no_reuse_after_a_non_optimal_solve(self, tmp_path):
        # Two nodes find the optimum's point but not its proof.
        options = dataclasses.replace(hinted(tmp_path, "bnb"), node_limit=2)
        starved = solve_model(triangle_cover_model(), options)
        assert starved.status == "timeout" and starved.usable
        digest = digest_of(triangle_cover_model(), "bnb", options.gap)
        assert HintStore(options.hint_dir).load_optimum(digest) is None
        tracer = Tracer()
        full = dataclasses.replace(options, node_limit=200_000)
        assert solve_model(triangle_cover_model(), full, tracer).status == "optimal"
        assert outcome(tracer) == "none"
        assert HintStore(options.hint_dir).load_optimum(digest) is not None

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
            digest_of(assignment_model(), "highs", options.gap)
        )
        doc = tamper(json.loads(path.read_text()))
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        tracer = Tracer()
        again = solve_model(assignment_model(), options, tracer)
        assert outcome(tracer) == "none"
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
        # Another gap is another solve: the variant finds no optimum of
        # its own and solves cold, so its code is the in-process code.
        variant = hinted_compile(tmp_path)
        variant.alloc.solve.gap = 1e-3
        tracer = Tracer()
        again = compile_nova(SOURCE, options=variant, tracer=tracer)
        assert outcome(tracer) == "none"
        local = CompileOptions()
        local.alloc.solve.gap = 1e-3
        assert (
            again.physical.pretty()
            == compile_nova(SOURCE, options=local).physical.pretty()
        )
        assert again.alloc.moves == comp.alloc.moves

    def test_fallback_bnb_retry_is_warm(self, tmp_path):
        # Zero budgets on a model the store has not solved: another
        # A-bank bias changes the objective, so every lookup finds
        # nothing and every stage solves cold.  Three lookups: the
        # spill-free solve (highs stops without an incumbent), then the
        # full model's chain, highs and the bnb retry, which stops too,
        # so the baseline allocator answers, as it does without a store.
        def starved(options):
            options.alloc.model.a_bank_bias = 1.02
            options.alloc.solve.time_limit = 0.0
            options.alloc.fallback_time_limit = 0.0
            return options

        compile_nova(SOURCE, options=hinted_compile(tmp_path))
        tracer = Tracer()
        comp = compile_nova(
            SOURCE, options=starved(hinted_compile(tmp_path)), tracer=tracer
        )
        assert comp.alloc.fallback == "baseline"
        assert comp.alloc.status == "baseline"
        stages = [s.counters["stage"] for s in tracer.spans if s.name == "fallback"]
        assert stages == ["bnb", "baseline"]
        lookups = [s for s in tracer.spans if s.name == "portfolio.warm_start"]
        assert [s.counters["outcome"] for s in lookups] == ["none"] * 3
        solves = [s for s in tracer.spans if s.name == "solve"]
        assert [s.counters["engine"] for s in solves] == ["highs"] * 2 + ["bnb"]
        assert solves[0].counters["cols"] < solves[1].counters["cols"]
        assert solves[1].counters["cols"] == solves[2].counters["cols"]
        local = compile_nova(SOURCE, options=starved(CompileOptions()))
        assert local.alloc.fallback == "baseline"
        assert comp.physical.pretty() == local.physical.pretty()

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
        # A comment changes the source but not the model: its proven
        # optimum answers by content.
        compile_nova(SOURCE, options=hinted_compile(tmp_path))
        edited_source = SOURCE + "// a comment\n"
        edited = hinted_compile(tmp_path)
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
