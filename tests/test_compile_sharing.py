"""Compilation sharing must be invisible: one front end, many back ends.

The fuzz oracle compiles every program under six option points.  PR 4
splits the pipeline so the option-independent prefix (parse → typecheck
→ CPS → deproc) runs once (`parse_front`), allocator-only option points
re-run just the allocator over a shared virtual flowgraph
(`allocate_compilation`), and solver-engine configs share one built
`AllocModel` (the spill-free model the default allocation builds
first).  Every shared artifact must be *identical* to what a
from-scratch `compile_nova` produces — these tests pin that down at the
listing level, where any drift in gensym numbering, optimization, or
allocation shows up textually.
"""

import dataclasses

from repro.alloc.allocator import allocate
from repro.cache import CompileCache, frontend_fingerprint
from repro.compiler import (
    CompileOptions,
    allocate_compilation,
    compile_from_front,
    compile_nova,
    parse_front,
)
from repro.fuzz.gen import GenConfig, generate
from repro.fuzz.oracle import check_generated, default_configs
from repro.ilp.model import LinExpr, Model
from repro.ilp.options import SolveOptions
from repro.ilp.solve import standard_form

SOURCE = """
fun main (x, y) {
  let s = x + y;
  let t = s ^ (x << 2);
  if (t > y) t - y else t + 1
}
"""


def _virtual(**overrides) -> CompileOptions:
    options = CompileOptions(**overrides)
    options.run_allocator = False
    return options


def _listing(comp, physical=False) -> str:
    from repro.ixp.listing import render_listing

    return render_listing(comp.physical if physical else comp.flowgraph)


class TestFrontEndSharing:
    def test_shared_front_matches_fresh_compiles(self):
        front = parse_front(SOURCE)
        for options in (
            _virtual(),
            _virtual(optimizer_rounds=0),
            _virtual(run_ssu=False),
        ):
            shared = compile_from_front(front, options)
            fresh = compile_nova(SOURCE, options=options)
            assert _listing(shared) == _listing(fresh)

    def test_front_not_consumed_by_repeated_backends(self):
        front = parse_front(SOURCE)
        first = compile_from_front(front, _virtual())
        second = compile_from_front(front, _virtual())
        assert _listing(first) == _listing(second)

    def test_allocate_compilation_matches_full_compile(self):
        base = compile_nova(SOURCE, options=_virtual())
        options = CompileOptions()
        shared = allocate_compilation(base, options)
        fresh = compile_nova(SOURCE, options=options)
        assert _listing(shared, physical=True) == _listing(fresh, physical=True)

    def test_frontend_fingerprint_ignores_allocator_knobs(self):
        plain = CompileOptions()
        tweaked = CompileOptions()
        tweaked.run_allocator = False
        tweaked.alloc.solve = SolveOptions(engine="bnb", time_limit=0.0)
        assert frontend_fingerprint(plain) == frontend_fingerprint(tweaked)
        different = CompileOptions(optimizer_rounds=0)
        assert frontend_fingerprint(plain) != frontend_fingerprint(different)


class TestModelSharing:
    def test_prebuilt_model_gives_identical_allocation(self):
        base = compile_nova(SOURCE, options=_virtual())
        graph = base.flowgraph
        options = CompileOptions().alloc
        fresh = allocate(graph, options)
        shared = allocate(graph, options, prebuilt=fresh.model)
        assert fresh.moves == shared.moves
        assert fresh.spills == shared.spills
        assert fresh.status == shared.status
        from repro.ixp.listing import render_listing

        assert render_listing(fresh.physical) == render_listing(shared.physical)

    def test_oracle_shares_the_spill_free_model(self, monkeypatch):
        """alloc-highs and alloc-bnb build one spill-free model between
        them; alloc-oneshot builds its own full model."""
        import repro.alloc.allocator as allocator_mod

        built = []
        real = allocator_mod.build_model

        def counting(graph, options=None, tracer=None, allow_spill=True):
            built.append(allow_spill)
            return real(graph, options, tracer, allow_spill)

        monkeypatch.setattr(allocator_mod, "build_model", counting)
        program = generate(3, GenConfig())
        configs = default_configs(["alloc-highs", "alloc-bnb", "alloc-oneshot"])
        assert check_generated(program, configs=configs).ok
        assert built == [False, True]

    def test_standard_form_memoized_until_mutation(self):
        model = Model("memo")
        x = model.family("x")
        a, b = x[("a",)], x[("b",)]
        model.add(LinExpr({a: 1, b: 1}), "<=", 1)
        model.minimize({a: 1.0, b: 2.0})
        first = standard_form(model)
        assert standard_form(model) is first
        model.add(LinExpr({a: 1}), ">=", 0)
        second = standard_form(model)
        assert second is not first
        assert second[1].shape[0] == 2  # both constraints present

    def test_standard_form_invalidated_by_objective_rebind(self):
        # Code may rebind ``model.objective`` wholesale.
        model = Model("rebind")
        x = model.family("x")
        a = x[("a",)]
        model.add(LinExpr({a: 1}), "<=", 1)
        model.minimize({a: 3.0})
        first = standard_form(model)
        model.objective = {}
        model.minimize({a: 7.0})
        second = standard_form(model)
        assert second is not first
        assert second[0][a] == 7.0


class TestOracleCaching:
    def test_warm_cache_report_matches_cold(self, tmp_path):
        program = generate(3, GenConfig())
        cache = CompileCache(tmp_path / "cc")
        configs = default_configs(["no-opt", "alloc-highs", "alloc-baseline"])
        cold = check_generated(program, configs=configs, cache=cache)
        warm = check_generated(program, configs=configs, cache=cache)
        assert cold.cache_hits == 0 and cold.cache_misses > 0
        assert warm.cache_misses == 0
        assert warm.cache_hits == cold.cache_misses

        def strip(report):
            data = dataclasses.asdict(report)
            data.pop("cache_hits")
            data.pop("cache_misses")
            return data

        assert strip(cold) == strip(warm)

    def test_shared_path_matches_isolated_compiles(self, monkeypatch):
        """The whole report must match pre-PR one-compile-per-config."""
        import repro.fuzz.oracle as oracle_mod

        def isolated_compile(config, share, cache, tracer, report):
            return compile_nova(
                share.source, options=config.options, tracer=tracer
            )

        program = generate(5, GenConfig())
        shared = dataclasses.asdict(check_generated(program))
        monkeypatch.setattr(oracle_mod, "_compile_config", isolated_compile)
        isolated = dataclasses.asdict(check_generated(program))
        assert shared == isolated
