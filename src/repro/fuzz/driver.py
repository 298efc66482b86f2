"""Fuzz campaign driver — the engine behind ``novac fuzz``.

Fans seeds out over :func:`repro.batch.scatter` (each worker regenerates
its program from the seed, so only plain ints and option records cross
the process boundary), collects per-seed verdicts, then — in the driver
process — shrinks every divergent program with :mod:`repro.fuzz.shrink`
and writes a crash-artifact directory per finding.

Tracing mirrors :mod:`repro.batch`: each unit runs under its own
:class:`repro.trace.Tracer` (one ``fuzz.unit`` span wrapping a
``fuzz.config`` span per configuration) and the driver adopts the spans
under a job-level ``fuzz`` span, so ``novac fuzz --trace`` renders one
coherent table for the whole campaign.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.batch import scatter
from repro.cache import CompileCache
from repro.fuzz.gen import ALL_FEATURES, GenConfig, generate
from repro.fuzz.oracle import check_generated, default_configs
from repro.fuzz.shrink import shrink, write_artifact
from repro.trace import Tracer, emit_trace, ensure


@dataclass
class FuzzUnit:
    """Verdict for one seed."""

    seed: int
    ok: bool
    seconds: float
    divergences: list = field(default_factory=list)  # stringified
    skips: list = field(default_factory=list)
    invalid: str | None = None
    source: str | None = None  # kept only for failing units
    cache_hits: int = 0
    cache_misses: int = 0


@dataclass
class FuzzResult:
    units: list[FuzzUnit]
    seconds: float
    jobs: int
    artifacts: list = field(default_factory=list)

    @property
    def failed(self) -> list[FuzzUnit]:
        return [u for u in self.units if not u.ok]

    @property
    def invalid(self) -> list[FuzzUnit]:
        return [u for u in self.units if u.invalid is not None]

    def summary(self) -> dict:
        return {
            "programs": len(self.units),
            "ok": sum(1 for u in self.units if u.ok),
            "divergent": len(self.failed) - len(self.invalid),
            "invalid": len(self.invalid),
            "skipped_configs": sum(len(u.skips) for u in self.units),
            "cache_hits": sum(u.cache_hits for u in self.units),
            "cache_misses": sum(u.cache_misses for u in self.units),
            "jobs": self.jobs,
            "seconds": round(self.seconds, 3),
        }


def _fuzz_unit(
    seed: int,
    gen_config: GenConfig,
    config_names: list | None,
    max_cycles: int,
    trace: bool,
    cache_dir: str | None = None,
) -> tuple[FuzzUnit, list]:
    """One seed: generate, cross-check, report.  Runs in pool workers."""
    tracer = Tracer() if trace else None
    span_source = ensure(tracer)
    # CompileCache writes atomically, so pool workers can share one root.
    cache = CompileCache(cache_dir, tracer) if cache_dir else None
    start = time.perf_counter()
    with span_source.span("fuzz.unit", seed=seed) as sp:
        program = generate(seed, gen_config)
        try:
            report = check_generated(
                program,
                configs=default_configs(config_names),
                tracer=tracer,
                max_cycles=max_cycles,
                cache=cache,
            )
        except Exception as exc:  # an internal crash is a finding too
            unit = FuzzUnit(
                seed=seed,
                ok=False,
                seconds=time.perf_counter() - start,
                divergences=[f"internal error: {type(exc).__name__}: {exc}"],
                source=program.source,
            )
            if sp:
                sp.add(outcome="internal-error")
            return unit, list(span_source.spans) if tracer else []
        unit = FuzzUnit(
            seed=seed,
            ok=report.ok,
            seconds=time.perf_counter() - start,
            divergences=[str(d) for d in report.divergences],
            skips=[f"{s.config}: {s.reason}" for s in report.skips],
            invalid=report.invalid,
            source=None if report.ok else program.source,
            cache_hits=report.cache_hits,
            cache_misses=report.cache_misses,
        )
        if sp:
            sp.add(outcome="ok" if report.ok else "divergent")
    return unit, list(span_source.spans) if tracer else []


def _shrink_finding(
    unit: FuzzUnit,
    gen_config: GenConfig,
    config_names: list | None,
    max_cycles: int,
    artifact_dir: str,
    shrink_budget: int,
    cache: CompileCache | None = None,
):
    """Minimize one divergent program and persist the crash artifact."""
    program = generate(unit.seed, gen_config)
    configs = default_configs(config_names)
    report = check_generated(
        program, configs=configs, max_cycles=max_cycles, cache=cache
    )

    # Re-checking only the configs that diverged makes each predicate
    # call several times cheaper; any still-diverging subset is a valid
    # reproducer for triage.
    diverged = sorted({d.config for d in report.divergences if d.config != "ref"})
    pred_configs = default_configs(diverged) if diverged else configs

    def still_diverges(source: str) -> bool:
        candidate = check_generated(
            _with_source(program, source),
            configs=pred_configs,
            max_cycles=max_cycles,
            cache=cache,
        )
        return candidate.invalid is None and bool(candidate.divergences)
    minimized, stats = shrink(
        program.source, still_diverges, max_predicate_calls=shrink_budget
    )
    return write_artifact(
        f"{artifact_dir}/crash-seed{unit.seed}",
        program,
        report,
        minimized=minimized,
        stats=stats,
    )


def _with_source(program, source: str):
    from dataclasses import replace

    return replace(program, source=source)


def run_campaign(
    seed: int = 0,
    count: int = 100,
    jobs: int = 1,
    config_names: list | None = None,
    gen_config: GenConfig | None = None,
    artifact_dir: str = ".fuzz-artifacts",
    tracer=None,
    max_cycles: int = 5_000_000,
    shrink_budget: int = 400,
    shrink_findings: bool = True,
    cache_dir: str | None = None,
    pool=None,
) -> FuzzResult:
    """Fuzz ``count`` programs from ``seed`` upward; returns verdicts.

    Divergent seeds are re-run and minimized in the driver process (the
    campaign keeps going regardless), each producing a crash-artifact
    directory under ``artifact_dir``.  ``cache_dir`` enables a shared
    content-addressed compile cache across workers and campaigns, which
    makes re-running a campaign (or shrinking its findings) mostly
    cache hits.  ``pool`` reuses an existing executor across campaigns
    (see :func:`repro.batch.scatter`) instead of forking per call.
    """
    gen_config = gen_config or GenConfig()
    tracer = ensure(tracer)
    start = time.perf_counter()
    with tracer.span("fuzz", seed=seed, count=count, jobs=jobs) as sp:
        outcomes = scatter(
            _fuzz_unit,
            [
                (s, gen_config, config_names, max_cycles, tracer.enabled, cache_dir)
                for s in range(seed, seed + count)
            ],
            jobs,
            pool=pool,
        )
        units = []
        for unit, spans in outcomes:
            units.append(unit)
            tracer.adopt(spans, parent="fuzz")
        artifacts = []
        shrink_cache = (
            CompileCache(cache_dir, tracer) if cache_dir else None
        )
        for unit in units:
            if unit.ok or unit.invalid is not None:
                continue
            if not shrink_findings:
                continue
            with tracer.span("fuzz.shrink", seed=unit.seed):
                artifacts.append(
                    _shrink_finding(
                        unit,
                        gen_config,
                        config_names,
                        max_cycles,
                        artifact_dir,
                        shrink_budget,
                        cache=shrink_cache,
                    )
                )
        if sp:
            sp.add(
                ok=sum(1 for u in units if u.ok),
                divergent=sum(
                    1 for u in units if not u.ok and u.invalid is None
                ),
                invalid=sum(1 for u in units if u.invalid is not None),
            )
    return FuzzResult(
        units=units,
        seconds=time.perf_counter() - start,
        jobs=jobs,
        artifacts=artifacts,
    )


# -- CLI ---------------------------------------------------------------------


def fuzz_main(argv: list | None = None) -> int:
    """``novac fuzz`` — differential fuzzing subcommand.

    ``--net`` switches to the streaming-scenario fuzzer
    (:mod:`repro.fuzz.netgen`), which has its own option set.
    """
    import argparse
    import sys

    if argv is None:
        argv = sys.argv[1:]
    if "--net" in argv:
        from repro.fuzz.netgen import netfuzz_main

        return netfuzz_main([a for a in argv if a != "--net"])

    parser = argparse.ArgumentParser(
        prog="novac fuzz",
        description="differentially fuzz the Nova pipeline across "
        "optimizer / SSU / allocator configurations",
    )
    parser.add_argument("--seed", type=int, default=0, help="first seed")
    parser.add_argument(
        "--count", type=int, default=100, help="number of programs"
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N", help="parallel workers"
    )
    parser.add_argument(
        "--configs",
        metavar="A,B,...",
        help="comma-separated configuration subset (default: full matrix; "
        "'ref' is always included). Known: ref, no-opt, ssu-off, "
        "sim-compiled, alloc-highs, alloc-bnb, alloc-baseline",
    )
    parser.add_argument(
        "--artifact-dir",
        default=".fuzz-artifacts",
        help="directory for crash artifacts (default %(default)s)",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="content-addressed compile cache shared across workers "
        "and campaigns (default: no cache)",
    )
    parser.add_argument(
        "--max-stmts", type=int, default=7, help="program size knob"
    )
    parser.add_argument(
        "--features",
        metavar="F,G,...",
        help=f"feature subset; known: {', '.join(sorted(ALL_FEATURES))}",
    )
    parser.add_argument(
        "--no-shrink",
        action="store_true",
        help="skip minimization of findings (faster triage-later mode)",
    )
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--trace-json", metavar="FILE")
    args = parser.parse_args(argv)

    config_names = (
        [n.strip() for n in args.configs.split(",") if n.strip()]
        if args.configs
        else None
    )
    features = ALL_FEATURES
    if args.features:
        requested = {f.strip() for f in args.features.split(",") if f.strip()}
        unknown = requested - ALL_FEATURES
        if unknown:
            print(f"novac fuzz: unknown features {sorted(unknown)}", file=sys.stderr)
            return 2
        features = frozenset(requested)
    gen_config = GenConfig(max_stmts=args.max_stmts, features=features)
    tracer = Tracer() if (args.trace or args.trace_json) else None

    try:
        result = run_campaign(
            seed=args.seed,
            count=args.count,
            jobs=args.jobs,
            config_names=config_names,
            gen_config=gen_config,
            artifact_dir=args.artifact_dir,
            tracer=tracer,
            shrink_findings=not args.no_shrink,
            cache_dir=args.cache_dir,
        )
    except ValueError as exc:  # unknown config name
        print(f"novac fuzz: {exc}", file=sys.stderr)
        return 2

    for unit in result.units:
        if unit.invalid is not None:
            print(f"seed {unit.seed}: INVALID ({unit.invalid})")
        elif not unit.ok:
            print(f"seed {unit.seed}: DIVERGENT")
            for divergence in unit.divergences:
                print(f"  {divergence}")
    for artifact in result.artifacts:
        print(f"crash artifact: {artifact.directory}")
    summary = result.summary()
    cache_note = (
        f", cache {summary['cache_hits']} hits / "
        f"{summary['cache_misses']} misses"
        if args.cache_dir
        else ""
    )
    print(
        f"fuzz: {summary['ok']}/{summary['programs']} ok, "
        f"{summary['divergent']} divergent, {summary['invalid']} invalid, "
        f"{summary['skipped_configs']} config skips in "
        f"{summary['seconds']:.1f}s (jobs={summary['jobs']}{cache_note})"
    )
    code = 1 if (result.failed or result.invalid) else 0
    return emit_trace(tracer, "novac fuzz", args.trace, args.trace_json) or code
