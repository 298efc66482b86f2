"""Cross-configuration differential oracle.

One generated program is compiled under a matrix of pipeline
configurations and executed on the :mod:`repro.ixp.machine` simulator
for every input vector.  The first configuration (``ref`` — optimizer
and SSU on, no allocator, virtual registers) defines the expected
behaviour; every other configuration must produce bit-identical halt
values and memory images, or the program is a *divergence* — evidence of
a miscompile somewhere between the two configuration points.

Allocator configurations additionally replay the paper's constraint
families against the extracted ILP solution
(:func:`repro.alloc.verify.check_solution`) so a solver answer that
happens to simulate correctly but violates a datapath rule still fails.

Legal asymmetries are *skips*, not divergences:

- ``ssu-off`` only runs virtually (the paper's Sections 9-10 ablation:
  without SSU some programs have no feasible coloring);
- the forced-baseline configuration may spill on register-heavy
  programs, which the heuristic allocator reports by raising — the
  config is skipped rather than failed.

Compilation sharing
-------------------

Compile time, not simulation, dominates a campaign (the four allocator
configs each solve an ILP), so the oracle reuses every option-independent
stage across the matrix instead of calling ``compile_nova`` per config:

- the front end (parse → typecheck → CPS → deproc) runs once per program
  (:func:`repro.compiler.parse_front`);
- configs that differ only in allocator knobs re-run just the allocator
  over the reference's virtual flowgraph
  (:func:`repro.compiler.allocate_compilation`);
- solver-engine configs with identical model options share the
  :class:`~repro.alloc.ilpmodel.AllocModel` the allocator builds first
  (the spill-free model on the default path, so ``alloc-highs``,
  ``alloc-bnb`` and ``alloc-baseline`` build it once) and, via the
  memoized :func:`repro.ilp.solve.standard_form`, one sparse-matrix
  conversion;
- an optional :class:`repro.cache.CompileCache` short-circuits repeat
  compiles entirely (shrinking re-checks the same base program many
  times).  Cached artifacts are slim — ``alloc.model`` is dropped — so
  the ILP constraint replay silently skips on hits; a divergence found
  through the cache always reproduces without it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.alloc.decode import SPILL_BASE, place_inputs
from repro.alloc.verify import check_solution
from repro.cache import CompileCache, frontend_fingerprint, options_fingerprint
from repro.compiler import (
    Compilation,
    CompileOptions,
    FrontEnd,
    allocate_compilation,
    compile_from_front,
    parse_front,
)
from repro.errors import AllocError, NovaError, SimulatorError
from repro.ilp.options import SolveOptions
from repro.ixp.machine import Machine
from repro.ixp.memory import MemorySystem
from repro.trace import ensure

#: scratch window reserved for spill slots / spilled inputs; excluded
#: from memory comparison on physical runs (see repro.alloc.decode).
SPILL_WINDOW = (SPILL_BASE, 64)

#: cycle budget per simulated vector — generated programs are tiny, so
#: anything past this is a runaway loop (itself a finding).
MAX_CYCLES = 5_000_000


@dataclass(frozen=True)
class FuzzConfig:
    """One point in the configuration matrix."""

    name: str
    options: CompileOptions
    #: run the allocated (physical-register) flowgraph
    physical: bool = False
    #: simulator tier the vectors execute under.  The matrix runs on the
    #: interpreter; only ``sim-compiled`` runs generated code, so the
    #: tier under test is always checked against the interpreter and
    #: never against itself.
    sim_mode: str = "interp"


def _virtual_options(**overrides) -> CompileOptions:
    options = CompileOptions(**overrides)
    options.run_allocator = False
    return options


def default_configs(names: list[str] | None = None) -> list[FuzzConfig]:
    """The full matrix; ``names`` selects a subset (ref is always kept).

    ``alloc-highs`` and ``alloc-bnb`` take the default allocation path
    (the spill-free model first); ``alloc-oneshot`` keeps the paper's
    full model under the oracle.  ``alloc-baseline`` forces the
    heuristic graph-coloring allocator by giving the exact solver a zero
    time budget, which walks the fallback chain to its last stage.
    """
    highs = CompileOptions()
    highs.alloc.solve = SolveOptions(engine="highs", time_limit=60.0)
    oneshot = CompileOptions()
    oneshot.alloc.solve = SolveOptions(engine="highs", time_limit=60.0)
    oneshot.alloc.two_phase = False
    bnb = CompileOptions()
    bnb.alloc.solve = SolveOptions(engine="bnb", time_limit=60.0)
    baseline = CompileOptions()
    baseline.alloc.solve = SolveOptions(engine="bnb", time_limit=0.0)

    matrix = [
        FuzzConfig("ref", _virtual_options()),
        FuzzConfig("no-opt", _virtual_options(optimizer_rounds=0)),
        FuzzConfig("ssu-off", _virtual_options(run_ssu=False)),
        # Same compile as ref, executed on the codegen tier: any
        # difference is a miscompiled *simulator*, not program.
        FuzzConfig("sim-compiled", _virtual_options(), sim_mode="compiled"),
        FuzzConfig("alloc-highs", highs, physical=True),
        FuzzConfig("alloc-oneshot", oneshot, physical=True),
        FuzzConfig("alloc-bnb", bnb, physical=True),
        FuzzConfig("alloc-baseline", baseline, physical=True),
    ]
    if names is None:
        return matrix
    unknown = set(names) - {c.name for c in matrix}
    if unknown:
        raise ValueError(f"unknown fuzz config(s): {sorted(unknown)}")
    return [c for c in matrix if c.name == "ref" or c.name in names]


@dataclass
class Divergence:
    """One observed behaviour difference against the reference config."""

    config: str
    kind: str  # 'results' | 'memory' | 'sim-error' | 'compile-error' | 'verify'
    vector: int | None = None
    detail: str = ""
    expected: object = None
    actual: object = None

    def __str__(self) -> str:
        where = f" vector {self.vector}" if self.vector is not None else ""
        body = self.detail
        if self.kind in ("results", "memory"):
            body = f"{self.detail} expected={self.expected} actual={self.actual}"
        return f"[{self.config}]{where} {self.kind}: {body}"


@dataclass
class Skip:
    config: str
    reason: str


@dataclass
class Outcome:
    """What one config produced for one input vector."""

    results: list | None = None
    memory: dict | None = None  # space -> {addr: nonzero word}
    error: str | None = None


@dataclass
class OracleReport:
    seed: int | None
    configs_run: list[str] = field(default_factory=list)
    divergences: list[Divergence] = field(default_factory=list)
    skips: list[Skip] = field(default_factory=list)
    #: reference halt values per vector (None if the program is invalid)
    reference: list | None = None
    #: the reference config itself failed: the *program* is bad, not the
    #: compiler — the generator should never produce these.
    invalid: str | None = None
    #: compile-cache outcomes across the matrix (zero when no cache)
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def ok(self) -> bool:
        return self.invalid is None and not self.divergences


@dataclass
class _CompileShare:
    """Per-program state reused across the configuration matrix."""

    source: str
    filename: str = "<fuzz>"
    #: lazily parsed option-independent pipeline prefix
    front: FrontEnd | None = None
    #: compilations usable as allocator bases, by front-end fingerprint
    bases: dict[str, Compilation] = field(default_factory=dict)
    #: built AllocModels, by (front-end fp, model-options fp, spilling)
    models: dict[tuple[str, str, bool], object] = field(default_factory=dict)


def _model_share_key(
    front_fp: str, model_options, allow_spill: bool
) -> tuple[str, str, bool]:
    """Key of a built AllocModel: the front end, its model options and
    whether it lets temps spill to M."""
    return (front_fp, options_fingerprint(model_options), allow_spill)


def _compile_shared(
    config: FuzzConfig, share: _CompileShare, tracer
) -> Compilation:
    """Compile one config, reusing front end / flowgraph / AllocModel.

    A config reuses a model built with the options its allocation
    builds first (the spill-free model on the default path).
    Rematerialization transforms the graph before modeling, so it can
    neither reuse nor donate a model.
    """
    options = config.options
    fp = frontend_fingerprint(options)
    shares_models = (
        options.run_allocator and not options.alloc.model.remat_constants
    )
    base = share.bases.get(fp)
    if options.run_allocator and base is not None:
        prebuilt = None
        if shares_models:
            # a two-phase allocation builds the spill-free model first
            key = _model_share_key(
                fp, options.alloc.model, not options.alloc.two_phase
            )
            prebuilt = share.models.get(key)
        comp = allocate_compilation(base, options, tracer, prebuilt=prebuilt)
    else:
        if share.front is None:
            share.front = parse_front(share.source, share.filename, tracer)
        comp = compile_from_front(share.front, options, tracer)
        share.bases.setdefault(fp, comp)
    if shares_models and comp.alloc is not None and comp.alloc.model is not None:
        model = comp.alloc.model
        share.models.setdefault(
            _model_share_key(fp, model.options, model.allow_spill), model
        )
    return comp


def _compile_config(
    config: FuzzConfig,
    share: _CompileShare,
    cache: CompileCache | None,
    tracer,
    report: OracleReport,
) -> Compilation:
    """Cache lookup, then the shared compile path; stores on miss."""
    if cache is not None:
        cached = cache.get(share.source, config.options)
        if cached is not None:
            report.cache_hits += 1
            # A cached artifact still carries the virtual flowgraph, so
            # it can seed allocator-only recompiles for later configs.
            share.bases.setdefault(frontend_fingerprint(config.options), cached)
            return cached
        report.cache_misses += 1
    comp = _compile_shared(config, share, tracer)
    if cache is not None:
        cache.put(share.source, config.options, comp)
    return comp


def _snapshot_memory(memory: MemorySystem, physical: bool) -> dict:
    """Nonzero words per space, minus the physical spill window."""
    out: dict[str, dict[int, int]] = {}
    lo, hi = SPILL_WINDOW[0], SPILL_WINDOW[0] + SPILL_WINDOW[1]
    for space in ("sram", "sdram", "scratch"):
        words = {a: w for a, w in memory[space].words.items() if w != 0}
        if physical and space == "scratch":
            words = {a: w for a, w in words.items() if not lo <= a < hi}
        out[space] = words
    return out


def _run_vector(
    comp: Compilation,
    config: FuzzConfig,
    vector: dict,
    memory_image: dict | None,
    max_cycles: int,
) -> Outcome:
    """Compile artifact + one input vector -> halt values and memory."""
    raw = comp.make_inputs(**vector)
    memory = MemorySystem.create()
    memory.load_image(memory_image or {})
    if config.physical:
        graph = comp.physical
        inputs = place_inputs(comp.alloc.decoded.input_locations, raw, memory)
    else:
        graph, inputs = comp.flowgraph, raw
    machine = Machine(
        graph,
        memory=memory,
        threads=1,
        physical=config.physical,
        input_provider=lambda tid, it: dict(inputs) if it == 0 else None,
        max_cycles=max_cycles,
        mode=config.sim_mode,
    )
    try:
        run = machine.run()
    except SimulatorError as exc:
        return Outcome(error=str(exc))
    return Outcome(
        results=[values for _, values in run.results],
        memory=_snapshot_memory(memory, config.physical),
    )


def _is_legal_skip(config: FuzzConfig, exc: NovaError) -> str | None:
    """Compile failures that are documented behaviour, not miscompiles."""
    if not isinstance(exc, AllocError):
        return None
    text = str(exc)
    if config.name == "alloc-baseline" and "spilled" in text:
        return "baseline allocator spilled"
    return None


def check_program(
    source: str,
    vectors,
    memory_image: dict | None = None,
    configs: list[FuzzConfig] | None = None,
    tracer=None,
    seed: int | None = None,
    max_cycles: int = MAX_CYCLES,
    cache: CompileCache | None = None,
) -> OracleReport:
    """Differentially test one program across the config matrix.

    ``vectors`` is a sequence of ``{param: word}`` input dicts.  Returns
    an :class:`OracleReport`; ``report.ok`` means every configuration
    agreed with the reference on every vector (modulo legal skips).
    ``cache`` optionally short-circuits per-config compiles with a
    content-addressed :class:`repro.cache.CompileCache`.
    """
    configs = configs or default_configs()
    tracer = ensure(tracer)
    report = OracleReport(seed=seed)
    share = _CompileShare(source=source)

    reference: list[Outcome] = []
    ref_config = configs[0]
    with tracer.span("fuzz.config", config=ref_config.name):
        try:
            ref_comp = _compile_config(ref_config, share, cache, tracer, report)
        except NovaError as exc:
            report.invalid = f"reference compile failed: {exc}"
            return report
        for vector in vectors:
            outcome = _run_vector(
                ref_comp, ref_config, vector, memory_image, max_cycles
            )
            if outcome.error is not None:
                report.invalid = f"reference run failed: {outcome.error}"
                return report
            reference.append(outcome)
    report.configs_run.append(ref_config.name)
    report.reference = [o.results for o in reference]

    for config in configs[1:]:
        with tracer.span("fuzz.config", config=config.name) as sp:
            try:
                comp = _compile_config(config, share, cache, tracer, report)
            except NovaError as exc:
                reason = _is_legal_skip(config, exc)
                if reason is not None:
                    report.skips.append(Skip(config.name, reason))
                    if sp:
                        sp.add(outcome=f"skip:{reason}")
                    continue
                report.divergences.append(
                    Divergence(
                        config.name,
                        "compile-error",
                        detail=f"{type(exc).__name__}: {exc}",
                    )
                )
                if sp:
                    sp.add(outcome="compile-error")
                continue
            report.configs_run.append(config.name)
            divergences_before = len(report.divergences)
            if config.physical and comp.alloc is not None:
                _verify_allocation(comp, config, report)
            for index, vector in enumerate(vectors):
                outcome = _run_vector(
                    comp, config, vector, memory_image, max_cycles
                )
                _compare(report, config, index, reference[index], outcome)
            if sp:
                new = len(report.divergences) - divergences_before
                sp.add(outcome="ok" if new == 0 else f"divergences:{new}")
    return report


def _verify_allocation(
    comp: Compilation, config: FuzzConfig, report: OracleReport
) -> None:
    """Replay the ILP constraint families against the solution."""
    alloc = comp.alloc
    if alloc.model is None or alloc.alloc is None:
        return  # baseline fallback: no ILP solution to replay
    solution_report = check_solution(alloc.model, alloc.alloc)
    if not solution_report.ok:
        report.divergences.append(
            Divergence(
                config.name,
                "verify",
                detail="; ".join(solution_report.violations[:5]),
            )
        )


def _compare(
    report: OracleReport,
    config: FuzzConfig,
    vector_index: int,
    expected: Outcome,
    actual: Outcome,
) -> None:
    if actual.error is not None:
        report.divergences.append(
            Divergence(
                config.name, "sim-error", vector=vector_index, detail=actual.error
            )
        )
        return
    if actual.results != expected.results:
        report.divergences.append(
            Divergence(
                config.name,
                "results",
                vector=vector_index,
                detail="halt values differ",
                expected=expected.results,
                actual=actual.results,
            )
        )
        return
    for space in ("sram", "sdram", "scratch"):
        if actual.memory[space] != expected.memory[space]:
            report.divergences.append(
                Divergence(
                    config.name,
                    "memory",
                    vector=vector_index,
                    detail=f"{space} contents differ",
                    expected=expected.memory[space],
                    actual=actual.memory[space],
                )
            )
            return


def check_generated(
    program, configs=None, tracer=None, max_cycles=MAX_CYCLES, cache=None
):
    """:func:`check_program` over a :class:`repro.fuzz.gen.GenProgram`."""
    return check_program(
        program.source,
        program.vectors,
        memory_image=program.memory_image,
        configs=configs,
        tracer=tracer,
        seed=program.seed,
        max_cycles=max_cycles,
        cache=cache,
    )
