"""End-to-end Nova compiler driver.

Pipeline (paper Section 4):

    parse → typecheck → CPS convert → de-proceduralize (full inlining)
    → CPS optimize → static single use → instruction selection
    → ILP bank assignment + coloring + spills → decode to physical code

Each phase's artifact is kept on the :class:`Compilation` object so tests
and benchmarks can inspect intermediate state, and :func:`compile_nova`
wraps the common path.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.nova import ast
from repro.nova.parser import parse_program
from repro.nova.typecheck import TypedProgram, typecheck_program
from repro.cps import ir
from repro.cps.convert import CpsProgram, cps_convert
from repro.cps.deproc import FirstOrderProgram, deproceduralize
from repro.cps.optimize import OptimizeResult, optimize
from repro.cps.ssu import SsuStats, check_ssu, to_ssu
from repro.ixp.flowgraph import FlowGraph
from repro.ixp.select import select_instructions
from repro.alloc.allocator import AllocOptions, AllocResult, allocate
from repro.trace import Tracer, ensure


@dataclass
class CompileOptions:
    """Knobs for the end-to-end pipeline."""

    alloc: AllocOptions = field(default_factory=AllocOptions)
    #: Stop after instruction selection (no ILP); the virtual flowgraph
    #: still runs on the simulator and is the semantic reference.
    run_allocator: bool = True
    #: Disable the static-single-use transform (ablation only: programs
    #: with conflicting aggregate positions then have no feasible
    #: coloring, paper Sections 9-10).
    run_ssu: bool = True
    optimizer_rounds: int = 12


@dataclass
class SourceStats:
    """Static program statistics (paper Figure 5)."""

    line_count: int
    layouts: int
    packs: int
    unpacks: int
    raises: int
    handles: int

    @staticmethod
    def of(source: str, program: ast.Program) -> "SourceStats":
        counts = {"pack": 0, "unpack": 0, "raise": 0, "handle": 0}

        def walk(node: object) -> None:
            if isinstance(node, ast.PackExpr):
                counts["pack"] += 1
            elif isinstance(node, ast.UnpackExpr):
                counts["unpack"] += 1
            elif isinstance(node, ast.RaiseExpr):
                counts["raise"] += 1
            elif isinstance(node, ast.TryExpr):
                counts["handle"] += len(node.handlers)
            for name in vars(node) if hasattr(node, "__dict__") else ():
                child = getattr(node, name)
                items = child if isinstance(child, list) else [child]
                for item in items:
                    if isinstance(item, tuple):
                        for part in item:
                            if isinstance(part, (ast.Expr, ast.Handler)):
                                walk(part)
                    elif isinstance(item, ast.FunStmt):
                        walk(item.decl.body)
                    elif isinstance(
                        item,
                        (
                            ast.Expr,
                            ast.Handler,
                            ast.LetStmt,
                            ast.AssignStmt,
                            ast.ExprStmt,
                        ),
                    ):
                        walk(item)

        for fun in program.funs:
            walk(fun.body)
        return SourceStats(
            line_count=len(source.splitlines()),
            layouts=len(program.layouts),
            packs=counts["pack"],
            unpacks=counts["unpack"],
            raises=counts["raise"],
            handles=counts["handle"],
        )


@dataclass
class Compilation:
    """All artifacts of one compiler run."""

    source: str
    program: ast.Program
    typed: TypedProgram
    cps: CpsProgram
    first_order: FirstOrderProgram
    opt_result: OptimizeResult
    ssu: FirstOrderProgram
    ssu_stats: SsuStats
    flowgraph: FlowGraph
    alloc: AllocResult | None
    source_stats: SourceStats
    #: the tracer the compile recorded spans on, when one was supplied
    #: (``None`` for untraced compiles; see :mod:`repro.trace`).
    trace: Tracer | None = None

    @property
    def physical(self) -> FlowGraph:
        assert self.alloc is not None, "allocator was not run"
        return self.alloc.physical

    def inputs_by_name(self) -> dict[str, list[str]]:
        """Entry-function source parameter names → flattened input temps."""
        return self.cps.param_names[self.cps.entry]

    def without_trace(self) -> "Compilation":
        """A copy safe to pickle across processes or into the cache.

        The tracer belongs to the compiling process (its spans are
        merged into the driver's tracer separately); a cached or
        pool-returned artifact carries everything else.
        """
        if self.trace is None:
            return self
        return replace(self, trace=None)

    def slim(self) -> "Compilation":
        """The artifact form: no tracer, no raw ILP model.

        The :class:`repro.alloc.ilpmodel.AllocModel` dwarfs everything
        else in the pickle (11 MB vs 0.3 MB for AES) and its summary
        numbers already live on :class:`AllocResult` as plain ints, so
        cache entries and pool-returned results drop it; recompile
        without the cache to inspect the model itself.
        """
        stripped = self.without_trace()
        if stripped.alloc is None or stripped.alloc.model is None:
            return stripped
        return replace(stripped, alloc=replace(stripped.alloc, model=None))

    def make_inputs(self, **values: int | list[int]) -> dict[str, int]:
        """Build a virtual-machine input dict from source parameter names.

        A multi-word parameter (tuple/record) takes a list of words.
        """
        mapping = self.inputs_by_name()
        out: dict[str, int] = {}
        for name, value in values.items():
            temps = mapping[name]
            words = value if isinstance(value, list) else [value]
            if len(words) != len(temps):
                raise ValueError(
                    f"parameter '{name}' has {len(temps)} words, got "
                    f"{len(words)}"
                )
            for temp, word in zip(temps, words):
                out[temp] = word
        return out


@dataclass
class FrontEnd:
    """The option-independent prefix of the pipeline.

    parse → typecheck → CPS convert → de-proceduralize depend on the
    source alone, not on :class:`CompileOptions`, so one ``FrontEnd``
    can feed several back-end runs (the fuzz oracle compiles every seed
    under six option points).  The CPS IR is functional and the gensym
    is cloned per back-end run, so sharing is observationally identical
    to compiling from scratch.
    """

    source: str
    filename: str
    program: ast.Program
    typed: TypedProgram
    cps: CpsProgram
    first_order: FirstOrderProgram
    source_stats: SourceStats


def parse_front(
    source: str, filename: str = "<nova>", tracer: Tracer | None = None
) -> FrontEnd:
    """Run the option-independent front half of the pipeline."""
    tracer = ensure(tracer)
    with tracer.span("parse") as sp:
        program = parse_program(source, filename)
    source_stats = SourceStats.of(source, program)
    if sp:
        sp.add(
            lines=source_stats.line_count,
            layouts=source_stats.layouts,
            packs=source_stats.packs,
            unpacks=source_stats.unpacks,
            raises=source_stats.raises,
            handles=source_stats.handles,
        )
    with tracer.span("typecheck") as sp:
        typed = typecheck_program(program)
    if sp:
        sp.add(funs=len(program.funs), layouts=len(program.layouts))
    with tracer.span("cps") as sp:
        cps = cps_convert(typed)
    if sp:
        sp.add(
            funs=len(cps.funs),
            term_nodes=sum(ir.term_size(f.body) for f in cps.funs.values()),
        )
    with tracer.span("deproc") as sp:
        first_order = deproceduralize(cps)
    if sp:
        sp.add(term_nodes=ir.term_size(first_order.term))
    return FrontEnd(
        source=source,
        filename=filename,
        program=program,
        typed=typed,
        cps=cps,
        first_order=first_order,
        source_stats=source_stats,
    )


def compile_from_front(
    front: FrontEnd,
    options: CompileOptions | None = None,
    tracer: Tracer | None = None,
) -> Compilation:
    """Run the option-dependent back half over a parsed front end.

    ``front`` is not consumed: the shared IR is never mutated and fresh
    names come from a cloned gensym, so repeated calls with different
    options each behave like a full :func:`compile_nova`.
    """
    options = options or CompileOptions()
    tracer = ensure(tracer)
    first_order = FirstOrderProgram(
        front.first_order.params,
        front.first_order.term,
        front.first_order.gensym.clone(),
    )
    with tracer.span("optimize") as sp:
        opt = optimize(first_order.term, options.optimizer_rounds)
    if sp:
        sp.add(
            rounds=opt.stats.rounds,
            simplifications=opt.stats.total(),
            term_nodes=ir.term_size(opt.term),
        )
    optimized = FirstOrderProgram(
        first_order.params, opt.term, first_order.gensym
    )
    if options.run_ssu:
        with tracer.span("ssu") as sp:
            ssu, ssu_stats = to_ssu(optimized)
        assert check_ssu(ssu.term), "SSU transform failed its own invariant"
        if sp:
            sp.add(
                clones_inserted=ssu_stats.clones_inserted,
                writes_rewritten=ssu_stats.writes_rewritten,
                term_nodes=ir.term_size(ssu.term),
            )
    else:
        ssu, ssu_stats = optimized, SsuStats()
    with tracer.span("select") as sp:
        graph = select_instructions(ssu)
    if sp:
        sp.add(
            instructions=graph.num_instructions(),
            blocks=len(graph.blocks),
            temps=len(graph.temps()),
        )
    alloc = None
    if options.run_allocator:
        with tracer.span("allocate") as sp:
            alloc = allocate(graph, options.alloc, tracer)
        if sp:
            _add_alloc_counters(sp, alloc)
    return Compilation(
        source=front.source,
        program=front.program,
        typed=front.typed,
        cps=front.cps,
        first_order=first_order,
        opt_result=opt,
        ssu=ssu,
        ssu_stats=ssu_stats,
        flowgraph=graph,
        alloc=alloc,
        source_stats=front.source_stats,
        trace=tracer if tracer.enabled else None,
    )


def _add_alloc_counters(sp, alloc: AllocResult) -> None:
    sp.add(
        variables=alloc.variables,
        constraints=alloc.constraints,
        objective_terms=alloc.objective_terms,
        root_relaxation_seconds=alloc.root_seconds,
        integer_seconds=alloc.integer_seconds,
        moves=alloc.moves,
        spills=alloc.spills,
        status=alloc.status,
    )


def allocate_compilation(
    comp: Compilation,
    options: CompileOptions,
    tracer: Tracer | None = None,
    prebuilt=None,
) -> Compilation:
    """Re-run only the allocator over an existing virtual compilation.

    For option points that differ solely in :class:`AllocOptions` (the
    fuzz oracle's three allocator configs share one front end and one
    virtual flowgraph), this skips every phase up to and including
    instruction selection.  ``prebuilt`` optionally passes an already
    built :class:`repro.alloc.ilpmodel.AllocModel` for the same graph
    and model options through to :func:`repro.alloc.allocator.allocate`.
    """
    tracer = ensure(tracer)
    with tracer.span("allocate") as sp:
        alloc = allocate(comp.flowgraph, options.alloc, tracer, prebuilt=prebuilt)
    if sp:
        _add_alloc_counters(sp, alloc)
    return replace(
        comp, alloc=alloc, trace=tracer if tracer.enabled else None
    )


def compile_nova(
    source: str,
    filename: str = "<nova>",
    options: CompileOptions | None = None,
    tracer: Tracer | None = None,
) -> Compilation:
    """Compile Nova source text through the whole pipeline.

    When ``tracer`` is a live :class:`repro.trace.Tracer`, each phase
    records a span carrying its wall time and IR-size counters (plus the
    ILP model/solve sub-spans under ``allocate``); those spans are the
    compiler's only clock, so with the default null tracer nothing is
    timed.  The compiler's command-line front end is ``novac``
    (:mod:`repro.cli`, also the home of ``novac pump``).
    """
    front = parse_front(source, filename, tracer)
    return compile_from_front(front, options, tracer)
