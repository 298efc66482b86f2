"""Section 11: the two-phase objective variant.

"We have experimented with another objective function that lets us
determine whether spills are required at all, and if so, where.  Once
this has been determined many of the variables and constraints involving
memory can be eliminated, resulting in a much smaller linear program.
...(which gave solve times of 9 seconds for AES and 19.2 seconds for
NAT)" — versus 35.9 s and 155.6 s for the one-shot model.

The default allocation is that variant in one solve: it solves the model
without the M bank first and builds the full model only when that solve
yields nothing.  This benchmark compares it with the one-shot model
(``AllocOptions.two_phase = False``).  Reproduced claims: no application
needs a spill, so the spill-free model settles the allocation in one
solve; that model is substantially smaller than the one-shot model; and
the allocation has the same objective, moves and spills.  The table also
reports each model's root relaxation and integer solve time, and the
allocation's CPU seconds less the root-relaxation LP where only this
table asked for it.  A model whose transfer coloring left the ILP runs
that LP by default, and its integral vertex usually is the answer (root
and integer times equal), so its LP is part of the allocation's work.
"""

import time

import pytest

from benchmarks.conftest import APP_BUILDERS, print_table
from repro.compiler import CompileOptions, allocate_compilation, compile_nova
from repro.trace import Tracer

APPS = ("AES", "Kasumi", "NAT")


def _options(two_phase: bool, root_relaxation: bool = False) -> CompileOptions:
    options = CompileOptions()
    options.alloc.two_phase = two_phase
    options.alloc.solve.time_limit = 900
    options.alloc.solve.root_relaxation = root_relaxation
    return options


def _compile(name: str, two_phase: bool):
    app = APP_BUILDERS[name]()
    return compile_nova(app.source, options=_options(two_phase))


def _allocate(base, two_phase: bool):
    """Allocate ``base`` traced, measuring the root relaxation too.

    Returns the compilation and its allocation CPU seconds, less the
    root-relaxation LP when only this table asks for it: the model keeps
    its coloring in the ILP, so the default solve runs no LP.
    """
    tracer = Tracer()
    start = time.process_time()
    comp = allocate_compilation(base, _options(two_phase, True), tracer)
    seconds = time.process_time() - start
    root = 0.0
    if comp.alloc.model.fixed_colors is None:
        root = sum(
            s.counters["root_relaxation_seconds"] for s in tracer.all("solve")
        )
    return comp, seconds - root


def _row(variant) -> list:
    comp, seconds = variant
    solve = comp.trace.last("solve").counters
    return [
        comp.alloc.variables,
        round(solve["root_relaxation_seconds"], 2),
        round(solve["integer_seconds"], 2),
        round(seconds, 2),
    ]


@pytest.fixture(scope="module")
def both_variants():
    out = {}
    for name in APPS:
        virtual = _options(True)
        virtual.run_allocator = False
        base = compile_nova(APP_BUILDERS[name]().source, options=virtual)
        out[name] = (_allocate(base, False), _allocate(base, True))
    return out


def test_two_phase_table(both_variants):
    rows = [
        [name, *_row(one_shot), *_row(default)]
        for name, (one_shot, default) in both_variants.items()
    ]
    print_table(
        "Two-phase objective (paper: AES 35.9s -> 9s, NAT 155.6s -> 19.2s)",
        [
            "program",
            "one-shot vars",
            "root s",
            "int s",
            "alloc cpu s",
            "spill-free vars",
            "root s",
            "int s",
            "alloc cpu s",
        ],
        rows,
    )
    for name, ((one_shot, _), (default, _)) in both_variants.items():
        # No spill is needed, so one spill-free solve settles it, on a
        # substantially smaller model.
        assert len(default.trace.all("solve")) == 1
        assert default.alloc.variables < 0.8 * one_shot.alloc.variables
        # Solution quality is unchanged: another tie of the same optimum.
        objective = default.trace.last("solve").counters["objective"]
        reference = one_shot.trace.last("solve").counters["objective"]
        gap = CompileOptions().alloc.solve.gap
        assert abs(objective - reference) <= gap * max(1.0, abs(reference))
        assert default.alloc.moves == one_shot.alloc.moves
        assert default.alloc.spills == one_shot.alloc.spills == 0
        assert default.alloc.status == one_shot.alloc.status == "optimal"


def test_two_phase_speed_aes(benchmark):
    benchmark.pedantic(
        lambda: _compile("AES", True), rounds=1, iterations=1
    )


def test_one_shot_speed_aes(benchmark):
    benchmark.pedantic(
        lambda: _compile("AES", False), rounds=1, iterations=1
    )
