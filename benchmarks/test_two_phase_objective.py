"""Section 11: the two-phase objective variant.

"We have experimented with another objective function that lets us
determine whether spills are required at all, and if so, where.  Once
this has been determined many of the variables and constraints involving
memory can be eliminated, resulting in a much smaller linear program.
...(which gave solve times of 9 seconds for AES and 19.2 seconds for
NAT)" — versus 35.9 s and 155.6 s for the one-shot model.

Reproduced claims: phase 1 finds zero spills for the applications, the
phase-2 model (no M bank) is substantially smaller than the one-shot
model, and the final allocation has the same moves/spills quality.
"""

import pytest

from benchmarks.conftest import APP_BUILDERS, print_table
from repro.compiler import CompileOptions, compile_nova
from repro.trace import Tracer


def _compile(name: str, two_phase: bool, tracer=None):
    app = APP_BUILDERS[name]()
    options = CompileOptions()
    options.alloc.two_phase = two_phase
    options.alloc.solve.time_limit = 900
    return compile_nova(app.source, options=options, tracer=tracer)


def _phase1_seconds(comp) -> float:
    """Wall time of phase 1: the spans under ``allocate`` that precede
    the phase-2 ``model`` span, less the root relaxation HiGHS solves
    only because the compile is traced."""
    spans = [s for s in comp.trace.spans if s.parent == "allocate"]
    models = [i for i, s in enumerate(spans) if s.name == "model"]
    return sum(
        s.seconds - s.counters.get("root_relaxation_seconds", 0.0)
        for s in spans[: models[1]]
    )


@pytest.fixture(scope="module")
def both_variants():
    out = {}
    for name in ("AES", "NAT"):
        out[name] = (_compile(name, False), _compile(name, True, Tracer()))
    return out


def test_two_phase_table(both_variants):
    rows = []
    for name, (one_shot, two_phase) in both_variants.items():
        rows.append(
            [
                name,
                one_shot.alloc.variables,
                round(one_shot.alloc.integer_seconds, 2),
                two_phase.alloc.variables,
                round(two_phase.alloc.integer_seconds, 2),
                round(_phase1_seconds(two_phase), 2),
            ]
        )
    print_table(
        "Two-phase objective (paper: AES 35.9s -> 9s, NAT 155.6s -> 19.2s)",
        [
            "program",
            "one-shot vars",
            "one-shot int s",
            "phase-2 vars",
            "phase-2 int s",
            "phase-1 s",
        ],
        rows,
    )
    for name, (one_shot, two_phase) in both_variants.items():
        # Phase 1 found no spills, so phase 2 dropped the M bank: the
        # model must shrink substantially.
        assert two_phase.alloc.spills == 0
        assert two_phase.alloc.variables < 0.8 * one_shot.alloc.variables
        # Solution quality is unchanged.
        assert two_phase.alloc.spills == one_shot.alloc.spills
        assert two_phase.alloc.status == "optimal"


def test_two_phase_speed_aes(benchmark):
    benchmark.pedantic(
        lambda: _compile("AES", True), rounds=1, iterations=1
    )


def test_one_shot_speed_aes(benchmark):
    benchmark.pedantic(
        lambda: _compile("AES", False), rounds=1, iterations=1
    )
