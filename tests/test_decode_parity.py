"""Simulator-tier parity: interp = compiled.

The two tiers — the reference interpreter (``Machine(mode="interp")``)
and the codegen tier (``mode="compiled"``, the default) — must agree
*bit for bit*: same cycles, halt values, per-thread stats, final memory
images, raised error type and message, and (under tracing) per-opcode
histograms — on every program: the curated semantic cases, the fuzz
reproducers, and freshly generated fuzz programs.  The interpreter is
the oracle.
"""

import dataclasses

import pytest

from repro.alloc.decode import place_inputs
from repro.compiler import CompileOptions, compile_nova
from repro.errors import SimulatorError
from repro.fuzz.gen import GenConfig, generate
from repro.ixp import isa
from repro.ixp.banks import Bank
from repro.ixp.flowgraph import Block, FlowGraph
from repro.ixp.machine import Machine
from repro.trace import Tracer

from tests.helpers import compile_full, compile_virtual, make_memory
from tests.test_fifo_locks import critical_section_graph
from tests.programs import CASES
from tests.test_reproducers import CASES as REPRO_CASES, REPRODUCERS

#: cases whose physical compile is exercised here (full ILP solves are
#: the expensive part; virtual parity below covers every case)
PHYSICAL_CASES = [c.name for c in CASES[:8]]

#: both simulator tiers, the oracle first.
MODES = ("interp", "compiled")


def _snapshot(memory) -> dict:
    return {
        space: {a: w for a, w in memory[space].words.items() if w != 0}
        for space in ("sram", "sdram", "scratch")
    }


def _observe(comp, physical, raw_inputs, memory_image, mode, tracer=None):
    """Run one compilation and return every observable as plain data."""
    memory = make_memory(memory_image)
    if physical:
        graph = comp.physical
        inputs = place_inputs(
            comp.alloc.decoded.input_locations, raw_inputs, memory
        )
    else:
        graph, inputs = comp.flowgraph, raw_inputs
    machine = Machine(
        graph,
        memory=memory,
        threads=1,
        physical=physical,
        input_provider=lambda tid, it: dict(inputs) if it == 0 else None,
        max_cycles=5_000_000,
        mode=mode,
        tracer=tracer,
    )
    try:
        run = machine.run()
    except SimulatorError as exc:
        # Error *identity*: exact type and message must match across
        # tiers (SimulatorError subclasses compare by name here).
        return {"error": (type(exc).__name__, str(exc))}
    return {
        "run": dataclasses.asdict(run),
        "memory": _snapshot(memory),
    }


def _assert_parity(comp, physical, raw_inputs, memory_image=None):
    observed = {
        mode: _observe(comp, physical, raw_inputs, memory_image, mode)
        for mode in MODES
    }
    assert observed["compiled"] == observed["interp"]


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
def test_virtual_parity(case):
    comp = compile_virtual(case.source)
    memory_image = {s: list(chunks) for s, chunks in case.memory.items()}
    _assert_parity(comp, False, comp.make_inputs(**case.inputs), memory_image)


@pytest.mark.parametrize("name", PHYSICAL_CASES)
def test_physical_parity(name):
    case = next(c for c in CASES if c.name == name)
    comp = compile_full(case.source)
    memory_image = {s: list(chunks) for s, chunks in case.memory.items()}
    _assert_parity(comp, True, comp.make_inputs(**case.inputs), memory_image)


@pytest.mark.parametrize("name", sorted(REPRO_CASES))
def test_reproducer_parity(name):
    _, vectors, memory_image = REPRO_CASES[name]
    source = (REPRODUCERS / name).read_text()
    virtual = compile_virtual(source)
    physical = compile_full(source)
    for vector in vectors:
        _assert_parity(virtual, False, virtual.make_inputs(**vector), memory_image)
        _assert_parity(physical, True, physical.make_inputs(**vector), memory_image)


def test_fuzz_smoke_parity_25_seeds():
    """Bit-identical RunResults on generated programs, both paths."""
    for seed in range(25):
        program = generate(seed, GenConfig())
        comp = compile_virtual(program.source)
        for vector in program.vectors:
            _assert_parity(
                comp, False, comp.make_inputs(**vector), program.memory_image
            )


def _histogram(tracer) -> dict:
    for span in tracer.spans:
        if span.name == "simulate":
            return {
                k: v
                for k, v in span.counters.items()
                if k.startswith(("count.", "cycles."))
            }
    raise AssertionError("no simulate span recorded")


def test_opcode_histogram_equality_under_tracing():
    case = CASES[0]
    comp = compile_virtual(case.source)
    raw = comp.make_inputs(**case.inputs)
    traces = {}
    for mode in MODES:
        tracer = Tracer()
        _observe(comp, False, raw, None, mode, tracer=tracer)
        traces[mode] = tracer
    hist = _histogram(traces["interp"])
    assert hist == _histogram(traces["compiled"])
    assert hist, "tracing should record per-opcode counters"
    assert any(
        span.name == "simulate.codegen" for span in traces["compiled"].spans
    ), "compiling under a tracer must emit a simulate.codegen span"
    assert not any(
        span.name == "simulate.codegen" for span in traces["interp"].spans
    )


def _trap_graph():
    return FlowGraph(
        "entry",
        {
            "entry": Block(
                "entry",
                [
                    isa.Immed(isa.PhysReg(Bank.A, 0), 1),
                    isa.Immed(isa.PhysReg(Bank.A, 1), 2),
                    isa.Alu(
                        isa.PhysReg(Bank.A, 2),
                        "add",
                        isa.PhysReg(Bank.A, 0),
                        isa.PhysReg(Bank.A, 1),
                    ),
                    isa.HaltInstr(()),
                ],
            )
        },
        (),
    )


def test_error_message_parity():
    messages = {}
    for mode in MODES:
        with pytest.raises(SimulatorError) as exc_info:
            Machine(_trap_graph(), physical=True, mode=mode).run()
        messages[mode] = (type(exc_info.value).__name__, str(exc_info.value))
    assert messages["compiled"] == messages["interp"]
    assert "two operands from bank A" in messages["interp"][1]


# -- spin-retry parity ------------------------------------------------------
#
# ``lock`` is the one instruction that re-executes in place: a thread
# finding the bit held yields and retries it a few cycles later.  The
# spin cycles are part of the cycle-exact contract, so the tiers are
# compared under contention: four threads run five critical sections
# each through one lock bit.


def test_lock_spin_parity_under_contention():
    observed = {}
    for mode in MODES:
        machine = Machine(
            critical_section_graph(),
            threads=4,
            physical=False,
            input_provider=lambda tid, it: {} if it < 5 else None,
            mode=mode,
        )
        run = machine.run()
        observed[mode] = (
            dataclasses.asdict(run),
            machine.memory["scratch"].dump_words(100, 1),
        )
    assert observed["compiled"] == observed["interp"]
    assert observed["interp"][1] == [20]


def test_unreached_illegal_instruction_does_not_trap_at_decode():
    """Static checks move to codegen time, but failures stay lazy: an
    illegal instruction that never executes must not raise."""
    graph = FlowGraph(
        "entry",
        {
            "entry": Block(
                "entry",
                [isa.Immed(isa.PhysReg(Bank.A, 0), 7), isa.Br("good")],
            ),
            "bad": Block(
                "bad",
                [
                    isa.Alu(
                        isa.PhysReg(Bank.A, 2),
                        "add",
                        isa.PhysReg(Bank.A, 0),
                        isa.PhysReg(Bank.A, 1),
                    ),
                    isa.HaltInstr(()),
                ],
            ),
            "good": Block("good", [isa.HaltInstr((isa.PhysReg(Bank.A, 0),))]),
        },
        (),
    )
    for mode in MODES:
        machine = Machine(graph, physical=True, mode=mode)
        assert machine.run().results == [(0, (7,))]
