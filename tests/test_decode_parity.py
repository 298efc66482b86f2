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

from repro.compiler import CompileOptions, compile_nova
from repro.errors import SimulatorError
from repro.fuzz.gen import GenConfig, generate
from repro.ixp import isa
from repro.ixp.banks import Bank
from repro.ixp.flowgraph import Block, FlowGraph
from repro.ixp.machine import Machine
from repro.trace import Tracer

from tests.helpers import compile_full, compile_virtual, make_memory
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
        locations = comp.alloc.decoded.input_locations
        inputs: dict = {}
        for temp, value in raw_inputs.items():
            loc = locations.get(temp)
            if loc is None:
                continue
            kind, where = loc
            if kind == "reg":
                inputs[(where.bank, where.index)] = value
            else:
                memory["scratch"].load_words(where, [value])
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


# -- ring enqueue/dequeue parity -------------------------------------------
#
# Ring ops have the richest blocking behaviour in the ISA (spin-retry on
# full/empty, port contention on success), so parity is checked on
# hand-built physical graphs under multi-thread contention: cycles,
# stalls, halt values, the ring's control words and slots (part of the
# scratch image), and queue contents must be bit-identical across paths.

from repro.ixp.memory import MemorySystem


def _ring_memory(prefill=(), capacity=4):
    memory = MemorySystem.create()
    memory.add_ring("work", 0, capacity)
    memory.add_ring("out", 32, capacity)
    for i, value in enumerate(prefill):
        memory.ring("work").try_enqueue(0, value)
    return memory


def _run_ring_graph(graph, memory, threads, mode, provider=None):
    machine = Machine(
        graph,
        memory=memory,
        threads=threads,
        physical=True,
        input_provider=provider,
        max_cycles=100_000,
        mode=mode,
    )
    try:
        run = machine.run()
    except SimulatorError as exc:
        return {
            "error": (type(exc).__name__, str(exc)),
            "memory": _snapshot(memory),
        }
    return {
        "run": dataclasses.asdict(run),
        "memory": _snapshot(memory),
        "work": memory.ring("work").snapshot(),
        "out": memory.ring("out").snapshot(),
        "hwm": (memory.ring("work").high_water, memory.ring("out").high_water),
    }


def _assert_ring_parity(make_graph, threads, prefill=(), capacity=4,
                        provider=None):
    observed = {}
    for mode in MODES:
        observed[mode] = _run_ring_graph(
            make_graph(), _ring_memory(prefill, capacity), threads, mode,
            provider,
        )
    assert observed["compiled"] == observed["interp"]
    return observed["interp"]


def _a(i):
    return isa.PhysReg(Bank.A, i)


def test_ring_pull_transform_push_parity_under_contention():
    """4 threads each pull one word from a prefilled 'work' ring,
    transform it, and push to 'out': threads contend for both rings and
    for the scratch port; every observable must agree across paths."""

    def graph():
        return FlowGraph(
            "entry",
            {
                "entry": Block(
                    "entry",
                    [
                        isa.RingOp("deq", "work", _a(0)),
                        isa.Alu(_a(1), "add", _a(0), isa.Imm(100)),
                        isa.RingOp("enq", "out", _a(1)),
                        isa.HaltInstr((_a(0),)),
                    ],
                )
            },
            (),
        )

    observed = _assert_ring_parity(graph, threads=4, prefill=(7, 8, 9, 10))
    halts = sorted(v[0] for _, v in observed["run"]["results"])
    assert halts == [7, 8, 9, 10]
    assert observed["work"] == []
    assert sorted(observed["out"]) == [107, 108, 109, 110]


def test_ring_full_backpressure_parity():
    """A producer thread overruns a capacity-2 ring and must spin until
    the consumer thread drains an entry; the spin-retry cycles are part
    of the cycle-exact contract."""

    def graph():
        return FlowGraph(
            "entry",
            {
                "entry": Block(
                    "entry",
                    [
                        isa.BrCmp("eq", _a(7), isa.Imm(0), "producer",
                                  "consumer"),
                    ],
                ),
                "producer": Block(
                    "producer",
                    [
                        isa.RingOp("enq", "work", isa.Imm(1)),
                        isa.RingOp("enq", "work", isa.Imm(2)),
                        isa.RingOp("enq", "work", isa.Imm(3)),  # ring full
                        isa.HaltInstr((isa.Imm(0),)),
                    ],
                ),
                "consumer": Block(
                    "consumer",
                    [
                        # burn time on a memory read so the producer
                        # reaches the full ring first
                        isa.Immed(_a(2), 64),
                        isa.MemOp("sram", "read", _a(2), (isa.PhysReg(Bank.L, 0),)),
                        isa.MemOp("sram", "read", _a(2), (isa.PhysReg(Bank.L, 0),)),
                        isa.RingOp("deq", "work", _a(3)),
                        isa.HaltInstr((_a(3),)),
                    ],
                ),
            },
            (),
        )

    observed = _assert_ring_parity(
        graph,
        threads=2,
        capacity=2,
        provider=lambda tid, it: {(Bank.A, 7): tid} if it == 0 else None,
    )
    results = dict(
        (tid, values) for tid, values in observed["run"]["results"]
    )
    assert results[1] == (1,), "consumer must pop the oldest entry"
    assert observed["work"] == [2, 3], "producer's third word got through"
    assert observed["hwm"][0] == 2


def test_ring_empty_spin_parity():
    """A consumer on an empty ring spins until the producer delivers."""

    def graph():
        return FlowGraph(
            "entry",
            {
                "entry": Block(
                    "entry",
                    [isa.BrCmp("eq", _a(7), isa.Imm(0), "producer",
                               "consumer")],
                ),
                "producer": Block(
                    "producer",
                    [
                        isa.Immed(_a(2), 64),
                        isa.MemOp("sram", "read", _a(2), (isa.PhysReg(Bank.L, 0),)),
                        isa.RingOp("enq", "work", isa.Imm(42)),
                        isa.HaltInstr((isa.Imm(0),)),
                    ],
                ),
                "consumer": Block(
                    "consumer",
                    [
                        isa.RingOp("deq", "work", _a(3)),
                        isa.HaltInstr((_a(3),)),
                    ],
                ),
            },
            (),
        )

    observed = _assert_ring_parity(
        graph,
        threads=2,
        provider=lambda tid, it: {(Bank.A, 7): tid} if it == 0 else None,
    )
    results = dict(observed["run"]["results"])
    assert results[1] == (42,)
    assert observed["work"] == []


def test_ring_error_parity_unknown_ring_and_bad_operand():
    def unknown():
        return FlowGraph(
            "entry",
            {
                "entry": Block(
                    "entry",
                    [isa.RingOp("enq", "missing", isa.Imm(1)),
                     isa.HaltInstr(())],
                )
            },
            (),
        )

    def imm_dst():
        return FlowGraph(
            "entry",
            {
                "entry": Block(
                    "entry",
                    [isa.RingOp("deq", "work", isa.Imm(1)),
                     isa.HaltInstr(())],
                )
            },
            (),
        )

    for make_graph in (unknown, imm_dst):
        messages = {}
        for mode in MODES:
            out = _run_ring_graph(
                make_graph(), _ring_memory(), 1, mode
            )
            assert "error" in out
            messages[mode] = out["error"]
        assert messages["compiled"] == messages["interp"]


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
