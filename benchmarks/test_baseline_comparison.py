"""ILP allocation vs the heuristic baseline.

The paper's motivation: bank assignment and aggregate placement have "no
good published heuristics", and the state of the art drains every loaded
value into GPRs.  This benchmark quantifies the gap on the three
applications: register-register moves (static and dynamic) and simulated
cycles per packet for ILP-allocated vs baseline-allocated code.
"""

import pytest

from repro.alloc.baseline import allocate_baseline, baseline_input_locations
from repro.alloc.decode import place_inputs
from repro.ixp import isa
from repro.ixp.machine import Machine
from repro.ixp.memory import MemorySystem

from benchmarks.conftest import print_table


def _static_moves(graph) -> int:
    return sum(
        1
        for _, _, instr in graph.instructions()
        if isinstance(instr, isa.Move)
    )


def test_ilp_beats_baseline_on_moves(compiled_apps):
    rows = []
    for name, (_, comp) in compiled_apps.items():
        baseline = allocate_baseline(comp.flowgraph)
        ilp_static = _static_moves(comp.physical)
        rows.append(
            [
                name,
                comp.alloc.moves,
                ilp_static,
                baseline.moves,
                baseline.spills,
                comp.alloc.spills,
            ]
        )
    print_table(
        "ILP vs baseline (drain/stage heuristic)",
        [
            "program",
            "ILP moves (model)",
            "ILP moves (static)",
            "baseline moves",
            "baseline spills",
            "ILP spills",
        ],
        rows,
    )
    for row in rows:
        name, ilp_model_moves, ilp_static, base_moves = row[0], row[1], row[2], row[3]
        assert base_moves > ilp_static, (
            f"{name}: the ILP should need fewer moves than drain/stage"
        )


def _run_packet(app, comp, graph, locations):
    """One packet of ``app`` through allocated ``graph``."""
    memory = MemorySystem.create()
    memory.load_image(app.memory_image)
    inputs = place_inputs(locations, comp.make_inputs(**app.inputs), memory)
    machine = Machine(
        graph,
        memory=memory,
        physical=True,
        input_provider=lambda tid, it: dict(inputs) if it == 0 else None,
    )
    return machine.run(), memory


def test_baseline_code_is_correct_when_colorable(compiled_apps):
    """When the baseline manages to color, its code must still work."""
    name = "Kasumi"
    app, comp = compiled_apps[name]
    baseline = allocate_baseline(comp.flowgraph)
    if baseline.physical is None:
        pytest.skip("baseline spilled; no runnable code")
    # Execute one packet on both and compare the ciphertext.
    results = []
    for graph, locations in (
        (comp.physical, comp.alloc.decoded.input_locations),
        (
            baseline.physical,
            baseline_input_locations(comp.flowgraph, baseline),
        ),
    ):
        run, memory = _run_packet(app, comp, graph, locations)
        results.append(
            (run.results, memory["sdram"].dump_words(app.payload_base, 2))
        )
    assert results[0] == results[1]


def test_ilp_beats_baseline_on_cycles(compiled_apps):
    """Dynamic comparison: cycles per packet, when both runnable."""
    rows = []
    for name, (app, comp) in compiled_apps.items():
        baseline = allocate_baseline(comp.flowgraph)
        if baseline.physical is None:
            continue
        ilp_run, _ = _run_packet(
            app, comp, comp.physical, comp.alloc.decoded.input_locations
        )
        base_run, _ = _run_packet(
            app,
            comp,
            baseline.physical,
            baseline_input_locations(comp.flowgraph, baseline),
        )
        ilp_cycles, base_cycles = ilp_run.cycles, base_run.cycles
        rows.append([name, ilp_cycles, base_cycles,
                     round(base_cycles / ilp_cycles, 2)])
    print_table(
        "Cycles per packet: ILP vs baseline",
        ["program", "ILP cycles", "baseline cycles", "ratio"],
        rows,
    )
    assert rows, "at least one app should be baseline-colorable"
    for row in rows:
        assert row[2] >= row[1], f"{row[0]}: baseline should not be faster"


def test_baseline_speed(benchmark, compiled_apps):
    graph = compiled_apps["AES"][1].flowgraph
    benchmark(lambda: allocate_baseline(graph))
