"""Codegen cache semantics: identity keying, eviction, sharing, unknown ops.

The compiled-function cache is keyed by graph *identity* (two equal
graphs get two compiles; one graph gets one), entries are evicted when
the graph is garbage collected so ``id()`` reuse cannot alias, and every
Machine sharing a FlowGraph shares one generated function.  An
instruction kind the generator does not know compiles like any other
static fault: silent until executed, then the interpreter's exact error.
"""

import gc

import pytest

from repro.errors import SimulatorError
from repro.ixp import codegen, isa
from repro.ixp.banks import Bank
from repro.ixp.codegen import compiled_graph
from repro.ixp.flowgraph import Block, FlowGraph
from repro.ixp.machine import SIM_MODES, Machine

from tests.helpers import compile_virtual

SOURCE = "fun main (x, y) { let a = (x + y); a ^ 3 }"


def _a(i):
    return isa.PhysReg(Bank.A, i)


def _tiny_graph():
    return FlowGraph(
        "entry",
        {
            "entry": Block(
                "entry",
                [
                    isa.Immed(_a(0), 5),
                    isa.Alu(_a(1), "add", _a(0), isa.Imm(2)),
                    isa.HaltInstr((_a(1),)),
                ],
            )
        },
        (),
    )


def test_two_machines_sharing_a_graph_share_one_compiled_function():
    comp = compile_virtual(SOURCE)
    graph = comp.flowgraph
    m1 = Machine(graph, physical=False, mode="compiled")
    m2 = Machine(graph, physical=False, mode="compiled")
    assert m1.compiled is not None
    assert m1.compiled is m2.compiled
    # Each bind is a fresh closure over machine state, but both close
    # over the same generated code object.
    assert m1._slice is not m2._slice
    assert m1._slice.__code__ is m2._slice.__code__


def test_cache_is_keyed_by_graph_identity_not_structure():
    # The same source compiled twice gives structurally equal graphs
    # with distinct identities: each must compile separately.
    g1 = compile_virtual(SOURCE).flowgraph
    g2 = compile_virtual(SOURCE).flowgraph
    c1 = compiled_graph(g1, False)
    c2 = compiled_graph(g2, False)
    assert c1 is not None and c2 is not None
    assert c1 is not c2
    # ...while recompiling the same graph object hits the cache.
    assert compiled_graph(g1, False) is c1


def test_physical_and_instrumented_variants_cache_separately():
    graph = _tiny_graph()
    plain = compiled_graph(graph, True, instrumented=False)
    instrumented = compiled_graph(graph, True, instrumented=True)
    assert plain is not None and instrumented is not None
    assert plain is not instrumented
    assert instrumented.instrumented and not plain.instrumented
    assert compiled_graph(graph, True, instrumented=True) is instrumented


def test_entries_evict_when_the_graph_is_collected():
    graph = _tiny_graph()
    compiled = compiled_graph(graph, True)
    assert compiled is not None
    key = (id(graph), True, False)
    assert key in codegen._COMPILED
    del graph, compiled
    gc.collect()
    assert key not in codegen._COMPILED


class _Mystery(isa.Instr):
    """An instruction kind the generator has never heard of."""

    def __repr__(self):
        return "mystery"


def _graph_with_mystery(reached: bool):
    # Lazy faulting: the mystery op raises only if it executes, on every
    # tier, exactly like a statically illegal instruction.
    return FlowGraph(
        "entry",
        {
            "entry": Block(
                "entry",
                [isa.Immed(_a(0), 7), isa.Br("bad" if reached else "good")],
            ),
            "bad": Block("bad", [_Mystery(), isa.HaltInstr(())]),
            "good": Block("good", [isa.HaltInstr((_a(0),))]),
        },
        (),
    )


def test_unreached_unknown_op_compiles_and_runs():
    graph = _graph_with_mystery(reached=False)
    assert compiled_graph(graph, True) is not None
    machine = Machine(graph, physical=True, mode="compiled")
    assert machine.run().results == [(0, (7,))]


def test_reached_unknown_op_raises_the_interpreters_error():
    errors = {}
    for mode in SIM_MODES:
        machine = Machine(_graph_with_mystery(reached=True), physical=True,
                          mode=mode)
        with pytest.raises(SimulatorError) as exc_info:
            machine.run()
        errors[mode] = (type(exc_info.value), str(exc_info.value))
    assert errors["compiled"] == errors["interp"]
    assert errors["interp"] == (
        SimulatorError, "unhandled instruction mystery"
    )
