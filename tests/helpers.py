"""Shared utilities for the test suite."""

from __future__ import annotations

from repro.alloc.decode import place_inputs
from repro.compiler import CompileOptions, Compilation, compile_nova
from repro.ixp.machine import Machine
from repro.ixp.memory import MemorySystem

MemoryImage = dict[str, list[tuple[int, list[int]]]]

#: ``main`` with more one-word parameters than the A and B banks hold:
#: the allocator leaves some inputs in scratch slots.  It returns the
#: sum of its parameters, 630 for ``p_i = i``.
SPILLED_PARAMS = [f"p{i}" for i in range(36)]
SPILLED_INPUTS_SOURCE = (
    f"fun main ({', '.join(SPILLED_PARAMS)}) {{ {' + '.join(SPILLED_PARAMS)} }}"
)

#: ``main(b)`` reads this many words from ``sram(b)`` on, hashes ``b``
#: and returns their sum: all of them are live at the hash, more than
#: the A and B banks hold (15 + 16).
PRESSURE_VALUES = 33
PRESSURE_SOURCE = (
    "fun main (b) {\n"
    + "".join(f"  let x{i} = sram(b + {i});\n" for i in range(PRESSURE_VALUES))
    + f"  hash(b); {' + '.join(f'x{i}' for i in range(PRESSURE_VALUES))}\n}}"
)


def record_calls(
    monkeypatch, owner, name: str, calls: list | None = None, fail: bool = False
) -> list:
    """Append ``name`` to ``calls`` whenever ``owner.name`` is called.

    The call goes through unless ``fail``, which raises instead.  Pass
    the same list to record several functions in call order.
    """
    calls = [] if calls is None else calls
    real = getattr(owner, name)

    def recorded(*args, **kwargs):
        calls.append(name)
        if fail:
            raise AssertionError(f"{name} ran")
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, recorded)
    return calls


def compile_virtual(source: str) -> Compilation:
    """Compile without running the ILP allocator (fast path for tests)."""
    options = CompileOptions()
    options.run_allocator = False
    return compile_nova(source, options=options)


def compile_full(
    source: str,
    two_phase: bool | None = None,
    time_limit: float | None = None,
    gap: float | None = None,
) -> Compilation:
    """Compile with the ILP allocator; unset knobs keep the library default."""
    options = CompileOptions()
    if two_phase is not None:
        options.alloc.two_phase = two_phase
    if time_limit is not None:
        options.alloc.solve.time_limit = time_limit
    if gap is not None:
        options.alloc.solve.gap = gap
    return compile_nova(source, options=options)


def make_memory(image: MemoryImage | None = None) -> MemorySystem:
    memory = MemorySystem.create()
    memory.load_image(image or {})
    return memory


def run_main(
    comp: Compilation,
    memory_image: MemoryImage | None = None,
    iterations: int = 1,
    **inputs,
) -> tuple[list[tuple[int, ...]], MemorySystem]:
    """Run the virtual flowgraph with source-named inputs.

    Returns (list of halt-value tuples, the memory system afterwards).
    """
    memory = make_memory(memory_image)
    raw = comp.make_inputs(**inputs)

    def provider(tid: int, iteration: int):
        if iteration >= iterations:
            return None
        return dict(raw)

    machine = Machine(
        comp.flowgraph,
        memory=memory,
        threads=1,
        physical=False,
        input_provider=provider,
    )
    result = machine.run()
    return [values for _, values in result.results], memory


def run_physical(
    comp: Compilation,
    memory_image: MemoryImage | None = None,
    iterations: int = 1,
    **inputs,
) -> tuple[list[tuple[int, ...]], MemorySystem]:
    """Run the allocated (physical) flowgraph with source-named inputs."""
    assert comp.alloc is not None
    memory = make_memory(memory_image)
    physical_inputs = place_inputs(
        comp.alloc.decoded.input_locations, comp.make_inputs(**inputs), memory
    )

    def provider(tid: int, iteration: int):
        if iteration >= iterations:
            return None
        return dict(physical_inputs)

    machine = Machine(
        comp.physical,
        memory=memory,
        threads=1,
        physical=True,
        input_provider=provider,
    )
    result = machine.run()
    return [values for _, values in result.results], memory
