"""Reproduction of "Taming the IXP Network Processor" (PLDI 2003).

This package implements the Nova programming language and its compiler:
a CPS-based front end, a static-single-use transform, and an ILP-based
back end that solves register-bank assignment, transfer-register coloring
of aggregates, inter-bank move placement and spilling as one 0-1 integer
linear program targeting the Intel IXP1200 micro-engine (which we also
model, together with its memories, as a cycle-approximate simulator).

Public API
----------
- :func:`compile_nova` — compile Nova source text end-to-end; the
  :class:`~repro.compiler.Compilation` it returns keeps every phase's
  artifact, and a tracer records each phase's statistics.
- :class:`~repro.compiler.CompileOptions` — the pipeline's knobs.
- :mod:`repro.nova` — language front end (lexer/parser/types/layouts).
- :mod:`repro.cps` — CPS intermediate representation and optimizer.
- :mod:`repro.ixp` — IXP1200 instruction set, flowgraph and simulator.
- :mod:`repro.ilp` — the AMPL-substitute ILP modeling layer and solvers.
- :mod:`repro.alloc` — the paper's allocator (Sections 5-10) plus the
  heuristic baseline and the constant-rematerialization extension.
- :mod:`repro.apps` — the three benchmark applications (AES, Kasumi, NAT).

:mod:`repro.compiler` is imported lazily, on first use of a name above.
numpy and scipy are loaded later still: only :mod:`repro.ilp.solve` and
:mod:`repro.ilp.hints` import them, and the rest of the package reaches
those two modules only through
:func:`repro.ilp.options.load_solver_stack`.  So importing the
compiler, the cache, the client, the daemon or the simulator, building
an ILP, or loading and running an allocated artifact, pulls in neither.
The first solve in a process does, and so does a daemon or a batch
before it forks workers that may solve.
"""

from typing import Any

__all__ = ["CompileOptions", "compile_nova"]

__version__ = "1.0.0"


def __getattr__(name: str) -> Any:
    if name in __all__:
        from repro import compiler

        return getattr(compiler, name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
