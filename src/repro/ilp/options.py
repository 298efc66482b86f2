"""What a solve is asked to do, and the one way into the solver stack.

Every process that builds a :class:`~repro.compiler.CompileOptions`
needs :class:`SolveOptions`, but only a process that solves needs numpy
and scipy.  This module holds the options, the engine names and
:func:`load_solver_stack`, and imports neither library.  The solver
side, :mod:`repro.ilp.solve` and :mod:`repro.ilp.hints`, imports them at
module level; the rest of the package reaches it only through
:func:`load_solver_stack`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import ModuleType

#: The solver engines :func:`repro.ilp.solve.solve_model` accepts.
ENGINES = ("highs", "bnb")


@dataclass
class SolveOptions:
    engine: str = "highs"  # one of ENGINES
    time_limit: float | None = 600.0
    gap: float = 1e-4  # CPLEX-style relative MIP gap (paper: 0.01%)
    node_limit: int = 200_000
    #: solve the LP relaxation before branch-and-cut and report its
    #: time; an integral vertex ends the solve (the ``bnb`` engine's
    #: first node is that LP already; a tracer never sets this).
    root_relaxation: bool = False
    #: Directory of proven optima (a :class:`~repro.ilp.hints.HintStore`),
    #: for any engine: an identical model's optimum is returned without a
    #: solve.  Runtime plumbing, not part of the problem statement —
    #: excluded from cache fingerprints.
    hint_dir: str | None = field(
        default=None, metadata={"fingerprint": False}
    )


def check_engine(engine: str) -> None:
    """Raise :class:`ValueError` unless ``engine`` is in :data:`ENGINES`."""
    if engine not in ENGINES:
        raise ValueError(
            f"unknown solver engine {engine!r}; "
            f"expected one of {', '.join(ENGINES)}"
        )


def load_solver_stack() -> ModuleType:
    """:mod:`repro.ilp.solve`, imported (with numpy and scipy) on first call.

    Every solve outside :mod:`repro.ilp` goes through the returned
    module.  A process that forks compile workers calls this before it
    accepts work, so every worker starts with the stack loaded
    (:mod:`repro.serve`, :func:`repro.batch.scatter`).
    """
    from repro.ilp import solve

    return solve
