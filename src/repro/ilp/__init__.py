"""0-1 integer linear programming layer (the paper's AMPL + CPLEX role).

:mod:`repro.ilp.model` is a small modeling language: families of binary
variables indexed by tuples, linear constraints, a linear objective —
the job AMPL does in the paper (Figure 2).  It is pure Python.
:mod:`repro.ilp.solve` is the solver side: it instantiates a model into
sparse standard form and solves it, either with scipy's HiGHS MILP
solver or with our own branch-and-bound (the CPLEX substitute), using
:mod:`repro.ilp.hints` to reuse proven optima.  Only those two modules
import numpy and scipy.  :mod:`repro.ilp.options` holds what a solve is
asked to do (:class:`~repro.ilp.options.SolveOptions`) and
:func:`~repro.ilp.options.load_solver_stack`, the one way the rest of
the package reaches the solver side; importing this package loads
neither library.
"""

from repro.ilp.model import LinExpr, Model, Solution

__all__ = ["LinExpr", "Model", "Solution"]
