"""A small AMPL-flavoured 0-1 ILP modeling layer.

The paper describes its optimization problems with AMPL: *sets* provide
index ranges, ``var x {T, R} binary;`` declares a family of 0-1 variables,
and constraint templates quantify over the sets (Figure 2).  This module
gives the allocator the same vocabulary:

>>> m = Model("demo")
>>> x = m.family("Before")           # var Before {Exists, Banks} binary
>>> a = x[("p1", "v", "A")]          # instantiating an index creates a var
>>> m.add(LinExpr({a: 1}), "==", 1, note="in one place only")
>>> m.minimize({a: 3.0})

Constraints and the objective reference variables by dense integer ids,
so conversion to sparse matrix form (for HiGHS or our own solver) is a
single pass: :func:`repro.ilp.solve.standard_form`, on the solver side.
This module is pure Python; building a model loads neither numpy nor
scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any


@dataclass
class LinExpr:
    """A linear expression: mapping variable id → coefficient."""

    coeffs: dict[int, float] = field(default_factory=dict)

    def add(self, var: int, coef: float = 1.0) -> "LinExpr":
        self.coeffs[var] = self.coeffs.get(var, 0.0) + coef
        return self

    def __iadd__(self, other: "LinExpr") -> "LinExpr":
        for var, coef in other.coeffs.items():
            self.add(var, coef)
        return self


class Family:
    """An indexed family of binary variables (``var x {S1, S2} binary``)."""

    def __init__(self, model: "Model", name: str):
        self.model = model
        self.name = name
        self.index: dict[tuple, int] = {}

    def __getitem__(self, key: tuple) -> int:
        var = self.index.get(key)
        if var is None:
            var = self.model._new_var(self.name, key)
            self.index[key] = var
        return var

    def get(self, key: tuple) -> int | None:
        return self.index.get(key)

    def __contains__(self, key: tuple) -> bool:
        return key in self.index

    def __len__(self) -> int:
        return len(self.index)

    def items(self):
        return self.index.items()


@dataclass
class _Constraint:
    coeffs: dict[int, float]
    sense: str  # '<=', '>=', '=='
    rhs: float
    note: str = ""


class Model:
    """A 0-1 integer linear program under construction."""

    def __init__(self, name: str = "model"):
        self.name = name
        self.num_vars = 0
        self.var_names: list[tuple[str, tuple]] = []
        self.families: dict[str, Family] = {}
        self.constraints: list[_Constraint] = []
        self.objective: dict[int, float] = {}
        #: bumped by every mutating call; keys the memo of
        #: :func:`repro.ilp.solve.standard_form`, so one model solved by
        #: several engines converts to matrices once.
        self.mutations = 0

    # -- variables ------------------------------------------------------------

    def family(self, name: str) -> Family:
        fam = self.families.get(name)
        if fam is None:
            fam = Family(self, name)
            self.families[name] = fam
        return fam

    def _new_var(self, family: str, key: tuple) -> int:
        var = self.num_vars
        self.num_vars += 1
        self.var_names.append((family, key))
        self.mutations += 1
        return var

    def name_of(self, var: int) -> str:
        family, key = self.var_names[var]
        return f"{family}[{','.join(str(k) for k in key)}]"

    # -- constraints ------------------------------------------------------------

    def add(
        self,
        expr: LinExpr | dict[int, float],
        sense: str,
        rhs: float,
        note: str = "",
    ) -> None:
        coeffs = expr.coeffs if isinstance(expr, LinExpr) else expr
        if sense not in ("<=", ">=", "=="):
            raise ValueError(f"bad constraint sense {sense!r}")
        self.constraints.append(_Constraint(dict(coeffs), sense, rhs, note))
        self.mutations += 1

    def add_sum_eq(self, vars_: list[int], rhs: float, note: str = "") -> None:
        self.add({v: 1.0 for v in vars_}, "==", rhs, note)

    # -- objective -----------------------------------------------------------------

    def minimize(self, coeffs: dict[int, float]) -> None:
        for var, coef in coeffs.items():
            self.objective[var] = self.objective.get(var, 0.0) + coef
        self.mutations += 1

    @property
    def objective_terms(self) -> int:
        return sum(1 for c in self.objective.values() if c != 0.0)

    # -- reporting --------------------------------------------------------------

    def nonzeros(self) -> int:
        """Structural nonzeros of the constraint matrix (Figure 7 vocabulary)."""
        return sum(len(con.coeffs) for con in self.constraints)

    def stats(self) -> dict[str, int]:
        return {
            "variables": self.num_vars,
            "constraints": len(self.constraints),
            "objective_terms": self.objective_terms,
        }


@dataclass
class Solution:
    """Result of solving a model."""

    status: str  # 'optimal' | 'infeasible' | 'timeout' | 'unbounded' | 'failed'
    objective: float
    #: one value per variable (a numpy array; 0/1 for a usable solution)
    values: Any
    root_relaxation_seconds: float
    integer_seconds: float
    nodes: int = 0
    #: final relative MIP gap (0.0 when proved optimal with no slack;
    #: ``inf`` when no incumbent was found).
    gap: float = 0.0

    @property
    def usable(self) -> bool:
        """Optimal, or a timeout that still carries an incumbent."""
        return self.status == "optimal" or (
            self.status == "timeout" and math.isfinite(self.objective)
        )

    def value(self, var: int) -> float:
        return float(self.values[var])

    def is_one(self, var: int | None) -> bool:
        if var is None:
            return False
        return self.values[var] > 0.5

    def ones(self, family: Family) -> list[tuple]:
        return [key for key, var in family.items() if self.is_one(var)]
