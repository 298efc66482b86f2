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

Constraints and the objective reference variables by dense integer ids.
A model keeps its rows in flat per-model arrays (columns, coefficients,
row ends, senses, right-hand sides, notes), not one object per row, and
owns each family's index dict; a :class:`Family` is a view the model
does not point back to.  A built model is therefore a few dozen
containers plus its index keys, and a dropped one is freed by reference
counting, without waiting for the cyclic garbage collector.  The
arrays are already the COO form of the constraint matrix, so
conversion to sparse standard form (for HiGHS or our own solver) is a
few numpy calls: :func:`repro.ilp.solve.standard_form`, on the solver
side.  This module is pure Python; building a model loads neither numpy
nor scipy.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from typing import Any

#: Row senses; :attr:`Model.senses` holds each row's index into this.
SENSES = ("<=", ">=", "==")
_SENSE_CODES = {sense: code for code, sense in enumerate(SENSES)}


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
    """An indexed family of binary variables (``var x {S1, S2} binary``).

    A view of the model's index dict for ``name``: views of one name
    share the dict, and the model holds no reference to any view.
    """

    def __init__(self, model: "Model", name: str):
        self.model = model
        self.name = name
        self.index: dict[tuple, int] = model.indexes.setdefault(name, {})

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


class Model:
    """A 0-1 integer linear program under construction."""

    def __init__(self, name: str = "model"):
        self.name = name
        self.num_vars = 0
        #: family name → (index → variable id), in declaration order.
        self.indexes: dict[str, dict[tuple, int]] = {}
        # The rows, flat.  Row i's terms are cols[j] * coefs[j] for j in
        # range(ends[i - 1], ends[i]) (from 0 for the first row), in the
        # order its expression listed them; senses[i] indexes SENSES.
        # Coefficients stay Python numbers, so numpy infers the matrix
        # dtype from them as it would from the expressions.
        self.cols = array("i")
        self.coefs: list[float] = []
        self.ends = array("q")
        self.senses = array("b")
        self.rhs = array("d")
        self.notes: list[str] = []
        self.objective: dict[int, float] = {}

    # -- variables ------------------------------------------------------------

    def family(self, name: str) -> Family:
        return Family(self, name)

    @property
    def families(self) -> dict[str, Family]:
        """A view of every family declared so far, by name."""
        return {name: Family(self, name) for name in self.indexes}

    def _new_var(self, family: str, key: tuple) -> int:
        var = self.num_vars
        self.num_vars += 1
        return var

    def name_of(self, var: int) -> str:
        """``Family[key]`` of ``var``, found by a scan of the families in
        declaration order (a debugging aid, not a hot path)."""
        for family, index in self.indexes.items():
            for key, candidate in index.items():
                if candidate == var:
                    return f"{family}[{','.join(str(k) for k in key)}]"
        raise IndexError(f"no variable {var} in model {self.name!r}")

    # -- constraints ------------------------------------------------------------

    def add(
        self,
        expr: LinExpr | dict[int, float],
        sense: str,
        rhs: float,
        note: str = "",
    ) -> None:
        coeffs = expr.coeffs if isinstance(expr, LinExpr) else expr
        code = _SENSE_CODES.get(sense)
        if code is None:
            raise ValueError(f"bad constraint sense {sense!r}")
        self.cols.extend(coeffs)
        self.coefs.extend(coeffs.values())
        self.ends.append(len(self.coefs))
        self.senses.append(code)
        self.rhs.append(rhs)
        self.notes.append(note)

    def add_sum_eq(self, vars_: list[int], rhs: float, note: str = "") -> None:
        self.add({v: 1.0 for v in vars_}, "==", rhs, note)

    # -- objective -----------------------------------------------------------------

    def minimize(self, coeffs: dict[int, float]) -> None:
        for var, coef in coeffs.items():
            self.objective[var] = self.objective.get(var, 0.0) + coef

    @property
    def objective_terms(self) -> int:
        return sum(1 for c in self.objective.values() if c != 0.0)

    # -- reporting --------------------------------------------------------------

    @property
    def num_constraints(self) -> int:
        return len(self.ends)

    def nonzeros(self) -> int:
        """Structural nonzeros of the constraint matrix (Figure 7 vocabulary)."""
        return len(self.coefs)

    def stats(self) -> dict[str, int]:
        return {
            "variables": self.num_vars,
            "constraints": self.num_constraints,
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
