"""``repro.ilp.hints`` — prior ILP solutions kept on disk as warm starts.

A :class:`HintStore` is a directory of prior solutions, each stored as
the *names* of its one-valued variables plus the objective.  Names
survive model rebuilds (variable ids do not), so a hint recorded under
one option point maps onto the nearest prior model's successor — the
compile daemon keys hints by the front-end fingerprint, so
allocator-knob-only variants of one program share one incumbent, the
same way Merlin's incremental provisioning reuses solutions of
near-identical models.  :func:`hint_incumbent` *validates* a hint
against the target model before use (constraint rows within tolerance);
a stale or structurally incompatible hint is simply ignored.

:func:`repro.ilp.solve.solve_model` does the lookup and the save
whenever :attr:`SolveOptions.hint_dir` and ``hint_key`` are set; this
module only hides the file format.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

import numpy as np

from repro.ilp.model import Model, Solution

#: Constraint-row tolerance when validating a hint against a model.
FEAS_TOL = 1e-6

#: Bumped when the hint file layout changes; stale formats read as "no hint".
HINT_FORMAT = 1


class HintStore:
    """Directory of prior ILP solutions, keyed by the caller's model key.

    Same two-level fan-out and atomic-write discipline as
    :class:`repro.cache.CompileCache`; any unreadable entry reads as "no
    hint", never an exception.  Entries are tiny (names of one-valued
    variables only — a few KB even for the paper's 10^5-variable models).
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key[2:]}.json"

    def load(self, key: str) -> dict | None:
        path = self.path_for(key)
        try:
            with open(path) as handle:
                doc = json.load(handle)
        except FileNotFoundError:
            return None
        except Exception:
            try:
                path.unlink()
            except OSError:
                pass
            return None
        if (
            not isinstance(doc, dict)
            or doc.get("format") != HINT_FORMAT
            or not isinstance(doc.get("ones"), list)
            or not isinstance(doc.get("objective"), (int, float))
        ):
            return None
        return doc

    def save(self, key: str, model: Model, solution: Solution) -> None:
        """Record a solution's one-valued variable names; atomic."""
        ones = [
            model.name_of(var)
            for var in range(model.num_vars)
            if solution.values[var] > 0.5
        ]
        doc = {
            "format": HINT_FORMAT,
            "objective": float(solution.objective),
            "status": solution.status,
            "ones": ones,
        }
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(doc, handle, separators=(",", ":"))
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise


def hint_incumbent(
    model: Model, hint: dict
) -> tuple[float, np.ndarray] | None:
    """Map a stored hint onto ``model``; None unless it is feasible there.

    Variables are matched by *name* (family + index tuple), so the hint
    survives model rebuilds and moderate option changes; names the model
    does not know are dropped, and the projected point is then checked
    against every constraint row.  The objective is recomputed from the
    model's own cost vector — the stored value is advisory only.
    """
    names = {model.name_of(var): var for var in range(model.num_vars)}
    x = np.zeros(model.num_vars)
    for name in hint["ones"]:
        var = names.get(name)
        if var is not None:
            x[var] = 1.0
    c, matrix, lb, ub = model.standard_form()
    if len(model.constraints):
        row = matrix @ x
        if np.any(row < lb - FEAS_TOL) or np.any(row > ub + FEAS_TOL):
            return None
    return float(c @ x), x
