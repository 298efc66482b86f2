"""``repro.ilp.hints`` — prior ILP solutions kept on disk.

A :class:`HintStore` is a directory holding two kinds of entry:

- **Proven optima**, keyed by :func:`solve_digest` — a sha256 of the
  model's standard form (cost vector, CSR constraint matrix, row
  bounds, shape) plus the engine, the MIP gap and scipy's version.  An
  entry records the *indices* of the one-valued variables, since the
  digest pins the index space, and the objective.  Only a cold solve
  that ended ``optimal`` writes one.  Both engines are deterministic,
  so an identical model is answered by the entry instead of a solve:
  :func:`reused_optimum` returns exactly what a cold solve would.  A
  solver-budget or comment-only recompile thus costs a model build.
- **Warm-start hints**, keyed by the caller's model key (the compile
  daemon uses the front-end fingerprint + source, so allocator-knob-only
  variants of one program share one incumbent, the way Merlin's
  incremental provisioning reuses solutions of near-identical models).
  A hint records the *names* of the one-valued variables plus the
  objective.  Names survive model rebuilds (variable ids do not), so a
  hint maps onto the nearest prior model's successor.
  :func:`hint_incumbent` maps it and checks it is feasible; a stale or
  structurally incompatible hint is simply ignored.

Both lookups validate the stored point against every constraint row
before use, and an unreadable entry reads as "absent".
:func:`repro.ilp.solve.solve_model` does the lookups and the saves
whenever :attr:`SolveOptions.hint_dir` and ``hint_key`` are set; this
module only hides the file formats.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
from pathlib import Path
from typing import TYPE_CHECKING

from repro.ilp.model import Model, Solution

if TYPE_CHECKING:
    import numpy as np

#: Constraint-row tolerance when validating a stored point against a model.
FEAS_TOL = 1e-6

#: Bumped when the hint file layout changes; stale formats read as "no hint".
HINT_FORMAT = 1

#: Bumped when the proven-optimum layout or digest changes.
OPTIMUM_FORMAT = 1


class HintStore:
    """Directory of prior ILP solutions: hints by model key, optima by digest.

    Same two-level fan-out and atomic-write discipline as
    :class:`repro.cache.CompileCache`; proven optima live under
    ``optima/``.  Any unreadable entry reads as absent, never an
    exception.  Entries are tiny (the one-valued variables only — a few
    KB even for the paper's 10^5-variable models).
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key[2:]}.json"

    def optimum_path(self, digest: str) -> Path:
        return self.root / "optima" / digest[:2] / f"{digest[2:]}.json"

    def load(self, key: str) -> dict | None:
        doc = _read(self.path_for(key))
        if (
            doc is None
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
        _write(
            self.path_for(key),
            {
                "format": HINT_FORMAT,
                "objective": float(solution.objective),
                "status": solution.status,
                "ones": ones,
            },
        )

    def load_optimum(self, digest: str) -> dict | None:
        doc = _read(self.optimum_path(digest))
        if (
            doc is None
            or doc.get("format") != OPTIMUM_FORMAT
            or not isinstance(doc.get("ones"), list)
            or not all(type(var) is int for var in doc["ones"])
            or not isinstance(doc.get("objective"), (int, float))
            or not isinstance(doc.get("gap"), (int, float))
        ):
            return None
        return doc

    def save_optimum(self, digest: str, solution: Solution) -> None:
        """Record a cold solve's proven optimum by variable index; atomic."""
        import numpy as np

        _write(
            self.optimum_path(digest),
            {
                "format": OPTIMUM_FORMAT,
                "objective": float(solution.objective),
                "gap": float(solution.gap),
                "ones": np.flatnonzero(solution.values > 0.5).tolist(),
            },
        )


def _read(path: Path) -> dict | None:
    """A JSON object from ``path``; None if absent, a corrupt file deleted."""
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
    return doc if isinstance(doc, dict) else None


def _write(path: Path, doc: dict) -> None:
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


def solve_digest(model: Model, engine: str, gap: float) -> str:
    """Content key of a solve: what a deterministic engine's answer depends on.

    The standard form (cost vector, CSR ``indptr``/``indices``/``data``,
    row bounds, shape), the engine, the MIP gap and scipy's version.
    The time and node budgets are left out: a solve that ends
    ``optimal`` never reached them, so they did not shape its answer.
    """
    import numpy as np
    import scipy

    c, matrix, lb, ub = model.standard_form()
    digest = hashlib.sha256(
        f"{OPTIMUM_FORMAT} {engine} {gap!r} {scipy.__version__} "
        f"{matrix.shape}".encode()
    )
    for array in (c, matrix.indptr, matrix.indices, matrix.data, lb, ub):
        digest.update(array.dtype.str.encode())
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def _checked_point(model: Model, x: np.ndarray) -> float | None:
    """``c @ x`` when ``x`` satisfies every constraint row, else None."""
    import numpy as np

    c, matrix, lb, ub = model.standard_form()
    if len(model.constraints):
        row = matrix @ x
        if np.any(row < lb - FEAS_TOL) or np.any(row > ub + FEAS_TOL):
            return None
    return float(c @ x)


def reused_optimum(model: Model, entry: dict) -> Solution | None:
    """The stored proven optimum as a :class:`Solution`; None unless valid.

    The point must satisfy every constraint row, and its recomputed
    objective must match the stored one to ``FEAS_TOL``, relative or
    absolute (the engine reports ``c @ x`` of its unrounded point).
    The solution reports the stored objective and gap, as the cold
    solve did, and zero nodes and seconds.
    """
    import numpy as np

    x = np.zeros(model.num_vars)
    ones = entry["ones"]
    if ones and (min(ones) < 0 or max(ones) >= model.num_vars):
        return None
    x[ones] = 1.0
    objective = _checked_point(model, x)
    stored = float(entry["objective"])
    if objective is None or not math.isclose(
        objective, stored, rel_tol=FEAS_TOL, abs_tol=FEAS_TOL
    ):
        return None
    return Solution("optimal", stored, x, 0.0, 0.0, 0, float(entry["gap"]))


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
    import numpy as np

    names = {model.name_of(var): var for var in range(model.num_vars)}
    x = np.zeros(model.num_vars)
    for name in hint["ones"]:
        var = names.get(name)
        if var is not None:
            x[var] = 1.0
    objective = _checked_point(model, x)
    return None if objective is None else (objective, x)
