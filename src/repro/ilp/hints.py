"""``repro.ilp.hints`` — proven ILP optima kept on disk.

A :class:`HintStore` is a directory of proven optima, keyed by
:func:`solve_digest` — a sha256 of the model's standard form (cost
vector, CSR constraint matrix, row bounds, shape) plus the engine, the
MIP gap and scipy's version.  An entry records the *indices* of the
one-valued variables, since the digest pins the index space, and the
objective.  Only a cold solve that ended ``optimal`` writes one.  Both
engines are deterministic, so an identical model is answered by the
entry instead of a solve: :func:`reused_optimum` returns exactly what a
cold solve would.  A solver-budget or comment-only recompile thus costs
a model build.

The lookup validates the stored point against every constraint row
before use, and an unreadable entry reads as "absent".
:func:`repro.ilp.solve.solve_model` does the lookup and the save
whenever :attr:`SolveOptions.hint_dir` is set; this module only hides
the file format.  It also holds :func:`satisfies_rows`, the row check
that a stored optimum and an LP's rounded vertex both pass before they
count as a 0-1 solution.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
from pathlib import Path

import numpy as np
import scipy

from repro.ilp.model import Solution

#: Constraint-row tolerance when validating a stored point against a model.
FEAS_TOL = 1e-6

#: Bumped when the proven-optimum layout or digest changes.
OPTIMUM_FORMAT = 1


class HintStore:
    """Directory of proven ILP optima, keyed by :func:`solve_digest`.

    Same two-level fan-out and atomic-write discipline as
    :class:`repro.cache.CompileCache`, under ``optima/``.  Any
    unreadable entry reads as absent, never an exception.  Entries are
    tiny (the one-valued variables only — a few KB even for the paper's
    10^5-variable models).
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def optimum_path(self, digest: str) -> Path:
        return self.root / "optima" / digest[:2] / f"{digest[2:]}.json"

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


def satisfies_rows(matrix, lb, ub, x) -> bool:
    """True when ``matrix @ x`` lies within ``[lb, ub]`` to :data:`FEAS_TOL`."""
    row = matrix @ x
    return not (np.any(row < lb - FEAS_TOL) or np.any(row > ub + FEAS_TOL))


def solve_digest(form: tuple, engine: str, gap: float) -> str:
    """Content key of a solve: what a deterministic engine's answer depends on.

    ``form`` is the model's standard form ``(c, matrix, lb, ub)``
    (:func:`repro.ilp.solve.standard_form`); the key covers the cost
    vector, the CSR ``indptr``/``indices``/``data``, the row bounds and
    the shape, plus the engine, the MIP gap and scipy's version.  The
    time and node budgets are left out: a solve that ends ``optimal``
    never reached them, so they did not shape its answer.
    """
    c, matrix, lb, ub = form
    digest = hashlib.sha256(
        f"{OPTIMUM_FORMAT} {engine} {gap!r} {scipy.__version__} "
        f"{matrix.shape}".encode()
    )
    for array in (c, matrix.indptr, matrix.indices, matrix.data, lb, ub):
        digest.update(array.dtype.str.encode())
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def reused_optimum(form: tuple, entry: dict) -> Solution | None:
    """The stored proven optimum as a :class:`Solution`; None unless valid.

    ``form`` is the standard form ``(c, matrix, lb, ub)`` of the model
    being solved.  The point must satisfy every constraint row, and its
    recomputed objective must match the stored one to ``FEAS_TOL``,
    relative or absolute (the engine reports ``c @ x`` of its unrounded
    point).  The solution reports the stored objective and gap, as the
    cold solve did, and zero nodes and seconds.
    """
    c, matrix, lb, ub = form
    x = np.zeros(len(c))
    ones = entry["ones"]
    if ones and (min(ones) < 0 or max(ones) >= len(c)):
        return None
    x[ones] = 1.0
    if not satisfies_rows(matrix, lb, ub, x):
        return None
    stored = float(entry["objective"])
    if not math.isclose(
        float(c @ x), stored, rel_tol=FEAS_TOL, abs_tol=FEAS_TOL
    ):
        return None
    return Solution("optimal", stored, x, 0.0, 0.0, 0, float(entry["gap"]))

