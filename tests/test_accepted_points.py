"""Allocations the verifier accepts but the back end cannot finish.

Two points of real allocation models satisfy every constraint row and
:func:`repro.alloc.verify.check_solution`, yet the allocator's last
steps (A/B coloring, then decoding) raise :class:`AllocError`:

- NAT's full model, solved with ``SolveOptions(time_limit=1.0)``,
  stopped at a ``timeout`` incumbent (objective 3,372.31, 25 spills, 240
  moves) that keeps SSU's clone ``w_c.171`` in bank M.  The model and
  the verifier allow a clone in M; the decoder has no register for it.
- The full model of :data:`SOURCE_33` (33 computed values) solves
  optimal (objective 804.0, 2 spills, 4 moves), but one temp's A
  residency has a hole, and the coloring, one register per (temp,
  bank), fails.

Each point is saved under ``tests/reproducers/`` as its one-valued
variable indices and its objective (a hint-store entry's fields) plus
the model's :func:`~repro.ilp.hints.form_digest`, so the tests replay
the point without a solver.  A changed model fails the digest check
loudly instead of pinning some other point.  Both tests are strict
xfails: a fix makes them pass, and then their marks go.
"""

import json
import pathlib

import numpy as np
import pytest

from repro.alloc import abcolor, decode as decode_mod
from repro.alloc.ilpmodel import build_model, extract_solution
from repro.alloc.verify import check_solution
from repro.apps import build_nat_app
from repro.errors import AllocError
from repro.ilp.hints import form_digest, satisfies_rows
from repro.ilp.model import Solution
from repro.ilp.solve import standard_form

from tests.helpers import compile_virtual

REPRODUCERS = pathlib.Path(__file__).resolve().parent / "reproducers"

SOURCE_33 = (
    "fun main (b) {\n"
    + "".join(f"  let x{i} = sram(b + {i}) + {i + 1};\n" for i in range(33))
    + "  hash(b);\n  "
    + " + ".join(f"x{i}" for i in range(33))
    + "\n}\n"
)


def accepted_point(source: str, point: str, status: str):
    """Replay the saved ``point`` of ``source``'s full allocation model.

    Checks the model's digest, every row, the objective and the
    verifier; returns ``(graph, model, allocation)``.
    """
    graph = compile_virtual(source).flowgraph
    am = build_model(graph)
    saved = json.loads((REPRODUCERS / point).read_text())
    form = standard_form(am.model)
    assert form_digest(form) == saved["form_digest"], "the model changed"
    c, matrix, lb, ub = form
    values = np.zeros(am.model.num_vars)
    values[saved["ones"]] = 1.0
    assert satisfies_rows(matrix, lb, ub, values)
    assert c @ values == pytest.approx(saved["objective"])
    solution = Solution(status, saved["objective"], values, 0.0, 0.0)
    assert solution.usable
    alloc = extract_solution(am, solution)
    report = check_solution(am, alloc)
    assert report.ok, report.violations[:5]
    return graph, am, alloc


def finish(graph, am, alloc) -> None:
    """The allocator's steps after a usable solve: color, then decode."""
    ab = abcolor.assign_ab_registers(
        graph, alloc.banks_before, alloc.banks_after, am.clone_rep
    )
    decode_mod.decode(am, alloc, ab)


@pytest.mark.xfail(
    strict=True,
    raises=AllocError,
    reason="the decoder has no register for a clone in bank M",
)
def test_nat_timeout_incumbent_decodes():
    graph, am, alloc = accepted_point(
        build_nat_app().source, "nat_spilled_clone.json", "timeout"
    )
    assert (alloc.spills, alloc.move_count) == (25, 240)
    finish(graph, am, alloc)


@pytest.mark.xfail(
    strict=True,
    raises=AllocError,
    reason="A/B coloring keeps one register per (temp, bank) and fails "
    "on a residency with a hole",
)
def test_33_value_optimum_colors():
    graph, am, alloc = accepted_point(
        SOURCE_33, "ab_coloring_hole.json", "optimal"
    )
    assert (alloc.spills, alloc.move_count) == (2, 4)
    finish(graph, am, alloc)
