"""Golden regression for the allocation ILP: each model's standard form.

The spill-free and full models of the three Section 11 applications,
and the spill-free model of each ``examples/*.nova``, are converted to
standard form (:func:`repro.ilp.solve.standard_form`) and pinned in
``tests/goldens/models.golden``, one line per model: its shape, its
nonzeros and :func:`repro.ilp.hints.form_digest` of its arrays.  The
form is what HiGHS reads, so a change in how the model layer stores or
orders rows, columns or coefficients shows up here even when the
solver happens to return the same optimum.  The form does not depend
on the solver; only the coloring pre-solve inside ``build_model``
solves, and its answer decides which rows exist, not their order.

To accept an intentional change to the ILP layer (and say why)::

    PYTHONPATH=src python -m pytest tests/test_model_goldens.py --update-goldens
"""

import pathlib

import pytest

from repro import apps
from repro.alloc.ilpmodel import build_model
from repro.ilp.hints import form_digest
from repro.ilp.solve import standard_form

from tests.helpers import compile_virtual

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN_PATH = ROOT / "tests" / "goldens" / "models.golden"

APPS = ("aes", "kasumi", "nat")


def model_lines() -> str:
    """One line per pinned model: both models of each app, then the
    spill-free model of each example."""
    sources = {app: getattr(apps, f"build_{app}_app")().source for app in APPS}
    for path in sorted((ROOT / "examples").glob("*.nova")):
        sources[path.stem] = path.read_text()
    lines = []
    for name, source in sources.items():
        graph = compile_virtual(source).flowgraph
        for allow_spill in (False, True) if name in APPS else (False,):
            form = standard_form(build_model(graph, allow_spill=allow_spill).model)
            rows, cols = form[1].shape
            lines.append(
                f"{name} {'full' if allow_spill else 'spill-free'} "
                f"{rows}x{cols} nnz={form[1].nnz} sha256={form_digest(form)}"
            )
    return "\n".join(lines) + "\n"


def test_models_match_golden(update_goldens):
    text = model_lines()
    if update_goldens:
        GOLDEN_PATH.write_text(text)
        pytest.skip(f"updated {GOLDEN_PATH.name}")
    assert GOLDEN_PATH.exists(), (
        "missing model golden; run pytest with --update-goldens"
    )
    assert text.splitlines() == GOLDEN_PATH.read_text().splitlines(), (
        "an allocation model's standard form drifted from models.golden; "
        "if the change to the ILP layer is intentional, rerun with "
        "--update-goldens and say why"
    )
