"""Shared fixtures for the benchmark harness.

Compiling an application through the ILP takes seconds; every figure
needs the same three compilations, so they are cached per session.
"""

from __future__ import annotations

import pytest

from repro.apps import build_aes_app, build_kasumi_app, build_nat_app
from repro.compiler import CompileOptions, compile_nova
from repro.trace import Tracer

APP_BUILDERS = {
    "AES": build_aes_app,
    "Kasumi": build_kasumi_app,
    "NAT": build_nat_app,
}


@pytest.fixture(autouse=True)
def _benchmark_aware(benchmark):
    """Make every test in benchmarks/ run under ``--benchmark-only``.

    pytest-benchmark skips tests that do not have its fixture in their
    closure; the table tests ARE the paper's figures, so declare the
    dependency for every test in this directory (tests that measure use
    the fixture explicitly; the rest just render their table).
    """
    yield


def compile_app(name: str, one_shot: bool = False):
    """Compile one paper application with tracing enabled.

    Every compile in the benchmark harness runs under a live
    :class:`repro.trace.Tracer`: the Figure 5-7 tables read the recorded
    spans (``comp.trace``) instead of re-deriving the statistics per
    test.  ``one_shot`` solves the paper's one-shot model, whose sizes
    and root-relaxation time Figure 7 tabulates; otherwise the compile
    takes the default (spill-free model first) path users run.
    """
    app = APP_BUILDERS[name]()
    options = CompileOptions()
    options.alloc.solve.time_limit = 900
    if one_shot:
        options.alloc.two_phase = False
        options.alloc.solve.root_relaxation = True
    return app, compile_nova(app.source, options=options, tracer=Tracer())


@pytest.fixture(scope="session")
def compiled_apps():
    """name → (AppBundle, Compilation with the default ILP allocation)."""
    return {name: compile_app(name) for name in APP_BUILDERS}


@pytest.fixture(scope="session")
def one_shot_apps():
    """name → (AppBundle, Compilation of the paper's one-shot model)."""
    return {name: compile_app(name, one_shot=True) for name in APP_BUILDERS}


@pytest.fixture(scope="session")
def virtual_apps():
    """name → (AppBundle, Compilation without allocation) — fast."""
    out = {}
    for name, build in APP_BUILDERS.items():
        app = build()
        options = CompileOptions()
        options.run_allocator = False
        out[name] = (
            app,
            compile_nova(app.source, options=options, tracer=Tracer()),
        )
    return out


def span_counters(comp, name: str) -> dict:
    """Counters of the *last* span called ``name`` in a traced compile.

    "Last" matters when the spill-free model fails and the allocator
    builds the full model: the final ``model``/``solve`` pair is the
    one that produced the allocation.
    """
    assert comp.trace is not None, "compilation was not traced"
    span = comp.trace.last(name)
    assert span is not None, f"no '{name}' span recorded"
    return span.counters


#: Tables rendered during the session, replayed in the terminal summary
#: (so they survive pytest's output capture without needing ``-s``).
_RENDERED_TABLES: list[str] = []


def print_table(title: str, headers: list[str], rows: list[list]) -> None:
    """Render one of the paper's tables to the benchmark output."""
    widths = [
        max(len(str(headers[i])), *(len(str(r[i])) for r in rows))
        for i in range(len(headers))
    ]
    lines = [f"\n== {title} =="]
    lines.append("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    for row in rows:
        lines.append("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
    text = "\n".join(lines)
    print(text)
    _RENDERED_TABLES.append(text)


def pytest_terminal_summary(terminalreporter):
    if not _RENDERED_TABLES:
        return
    terminalreporter.section("paper tables (reproduction)")
    for text in _RENDERED_TABLES:
        terminalreporter.write_line(text)
