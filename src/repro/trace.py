"""``repro.trace`` — structured tracing and metrics for the pipeline.

The paper's whole evaluation (Figures 5-7) is *measured* compiler
behaviour: static program statistics, AMPL/ILP model sizes, CPLEX
root-relaxation vs. integer-optimality times.  This module is the
single place those measurements come from.  Every pipeline phase
records a :class:`Span` — a name, a wall-clock duration, and a flat
dictionary of phase-specific counters (IR sizes, model rows/columns,
solver nodes, per-opcode cycle histograms) — onto a :class:`Tracer`.

Consumers:

- ``novac --trace`` renders the spans as a human-readable table;
- ``novac --trace-json FILE`` writes one JSON object per span per line
  (every subcommand goes through :func:`emit_trace`);
- ``novac --stats`` prints the top-level spans' wall times;
- ``benchmarks/`` derives the Figure 5-7 tables from the same spans.

Tracing is strictly opt-in.  When no tracer is supplied, callers get
:data:`NULL`, whose span handles are falsy no-ops, so instrumented code
pays only an attribute check::

    with tracer.span("optimize") as sp:
        term = run_passes(term)
        if sp:                       # False on the null tracer
            sp.add(term_nodes=expensive_count(term))

Span handles stay usable after their ``with`` block exits (the span is
already recorded; ``add`` mutates its counters in place), which lets a
caller attach summary counters computed from the phase's result.
"""

from __future__ import annotations

import json
import math
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction


@dataclass
class Span:
    """One traced phase: wall time plus phase-specific counters."""

    name: str
    #: seconds since the tracer was created (orders spans for display).
    start: float
    #: wall-clock duration; filled in when the ``with`` block exits.
    seconds: float = 0.0
    #: enclosing span's name, or None at top level.
    parent: str | None = None
    #: nesting depth (0 = top level); purely presentational.
    depth: int = 0
    #: flat metric dict: int/float/str values only (JSON-friendly).
    counters: dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> dict:
        counters = {
            key: (None if isinstance(value, float) and not math.isfinite(value) else value)
            for key, value in self.counters.items()
        }
        return {
            "name": self.name,
            "parent": self.parent,
            "start": round(self.start, 6),
            "seconds": round(self.seconds, 6),
            "counters": counters,
        }


def span_from_dict(data: dict) -> Span:
    """Rebuild a :class:`Span` from :meth:`Span.as_dict` output.

    The inverse used when spans cross a process boundary as JSON (the
    ``novac serve`` daemon ships per-request spans back to the client,
    which adopts them into its local tracer for ``--trace``).  Depth is
    not serialized; :meth:`Tracer.adopt` recomputes the presentation
    shift, so rebuilt spans start at depth 0.
    """
    return Span(
        data["name"],
        start=float(data.get("start", 0.0)),
        seconds=float(data.get("seconds", 0.0)),
        parent=data.get("parent"),
        counters=dict(data.get("counters") or {}),
    )


def log2_bound(value: float) -> int:
    """Smallest power of two >= ``value`` (1 for values <= 1).

    The single definition of the log2 histogram bucketing used by both
    :meth:`SpanHandle.bucket` (trace spans) and
    :meth:`repro.ixp.net.StreamResult.latency_histogram` (run
    summaries), so values <= 1 and exact powers of two land in the same
    bucket everywhere.
    """
    bound = 1
    while bound < value:
        bound <<= 1
    return bound


def nearest_rank(values: list, p: float):
    """Exact nearest-rank percentile of ``values``; -1 when empty.

    The one percentile definition of the package (stream latencies in
    :mod:`repro.ixp.net`, request latencies in :mod:`repro.serve`).  The
    rank ``ceil(n * p / 100)`` is evaluated over
    :class:`~fractions.Fraction` (exact for both int and float ``p``),
    with ``p == 0`` pinned to the minimum — a ``max(1, ...)`` clamp
    would silently alias p=0 onto rank 1, and float multiplication can
    drift the floor-division across a rank boundary.
    """
    if not 0 <= p <= 100:
        raise ValueError(f"percentile must be in [0, 100], got {p}")
    if not values:
        return -1
    ordered = sorted(values)
    if p == 0:
        return ordered[0]
    n = len(ordered)
    scaled = Fraction(p) * n  # exact: Fraction(float) has no rounding
    rank = -(-scaled.numerator // (scaled.denominator * 100))  # ceil
    return ordered[min(n, rank) - 1]


class SpanHandle:
    """Context manager recording one span; truthy iff actually recording."""

    __slots__ = ("_tracer", "span", "_t0")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self.span = span
        self._t0 = time.perf_counter()

    def add(self, **counters: object) -> "SpanHandle":
        """Set (overwrite) counters on the span."""
        self.span.counters.update(counters)
        return self

    def tally(self, key: str, amount: float = 1) -> "SpanHandle":
        """Accumulate into one counter."""
        counters = self.span.counters
        counters[key] = counters.get(key, 0) + amount
        return self

    def bucket(self, key: str, value: float) -> "SpanHandle":
        """Tally ``value`` into a power-of-two histogram counter.

        Records under ``<key>.le_<2^k>`` for the smallest ``2^k >=
        value`` (``<key>.le_1`` for values <= 1), so a span accumulates
        a compact log2 latency/size histogram without the caller
        keeping one.
        """
        return self.tally(f"{key}.le_{log2_bound(value)}")

    def __bool__(self) -> bool:
        return True

    def __enter__(self) -> "SpanHandle":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self.span.seconds = time.perf_counter() - self._t0
        self._tracer._exit_span(self.span)
        return False


class _NullHandle:
    """Falsy do-nothing stand-in for :class:`SpanHandle`."""

    __slots__ = ()
    span = None

    def add(self, **counters: object) -> "_NullHandle":
        return self

    def tally(self, key: str, amount: float = 1) -> "_NullHandle":
        return self

    def bucket(self, key: str, value: float) -> "_NullHandle":
        return self

    def __bool__(self) -> bool:
        return False

    def __enter__(self) -> "_NullHandle":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_HANDLE = _NullHandle()


class Tracer:
    """Collects spans; one per pipeline phase/sub-phase."""

    enabled = True

    def __init__(self) -> None:
        self._epoch = time.perf_counter()
        self.spans: list[Span] = []
        self._stack: list[str] = []

    # -- recording -----------------------------------------------------------

    def span(self, name: str, **counters: object) -> SpanHandle:
        """Open a span; use as ``with tracer.span("parse") as sp:``.

        Spans are appended at entry, so ``self.spans`` is ordered by
        start time; nested calls record their enclosing span as
        ``parent``.
        """
        sp = Span(
            name,
            start=time.perf_counter() - self._epoch,
            parent=self._stack[-1] if self._stack else None,
            depth=len(self._stack),
            counters=dict(counters),
        )
        self.spans.append(sp)
        self._stack.append(name)
        return SpanHandle(self, sp)

    def _exit_span(self, span: Span) -> None:
        self._stack.pop()

    def adopt(self, spans, parent: str | None = None) -> None:
        """Append spans recorded by another tracer (e.g. a pool worker).

        Batch compilation runs each unit under its own tracer — possibly
        in a worker process — and merges the recorded spans back into
        the driver's tracer afterwards.  Top-level foreign spans are
        re-parented under ``parent`` (matched by name against the most
        recent span on this tracer) and every span's depth is shifted so
        the table renders the adopted subtree nested in place.
        """
        shift = 0
        if parent is not None:
            shift = next(
                (s.depth + 1 for s in reversed(self.spans) if s.name == parent),
                0,
            )
        for foreign in spans:
            self.spans.append(
                Span(
                    foreign.name,
                    start=foreign.start,
                    seconds=foreign.seconds,
                    parent=foreign.parent if foreign.parent is not None else parent,
                    depth=foreign.depth + shift,
                    counters=dict(foreign.counters),
                )
            )

    # -- lookup --------------------------------------------------------------

    def all(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def get(self, name: str) -> Span | None:
        """First span with this name (chronological)."""
        for s in self.spans:
            if s.name == name:
                return s
        return None

    def last(self, name: str) -> Span | None:
        """Last span with this name (e.g. the phase-2 solve in two-phase)."""
        for s in reversed(self.spans):
            if s.name == name:
                return s
        return None

    # -- rendering -----------------------------------------------------------

    def table(self) -> str:
        """Human-readable per-phase table (``novac --trace``)."""
        lines = [f"{'phase':<22} {'ms':>10}  counters"]
        for s in self.spans:
            name = "  " * s.depth + s.name
            counters = "  ".join(
                f"{k}={_fmt(v)}" for k, v in sorted(s.counters.items())
            )
            lines.append(f"{name:<22} {s.seconds * 1000:>10.2f}  {counters}")
        return "\n".join(lines)

    def to_jsonl(self) -> str:
        """One JSON object per span per line, in start order."""
        return "\n".join(json.dumps(s.as_dict()) for s in self.spans) + "\n"

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_jsonl())


class NullTracer:
    """The no-op recorder: zero overhead beyond one attribute check."""

    enabled = False
    spans: tuple = ()

    def span(self, name: str, **counters: object) -> _NullHandle:
        return _NULL_HANDLE

    def adopt(self, spans, parent: str | None = None) -> None:
        pass

    def all(self, name: str) -> list:
        return []

    def get(self, name: str) -> None:
        return None

    def last(self, name: str) -> None:
        return None

    def table(self) -> str:
        return ""

    def to_jsonl(self) -> str:
        return ""

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write("")


#: Shared no-op tracer; the default everywhere a tracer is accepted.
NULL = NullTracer()


def ensure(tracer: "Tracer | NullTracer | None") -> "Tracer | NullTracer":
    """Normalize an optional tracer argument."""
    return NULL if tracer is None else tracer


def emit_trace(
    tracer: "Tracer | None", prog: str, table: bool, json_path: str | None
) -> int:
    """A command's ``--trace`` / ``--trace-json`` output, on any exit path.

    Prints the span table when ``table`` and writes the JSON lines to
    ``json_path`` when given; does nothing without a tracer.  Returns
    the exit status this adds: 1, after printing ``<prog>: <error>`` to
    stderr, when the file cannot be written, else 0 — so a command ends
    with ``return emit_trace(...) or code``.
    """
    if tracer is None:
        return 0
    if table:
        print(tracer.table())
    if json_path is not None:
        try:
            tracer.write_jsonl(json_path)
        except OSError as exc:
            print(f"{prog}: {exc}", file=sys.stderr)
            return 1
    return 0


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)
