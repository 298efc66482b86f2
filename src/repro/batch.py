"""``repro.batch`` — compile many Nova programs as one failure-tolerant job.

The paper's compiler is batch-oriented: one program, one multi-second
ILP solve.  This module turns :func:`repro.compiler.compile_nova` into a
throughput-oriented pipeline: :func:`compile_many` fans a list of
sources out over a :class:`concurrent.futures.ProcessPoolExecutor`
(``jobs`` workers; ``jobs=1`` stays in-process), routes every unit
through the content-addressed :class:`repro.cache.CompileCache` when a
cache directory is given, and collects a structured per-unit record —
artifact or error — instead of dying on the first :class:`NovaError`.

Tracing threads through both layers: each unit compiles under its own
:class:`repro.trace.Tracer` (workers ship their spans back as picklable
data) and the driver adopts them under a ``unit`` span nested in the
job-level ``batch`` span, so ``novac --jobs 4 --trace`` renders one
coherent table for the whole job.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.cache import CompileCache, cached_compile
from repro.compiler import Compilation, CompileOptions
from repro.errors import NovaError
from repro.ilp.options import load_solver_stack
from repro.trace import Tracer, ensure


@dataclass
class BatchError:
    """A structured compile failure (picklable, renderable)."""

    kind: str
    message: str
    location: str | None = None

    @staticmethod
    def from_exception(exc: BaseException) -> "BatchError":
        if isinstance(exc, NovaError):
            return BatchError(
                kind=type(exc).__name__,
                message=exc.message,
                location=str(exc.span) if exc.span is not None else None,
            )
        return BatchError(kind=type(exc).__name__, message=str(exc))

    def __str__(self) -> str:
        prefix = f"{self.location}: " if self.location else ""
        return f"{prefix}{self.message} [{self.kind}]"


@dataclass
class BatchUnit:
    """Outcome of compiling one source in the batch."""

    name: str
    ok: bool
    compilation: Compilation | None
    error: BatchError | None
    seconds: float
    #: 'hit' | 'miss' when a cache directory was given, else 'off'.
    cache: str = "off"


@dataclass
class BatchResult:
    units: list[BatchUnit]
    seconds: float
    jobs: int
    cache_stats: dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> list[BatchUnit]:
        return [u for u in self.units if u.ok]

    @property
    def failed(self) -> list[BatchUnit]:
        return [u for u in self.units if not u.ok]

    @property
    def cache_hits(self) -> int:
        return sum(1 for u in self.units if u.cache == "hit")

    @property
    def cache_misses(self) -> int:
        return sum(1 for u in self.units if u.cache == "miss")

    def summary(self) -> dict[str, object]:
        out = {
            "units": len(self.units),
            "ok": len(self.ok),
            "failed": len(self.failed),
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "jobs": self.jobs,
            "seconds": round(self.seconds, 6),
        }
        if self.cache_stats:
            #: full worker-side CacheStats aggregate (hits / misses /
            #: writes / invalidations), not just the per-unit outcomes.
            out["cache"] = dict(self.cache_stats)
        return out


def _normalize(sources: Iterable) -> list[tuple[str, str | None]]:
    """Each source is a path (read lazily in the worker) or (name, text)."""
    items: list[tuple[str, str | None]] = []
    for entry in sources:
        if isinstance(entry, (str, Path)):
            items.append((str(entry), None))
        else:
            name, text = entry
            items.append((str(name), text))
    return items


def _compile_unit(
    name: str,
    text: str | None,
    options: CompileOptions,
    cache_dir: str | None,
    trace: bool,
    keep_artifacts: bool,
) -> tuple[BatchUnit, list, dict]:
    """One unit of work; runs in-process or inside a pool worker.

    Never raises: every failure — unreadable file, any compile-phase
    :class:`NovaError`, even an unexpected internal error — comes back
    as a :class:`BatchError` so the rest of the batch proceeds.

    Returns ``(unit, spans, cache_stats)``; the stats dict carries the
    worker-side :class:`repro.cache.CacheStats` counters so the driver
    can aggregate hits/misses/writes/invalidations across the pool.
    """
    tracer = Tracer() if trace else None
    span_source = ensure(tracer)
    cache = None
    start = time.perf_counter()
    with span_source.span("unit", file=name) as sp:
        try:
            if text is None:
                with open(name) as handle:
                    text = handle.read()
            cache = (
                CompileCache(cache_dir, tracer) if cache_dir is not None else None
            )
            compilation, cache_state = cached_compile(
                text, name, options, cache, tracer
            )
        except Exception as exc:
            unit = BatchUnit(
                name=name,
                ok=False,
                compilation=None,
                error=BatchError.from_exception(exc),
                seconds=time.perf_counter() - start,
            )
            if sp:
                sp.add(outcome=f"error:{unit.error.kind}")
            return (
                unit,
                list(span_source.spans) if tracer else [],
                cache.stats.as_dict() if cache is not None else {},
            )
        unit = BatchUnit(
            name=name,
            ok=True,
            compilation=compilation.slim() if keep_artifacts else None,
            error=None,
            seconds=time.perf_counter() - start,
            cache=cache_state,
        )
        if sp:
            sp.add(outcome="ok", cache=cache_state)
    return (
        unit,
        list(span_source.spans) if tracer else [],
        cache.stats.as_dict() if cache is not None else {},
    )


def default_jobs() -> int:
    return max(1, (os.cpu_count() or 2) - 1)


def scatter(
    worker,
    arg_tuples: Sequence[tuple],
    jobs: int = 1,
    solves: bool = False,
) -> list:
    """Run ``worker(*args)`` for every tuple; results in input order.

    The generic fan-out underneath :func:`compile_many`, also reused by
    both fuzz campaigns (:mod:`repro.fuzz.driver`,
    :mod:`repro.fuzz.netgen`).  ``jobs == 1`` (or a single item) stays
    in-process; otherwise the work is spread over a fresh
    :class:`ProcessPoolExecutor` of at most ``jobs`` forked workers, so
    ``worker`` must be a module-level function and the argument tuples
    picklable.  Workers are expected to catch their own exceptions and
    return structured error records — a raise here propagates and kills
    the whole job.

    ``solves`` says the workers may solve an ILP.  The pool is then
    forked after :func:`~repro.ilp.options.load_solver_stack`, so its
    workers share this process's numpy and scipy pages instead of each
    importing the libraries at its first solve.
    """
    jobs = max(1, int(jobs))
    if jobs == 1 or len(arg_tuples) <= 1:
        return [worker(*args) for args in arg_tuples]
    if solves:
        load_solver_stack()
    with ProcessPoolExecutor(max_workers=min(jobs, len(arg_tuples))) as pool:
        futures = [pool.submit(worker, *args) for args in arg_tuples]
        return [future.result() for future in futures]


def merge_cache_stats(total: dict[str, int], stats: dict[str, int]) -> None:
    """Accumulate one worker's :class:`CacheStats` dict into ``total``."""
    for key, value in stats.items():
        total[key] = total.get(key, 0) + value


def compile_many(
    sources: Sequence,
    jobs: int = 1,
    options: CompileOptions | None = None,
    cache_dir: str | Path | None = None,
    tracer=None,
    keep_artifacts: bool = True,
) -> BatchResult:
    """Compile every source; never raises on a per-unit compile failure.

    ``sources`` mixes file paths and ``(name, source_text)`` pairs.
    ``jobs > 1`` fans units out over a process pool; results come back
    in input order regardless.  With ``keep_artifacts=False`` the
    (potentially large) :class:`Compilation` objects are dropped in the
    workers — the CLI's batch summary only needs the outcome records.
    """
    options = options or CompileOptions()
    tracer = ensure(tracer)
    items = _normalize(sources)
    cache_dir = str(cache_dir) if cache_dir is not None else None
    jobs = max(1, int(jobs))
    start = time.perf_counter()
    with tracer.span("batch", sources=len(items), jobs=jobs) as sp:
        outcomes = scatter(
            _compile_unit,
            [
                (name, text, options, cache_dir, tracer.enabled, keep_artifacts)
                for name, text in items
            ],
            jobs,
            solves=options.run_allocator,
        )
        units = []
        cache_stats: dict[str, int] = {}
        for unit, spans, worker_stats in outcomes:
            units.append(unit)
            tracer.adopt(spans, parent="batch")
            merge_cache_stats(cache_stats, worker_stats)
        seconds = time.perf_counter() - start
        if sp:
            sp.add(
                ok=sum(1 for u in units if u.ok),
                failed=sum(1 for u in units if not u.ok),
                cache_hits=sum(1 for u in units if u.cache == "hit"),
                cache_misses=sum(1 for u in units if u.cache == "miss"),
            )
    return BatchResult(
        units=units, seconds=seconds, jobs=jobs, cache_stats=cache_stats
    )
