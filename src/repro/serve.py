"""``repro.serve`` — the ``novac serve`` persistent compile daemon.

One long-lived process owns what every ad-hoc ``novac`` invocation pays
for from scratch: a shared :class:`repro.cache.CompileCache`, a warm
:class:`~concurrent.futures.ProcessPoolExecutor` of compile workers, a
hot in-memory LRU of rendered responses, and the
:class:`repro.ilp.hints.HintStore` of proven allocation-ILP optima that
answers a cache miss whose ILP it has already solved.  Importing this
module loads neither numpy nor scipy; :meth:`CompileServer.run` loads
them and then forks the workers before it accepts work, so the workers
start with the solver stack imported and a first miss pays no fork.

The daemon is a stdlib-``asyncio`` socket server speaking the
newline-JSON protocol of :mod:`repro.proto` over a Unix socket (or TCP
for tests/containers).  A compile request walks three tiers::

    hot LRU (rendered response, sub-ms; keyed by the request itself)
      → disk cache (unpickle an artifact, a few ms)
        → worker pool (full compile; an allocation ILP solved
          before is answered by its proven optimum)

The hot tier is keyed by the request as sent: source, filename, payload
kind and the canonical JSON of the wire options.  A rendered payload
depends on the filename (a listing's title), which the artifact's key
does not cover, and a hot hit parses no options.  Past the hot tier the
daemon parses the options; the disk and pool tiers are keyed by the
artifact's :func:`repro.cache.cache_key`.  The one thing the daemon adds
to them: allocator compiles get ``hint_dir`` under the cache directory.
A solve looks up only the proven optimum of its identical ILP, which is
what a cold solve returns, so a miss returns the in-process code.  The
field is fingerprint-excluded, so a daemon's cache keys equal
in-process ones and the two share one disk cache.  The solver engine is
the client's (or the default ``highs``).

Failure model: a compile error is a structured per-request failure,
never a daemon exit.  A killed pool worker breaks the whole
``ProcessPoolExecutor`` (stdlib semantics); the daemon answers the
in-flight request with a ``WorkerCrash`` error, rebuilds the pool
(generation-guarded so concurrent requests rebuild once), and the next
request compiles normally.  ``shutdown`` drains: new compiles are
refused, in-flight ones complete, then the listener, pool, and socket
file are torn down.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import multiprocessing
import os
import sys
import time
from bisect import bisect_left, insort
from collections import OrderedDict, deque
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path

from repro.batch import BatchError, default_jobs, merge_cache_stats
from repro.cache import CompileCache
from repro.compiler import Compilation, CompileOptions, compile_nova
from repro.ilp.options import load_solver_stack
from repro.proto import (
    MAX_LINE,
    PAYLOADS,
    ProtocolError,
    decode,
    encode,
    error_response,
    options_from_wire,
)
from repro.trace import Tracer, nearest_rank_index


@dataclass
class ServeConfig:
    """Daemon knobs (mirrors the ``novac serve`` CLI)."""

    socket: str | None = None
    host: str = "127.0.0.1"
    port: int | None = None
    cache_dir: str = ".novac-cache"
    jobs: int = 0  # 0 = default_jobs()
    #: rendered responses kept in the in-memory hot tier.
    hot_entries: int = 64

    def endpoint(self) -> str:
        if self.socket:
            return self.socket
        return f"{self.host}:{self.port}"


# --------------------------------------------------------------------------
# Worker-side compile (module-level: must pickle into the pool)
# --------------------------------------------------------------------------


def _render_payload(
    comp: Compilation, kind: str, filename: str
) -> str | None:
    """Render the artifact form a client asked for (in the worker)."""
    if kind == "none":
        return None
    graph = comp.physical if comp.alloc is not None else comp.flowgraph
    if kind == "listing":
        from repro.ixp.listing import render_listing

        return render_listing(graph, title=filename)
    return graph.pretty()


def _summarize(comp: Compilation) -> dict:
    out: dict[str, object] = {
        "instructions": comp.flowgraph.num_instructions(),
    }
    if comp.alloc is not None:
        obj = comp.alloc
        out["alloc"] = {
            "status": obj.status,
            "moves": obj.moves,
            "spills": obj.spills,
            "variables": obj.variables,
            "constraints": obj.constraints,
            "fallback": obj.fallback,
        }
    return out


def _serve_unit(
    filename: str,
    source: str,
    options: CompileOptions,
    cache_dir: str,
    payload_kind: str,
    trace: bool,
) -> dict:
    """One pooled compile; returns a JSON-able response body.

    The daemon sends a unit here only after its own disk lookup missed,
    so the worker compiles and stores without looking again.  Never
    raises (a raise would poison the future with an arbitrary,
    possibly unpicklable exception): failures come back as the same
    structured error shape :class:`repro.batch.BatchError` gives batch
    units.
    """
    tracer = Tracer() if trace else None
    cache = CompileCache(cache_dir, tracer)
    start = time.perf_counter()
    try:
        comp = compile_nova(source, filename, options, tracer=tracer)
        cache.put(source, options, comp)
        body = {
            "ok": True,
            "cache": "miss",
            "payload": _render_payload(comp, payload_kind, filename),
            "summary": _summarize(comp),
        }
    except Exception as exc:
        err = BatchError.from_exception(exc)
        body = {
            "ok": False,
            "cache": "miss",
            "error": {
                "kind": err.kind,
                "message": err.message,
                "location": err.location,
            },
        }
    body["seconds"] = round(time.perf_counter() - start, 6)
    body["spans"] = (
        [sp.as_dict() for sp in tracer.spans] if tracer is not None else []
    )
    body["cache_stats"] = cache.stats.as_dict()
    return body


def _crash_worker() -> None:
    """Die without cleanup — the testable stand-in for a killed worker."""
    os._exit(1)


def _worker_pid() -> int:
    return os.getpid()


# --------------------------------------------------------------------------
# Metrics
# --------------------------------------------------------------------------


class Metrics:
    """Request counters + the latencies of the last 4096 replies.

    One per client connection and one daemon-wide.  The window is kept
    twice: in arrival order, which says what leaves next, and sorted,
    updated on each :meth:`record` (``O(log n)`` search, one ``memmove``),
    so a reply's percentiles are two index reads, not a sort of the
    whole window.
    """

    def __init__(self) -> None:
        self.requests = 0
        self.hits = 0
        self.misses = 0
        self.errors = 0
        self.latencies_ms: deque[float] = deque(maxlen=4096)
        self.sorted_ms: list[float] = []

    def record(self, ms: float, cache: str, ok: bool) -> None:
        self.requests += 1
        window = self.latencies_ms
        if len(window) == window.maxlen:
            # The append below evicts window[0]; any equal value stands
            # in for it in the sorted copy.
            del self.sorted_ms[bisect_left(self.sorted_ms, window[0])]
        window.append(ms)
        insort(self.sorted_ms, ms)
        if not ok:
            self.errors += 1
        elif cache in ("hot", "hit"):
            self.hits += 1
        elif cache == "miss":
            self.misses += 1

    def _percentile(self, p: float) -> float:
        """Nearest-rank ``p``-th percentile in ms; 0.0 before any reply."""
        ordered = self.sorted_ms
        if not ordered:
            return 0.0
        return ordered[nearest_rank_index(len(ordered), p)]

    def snapshot(self) -> dict:
        return {
            "requests": self.requests,
            "hits": self.hits,
            "misses": self.misses,
            "errors": self.errors,
            "p50_ms": round(self._percentile(50), 3),
            "p95_ms": round(self._percentile(95), 3),
        }


# --------------------------------------------------------------------------
# The server
# --------------------------------------------------------------------------


class CompileServer:
    """The asyncio daemon; ``asyncio.run(CompileServer(cfg).run())``."""

    def __init__(self, config: ServeConfig):
        if not config.socket and config.port is None:
            raise ValueError("serve needs --socket or --port")
        self.config = config
        self.jobs = config.jobs or default_jobs()
        self.cache_root = Path(config.cache_dir)
        self.cache = CompileCache(self.cache_root)
        self.hint_dir = self.cache_root / "hints"
        #: rendered responses keyed by (source, filename, payload kind,
        #: canonical wire options); OrderedDict as LRU.
        self.hot: OrderedDict[tuple[str, str, str, str], dict] = OrderedDict()
        self.metrics = Metrics()
        self.worker_cache_stats: dict[str, int] = {}
        self.pool_restarts = 0
        self._pool: ProcessPoolExecutor | None = None
        self._pool_generation = 0
        self._inflight = 0
        self._draining = False
        self._stop: asyncio.Event | None = None
        self._writers: set[asyncio.StreamWriter] = set()

    # -- pool lifecycle ------------------------------------------------------

    def _make_pool(self) -> ProcessPoolExecutor:
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # platforms without fork
            ctx = multiprocessing.get_context()
        return ProcessPoolExecutor(max_workers=self.jobs, mp_context=ctx)

    @property
    def pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = self._make_pool()
        return self._pool

    def _rebuild_pool(self, generation: int) -> None:
        """Replace a broken pool exactly once per breakage.

        All request handlers share the event-loop thread and there is no
        ``await`` between the generation check and the swap, so two
        handlers observing the same broken generation still rebuild
        once.
        """
        if generation != self._pool_generation:
            return  # someone already rebuilt it
        broken, self._pool = self._pool, self._make_pool()
        self._pool_generation += 1
        self.pool_restarts += 1
        if broken is not None:
            broken.shutdown(wait=False)

    def worker_pids(self) -> list[int]:
        processes = getattr(self.pool, "_processes", None) or {}
        return sorted(processes.keys())

    # -- request handling ----------------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        client = Metrics()
        self._writers.add(writer)
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ValueError, asyncio.LimitOverrunError):
                    writer.write(
                        encode(
                            error_response(
                                "?", "ProtocolError", "request line too long"
                            )
                        )
                    )
                    await writer.drain()
                    break
                if not line:
                    break
                start = time.perf_counter()
                try:
                    request = decode(line)
                except ProtocolError as exc:
                    response = error_response("?", "ProtocolError", str(exc))
                else:
                    response = await self._dispatch(request, client)
                ms = (time.perf_counter() - start) * 1000
                op = response.get("op", "?")
                if op in ("compile", "batch"):
                    cache = response.get("cache", "miss")
                    ok = bool(response.get("ok"))
                    client.record(ms, cache, ok)
                    self.metrics.record(ms, cache, ok)
                    response["server"] = {"ms": round(ms, 3), **client.snapshot()}
                    response.setdefault("spans", []).append(
                        {
                            "name": "serve.request",
                            "parent": None,
                            "start": 0.0,
                            "seconds": round(ms / 1000, 6),
                            "counters": {"op": op, "cache": cache, "ok": ok},
                        }
                    )
                writer.write(encode(response))
                await writer.drain()
                if op == "shutdown" and response.get("ok"):
                    # Response is on the wire; now stop the listener.
                    assert self._stop is not None
                    self._stop.set()
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _dispatch(self, request: dict, client: Metrics) -> dict | None:
        op = request.get("op")
        request_id = request.get("id")
        try:
            if op == "ping":
                return {"ok": True, "op": "ping", "pid": os.getpid()}
            if op == "stats":
                return self._stats_response()
            if op == "compile":
                return await self._guarded(self._compile_one(request), op, request_id)
            if op == "batch":
                return await self._guarded(self._batch(request), op, request_id)
            if op == "crash-worker":
                return await self._crash_worker_op()
            if op == "shutdown":
                return await self._shutdown(request)
            return error_response(
                str(op), "ProtocolError", f"unknown op {op!r}", request_id=request_id
            )
        except ProtocolError as exc:
            return error_response(str(op), "ProtocolError", str(exc), request_id=request_id)
        except Exception as exc:  # daemon must not die on a bad request
            err = BatchError.from_exception(exc)
            return error_response(
                str(op), err.kind, err.message, err.location, request_id=request_id
            )

    async def _guarded(self, coro, op: str, request_id) -> dict:
        """Run a compile-class op inside drain/inflight accounting."""
        if self._draining:
            coro.close()
            return error_response(
                op, "Draining", "daemon is shutting down", request_id=request_id
            )
        self._inflight += 1
        try:
            response = await coro
        finally:
            self._inflight -= 1
        if request_id is not None:
            response["id"] = request_id
        return response

    # -- compile -------------------------------------------------------------

    async def _compile_one(self, request: dict) -> dict:
        source = request.get("source")
        if not isinstance(source, str):
            raise ProtocolError("compile needs a string 'source'")
        filename = str(request.get("filename", "<remote>"))
        payload_kind = request.get("payload", "pretty")
        if payload_kind not in PAYLOADS:
            raise ProtocolError(f"payload must be one of {PAYLOADS}")
        hot_key = (
            source,
            filename,
            payload_kind,
            json.dumps(
                request.get("options") or {},
                sort_keys=True,
                separators=(",", ":"),
            ),
        )
        hot = self.hot.get(hot_key)
        if hot is not None:
            self.hot.move_to_end(hot_key)
            return {
                "ok": True,
                "op": "compile",
                "cache": "hot",
                "payload": hot["payload"],
                "summary": hot["summary"],
                "seconds": 0.0,
                "spans": [],
            }

        want_trace = bool(request.get("trace"))
        options = options_from_wire(request.get("options"))
        # Past the hot tier, an allocator compile may solve: give it the
        # store of proven optima.  The field is fingerprint-excluded, so
        # the cache key stays the artifact's key.
        if options.run_allocator:
            options.alloc.solve.hint_dir = str(self.hint_dir)
        # Disk tier: unpickling a slim artifact is a few ms, but off the
        # event loop anyway so a large listing render can't stall other
        # clients.
        body = await asyncio.to_thread(
            self._disk_hit, source, options, payload_kind, filename
        )
        if body is None:
            body = await self._pool_compile(
                filename, source, options, payload_kind, want_trace
            )
        body["op"] = "compile"
        if body.get("ok"):
            self._remember(hot_key, body)
        return body

    def _disk_hit(
        self, source, options, payload_kind, filename
    ) -> dict | None:
        comp = self.cache.get(source, options)
        if comp is None:
            return None
        return {
            "ok": True,
            "cache": "hit",
            "payload": _render_payload(comp, payload_kind, filename),
            "summary": _summarize(comp),
            "seconds": 0.0,
            "spans": [],
        }

    async def _pool_compile(
        self, filename, source, options, payload_kind, want_trace
    ) -> dict:
        generation = self._pool_generation
        future = self.pool.submit(
            _serve_unit,
            filename,
            source,
            options,
            str(self.cache_root),
            payload_kind,
            want_trace,
        )
        try:
            body = await asyncio.wrap_future(future)
        except BrokenProcessPool:
            self._rebuild_pool(generation)
            return error_response(
                "compile",
                "WorkerCrash",
                "a compile worker died; the pool was restarted",
            )
        merge_cache_stats(self.worker_cache_stats, body.pop("cache_stats", {}))
        return body

    def _remember(self, key: tuple[str, str, str, str], body: dict) -> None:
        self.hot[key] = {
            "payload": body.get("payload"),
            "summary": body.get("summary"),
        }
        self.hot.move_to_end(key)
        while len(self.hot) > self.config.hot_entries:
            self.hot.popitem(last=False)

    # -- batch ---------------------------------------------------------------

    async def _batch(self, request: dict) -> dict:
        units = request.get("units")
        if not isinstance(units, list) or not units:
            raise ProtocolError("batch needs a non-empty 'units' list")
        shared = {
            "options": request.get("options"),
            "payload": request.get("payload", "none"),
            "trace": request.get("trace", False),
        }
        bodies = await asyncio.gather(
            *(
                self._compile_one({**shared, **unit})
                for unit in units
                if isinstance(unit, dict)
            )
        )
        ok = sum(1 for b in bodies if b.get("ok"))
        hits = sum(1 for b in bodies if b.get("cache") in ("hot", "hit"))
        # ok is protocol-level: the batch ran.  Per-unit failures live in
        # each unit body, mirroring local BatchResult semantics.
        return {
            "ok": True,
            "op": "batch",
            "cache": "hit" if hits == len(bodies) else "miss",
            "units": list(bodies),
            "summary": {
                "units": len(bodies),
                "ok": ok,
                "failed": len(bodies) - ok,
                "cache_hits": hits,
                "cache_misses": len(bodies) - hits,
            },
        }

    # -- operational ops -----------------------------------------------------

    def _stats_response(self) -> dict:
        merged = dict(self.cache.stats.as_dict())
        merge_cache_stats(merged, self.worker_cache_stats)
        return {
            "ok": True,
            "op": "stats",
            "cache": merged,
            "hot_entries": len(self.hot),
            "jobs": self.jobs,
            "pool_restarts": self.pool_restarts,
            "workers": self.worker_pids(),
            "clients": self.metrics.snapshot(),
            "draining": self._draining,
        }

    async def _crash_worker_op(self) -> dict:
        """Kill one worker (hard exit) and report the structured failure."""
        generation = self._pool_generation
        future = self.pool.submit(_crash_worker)
        try:
            await asyncio.wrap_future(future)
        except BrokenProcessPool:
            self._rebuild_pool(generation)
            return error_response(
                "crash-worker",
                "WorkerCrash",
                "worker killed; the pool was restarted",
            )
        return error_response(
            "crash-worker", "ServeError", "worker unexpectedly survived"
        )

    async def _shutdown(self, request: dict) -> dict:
        """Drain: refuse new compiles, finish in-flight ones, then stop."""
        self._draining = True
        while self._inflight > 0:
            await asyncio.sleep(0.01)
        # The connection handler sets the stop event *after* this
        # response has been written and drained — a shutdown reply must
        # never race the listener teardown.
        return {"ok": True, "op": "shutdown", "drained": True}

    # -- lifecycle -----------------------------------------------------------

    async def run(self) -> None:
        """Serve until a ``shutdown`` request; then tear everything down."""
        self._stop = asyncio.Event()
        # Load the solver stack, then fork the workers before accepting
        # work: with the fork context the first submit starts every
        # worker, so a first miss pays a compile, not jobs × fork + import.
        load_solver_stack()
        await asyncio.wrap_future(self.pool.submit(_worker_pid))
        if self.config.socket:
            path = Path(self.config.socket)
            if path.exists():
                path.unlink()
            server = await asyncio.start_unix_server(
                self._handle_client, path=str(path), limit=MAX_LINE
            )
        else:
            server = await asyncio.start_server(
                self._handle_client,
                host=self.config.host,
                port=self.config.port,
                limit=MAX_LINE,
            )
            if self.config.port == 0:
                self.config.port = server.sockets[0].getsockname()[1]
        print(
            f"novac-serve: listening on {self.config.endpoint()} "
            f"(jobs={self.jobs}, cache={self.cache_root})",
            flush=True,
        )
        try:
            async with server:
                await self._stop.wait()
        finally:
            server.close()
            await server.wait_closed()
            for writer in list(self._writers):
                writer.close()
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None
            if self.config.socket:
                try:
                    os.unlink(self.config.socket)
                except OSError:
                    pass


def serve_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="novac serve",
        description="persistent compile daemon (shared cache + warm pool)",
    )
    parser.add_argument("--socket", metavar="PATH", help="Unix socket path")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, metavar="N", help="TCP port (0 = ephemeral)"
    )
    parser.add_argument(
        "--cache-dir", default=".novac-cache", metavar="DIR",
        help="compile cache directory (default .novac-cache)",
    )
    parser.add_argument(
        "--jobs", type=int, default=0, metavar="N",
        help="pool workers (default: cores - 1)",
    )
    parser.add_argument(
        "--hot", type=int, default=64, metavar="N",
        help="rendered responses kept in memory (default 64)",
    )
    args = parser.parse_args(argv)
    if not args.socket and args.port is None:
        parser.error("one of --socket or --port is required")
    config = ServeConfig(
        socket=args.socket,
        host=args.host,
        port=args.port,
        cache_dir=args.cache_dir,
        jobs=args.jobs,
        hot_entries=args.hot,
    )
    try:
        asyncio.run(CompileServer(config).run())
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    sys.exit(serve_main())
