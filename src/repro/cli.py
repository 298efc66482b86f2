"""``novac`` — command-line front end for the Nova compiler.

Usage::

    novac program.nova              # compile, print physical code
    novac --virtual program.nova    # stop before register allocation
    novac --stats program.nova      # print per-phase statistics
    novac --cps program.nova        # dump the optimized CPS term
    novac --jobs 4 a.nova b.nova    # batch-compile over a process pool
    novac --cache-dir .cache *.nova # content-addressed compile cache
    novac fuzz --seed 0 --count 200 # differential fuzzing campaign
    novac fuzz --net --count 100    # streaming-scenario fuzzing campaign
    novac pump --app nat            # whole-chip packet streaming (6x4)
    novac serve --socket /tmp/n.sock --cache-dir .cache  # compile daemon
    novac --connect /tmp/n.sock program.nova  # compile via the daemon
    novac client --socket /tmp/n.sock --stats # daemon introspection

With more than one source file ``novac`` switches to batch mode: every
file is compiled (failures don't stop the rest), a one-line outcome per
file plus a job summary is printed, and the exit status is 1 iff any
unit failed.  ``--cache-dir`` also works for single compiles.

``novac pump`` lives here too (:func:`pump_main`); the streaming
runtime it drives is :mod:`repro.ixp.net`.  ``fuzz``, ``serve`` and
``client`` parse their own options in :mod:`repro.fuzz.driver`,
:mod:`repro.serve` and :mod:`repro.client`.
"""

from __future__ import annotations

import argparse
import sys

from repro.cache import CompileCache, cached_compile
from repro.compiler import CompileOptions
from repro.cps import ir
from repro.errors import NovaError
from repro.trace import Tracer, emit_trace


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "fuzz":
        from repro.fuzz.driver import fuzz_main

        return fuzz_main(argv[1:])
    if argv and argv[0] == "pump":
        return pump_main(argv[1:])
    if argv and argv[0] == "serve":
        from repro.serve import serve_main

        return serve_main(argv[1:])
    if argv and argv[0] == "client":
        from repro.client import client_main

        return client_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="novac", description="Nova → IXP1200 compiler"
    )
    parser.add_argument(
        "sources", nargs="+", metavar="source", help="Nova source file(s)"
    )
    parser.add_argument(
        "--virtual",
        action="store_true",
        help="stop after instruction selection (skip the ILP allocator)",
    )
    parser.add_argument(
        "--cps", action="store_true", help="dump the optimized CPS term"
    )
    parser.add_argument(
        "--stats", action="store_true", help="print compilation statistics"
    )
    parser.add_argument(
        "--one-shot",
        action="store_true",
        help=(
            "solve the paper's one-shot allocation model instead of the "
            "spill-free model first"
        ),
    )
    parser.add_argument(
        "--listing",
        action="store_true",
        help="print IXP assembler-style output instead of the IR form",
    )
    parser.add_argument(
        "--run",
        metavar="INPUTS",
        help=(
            "execute main on the simulator with comma-separated inputs, "
            "e.g. --run 'base=64,n=4' (values may be hex)"
        ),
    )
    parser.add_argument(
        "--threads",
        type=int,
        default=1,
        help="hardware threads for --run (default 1)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="compile N sources concurrently over a process pool",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="content-addressed compile cache directory",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="print a per-phase span table (wall time + counters)",
    )
    parser.add_argument(
        "--trace-json",
        metavar="FILE",
        help="write the trace as JSON lines, one span per line",
    )
    parser.add_argument(
        "--connect",
        metavar="ENDPOINT",
        help=(
            "compile via a novac serve daemon (Unix socket path or "
            "host:port); falls back to in-process when unreachable"
        ),
    )
    args = parser.parse_args(argv)

    # --stats reports this run's top-level spans: the compiler's only clock.
    tracer = (
        Tracer()
        if (args.trace or args.stats or args.trace_json is not None)
        else None
    )
    if len(args.sources) > 1:
        code = _batch_main(args, tracer)
    else:
        code = _single_main(args, tracer)
    return emit_trace(tracer, "novac", args.trace, args.trace_json) or code


def _make_options(args) -> CompileOptions:
    options = CompileOptions()
    options.run_allocator = not args.virtual
    if args.one_shot:
        options.alloc.two_phase = False
    return options


def _remote_client(args):
    """A live daemon connection for --connect, or None (with a notice).

    Output modes the daemon cannot serve (--cps needs the CPS IR,
    --run and --stats need the full artifact) also compile locally.
    """
    if args.connect is None:
        return None
    if args.cps or args.stats or args.run is not None:
        print(
            "novac: --cps/--stats/--run need the full artifact; "
            "compiling in-process",
            file=sys.stderr,
        )
        return None
    from repro.client import try_connect

    client = try_connect(args.connect)
    if client is None:
        print(
            f"novac: no daemon at {args.connect}; compiling in-process",
            file=sys.stderr,
        )
    return client


def _adopt_remote_spans(tracer, body) -> None:
    if tracer is None or not body.get("spans"):
        return
    from repro.trace import span_from_dict

    tracer.adopt([span_from_dict(sp) for sp in body["spans"]])


def _single_main(args, tracer) -> int:
    source_path = args.sources[0]
    try:
        with open(source_path) as handle:
            source = handle.read()
    except OSError as exc:
        print(f"novac: {exc}", file=sys.stderr)
        return 1

    client = _remote_client(args)
    if client is not None:
        from repro.client import ServeError

        with client:
            try:
                body = client.compile_source(
                    source,
                    filename=source_path,
                    options=_make_options(args),
                    payload="listing" if args.listing else "pretty",
                    trace=tracer is not None,
                )
            except ServeError as exc:
                print(f"novac: {exc}", file=sys.stderr)
                return 1
        _adopt_remote_spans(tracer, body)
        if body.get("payload"):
            print(body["payload"], end="")
        return 0

    cache = (
        CompileCache(args.cache_dir, tracer)
        if args.cache_dir is not None
        else None
    )
    try:
        result, _ = cached_compile(
            source, source_path, _make_options(args), cache, tracer
        )
    except NovaError as exc:
        # The spans recorded before the failing phase (parse, typecheck,
        # ...) still flush — main() renders/writes the tracer on every
        # exit path — so --trace-json keeps its diagnostic value.
        print(f"novac: {exc}", file=sys.stderr)
        return 1

    return _render(result, args, tracer)


def _batch_main(args, tracer) -> int:
    from repro.batch import compile_many

    for flag in ("cps", "run", "listing"):
        if getattr(args, flag):
            print(
                f"novac: --{flag} requires a single source file",
                file=sys.stderr,
            )
            return 2

    client = _remote_client(args)
    if client is not None:
        return _remote_batch(args, tracer, client)

    result = compile_many(
        args.sources,
        jobs=args.jobs,
        options=_make_options(args),
        cache_dir=args.cache_dir,
        tracer=tracer,
        keep_artifacts=False,
    )
    for unit in result.units:
        if unit.ok:
            cache = f", cache {unit.cache}" if unit.cache != "off" else ""
            print(f"{unit.name}: ok ({unit.seconds:.2f}s{cache})")
        else:
            print(f"{unit.name}: error: {unit.error}")
    summary = result.summary()
    print(
        f"batch: {summary['ok']}/{summary['units']} ok in "
        f"{summary['seconds']:.2f}s (jobs={summary['jobs']}, "
        f"cache {summary['cache_hits']} hits / "
        f"{summary['cache_misses']} misses)"
    )
    stats = summary.get("cache")
    if stats:
        rendered = "  ".join(
            f"{key}={value}" for key, value in sorted(stats.items())
        )
        print(f"cache stats: {rendered}")
    return 0 if not result.failed else 1


def _remote_batch(args, tracer, client) -> int:
    """Batch compile through a novac serve daemon (--connect).

    Sources are read client-side and shipped as text — the daemon need
    not share a filesystem with the caller.  An unreadable file is a
    failed unit, not a fatal error, matching local batch semantics.
    """
    from repro.client import ServeError

    units = []
    unreadable = []
    for path in args.sources:
        try:
            with open(path) as handle:
                units.append((path, handle.read()))
        except OSError as exc:
            unreadable.append((path, str(exc)))
    failed = len(unreadable)
    for path, message in unreadable:
        print(f"{path}: error: {message} [OSError]")
    response = None
    if units:
        with client:
            try:
                response = client.batch(
                    units,
                    options=_make_options(args),
                    trace=tracer is not None,
                )
            except ServeError as exc:
                print(f"novac: {exc}", file=sys.stderr)
                return 1
    hits = misses = 0
    if response is not None:
        for (path, _), body in zip(units, response["units"]):
            _adopt_remote_spans(tracer, body)
            if body.get("ok"):
                print(
                    f"{path}: ok ({body.get('seconds', 0.0):.2f}s, "
                    f"cache {body.get('cache')})"
                )
            else:
                error = body.get("error") or {}
                location = error.get("location")
                prefix = f"{location}: " if location else ""
                print(
                    f"{path}: error: {prefix}{error.get('message')} "
                    f"[{error.get('kind')}]"
                )
                failed += 1
        summary = response.get("summary", {})
        hits = summary.get("cache_hits", 0)
        misses = summary.get("cache_misses", 0)
    total = len(args.sources)
    print(
        f"batch: {total - failed}/{total} ok via {args.connect} "
        f"(cache {hits} hits / {misses} misses)"
    )
    return 0 if not failed else 1


def _render(result, args, tracer) -> int:
    """The output mode switch (everything after a successful compile)."""
    if args.cps:
        print(ir.pretty(result.ssu.term), end="")
        return 0
    if args.stats:
        stats = result.source_stats
        print(f"lines: {stats.line_count}  layouts: {stats.layouts}")
        print(
            f"packs: {stats.packs}  unpacks: {stats.unpacks}  "
            f"raises: {stats.raises}  handles: {stats.handles}"
        )
        print(f"instructions: {result.flowgraph.num_instructions()}")
        print(f"temporaries: {len(result.flowgraph.temps())}")
        for span in tracer.spans:
            if span.depth == 0:
                print(f"  {span.name:10s} {span.seconds * 1000:8.1f} ms")
        if result.alloc is not None:
            # The CLI cannot ask for the root-relaxation LP: it runs only
            # where the allocator picks it, so its time is left out.
            row = result.alloc.figure7_row()
            del row["root_time_s"]
            print(
                "ILP: "
                + "  ".join(f"{key}={value}" for key, value in row.items())
            )
        return 0
    if args.run is not None:
        return _run_program(result, args, tracer)

    graph = result.physical if result.alloc is not None else result.flowgraph
    if args.listing:
        from repro.ixp.listing import render_listing

        print(render_listing(graph, title=args.sources[0]), end="")
    else:
        print(graph.pretty(), end="")
    return 0


def _run_program(result, args, tracer=None) -> int:
    """Execute the compiled program on the simulator (--run)."""
    from repro.alloc.decode import place_inputs
    from repro.ixp.machine import CLOCK_MHZ, Machine
    from repro.ixp.memory import MemorySystem

    try:
        values = {}
        if args.run.strip():
            for piece in args.run.split(","):
                name, _, text = piece.partition("=")
                values[name.strip()] = int(text.strip(), 0)
        raw = result.make_inputs(**values)
    except (ValueError, KeyError) as exc:
        print(f"novac: bad --run inputs: {exc}", file=sys.stderr)
        return 1

    memory = MemorySystem.create()
    if result.alloc is not None:
        graph = result.physical
        inputs = place_inputs(result.alloc.decoded.input_locations, raw, memory)
        physical = True
    else:
        graph, inputs, physical = result.flowgraph, raw, False

    machine = Machine(
        graph,
        memory=memory,
        threads=args.threads,
        physical=physical,
        input_provider=lambda tid, it: dict(inputs) if it == 0 else None,
        tracer=tracer,
    )
    run = machine.run()
    for tid, halt_values in run.results:
        rendered = ", ".join(f"{v:#x}" for v in halt_values)
        print(f"thread {tid}: ({rendered})")
    microseconds = run.cycles / CLOCK_MHZ
    print(
        f"{run.cycles} cycles ({microseconds:.2f} us at {CLOCK_MHZ} MHz), "
        f"{run.instructions} instructions"
    )
    return 0


def pump_main(argv: list[str]) -> int:
    """``novac pump``: stream a Section 11 app through the whole chip."""
    from repro.ixp.machine import SIM_MODES
    from repro.ixp.net import ARRIVAL_MODES, STEER_MODES

    parser = argparse.ArgumentParser(
        prog="novac pump",
        description="drive a Section 11 app with a synthetic packet stream",
    )
    parser.add_argument("--app", choices=("aes", "kasumi", "nat"), required=True)
    parser.add_argument("--engines", type=int, default=6,
                        help="micro-engines per chip (default 6, the paper's "
                             "full chip)")
    parser.add_argument("--threads", type=int, default=4)
    parser.add_argument("--steer", choices=STEER_MODES, default="flow",
                        help="dispatch policy: flow-hash or round-robin")
    parser.add_argument("--packets", type=int, default=64)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rx", type=int, default=32, metavar="N",
                        help="per-engine RX ring capacity (default 32)")
    parser.add_argument("--tx", type=int, default=32, metavar="N",
                        help="TX ring capacity (default 32)")
    parser.add_argument("--arrival", choices=ARRIVAL_MODES,
                        default="poisson")
    parser.add_argument("--gap", type=float, default=64.0,
                        help="mean cycles between bursts (default 64)")
    parser.add_argument("--burst", type=int, default=1)
    parser.add_argument("--sink-gap", type=int, default=0,
                        help="cycles between TX drains (default 0 = line rate)")
    parser.add_argument("--cycles", type=int, default=None,
                        help="stop after this many cycles (default: packet budget)")
    parser.add_argument("--payload-bytes", default=None, metavar="CSV",
                        help="payload-size choices, e.g. 16,32,64")
    parser.add_argument("--virtual", action="store_true",
                        help="skip the ILP allocator (fast smoke runs)")
    parser.add_argument("--sim-mode", choices=SIM_MODES, default="compiled",
                        help="simulator tier for the engines: generated "
                             "code (default) or the reference interpreter")
    parser.add_argument("--cache-dir", metavar="DIR",
                        help="content-addressed compile cache directory")
    parser.add_argument("--trace", action="store_true",
                        help="print the span table (includes net.* spans)")
    parser.add_argument("--trace-json", metavar="FILE",
                        help="write spans as JSON lines")
    args = parser.parse_args(argv)

    sizes = None
    if args.payload_bytes:
        sizes = tuple(int(piece, 0) for piece in args.payload_bytes.split(","))
    tracer = Tracer() if (args.trace or args.trace_json) else None
    code = _pump(args, sizes, tracer)
    return emit_trace(tracer, "novac pump", args.trace, args.trace_json) or code


def _pump(args, sizes, tracer) -> int:
    """Compile and stream for :func:`pump_main`; returns the exit status
    (the caller then renders the trace, whatever the outcome)."""
    from repro.errors import SimulatorError
    from repro.ixp.net import NetConfig, compile_app, run_stream, stream_app

    try:
        comp = compile_app(args.app, args.virtual, args.cache_dir, tracer)
    except NovaError as exc:
        print(f"novac pump: {exc}", file=sys.stderr)
        return 1

    config = NetConfig(
        engines=args.engines,
        threads=args.threads,
        rx_capacity=args.rx,
        tx_capacity=args.tx,
        packets=args.packets,
        max_cycles=args.cycles,
        seed=args.seed,
        arrival=args.arrival,
        mean_gap=args.gap,
        burst=args.burst,
        sink_gap=args.sink_gap,
        steer=args.steer,
        sim_mode=args.sim_mode,
    )
    mode = "virtual" if args.virtual else "physical"

    try:
        result = run_stream(stream_app(args.app, comp, sizes), config, tracer)
    except (SimulatorError, ValueError) as exc:
        print(f"novac pump: {exc}", file=sys.stderr)
        return 1

    summary = result.summary()
    print(f"pump {args.app} ({mode}, {args.sim_mode})")
    for key in (
        "engines", "threads", "generated", "completed", "dropped",
        "inflight", "mismatches", "cycles", "mbps", "latency_p50",
        "latency_p95", "latency_max", "rx_high_water", "tx_high_water",
    ):
        print(f"  {key:<14} {summary[key]}")
    if result.truncated:
        print("  (truncated by --cycles budget)")
    hist = result.latency_histogram()
    if hist:
        widest = max(hist.values())
        print("  latency histogram (cycles):")
        for bound, count in hist.items():
            bar = "#" * max(1, round(count * 40 / widest))
            print(f"    <= {bound:<10d} {count:>5d} {bar}")
    if result.mismatches:
        for mismatch in result.mismatches[:5]:
            print(
                f"novac pump: packet {mismatch['packet']} mismatched the "
                "reference implementation",
                file=sys.stderr,
            )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
