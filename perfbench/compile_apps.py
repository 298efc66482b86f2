"""``compile``: cold in-process compiles of AES, Kasumi and NAT.

One pass compiles the three Section 11 applications one after another
with default ``CompileOptions`` (HiGHS, no cache).  Every compile must
end with an optimal ILP solve and no fallback, and its program must
process a handful of seeded packets exactly like the reference
implementation (``repro.apps.refimpl``).

A run makes ``PASSES`` passes, and an app's time is its fastest
compile.  The pass count is fixed, not fitted to ``--seconds``, so every
commit is judged on the same number of samples.

Compiles are timed in raw CPU seconds, not scaled by
:class:`common.HostSpeed`.  A compile takes seconds of single-threaded
work, over which the host's fast and slow moments average out: over
five runs its CPU time varied by 6%, while yardsticks taken between the
compiles varied by 25% even at three quarters of a second each, so
scaling added more noise than it took out.  What is left is one-sided
(a busy host only adds time), which the fastest of the passes filters.
"""

from __future__ import annotations

import time

from common import APPS, app_source, compile_layers, fresh_setup

CHECK_PACKETS = 8
PASSES = 2


def _check(app: str, comp, seed: int) -> int:
    """Failures of one compile: solver status and a short stream."""
    from repro.ixp.net import NetConfig, run_stream, stream_app

    failed = 0
    if comp.alloc.status != "optimal" or comp.alloc.fallback is not None:
        failed += 1
    result = run_stream(
        stream_app(app, comp), NetConfig(packets=CHECK_PACKETS, seed=seed)
    )
    failed += len(result.mismatches) + CHECK_PACKETS - result.completed
    return failed


def _pass(sources, seed: int, tracer_factory=None):
    """Compile every app in ``sources`` once.

    Returns (per-app CPU seconds, failures, per-app span dicts).
    """
    from repro.compiler import compile_nova

    seconds, failed, spans = {}, 0, {}
    for app in sources:
        tracer = tracer_factory() if tracer_factory else None
        start = time.process_time()
        comp = compile_nova(sources[app], f"{app}.nova", tracer=tracer)
        seconds[app] = time.process_time() - start
        if tracer is not None:
            spans[app] = [span.as_dict() for span in tracer.spans]
        failed += _check(app, comp, seed)
    return seconds, failed, spans


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    sources = {app: app_source(app) for app in APPS}
    if trace:
        return _run_traced(sources, seed)
    setup = fresh_setup(
        "from common import APPS, app_source\n"
        "import repro.compiler\n"
        "[app_source(app) for app in APPS]"
    )
    passes = [_pass(sources, seed) for _ in range(PASSES)]
    times = {app: min(p[0][app] for p in passes) for app in APPS}
    work = sum(times.values())
    metrics = {
        "setup_s": setup,
        "work_s": work,
        # Derived: the mean compile, so it moves only with work_s.
        "op_ms": work * 1000 / len(APPS),
    }
    return {
        "metrics": metrics,
        "attempted": len(APPS) * PASSES,
        "failed": sum(p[1] for p in passes),
        "samples": {"compile_cpu_s": [p[0] for p in passes]},
    }


def _run_traced(sources, seed: int) -> dict:
    """A traced pass; per-layer metrics per app.

    The tracing overhead is measured on NAT, the shortest compile, so a
    traced run stays well inside its time limit on a slow host.
    """
    from repro.trace import Tracer

    plain, failed, _ = _pass({"nat": sources["nat"]}, seed)
    times, bad, spans = _pass(sources, seed, Tracer)
    metrics = {}
    for app in APPS:
        metrics.update(compile_layers(app, spans[app]))
    metrics["trace.overhead_frac"] = times["nat"] / plain["nat"] - 1
    return {"metrics": metrics, "attempted": len(APPS) + 1, "failed": failed + bad}
