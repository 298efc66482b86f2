"""``serve-edit``: one client's edit session against a fresh daemon.

A ``novac serve --jobs 1`` daemon starts with an empty cache and hint
directory.  One closed-loop client then sends:

1. cold misses for NAT and the three ``examples/*.nova`` programs;
2. NAT again with one allocator knob changed (the solver time limit),
   a miss that the daemon warm-starts from its ``HintStore``;
3. hot hits over all five requests, in seeded order, for the rest of
   the run.

Every response's summary (instructions, moves, spills) must equal an
in-process compile with the same options; misses must be misses and
hits must come from the hot tier.  The daemon must not grow during the
hot phase, must drain with exit status 0 and must leave no pool worker
behind.
"""

from __future__ import annotations

import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

from common import (
    ROOT,
    SRC,
    STATE,
    TMP,
    HostSpeed,
    Probe,
    app_source,
    compile_layers,
    load_json,
    median,
    pid_alive,
    pid_cpu,
    proc_status,
    store_json,
    task_cpu,
    tree_digest,
)

#: fresh daemons per run; each is one set-up and one miss phase.
SETUP_REPEATS = 5
#: hot hits sent before timing.  The daemon keeps each client's last
#: 4096 round trips and sorts them for every reply, so a hit costs more
#: until that window is full; timing starts once it is.
WARM_HITS = 4096
#: parts of the timed hot phase, each scaled on its own; op_ms is their
#: median, so a change of host speed in one part moves it little.
HIT_BLOCKS = 10
EXAMPLES = ("classify.nova", "ring_sum.nova", "ttl_decrement.nova")
#: how far the daemon may grow while serving hot hits.
RSS_GROWTH_MB = 16.0
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 60.0


def _requests():
    """The five (filename, source, options) requests of the session."""
    from repro.compiler import CompileOptions

    nat = app_source("nat")
    edited = CompileOptions()
    edited.alloc.solve.time_limit = 300.0
    out = [("nat.nova", nat, CompileOptions())]
    for name in EXAMPLES:
        out.append((name, (ROOT / "examples" / name).read_text(), CompileOptions()))
    out.append(("nat.nova", nat, edited))
    return out


def _summary_of(comp) -> list[int]:
    return [
        comp.flowgraph.num_instructions(),
        comp.alloc.moves,
        comp.alloc.spills,
    ]


def _response_summary(body: dict) -> list[int]:
    summary = body.get("summary") or {}
    alloc = summary.get("alloc") or {}
    return [summary.get("instructions"), alloc.get("moves"), alloc.get("spills")]


def references(requests) -> list[list[int]]:
    """In-process compile summaries, computed once per compiler tree."""
    from repro.cache import cache_key
    from repro.compiler import compile_nova

    path = STATE / "refs" / f"{tree_digest()}.json"
    known = load_json(path) or {}
    out = []
    for name, source, options in requests:
        key = cache_key(source, options)
        if key not in known:
            known[key] = _summary_of(compile_nova(source, name, options))
            store_json(path, known)
        out.append(known[key])
    return out


class Daemon:
    """One ``novac serve`` subprocess with its own socket and cache."""

    def __init__(self, rundir: Path):
        from repro.client import try_connect

        rundir.mkdir(parents=True)
        socket = str((rundir / "d.sock").relative_to(ROOT))
        self.log = open(rundir / "daemon.log", "w")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--socket", socket,
                "--cache-dir", str((rundir / "cache").relative_to(ROOT)),
                "--jobs", "1",
            ],
            stdout=self.log,
            stderr=subprocess.STDOUT,
            env={**os.environ, "PYTHONPATH": str(SRC)},
            cwd=ROOT,
        )
        self.workers: list[int] = []
        deadline = time.perf_counter() + START_TIMEOUT_S
        self.client = None
        while self.client is None:
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                self.kill()
                raise RuntimeError(f"daemon did not start; see {rundir}")
            self.client = try_connect(socket, timeout=1.0)
            if self.client is None:
                time.sleep(0.01)

    def status(self) -> tuple[float, float, int]:
        """(resident MiB, peak resident MiB, threads) of the daemon."""
        status = proc_status(self.proc.pid)
        return (
            int(status["VmRSS"].split()[0]) / 1024.0,
            int(status["VmHWM"].split()[0]) / 1024.0,
            int(status["Threads"]),
        )

    def stop(self) -> int:
        """Drain-shutdown; failures: bad drain, exit status, live workers."""
        failed = 0
        try:
            self.workers = self.client.stats()["workers"]
            if not self.client.shutdown().get("drained"):
                failed += 1
        finally:
            self.client.close()
        try:
            code = self.proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            code = None
        if code != 0:
            failed += 1
        deadline = time.perf_counter() + 10
        while any(pid_alive(pid) for pid in self.workers):
            if time.perf_counter() > deadline:
                failed += 1
                break
            time.sleep(0.05)
        self.kill()
        return failed

    def kill(self) -> None:
        """Stop the daemon and its pool workers, whatever state they are in."""
        if self.client is not None:
            self.client.close()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for pid in self.workers:
            if pid_alive(pid):
                try:
                    os.kill(pid, 9)
                except ProcessLookupError:
                    pass
        self.log.close()


def _misses(daemon, requests, refs, trace):
    """The cold and warm-started misses; (round trips, bodies, failures)."""
    rtts, bodies, failed = [], [], 0
    for (name, source, options), ref in zip(requests, refs):
        start = time.perf_counter()
        body = daemon.client.compile_source(
            source, name, options, trace=trace, raw=True
        )
        rtts.append(time.perf_counter() - start)
        bodies.append(body)
        if not body.get("ok") or body.get("cache") != "miss":
            failed += 1
        elif _response_summary(body) != ref:
            failed += 1
    return rtts, bodies, failed


def _hits(daemon, requests, refs, seed, seconds, blocks=1):
    """Hot hits in seeded order: ``WARM_HITS`` untimed, then ``seconds``
    of timed ones in ``blocks`` equal parts.  Returns a dict.

    ``cpu_per_hit`` holds, per block, the CPU seconds of client and
    daemon per hit, scaled by :class:`common.HostSpeed` with two
    yardsticks (the work is split over two processes).  A hit is serial
    (the client waits while the daemon answers), so this is its round
    trip less steal and wake-up delays.  The daemon must not grow
    meanwhile: no new threads, and resident memory within
    ``RSS_GROWTH_MB``.
    """
    rss_start, _, threads_start = daemon.status()
    rng = random.Random(seed)
    order = list(range(len(requests)))
    rtts, tiers = [], {}

    def one_round() -> int:
        """Each request once, in a fresh seeded order; returns failures."""
        bad = 0
        rng.shuffle(order)
        for index in order:
            name, source, options = requests[index]
            sent = time.perf_counter()
            body = daemon.client.compile_source(source, name, options, raw=True)
            rtts.append(time.perf_counter() - sent)
            tier = body.get("cache")
            tiers[tier] = tiers.get(tier, 0) + 1
            if not body.get("ok") or tier != "hot":
                bad += 1
            elif _response_summary(body) != refs[index]:
                bad += 1
        return bad

    failed = 0
    while len(rtts) < WARM_HITS:
        failed += one_round()
    warm = len(rtts)
    speed = HostSpeed(cores=2)
    cpu_per_hit = []
    raw_per_hit = []
    for _ in range(blocks):
        done = len(rtts)
        cpu_start = time.process_time() + task_cpu(daemon.proc.pid)
        start = time.perf_counter()
        while len(rtts) == done or time.perf_counter() - start < seconds / blocks:
            failed += one_round()
        cpu = time.process_time() + task_cpu(daemon.proc.pid) - cpu_start
        raw_per_hit.append(cpu / (len(rtts) - done))
        cpu_per_hit.append(speed.scaled(cpu / (len(rtts) - done)))
    rss_end, peak, threads_end = daemon.status()
    if threads_end > threads_start or rss_end - rss_start > RSS_GROWTH_MB:
        failed += 1
    return {
        "sent": len(rtts),
        "rtts": rtts[warm:],
        "cpu_per_hit": cpu_per_hit,
        "raw_per_hit": raw_per_hit,
        "tiers": tiers,
        "failed": failed,
        "peak_rss_mb": peak,
        "rss_end_mb": rss_end,
        "threads_end": threads_end,
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    requests = _requests()
    refs = references(requests)
    base = TMP / f"serve-{os.getpid()}"
    shutil.rmtree(base, ignore_errors=True)
    daemons: list[Daemon] = []

    def start(index: int) -> Daemon:
        daemons.append(Daemon(base / f"d{index}"))
        return daemons[-1]

    try:
        # Each set-up daemon also serves one miss phase, so the miss
        # figure is a median over fresh daemons too.  Misses are timed by
        # their round trips, not CPU: they race two solvers in parallel.
        # They are split over two processes, so they are scaled by both
        # cores.  Hot hits are timed by CPU per hit (see _hits).
        failed, attempted, setups, miss_sums, raw_sums = 0, 0, [], [], []
        speed = HostSpeed()
        for index in range(SETUP_REPEATS):
            begin = time.process_time()
            daemon = start(index)
            setups.append(
                speed.scaled(
                    time.process_time() - begin + pid_cpu(daemon.proc.pid)
                )
            )
            miss_speed = HostSpeed(cores=2)
            rtts, _, bad = _misses(daemon, requests, refs, False)
            raw_sums.append(sum(rtts))
            miss_sums.append(miss_speed.scaled(sum(rtts)))
            failed += bad
            attempted += len(rtts)
            if trace or index < SETUP_REPEATS - 1:
                failed += daemon.stop()
        if not trace:
            hits = _hits(daemon, requests, refs, seed, seconds, HIT_BLOCKS)
            failed += hits["failed"] + daemon.stop()
            attempted += hits["sent"]
            metrics = {
                "setup_s": median(setups),
                "work_s": median(miss_sums),
                "op_ms": median(hits["cpu_per_hit"]) * 1000,
                "peak_rss_mb": hits["peak_rss_mb"],
            }
            return {
                "metrics": metrics,
                "attempted": attempted,
                "failed": failed,
                "samples": {
                    "miss_s": raw_sums,
                    "miss_scaled_s": miss_sums,
                    "hit_scaled_ms": [s * 1000 for s in hits["cpu_per_hit"]],
                    "hit_raw_ms": [s * 1000 for s in hits["raw_per_hit"]],
                    "hit_p50_ms": median(hits["rtts"]) * 1000,
                },
            }

        from repro.client import ServeClient

        probe = Probe()
        daemon = start(SETUP_REPEATS)
        rss_start, _, threads_start = daemon.status()
        with probe.patch(ServeClient, "request", "request"):
            rtts, bodies, bad = _misses(daemon, requests, refs, True)
            hits = _hits(daemon, requests, refs, seed, seconds / 2)
        failed += bad + hits["failed"] + daemon.stop()
        attempted += len(rtts) + len(hits["rtts"])
        metrics = _layers(rtts, bodies, hits, probe)
        metrics["trace.overhead_frac"] = sum(rtts) / median(raw_sums) - 1
        # The daemon before its first request and after the session.
        metrics["serve.rss_start_mb"] = rss_start
        metrics["serve.threads_start"] = threads_start
        metrics["serve.rss_end_mb"] = hits["rss_end_mb"]
        metrics["serve.threads_end"] = hits["threads_end"]
        return {"metrics": metrics, "attempted": attempted, "failed": failed}
    finally:
        for daemon in daemons:
            daemon.kill()
        shutil.rmtree(base, ignore_errors=True)


def _layers(rtts, bodies, hits, probe) -> dict:
    from repro.ixp.net import nearest_rank

    spans = [span for body in bodies for span in body.get("spans", [])]
    races = [span for span in spans if span["name"] == "portfolio.race"]
    warm = [span for span in spans if span["name"] == "portfolio.warm_start"]
    worker_s = sum(body.get("seconds", 0.0) for body in bodies)
    tiers = dict(hits["tiers"])
    for body in bodies:
        tier = body.get("cache")
        tiers[tier] = tiers.get(tier, 0) + 1
    out = compile_layers("nat", bodies[0].get("spans", []))
    out.update(
        {
            "serve.miss_rtt_s": sum(rtts),
            "serve.worker_s": worker_s,
            "serve.queue_ms": (sum(rtts) - worker_s) * 1000 / len(rtts),
            "portfolio.race_s": sum(span["seconds"] for span in races),
            "portfolio.highs_wins": sum(
                1 for span in races if span["counters"].get("winner") == "highs"
            ),
            "portfolio.warm_seeded": sum(
                1 for span in warm if span["counters"].get("outcome") == "seeded"
            ),
            "cache.hot": tiers.get("hot", 0),
            "cache.disk_hits": tiers.get("hit", 0),
            "cache.misses": tiers.get("miss", 0),
            "serve.hit_p50_ms": median(hits["rtts"]) * 1000,
            "serve.hit_p99_ms": nearest_rank(hits["rtts"], 99) * 1000,
            "client.calls": probe.calls["request"],
            "client.rtt_s": probe.seconds["request"],
        }
    )
    return out
