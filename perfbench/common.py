"""Shared plumbing for the benchmark: paths, stores, statistics, probes.

Everything the benchmark writes lives under ``.perfbench/`` at the root
of the checkout (ignored by git):

- ``artifacts/<tree>/`` — allocated programs for the ``chip-*``
  workloads, a :class:`repro.cache.CompileCache` per hash of the
  ``src/repro`` tree, so an artifact never outlives the compiler code
  that produced it;
- ``refs/<tree>.json`` — in-process compile summaries that
  ``serve-edit`` checks the daemon's responses against;
- ``tmp/`` — per-run scratch (daemon sockets and caches), removed when
  the run ends.

Host times of serial work are CPU seconds of the processes doing it, not
wall-clock.  On a shared virtual machine the hypervisor hands a guest's
CPUs to other guests (steal time, at times a third of each CPU where
this was written), which inflates wall time by whatever the neighbours
do; CPU time leaves steal out.  For single-threaded work the two agree
on an idle host.  Work that runs in parallel (the daemon's cold misses
race two solvers) is timed by its round trip instead: its CPU time
would fall if the parallelism were removed, however much slower the
user's wait became.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import multiprocessing
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
TMP = STATE / "tmp"

#: the Section 11 applications, in the order the compile workload runs them.
APPS = ("aes", "kasumi", "nat")


def tree_digest(root: Path = SRC / "repro") -> str:
    """Hash of every Python file under ``root`` (paths and contents)."""
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()[:16]


def app_source(app: str) -> str:
    import repro.apps

    return getattr(repro.apps, f"build_{app}_app")().source


def artifact(app: str):
    """The allocated compilation of ``app`` under default options.

    Compiled once per compiler tree and then loaded from the store; the
    load is part of the ``chip-*`` workloads' set-up.
    """
    from repro.cache import CompileCache, cached_compile
    from repro.compiler import CompileOptions

    cache = CompileCache(STATE / "artifacts" / tree_digest())
    comp, _ = cached_compile(
        app_source(app), f"{app}.nova", CompileOptions(), cache
    )
    return comp


def load_json(path: Path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def store_json(path: Path, data) -> None:
    """Write ``data`` atomically (temp file + rename)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    tmp.write_text(json.dumps(data, sort_keys=True))
    os.replace(tmp, path)


# --------------------------------------------------------------------------
# Statistics
# --------------------------------------------------------------------------


def median(values) -> float:
    return float(statistics.median(values))


def peak_rss_mb() -> float:
    """This process's peak resident set, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_status(pid: int) -> dict[str, str]:
    """``/proc/<pid>/status`` as a dict (empty once the process is gone)."""
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return {}
    out = {}
    for line in text.splitlines():
        key, _, value = line.partition(":")
        out[key] = value.strip()
    return out


def pid_alive(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    state = proc_status(pid).get("State", "")
    return bool(state) and not state.startswith("Z")


def children_cpu() -> float:
    """CPU seconds of this process's finished (waited-for) children."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def pid_cpu(pid: int) -> float:
    """CPU seconds process ``pid`` has run so far (0 once it is gone)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return 0.0
    # Fields after the parenthesised command; utime and stime are the
    # 14th and 15th of the whole line.
    fields = stat.rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def task_cpu(pid: int) -> float:
    """CPU seconds the live threads of process ``pid`` have run, to the
    nanosecond (``/proc/<pid>/task/*/schedstat``); 0 once it is gone.

    Finer than :func:`pid_cpu`'s clock ticks, for intervals of a fraction
    of a second in a process whose threads all outlive them.
    """
    total = 0
    for path in Path(f"/proc/{pid}/task").glob("*/schedstat"):
        try:
            total += int(path.read_text().split()[0])
        except (OSError, ValueError, IndexError):
            pass  # the thread ended meanwhile
    return total / 1e9


def fresh_setup(code: str, repeats: int = 5) -> float:
    """Median scaled CPU seconds of ``repeats`` fresh interpreters running
    ``code`` (see :class:`HostSpeed`).

    Set-up is what a user pays before the first unit of work: the
    interpreter, the imports, and whatever ``code`` loads or warms.
    """
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join([str(SRC), str(Path(__file__).parent)]),
    }
    speed = HostSpeed()
    costs = []
    for _ in range(repeats):
        before = children_cpu()
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
        costs.append(speed.scaled(children_cpu() - before))
    return median(costs)


# --------------------------------------------------------------------------
# Host speed
# --------------------------------------------------------------------------

#: rounds of :func:`yardstick`, about 0.1 CPU seconds on the host this
#: was written on (a 2-vCPU Xeon KVM guest) when its neighbours are idle.
YARDSTICK_ROUNDS = 150_000
#: the yardstick's CPU seconds that scaled times are expressed against.
YARDSTICK_REF_S = 0.1


class _Entry:
    __slots__ = ("value", "hits")

    def __init__(self, value: int) -> None:
        self.value = value
        self.hits = 0


def yardstick() -> float:
    """CPU seconds of a fixed piece of pure-Python work.

    A small event loop over a heap, a dict and slotted objects: the
    same kind of interpreter work as the simulator and the compiler,
    and code of the benchmark's own, so no change to ``src/repro`` moves
    it.  Only the host's speed does.
    """
    start = time.process_time()
    heap = [(i * 37 % 1000, i) for i in range(64)]
    heapq.heapify(heap)
    table: dict[int, _Entry] = {}
    total = 0
    for step in range(YARDSTICK_ROUNDS):
        when, key = heapq.heappop(heap)
        entry = table.get(key)
        if entry is None:
            entry = table[key] = _Entry(when)
        entry.hits += 1
        total += (entry.value ^ when) & 0xFFFF
        heapq.heappush(heap, (when + 1 + (total & 63), (key * 7 + step) % 512))
    return time.process_time() - start


def _send_yardstick(conn) -> None:
    conn.send(yardstick())
    conn.close()


def yardsticks(cores: int) -> float:
    """Mean CPU seconds of ``cores`` yardsticks run at once.

    One runs in this process when ``cores`` is 1; otherwise each runs in
    a forked child, so all cores are measured under the same load.
    """
    if cores == 1:
        return yardstick()
    ctx = multiprocessing.get_context("fork")
    pipes, procs = [], []
    for _ in range(cores):
        recv, send = ctx.Pipe(duplex=False)
        proc = ctx.Process(target=_send_yardstick, args=(send,))
        proc.start()
        send.close()
        pipes.append(recv)
        procs.append(proc)
    times = [recv.recv() for recv in pipes]
    for proc in procs:
        proc.join()
    return sum(times) / cores


class HostSpeed:
    """Scales times of units of work to a host of fixed speed.

    On a shared virtual machine the same work takes up to 1.8x the CPU
    time from one minute to the next, as neighbours load the physical
    cores; the slow and fast states last from seconds to minutes.  The
    yardstick runs before the first unit and after each one, and a
    unit's time is multiplied by ``YARDSTICK_REF_S`` over the mean of
    the yardstick times around it.  Work that runs in more than one
    process (the daemon and its client) is scaled by ``cores``
    yardsticks run at once.  A yardstick reading is noisy itself, so
    callers report medians over many scaled units.  Call
    :meth:`scaled` right after each unit.
    """

    def __init__(self, cores: int = 1) -> None:
        self.cores = cores
        self._before = yardsticks(cores)

    def scaled(self, seconds: float) -> float:
        after = yardsticks(self.cores)
        factor = YARDSTICK_REF_S / ((self._before + after) / 2)
        self._before = after
        return seconds * factor


# --------------------------------------------------------------------------
# Probes: timers around public entry points, installed only when tracing
# --------------------------------------------------------------------------


class Probe:
    """Wall time, calls and ``None`` results of wrapped callables.

    ``outer_seconds`` and ``outer_calls`` count only calls that are not
    nested inside another wrapped call, so ``outer_seconds`` is the time
    the wrapped children cover.  The wrapper's own bookkeeping runs
    outside the timed window and lands in the caller's self time;
    :func:`probe_cost` measures it per call so the caller can take it out.
    """

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.nones: dict[str, int] = defaultdict(int)
        self.outer_seconds = 0.0
        self.outer_calls = 0
        self._depth = 0

    def wrap(self, name: str, fn):
        probe = self
        clock = time.perf_counter

        def timed(*args, **kwargs):
            probe._depth += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                probe._depth -= 1
            probe.seconds[name] += elapsed
            probe.calls[name] += 1
            if result is None:
                probe.nones[name] += 1
            if probe._depth == 0:
                probe.outer_seconds += elapsed
                probe.outer_calls += 1
            return result

        return timed

    @contextmanager
    def patch(self, owner, attr: str, name: str):
        """Replace ``owner.attr`` by its timed wrapper for the block."""
        original = getattr(owner, attr)
        setattr(owner, attr, self.wrap(name, original))
        try:
            yield
        finally:
            setattr(owner, attr, original)


def probe_cost(calls: int = 100_000, repeats: int = 3) -> float:
    """Wall seconds one :meth:`Probe.wrap` call adds outside its window.

    A wrapped no-op minus its timed seconds minus the same no-op called
    bare; the least of ``repeats`` tries, since noise only adds time.
    """

    def noop():
        return 0

    clock = time.perf_counter
    costs = []
    for _ in range(repeats):
        probe = Probe()
        timed = probe.wrap("noop", noop)
        start = clock()
        for _ in range(calls):
            noop()
        bare = clock() - start
        start = clock()
        for _ in range(calls):
            timed()
        wrapped = clock() - start
        costs.append((wrapped - probe.seconds["noop"] - bare) / calls)
    return max(0.0, min(costs))


def span_seconds(spans, name: str) -> float:
    return sum(span["seconds"] for span in spans if span["name"] == name)


def span_counter(spans, name: str, key: str, default=0):
    for span in spans:
        if span["name"] == name and key in span["counters"]:
            return span["counters"][key]
    return default


def compile_layers(app: str, spans) -> dict[str, float]:
    """Per-layer metrics of one compile from its span dicts."""
    solve = span_seconds(spans, "solve")
    model = span_seconds(spans, "model")
    metrics = {
        "nova.parse_s": span_seconds(spans, "parse"),
        "nova.typecheck_s": span_seconds(spans, "typecheck"),
        "cps.convert_s": span_seconds(spans, "cps"),
        "cps.deproc_s": span_seconds(spans, "deproc"),
        "cps.optimize_s": span_seconds(spans, "optimize"),
        "cps.ssu_s": span_seconds(spans, "ssu"),
        "ixp.select_s": span_seconds(spans, "select"),
        "cps.term_nodes": span_counter(spans, "ssu", "term_nodes"),
        "ixp.instructions": span_counter(spans, "select", "instructions"),
        "alloc.model_s": model,
        "ilp.solve_s": span_counter(spans, "solve", "integer_seconds", 0.0),
        "ilp.root_lp_s": span_counter(
            spans, "solve", "root_relaxation_seconds", 0.0
        ),
        "alloc.finish_s": span_seconds(spans, "allocate") - model - solve,
        "ilp.variables": span_counter(spans, "allocate", "variables"),
        "ilp.constraints": span_counter(spans, "allocate", "constraints"),
        "ilp.nonzeros": span_counter(spans, "solve", "nonzeros"),
        "ilp.nodes": span_counter(spans, "solve", "nodes"),
        # Rounded: its last bit differs between processes (the solver
        # sums the same costs in another order), the value does not.
        "ilp.objective": float(
            f"{span_counter(spans, 'solve', 'objective', 0.0):.9g}"
        ),
        "alloc.moves": span_counter(spans, "allocate", "moves"),
        "alloc.spills": span_counter(spans, "allocate", "spills"),
    }
    return {f"{app}.{key}": value for key, value in metrics.items()}
