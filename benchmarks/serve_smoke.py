"""CI smoke test: the compile daemon's full lifecycle, end to end.

Boots ``novac serve`` as a real subprocess on a temp Unix socket,
compiles the same example twice (miss, then hot/hit with a lower
server-side latency), then once more with the solver's time limit
edited (a miss that must reuse the first miss's proven optimum and
return its payload), and once with the A-bank bias edited (a miss that
must solve cold and return the in-process compile's payload), checks
the stats surface, then drain-shuts the daemon and verifies a clean
exit with no orphaned pool workers.  The daemon leads its own process
group, which its pool workers inherit, so when a check fails one signal
stops the daemon and every worker.

Run from the repo root::

    PYTHONPATH=src python benchmarks/serve_smoke.py

Exit status 0 on success (used as a CI gate, like ``perf_smoke.py``).
"""

import os
import pathlib
import signal
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.client import try_connect  # noqa: E402
from repro.compiler import CompileOptions, compile_nova  # noqa: E402


def fail(message: str) -> None:
    print(f"serve_smoke: FAIL: {message}")
    sys.exit(1)


def main() -> None:
    source = (ROOT / "examples" / "classify.nova").read_text()
    with tempfile.TemporaryDirectory(prefix="serve-smoke-") as tmp:
        socket_path = os.path.join(tmp, "d.sock")
        daemon = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--socket", socket_path,
                "--cache-dir", os.path.join(tmp, "cache"),
                "--jobs", "2",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
            cwd=str(ROOT),
            start_new_session=True,
        )
        try:
            banner = daemon.stdout.readline().strip()
            if "listening on" not in banner:
                fail(f"unexpected daemon banner: {banner!r}")
            print(f"serve_smoke: {banner}")

            client = None
            for _ in range(100):
                client = try_connect(socket_path, timeout=1.0)
                if client is not None:
                    break
                time.sleep(0.1)
            if client is None:
                fail("daemon never accepted a connection")

            with client:
                first = client.compile_source(source, "classify.nova")
                second = client.compile_source(source, "classify.nova")
                if first["cache"] != "miss":
                    fail(f"first compile was {first['cache']}, expected miss")
                if second["cache"] not in ("hot", "hit"):
                    fail(f"second compile was {second['cache']}, not a hit")
                first_ms = first["server"]["ms"]
                second_ms = second["server"]["ms"]
                if second_ms >= first_ms:
                    fail(
                        f"hit latency {second_ms}ms not below miss "
                        f"latency {first_ms}ms"
                    )
                print(
                    f"serve_smoke: miss {first_ms}ms -> "
                    f"{second['cache']} {second_ms}ms"
                )

                # A solver-budget edit leaves the ILP unchanged: its miss
                # must reuse the first miss's proven optimum, not solve.
                edited = CompileOptions()
                edited.alloc.solve.time_limit = 300.0
                third = client.compile_source(
                    source, "classify.nova", options=edited, trace=True
                )
                if third["cache"] != "miss":
                    fail(f"time-limit edit was {third['cache']}, expected miss")
                if third["payload"] != first["payload"]:
                    fail("time-limit edit's payload differs from the first miss's")
                outcomes = _outcomes(third)
                if outcomes != ["reused"]:
                    fail(f"time-limit edit's warm start was {outcomes}, not reused")
                print(
                    f"serve_smoke: time-limit edit miss "
                    f"{third['server']['ms']}ms, optimum reused"
                )

                # A model knob changes the ILP: no optimum is stored for
                # it, so the miss solves cold and returns the code an
                # in-process compile of the same request returns.
                knob = CompileOptions()
                knob.alloc.model.a_bank_bias = 1.02
                fourth = client.compile_source(
                    source, "classify.nova", options=knob, trace=True
                )
                if fourth["cache"] != "miss":
                    fail(f"a_bank_bias edit was {fourth['cache']}, expected miss")
                outcomes = _outcomes(fourth)
                if outcomes != ["none"]:
                    fail(f"a_bank_bias edit's warm start was {outcomes}, not none")
                local = compile_nova(source, "classify.nova", options=knob)
                if fourth["payload"] != local.physical.pretty():
                    fail("a_bank_bias edit's payload differs from in-process")
                print(
                    f"serve_smoke: a_bank_bias edit miss "
                    f"{fourth['server']['ms']}ms, in-process payload"
                )

                stats = client.stats()
                if stats["clients"]["hits"] < 1:
                    fail(f"stats recorded no hits: {stats['clients']}")
                workers = stats["workers"]
                if not workers:
                    fail("stats reported no pool workers")

                response = client.shutdown()
                if not response.get("drained"):
                    fail(f"shutdown did not drain: {response}")

            code = daemon.wait(timeout=30)
            if code != 0:
                fail(f"daemon exited {code}")
            # Pool workers must die with the daemon — no orphans.
            deadline = time.time() + 10
            alive = list(workers)
            while alive and time.time() < deadline:
                alive = [pid for pid in alive if _is_alive(pid)]
                if alive:
                    time.sleep(0.1)
            if alive:
                fail(f"orphaned pool workers: {alive}")
            print(
                f"serve_smoke: OK (drained exit 0, {len(workers)} workers "
                f"reaped)"
            )
        finally:
            # Killing the daemon alone would leave its pool workers
            # running; after a clean drain the group is already empty.
            try:
                os.killpg(daemon.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            daemon.wait(timeout=10)


def _outcomes(body: dict) -> list:
    """The ``portfolio.warm_start`` outcomes of a traced response."""
    return [
        span["counters"].get("outcome")
        for span in body["spans"]
        if span["name"] == "portfolio.warm_start"
    ]


def _is_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


if __name__ == "__main__":
    main()
