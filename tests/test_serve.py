"""The compile daemon (`repro.serve`), client, and wire protocol."""

import asyncio
import math
import pathlib
import random
import threading
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import cli, serve
from repro.apps import build_nat_app
from repro.cache import CompileCache, cached_compile
from repro.client import ServeClient, ServeError, parse_endpoint, try_connect
from repro.compiler import CompileOptions, compile_nova
from repro.proto import ProtocolError, options_from_wire, options_to_wire
from repro.serve import CompileServer, Metrics, ServeConfig
from repro.trace import nearest_rank

GOOD = """
layout h = { a : 8, b : 24 };
fun main (x) {
  let u = unpack[h](x);
  u.a + u.b
}
"""

GOOD2 = """
fun main (x, y) {
  x * 3 + y
}
"""

BAD_TYPE = "fun main (x) { y }"  # unbound variable

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture
def server(tmp_path):
    config = ServeConfig(
        socket=str(tmp_path / "d.sock"),
        cache_dir=str(tmp_path / "cache"),
        jobs=1,
        hot_entries=4,
    )
    daemon = CompileServer(config)
    thread = threading.Thread(
        target=lambda: asyncio.run(daemon.run()), daemon=True
    )
    thread.start()
    client = None
    for _ in range(200):
        client = try_connect(config.socket, timeout=1.0)
        if client is not None:
            break
        time.sleep(0.05)
    assert client is not None, "daemon never came up"
    client.close()
    yield config
    leftover = try_connect(config.socket, timeout=1.0)
    if leftover is not None:
        try:
            leftover.shutdown()
        except ServeError:
            pass
        leftover.close()
    thread.join(timeout=30)
    assert not thread.is_alive()


class TestProtocol:
    def test_options_round_trip(self):
        options = CompileOptions()
        options.run_allocator = False
        options.alloc.two_phase = False
        options.alloc.solve.gap = 1e-2
        wire = options_to_wire(options)
        # Sparse: only the three knobs that differ from the defaults.
        assert wire == {
            "run_allocator": False,
            "alloc": {"two_phase": False, "solve": {"gap": 1e-2}},
        }
        rebuilt = options_from_wire(wire)
        assert rebuilt.run_allocator is False
        assert rebuilt.alloc.two_phase is False
        assert rebuilt.alloc.solve.gap == 1e-2
        assert options_to_wire(CompileOptions()) == {}
        # A knob set back to its default is not sent.
        options = CompileOptions()
        options.alloc.fallback = False
        options.alloc.fallback = True
        assert options_to_wire(options) == {}
        # One knob changed at each nesting level.
        options = CompileOptions()
        options.optimizer_rounds = 3
        options.alloc.fallback_time_limit = None
        options.alloc.model.a_bank_bias = 1.02
        options.alloc.solve.engine = "bnb"
        wire = options_to_wire(options)
        assert wire == {
            "optimizer_rounds": 3,
            "alloc": {
                "fallback_time_limit": None,
                "model": {"a_bank_bias": 1.02},
                "solve": {"engine": "bnb"},
            },
        }
        assert options_to_wire(options_from_wire(wire)) == wire
        # The daemon's own store never travels.
        options.alloc.solve.hint_dir = "hints"
        assert options_to_wire(options) == wire

    def test_unknown_and_server_only_keys_rejected(self):
        for unknown in ({"no_such_knob": 1}, {"alloc": {"spill_base": 0}}):
            with pytest.raises(ProtocolError, match="unknown option"):
                options_from_wire(unknown)
        with pytest.raises(ProtocolError, match="server-side only"):
            options_from_wire({"alloc": {"solve": {"hint_dir": "/x"}}})

    @pytest.mark.parametrize("engine", ["higs", "portfolio"])
    def test_unknown_engine_rejected(self, engine):
        with pytest.raises(ProtocolError, match="engine must be one of"):
            options_from_wire({"alloc": {"solve": {"engine": engine}}})
        assert options_from_wire(
            {"alloc": {"solve": {"engine": "bnb"}}}
        ).alloc.solve.engine == "bnb"

    def test_parse_endpoint(self):
        assert parse_endpoint("/tmp/d.sock") == ("unix", "/tmp/d.sock")
        assert parse_endpoint("d.sock") == ("unix", "d.sock")
        assert parse_endpoint("127.0.0.1:9000") == ("tcp", ("127.0.0.1", 9000))
        assert parse_endpoint("tcp:localhost:9000") == (
            "tcp", ("localhost", 9000)
        )


class TestCompileTiers:
    def test_miss_then_hot_and_payload_matches_local(self, server):
        local = compile_nova(GOOD)
        with ServeClient.connect(server.socket) as client:
            first = client.compile_source(GOOD, trace=True)
            second = client.compile_source(GOOD)
            assert first["cache"] == "miss"
            assert second["cache"] == "hot"
            # A cold miss runs the same highs solve as a local compile;
            # the hot tier replays the miss byte-identically.
            assert first["payload"] == second["payload"]
            assert first["payload"] == local.physical.pretty()
            assert (
                first["summary"]["instructions"]
                == local.flowgraph.num_instructions()
            )
            assert first["summary"]["alloc"]["status"] == "optimal"
            # The daemon narrates itself: per-request server metrics and
            # a serve.request span alongside the compile-phase spans.
            assert second["server"]["hits"] == 1
            names = [sp["name"] for sp in first["spans"]]
            assert "serve.request" in names and "allocate" in names

    def test_disk_tier_survives_hot_eviction(self, server):
        with ServeClient.connect(server.socket) as client:
            client.compile_source(GOOD)
            # Evict GOOD from the 4-entry hot LRU with distinct sources.
            for i in range(server.hot_entries + 1):
                client.compile_source(GOOD2 + f"// v{i}\n")
            again = client.compile_source(GOOD)
            assert again["cache"] == "hit"  # disk, not recompiled

    def test_structured_error_and_connection_reuse(self, server):
        with ServeClient.connect(server.socket) as client:
            body = client.compile_source(BAD_TYPE, raw=True)
            assert body["ok"] is False
            assert body["error"]["kind"] == "TypeError_"
            assert "unbound" in body["error"]["message"]
            # Same connection keeps working after a failed unit.
            assert client.compile_source(GOOD)["ok"] is True

    def test_cache_miss_records_a_hint(self, server, tmp_path):
        with ServeClient.connect(server.socket) as client:
            client.compile_source(GOOD)
        hints = list((tmp_path / "cache" / "hints").rglob("*.json"))
        optima = list((tmp_path / "cache" / "hints" / "optima").rglob("*.json"))
        assert optima, "the miss's cold solve should have recorded its optimum"
        assert sorted(hints) == sorted(optima)  # no other kind of entry

    def test_hot_hit_never_parses_the_options(self, server, monkeypatch):
        # A hot hit answers a request it has already served; parsing the
        # options (and the cache key behind them) is for the tiers below.
        calls = []

        def counted(data):
            calls.append(data)
            return options_from_wire(data)

        monkeypatch.setattr(serve, "options_from_wire", counted)
        with ServeClient.connect(server.socket) as client:
            assert client.compile_source(GOOD)["cache"] == "miss"
            for _ in range(3):
                assert client.compile_source(GOOD)["cache"] == "hot"
        assert len(calls) == 1

    def test_hot_tier_keeps_each_filename_listing_title(self, server):
        # Two requests that share a cache key but name different files
        # want different listings: the title line is the filename.
        source = (ROOT / "examples" / "ring_sum.nova").read_text()
        options = CompileOptions()
        options.run_allocator = False

        def listing(client, filename):
            return client.compile_source(
                source, filename, options=options, payload="listing"
            )

        with ServeClient.connect(server.socket) as client:
            first = listing(client, "first.nova")
            second = listing(client, "second.nova")
            again = listing(client, "second.nova")
        assert first["cache"] == "miss"
        assert first["payload"].splitlines()[0] == "; first.nova"
        assert second["cache"] == "hit"
        assert second["payload"].splitlines()[0] == "; second.nova"
        assert again["cache"] == "hot"
        assert again["payload"] == second["payload"]

    def test_knob_variant_miss_returns_the_in_process_payload(self, server):
        # An allocator-model or gap edit changes the ILP, so the miss
        # after a default miss finds no proven optimum and solves cold:
        # the daemon returns the code an in-process compile returns.
        programs = {
            name: (ROOT / "examples" / name).read_text()
            for name in ("classify.nova", "ring_sum.nova", "ttl_decrement.nova")
        }
        programs["nat.nova"] = build_nat_app().source
        bias = CompileOptions()
        bias.alloc.model.a_bank_bias = 1.02
        gap = CompileOptions()
        gap.alloc.solve.gap = 1e-3
        with ServeClient.connect(server.socket) as client:
            for filename, source in programs.items():
                first = client.compile_source(source, filename)
                assert first["cache"] == "miss"
                for variant in (bias, gap):
                    body = client.compile_source(
                        source, filename, options=variant, trace=True
                    )
                    assert body["cache"] == "miss"
                    spans = {sp["name"]: sp for sp in body["spans"]}
                    lookup = spans["portfolio.warm_start"]
                    assert lookup["parent"] == "solve"
                    assert lookup["counters"]["outcome"] == "none"
                    assert spans["solve"]["counters"]["engine"] == "highs"
                    local = compile_nova(source, filename, options=variant)
                    assert body["payload"] == local.physical.pretty(), (
                        filename, options_to_wire(variant)
                    )

    def test_time_limit_edit_returns_the_in_process_payload(self, server):
        # A solver budget is not part of the ILP, so the edit's miss
        # reuses the first miss's proven optimum instead of solving.
        source = (ROOT / "examples" / "classify.nova").read_text()
        edited = CompileOptions()
        edited.alloc.solve.time_limit = 300.0
        with ServeClient.connect(server.socket) as client:
            first = client.compile_source(source, "classify.nova")
            body = client.compile_source(
                source, "classify.nova", options=edited, trace=True
            )
        assert first["cache"] == body["cache"] == "miss"
        local = compile_nova(source, "classify.nova", options=edited)
        assert body["payload"] == local.physical.pretty()
        assert body["payload"] == first["payload"]
        spans = {sp["name"]: sp for sp in body["spans"]}
        assert spans["portfolio.warm_start"]["counters"]["outcome"] == "reused"

    def test_daemon_shares_the_in_process_disk_cache(self, server):
        # The daemon adds only the fingerprint-excluded hint_dir to the
        # options, so an artifact cached in-process is a daemon hit.
        cache = CompileCache(server.cache_dir)
        _, state = cached_compile(GOOD2, "<remote>", CompileOptions(), cache)
        assert state == "miss"
        with ServeClient.connect(server.socket) as client:
            assert client.compile_source(GOOD2)["cache"] == "hit"

    def test_batch_mixes_outcomes(self, server):
        with ServeClient.connect(server.socket) as client:
            response = client.batch(
                [("a.nova", GOOD), ("bad.nova", BAD_TYPE), ("c.nova", GOOD2)]
            )
        assert response["summary"]["ok"] == 2
        assert response["summary"]["failed"] == 1
        kinds = [u.get("error", {}).get("kind") for u in response["units"]]
        assert kinds == [None, "TypeError_", None]


class TestOperations:
    def test_stats_shape(self, server):
        with ServeClient.connect(server.socket) as client:
            client.compile_source(GOOD)
            client.compile_source(GOOD)
            stats = client.stats()
        assert stats["cache"]["writes"] == 1
        assert stats["jobs"] == 1
        assert stats["hot_entries"] == 1
        assert stats["clients"]["requests"] == 2
        assert stats["clients"]["hits"] == 1
        assert stats["clients"]["p50_ms"] > 0
        assert isinstance(stats["workers"], list)

    def test_cold_compile_looks_the_disk_up_once(self, server):
        with ServeClient.connect(server.socket) as client:
            assert client.compile_source(GOOD)["cache"] == "miss"
            stats = client.stats()["cache"]
        assert stats["misses"] == 1
        assert stats["writes"] == 1

    def test_worker_crash_is_survivable(self, server):
        with ServeClient.connect(server.socket) as client:
            crashed = client.crash_worker()
            assert crashed["ok"] is False
            assert crashed["error"]["kind"] == "WorkerCrash"
            # The very next compile runs on a rebuilt pool.
            assert client.compile_source(GOOD)["ok"] is True
            assert client.stats()["pool_restarts"] == 1

    def test_drain_shutdown_finishes_inflight_compiles(self, server):
        done = {}

        def compile_slow():
            with ServeClient.connect(server.socket) as client:
                done["body"] = client.compile_source(GOOD2, raw=True)

        worker = threading.Thread(target=compile_slow)
        with ServeClient.connect(server.socket) as client:
            worker.start()
            time.sleep(0.05)  # let the compile land in flight
            response = client.shutdown()
            assert response["drained"] is True
        worker.join(timeout=30)
        # The in-flight compile completed (ok) rather than being cut off;
        # it only gets refused if it arrived after draining began.
        body = done["body"]
        assert body["ok"] or body["error"]["kind"] == "Draining"
        assert try_connect(server.socket, timeout=1.0) is None


def test_metrics_percentiles_keep_their_values():
    assert Metrics().snapshot()["p50_ms"] == 0.0
    assert Metrics().snapshot()["p95_ms"] == 0.0
    # At the two percentiles the daemon reports, the exact nearest rank
    # equals the float rank max(1, ceil(p / 100 * n)) for every size of
    # its 4096-entry latency reservoir.
    data = list(range(4096))
    for n in range(1, len(data) + 1):
        for p in (50, 95):
            assert nearest_rank(data[:n], p) + 1 == max(
                1, math.ceil(p / 100.0 * n)
            )
    metrics = Metrics()
    for ms in (5.0, 1.0, 4.0, 2.0, 3.0):
        metrics.record(ms, "hot", True)
    snapshot = metrics.snapshot()
    assert (snapshot["p50_ms"], snapshot["p95_ms"]) == (3.0, 5.0)


@settings(max_examples=30, deadline=None)
@given(
    pool=st.lists(
        st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
        min_size=1,
        max_size=12,
    ),
    count=st.integers(min_value=0, max_value=2 * 4096 + 64),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(pool=[1.0, 2.0], count=2 * 4096 + 64, seed=0)
def test_latency_window_stays_sorted_past_its_length(pool, count, seed):
    # A small value pool plus zeros gives the window many duplicates, so
    # evicting "the" oldest value must remove exactly one equal copy.
    rng = random.Random(seed)
    values = pool + [0.0]
    metrics = Metrics()
    sent = []
    size = metrics.latencies_ms.maxlen
    checkpoints = {count - 1, size - 1, size, size + 1}
    checkpoints.update(range(0, count, 701))
    for i in range(count):
        ms = rng.choice(values)
        metrics.record(ms, "hot", True)
        sent.append(ms)
        if i not in checkpoints:
            continue
        held = list(metrics.latencies_ms)
        assert held == sent[-size:]
        assert metrics.sorted_ms == sorted(held)
        snapshot = metrics.snapshot()
        for p in (50, 95):
            assert snapshot[f"p{p}_ms"] == round(nearest_rank(held, p), 3)


class TestClientFallback:
    def test_try_connect_none_without_daemon(self, tmp_path):
        assert try_connect(str(tmp_path / "nothing.sock"), timeout=0.5) is None

    def test_cli_falls_back_in_process(self, tmp_path, capsys):
        source = tmp_path / "p.nova"
        source.write_text(GOOD)
        code = cli.main(
            ["--connect", str(tmp_path / "nothing.sock"), str(source)]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "compiling in-process" in captured.err
        assert captured.out == compile_nova(GOOD).physical.pretty()

    def test_cli_compiles_via_daemon(self, server, tmp_path, capsys):
        source = tmp_path / "p.nova"
        source.write_text(GOOD)
        code = cli.main(["--connect", server.socket, str(source)])
        captured = capsys.readouterr()
        assert code == 0
        assert "in-process" not in captured.err
        assert captured.out.startswith("entry:") and "halt" in captured.out
        # A second invocation is served from the hot tier, byte-identical.
        assert cli.main(["--connect", server.socket, str(source)]) == 0
        assert capsys.readouterr().out == captured.out

    def test_cli_remote_batch(self, server, tmp_path, capsys):
        good = tmp_path / "good.nova"
        good.write_text(GOOD)
        bad = tmp_path / "bad.nova"
        bad.write_text(BAD_TYPE)
        code = cli.main(["--connect", server.socket, str(good), str(bad)])
        captured = capsys.readouterr()
        assert code == 1  # one unit failed, like local batch mode
        assert "cache 0 hits / 2 misses" in captured.out
        assert "TypeError" in captured.out
