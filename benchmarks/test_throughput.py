"""Compiler throughput: batch compilation, cache, process pool.

The paper compiles one program per multi-second ILP solve (Figure 7:
35.9 s for AES one-shot).  A compiler *service* amortizes that with a
content-addressed artifact cache and a process pool; these tests
measure both over the full suite — every examples/*.nova source plus
the three Section 11 applications.  The Section 11 packet throughput
itself is measured on the whole chip by
``benchmarks/test_net_throughput.py``.
"""

from pathlib import Path

from repro.batch import compile_many
from repro.compiler import CompileOptions

from benchmarks.conftest import APP_BUILDERS, print_table

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


def _suite_sources():
    sources = [
        (path.name, path.read_text())
        for path in sorted(EXAMPLES_DIR.glob("*.nova"))
    ]
    for name in sorted(APP_BUILDERS):
        sources.append((f"{name}.nova", APP_BUILDERS[name]().source))
    return sources


def _batch_options() -> CompileOptions:
    options = CompileOptions()
    options.alloc.solve.time_limit = 900
    return options


def test_batch_compile_cold_vs_warm_cache(tmp_path):
    sources = _suite_sources()
    assert len(sources) >= 6  # 3 examples + AES, Kasumi, NAT
    cache_dir = tmp_path / "cache"
    cold = compile_many(
        sources, jobs=2, options=_batch_options(), cache_dir=cache_dir
    )
    warm = compile_many(
        sources, jobs=2, options=_batch_options(), cache_dir=cache_dir
    )
    assert not cold.failed and not warm.failed
    assert cold.cache_misses == len(sources) and cold.cache_hits == 0
    assert warm.cache_hits == len(sources) and warm.cache_misses == 0
    print_table(
        "Batch compile, cold vs warm artifact cache (jobs=2)",
        ["variant", "units", "cache", "seconds"],
        [
            ["cold", len(sources), "6 misses", round(cold.seconds, 2)],
            ["warm", len(sources), "6 hits", round(warm.seconds, 2)],
        ],
    )
    speedup = cold.seconds / max(warm.seconds, 1e-9)
    assert speedup >= 5, (
        f"warm cache {warm.seconds:.2f}s vs cold {cold.seconds:.2f}s "
        f"is only {speedup:.1f}x"
    )


def test_batch_compile_serial_vs_parallel():
    # The examples alone keep this comparison cheap; the pool must not
    # cost more than it saves even on sub-second compiles.
    sources = [
        (path.name, path.read_text())
        for path in sorted(EXAMPLES_DIR.glob("*.nova"))
    ] * 2
    serial = compile_many(sources, jobs=1, options=_batch_options())
    parallel = compile_many(sources, jobs=4, options=_batch_options())
    assert not serial.failed and not parallel.failed
    print_table(
        "Batch compile, serial vs process pool (examples x2)",
        ["variant", "units", "seconds"],
        [
            ["jobs=1", len(sources), round(serial.seconds, 2)],
            ["jobs=4", len(sources), round(parallel.seconds, 2)],
        ],
    )
    # Machine-load dependent: only guard against pathological overhead.
    assert parallel.seconds <= serial.seconds * 3
