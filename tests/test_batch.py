"""Batch compilation (`repro.batch`): fan-out, error records, tracing."""

import pytest

from repro.batch import BatchError, compile_many
from repro.compiler import CompileOptions
from repro.trace import Tracer

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
BAD_PARSE = "fun main (x) {\n  let = 3;\n}"


def test_serial_batch_collects_all_results():
    result = compile_many([("good.nova", GOOD), ("good2.nova", GOOD2)])
    assert [u.name for u in result.units] == ["good.nova", "good2.nova"]
    assert all(u.ok for u in result.units)
    for unit in result.units:
        assert unit.compilation is not None
        assert unit.compilation.alloc.status == "optimal"
    assert result.summary()["failed"] == 0


def test_failures_do_not_stop_the_batch():
    result = compile_many(
        [
            ("bad_type.nova", BAD_TYPE),
            ("good.nova", GOOD),
            ("bad_parse.nova", BAD_PARSE),
        ]
    )
    assert [u.ok for u in result.units] == [False, True, False]
    type_err = result.units[0].error
    assert isinstance(type_err, BatchError)
    assert "unbound" in type_err.message
    assert type_err.location and "bad_type.nova" in type_err.location
    parse_err = result.units[2].error
    assert parse_err.kind == "ParseError"
    assert "2:" in parse_err.location  # line carried through
    assert len(result.failed) == 2 and len(result.ok) == 1


def test_unreadable_path_is_a_structured_error(tmp_path):
    result = compile_many([str(tmp_path / "missing.nova"), ("ok.nova", GOOD)])
    assert not result.units[0].ok
    assert result.units[0].error.kind in ("FileNotFoundError", "OSError")
    assert result.units[1].ok


def test_parallel_matches_serial(tmp_path):
    sources = [
        ("good.nova", GOOD),
        ("bad.nova", BAD_TYPE),
        ("good2.nova", GOOD2),
    ]
    serial = compile_many(sources, jobs=1)
    parallel = compile_many(sources, jobs=2)
    assert [u.name for u in parallel.units] == [u.name for u in serial.units]
    assert [u.ok for u in parallel.units] == [u.ok for u in serial.units]
    # Identical artifacts come back across the process boundary.
    assert (
        parallel.units[0].compilation.physical.pretty()
        == serial.units[0].compilation.physical.pretty()
    )
    assert parallel.jobs == 2


def test_parallel_batch_uses_the_cache(tmp_path):
    sources = [("a.nova", GOOD), ("b.nova", GOOD2)]
    cold = compile_many(sources, jobs=2, cache_dir=tmp_path / "cache")
    warm = compile_many(sources, jobs=2, cache_dir=tmp_path / "cache")
    assert cold.cache_misses == 2 and cold.cache_hits == 0
    assert warm.cache_hits == 2 and warm.cache_misses == 0
    # The aggregate is the full worker-side CacheStats, and it surfaces
    # in the summary the CLI prints.
    assert warm.cache_stats == {
        "hits": 2, "misses": 0, "writes": 0, "invalidations": 0
    }
    assert cold.cache_stats["writes"] == 2
    assert warm.summary()["cache"] == warm.cache_stats
    assert all(u.ok for u in warm.units)


def test_same_source_text_hits_across_names(tmp_path):
    # The cache is content-addressed: the unit *name* is not in the key.
    result = compile_many(
        [("one.nova", GOOD), ("two.nova", GOOD)],
        cache_dir=tmp_path / "cache",
    )
    assert [u.cache for u in result.units] == ["miss", "hit"]


def test_keep_artifacts_false_drops_compilations():
    result = compile_many([("good.nova", GOOD)], keep_artifacts=False)
    assert result.units[0].ok
    assert result.units[0].compilation is None


@pytest.mark.parametrize("jobs", [1, 2])
def test_batch_tracing_adopts_unit_spans(jobs, tmp_path):
    tracer = Tracer()
    result = compile_many(
        [("good.nova", GOOD), ("bad.nova", BAD_TYPE)],
        jobs=jobs,
        cache_dir=tmp_path / "cache",
        tracer=tracer,
    )
    batch_span = tracer.get("batch")
    assert batch_span is not None
    assert batch_span.counters["ok"] == 1
    assert batch_span.counters["failed"] == 1
    assert batch_span.counters["cache_misses"] == 1
    units = tracer.all("unit")
    assert {s.counters["file"] for s in units} == {"good.nova", "bad.nova"}
    assert all(s.parent == "batch" for s in units)
    # Per-phase spans from inside the units (worker processes included).
    names = [s.name for s in tracer.spans]
    assert "parse" in names and "allocate" in names
    outcomes = {s.counters["file"]: s.counters["outcome"] for s in units}
    assert outcomes["good.nova"] == "ok"
    assert outcomes["bad.nova"].startswith("error:")
    assert result.summary()["units"] == 2
