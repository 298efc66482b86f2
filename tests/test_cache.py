"""Content-addressed compile cache (`repro.cache`) correctness.

The cache key must cover *everything* a compilation depends on — source
bytes and the full options tree — and unreadable entries must read as
misses, never as crashes or stale artifacts.
"""

import pickle
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.cache import (
    CACHE_FORMAT,
    CompileCache,
    _plain,
    cache_key,
    cached_compile,
    options_fingerprint,
)
from repro.compiler import CompileOptions, compile_nova
from repro.ilp.options import SolveOptions
from repro.trace import Tracer

SOURCE = """
layout h = { a : 8, b : 24 };
fun main (x) {
  let u = unpack[h](x);
  u.a + u.b
}
"""


@pytest.fixture
def cache(tmp_path):
    return CompileCache(tmp_path / "cache")


def test_byte_identical_rerun_hits(cache):
    options = CompileOptions()
    first, state1 = cached_compile(SOURCE, options=options, cache=cache)
    second, state2 = cached_compile(SOURCE, options=options, cache=cache)
    assert (state1, state2) == ("miss", "hit")
    assert cache.stats.hits == 1 and cache.stats.misses == 1
    # The artifact is the full compilation, not a summary.
    assert second.flowgraph.num_instructions() == first.flowgraph.num_instructions()
    assert second.alloc.status == first.alloc.status
    assert second.physical.pretty() == first.physical.pretty()


def test_source_change_misses(cache):
    options = CompileOptions()
    cached_compile(SOURCE, options=options, cache=cache)
    _, state = cached_compile(SOURCE + "\n", options=options, cache=cache)
    assert state == "miss"


def test_different_alloc_options_miss(cache):
    plain = CompileOptions()
    cached_compile(SOURCE, options=plain, cache=cache)
    one_shot = CompileOptions()
    one_shot.alloc.two_phase = False
    _, state = cached_compile(SOURCE, options=one_shot, cache=cache)
    assert state == "miss"
    assert cache_key(SOURCE, plain) != cache_key(SOURCE, one_shot)


def test_different_solve_options_miss(cache):
    loose = CompileOptions()
    loose.alloc.solve = SolveOptions(gap=1e-2)
    tight = CompileOptions()
    tight.alloc.solve = SolveOptions(gap=1e-6)
    cached_compile(SOURCE, options=loose, cache=cache)
    _, state = cached_compile(SOURCE, options=tight, cache=cache)
    assert state == "miss"
    assert options_fingerprint(loose) != options_fingerprint(tight)


def test_fingerprint_is_deterministic():
    assert options_fingerprint(CompileOptions()) == options_fingerprint(
        CompileOptions()
    )
    assert cache_key(SOURCE, CompileOptions()) == cache_key(
        SOURCE, CompileOptions()
    )


def test_unfingerprintable_option_raises_naming_the_field():
    # The old fallback hashed repr(value), which for arbitrary objects
    # embeds a memory address — two identical option trees fingerprinted
    # differently run-to-run, silently turning every lookup into a miss.
    # Non-plain data must be a loud error naming the offending field.
    options = CompileOptions()
    options.alloc.solve.node_limit = object()
    with pytest.raises(TypeError, match=r"options\.alloc\.solve\.node_limit"):
        options_fingerprint(options)
    with pytest.raises(TypeError, match="object"):
        cache_key(SOURCE, options)


@pytest.mark.parametrize(
    "value, where",
    [
        ({"a": [1, object()]}, r"options\.a\[1\]"),
        ([{"k": object()}], r"options\[0\]\.k"),
    ],
    ids=["list-in-dict", "dict-in-list"],
)
def test_unfingerprintable_value_in_a_container_names_its_path(value, where):
    # The path is rendered only on failure, level by level on the way out.
    with pytest.raises(TypeError, match=where):
        _plain(value)


def test_hint_fields_are_fingerprint_excluded():
    # hint_dir is runtime plumbing for reusing proven optima, not part
    # of the problem statement: the daemon sets it on every allocator
    # compile and cached artifacts must still hit.
    plain = CompileOptions()
    hinted = CompileOptions()
    hinted.alloc.solve.hint_dir = "/anywhere/hints"
    assert options_fingerprint(plain) == options_fingerprint(hinted)
    assert cache_key(SOURCE, plain) == cache_key(SOURCE, hinted)


def _race_writer(root, source, comp, rounds):
    cache = CompileCache(root)
    for _ in range(rounds):
        cache.put(source, None, comp)
    return cache.stats.as_dict()


def _race_reader(root, source, rounds):
    cache = CompileCache(root)
    seen = 0
    for _ in range(rounds):
        if cache.get(source, None) is not None:
            seen += 1
    return seen, cache.stats.invalidations


def test_concurrent_put_never_exposes_a_torn_entry(tmp_path):
    # Two processes hammer put() on the same key while two more read it
    # back.  put() writes to a temp file and os.replace()s into place,
    # so a reader must always see either the old or the new complete
    # artifact — a torn read would unpickle garbage and count an
    # invalidation.
    root = str(tmp_path / "cache")
    options = CompileOptions()
    options.run_allocator = False  # virtual-only: small + fast artifact
    comp = compile_nova(SOURCE, options=options).slim()
    CompileCache(root).put(SOURCE, None, comp)  # entry exists up front
    rounds = 60
    with ProcessPoolExecutor(max_workers=4) as pool:
        writers = [
            pool.submit(_race_writer, root, SOURCE, comp, rounds)
            for _ in range(2)
        ]
        readers = [
            pool.submit(_race_reader, root, SOURCE, rounds)
            for _ in range(2)
        ]
        for writer in writers:
            assert writer.result()["writes"] == rounds
        for reader in readers:
            seen, invalidations = reader.result()
            assert seen == rounds  # never a miss once the entry exists
            assert invalidations == 0  # never a torn/corrupt read


def test_corrupt_entry_is_a_miss_not_a_crash(cache):
    options = CompileOptions()
    cached_compile(SOURCE, options=options, cache=cache)
    path = cache.path_for(cache_key(SOURCE, options))
    path.write_bytes(b"not a pickle at all")
    result = cache.get(SOURCE, options)
    assert result is None
    assert cache.stats.invalidations == 1
    assert not path.exists()  # corrupt entry deleted
    # The next compile repopulates it.
    _, state = cached_compile(SOURCE, options=options, cache=cache)
    assert state == "miss"
    assert cache.get(SOURCE, options) is not None


def test_truncated_entry_is_a_miss(cache):
    options = CompileOptions()
    cached_compile(SOURCE, options=options, cache=cache)
    path = cache.path_for(cache_key(SOURCE, options))
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    assert cache.get(SOURCE, options) is None
    assert cache.stats.invalidations == 1


def test_wrong_format_version_is_a_miss(cache):
    options = CompileOptions()
    comp = compile_nova(SOURCE, options=options)
    key = cache_key(SOURCE, options)
    path = cache.path_for(key)
    path.parent.mkdir(parents=True, exist_ok=True)
    entry = {"format": CACHE_FORMAT + 1, "key": key, "compilation": comp}
    path.write_bytes(pickle.dumps(entry))
    assert cache.get(SOURCE, options) is None
    assert cache.stats.invalidations == 1


def test_cached_artifact_never_embeds_a_tracer(tmp_path):
    tracer = Tracer()
    cache = CompileCache(tmp_path / "cache", tracer)
    compiled, _ = cached_compile(SOURCE, options=None, cache=cache, tracer=tracer)
    assert compiled.trace is tracer  # the live compile keeps its tracer
    hit = cache.get(SOURCE, None)
    assert hit.trace is None  # ...but the stored artifact does not
    assert hit.alloc.model is None  # nor the multi-MB raw ILP model
    assert hit.alloc.variables > 0  # the summary ints survive


def test_lookup_and_store_record_spans(tmp_path):
    tracer = Tracer()
    cache = CompileCache(tmp_path / "cache", tracer)
    cached_compile(SOURCE, options=None, cache=cache, tracer=tracer)
    cached_compile(SOURCE, options=None, cache=cache, tracer=tracer)
    lookups = tracer.all("cache.lookup")
    assert [s.counters["outcome"] for s in lookups] == ["miss", "hit"]
    stores = tracer.all("cache.store")
    assert len(stores) == 1 and stores[0].counters["bytes"] > 0
