"""``repro.cache`` — content-addressed compile cache.

A compilation is a pure function of the source text and the option
dataclasses (``CompileOptions`` → ``AllocOptions`` → ``ModelOptions`` /
``SolveOptions``), so its artifact can be keyed by a stable hash of
exactly those inputs.  The cache stores one pickled
:class:`repro.compiler.Compilation` per key under a two-level directory
fan-out (``ab/cdef....pkl``), written atomically (temp file + rename) so
concurrent pool workers never observe a half-written entry.

Robustness rules:

- any unreadable entry — truncated pickle, wrong format version, key
  mismatch from a hash collision — is *invalidated* (deleted) and
  treated as a miss, never an exception;
- entries never embed a tracer or the (huge, reconstructible) raw ILP
  model (see :meth:`repro.compiler.Compilation.slim`);
- hits, misses, writes and invalidations are counted on the cache and
  surfaced as ``cache.lookup`` / ``cache.store`` spans on the supplied
  :class:`repro.trace.Tracer`.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import pickle
import tempfile
from pathlib import Path

from repro.compiler import Compilation, CompileOptions, compile_nova
from repro.trace import ensure

#: Bumped whenever the pickled artifact layout changes incompatibly;
#: part of every key, so stale formats read as misses, not errors.
CACHE_FORMAT = 1


_LEAVES = (str, int, float, bool, type(None))


class _NotPlain(Exception):
    """An unfingerprintable value; ``steps`` collects its path leaf-first."""

    def __init__(self, value):
        self.value = value
        self.steps: list[str] = []


def _plain(value, path: str = "options"):
    """Reduce an options object to JSON-serializable plain data.

    Dataclass fields declared with ``metadata={"fingerprint": False}``
    are runtime-only plumbing (e.g. the warm-start hint directory on
    :class:`repro.ilp.options.SolveOptions`) and are excluded, so setting
    them never changes a cache key.

    A value outside the plain-data vocabulary raises :class:`TypeError`
    naming the offending field: the old ``repr(value)`` fallback embedded
    memory addresses for arbitrary objects (``<object at 0x7f...>``),
    which silently turned every lookup into a cross-process miss.  The
    field path is rendered only then; every cache lookup pays for the
    walk, so it formats nothing it does not need.
    """
    try:
        return _reduce(value)
    except _NotPlain as exc:
        where = path + "".join(reversed(exc.steps))
        raise TypeError(
            f"cannot fingerprint option field {where}: "
            f"{type(exc.value).__name__} is not plain data (its repr may "
            f"embed memory addresses, which would make every cache lookup a "
            f"miss across processes)"
        ) from None


def _reduce(value):
    if isinstance(value, _LEAVES):
        return value
    names = _fingerprinted(type(value))
    if names is not None:
        out = {}
        for name in names:
            try:
                out[name] = _reduce(getattr(value, name))
            except _NotPlain as exc:
                exc.steps.append(f".{name}")
                raise
        return out
    if isinstance(value, (list, tuple)):
        items = []
        for i, item in enumerate(value):
            try:
                items.append(_reduce(item))
            except _NotPlain as exc:
                exc.steps.append(f"[{i}]")
                raise
        return items
    if isinstance(value, dict):
        out = {}
        for k, v in sorted(value.items()):
            try:
                out[str(k)] = _reduce(v)
            except _NotPlain as exc:
                exc.steps.append(f".{k}")
                raise
        return out
    raise _NotPlain(value)


@functools.cache
def _fingerprinted(cls: type) -> tuple[str, ...] | None:
    """A dataclass's fingerprinted field names; None for other types."""
    if not dataclasses.is_dataclass(cls):
        return None
    return tuple(
        f.name
        for f in dataclasses.fields(cls)
        if f.metadata.get("fingerprint", True)
    )


def options_fingerprint(options: CompileOptions) -> str:
    """Canonical JSON rendering of the whole options tree."""
    return json.dumps(_plain(options), sort_keys=True, separators=(",", ":"))


def frontend_fingerprint(options: CompileOptions) -> str:
    """Fingerprint of only the options the pre-allocation pipeline sees.

    Two option points with equal front-end fingerprints compile to the
    same virtual flowgraph (allocator knobs are excluded), so the fuzz
    oracle can re-run just the allocator on a shared
    :class:`repro.compiler.Compilation`.
    """
    plain = _plain(options)
    plain.pop("alloc", None)
    plain.pop("run_allocator", None)
    return json.dumps(plain, sort_keys=True, separators=(",", ":"))


def cache_key(source: str, options: CompileOptions) -> str:
    """Stable content hash of (format, options, source)."""
    digest = hashlib.sha256()
    digest.update(f"novac-cache-v{CACHE_FORMAT}\n".encode())
    digest.update(options_fingerprint(options).encode())
    digest.update(b"\n")
    digest.update(source.encode())
    return digest.hexdigest()


@dataclasses.dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    writes: int = 0
    #: unreadable entries deleted and treated as misses
    invalidations: int = 0

    def as_dict(self) -> dict[str, int]:
        return dataclasses.asdict(self)


class CompileCache:
    """Content-addressed store of pickled :class:`Compilation` artifacts."""

    def __init__(self, root: str | Path, tracer=None):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.tracer = ensure(tracer)
        self.stats = CacheStats()

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key[2:]}.pkl"

    # -- lookup --------------------------------------------------------------

    def get(
        self, source: str, options: CompileOptions | None = None
    ) -> Compilation | None:
        """The cached compilation for (source, options), or None on miss.

        A corrupt or mismatched entry is deleted and reported as a miss.
        """
        options = options or CompileOptions()
        key = cache_key(source, options)
        with self.tracer.span("cache.lookup", key=key[:12]) as sp:
            result = self._load(key)
            if result is None:
                self.stats.misses += 1
            else:
                self.stats.hits += 1
            if sp:
                sp.add(outcome="hit" if result is not None else "miss")
        return result

    def _load(self, key: str) -> Compilation | None:
        path = self.path_for(key)
        try:
            with open(path, "rb") as handle:
                entry = pickle.load(handle)
        except FileNotFoundError:
            return None
        except Exception:
            self._invalidate(path)
            return None
        if (
            not isinstance(entry, dict)
            or entry.get("format") != CACHE_FORMAT
            or entry.get("key") != key
            or not isinstance(entry.get("compilation"), Compilation)
        ):
            self._invalidate(path)
            return None
        return entry["compilation"]

    def _invalidate(self, path: Path) -> None:
        self.stats.invalidations += 1
        with self.tracer.span("cache.invalidate", path=path.name):
            try:
                path.unlink()
            except OSError:
                pass

    # -- store ---------------------------------------------------------------

    def put(
        self,
        source: str,
        options: CompileOptions | None,
        compilation: Compilation,
    ) -> str:
        """Store an artifact; returns its key.  Atomic against readers."""
        options = options or CompileOptions()
        key = cache_key(source, options)
        path = self.path_for(key)
        entry = {
            "format": CACHE_FORMAT,
            "key": key,
            "compilation": compilation.slim(),
        }
        with self.tracer.span("cache.store", key=key[:12]) as sp:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    pickle.dump(entry, handle, protocol=pickle.HIGHEST_PROTOCOL)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
            self.stats.writes += 1
            if sp:
                sp.add(bytes=path.stat().st_size)
        return key


def cached_compile(
    source: str,
    filename: str = "<nova>",
    options: CompileOptions | None = None,
    cache: CompileCache | None = None,
    tracer=None,
) -> tuple[Compilation, str]:
    """Compile through the cache; returns (compilation, 'hit'|'miss'|'off').

    On a miss the fresh artifact is stored before returning, so the next
    byte-identical compile with the same options hits.
    """
    options = options or CompileOptions()
    if cache is None:
        return compile_nova(source, filename, options, tracer=tracer), "off"
    result = cache.get(source, options)
    if result is not None:
        return result, "hit"
    result = compile_nova(source, filename, options, tracer=tracer)
    cache.put(source, options, result)
    return result, "miss"
