"""``repro.proto`` — the ``novac serve`` wire protocol.

Newline-delimited JSON: every request and every response is one JSON
object on one line, UTF-8, ``\\n``-terminated.  One connection carries
any number of requests, answered in order.  Shared by the asyncio daemon
(:mod:`repro.serve`) and the blocking client (:mod:`repro.client`).

Requests (``op`` selects the verb):

- ``{"op": "compile", "source": ..., "filename": ..., "options": {...},
  "payload": "pretty" | "listing" | "none", "trace": bool, "id": ...}``
- ``{"op": "batch", "units": [{"filename": ..., "source": ...}, ...],
  "options": {...}, "trace": bool}``
- ``{"op": "stats"}`` / ``{"op": "ping"}``
- ``{"op": "shutdown"}`` — drain: in-flight requests complete first.
- ``{"op": "crash-worker"}`` — kill one pool worker mid-request
  (operational/testing aid: proves the daemon degrades structurally).

Responses always carry ``ok`` (bool) and echo ``op`` and any ``id``;
failures carry ``error: {kind, message, location}``.

Options travel as a *sparse* nested dict: only the knobs the client
explicitly set (:func:`options_to_wire` diffs against the defaults);
everything the client left unsaid takes the same default an in-process
compile would, so daemon and in-process compiles share cache keys.  The
daemon only adds the fingerprint-excluded ``hint_dir`` (its store of
proven ILP optima), which the wire therefore never carries.
"""

from __future__ import annotations

import dataclasses
import json

from repro.alloc.allocator import AllocOptions
from repro.alloc.ilpmodel import ModelOptions
from repro.compiler import CompileOptions
from repro.ilp.options import ENGINES, SolveOptions

#: One request or response line may not exceed this (64 MiB): big enough
#: for any real source file or listing, small enough to bound memory.
MAX_LINE = 64 * 1024 * 1024

#: Payload renderings a compile request may ask for.
PAYLOADS = ("pretty", "listing", "none")


class ProtocolError(ValueError):
    """A malformed request or response line."""


def encode(obj: dict) -> bytes:
    """One protocol line: compact JSON + newline."""
    return json.dumps(obj, separators=(",", ":")).encode() + b"\n"


def decode(line: bytes) -> dict:
    """Parse one protocol line; raises :class:`ProtocolError`."""
    if len(line) > MAX_LINE:
        raise ProtocolError(f"line exceeds {MAX_LINE} bytes")
    try:
        obj = json.loads(line)
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"bad JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ProtocolError("protocol messages must be JSON objects")
    return obj


# --------------------------------------------------------------------------
# Options over the wire
# --------------------------------------------------------------------------

#: Nested dataclass fields of the options tree, by field name.
_NESTED = {"alloc": AllocOptions, "model": ModelOptions, "solve": SolveOptions}

#: Runtime-only fields the daemon owns; never accepted from the wire.
_SERVER_ONLY = {"hint_dir"}


def options_to_wire(options: CompileOptions) -> dict:
    """Sparse dict of the knobs that differ from the defaults."""
    return _diff(options, _DEFAULTS, _WIRE_FIELDS)


def _diff(value, default, fields):
    out = {}
    for name, nested in fields:
        current = getattr(value, name)
        base = getattr(default, name)
        if nested is not None:
            sub = _diff(current, base, nested)
            if sub:
                out[name] = sub
        elif current != base:
            out[name] = current
    return out


def _wire_fields(cls) -> tuple:
    """``(name, nested fields or None)`` per wire field of ``cls``, in
    declaration order, without :data:`_SERVER_ONLY`."""
    return tuple(
        (f.name, _wire_fields(_NESTED[f.name]) if f.name in _NESTED else None)
        for f in dataclasses.fields(cls)
        if f.name not in _SERVER_ONLY
    )


#: The options tree's wire fields and the default tree that
#: :func:`options_to_wire` diffs against, both built once at import, so
#: a client request inspects no dataclass.
_WIRE_FIELDS = _wire_fields(CompileOptions)
_DEFAULTS = CompileOptions()


def options_from_wire(data: dict | None) -> CompileOptions:
    """Rebuild a :class:`CompileOptions` tree from a sparse wire dict.

    Unknown keys, server-only keys, type mismatches and unknown solver
    engines raise :class:`ProtocolError` — a daemon must never apply
    half-understood options (the cache key would cover settings that
    took no effect).
    """
    options = CompileOptions()
    _apply(options, data or {}, "options")
    engine = options.alloc.solve.engine
    if engine not in ENGINES:
        raise ProtocolError(
            f"options.alloc.solve.engine must be one of {ENGINES}, "
            f"got {engine!r}"
        )
    return options


def _apply(target, data, path):
    if not isinstance(data, dict):
        raise ProtocolError(f"{path} must be an object, got {type(data).__name__}")
    fields = {f.name: f for f in dataclasses.fields(target)}
    for key, value in data.items():
        if key in _SERVER_ONLY:
            raise ProtocolError(f"{path}.{key} is server-side only")
        f = fields.get(key)
        if f is None:
            raise ProtocolError(f"unknown option {path}.{key}")
        if key in _NESTED:
            _apply(getattr(target, key), value, f"{path}.{key}")
        elif isinstance(value, (str, int, float, bool)) or value is None:
            setattr(target, key, value)
        else:
            raise ProtocolError(
                f"{path}.{key} must be a scalar, got {type(value).__name__}"
            )


# --------------------------------------------------------------------------
# Response helpers
# --------------------------------------------------------------------------


def error_response(
    op: str,
    kind: str,
    message: str,
    location: str | None = None,
    request_id=None,
) -> dict:
    out = {
        "ok": False,
        "op": op,
        "error": {"kind": kind, "message": message, "location": location},
    }
    if request_id is not None:
        out["id"] = request_id
    return out
