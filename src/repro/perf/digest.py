"""Stable content digests for translation inputs.

A digest is a SHA-256 over a canonical, order-stable rendering of the
object — *what* the translator/timing model reads, not object identity.
Two structurally identical loops built in different processes digest
identically, which is what lets the translation cache persist on disk
across runs and be shared by parallel sweep workers.

Cosmetic fields (``Operation.comment``) are excluded; everything with
semantic weight (opcode, operands, predicates, CCA inner ops, stream
ids, array shapes/aliasing, trip counts, annotations) is included.
"""

from __future__ import annotations

import hashlib
from typing import Any, Optional

from repro.ir.loop import ArrayDecl, Loop
from repro.ir.opcodes import LatencyModel
from repro.ir.ops import Imm, Operation, Reg

#: Bump when digest composition or cached-value layout changes, so a
#: stale on-disk cache can never resurface under a new code version.
DIGEST_VERSION = "veal-perf-2"

_MEMO_ATTR = "_veal_memo"

#: Bound on :func:`options_digest`'s memo; a sweep uses a handful of
#: option sets, so overflowing it just starts the memo afresh.
_OPTIONS_MEMO_LIMIT = 64
_options_digests: dict[str, str] = {}


def _canon(value: Any) -> Any:
    """Render *value* as nested primitive tuples, deterministically."""
    if isinstance(value, (int, float, str, bool)) or value is None:
        if isinstance(value, float):
            return ("f", repr(value))
        return value
    if isinstance(value, Reg):
        return ("reg", value.name, value.space)
    if isinstance(value, Imm):
        return ("imm", _canon(value.value))
    if isinstance(value, Operation):
        return (
            "op", value.opid, value.opcode.name,
            tuple(_canon(d) for d in value.dests),
            tuple(_canon(s) for s in value.srcs),
            _canon(value.predicate),
            tuple(_canon(i) for i in value.inner),
            value.stream_id,
        )
    if isinstance(value, ArrayDecl):
        return ("array", value.name, value.length, value.is_float,
                value.may_alias)
    if isinstance(value, LatencyModel):
        return ("latency", tuple(sorted(
            (op.name, lat) for op, lat in value.overrides.items())))
    if isinstance(value, dict):
        return ("dict", tuple(sorted(
            (repr(_canon(k)), _canon(v)) for k, v in value.items())))
    if isinstance(value, (list, tuple)):
        return ("seq",) + tuple(_canon(v) for v in value)
    if isinstance(value, (set, frozenset)):
        return ("set", tuple(sorted(repr(_canon(v)) for v in value)))
    # Fall back to repr for enums and small config dataclasses whose
    # repr is value-based (frozen dataclasses).
    return ("repr", repr(value))


def digest_of(*parts: Any) -> str:
    """SHA-256 hex digest of the canonical rendering of *parts*."""
    payload = repr((DIGEST_VERSION,) + tuple(_canon(p) for p in parts))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class LoopMemo:
    """The facts a translation-cache lookup derives from one loop object.

    Loops are treated as immutable once built (every transform goes
    through :meth:`Loop.rebuild` / :meth:`Operation.copy`, which create
    fresh objects), so a fact computed from a loop stays true for the
    object's lifetime and can live on it.  One record per loop, stored
    as ``loop._veal_memo`` and dropped by ``Loop.__getstate__``:

    * ``digest``: the loop's content digest (:func:`loop_digest`);
    * ``demand``: per latency model, the loop's resource demand and
      serial-II bound (filled by the translator's schedule projection);
    * ``core_keys``: per (config, options) rendering, the translation
      cache keys of that input (filled by the translator).
    """

    __slots__ = ("digest", "demand", "core_keys")

    def __init__(self) -> None:
        self.digest: Optional[str] = None
        self.demand: dict = {}
        self.core_keys: dict = {}


def loop_memo(loop: Loop) -> LoopMemo:
    """The memo record of *loop*, created empty on first use."""
    memo = loop.__dict__.get(_MEMO_ATTR)
    if memo is None:
        memo = loop.__dict__[_MEMO_ATTR] = LoopMemo()
    return memo


def loop_digest(loop: Loop) -> str:
    """Content digest of a loop, memoised on the instance."""
    memo = loop_memo(loop)
    if memo.digest is None:
        memo.digest = digest_of(
            "loop", loop.name,
            tuple(loop.body), tuple(loop.live_ins), tuple(loop.live_outs),
            tuple(loop.arrays), loop.trip_count, loop.invocations,
            loop.annotations,
        )
    return memo.digest


def options_digest(options) -> str:
    """Digest of a :class:`~repro.vm.translator.TranslationOptions`.

    Memoised on ``repr(options)``, which renders every field the digest
    reads with its exact value and type, so two option sets the digest
    tells apart never share a memo entry.
    """
    rendering = repr(options)
    value = _options_digests.get(rendering)
    if value is None:
        if len(_options_digests) >= _OPTIONS_MEMO_LIMIT:
            _options_digests.clear()
        value = _options_digests[rendering] = digest_of(
            "options", options.use_static_cca, options.use_static_priority,
            options.use_static_mii, options.priority_kind,
            options.latency_model, options.work_budget,
        )
    return value


def cpu_key(config, latency_model: LatencyModel) -> tuple:
    """Hashable identity of a scalar-pipeline timing model."""
    return (config, tuple(sorted(
        (op.name, lat) for op, lat in latency_model.overrides.items())))
