"""Layer spans recorded from outside ``src/``, and their wall-time split.

The traced run wraps the public functions of each ``repro`` layer (the
table in :data:`LAYERS`) with spans.  A wrapper is installed where each
name is looked up: on the defining module or class, and on every
already-imported ``repro`` module that bound the function by name
(``from repro.scheduler.sms import modulo_schedule`` copies the
reference, so patching only ``repro.scheduler.sms`` would miss the
call in ``repro.vm.translator``).  Modules imported after installation
copy the wrapper from the patched defining module.

:func:`attribute` turns the recorded spans into per-layer self times.
Within one thread a span's self time is its duration minus the time
its child spans cover.  Across threads an instant in which several
threads each sit in some innermost span is shared equally between
those spans, so the self times plus the time no span covers always
add up to the measured windows exactly.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import statistics
import sys
import threading
import time
from collections import Counter, defaultdict
from typing import Callable, Iterable, Iterator, Optional

#: metric name -> the (module, attribute) pairs whose calls it times.
#: An attribute ``Class.method`` names a method.
LAYERS: dict[str, tuple[tuple[str, str], ...]] = {
    "scheduler.sms_s": (("repro.scheduler.sms", "modulo_schedule"),),
    "scheduler.priority_s": (("repro.scheduler.priority", "swing_priority"),
                             ("repro.scheduler.priority", "height_priority")),
    "scheduler.mii_s": (("repro.scheduler.mii", "compute_res_mii"),
                        ("repro.scheduler.mii", "compute_rec_mii")),
    "scheduler.regalloc_s": (
        ("repro.scheduler.regalloc", "register_requirements"),
        ("repro.scheduler.rotation", "assign_physical")),
    "cca.map_s": (("repro.cca.mapper", "map_cca"),),
    "analysis.schedulability_s": (
        ("repro.analysis.schedulability", "check_schedulability"),),
    "analysis.partition_s": (("repro.analysis.partition", "partition_loop"),),
    "ir.build_dfg_s": (("repro.ir.dfg", "build_dfg"),),
    "translator.self_s": (("repro.vm.translator", "translate_loop"),),
    "perf.digest_s": (("repro.perf.digest", "digest_of"),
                      ("repro.perf.digest", "loop_digest")),
    "ir.linear_program_s": (("repro.ir.cfg", "linear_program"),),
    "workloads.suite_s": (("repro.workloads.suite", "media_fp_benchmarks"),
                          ("repro.workloads.suite", "control_benchmarks"),
                          ("repro.workloads.suite", "all_benchmarks"),
                          ("repro.workloads.suite", "benchmark_by_name"),
                          ("repro.workloads.suite", "fissioned")),
    "accelerator.estimate_s": (
        ("repro.accelerator.machine", "LoopAccelerator.estimate"),),
    "accelerator.invoke_s": (
        ("repro.accelerator.machine", "LoopAccelerator.invoke"),),
    "accelerator.jit_s": (("repro.accelerator.jit", "invoke_specialized"),
                          ("repro.accelerator.jit", "execute_pipelined")),
    "cpu.pipeline_s": (("repro.cpu.pipeline", "InOrderPipeline.loop_cycles"),),
    "vm.run_loop.self_s": (("repro.vm.runtime", "VirtualMachine.run_loop"),),
    "service.wire_s": (("repro.service.wire", "encode_frame"),
                       ("repro.service.wire", "decode_payload"),
                       ("repro.service.wire", "pack_body"),
                       ("repro.service.wire", "unpack_body")),
}

#: The span the figure workers open around each ``run_figure`` call; its
#: self time is the figure's aggregation and formatting.
EXPERIMENTS = "experiments.self_s"

#: Every self-time metric a traced run reports, in report order.
SELF_TIME_METRICS = (*LAYERS, EXPERIMENTS)


class Recorder:
    """Collects spans in memory until the run ends.

    A span is ``(id, parent id, name, start, end, thread)``; the parent
    is the innermost span open on the same thread when it started (None
    for a root).  Spans of one thread nest, because every wrapper is
    synchronous.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self._ids = itertools.count()
        self._local = threading.local()

    def _open(self) -> tuple[int, Optional[int], list]:
        stack = self._local.__dict__.setdefault("stack", [])
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        return span_id, parent, stack

    def wrap(self, fn: Callable, name: str, call_name: str) -> Callable:
        spans, calls, clock = self.spans, self.calls, time.perf_counter
        ident, open_span = threading.get_ident, self._open

        def traced(*args, **kwargs):
            span_id, parent, stack = open_span()
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans.append((span_id, parent, name, start, clock(),
                              ident()))
                stack.pop()
                calls[call_name] += 1

        return functools.update_wrapper(traced, fn)

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        span_id, parent, stack = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append((span_id, parent, name, start,
                               time.perf_counter(), threading.get_ident()))
            stack.pop()

    def clear(self) -> None:
        self.spans.clear()
        self.calls.clear()


def install(recorder: Recorder) -> Callable[[], None]:
    """Wrap every function in :data:`LAYERS`; returns the uninstaller."""
    restore: list[tuple[object, str, object]] = []
    for name, targets in LAYERS.items():
        for module_name, attr in targets:
            module = importlib.import_module(module_name)
            owner_name, _, fn_name = attr.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = owner.__dict__[fn_name]
            wrapper = recorder.wrap(original, name, f"{module_name}.{attr}")
            restore.append((owner, fn_name, original))
            setattr(owner, fn_name, wrapper)
            if owner_name:
                continue
            for other in _repro_modules():
                if other is not module and \
                        other.__dict__.get(fn_name) is original:
                    restore.append((other, fn_name, original))
                    setattr(other, fn_name, wrapper)

    def uninstall() -> None:
        for owner, fn_name, original in reversed(restore):
            setattr(owner, fn_name, original)

    return uninstall


def _repro_modules() -> list:
    return [module for module_name, module in list(sys.modules.items())
            if module is not None and (module_name == "repro"
                                       or module_name.startswith("repro."))]


def _innermost_segments(spans: Iterable[tuple[str, float, float]]
                        ) -> list[tuple[float, float, str]]:
    """One thread's properly nested spans -> the innermost-span timeline."""
    segments = []
    stack: list[tuple[float, str]] = []
    cursor = 0.0
    for name, start, end in sorted(spans, key=lambda s: (s[1], -s[2])):
        while stack and stack[-1][0] <= start:
            top_end, top_name = stack.pop()
            segments.append((cursor, top_end, top_name))
            cursor = top_end
        if stack:
            segments.append((cursor, start, stack[-1][1]))
        stack.append((end, name))
        cursor = start
    while stack:
        top_end, top_name = stack.pop()
        segments.append((cursor, top_end, top_name))
        cursor = top_end
    return [seg for seg in segments if seg[1] > seg[0]]


def attribute(spans: Iterable[tuple], windows: Iterable[tuple[float, float]]
              ) -> tuple[dict[str, float], float]:
    """Split the time inside *windows* into per-name self times.

    *windows* are disjoint ``(start, end)`` intervals; spans are clipped
    to them.  Returns ``(self_s by span name, unattributed_s)``; the
    values sum to the windows' total length up to floating-point
    rounding.
    """
    windows = sorted(windows)
    by_thread: dict[int, list] = defaultdict(list)
    for _id, _parent, name, s, e, thread in spans:
        if e > windows[0][0] and s < windows[-1][1]:
            by_thread[thread].append((name, s, e))
    # A window boundary is an event with no name; it toggles whether
    # the time up to the next event counts.
    events = [(at, 0, None) for window in windows for at in window]
    for thread_spans in by_thread.values():
        for s, e, name in _innermost_segments(thread_spans):
            events.append((s, 1, name))
            events.append((e, -1, name))
    events.sort(key=lambda ev: (ev[0], ev[1]))
    self_s: dict[str, float] = defaultdict(float)
    active: Counter = Counter()
    depth = 0
    inside = False
    covered = 0.0
    previous = windows[0][0]
    for at, delta, name in events:
        if inside and depth and at > previous:
            share = (at - previous) / depth
            for active_name, count in active.items():
                if count:
                    self_s[active_name] += share * count
            covered += at - previous
        previous = at
        if name is None:
            inside = not inside
            continue
        active[name] += delta
        depth += delta
    total = sum(end - start for start, end in windows)
    return dict(self_s), total - covered


def counters() -> dict[str, int]:
    """The program's own work counters, read from this process.

    Sources: ``obs.metrics_snapshot()`` for translator and VM counts,
    ``perf.cache_stats()`` for the translation cache and the JIT code
    cache.  Every value is a whole count, so two runs of the same work
    read exactly the same.
    """
    from repro import obs, perf
    counts = obs.metrics_snapshot().get("counters", {})
    stats = perf.cache_stats()
    cache, jit = stats["translation"], stats["specialized"]
    return {
        "translator.core_runs": counts.get("translator.core_runs", 0),
        "translator.meter_units": sum(
            value for key, value in counts.items()
            if key.startswith("translator.units.")),
        "translator.failed": sum(
            value for key, value in counts.items()
            if key.startswith("translator.failed.")),
        "perf.transcache.hits": cache["hits"],
        "perf.transcache.misses": cache["misses"],
        "perf.transcache.stores": cache["stores"],
        "accelerator.jit_compiled": jit["compiled"],
        "accelerator.jit_hits": jit["hits"],
        "vm.loops": counts.get("vm.loops", 0),
        "vm.accelerated": counts.get("vm.accelerated", 0),
    }


def counter_delta(before: dict, after: dict) -> dict[str, int]:
    return {key: after[key] - before.get(key, 0) for key in after}


def p99(values: list[float]) -> float:
    """The 99th percentile, interpolated between the nearest samples."""
    return statistics.quantiles(values, n=100, method="inclusive")[98]
