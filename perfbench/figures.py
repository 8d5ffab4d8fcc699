"""The ``figures-cold`` and ``figures-warm`` workloads.

The parent side (:func:`run`) spawns worker processes, each a fresh
interpreter running this file, and turns their reports into metrics.
The worker side (:func:`worker`) imports ``repro`` with its defaults,
runs passes over the 15 benchable figures through
``repro.api.run_figure``, in the fixed order of ``benchable_figures()``
as ``python -m repro all`` runs them, checks every text against
``reference/<figure>.txt`` and prints one JSON report.  The seed plays
no part: the figures take no input.

A cold worker runs one pass: the first pass in a fresh process is what
``python -m repro all`` costs a user every time.  A warm worker runs
one untimed pass first (part of its set-up), then timed passes until
its time budget is spent.
"""

from __future__ import annotations

import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference"
#: Warm workers per run; each pays its own set-up, so ``setup_s`` is a
#: median of this many samples.
WARM_WORKERS = 2


# -- worker side --------------------------------------------------------------

def _run_pass(order, references, recorder=None):
    from repro import api
    rows = []
    start = time.perf_counter()
    for name in order:
        began = time.perf_counter()
        try:
            if recorder is None:
                text = api.run_figure(name)
            else:
                with recorder.span(layers.EXPERIMENTS):
                    text = api.run_figure(name)
            elapsed = time.perf_counter() - began
            ok = text + "\n" == references[name]
        except Exception:  # noqa: BLE001 - a failed figure is counted
            traceback.print_exc()
            elapsed, ok = time.perf_counter() - began, False
        rows.append((name, elapsed, ok))
    return start, time.perf_counter(), rows


def worker(spec: dict) -> dict:
    from repro.experiments.figures import benchable_figures

    order = list(benchable_figures())
    references = {path.stem: path.read_text()
                  for path in REFERENCE.glob("*.txt")}
    report = {"figure_set_ok": sorted(order) == sorted(references),
              "warmup": []}
    if spec["warm"]:
        report["warmup"] = _run_pass(order, references)[2]
    report["setup_s"] = time.perf_counter() - spec["spawned_at"]

    passes = []
    deadline = time.perf_counter() + spec["budget_s"]
    recorder = layers.Recorder()
    while True:
        traced = spec["trace"] and (len(passes) % 2 == 1
                                    if spec["warm"] else spec["traced"])
        before = layers.counters()
        uninstall = layers.install(recorder) if traced else None
        try:
            start, end, rows = _run_pass(order, references,
                                         recorder if traced else None)
        finally:
            if uninstall is not None:
                uninstall()
        record = {"traced": traced, "wall_s": end - start, "figures": rows,
                  "counters": layers.counter_delta(before,
                                                   layers.counters())}
        if traced:
            self_s, unattributed = layers.attribute(recorder.spans,
                                                    [(start, end)])
            record.update(self_s=self_s, unattributed_s=unattributed,
                          calls=dict(recorder.calls))
            recorder.clear()
        passes.append(record)
        if not spec["warm"]:
            break
        enough = len(passes) >= (2 if spec["trace"] else 1)
        if enough and time.perf_counter() >= deadline:
            break
    report["passes"] = passes
    report["rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return report


# -- parent side --------------------------------------------------------------

def _spawn(env: dict, root: Path, **spec) -> dict:
    spec["spawned_at"] = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "figures.py"), json.dumps(spec)],
        cwd=root, env=env, stdout=subprocess.PIPE, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"figure worker exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run(workload: str, seconds: float, trace: bool, env: dict,
        root: Path) -> dict:
    """Run one figures workload; returns the raw measurement."""
    warm = workload == "figures-warm"
    reports = []
    if warm:
        for _ in range(WARM_WORKERS):
            reports.append(_spawn(env, root, warm=True,
                                  budget_s=seconds / WARM_WORKERS,
                                  trace=trace, traced=False))
    else:
        deadline = time.perf_counter() + seconds
        while (not reports or time.perf_counter() < deadline
               or (trace and len(reports) < 2)):
            reports.append(_spawn(env, root, warm=False,
                                  budget_s=0.0, trace=trace,
                                  traced=trace and len(reports) % 2 == 1))
    return summarize(reports)


def summarize(reports: list[dict]) -> dict:
    timed = [p for r in reports for p in r["passes"] if not p["traced"]]
    traced = [p for r in reports for p in r["passes"] if p["traced"]]
    per_figure: dict[str, list[float]] = {}
    for record in timed:
        for name, elapsed, _ok in record["figures"]:
            per_figure.setdefault(name, []).append(elapsed)
    # Host load only ever adds time, so each figure's fastest timed run
    # is the steadiest estimate of its cost.
    best = [min(times) for times in per_figure.values()]
    runs = [row for r in reports
            for row in r["warmup"] + [row for p in r["passes"]
                                      for row in p["figures"]]]
    attempted = len(runs)
    failed = sum(1 for row in runs if not row[2])
    correct = failed == 0 and all(r["figure_set_ok"] for r in reports)
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in reports),
        "wall_s": sum(best),
        "throughput_rps": len(best) / sum(best),
        "latency_p50_ms": statistics.median(best) * 1000.0,
        "latency_p99_ms": layers.p99(best) * 1000.0,
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in reports),
    }
    counters = dict(timed[0]["counters"])
    layer = {}
    if traced:
        layer = _layer_metrics(traced, timed)
        layer["translator.calls"] = statistics.fmean(
            p["calls"].get("repro.vm.translator.translate_loop", 0)
            for p in traced)
    return {"metrics": metrics, "counters": counters, "layer": layer,
            "attempted": attempted, "failed": failed, "correct": correct,
            "samples": {"passes": len(timed), "traced_passes": len(traced),
                        "workers": len(reports)}}


def _layer_metrics(traced: list[dict], timed: list[dict]) -> dict:
    """Mean self times over the traced passes; means keep the sum exact."""
    names = {name for p in traced for name in p["self_s"]}
    layer = {name: statistics.fmean(p["self_s"].get(name, 0.0)
                                    for p in traced) for name in names}
    traced_wall = statistics.fmean(p["wall_s"] for p in traced)
    layer["unattributed_s"] = statistics.fmean(p["unattributed_s"]
                                               for p in traced)
    layer["trace.wall_s"] = traced_wall
    layer["trace.overhead_ratio"] = traced_wall / statistics.fmean(
        p["wall_s"] for p in timed)
    return layer


if __name__ == "__main__":
    print(json.dumps(worker(json.loads(sys.argv[1]))), flush=True)
