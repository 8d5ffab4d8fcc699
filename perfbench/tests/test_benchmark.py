"""Tests of the benchmark itself (not of ``repro``).

Run from the checkout root::

    python3 -m pytest perfbench/tests -q

The end-to-end tests start real benchmark runs with a one-second
window, so the file takes about three minutes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import service  # noqa: E402


def _run(workload: str, seed: int, trace: int = 0,
         cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def _parse(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    counters = next(json.loads(line.split(" ", 1)[1]) for line in lines
                    if line.startswith("counters "))
    return counters, json.loads(lines[-1])


# -- span attribution ----------------------------------------------------------

def _span(name, start, end, thread=1):
    return (None, None, name, start, end, thread)


def test_self_time_subtracts_children_in_one_thread():
    spans = [_span("root", 0.0, 10.0), _span("child", 2.0, 5.0),
             _span("grandchild", 3.0, 4.0), _span("child", 6.0, 7.0)]
    self_s, unattributed = layers.attribute(spans, [(-1.0, 12.0)])
    assert self_s == pytest.approx({"root": 6.0, "child": 3.0,
                                    "grandchild": 1.0})
    assert unattributed == pytest.approx(3.0)


def test_overlapping_threads_share_the_instant():
    spans = [_span("a", 0.0, 4.0, thread=1), _span("b", 2.0, 6.0, thread=2)]
    self_s, unattributed = layers.attribute(spans, [(0.0, 8.0)])
    assert self_s == pytest.approx({"a": 3.0, "b": 3.0})
    assert unattributed == pytest.approx(2.0)
    assert sum(self_s.values()) + unattributed == pytest.approx(8.0)


def test_spans_are_clipped_to_the_window():
    spans = [_span("a", 0.0, 10.0), _span("b", 4.0, 12.0, thread=2)]
    self_s, unattributed = layers.attribute(spans, [(5.0, 11.0)])
    assert sum(self_s.values()) + unattributed == pytest.approx(6.0)
    assert unattributed == pytest.approx(0.0)


def test_only_time_inside_the_windows_counts():
    spans = [_span("a", 0.0, 10.0), _span("b", 3.0, 4.0)]
    self_s, unattributed = layers.attribute(spans,
                                            [(2.0, 5.0), (7.0, 12.0)])
    assert self_s == pytest.approx({"a": 5.0, "b": 1.0})
    assert unattributed == pytest.approx(2.0)


def test_in_flight_merges_overlapping_requests():
    def outcome(started, finished):
        return service.Outcome(None, None, started, finished, False, None)

    outcomes = [outcome(4.0, 6.0), outcome(0.0, 2.0), outcome(1.0, 3.0)]
    assert service.in_flight(outcomes) == [(0.0, 3.0), (4.0, 6.0)]


def test_install_patches_every_binding_and_uninstall_restores():
    import repro.scheduler.sms as sms
    import repro.vm.translator as translator
    original = translator.modulo_schedule
    recorder = layers.Recorder()
    uninstall = layers.install(recorder)
    try:
        assert translator.modulo_schedule is not original
        assert sms.modulo_schedule is translator.modulo_schedule
        assert translator.modulo_schedule.__wrapped__ is original
    finally:
        uninstall()
    assert translator.modulo_schedule is original
    assert sms.modulo_schedule is original


def test_recorder_keeps_parent_links():
    recorder = layers.Recorder()

    def inner():
        return 7

    traced_inner = recorder.wrap(inner, "inner", "inner")
    with recorder.span("outer"):
        assert traced_inner() == 7
    (inner_id, inner_parent, *_), (outer_id, outer_parent, *_) = \
        recorder.spans
    assert inner_parent == outer_id and outer_parent is None
    assert recorder.calls["inner"] == 1


# -- seeds ----------------------------------------------------------------------

def _sources(seed: int, client: int, count: int = 60) -> list[tuple]:
    kernels = service.suite_kernels()
    stream = service.request_stream(kernels, seed, client)
    return [(r.kind, r.source) for r, _ in zip(stream, range(count))]


def test_seed_reaches_the_request_generator():
    assert _sources(1, 0) == _sources(1, 0)
    assert _sources(1, 0) != _sources(2, 0)
    assert any(kind == "translate_new" for kind, _ in _sources(1, 0))


def test_clients_use_disjoint_kernels():
    kernels = service.suite_kernels()
    halves = [{k.name for k in service.client_kernels(kernels, 5, c)}
              for c in range(service.CLIENTS)]
    assert not halves[0] & halves[1]
    assert halves[0] | halves[1] == {k.name for k in kernels}


# -- whole runs ------------------------------------------------------------------

@pytest.mark.parametrize("workload", ["figures-cold", "service-mix"])
def test_same_seed_gives_identical_counters(workload):
    first, result = _parse(_run(workload, 3))
    second, _ = _parse(_run(workload, 3))
    assert result["correct"] and result["failed"] == 0
    assert first == second
    assert first["translator.core_runs"] > 0


def test_other_seed_changes_service_mix_work():
    first, _ = _parse(_run("service-mix", 3))
    other, _ = _parse(_run("service-mix", 4))
    assert first != other


@pytest.mark.parametrize("workload", ["figures-cold", "service-mix"])
def test_traced_run_reconciles_with_its_wall_time(workload):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    _, result = _parse(_run(workload, 3, trace=1))
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert set(metrics) == {m["name"] for m in spec["per_layer"]}
    self_times = sum(metrics[name] for name in layers.SELF_TIME_METRICS)
    assert math.isclose(self_times + metrics["unattributed_s"],
                        metrics["trace.wall_s"], rel_tol=1e-9)
    assert metrics["translator.self_s"] > 0
    assert metrics["error_rate"] == 0
    if workload == "figures-cold":
        assert metrics["unattributed_share"] < 0.01
    else:
        assert metrics["service.wire_s"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("figures-cold", 1, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# -- reference texts -------------------------------------------------------------

RESULTS = ROOT / "benchmarks" / "results"
COMMITTED = {
    "fig2": "fig2_coverage", "fig3a": "fig3a_function_units",
    "fig3b": "fig3b_registers", "fig4a": "fig4a_streams",
    "fig4b": "fig4b_max_ii", "fig6": "fig6_overhead",
    "fig7": "fig7_transforms", "fig10": "fig10_speedup",
    "static-mii": "static_mii", "footnote3": "footnote3_priority_drift",
    "amortization": "amortization", "speculation": "speculation_support",
    "utilization": "utilization",
}


def test_references_are_the_committed_figure_texts():
    reference = BENCH / "reference"
    for name, stem in COMMITTED.items():
        assert (reference / f"{name}.txt").read_text() == \
            (RESULTS / f"{stem}.txt").read_text(), name
    assert (reference / "design.txt").read_text() == (
        (RESULTS / "design_point.txt").read_text() + "\n"
        + (RESULTS / "area_table.txt").read_text())
    # The committed fig8 text predates the failure-kind line.
    assert (reference / "fig8.txt").read_text() == (
        (RESULTS / "fig8_translation.txt").read_text()
        + "untranslated loops by failure kind: register-pressure=1\n")
