"""The repository benchmark: one run of one workload, one JSON result.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload figures-cold --seed 1 \\
        --seconds 20 --trace 0

Workloads: ``figures-cold``, ``figures-warm`` (see ``figures.py``) and
``service-mix`` (see ``service.py``).  With ``--trace 0`` the result
holds the end-to-end metrics; with ``--trace 1`` it holds the per-layer
metrics of a separate traced run.  Metric names and units come from
``BENCHMARK.json`` at the checkout root.  The line before the result
holds the exact work counters of the run, prefixed ``counters``.

The program runs with its defaults: every ``REPRO_*`` variable is
removed from the environment before ``repro`` is imported.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("figures-cold", "figures-warm", "service-mix")
#: Per-layer metrics of the service layers; the figure workloads never
#: reach them, so they read 0 there.
SERVICE_ONLY = frozenset({
    "service.translate_repeat_ms", "service.translate_new_ms",
    "service.run_loop_ms", "service.translated", "service.dedup_hits",
    "service.rejected", "client.retries"})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {src}; run from a checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    env = dict(os.environ, PYTHONPATH=str(src))
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))

    if args.workload == "service-mix":
        import service
        raw = service.run(args.seed, args.seconds, bool(args.trace), env,
                          ROOT)
    else:
        import figures
        raw = figures.run(args.workload, args.seconds, bool(args.trace),
                          env, ROOT)

    if args.trace:
        values = layer_metrics(raw, args.workload)
        wanted = spec["per_layer"]
    else:
        values = raw["metrics"]
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    print("counters " + json.dumps(raw["counters"], sort_keys=True))
    print("samples " + json.dumps(raw["samples"], sort_keys=True))
    print(json.dumps({"correct": raw["correct"],
                      "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    return 0


def layer_metrics(raw: dict, workload: str) -> dict:
    """Every per-layer value: self times, counters, ratios."""
    import layers
    values = {name: 0.0 for name in layers.SELF_TIME_METRICS}
    if workload != "service-mix":
        values.update({name: 0 for name in SERVICE_ONLY})
    values.update(raw["counters"])
    values.update(raw["layer"])
    lookups = values["perf.transcache.hits"] + values["perf.transcache.misses"]
    values["perf.transcache.hit_ratio"] = (
        values["perf.transcache.hits"] / lookups if lookups else 0.0)
    values["unattributed_share"] = (values["unattributed_s"]
                                    / values["trace.wall_s"])
    values["error_rate"] = raw["failed"] / raw["attempted"]
    return values


if __name__ == "__main__":
    sys.exit(main())
