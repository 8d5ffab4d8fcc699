"""The ``service-mix`` workload: a closed loop against a ``NetServer``.

The server runs in its own process (this file run as ``serve``), with
the default ``NetConfig`` and ``ServiceConfig``, booted cold with no
artifact.  Two clients, one per core, each hold one connection and
wait for each reply before sending the next request.  Each client's
request stream is drawn from the seed:

* about 60 % ``translate`` of suite kernels (cache reads after the
  first request for a kernel),
* about 20 % ``translate`` of loops freshly drawn from
  ``repro.workloads.generator`` with the default ``GeneratorSpec`` and
  a seeded generator seed (cache writes, one core run each),
* about 20 % ``run_loop`` of suite kernels (execution through the JIT).

The two clients draw their suite kernels from disjoint halves of the
suite, so no two concurrent requests ever share a translation key.
That keeps every server counter a function of the seed alone.  The
single-flight dedup path still runs on every translate request, and
every repeat of a completed key counts as a dedup hit.

After the timed window every reply is checked against the in-process
serial path: ``repro.api.translate`` and ``repro.api.run_loop``.
"""

from __future__ import annotations

import json
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator, Optional

import layers

HERE = Path(__file__).resolve().parent
CLIENTS = 2
#: Each client's first requests form the counted round: both clients
#: stop after this many, the server counters are read, then both go on.
COUNTED_PER_CLIENT = 1000
#: Server boots per run; each one is a ``setup_s`` sample.
BOOTS = 3
#: Consecutive completed requests per block; ``wall_s``,
#: ``throughput_rps`` and ``latency_p50_ms`` are medians over blocks.
BLOCK = 200
CLASSES = ("translate_repeat", "translate_new", "run_loop")


# -- inputs -------------------------------------------------------------------

@dataclass(frozen=True)
class Request:
    kind: str
    loop: Any
    #: Suite kernel name, or the generator spec that drew the loop.
    source: str


def suite_kernels() -> list:
    from repro.workloads.suite import all_benchmarks
    return sorted((kernel for bench in all_benchmarks()
                   for kernel in bench.kernels), key=lambda k: k.name)


def client_kernels(kernels: list, seed: int, client: int) -> list:
    """This client's half of the suite, chosen by the seed."""
    shuffled = list(kernels)
    random.Random(f"kernels:{seed}").shuffle(shuffled)
    return shuffled[client::CLIENTS]


def request_stream(kernels: list, seed: int, client: int
                   ) -> Iterator[Request]:
    """The endless seeded request sequence one client sends."""
    from repro.workloads.generator import GeneratorSpec, generate_loop
    mine = client_kernels(kernels, seed, client)
    rng = random.Random(f"service-mix:{seed}:{client}")
    while True:
        roll = rng.random()
        if roll < 0.6:
            kernel = rng.choice(mine)
            yield Request("translate_repeat", kernel, kernel.name)
        elif roll < 0.8:
            spec = GeneratorSpec(seed=rng.getrandbits(32))
            yield Request("translate_new", generate_loop(spec), repr(spec))
        else:
            kernel = rng.choice(mine)
            yield Request("run_loop", kernel, kernel.name)


# -- server process -----------------------------------------------------------

def serve(spec: dict) -> None:
    """Boot a default NetServer, then obey JSON commands on stdin."""
    from repro.service.net import NetConfig, NetServer

    recorder = layers.Recorder() if spec["trace"] else None
    if recorder is not None:
        layers.install(recorder)
    server = NetServer(NetConfig()).start()
    print(json.dumps({"port": server.port}), flush=True)
    for line in sys.stdin:
        command = json.loads(line)
        if command["op"] == "snap":
            print(json.dumps({"stats": server.stats_snapshot(),
                              "counters": layers.counters(),
                              "rss_mb": _rss_mb()}), flush=True)
            continue
        server.stop()
        final = {"rss_mb": _rss_mb()}
        if recorder is not None:
            self_s, unattributed = layers.attribute(recorder.spans,
                                                    command["windows"])
            final.update(self_s=self_s, unattributed_s=unattributed,
                         calls=dict(recorder.calls))
        print(json.dumps(final), flush=True)
        return


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Server:
    """The benchmark's handle on one server process."""

    def __init__(self, env: dict, root: Path, trace: bool) -> None:
        from repro.service.client import LoopClient
        spawned = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "service.py"), "serve",
             json.dumps({"trace": trace})],
            cwd=root, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True)
        try:
            self.port = json.loads(self.proc.stdout.readline())["port"]
            with LoopClient(port=self.port, session="boot") as client:
                client.ping()
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - spawned

    def command(self, **command) -> dict:
        self.proc.stdin.write(json.dumps(command) + "\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def stop(self, windows: list = ()) -> dict:
        final = self.command(op="stop", windows=list(windows))
        self.proc.stdin.close()
        self.proc.wait(timeout=60)
        return final

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=60)


# -- clients ------------------------------------------------------------------

@dataclass
class Outcome:
    request: Request
    reply: Any
    started: float
    finished: float
    refused: bool
    error: Optional[str]


def _drive(server: Server, streams: list, seconds: float) -> dict:
    """Run the closed loop for *seconds*; returns outcomes + counters."""
    from repro.errors import ReproError
    from repro.service.client import LoopClient

    clients = [LoopClient(port=server.port, session=f"bench-{index}")
               for index in range(CLIENTS)]
    outcomes: list[list[Outcome]] = [[] for _ in range(CLIENTS)]
    counted: dict = {}
    crashes: list[BaseException] = []

    def snapshot() -> None:
        counted.update(server.command(op="snap"))
        counted["client.retries"] = sum(c.stats.retries for c in clients)

    barrier = threading.Barrier(CLIENTS, action=snapshot)
    start = time.perf_counter()
    deadline = start + seconds

    def client_loop(index: int) -> None:
        try:
            _client_loop(index)
        except BaseException as exc:  # re-raised after the join below
            crashes.append(exc)

    def _client_loop(index: int) -> None:
        client, mine = clients[index], outcomes[index]
        for request in streams[index]:
            if len(mine) >= COUNTED_PER_CLIENT and \
                    time.perf_counter() >= deadline:
                return
            retries = client.stats.retries + client.stats.admission_retries
            began = time.perf_counter()
            reply, error = None, None
            try:
                if request.kind == "run_loop":
                    reply = client.run_loop(request.loop)
                else:
                    reply = client.translate(request.loop)
            except ReproError as exc:
                error = f"{type(exc).__name__}: {exc}"
            finished = time.perf_counter()
            refused = (client.stats.retries
                       + client.stats.admission_retries) > retries
            mine.append(Outcome(request, reply, began, finished, refused,
                                error))
            if len(mine) == COUNTED_PER_CLIENT:
                barrier.wait(timeout=120)

    threads = [threading.Thread(target=client_loop, args=(index,))
               for index in range(CLIENTS)]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=170)
    finally:
        for client in clients:
            client.close()
    if crashes:
        raise crashes[0]
    return {"outcomes": [o for mine in outcomes for o in mine],
            "start": start, "counted": counted}


# -- checking -----------------------------------------------------------------

def _translation_summary(result) -> tuple:
    image = result.image
    return (result.ok, result.failure_kind,
            None if image is None else image.ii,
            None if image is None else image.stage_count,
            result.meter.total_units())


def check(outcomes: list[Outcome]) -> int:
    """Replies that differ from the in-process serial path, or failed."""
    from repro import api
    references: dict = {}
    failed = 0
    for outcome in outcomes:
        request = outcome.request
        if outcome.error is not None or outcome.refused:
            failed += 1
            continue
        key = (request.kind, request.source)
        if request.kind == "run_loop":
            if key not in references:
                references[key] = api.run_loop(request.loop)
            ok = outcome.reply == references[key]
        else:
            if key not in references:
                references[key] = _translation_summary(
                    api.translate(request.loop))
            ok = _translation_summary(outcome.reply) == references[key]
            if request.kind == "translate_new":
                del references[key]
        failed += not ok
    return failed


# -- the workload -------------------------------------------------------------

def _session(env: dict, root: Path, seed: int, seconds: float,
             trace: bool) -> dict:
    """Boot a server, drive it for *seconds*, stop it, check replies."""
    kernels = suite_kernels()
    streams = [request_stream(kernels, seed, index)
               for index in range(CLIENTS)]
    server = Server(env, root, trace)
    try:
        driven = _drive(server, streams, seconds)
        windows = in_flight(driven["outcomes"])
        final = server.stop(windows)
    except BaseException:
        server.kill()
        raise
    outcomes = sorted(driven["outcomes"], key=lambda o: o.finished)
    blocks = [outcomes[i:i + BLOCK]
              for i in range(0, len(outcomes) - BLOCK + 1, BLOCK)]
    marks = [driven["start"]] + [block[-1].finished for block in blocks]
    return {"setup_s": server.setup_s, "final": final,
            "counted": driven["counted"], "outcomes": outcomes,
            "in_flight_s": sum(end - start for start, end in windows),
            "block_s": statistics.median(b - a for a, b in
                                         zip(marks, marks[1:])),
            "block_p50_ms": statistics.median(
                statistics.median(_latency_ms(o) for o in block)
                for block in blocks),
            "failed": check(outcomes)}


def in_flight(outcomes: list[Outcome]) -> list[tuple[float, float]]:
    """The disjoint intervals in which some request was outstanding.

    The traced run attributes only these: the rest of the window is
    the server waiting for a request, which no layer could cover.
    """
    merged: list[list[float]] = []
    for outcome in sorted(outcomes, key=lambda o: o.started):
        if merged and outcome.started <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], outcome.finished)
        else:
            merged.append([outcome.started, outcome.finished])
    return [tuple(window) for window in merged]


def _latency_ms(outcome: Outcome) -> float:
    return (outcome.finished - outcome.started) * 1000.0


def _boot_only(env: dict, root: Path) -> float:
    server = Server(env, root, trace=False)
    try:
        server.stop()
    except BaseException:
        server.kill()
        raise
    return server.setup_s


def run(seed: int, seconds: float, trace: bool, env: dict,
        root: Path) -> dict:
    """Run ``service-mix``; returns the raw measurement."""
    sessions = [_session(env, root, seed, seconds / 2 if trace else seconds,
                         trace=False)]
    if trace:
        sessions.append(_session(env, root, seed, seconds / 2, trace=True))
    setups = [_boot_only(env, root) for _ in range(BOOTS - len(sessions))]
    setups += [s["setup_s"] for s in sessions]
    timed = sessions[0]
    latencies = [_latency_ms(o) for o in timed["outcomes"]]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": timed["block_s"],
        "throughput_rps": BLOCK / timed["block_s"],
        "latency_p50_ms": timed["block_p50_ms"],
        "latency_p99_ms": layers.p99(latencies),
        "peak_rss_mb": timed["counted"]["rss_mb"],
    }
    counted = timed["counted"]
    service = counted["stats"]["service"]
    counters = dict(counted["counters"])
    counters.update({
        "service.translated": service["translated"],
        "service.dedup_hits": service["dedup_hits"],
        "service.rejected": (service["rejected_overload"]
                             + service["rejected_budget"]
                             + service["rejected_closed"]),
        "client.retries": counted["client.retries"],
    })
    layer = {}
    for kind in CLASSES:
        times = [_latency_ms(o) for o in timed["outcomes"]
                 if o.request.kind == kind]
        layer[f"service.{kind}_ms"] = statistics.median(times)
    if trace:
        traced = sessions[1]
        final = traced["final"]
        layer.update(final["self_s"])
        layer["unattributed_s"] = final["unattributed_s"]
        layer["trace.wall_s"] = traced["in_flight_s"]
        layer["trace.overhead_ratio"] = traced["block_s"] / timed["block_s"]
        layer["translator.calls"] = final["calls"].get(
            "repro.vm.translator.translate_loop", 0)
    all_outcomes = [o for s in sessions for o in s["outcomes"]]
    failed = sum(s["failed"] for s in sessions)
    return {"metrics": metrics, "counters": counters, "layer": layer,
            "attempted": len(all_outcomes), "failed": failed,
            "correct": failed == 0,
            "samples": {"requests": len(timed["outcomes"]),
                        "blocks": len(timed["outcomes"]) // BLOCK,
                        "boots": len(setups)}}


if __name__ == "__main__":
    if sys.argv[1:2] == ["serve"]:
        serve(json.loads(sys.argv[2]))
