"""One measured process of a benchmark run.

``python3 perfbench/child.py PLAN.json`` sets a workload up in a fresh
interpreter, runs its measured requests, checks every output, and prints
one JSON report as its last line of standard output.  ``run.py`` starts
several of these per run (so that set-up time and peak memory are
measured per process) and folds their reports into the run's metrics.

Measured time is cut into *segments*.  In an untraced run every segment is
untraced.  In a traced run segments alternate untraced and traced (the
wrappers of ``spans.py`` are installed only for traced ones), so the
tracing overhead is measured on neighbouring stretches of the same work.

A :class:`speed.Sampler` runs in the process from its start (and in the
dist-cold worker), and every request, segment and the set-up carry the
host's mean slowdown over their own time window (see ``speed.py``), as
sampled on the thread that does their work (:data:`WORK_SAMPLES`);
``run.py`` divides their times by it, so that they move with the
program's speed and not with the host's.

The plan carries the inputs ``run.py`` built from the seed, together with
the reference digests the outputs must match.  Only inputs, a cache
directory and ``workers=1`` reach the program; everything else runs with
the program's defaults.
"""

from __future__ import annotations

import contextlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402

#: Errors kept verbatim in a report (the rest are only counted).
MAX_ERRORS = 5

#: serve-warm segment length: a traced run alternates tracing per segment.
SERVE_SEGMENT_S = 2.0

#: Whose host-speed samples a workload's requests and segments are
#: corrected by: those of the thread that runs their CPU work.  The figure
#: sweeps run on this process's main thread, where the sampler runs;
#: dist-cold's cells on the worker's.  serve-warm's work runs on the
#: client, service and cache threads, whose speed the main thread's
#: samples do not follow (perfbench/README.md), so it is not corrected.
WORK_SAMPLES = {"fig9-cold": "own", "panels-cold": "own",
                "serve-warm": None, "dist-cold": "worker"}

#: The clock of every time a child records (the one :mod:`speed` stamps
#: its samples with).
clock = time.monotonic


class Report:
    """What one child measured and checked."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        #: When the sampler started and when set-up ended.
        self.begun = clock()
        self.ready = 0.0
        self.threads = 1
        #: Host-speed samples of the dist-cold worker.
        self.worker_samples: List[speed.Sample] = []
        #: Set by :meth:`slow_down`.
        self.setup_slowdown = self.host_slowdown = 1.0
        self.segments: List[Dict[str, object]] = []
        self.requests: List[Dict[str, object]] = []
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        #: The program's own ledgers, over the traced segments of a traced
        #: run and over everything in an untraced one.
        self.ledger: Counter = Counter()
        self._lock = threading.Lock()

    def tracing(self, index: int) -> bool:
        """Whether segment ``index`` is traced."""
        return self.tracer is not None and index % 2 == 1

    def counted(self, traced: bool) -> bool:
        """Whether a segment's ledgers go into :attr:`ledger`."""
        return traced or self.tracer is None

    def start(self) -> None:
        """Set-up is over: note the time."""
        self.ready = clock()

    @contextlib.contextmanager
    def segment(self, traced: bool):
        """A stretch of measured time, with the wrappers installed when
        ``traced``."""
        entry = {"traced": traced, "begin": 0.0, "wall_s": 0.0}
        self.segments.append(entry)
        hooks = spans.installed(self.tracer) if traced \
            else contextlib.nullcontext()
        with hooks:
            entry["begin"] = clock()
            try:
                yield
            finally:
                entry["wall_s"] = clock() - entry["begin"]

    def request_span(self, traced: bool, tenant=None):
        if not traced:
            return contextlib.nullcontext()
        return self.tracer.span("request", tenant=tenant)

    def record(self, traced: bool, begin: float, latency_s: float,
               cells: int, scale: float, problems: List[str]) -> None:
        """One finished request (sent at ``begin``) and what its checks
        found."""
        with self._lock:
            self.requests.append({"traced": traced, "begin": begin,
                                  "latency_s": latency_s,
                                  "cells": cells, "scale": scale,
                                  "segment": len(self.segments) - 1})
            self.attempted += 1
            if problems:
                self.failed += 1
                self.errors.extend(problems[:MAX_ERRORS - len(self.errors)])

    def fail(self, problem: str) -> None:
        """A request that raised instead of answering."""
        with self._lock:
            self.attempted += 1
            self.failed += 1
            if len(self.errors) < MAX_ERRORS:
                self.errors.append(problem)

    def slow_down(self, own: List[speed.Sample],
                  work: List[speed.Sample]) -> None:
        """Give set-up (by this process's samples, ``own``), every segment
        and every request (by the samples of the thread that did their
        work, ``work``; none: 1) the host's mean slowdown over its own time
        window."""
        self.setup_slowdown = speed.slowdown(own, self.begun, self.ready)
        samples = sorted(work)
        for entry in self.segments:
            entry["slowdown"] = speed.slowdown(
                samples, entry["begin"], entry["begin"] + entry["wall_s"])
        for entry in self.requests:
            entry["slowdown"] = speed.slowdown(
                samples, entry["begin"], entry["begin"] + entry["latency_s"])
        self.host_slowdown = statistics.median(
            seconds / speed.NOMINAL_S for _, seconds in own) if own else 1.0

    def to_dict(self) -> Dict[str, object]:
        return {"ready": self.ready, "threads": self.threads,
                "setup_slowdown": self.setup_slowdown,
                "host_slowdown": self.host_slowdown,
                "segments": self.segments, "requests": self.requests,
                "attempted": self.attempted, "failed": self.failed,
                "errors": self.errors, "ledger": dict(self.ledger)}


def _sweep_ledger(ledger: Counter, result) -> None:
    """The sweep's own rung ledger: which path ran its cells."""
    policies = len(result.raw.labels()) - 1  # minus the bound curve
    ledger["cells"] += result.cache_hits + result.simulated_cells
    ledger["cache_hits"] += result.cache_hits
    ledger["cache_misses"] += result.simulated_cells
    ledger["rm_fallbacks"] += result.rm_fallbacks
    ledger["policy_runs"] += (result.simulated_cells * policies
                              + result.rm_fallbacks)
    ledger["block_cells"] += result.block_cells
    for reason, count in result.block_fallbacks.items():
        ledger[f"lane_fallback:{reason}"] += count
    ledger["fast_path_cells"] += result.fast_path_cells
    for count in result.fast_path_fallbacks.values():
        ledger["fast_path_fallbacks"] += count
    ledger["aggregate_s"] += result.stage_seconds.get("aggregate", 0.0)


def run_figure(plan: Dict[str, object], report: Report) -> None:
    """Cold in-process panel sweeps, a fresh empty cell cache per pass."""
    from repro.analysis.cellcache import CellCache
    from repro.analysis.sweep import utilization_sweep
    from repro.catalog import load_catalog

    load_catalog()
    work = Path(plan["work_dir"])
    passes = 2 if report.tracer is not None else 1
    count = plan["per_child"]
    mine = plan["requests"][plan["index"] * count:
                            (plan["index"] + 1) * count]
    report.start()
    for number, request in enumerate(mine):
        for index in range(passes):
            traced = report.tracing(index)
            cache_dir = work / f"cells-{number}-{index}"
            with report.segment(traced):
                config = inputs.sweep_config(
                    request["panel"], workers=1, cache_dir=str(cache_dir))
                try:
                    with report.request_span(traced):
                        begun = clock()
                        result = utilization_sweep(config)
                        latency = clock() - begun
                except Exception as exc:  # a failed request is counted
                    report.fail(f"{request['name']}: {exc!r}")
                    continue
            problems = []
            if inputs.result_digest(result) != request["digest"]:
                problems.append(f"{request['name']}: tables differ from "
                                "the reference engine's")
            report.record(traced, begun, latency,
                          result.cache_hits + result.simulated_cells,
                          request["scale"], problems)
            if report.counted(traced):
                _sweep_ledger(report.ledger, result)
                report.ledger["cache_bytes"] += \
                    CellCache(cache_dir).size_bytes()


def _served_stats(service, executor=None) -> Counter:
    """The service's (and remote executor's) lifetime counters."""
    stats = service.stats
    counts = Counter(requests=stats.requests,
                     result_reuses=stats.result_reuses,
                     bytes_streamed=stats.bytes_streamed,
                     cells=stats.cells_served, cache_hits=stats.cache_hits,
                     cache_misses=stats.simulated_cells
                     + stats.coalesced_cells)
    if executor is not None:
        counts.update(ipc_bytes=executor.ipc_bytes,
                      retries=executor.retries,
                      cache_bytes=service.cache.size_bytes())
    return counts


@contextlib.contextmanager
def _served_segment(report: Report, traced: bool, service, executor=None):
    """A measured segment of a served workload; its share of the service's
    counters goes into the ledger when the segment is counted."""
    before = _served_stats(service, executor)
    with report.segment(traced):
        yield
    if report.counted(traced):
        after = _served_stats(service, executor)
        after.subtract(before)
        report.ledger.update(after)


def _check_response(response, digest: str, cells: int,
                    simulated: int) -> List[str]:
    """Problems with one served response: its tables must equal
    ``digest``, and it must have simulated exactly ``simulated`` of its
    ``cells`` cells."""
    problems = []
    results, done = response["results"], response["done"]
    if len(results) != 1 or done is None:
        return [f"expected one result and a done event, got "
                f"{len(results)} result(s), done={done is not None}"]
    if inputs.event_digest(results[0]) != digest:
        problems.append("served tables differ from the in-process sweep")
    if done["simulated_cells"] != simulated:
        problems.append(f"simulated {done['simulated_cells']} cells, "
                        f"expected {simulated}")
    answered = (done["simulated_cells"] + done["cache_hits"]
                + done["coalesced_cells"])
    if answered != cells:
        problems.append(f"answered {answered} of {cells} cells")
    return problems


def run_serve(plan: Dict[str, object], report: Report) -> None:
    """Warm served sweeps: closed-loop clients on keep-alive connections
    against a service over a pre-filled cell cache."""
    from repro.analysis.cellcache import CellCache
    from repro.analysis.sweep import utilization_sweep
    from repro.service import ServiceThread, SweepService, SweepServiceClient

    pool = plan["pool"]
    cache_dir = plan["cache_dir"]
    expected = plan["digests"]
    cells = inputs.SERVE_SETS * 10
    service = SweepService(cache=CellCache(cache_dir))
    clients = []
    sent = [0] * inputs.SERVE_CLIENTS

    def loop(index: int, until: float, traced: bool) -> None:
        tenant = f"bench-{index}"
        while clock() < until:
            sequence = plan["sequences"][index]
            pick = sequence[sent[index] % len(sequence)]
            sent[index] += 1
            request = {"spec": pool[pick], "tenant": tenant}
            try:
                with report.request_span(traced, tenant):
                    begun = clock()
                    response = clients[index].submit_collect(request)
                    latency = clock() - begun
            except Exception as exc:  # a failed request is counted
                report.fail(f"request: {exc!r}")
                continue
            report.record(traced, begun, latency, cells, 1.0,
                          _check_response(response, expected[pick], cells, 0))

    with ServiceThread(service) as handle:
        try:
            for _ in range(inputs.SERVE_CLIENTS):
                client = SweepServiceClient(port=handle.port, timeout=60)
                client.healthz()  # opens the keep-alive connection
                clients.append(client)
            report.threads = len(clients)
            report.start()
            deadline = clock() + plan["share_s"]
            index = 0
            while clock() < deadline:
                traced = report.tracing(index)
                until = min(deadline, clock() + SERVE_SEGMENT_S)
                with _served_segment(report, traced, service):
                    threads = [threading.Thread(target=loop,
                                                args=(client, until, traced))
                               for client in range(len(clients))]
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join()
                index += 1
        finally:
            for client in clients:
                client.close()
    # Every response matched the reference digest of its spec; so does the
    # in-process (warm) sweep of each spec, or the run fails.  Done after
    # the measured time, so that set-up covers only imports and the
    # service's start.
    for spec, digest in zip(pool, expected):
        config = inputs.sweep_config(inputs.inline_panel(spec), workers=1,
                                     cache_dir=cache_dir)
        if inputs.result_digest(utilization_sweep(config)) != digest:
            report.fail("in-process warm sweep differs from the reference")


def run_dist(plan: Dict[str, object], report: Report) -> None:
    """Cold served sweeps whose cells run on one loopback worker."""
    from repro.analysis.cellcache import CellCache
    from repro.dist import RemoteCellExecutor
    from repro.service import ServiceThread, SweepService, SweepServiceClient

    root = HERE.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    executor = RemoteCellExecutor()
    # ``rtdvs worker``, with a host-speed sampler of its own.
    samples = Path(plan["work_dir"]) / "worker-samples.json"
    worker = subprocess.Popen(
        [sys.executable, str(HERE / "speed.py"), str(samples), "-m", "repro",
         "worker", "--connect", f"{executor.host}:{executor.port}",
         "--quiet"],
        env=env, cwd=str(root), stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL)
    try:
        if not executor.wait_for_workers(1, timeout=60):
            raise RuntimeError("the loopback worker did not connect")
        cache = CellCache(Path(plan["work_dir"]) / "cells")
        service = SweepService(cache=cache, executor=executor)
        cells = inputs.DIST_SETS * 10
        with ServiceThread(service) as handle:
            with SweepServiceClient(port=handle.port, timeout=60) as client:
                client.healthz()
                report.start()
                count = plan["per_child"]
                mine = plan["requests"][plan["index"] * count:
                                        (plan["index"] + 1) * count]
                for index, request in enumerate(mine):
                    traced = report.tracing(index)
                    body = {"spec": request["spec"], "tenant": "bench-0"}
                    with _served_segment(report, traced, service, executor):
                        try:
                            with report.request_span(traced, "bench-0"):
                                begun = clock()
                                response = client.submit_collect(body)
                                latency = clock() - begun
                        except Exception as exc:  # counted as failed
                            report.fail(f"request: {exc!r}")
                            continue
                    report.record(traced, begun, latency, cells,
                                  request["scale"],
                                  _check_response(response, request["digest"],
                                                  cells, cells))
        if executor.duplicates_dropped or executor.retries:
            report.fail(f"exactly-once delivery broken: "
                        f"{executor.duplicates_dropped} duplicate(s), "
                        f"{executor.retries} retried cell(s)")
    finally:
        executor.shutdown()
        try:
            worker.wait(timeout=30)
        except subprocess.TimeoutExpired:
            worker.kill()
            worker.wait()
    if samples.exists():
        report.worker_samples.extend(tuple(sample) for sample
                                     in json.loads(samples.read_text()))


def _peak_rss_kb() -> int:
    """This process's peak resident set (``VmHWM``).  Not ``ru_maxrss``:
    that keeps the peak of the image before ``exec``, i.e. of the parent
    that was forked to start this process."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


RUNNERS = {"fig9-cold": run_figure, "panels-cold": run_figure,
           "serve-warm": run_serve, "dist-cold": run_dist}


def main(argv: List[str]) -> int:
    sampler = speed.Sampler().start()
    plan = json.loads(Path(argv[1]).read_text())
    tracer = spans.Tracer() if plan["trace"] else None
    report = Report(tracer)
    try:
        RUNNERS[plan["workload"]](plan, report)
    finally:
        sampler.stop()
    work = {"own": sampler.samples, "worker": report.worker_samples}
    report.slow_down(sampler.samples,
                     work.get(WORK_SAMPLES[plan["workload"]], []))
    out = report.to_dict()
    out["workload"] = plan["workload"]
    out["peak_rss_kb"] = _peak_rss_kb()
    out["numpy_loaded"] = "numpy" in sys.modules
    if tracer is not None:
        if plan["workload"] in inputs.FIGURE_PANELS:
            # utilization_sweep times its own aggregation stage; move that
            # share of the sweep driver's self time to its layer.
            layers = spans.layer_seconds(tracer, "analysis.driver_s")
            aggregate = report.ledger["aggregate_s"]
            layers["analysis.driver_s"] -= aggregate
            layers["analysis.aggregate_s"] = \
                layers.get("analysis.aggregate_s", 0.0) + aggregate
        else:
            layers = spans.layer_seconds(tracer, "service.residual_s")
        out["layers"] = layers
        out["counts"] = dict(tracer.counts)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
