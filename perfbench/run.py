"""The repository's benchmark: seeded paper-figure and served-sweep workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fig9-cold --seed 0 --seconds 15 \\
        --trace 0

One run builds the workload's inputs from ``--seed``, computes (or reuses,
per seed) the digests the reference engine gives for them, then starts
fresh measuring processes (``child.py``): three, one after another, for
``--trace 0``, which reports the end-to-end metrics; one for ``--trace 1``,
which alternates untraced and traced segments of the same work and reports
the per-layer metrics and the tracing overhead.  The measuring processes
share ``--seconds`` of measured work.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the run's provenance.

Workloads, metrics and the layer each per-layer metric belongs to are
described in ``perfbench/README.md`` and listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from typing import Dict, List, Optional

import inputs
import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Per-seed reference digests and the serve-warm pre-filled caches.
CACHE_DIR = ROOT / ".perfbench-cache"
#: Scratch space of one run (removed when the run ends).
WORK_DIR = ROOT / ".perfbench-work"

#: Measuring processes per run: the median of three set-ups is reported.
PLAIN_CHILDREN = 3

#: Seconds one cycle of a figure workload takes and one dist-cold request
#: takes on a 2-CPU host (they set how much work fits in ``--seconds``).
CYCLE_SECONDS = {"fig9-cold": 6.0, "panels-cold": 5.0}
DIST_REQUEST_SECONDS = 1.5

#: A dist-cold request's release-independent work (lease round trips and
#: service work) in releases: the median over seeds 1-8 of least-squares
#: fits of latency on releases (12 requests each) on that host was 1450.
DIST_FIXED_RELEASES = 1500.0

#: Whole-run limit: a run must end within 180 s.
RUN_DEADLINE_S = 170.0


def _digest_of(data: object) -> str:
    return hashlib.sha256(json.dumps(data, sort_keys=True)
                          .encode("utf-8")).hexdigest()[:16]


def _reference_digests(panels: List[Dict[str, object]],
                       cache_dir: Optional[Path] = None) -> List[str]:
    """Digests of ``panels`` swept on the reference engine, computed once
    per panel and kept under :data:`CACHE_DIR`.  With ``cache_dir`` the
    reference sweeps also fill that cell cache (once: a marker file records
    that it is complete)."""
    from repro.analysis.sweep import utilization_sweep

    CACHE_DIR.mkdir(exist_ok=True)
    execution: Dict[str, object] = {}
    if cache_dir is not None:
        marker = cache_dir.with_suffix(".complete")
        if not marker.exists():
            execution["cache_dir"] = str(cache_dir)
    digests = []
    for panel in panels:
        path = CACHE_DIR / f"reference-{_digest_of(panel)}.txt"
        if path.exists() and not execution:
            digests.append(path.read_text())
            continue
        digest = inputs.result_digest(utilization_sweep(
            inputs.reference_config(panel, **execution)))
        partial = path.with_suffix(".tmp")
        partial.write_text(digest)
        os.replace(partial, path)
        digests.append(digest)
    if execution:
        marker.touch()
    return digests


def _scales(panels: List[Dict[str, object]],
            seed0_panels: List[Dict[str, object]],
            fixed: float = 0.0) -> List[float]:
    """Per request: the cost of the same request at seed 0 over its own,
    a cost being its releases plus ``fixed``, the releases its
    release-independent work is worth."""
    return [(inputs.releases(base) + fixed) / (inputs.releases(panel) + fixed)
            for panel, base in zip(panels, seed0_panels)]


def build_plan(workload: str, seed: int, share_s: float, passes: int,
               children: int) -> Dict[str, object]:
    """Inputs, checks and work amount shared by the ``children`` measuring
    processes of a run; ``passes`` is how often a child runs each figure
    request (twice when it alternates untraced and traced passes)."""
    plan: Dict[str, object] = {"workload": workload, "seed": seed,
                               "share_s": share_s}
    if workload in inputs.FIGURE_PANELS:
        # Each child sweeps its own cycles, so that a run's cost rests on
        # as many distinct task sets as it sweeps panels.
        cycles = max(1, round(share_s / (passes * CYCLE_SECONDS[workload])))
        requests = [request for cycle in range(cycles * children)
                    for request in inputs.figure_requests(workload, seed,
                                                          cycle)]
        panels = [request["panel"] for request in requests]
        digests = _reference_digests(panels)
        seed0 = [request["panel"] for request in
                 inputs.figure_requests(workload, 0)]
        scales = _scales(panels, seed0 * (cycles * children))
        for request, digest, scale in zip(requests, digests, scales):
            request.update(digest=digest, scale=scale)
        plan["requests"] = requests
        plan["per_child"] = cycles * len(seed0)
    elif workload == "serve-warm":
        pool = inputs.serve_pool(seed)
        cache_dir = CACHE_DIR / f"cells-{_digest_of(pool)}"
        plan["digests"] = _reference_digests(
            [inputs.inline_panel(spec) for spec in pool], cache_dir=cache_dir)
        plan["pool"] = pool
        plan["cache_dir"] = str(cache_dir)
        # Enough pool permutations for requests of 5 ms or more.
        rounds = 1 + int(share_s / 0.005) // inputs.SERVE_POOL_SIZE
        plan["sequences"] = [inputs.serve_sequence(seed, client, rounds)
                             for client in range(inputs.SERVE_CLIENTS)]
    else:
        # Each child sends its own specs, so that a run's cost rests on
        # more distinct task sets.
        count = max(passes, round(share_s / DIST_REQUEST_SECONDS))
        specs = inputs.dist_requests(seed, count * children)
        panels = [inputs.inline_panel(spec) for spec in specs]
        digests = _reference_digests(panels)
        scales = _scales(panels, [inputs.inline_panel(spec) for spec in
                                  inputs.dist_requests(0, len(specs))],
                         DIST_FIXED_RELEASES)
        plan["requests"] = [{"spec": spec, "digest": digest, "scale": scale}
                            for spec, digest, scale
                            in zip(specs, digests, scales)]
        plan["per_child"] = count
    return plan


def run_child(plan: Dict[str, object], trace: bool, index: int,
              work: Path, deadline: float) -> Dict[str, object]:
    """Start one measuring process and return its report (with its set-up
    time), or a report of the failure."""
    child_work = work / f"child-{index}"
    child_work.mkdir(parents=True)
    plan = dict(plan, trace=trace, index=index, work_dir=str(child_work))
    plan_path = child_work / "plan.json"
    plan_path.write_text(json.dumps(plan))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    spawned = time.monotonic()
    # Its own session, so that a timeout also ends the loopback worker the
    # process may have started.
    child = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), str(plan_path)],
        cwd=str(ROOT), env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = child.communicate(
            timeout=max(5.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        return {"broken": "measuring process timed out"}
    lines = stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        tail = stderr.strip().splitlines()[-3:]
        return {"broken": f"measuring process exited {child.returncode}: "
                          + " | ".join(tail)}
    report = json.loads(lines[-1])
    report["setup_s"] = report["ready"] - spawned
    return report


def _scaled(request: Dict[str, object]) -> float:
    """A request's latency at the nominal host speed (divided by the
    host's slowdown while it ran) and at its seed-0 size."""
    return request["latency_s"] / request["slowdown"] * request["scale"]


def _rate(reports: List[Dict[str, object]], traced: bool) -> float:
    """Cells answered per second of the (un)traced segments, at the
    nominal host speed and with every request at its seed-0 size."""
    cells = seconds = 0.0
    for report in reports:
        requests = {}
        for request in report["requests"]:
            requests.setdefault(request["segment"], []).append(request)
        for index, segment in enumerate(report["segments"]):
            if segment["traced"] != traced:
                continue
            answered = requests.get(index, [])
            busy = sum(r["latency_s"] for r in answered)
            size = sum(r["latency_s"] * r["scale"] for r in answered) / busy \
                if busy else 1.0
            cells += sum(r["cells"] for r in answered)
            seconds += segment["wall_s"] / segment["slowdown"] * size
    return cells / seconds


def _percentile(values: List[float], fraction: float) -> float:
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(fraction * 100) - 1]


def end_to_end(reports: List[Dict[str, object]]) -> Dict[str, object]:
    def latency(fraction: float) -> float:
        """Latency percentile over the requests of every process."""
        return _percentile([_scaled(r) * 1e3 for report in reports
                            for r in report["requests"]], fraction)

    setups = [r["setup_s"] / r["setup_slowdown"] for r in reports]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "cells_per_s": (_rate(reports, False), "1/s"),
        "req_p50_ms": (latency(0.5), "ms"),
        "req_p90_ms": (latency(0.9), "ms"),
        "peak_rss_mb": (statistics.median(r["peak_rss_kb"] for r in reports)
                        / 1024.0, "MB"),
    }


def unscaled(reports: List[Dict[str, object]]) -> List[Dict[str, object]]:
    """``reports`` as measured: every slowdown and seed-0 size scale set to
    1, so that :func:`end_to_end` gives the raw times."""
    return [dict(report, setup_slowdown=1.0,
                 segments=[dict(s, slowdown=1.0) for s in report["segments"]],
                 requests=[dict(r, scale=1.0, slowdown=1.0)
                           for r in report["requests"]])
            for report in reports]


#: Lane fallback reasons reported on their own (the rest sum to "other").
LANE_REASONS = ("instrumented", "unsupported-policy")


def per_layer(report: Dict[str, object], attempted: int,
              failed: int) -> Dict[str, object]:
    layers = report["layers"]
    counts = report["counts"]
    ledger = report["ledger"]

    def layer(name: str) -> float:
        return layers.get(name, 0.0)

    traced_wall = report["threads"] * sum(
        s["wall_s"] for s in report["segments"] if s["traced"])
    covered = sum(r["latency_s"] for r in report["requests"] if r["traced"])
    fallbacks = {key.split(":", 1)[1]: value for key, value in ledger.items()
                 if key.startswith("lane_fallback:")}
    simulated = ledger.get("cache_misses", 0)
    hits = ledger.get("cache_hits", 0)
    requests = ledger.get("requests", 0)
    jobs = counts.get("sim.jobs", 0)
    metrics = {
        "trace_overhead_pct": (100.0 * (_rate([report], False)
                                        / _rate([report], True) - 1.0), "%"),
        "host.slowdown": (report["host_slowdown"], "ratio"),
        "residual_s": (traced_wall - covered, "s"),
        "failed_frac": (failed / attempted, "ratio"),
        "cells_answered": (ledger.get("cells", 0), "count"),
        "model.materialize_s": (layer("model.materialize_s"), "s"),
        "model.cells": (counts.get("model.cells", 0), "count"),
        "sim.engine_s": (layer("sim.engine_s"), "s"),
        "sim.engine_runs": (counts.get("sim.engine_runs", 0), "count"),
        "sim.us_per_job": (1e6 * layer("sim.engine_s") / jobs if jobs
                           else 0.0, "us"),
        "sim.instrumented_runs": (counts.get("sim.instrumented_runs", 0),
                                  "count"),
        "sim.kernel_s": (layer("sim.kernel_s"), "s"),
        "sim.lanes_s": (layer("sim.lanes_s"), "s"),
        "sim.block_cells": (ledger.get("block_cells", 0), "count"),
        "sim.lane_cell_ratio": (ledger.get("block_cells", 0) / simulated
                                if simulated else 0.0, "ratio"),
        "sim.fast_path_s": (layer("sim.fast_path_s"), "s"),
        "sim.fast_path_cells": (ledger.get("fast_path_cells", 0), "count"),
        "sim.fast_path_fallbacks": (ledger.get("fast_path_fallbacks", 0),
                                    "count"),
        "core.policy_runs": (ledger.get("policy_runs", 0), "count"),
        "core.rm_fallbacks": (ledger.get("rm_fallbacks", 0), "count"),
        "obs.collectors": (counts.get("obs.collectors", 0), "count"),
        "obs.finalize_s": (layer("obs.finalize_s"), "s"),
        "analysis.cache_put_s": (layer("analysis.cache_put_s"), "s"),
        "analysis.encode_s": (layer("analysis.encode_s"), "s"),
        "analysis.cache_bytes": (ledger.get("cache_bytes", 0), "B"),
        "analysis.cache_get_s": (layer("analysis.cache_get_s"), "s"),
        "analysis.decode_s": (layer("analysis.decode_s"), "s"),
        "analysis.keys_s": (layer("analysis.keys_s"), "s"),
        "analysis.aggregate_s": (layer("analysis.aggregate_s"), "s"),
        "analysis.driver_s": (layer("analysis.driver_s"), "s"),
        "analysis.cache_hits": (hits, "count"),
        "analysis.cache_misses": (simulated, "count"),
        "analysis.cache_hit_ratio": (hits / (hits + simulated)
                                     if hits + simulated else 0.0, "ratio"),
        "service.parse_s": (layer("service.parse_s"), "s"),
        "service.residual_s": (layer("service.residual_s"), "s"),
        "service.result_reuse_ratio": (ledger.get("result_reuses", 0)
                                       / requests if requests else 0.0,
                                       "ratio"),
        "service.bytes_per_request": (ledger.get("bytes_streamed", 0)
                                      / requests if requests else 0.0, "B"),
        "dist.remote_s": (layer("dist.remote_s"), "s"),
        "dist.ipc_bytes": (ledger.get("ipc_bytes", 0), "B"),
        "dist.retries": (ledger.get("retries", 0), "count"),
        "dist.leases": (counts.get("dist.leases", 0), "count"),
    }
    for reason in LANE_REASONS:
        metrics[f"sim.lane_fallbacks.{reason}"] = (
            fallbacks.pop(reason, 0), "count")
    metrics["sim.lane_fallbacks.other"] = (sum(fallbacks.values()), "count")
    return metrics


def _commit() -> str:
    """The checkout's commit, marked ``-dirty`` when files differ from it;
    ``unknown`` outside a git repository."""
    def git(*args: str) -> str:
        return subprocess.run(["git", *args], cwd=str(ROOT), check=True,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True).stdout

    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        commit = git("rev-parse", "HEAD").strip()
        return commit + ("-dirty" if git("status", "--porcelain").strip()
                         else "")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def provenance(args, reports, raw) -> Dict[str, object]:
    """The run's provenance, with ``raw``: on untraced runs the end-to-end
    metrics as measured, before host-speed and seed-0 size scaling."""
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {"commit": _commit(), "cpus": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "python": platform.python_version(), "numpy": numpy_version,
            "numpy_used": any(r.get("numpy_loaded") for r in reports),
            "host_slowdown": statistics.median(
                report["host_slowdown"] for report in reports)
            if reports else None,
            "nominal_loop_us": 1e6 * speed.NOMINAL_S,
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "processes": len(reports),
            "unscaled": raw}


def main(argv=None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = WORK_DIR / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        roles = [True] if args.trace else [False] * PLAIN_CHILDREN
        plan = build_plan(args.workload, args.seed, args.seconds / len(roles),
                          2 if args.trace else 1, len(roles))
        deadline = started + RUN_DEADLINE_S
        reports = [run_child(plan, trace, index, work, deadline)
                   for index, trace in enumerate(roles)]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass

    broken = [r["broken"] for r in reports if "broken" in r]
    for problem in broken:
        print(f"perfbench: {problem}", file=sys.stderr)
    good = [r for r in reports if "broken" not in r]
    attempted = sum(r["attempted"] for r in good) + len(broken)
    failed = sum(r["failed"] for r in good) + len(broken)
    for report in good:
        for error in report["errors"]:
            print(f"perfbench: check failed: {error}", file=sys.stderr)
    # Metrics need answered requests: of every kind the run measures.
    measured = [r for r in good if {False, bool(args.trace)}
                <= {q["traced"] for q in r["requests"]}]
    if not measured:
        print("perfbench: no request was answered", file=sys.stderr)
        return 1
    raw = None
    if args.trace:
        metrics = per_layer(measured[0], attempted, failed)
    else:
        metrics = end_to_end(measured)
        raw = {name: value for name, (value, _)
               in end_to_end(unscaled(measured)).items()}
    print(json.dumps({"provenance": provenance(args, good, raw)}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
