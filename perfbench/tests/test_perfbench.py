"""Tests of the benchmark itself: seeded inputs, the trace accounting, the
output checks and the metric names ``BENCHMARK.json`` promises.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import json
import time
from pathlib import Path

import pytest

import child
import inputs
import run
import spans
import speed

BENCHMARK = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())

#: A sweep small enough for a unit test (2 utilizations x 1 set, 3 tasks).
TINY_PANEL = {"label": "tiny", "n_tasks": 3, "seed": 7, "n_sets_quick": 1,
              "duration_quick": 50.0, "utilizations": [0.4, 0.8],
              "residency_policies": ["ccEDF"]}


def _inputs(workload, seed):
    if workload in inputs.FIGURE_PANELS:
        return inputs.figure_requests(workload, seed)
    if workload == "serve-warm":
        return (inputs.serve_pool(seed),
                [inputs.serve_sequence(seed, c, 3)
                 for c in range(inputs.SERVE_CLIENTS)])
    return inputs.dist_requests(seed, 8)


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    assert _inputs(workload, 3) == _inputs(workload, 3)
    assert _inputs(workload, 3) != _inputs(workload, 4)


def test_seed_zero_is_the_catalog():
    from repro.catalog import get_scenario

    for request, (scenario, label) in zip(
            inputs.figure_requests("fig9-cold", 0),
            inputs.FIGURE_PANELS["fig9-cold"]):
        assert request["panel"]["seed"] == \
            get_scenario(scenario).panel(label).seed


def test_every_cycle_sweeps_other_task_sets():
    seeds = {request["panel"]["seed"] for cycle in range(4)
             for request in inputs.figure_requests("panels-cold", 3, cycle)}
    assert len(seeds) == 4 * len(inputs.FIGURE_PANELS["panels-cold"])
    assert inputs.figure_requests("panels-cold", 3) == \
        inputs.figure_requests("panels-cold", 3, 0)


def test_dist_cold_runs_at_the_fig9_panels_horizon():
    from repro.catalog import get_scenario

    panel = get_scenario("fig9").panel("5-tasks")
    assert inputs.DIST_DURATION == panel.duration_quick
    assert inputs.dist_requests(1, 1)[0]["n_tasks"] == panel.n_tasks


def test_sampler_samples_on_its_timer_and_stops():
    sampler = speed.Sampler().start()
    try:
        begun = time.monotonic()
        while len(sampler.samples) < 4 and time.monotonic() - begun < 5:
            time.sleep(0.005)
    finally:
        sampler.stop()
    count = len(sampler.samples)
    assert count >= 4
    assert all(0 < seconds < 0.1 for _, seconds in sampler.samples)
    time.sleep(3 * speed.INTERVAL_S)
    assert len(sampler.samples) == count


def test_slowdown_is_the_mean_over_the_window_or_the_nearest_sample():
    nominal = speed.NOMINAL_S
    samples = [(1.0, nominal), (2.0, 3 * nominal), (3.0, 2 * nominal)]
    assert speed.slowdown(samples, 0.5, 2.5) == pytest.approx(2.0)
    assert speed.slowdown(samples, 2.9, 3.5) == pytest.approx(2.0)
    # No sample inside: the nearest one.
    assert speed.slowdown(samples, 2.1, 2.2) == pytest.approx(3.0)
    assert speed.slowdown(samples, 3.5, 4.0) == pytest.approx(2.0)
    assert speed.slowdown([], 0.0, 1.0) == 1.0


def test_figure_requests_are_a_prefix_of_the_catalog_panel():
    from repro.analysis.sweep import sweep_cell_specs

    request = inputs.figure_requests("fig9-cold", 2)[0]
    full = dict(request["panel"], n_sets_quick=8)
    short = sweep_cell_specs(inputs.sweep_config(request["panel"]))
    whole = sweep_cell_specs(inputs.sweep_config(full))
    assert short == [spec for spec in whole if spec.set_index == 0]


def _span(name, start, end, parent=None):
    span = spans.Span(name, start, parent)
    span.end = end
    return span


def test_split_request_partitions_overlapping_spans():
    root = _span("request", 0.0, 10.0)
    parse = _span("service.parse", 1.0, 2.0, root)
    # Two overlapping round trips, one outliving the request.
    first = _span("dist.remote", 2.0, 6.0, root)
    second = _span("dist.remote", 3.0, 12.0, root)
    decode = _span("analysis.decode", 4.0, 5.0, first)
    owned = spans.split_request(root, [parse, first, second, decode])
    assert owned == pytest.approx({"request": 1.0, "service.parse": 1.0,
                                   "dist.remote": 7.0,
                                   "analysis.decode": 1.0})
    assert sum(owned.values()) == pytest.approx(10.0)


def test_traced_self_times_and_residual_add_up_to_wall():
    """Per-layer self times plus residual_s equal the traced wall time
    within 1e-6 of it (the bound README.md states is 0.1%)."""
    from repro.analysis.sweep import utilization_sweep

    tracer = spans.Tracer()
    with spans.installed(tracer):
        started = time.perf_counter()
        for _ in range(2):
            config = inputs.sweep_config(TINY_PANEL)
            with tracer.span("request"):
                utilization_sweep(config)
            time.sleep(0.01)  # time outside every request
        wall = time.perf_counter() - started
    layers = spans.layer_seconds(tracer, "analysis.driver_s")
    covered = sum(span.end - span.start for span in tracer.spans
                  if span.parent is None and span.name == "request")
    residual = wall - covered
    assert layers["sim.engine_s"] > 0 and layers["obs.finalize_s"] > 0
    assert residual >= 0.02
    assert sum(layers.values()) + residual == pytest.approx(wall, rel=1e-6)
    assert tracer.counts["sim.instrumented_runs"] == 2 * 2
    # The wrappers are gone once the block ends.
    from repro.analysis import sweep
    assert not hasattr(sweep.simulate, "__wrapped__")


def _figure_plan(tmp_path, digest):
    return {"work_dir": str(tmp_path), "index": 0, "per_child": 1,
            "requests": [{"name": "tiny", "panel": TINY_PANEL,
                          "digest": digest, "scale": 1.0}]}


def _tiny_result():
    from repro.analysis.sweep import utilization_sweep

    return utilization_sweep(inputs.sweep_config(TINY_PANEL))


def test_figure_check_passes_the_program_and_fails_a_wrong_table(
        tmp_path, monkeypatch):
    from dataclasses import replace

    from repro.analysis import sweep
    from repro.analysis.series import Series

    good = _tiny_result()
    digest = inputs.result_digest(good)

    report = child.Report(None)
    child.run_figure(_figure_plan(tmp_path / "good", digest), report)
    assert (report.attempted, report.failed) == (1, 0)

    series = good.raw.series[0]
    wrong_ys = (series.ys[0] * (1 + 1e-12),) + series.ys[1:]
    wrong_raw = replace(good.raw, series=[Series(series.label, series.xs,
                                                 wrong_ys)]
                        + good.raw.series[1:])
    monkeypatch.setattr(sweep, "utilization_sweep",
                        lambda config: replace(good, raw=wrong_raw))
    report = child.Report(None)
    child.run_figure(_figure_plan(tmp_path / "bad", digest), report)
    assert (report.attempted, report.failed) == (1, 1)
    assert "differ" in report.errors[0]


def test_served_check_fails_a_wrong_table_and_a_simulated_cell():
    result = _tiny_result()
    event = {"xs": list(result.raw.xs), "labels": result.raw.labels(),
             "raw": result.raw.rows(), "normalized": result.normalized.rows()}
    digest = inputs.event_digest(event)
    done = {"simulated_cells": 0, "cache_hits": 2, "coalesced_cells": 0}
    response = {"results": [event], "done": done}
    assert child._check_response(response, digest, 2, 0) == []

    wrong = dict(event, normalized=[[v + 1.0 for v in row]
                                    for row in event["normalized"]])
    assert child._check_response({"results": [wrong], "done": done},
                                 digest, 2, 0)
    simulated = dict(done, simulated_cells=1, cache_hits=1)
    assert child._check_response({"results": [event], "done": simulated},
                                 digest, 2, 0)


def _fake_report(traced):
    """A child report; a traced one alternates untraced/traced segments.
    The host ran twice as slow as the nominal one throughout, so times
    scale to half the measured ones."""
    requests = [{"traced": False, "latency_s": 0.5, "cells": 10,
                 "scale": 1.0, "segment": 0, "slowdown": 2.0},
                {"traced": False, "latency_s": 1.0, "cells": 10,
                 "scale": 1.1, "segment": 1, "slowdown": 2.0}]
    segments = [{"traced": False, "wall_s": 0.5, "slowdown": 2.0},
                {"traced": False, "wall_s": 1.0, "slowdown": 2.0}]
    report = {"workload": "fig9-cold", "ready": 1.0, "setup_s": 0.5,
              "threads": 1, "setup_slowdown": 2.0, "host_slowdown": 2.0,
              "requests": requests,
              "segments": segments, "attempted": 2, "failed": 0,
              "errors": [], "ledger": {"cells": 20, "cache_misses": 20,
                                       "lane_fallback:instrumented": 4},
              "peak_rss_kb": 40960}
    if traced:
        requests.append({"traced": True, "latency_s": 0.6, "cells": 10,
                         "scale": 1.0, "segment": 2, "slowdown": 2.0})
        segments.append({"traced": True, "wall_s": 0.61, "slowdown": 2.0})
        report.update(layers={"sim.engine_s": 0.5}, counts={"sim.jobs": 9})
    return report


def test_metric_names_and_units_match_benchmark_json():
    e2e = run.end_to_end([_fake_report(False)])
    assert {name: unit for name, (_, unit) in e2e.items()} == \
        {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    # Times at the nominal host speed (half the measured ones here), the
    # second request at its seed-0 size.
    assert e2e["setup_s"][0] == pytest.approx(0.25)
    assert e2e["cells_per_s"][0] == pytest.approx(
        20 / (0.25 + 0.5 * 1.1))
    assert e2e["req_p50_ms"][0] == pytest.approx((250 + 550) / 2)
    # As measured: no host-speed factor, no seed-0 size scale.
    raw = run.end_to_end(run.unscaled([_fake_report(False)]))
    assert raw["setup_s"][0] == pytest.approx(0.5)
    assert raw["cells_per_s"][0] == pytest.approx(20 / 1.5)
    assert raw["req_p50_ms"][0] == pytest.approx(750)
    layers = run.per_layer(_fake_report(True), 3, 0)
    assert {name: unit for name, (_, unit) in layers.items()} == \
        {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert layers["sim.lane_fallbacks.instrumented"][0] == 4
    assert layers["residual_s"][0] == pytest.approx(0.01)
    assert [w["name"] for w in BENCHMARK["workloads"]] == \
        list(inputs.WORKLOADS)
