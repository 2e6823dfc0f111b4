"""Native frequency residency: run loops vs the metrics collector.

Both run loops — the event engine and the per-run batch kernel — keep the
``{frequency: seconds}`` residency histogram themselves when asked
(``residency=True``), with the expressions, in the order,
:class:`~repro.obs.metrics.MetricsCollector` uses.  The promise is bit
identity: the native dict must equal the collector's, value for value
(``float.hex``) and key for key in insertion order, so residency tables
are the same whichever path ran a cell.

The catalog sweep uses it for every residency panel: fig9 (all six
policies) and fig11 (ccEDF and laEDF on three machines).  Every quick
cell of those panels is checked here — the same task sets, demand
draws, machines and RM fallbacks the sweeps run — over a shortened
horizon, which keeps the policy-by-cell coverage while holding the
suite's time down; the full-horizon tables are compared in
``tests/analysis/test_sweep.py``.
"""

from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.sweep import (materialize_cell, sweep_cell_specs,
                                  sweep_context)
from repro.catalog import panel_sweep_config
from repro.core import make_policy
from repro.core.no_dvs import NoDVS
from repro.errors import SchedulabilityError
from repro.hw.machine import machine0, machine1, machine2
from repro.hw.regulator import SwitchingModel
from repro.model.generator import TaskSetGenerator
from repro.obs.metrics import MetricsCollector
from repro.sim.batch_kernels import kernel_simulate, set_numpy_enabled
from repro.sim.engine import simulate

#: Every catalog panel that declares residency policies.
RESIDENCY_PANELS = (
    ("fig9", "5-tasks"), ("fig9", "10-tasks"), ("fig9", "15-tasks"),
    ("fig11", "machine0"), ("fig11", "machine1"), ("fig11", "machine2"),
)

#: Horizon (ms) for the per-cell sweep: every task in the 1-10 ms band
#: releases 6-60 times, enough for the dynamic policies to switch many
#: times per run and for the 15-task cells to cross the kernels' numpy
#: threshold.
HORIZON = 60.0


def exact(residency):
    """A residency dict as (frequency, seconds) hex pairs, in order."""
    return [(f.hex(), seconds.hex()) for f, seconds in residency.items()]


@pytest.fixture
def restore_numpy():
    yield
    set_numpy_enabled(True)


def _collector_run(taskset, machine, policy, **kwargs):
    """One engine run observed by a collector, native residency on."""
    collector = MetricsCollector()
    result = simulate(taskset, machine, policy, instrument=collector,
                      residency=True, **kwargs)
    return result, collector.metrics


def _assert_paths_agree(taskset, machine, make, **kwargs):
    """Engine-native, collector and kernel residency are bit-identical
    for numpy on and off; returns the engine result."""
    result, metrics = _collector_run(taskset, machine, make(), **kwargs)
    assert exact(result.residency) == exact(metrics.residency)
    assert result.span == metrics.span
    for enabled in (True, False):
        set_numpy_enabled(enabled)
        kernel = kernel_simulate(taskset, machine, make(), residency=True,
                                 **kwargs)
        assert exact(kernel.residency) == exact(metrics.residency)
        assert kernel.span == metrics.span
    return result


@pytest.mark.usefixtures("restore_numpy")
@pytest.mark.parametrize("scenario,panel", RESIDENCY_PANELS)
def test_every_panel_cell_matches_collector(scenario, panel):
    config = replace(panel_sweep_config(scenario, panel, quick=True),
                     duration=HORIZON)
    context = sweep_context(config)
    energy_model = context.energy_model()
    runs = 0
    for spec in sweep_cell_specs(config):
        taskset, demand = materialize_cell(context, spec)
        kwargs = dict(demand=demand, duration=context.duration,
                      energy_model=energy_model)
        for name in context.residency_policies:
            try:
                _assert_paths_agree(taskset, context.machine,
                                    lambda: make_policy(name),
                                    on_miss="raise", **kwargs)
            except SchedulabilityError:
                # run_cell's footnote-3 retry: full-speed RM, drop mode.
                _assert_paths_agree(taskset, context.machine,
                                    lambda: NoDVS(scheduler="rm"),
                                    on_miss="drop", **kwargs)
            runs += 1
    assert runs == len(sweep_cell_specs(config)) * \
        len(context.residency_policies)


RELAXED = settings(max_examples=40, deadline=None,
                   suppress_health_check=[HealthCheck.too_slow])

MACHINES = {"machine0": machine0, "machine1": machine1,
            "machine2": machine2}


@pytest.mark.usefixtures("restore_numpy")
@RELAXED
@given(seed=st.integers(0, 100_000),
       n_tasks=st.integers(1, 8),
       utilization=st.floats(0.05, 1.0),
       policy=st.sampled_from(("ccEDF", "laEDF", "ccRM")),
       machine=st.sampled_from(sorted(MACHINES)),
       demand=st.sampled_from((None, 0.5, 0.9, "uniform")),
       periods=st.sampled_from((2.0, 3.5)))
def test_random_cells_under_switch_heavy_policies(seed, n_tasks,
                                                  utilization, policy,
                                                  machine, demand,
                                                  periods):
    taskset = TaskSetGenerator(n_tasks=n_tasks, utilization=utilization,
                               seed=seed).generate()
    duration = periods * max(t.period for t in taskset)
    try:
        result = _assert_paths_agree(
            taskset, MACHINES[machine](), lambda: make_policy(policy),
            demand=demand, duration=duration, on_miss="drop")
    except SchedulabilityError:
        return
    # Conservation: the histogram covers the whole simulated span.
    assert sum(result.residency.values()) == \
        pytest.approx(result.span, rel=1e-9)


@RELAXED
@given(seed=st.integers(0, 100_000),
       utilization=st.floats(0.2, 0.9),
       policy=st.sampled_from(("ccEDF", "laEDF", "ccRM")))
def test_switch_halts_match_collector(seed, utilization, policy):
    """Outside the kernel envelope (switch halts) the engine's native
    histogram still closes each slice before the halt, as the collector
    does."""
    taskset = TaskSetGenerator(n_tasks=4, utilization=utilization,
                               seed=seed).generate()
    try:
        result, metrics = _collector_run(
            taskset, machine0(), make_policy(policy), demand=0.6,
            duration=2.0 * max(t.period for t in taskset), on_miss="drop",
            switching=SwitchingModel.k6_2_plus())
    except SchedulabilityError:
        return
    assert exact(result.residency) == exact(metrics.residency)
    assert result.span == metrics.span


def test_residency_is_opt_in():
    taskset = TaskSetGenerator(n_tasks=3, utilization=0.5,
                               seed=3).generate()
    plain = simulate(taskset, machine0(), make_policy("ccEDF"),
                     duration=200.0)
    kernel = kernel_simulate(taskset, machine0(), make_policy("ccEDF"),
                             duration=200.0)
    assert plain.residency is None and kernel.residency is None
    assert plain.span == kernel.span
