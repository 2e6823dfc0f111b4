"""Tests for the utilization-sweep machinery."""

import pytest

from repro.analysis.executor import CellExecutor
from repro.analysis.sweep import (
    BOUND_LABEL,
    SweepConfig,
    materialize_demand,
    utilization_sweep,
)
from repro.core import make_policy
from repro.hw.machine import machine0
from repro.model.demand import UniformFractionDemand, WorstCaseDemand
from repro.model.task import example_taskset
from repro.sim.engine import Simulator

TINY = dict(n_tasks=3, n_sets=2, utilizations=(0.3, 0.7), duration=400.0,
            seed=5)


class TestMaterializeDemand:
    def test_covers_all_invocations(self):
        ts = example_taskset()
        trace = materialize_demand(WorstCaseDemand(), ts, 100.0)
        # T1 has 13 releases in [0, 100); all must be pre-drawn.
        assert len(trace.trace["T1"]) >= 13

    def test_replays_identically(self):
        ts = example_taskset()
        model = UniformFractionDemand(seed=3)
        trace = materialize_demand(model, ts, 100.0)
        values_a = [trace.demand(ts[0], k) for k in range(5)]
        values_b = [trace.demand(ts[0], k) for k in range(5)]
        assert values_a == values_b

    def test_horizon_coincident_release_needs_no_extra_draw(self):
        # Regression: with a duration that is an exact multiple of every
        # period, the release landing exactly *at* the horizon is
        # suppressed by the engine (duration-coincident convention), so
        # ceil(duration / period) draws per task cover the whole run and
        # the k-th invocation never falls off the end of the trace.
        ts = example_taskset()  # periods 8, 10, 14; lcm = 280
        duration = 280.0
        trace = materialize_demand(UniformFractionDemand(seed=7), ts,
                                   duration)
        assert len(trace.trace["T1"]) == 35  # 280/8, not 36
        sim = Simulator(ts, machine0(), make_policy("ccEDF"), demand=trace,
                        duration=duration, on_miss="drop")
        sim.run()
        assert trace.fallback_draws == 0

    def test_fallback_draws_counts_underflow(self):
        # A deliberately truncated trace must report its worst-case
        # substitutions instead of silently corrupting the comparison.
        ts = example_taskset()
        trace = materialize_demand(UniformFractionDemand(seed=7), ts, 40.0)
        sim = Simulator(ts, machine0(), make_policy("ccEDF"), demand=trace,
                        duration=80.0, on_miss="drop")
        sim.run()
        assert trace.fallback_draws > 0


class TestSweepConfig:
    def test_defaults_match_paper(self):
        config = SweepConfig()
        assert config.n_tasks == 8
        assert config.machine == machine0()
        assert config.demand == "worst"
        assert config.idle_level == 0.0
        assert config.utilizations == tuple(
            round(0.1 * k, 1) for k in range(1, 11))

    def test_energy_model_helper(self):
        config = SweepConfig(idle_level=0.3, cycle_energy_scale=2.0)
        model = config.energy_model()
        assert model.idle_level == 0.3
        assert model.cycle_energy_scale == 2.0


class TestSweep:
    def test_structure(self):
        result = utilization_sweep(SweepConfig(**TINY))
        labels = result.normalized.labels()
        assert labels[0] == "EDF"
        assert labels[-1] == BOUND_LABEL
        assert result.normalized.xs == (0.3, 0.7)
        assert set(result.std) == set(labels)

    def test_edf_normalized_is_one(self):
        result = utilization_sweep(SweepConfig(**TINY))
        assert all(y == pytest.approx(1.0)
                   for y in result.normalized.get("EDF").ys)

    def test_bound_below_policies(self):
        result = utilization_sweep(SweepConfig(**TINY))
        bound = result.normalized.get(BOUND_LABEL).ys
        for label in ("staticEDF", "ccEDF", "laEDF"):
            ys = result.normalized.get(label).ys
            assert all(b <= y + 0.02 for b, y in zip(bound, ys))

    def test_deterministic_with_seed(self):
        a = utilization_sweep(SweepConfig(**TINY))
        b = utilization_sweep(SweepConfig(**TINY))
        assert a.raw.rows() == b.raw.rows()

    def test_seed_changes_results(self):
        a = utilization_sweep(SweepConfig(**TINY))
        b = utilization_sweep(SweepConfig(**{**TINY, "seed": 6}))
        assert a.raw.rows() != b.raw.rows()

    def test_reference_added_when_missing(self):
        config = SweepConfig(policies=("laEDF",), **TINY)
        result = utilization_sweep(config)
        assert "EDF" in result.normalized.labels()

    def test_workers_match_serial(self):
        serial = utilization_sweep(SweepConfig(**TINY, workers=1))
        parallel = utilization_sweep(SweepConfig(**TINY, workers=2))
        for s_row, p_row in zip(serial.raw.rows(), parallel.raw.rows()):
            assert s_row == pytest.approx(p_row)

    def test_uniform_demand_sweep_runs(self):
        config = SweepConfig(demand="uniform", **TINY)
        result = utilization_sweep(config)
        la = result.normalized.get("laEDF").ys
        assert all(0 < y <= 1.0 + 1e-9 for y in la)

    def test_idle_level_raises_relative_static_cost(self):
        cold = utilization_sweep(SweepConfig(**TINY, idle_level=0.0))
        hot = utilization_sweep(SweepConfig(**TINY, idle_level=1.0))
        # With expensive idle, dynamic policies normalized vs EDF improve
        # (EDF pays full-voltage idle).
        assert hot.normalized.get("laEDF").ys[0] <= \
            cold.normalized.get("laEDF").ys[0] + 1e-9

    def test_std_table_structure(self):
        result = utilization_sweep(SweepConfig(**TINY))
        std = result.std_table()
        assert std.labels() == result.raw.labels()
        assert std.xs == result.raw.xs
        # Two task sets per point: std is finite and >= 0 everywhere.
        for series in std.series:
            assert all(v >= 0.0 for v in series.ys)

    def test_rm_fallback_counted_at_full_utilization(self):
        config = SweepConfig(n_tasks=4, n_sets=3, utilizations=(1.0,),
                             duration=400.0, seed=9)
        result = utilization_sweep(config)
        # At U = 1.0, non-harmonic sets are never RM-schedulable.
        assert result.rm_fallbacks > 0


class TestDifferentialExecution:
    """Every execution mode must return a bit-identical SweepResult.

    The barrier-free executor and the content-addressed cell cache are
    pure transports: worker count and cache temperature may change *how*
    a cell result is obtained, never *what* it is.
    """

    BASE = dict(n_tasks=4, n_sets=2, utilizations=(0.5, 1.0),
                duration=400.0, seed=11, demand="uniform",
                residency_policies=("ccEDF",))

    @staticmethod
    def _snapshot(result):
        residency = {policy: table.rows()
                     for policy, table in sorted(result.residency.items())}
        return (result.raw.rows(), result.normalized.rows(), result.std,
                residency, result.rm_fallbacks)

    def test_workers_and_cache_modes_bit_identical(self, tmp_path):
        cache = str(tmp_path / "cells")
        serial = utilization_sweep(SweepConfig(**self.BASE, workers=1))
        parallel = utilization_sweep(SweepConfig(**self.BASE, workers=2))
        cold = utilization_sweep(SweepConfig(**self.BASE, workers=1,
                                             cache_dir=cache))
        warm = utilization_sweep(SweepConfig(**self.BASE, workers=2,
                                             cache_dir=cache))
        reference = self._snapshot(serial)
        assert self._snapshot(parallel) == reference
        assert self._snapshot(cold) == reference
        assert self._snapshot(warm) == reference

        cells = len(self.BASE["utilizations"]) * self.BASE["n_sets"]
        assert (serial.cache_hits, serial.simulated_cells) == (0, cells)
        assert (parallel.cache_hits, parallel.simulated_cells) == (0, cells)
        assert (cold.cache_hits, cold.simulated_cells) == (0, cells)
        assert (warm.cache_hits, warm.simulated_cells) == (cells, 0)
        assert serial.workers_used == 1
        assert parallel.workers_used == 2

    def test_shared_executor_matches_owned_pool(self):
        config = SweepConfig(**self.BASE, workers=2)
        baseline = utilization_sweep(config)
        with CellExecutor(2) as executor:
            shared = utilization_sweep(config, executor=executor)
        assert self._snapshot(shared) == self._snapshot(baseline)


def _hex_tables(tables):
    return {policy: [[y.hex() for y in series.ys]
                     for series in table.series]
            for policy, table in sorted(tables.items())}


class TestNativeResidencySweep:
    """Residency panels run on the default engine without collectors."""

    def test_fig9_panel_default_engine(self, monkeypatch):
        from repro.analysis.executor import DEFAULT_ENGINE
        from repro.catalog import panel_sweep_config
        from repro.obs.metrics import MetricsCollector

        built = []
        original = MetricsCollector.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            original(self, *args, **kwargs)

        monkeypatch.setattr(MetricsCollector, "__init__", counting)
        config = panel_sweep_config("fig9", "5-tasks", quick=True)
        assert config.engine == DEFAULT_ENGINE == "batch"
        fast = utilization_sweep(config)
        assert fast.engine_fallbacks == {}
        assert built == []

        reference = utilization_sweep(
            panel_sweep_config("fig9", "5-tasks", quick=True,
                               engine="scalar"))
        assert reference.engine_fallbacks == {}
        assert built == []
        assert set(fast.residency) == set(config.residency_policies)
        assert _hex_tables(fast.residency) == \
            _hex_tables(reference.residency)
        assert fast.raw.rows() == reference.raw.rows()


class TestEngineFallbackLedger:
    """Runs the per-run kernel hands to the event engine are counted by
    reason, and the count survives process and distributed workers."""

    def test_batch_simulate_counts_reasons(self):
        from repro.analysis.batch import EngineStats, batch_simulate
        from repro.hw.regulator import SwitchingModel
        from repro.obs.metrics import MetricsCollector

        stats = EngineStats()
        ts = example_taskset()
        run = dict(duration=60.0)
        batch_simulate(ts, machine0(), make_policy("ccEDF"), stats=stats,
                       residency=True, **run)
        assert stats.engine_fallbacks == {}
        batch_simulate(ts, machine0(), make_policy("ccEDF"), stats=stats,
                       instrument=MetricsCollector(), **run)
        batch_simulate(ts, machine0(), make_policy("ccEDF"), stats=stats,
                       on_miss="continue", **run)
        batch_simulate(ts, machine0(), make_policy("ccEDF"), stats=stats,
                       switching=SwitchingModel.k6_2_plus(),
                       on_miss="drop", **run)
        batch_simulate(ts, machine0(), make_policy("ccEDF"), stats=stats,
                       switching=SwitchingModel.k6_2_plus(),
                       on_miss="drop", **run)
        assert stats.engine_fallbacks == {"instrumented": 1,
                                          "continue": 1, "switching": 2}

    @staticmethod
    def _counting_fallbacks(monkeypatch):
        """Make every kernel envelope check report a fallback."""
        from repro.analysis import batch

        monkeypatch.setattr(batch, "kernel_fallback_reason",
                            lambda policy, **kwargs: "wakeup-timer")

    def test_inline_batch_sweep_reports_ledger(self, monkeypatch):
        self._counting_fallbacks(monkeypatch)
        config = SweepConfig(**TINY)
        result = utilization_sweep(config)
        cells = len(TINY["utilizations"]) * TINY["n_sets"]
        runs = cells * len(result.raw.labels()[:-1]) + result.rm_fallbacks
        assert result.engine_fallbacks == {"wakeup-timer": runs}
        scalar = utilization_sweep(SweepConfig(**TINY, engine="scalar"))
        assert scalar.engine_fallbacks == {}
        assert scalar.raw.rows() == result.raw.rows()

    def test_process_workers_merge_ledger(self):
        # avgDVS polls on a wakeup timer, outside the kernel envelope.
        config = dict(TINY, policies=("avgDVS",))
        serial = utilization_sweep(SweepConfig(**config))
        parallel = utilization_sweep(SweepConfig(**config, workers=2))
        cells = len(TINY["utilizations"]) * TINY["n_sets"]
        assert serial.engine_fallbacks == {"wakeup-timer": cells}
        assert parallel.engine_fallbacks == serial.engine_fallbacks
        assert parallel.raw.rows() == serial.raw.rows()

    def test_engine_stats_merge(self):
        from repro.analysis.batch import EngineStats

        total = EngineStats()
        part = EngineStats()
        part.engine_fallback("instrumented")
        part.fallback("unsupported-policy")
        total.merge_dict(part.to_dict())
        total.merge_dict(part.to_dict())
        assert total.engine_fallbacks == {"instrumented": 2}
        assert total.fallbacks == {"unsupported-policy": 2}
