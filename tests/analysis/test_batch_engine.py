"""Differential tests for the batch execution engine.

The batch engine's one promise is *bit identity*: for any sweep, the
column-blocked :mod:`repro.sim.batch_kernels` path must produce exactly
the outcome the discrete-event engine produces — same energies, same
switch counts, same misses, same trace, same aggregate tables — across
numpy-on/numpy-off, fast-path on/off, serial/parallel, and cold/warm
cache.  These tests hold that line; the throughput side lives in
``benchmarks/write_bench_json.py`` (``fig9_sweep_batch``).
"""

import os
import subprocess
import sys
import textwrap

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.batch import ENGINES, build_column_block
from repro.analysis.sweep import (
    CellSpec,
    SweepConfig,
    SweepContext,
    cell_cache_key,
    utilization_sweep,
)
from repro.core import make_policy
from repro.errors import ReproError
from repro.hw.machine import machine0
from repro.model.generator import TaskSetGenerator
from repro.model.task import Task, TaskSet
from repro.sim.batch_kernels import (
    kernel_fallback_reason,
    kernel_simulate,
    set_numpy_enabled,
)
from repro.sim.engine import simulate

POLICIES = ("EDF", "staticEDF", "staticRM", "ccEDF", "ccRM", "laEDF")

MACHINE = machine0()

#: Small but policy-complete sweep: every paper policy, two task sets per
#: utilization point, a horizon long enough for misses and idle regions.
TINY = dict(n_tasks=3, n_sets=2, utilizations=(0.3, 0.7), duration=400.0,
            seed=5)

RELAXED = settings(max_examples=20, deadline=None,
                   suppress_health_check=[HealthCheck.too_slow])


@pytest.fixture
def numpy_off():
    """Pin the pure-Python block kernels for one test."""
    set_numpy_enabled(False)
    yield
    set_numpy_enabled(True)


def canon(result):
    """Every observable field of a SimResult, as comparable values."""
    trace = None
    if result.trace is not None:
        trace = tuple(tuple(col) for col in result.trace.columns())
    return {
        "policy": result.policy_name,
        "exec_by_point": dict(result.energy.execution),
        "idle": result.energy.idle,
        "switch": result.energy.switch,
        "total": result.energy.total,
        "switches": result.switches,
        "jobs": [(j.task.name, j.release_time, j.demand, j.executed,
                  j.completion_time, j.index) for j in result.jobs],
        "misses": [(m.task_name, m.release_time, m.deadline, m.demand,
                    m.executed) for m in result.misses],
        "trace": trace,
    }


def snap(result):
    """Every observable aggregate of a SweepResult."""
    return {
        "raw": result.raw.rows(),
        "normalized": result.normalized.rows(),
        "std": result.std,
        "rm_fallbacks": result.rm_fallbacks,
        "residency": {name: table.rows()
                      for name, table in result.residency.items()},
        "fast_path": (result.fast_path_cells, result.fast_path_fallbacks),
    }


class TestKernelMatchesEngine:
    """Run-level differential: kernel_simulate vs engine.simulate."""

    @RELAXED
    @given(seed=st.integers(0, 10_000),
           utilization=st.floats(0.2, 1.0),
           policy=st.sampled_from(POLICIES),
           on_miss=st.sampled_from(("raise", "drop")),
           demand=st.sampled_from((None, "uniform:0.5", 0.7)),
           record_trace=st.booleans())
    def test_bit_identical_or_same_error(self, seed, utilization, policy,
                                         on_miss, demand, record_trace):
        taskset = TaskSetGenerator(n_tasks=3, utilization=utilization,
                                   seed=seed).generate()
        duration = 3.0 * max(t.period for t in taskset)
        kwargs = dict(duration=duration, on_miss=on_miss, demand=demand,
                      record_trace=record_trace)
        assert kernel_fallback_reason(make_policy(policy),
                                      on_miss=on_miss) is None
        try:
            engine = canon(simulate(taskset, MACHINE, make_policy(policy),
                                    **kwargs))
        except ReproError as exc:
            engine = (type(exc).__name__, str(exc))
        try:
            kernel = canon(kernel_simulate(taskset, MACHINE,
                                           make_policy(policy), **kwargs))
        except ReproError as exc:
            kernel = (type(exc).__name__, str(exc))
        assert engine == kernel

    def test_kernel_envelope(self):
        from repro.hw.regulator import SwitchingModel
        policy = make_policy("ccEDF")
        assert kernel_fallback_reason(policy) is None
        assert kernel_fallback_reason(policy, residency=True) is None
        assert kernel_fallback_reason(policy, on_miss="continue") \
            == "continue"
        assert kernel_fallback_reason(policy, instrument=object()) \
            == "instrumented"
        assert kernel_fallback_reason(policy, admissions=[object()]) \
            == "admissions"
        assert kernel_fallback_reason(policy, enforce_wcet=False) \
            == "wcet-overrun"
        assert kernel_fallback_reason(
            policy, switching=SwitchingModel.k6_2_plus()) == "switching"
        assert kernel_fallback_reason(make_policy("avgDVS")) \
            == "wakeup-timer"
        assert kernel_fallback_reason(object()) == "policy-type"


def _release_times(jobs, taskset):
    """Release times of ``jobs`` per task, in task-set order."""
    per_task = {t.name: [] for t in taskset}
    for job in jobs:
        per_task[job.task.name].append(job.release_time)
    return [per_task[t.name] for t in taskset]


class TestBlockKernels:
    """Unit-level: the per-run kernel's release conventions, read off its
    own job log."""

    def test_release_counts_match_engine_jobs(self):
        # Releases happen at the *accumulated* times 0, p, p+p, ...
        # (repeated addition, not k*p) while they stay below
        # ``duration - eps``; the kernel's job log must match the engine's
        # and that convention float for float.
        taskset = TaskSetGenerator(n_tasks=4, utilization=0.6,
                                   seed=9).generate()
        duration = 2.5 * max(t.period for t in taskset)
        kwargs = dict(duration=duration, on_miss="drop")
        kernel = kernel_simulate(taskset, MACHINE, make_policy("EDF"),
                                 **kwargs)
        engine = simulate(taskset, MACHINE, make_policy("EDF"), **kwargs)
        expected = []
        for task in taskset:
            times, release = [], 0.0
            while release < duration - 1e-9:
                times.append(release)
                release += task.period
            expected.append(times)
        assert _release_times(kernel.jobs, taskset) == expected
        assert _release_times(engine.jobs, taskset) == expected

    def test_release_counts_horizon_coincident(self):
        # The at-the-horizon release is suppressed, exactly like the
        # engine's `release < duration - eps` loop condition.
        taskset = TaskSet([Task(1.0, 10.0, "A")])
        for duration, count in ((100.0, 10), (100.1, 11)):
            result = kernel_simulate(taskset, MACHINE, make_policy("EDF"),
                                     duration=duration)
            assert len(result.jobs) == count


class TestNumpyLaziness:
    """The per-run kernel never imports numpy: only the lane rung (and the
    vectorized RM response-time test) may."""

    def test_kernel_rung_sweep_leaves_numpy_unloaded(self):
        # RTA-free policies, 24 cells x 3 lane candidates: far below the
        # lane floor, so every run takes the per-run kernel; 400 time
        # units give each run hundreds of jobs.  A fresh interpreter so
        # nothing else in the test session has loaded numpy already.
        root = os.path.abspath(os.path.join(os.path.dirname(__file__),
                                            os.pardir, os.pardir))
        code = textwrap.dedent("""
            from benchmarks.numpy_guard import numpy_imported
            from repro.analysis.sweep import SweepConfig, utilization_sweep
            result = utilization_sweep(SweepConfig(
                policies=("EDF", "staticEDF", "ccEDF", "laEDF"),
                n_tasks=5, n_sets=4, utilizations=(0.3, 0.5, 0.7, 0.9),
                duration=400.0, seed=3))
            assert result.block_cells == 0, result.block_cells
            print("numpy" if numpy_imported() else "clean")
        """)
        env = dict(os.environ)
        env.pop("RTDVS_NO_NUMPY", None)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(root, "src"), root])
        completed = subprocess.run(
            [sys.executable, "-c", code], cwd=root, env=env,
            capture_output=True, text=True, timeout=300)
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.split() == ["clean"]


class TestBatchSweepIdentity:
    """Sweep-level differential: --engine batch vs --engine scalar."""

    def test_unknown_engine_rejected(self):
        assert ENGINES == ("scalar", "batch")
        with pytest.raises(ReproError, match="unknown sweep engine"):
            utilization_sweep(SweepConfig(engine="vector", **TINY))

    @pytest.mark.parametrize("entry", ["utilization_sweep", "parse_request",
                                       "run_worker", "cli"])
    def test_block_engine_rejected(self, entry, capsys):
        # "block" is no longer an engine name (lanes are a rung of the
        # default engine): every entry point rejects it with its own
        # typed error.
        from repro.cli import main
        from repro.dist.worker import WorkerError, run_worker
        from repro.service.protocol import ProtocolError, parse_request

        calls = {
            "utilization_sweep": (
                ReproError, "unknown sweep engine 'block'",
                lambda: utilization_sweep(SweepConfig(engine="block",
                                                      **TINY))),
            "parse_request": (
                ProtocolError, "unknown engine 'block'",
                lambda: parse_request({"scenario": "fig9",
                                       "engine": "block"})),
            "run_worker": (
                WorkerError, "unknown worker engine 'block'",
                lambda: run_worker("127.0.0.1", 9, engine="block")),
            "cli": (SystemExit, "2",
                    lambda: main(["run", "fig9", "--engine", "block"])),
        }
        error, message, call = calls[entry]
        with pytest.raises(error, match=message):
            call()
        if entry == "cli":
            assert "invalid choice: 'block'" in capsys.readouterr().err

    def test_batch_bit_identical(self):
        scalar = utilization_sweep(SweepConfig(engine="scalar", **TINY))
        batch = utilization_sweep(SweepConfig(engine="batch", **TINY))
        assert snap(scalar) == snap(batch)

    def test_batch_bit_identical_numpy_off(self, numpy_off):
        scalar = utilization_sweep(SweepConfig(engine="scalar", **TINY))
        batch = utilization_sweep(SweepConfig(engine="batch", **TINY))
        assert snap(scalar) == snap(batch)

    def test_batch_with_residency_instrumentation(self):
        # Instrumented policy runs are outside the kernel envelope; the
        # batch engine must fall back per run and still match exactly.
        config = dict(TINY, residency_policies=("ccEDF",))
        scalar = utilization_sweep(SweepConfig(engine="scalar", **config))
        batch = utilization_sweep(SweepConfig(engine="batch", **config))
        assert snap(scalar) == snap(batch)
        assert batch.residency  # the instrumented table actually exists

    def test_batch_composes_with_fast_path(self):
        # Degenerate commensurable bands: every cell is fast-path
        # eligible, so the short-circuit's warmup windows run on the
        # batch kernel and extrapolate identically.
        bands = ((25.0, 25.0), (50.0, 50.0))
        config = dict(TINY, duration=2000.0, period_bands=bands,
                      steady_fast_path=True)
        scalar = utilization_sweep(SweepConfig(engine="scalar", **config))
        batch = utilization_sweep(SweepConfig(engine="batch", **config))
        assert snap(scalar) == snap(batch)
        assert batch.fast_path_cells == len(TINY["utilizations"]) * \
            TINY["n_sets"]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_batch_workers_and_cache(self, tmp_path, workers):
        scalar = utilization_sweep(SweepConfig(engine="scalar", **TINY))
        cold = utilization_sweep(SweepConfig(
            engine="batch", workers=workers, cache_dir=str(tmp_path),
            **TINY))
        warm = utilization_sweep(SweepConfig(
            engine="batch", workers=workers, cache_dir=str(tmp_path),
            **TINY))
        assert snap(scalar) == snap(cold) == snap(warm)
        assert cold.simulated_cells == len(TINY["utilizations"]) * \
            TINY["n_sets"]
        assert warm.simulated_cells == 0
        assert warm.cache_hits == cold.simulated_cells

    def test_engines_share_one_cache_namespace(self, tmp_path):
        # The engine is an execution mode, not part of the cell identity:
        # a batch rerun over a scalar-populated cache must hit every cell.
        utilization_sweep(SweepConfig(
            engine="scalar", cache_dir=str(tmp_path), **TINY))
        warm = utilization_sweep(SweepConfig(
            engine="batch", cache_dir=str(tmp_path), **TINY))
        assert warm.simulated_cells == 0


class TestSteadyResolutionPinning:
    """The hyperperiod grid is sweep state, not an implicit constant."""

    def _pathological_taskset(self):
        # 1.0005 is not representable on a 1e-3 grid (0.5-tick error) but
        # is exact on 1e-4 — so the hyperperiod flips between None and
        # finite purely on the detection resolution.
        return TaskSet([Task(0.1, 1.0005, "A"), Task(0.2, 2.0, "B")])

    def test_resolution_changes_the_hyperperiod(self):
        taskset = self._pathological_taskset()
        assert taskset.hyperperiod(resolution=1e-3) is None
        finite = taskset.hyperperiod(resolution=1e-4)
        assert finite == pytest.approx(4002.0)

    def _context(self, resolution):
        return SweepContext(machine=MACHINE, policies=("EDF",),
                            duration=400.0, idle_level=0.0,
                            cycle_energy_scale=1.0,
                            steady_resolution=resolution)

    def test_nondefault_resolution_enters_cache_key(self):
        spec = CellSpec(utilization=0.5, set_index=0, n_tasks=3,
                        gen_seed=11, demand_seed=12, demand="worst")
        default_key = cell_cache_key(self._context(1e-6), spec)
        coarse_key = cell_cache_key(self._context(1e-3), spec)
        assert default_key != coarse_key
        # The bands idiom: the default resolution adds no key material,
        # so every pre-existing cached cell keeps its address.
        assert "steady_resolution" not in self._context(1e-6).description()
        assert self._context(1e-3).description()[
            "steady_resolution"] == 1e-3

    def test_column_block_honours_pinned_resolution(self):
        # Degenerate bands force exactly commensurable 25/50 s periods:
        # the default grid resolves their hyperperiod, while a 10 s grid
        # cannot even represent a 25 s period (2.5 ticks) and reports
        # None — so the block must use the context's pinned resolution.
        spec = CellSpec(utilization=0.5, set_index=0, n_tasks=3,
                        gen_seed=11, demand_seed=12, demand="worst",
                        bands=((25.0, 25.0), (50.0, 50.0)))
        coarse = build_column_block(self._context(10.0), [spec])
        fine = build_column_block(self._context(1e-6), [spec])
        assert coarse.hyperperiods == [None]
        assert fine.hyperperiods == [50.0]
