"""Batch and block execution backends for sweep cells.

The scalar sweep path hands every cell to the discrete-event engine one
policy run at a time.  This module owns the two array-accelerated
execution modes that replace it:

* ``--engine batch`` walks the sweep's cell stream *column by column* — a
  column being the run of consecutive cells that share one task-set
  recipe ``(utilization, gen_seed, n_tasks, bands, demand)`` —
  materializes each column once into a structure-of-arrays
  :class:`ColumnBlock` (task parameters with the cell index as the
  leading axis, per-cell hyperperiods, per-cell frequency-selection
  state), and runs every cell through the flat-array
  :class:`~repro.sim.batch_kernels.CellKernel` instead of the engine.
* ``--engine block`` goes one level further: every *policy run* of every
  cell becomes one lane of the cross-cell vectorized simulator
  (:mod:`repro.sim.block_kernels`), and the whole cell stream advances
  in lockstep array passes over the lane axis.  The planner here runs
  each policy's real ``setup`` to seed the lane, mirrors the steady
  fast-path eligibility so warmup windows are batched across the cell
  axis too, and hands every lane the block engine cannot replicate
  exactly (unsupported policies, instrumented runs, abandoned lanes)
  down the fallback ladder: block lane → per-cell kernel → engine.
  Per-run fallback reasons and per-stage timings are reported through
  :class:`EngineStats` so silent degradation is visible in sweep results.

``batch`` is the sweep layer's default engine (:data:`DEFAULT_ENGINE`);
``scalar`` stays the explicit reference oracle.

Two invariants anchor the design:

* **Bit identity.**  A batch cell produces the *same outcome dict* as the
  scalar path: :func:`run_cell_batch` is
  :func:`repro.analysis.sweep.run_cell` itself, parameterized with
  :func:`batch_simulate` as its simulation entry point, so the RM
  fallback logic, the bound, native residency, and the hyperperiod
  short-circuit compose identically (the short-circuit's warmup windows
  run on the batch kernel too, then extrapolate per cell exactly as
  before).  Runs outside the kernel envelope — instrumented runs, timer
  policies, exotic miss modes — fall back to the engine run by run, and
  every fallback is counted by reason in
  :attr:`EngineStats.engine_fallbacks`.
* **Scalar-path laziness.**  Within the simulation layer, numpy only
  ever loads through :func:`repro.sim.batch_kernels.numpy_backend`,
  which nothing on the scalar path calls; the memory benchmark's record
  path keeps ``numpy`` out of ``sys.modules`` entirely (asserted by
  :mod:`benchmarks.numpy_guard`; the one sanctioned importer outside the
  batch kernels is the vectorized RTA in
  :mod:`repro.model.schedulability`, which only static-RM admission
  reaches).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from time import perf_counter
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.analysis.executor import DEFAULT_ENGINE, ENGINES  # noqa: F401
from repro.analysis.sweep import (REFERENCE_POLICY, CellSpec, SweepContext,
                                  materialize_cell, run_cell)
from repro.core import make_policy
from repro.core.cycle_conserving import CycleConservingEDF
from repro.core.no_dvs import NoDVS
from repro.core.static_scaling import StaticEDF, StaticRM
from repro.errors import MachineError, SchedulabilityError
from repro.model.demand import TraceDemand
from repro.model.task import TaskSet
from repro.sim import block_kernels
from repro.sim.batch_kernels import (kernel_fallback_reason, kernel_simulate,
                                     lowest_at_least_indices, numpy_backend)
from repro.sim.block_kernels import LaneResult, LaneSpec, SEG_RUN, run_lanes
from repro.sim.engine import simulate
from repro.sim.steady import demand_is_hyperperiodic
from repro.sim.timeline import SimTimeline

#: Keyword arguments the engine accepts but :class:`CellKernel` does not
#: spell out; they reach the kernel only with their default (supported)
#: values, so they are dropped rather than forwarded.
_ENGINE_ONLY_KWARGS = ("admissions", "enforce_wcet", "switching")


def batch_simulate(taskset: TaskSet, machine, policy,
                   params: Optional[tuple] = None,
                   stats: Optional["EngineStats"] = None, **kwargs):
    """Simulate one run on the batch kernel, or fall back to the engine.

    Drop-in compatible with :func:`repro.sim.engine.simulate` (including
    the ``instrument`` and ``residency`` keywords); ``params`` optionally
    supplies the pre-flattened ``(periods, wcets)`` row of a
    :class:`ColumnBlock`.  Anything the kernel envelope does not cover —
    instrumented runs, ``on_miss="continue"``, wakeup-timer policies,
    dynamic admissions, switch halts — runs on the engine and returns its
    (identical) result; the reason is counted in
    ``stats.engine_fallbacks`` when ``stats`` is given.
    """
    reason = kernel_fallback_reason(policy, **kwargs)
    if reason is not None:
        if stats is not None:
            stats.engine_fallback(reason)
        return simulate(taskset, machine, policy, **kwargs)
    kernel_kwargs = {key: value for key, value in kwargs.items()
                     if key not in _ENGINE_ONLY_KWARGS}
    kernel_kwargs.pop("instrument", None)
    return kernel_simulate(taskset, machine, policy, params=params,
                           **kernel_kwargs)


def _batch_simulate_fn(params: Optional[tuple],
                       stats: Optional["EngineStats"]):
    """A ``simulate``-shaped callable binding one cell's SoA row."""
    def sim(taskset, machine, policy, **kwargs):
        return batch_simulate(taskset, machine, policy, params=params,
                              stats=stats, **kwargs)
    return sim


# ---------------------------------------------------------------------------
# column blocks
# ---------------------------------------------------------------------------

def _column_key(spec: CellSpec) -> tuple:
    """The task-set recipe a sweep column shares.

    Cells with equal keys draw from the same seeded generator stream, so
    one materialization pass serves the whole run of them.
    """
    return (spec.utilization, spec.gen_seed, spec.n_tasks, spec.bands,
            spec.demand)


@dataclass
class ColumnBlock:
    """One sweep column, materialized as structure-of-arrays state.

    Every array is laid out with the **cell index as the leading axis**:
    ``periods[c][i]`` is task ``i`` of cell ``c``.  The block carries the
    release/deadline state seed (flattened task parameters consumed by
    :class:`~repro.sim.batch_kernels.CellKernel`), the per-cell
    hyperperiod at the context's pinned ``steady_resolution`` (so cache
    keys and batch-column grouping agree on fast-path eligibility), and
    the per-cell initial frequency-selection state (the operating-point
    index a utilization-proportional policy starts from, computed with
    the vectorized ``lowest_at_least`` kernel — diagnostic block stats,
    never result-bearing).
    """

    context: SweepContext
    specs: List[CellSpec]
    tasksets: List[TaskSet]
    demands: List[TraceDemand]
    periods: List[List[float]]
    wcets: List[List[float]]
    hyperperiods: List[Optional[float]]
    initial_point_index: List[int] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.specs)


def build_column_block(context: SweepContext,
                       specs: Sequence[CellSpec]) -> ColumnBlock:
    """Materialize one column of cells into a :class:`ColumnBlock`."""
    tasksets: List[TaskSet] = []
    demands: List[TraceDemand] = []
    periods: List[List[float]] = []
    wcets: List[List[float]] = []
    hyperperiods: List[Optional[float]] = []
    utilizations: List[float] = []
    resolution = getattr(context, "steady_resolution", 1e-6)
    for spec in specs:
        taskset, demand = materialize_cell(context, spec)
        tasksets.append(taskset)
        demands.append(demand)
        periods.append([t.period for t in taskset])
        wcets.append([t.wcet for t in taskset])
        hyperperiods.append(taskset.hyperperiod(resolution=resolution))
        total = 0.0
        for task in taskset:
            total += task.wcet / task.period
        utilizations.append(total if total <= 1.0 else 1.0)
    initial = lowest_at_least_indices(context.machine, utilizations)
    return ColumnBlock(context=context, specs=list(specs),
                       tasksets=tasksets, demands=demands,
                       periods=periods, wcets=wcets,
                       hyperperiods=hyperperiods,
                       initial_point_index=initial)


def run_block_cell(block: ColumnBlock, index: int,
                   stats: Optional["EngineStats"] = None
                   ) -> Dict[str, object]:
    """Run one cell of a materialized block.

    Delegates to the scalar :func:`~repro.analysis.sweep.run_cell` with
    the batch kernel as its simulation entry point, so the outcome dict —
    keys, insertion order, RM fallbacks, bound, fast-path accounting — is
    the scalar path's own.  Engine fallbacks are counted into ``stats``.
    """
    spec = block.specs[index]
    params = (block.periods[index], block.wcets[index])
    return run_cell(block.context, spec,
                    simulate_fn=_batch_simulate_fn(params, stats),
                    materialized=(block.tasksets[index],
                                  block.demands[index]))


def run_cell_batch(context: SweepContext, spec: CellSpec,
                   stats: Optional["EngineStats"] = None
                   ) -> Dict[str, object]:
    """Batch-engine twin of :func:`~repro.analysis.sweep.run_cell`.

    The per-cell entry point used by worker processes (each worker cell
    is its own single-cell block; worker fan-out already parallelizes
    across the column).
    """
    return run_block_cell(build_column_block(context, [spec]), 0, stats)


def iter_cells_batch(context: SweepContext, specs: Sequence[CellSpec],
                     stats: Optional["EngineStats"] = None,
                     ) -> Iterator[Tuple[int, Dict[str, object]]]:
    """Yield ``(index, outcome)`` for every spec, in submission order.

    The inline (single-process) batch path: consecutive specs sharing a
    task-set recipe become one :class:`ColumnBlock`, materialized once
    and executed cell by cell on the kernel.
    """
    position = 0
    for _, group in groupby(specs, key=_column_key):
        column = list(group)
        block = build_column_block(context, column)
        for offset in range(len(column)):
            yield position, run_block_cell(block, offset, stats)
            position += 1


# ---------------------------------------------------------------------------
# the block engine (cross-cell vectorized lanes)
# ---------------------------------------------------------------------------

@dataclass
class EngineStats:
    """Which rung of the ladder ran, for one batch- or block-engine run.

    Mirrors the sweep's fast-path counters: ``block_cells`` counts cells
    where at least one policy run was served straight from a vectorized
    lane; ``fallbacks`` maps a reason to the number of simulation calls
    the block engine routed down the per-cell ladder instead;
    ``engine_fallbacks`` maps a reason to the number of runs the per-run
    kernel handed to the event engine (both array engines).  Travels as
    a plain dict beside the outcomes from process and distributed
    workers (:meth:`to_dict` / :meth:`merge_dict`).
    """

    block_cells: int = 0
    fallbacks: Dict[str, int] = field(default_factory=dict)
    engine_fallbacks: Dict[str, int] = field(default_factory=dict)
    #: Wall seconds spent materializing columns and planning lanes.
    build_seconds: float = 0.0
    #: Wall seconds spent inside the vectorized lane simulator.
    kernel_seconds: float = 0.0

    def fallback(self, reason: str) -> None:
        self.fallbacks[reason] = self.fallbacks.get(reason, 0) + 1

    def engine_fallback(self, reason: str) -> None:
        self.engine_fallbacks[reason] = \
            self.engine_fallbacks.get(reason, 0) + 1

    def to_dict(self) -> Dict[str, object]:
        return {"block_cells": self.block_cells,
                "fallbacks": dict(self.fallbacks),
                "engine_fallbacks": dict(self.engine_fallbacks),
                "build_seconds": self.build_seconds,
                "kernel_seconds": self.kernel_seconds}

    def merge_dict(self, other: Dict[str, object]) -> None:
        self.block_cells += other.get("block_cells", 0)
        for key in ("fallbacks", "engine_fallbacks"):
            mine = getattr(self, key)
            for reason, count in other.get(key, {}).items():
                mine[reason] = mine.get(reason, 0) + count
        self.build_seconds += other.get("build_seconds", 0.0)
        self.kernel_seconds += other.get("kernel_seconds", 0.0)


class _SetupView:
    """The slice of :class:`~repro.sim.engine.SchedulerView` a supported
    policy's ``setup`` reads (task set, machine, the zero start time)."""

    __slots__ = ("taskset", "machine", "time")

    def __init__(self, taskset: TaskSet, machine) -> None:
        self.taskset = taskset
        self.machine = machine
        self.time = 0.0


def _lane_traits(policy) -> Optional[Tuple[bool, bool]]:
    """``(rm_priority, dynamic)`` for a block-supported policy, ``None``
    outside the envelope.

    Exact-type checks: the lane simulator hard-codes each policy's
    frequency-selection rule, so a subclass with overridden hooks must
    not silently inherit its parent's lane.
    """
    kind = type(policy)
    if kind is NoDVS:
        return policy.scheduler == "rm", False
    if kind is StaticEDF:
        return False, False
    if kind is StaticRM:
        return True, False
    if kind is CycleConservingEDF:
        return False, True
    return None


@dataclass
class _PlannedLane:
    """One planned lane and (after the kernel pass) its result."""

    lane: LaneSpec
    fast: bool
    result: Optional[LaneResult] = None


class _LaneOutcome:
    """The ``SimResult`` slice the sweep cell actually consumes."""

    __slots__ = ("total_energy", "executed_cycles", "trace")

    def __init__(self, total_energy: float,
                 executed_cycles: Optional[float], trace) -> None:
        self.total_energy = total_energy
        self.executed_cycles = executed_cycles
        self.trace = trace


def _plan_cell(block: ColumnBlock, index: int,
               lane_specs: List[LaneSpec],
               planned_lanes: List[_PlannedLane]) -> Dict[tuple, object]:
    """Plan every policy run of one cell as a lane (or a rejection).

    Returns ``(policy_name, on_miss) -> _PlannedLane | reason-string``.
    Runs each policy's real ``setup`` so the lane starts from the exact
    state the scalar run would — a setup-time
    :class:`~repro.errors.SchedulabilityError` plans no lane (the
    fallback rerun raises the genuine error for ``run_cell`` to catch)
    and instead plans the full-speed-RM lane that ``run_cell`` retries
    with.
    """
    context = block.context
    taskset = block.tasksets[index]
    demand = block.demands[index]
    machine = context.machine
    plans: Dict[tuple, object] = {}

    values_by_task: List[Sequence[float]] = []
    demand_ok = type(demand) is TraceDemand
    if demand_ok:
        for task in taskset:
            values = demand.trace.get(task.name)
            if not values:
                # An uncovered task draws the fallback fraction *and*
                # bumps ``fallback_draws``; only the real model does that
                # bookkeeping, so the whole cell leaves the envelope.
                demand_ok = False
                break
            values_by_task.append(values)

    # Steady fast-path shape, mirrored from try_steady_fast_path's
    # eligibility checks (same pinned-resolution hyperperiod, same
    # horizon-ratio and periodicity tests) so the lane simulates exactly
    # the warmup window the extrapolation will scan.
    fast = False
    duration = context.duration
    if context.steady_fast_path and demand_ok:
        hyperperiod = block.hyperperiods[index]
        if hyperperiod is not None:
            simulated = 3 * hyperperiod  # (warmup=1 + 2) hyperperiods
            if not simulated * 2.0 > context.duration:
                ok, _ = demand_is_hyperperiodic(
                    demand, taskset, hyperperiod, context.duration)
                if ok:
                    fast = True
                    duration = simulated

    def add_lane(key: tuple, policy, rm_priority: bool, dynamic: bool,
                 drop_on_miss: bool, need_cycles: bool) -> None:
        if key in plans:
            return
        try:
            initial = policy.setup(_SetupView(taskset, machine))
        except SchedulabilityError:
            plans[key] = "schedulability"
            if not drop_on_miss:
                # run_cell's footnote-3 retry: full-speed RM, drop mode.
                add_lane(("RM", "drop"), NoDVS(scheduler="rm"),
                         rm_priority=True, dynamic=False,
                         drop_on_miss=True, need_cycles=False)
            return
        try:
            point_index = machine.index_of(
                machine.fastest if initial is None else initial)
        except MachineError:
            plans[key] = "unsupported-policy"
            return
        lane = LaneSpec(
            periods=block.periods[index],
            wcets=block.wcets[index],
            demand_values=values_by_task,
            demand_repeat=demand.repeat,
            duration=duration,
            initial_point=point_index,
            rm_priority=rm_priority,
            dynamic=dynamic,
            drop_on_miss=drop_on_miss,
            need_cycles=need_cycles and not fast,
            capture=fast)
        planned = _PlannedLane(lane=lane, fast=fast)
        plans[key] = planned
        lane_specs.append(lane)
        planned_lanes.append(planned)

    for name in context.policies:
        policy = make_policy(name)
        key = (getattr(policy, "name", name), "raise")
        if not demand_ok:
            plans[key] = "demand-shape"
            continue
        if name in context.residency_policies:
            plans[key] = "instrumented"
            continue
        traits = _lane_traits(policy)
        if traits is None:
            plans[key] = "unsupported-policy"
            continue
        rm_priority, dynamic = traits
        add_lane(key, policy, rm_priority, dynamic,
                 drop_on_miss=False,
                 need_cycles=(name == REFERENCE_POLICY))
    return plans


def _lane_timeline(machine, taskset: TaskSet, segments) -> SimTimeline:
    """Replay captured lane segments through a real columnar timeline.

    The merge/drop semantics of :meth:`SimTimeline.record` apply during
    the replay, so the steady fast path scans exactly the trace a
    per-cell run would have recorded.
    """
    timeline = SimTimeline()
    record = timeline.record
    points = machine.points
    names = [task.name for task in taskset]
    for start, end, task_idx, op_idx, cycles, energy, kind in segments:
        record(start, end,
               names[task_idx] if task_idx >= 0 else None,
               points[op_idx], cycles, energy,
               "run" if kind == SEG_RUN else "idle")
    return timeline


def _block_simulate_fn(block: ColumnBlock, index: int,
                       plans: Dict[tuple, object],
                       stats: EngineStats, flags: Dict[str, bool]):
    """A ``simulate``-shaped callable serving one cell from its lanes.

    Calls that match a clean planned lane return its precomputed figures
    (full-horizon totals, or the captured warmup trace for the steady
    fast path); everything else — rejected policies, abandoned lanes,
    instrumented or residency runs (lanes keep no residency), unexpected
    call shapes — is counted in ``stats`` and delegated to
    :func:`batch_simulate`, which reproduces the exact scalar behavior,
    exceptions included.
    """
    context = block.context
    params = (block.periods[index], block.wcets[index])
    taskset = block.tasksets[index]
    machine = context.machine

    def sim(ts, mach, policy, demand=None, duration=None,
            energy_model=None, on_miss="raise", instrument=None,
            record_trace=False, residency=False, **kwargs):
        reason: Optional[str] = None
        planned = plans.get((getattr(policy, "name", None), on_miss))
        if instrument is not None or residency:
            reason = "instrumented"
        elif kwargs:
            reason = "unsupported-call"
        elif isinstance(planned, str):
            reason = planned
        elif planned is None:
            reason = "unplanned-run"
        elif planned.result is None:
            reason = "kernel-unavailable"
        elif planned.result.abandoned is not None:
            reason = planned.result.abandoned
        elif (record_trace and planned.fast
                and duration == planned.lane.duration):
            flags["hit"] = True
            result = planned.result
            return _LaneOutcome(result.total_energy, result.executed_cycles,
                                _lane_timeline(machine, taskset,
                                               result.segments))
        elif (not record_trace and not planned.fast
                and duration == planned.lane.duration):
            flags["hit"] = True
            result = planned.result
            return _LaneOutcome(result.total_energy,
                                result.executed_cycles, None)
        else:
            # A fast-eligible cell whose verification failed re-simulates
            # the full horizon; a full lane cannot serve a trace request.
            reason = "call-shape"
        stats.fallback(reason)
        if residency:
            kwargs["residency"] = True
        return batch_simulate(ts, mach, policy, params=params,
                              stats=stats, demand=demand,
                              duration=duration, energy_model=energy_model,
                              on_miss=on_miss, instrument=instrument,
                              record_trace=record_trace, **kwargs)

    return sim


def _run_planned_cell(block: ColumnBlock, index: int,
                      plans: Dict[tuple, object],
                      stats: EngineStats) -> Dict[str, object]:
    """Run one planned cell through the scalar ``run_cell`` driver."""
    flags = {"hit": False}
    outcome = run_cell(
        block.context, block.specs[index],
        simulate_fn=_block_simulate_fn(block, index, plans, stats, flags),
        materialized=(block.tasksets[index], block.demands[index]))
    if flags["hit"]:
        stats.block_cells += 1
    return outcome


def _plan_and_execute(cells: List[Tuple[ColumnBlock, int]],
                      stats: EngineStats) -> List[Dict[tuple, object]]:
    """Plan lanes for every cell, run one vectorized mega-pass over all
    of them, and attach the results (or a shared fallback reason)."""
    context = cells[0][0].context if cells else None
    lane_specs: List[LaneSpec] = []
    planned_lanes: List[_PlannedLane] = []
    started = perf_counter()
    plans = [_plan_cell(block, index, lane_specs, planned_lanes)
             for block, index in cells]
    stats.build_seconds += perf_counter() - started

    results = None
    if lane_specs and len(lane_specs) >= block_kernels.BLOCK_MIN_LANES:
        started = perf_counter()
        results = run_lanes(context.machine, context.energy_model(),
                            lane_specs)
        stats.kernel_seconds += perf_counter() - started
    if results is not None:
        for planned, result in zip(planned_lanes, results):
            planned.result = result
    elif planned_lanes:
        reason = ("no-numpy" if numpy_backend() is None
                  else "small-block" if lane_specs
                  and len(lane_specs) < block_kernels.BLOCK_MIN_LANES
                  else "kernel-unavailable")
        for cell_plans in plans:
            for key, planned in list(cell_plans.items()):
                if isinstance(planned, _PlannedLane):
                    cell_plans[key] = reason
    return plans


def run_block(block: ColumnBlock,
              stats: Optional[EngineStats] = None) -> List[Dict[str, object]]:
    """Run a whole :class:`ColumnBlock` at once on the lane simulator.

    The block-at-once sibling of :func:`run_block_cell`: one vectorized
    pass advances every policy run of every cell, then each cell's
    outcome dict is assembled by the scalar ``run_cell`` driver from the
    lane results (identical keys, ordering, fallback and fast-path
    accounting — bit-identical outcomes by construction).
    """
    stats = EngineStats() if stats is None else stats
    cells = [(block, index) for index in range(len(block))]
    plans = _plan_and_execute(cells, stats)
    return [_run_planned_cell(block, index, cell_plans, stats)
            for (_, index), cell_plans in zip(cells, plans)]


def run_cell_block(context: SweepContext,
                   spec: CellSpec) -> Dict[str, object]:
    """Block-engine twin of :func:`~repro.analysis.sweep.run_cell`.

    A single cell rarely clears :data:`~repro.sim.block_kernels.
    BLOCK_MIN_LANES`, so this usually lands on the per-cell kernel
    fallback — the entry point exists for engine-agnostic callers
    (:meth:`~repro.analysis.executor.CellExecutor.submit_cell`).
    """
    return run_block(build_column_block(context, [spec]))[0]


def iter_cells_block(context: SweepContext, specs: Sequence[CellSpec],
                     stats: Optional[EngineStats] = None,
                     ) -> Iterator[Tuple[int, Dict[str, object]]]:
    """Yield ``(index, outcome)`` for every spec, in submission order.

    The inline block path: all columns are materialized and planned up
    front, one mega-pass advances the lanes of the *entire* sweep
    simultaneously (the lane axis concatenates columns; lanes pad to the
    widest task count), and outcomes are then assembled per cell.
    """
    stats = EngineStats() if stats is None else stats
    cells: List[Tuple[ColumnBlock, int]] = []
    for _, group in groupby(specs, key=_column_key):
        column = list(group)
        block = build_column_block(context, column)
        cells.extend((block, index) for index in range(len(column)))
    plans = _plan_and_execute(cells, stats)
    for position, ((block, index), cell_plans) in \
            enumerate(zip(cells, plans)):
        yield position, _run_planned_cell(block, index, cell_plans, stats)
