"""The default engine's execution ladder for sweep cells.

The scalar sweep path hands every cell to the discrete-event engine one
policy run at a time.  The default engine (``engine="batch"``) runs the
same cells down a three-rung ladder instead, every rung bit-identical to
the engine:

* **lanes** — every *policy run* of every cell becomes one lane of the
  cross-cell vectorized simulator (:mod:`repro.sim.block_kernels`), and
  each chunk of the cell stream advances in lockstep array passes over
  the lane axis.  The planner here runs each policy's real ``setup`` to
  seed the lane and mirrors the steady fast-path eligibility so warmup
  windows are batched across the cell axis too.
* **per-run kernel** — the sweep's cell stream is walked *column by
  column* (a column being the run of consecutive cells that share one
  task-set recipe ``(utilization, gen_seed, n_tasks, bands, demand)``),
  each column is materialized once into a structure-of-arrays
  :class:`ColumnBlock`, and every run goes through the flat-array
  :class:`~repro.sim.batch_kernels.CellKernel`.
* **event engine** — whatever the kernel envelope does not cover.

The lane rung is chosen by size, never by the caller: before anything is
materialized, :func:`use_lanes` counts the *candidate lanes* —
cells times the policies that have a lane and keep no residency — and
the lane pass is planned only when that count reaches
:data:`~repro.sim.block_kernels.BLOCK_MIN_LANES` (and numpy is there),
one pass per chunk of consecutive columns.  Below the floor the lockstep
pass costs more than it saves, and the cells stream straight through the
per-run kernel.  Every run that does
not come from a lane is counted by reason (:class:`EngineStats`), so the
ladder never degrades silently.  ``scalar`` stays the explicit reference
oracle.

Two invariants anchor the design:

* **Bit identity.**  A cell produces the *same outcome dict* as the
  scalar path: every rung runs through
  :func:`repro.analysis.sweep.run_cell` itself, parameterized with a
  ``simulate``-shaped entry point (:func:`batch_simulate`, or a lane
  server over it), so the RM fallback logic, the bound, native
  residency, and the hyperperiod short-circuit compose identically.
  Runs outside the kernel envelope — instrumented runs, timer policies,
  exotic miss modes — fall back to the engine run by run, and every
  fallback is counted by reason in :attr:`EngineStats.engine_fallbacks`.
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
from repro.analysis.transport import encode_cell
from repro.core import make_policy
from repro.core.cycle_conserving import CycleConservingEDF
from repro.core.no_dvs import NoDVS
from repro.core.static_scaling import StaticEDF, StaticRM
from repro.errors import MachineError, SchedulabilityError
from repro.model.demand import TraceDemand
from repro.model.task import TaskSet
from repro.sim import block_kernels
from repro.sim.batch_kernels import (kernel_fallback_reason, kernel_simulate,
                                     numpy_backend)
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
    :class:`~repro.sim.batch_kernels.CellKernel`) and the per-cell
    hyperperiod at the context's pinned ``steady_resolution`` (so cache
    keys and batch-column grouping agree on fast-path eligibility).
    """

    context: SweepContext
    specs: List[CellSpec]
    tasksets: List[TaskSet]
    demands: List[TraceDemand]
    periods: List[List[float]]
    wcets: List[List[float]]
    hyperperiods: List[Optional[float]]

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
    resolution = getattr(context, "steady_resolution", 1e-6)
    for spec in specs:
        taskset, demand = materialize_cell(context, spec)
        tasksets.append(taskset)
        demands.append(demand)
        periods.append([t.period for t in taskset])
        wcets.append([t.wcet for t in taskset])
        hyperperiods.append(taskset.hyperperiod(resolution=resolution))
    return ColumnBlock(context=context, specs=list(specs),
                       tasksets=tasksets, demands=demands,
                       periods=periods, wcets=wcets,
                       hyperperiods=hyperperiods)


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


# ---------------------------------------------------------------------------
# the lane rung (cross-cell vectorized lanes)
# ---------------------------------------------------------------------------

@dataclass
class EngineStats:
    """Which rung of the ladder ran, for one default-engine run.

    Mirrors the sweep's fast-path counters: ``block_cells`` counts cells
    where at least one policy run was served straight from a vectorized
    lane; ``fallbacks`` maps a reason to the number of policy runs that
    did not come from a lane (``"below-floor"``, ``"instrumented"``,
    ``"unsupported-policy"``, ...); ``engine_fallbacks`` maps a reason to
    the number of runs the per-run kernel handed to the event engine.
    Travels as a plain dict beside the outcomes from process and
    distributed workers (:meth:`to_dict` / :meth:`merge_dict`).
    """

    block_cells: int = 0
    fallbacks: Dict[str, int] = field(default_factory=dict)
    engine_fallbacks: Dict[str, int] = field(default_factory=dict)
    #: Wall seconds spent materializing columns and planning lanes.
    build_seconds: float = 0.0
    #: Wall seconds spent inside the vectorized lane simulator.
    kernel_seconds: float = 0.0

    def fallback(self, reason: str, count: int = 1) -> None:
        self.fallbacks[reason] = self.fallbacks.get(reason, 0) + count

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
    """``(rm_priority, dynamic)`` for a lane-supported policy, ``None``
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


def _policy_lanes(context: SweepContext) -> list:
    """Per policy of ``context``: its ``(rm_priority, dynamic)`` lane
    traits when it is a lane candidate, else the reason its runs never
    take a lane (residency runs keep a histogram lanes do not; other
    policies have no lane).  The one place that decides candidacy: the
    size selection counts these and the planner follows them."""
    lanes = []
    for name in context.policies:
        if name in context.residency_policies:
            lanes.append("instrumented")
        else:
            lanes.append(_lane_traits(make_policy(name))
                         or "unsupported-policy")
    return lanes


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


def _plan_cell(block: ColumnBlock, index: int, lanes: list,
               lane_specs: List[LaneSpec],
               planned_lanes: List[_PlannedLane]) -> Dict[tuple, object]:
    """Plan every policy run of one cell as a lane (or a rejection).

    ``lanes`` is the context's :func:`_policy_lanes` table.  Returns
    ``(policy_name, on_miss) -> _PlannedLane | reason-string``.
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

    for name, traits in zip(context.policies, lanes):
        policy = make_policy(name)
        key = (getattr(policy, "name", name), "raise")
        if not demand_ok:
            plans[key] = "demand-shape"
            continue
        if isinstance(traits, str):
            plans[key] = traits
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


def _plan_and_execute(cells: List[Tuple[ColumnBlock, int]], lanes: list,
                      stats: EngineStats) -> List[Dict[tuple, object]]:
    """Plan lanes for every cell, run one vectorized pass over all of
    them, and attach the results."""
    context = cells[0][0].context if cells else None
    lane_specs: List[LaneSpec] = []
    planned_lanes: List[_PlannedLane] = []
    started = perf_counter()
    plans = [_plan_cell(block, index, lanes, lane_specs, planned_lanes)
             for block, index in cells]
    stats.build_seconds += perf_counter() - started
    if lane_specs:
        started = perf_counter()
        results = run_lanes(context.machine, context.energy_model(),
                            lane_specs)
        stats.kernel_seconds += perf_counter() - started
        # ``None`` (numpy switched off mid-sweep) leaves every result
        # unset: each run then falls back as "kernel-unavailable".
        for planned, result in zip(planned_lanes, results or ()):
            planned.result = result
    return plans


# ---------------------------------------------------------------------------
# the ladder
# ---------------------------------------------------------------------------

def lane_candidates(context: SweepContext, cells: int) -> int:
    """Candidate lanes of ``cells`` cells of ``context``: cells times the
    policies that have a lane and keep no residency."""
    return cells * sum(not isinstance(traits, str)
                       for traits in _policy_lanes(context))


def use_lanes(context: SweepContext, cells: int,
              stats: Optional[EngineStats] = None) -> bool:
    """Whether ``cells`` cells of ``context`` take the lane pass.

    Counts the candidate lanes before anything is materialized: below
    :data:`~repro.sim.block_kernels.BLOCK_MIN_LANES` the lockstep pass
    costs more than the per-run kernel (and numpy is never imported),
    and without numpy it cannot run at all.  When the lanes are skipped,
    each policy run is ledgered once into ``stats``: candidates under
    ``"below-floor"`` or ``"no-numpy"``, the rest under their own reason.
    """
    floor_met = lane_candidates(context, cells) >= \
        block_kernels.BLOCK_MIN_LANES
    if floor_met and numpy_backend() is not None:
        return True
    if stats is not None:
        skip = "no-numpy" if floor_met else "below-floor"
        for traits in _policy_lanes(context):
            stats.fallback(traits if isinstance(traits, str) else skip,
                           cells)
    return False


def _lane_chunks(columns: List[List[CellSpec]],
                 per_cell: int) -> List[List[List[CellSpec]]]:
    """Split consecutive columns into the runs one lane pass serves.

    Columns join a chunk until it holds
    :data:`~repro.sim.block_kernels.BLOCK_CHUNK_LANES` candidate lanes; a
    short tail joins the last chunk.  Each chunk is planned, run and
    yielded before the next is materialized, so memory stays bounded and
    cache writes and progress advance chunk by chunk.
    """
    size = block_kernels.BLOCK_CHUNK_LANES
    chunks: List[List[List[CellSpec]]] = [[]]
    lanes = 0
    for column in columns:
        if lanes >= size:
            chunks.append([])
            lanes = 0
        chunks[-1].append(column)
        lanes += len(column) * per_cell
    if len(chunks) > 1 and lanes < size:
        chunks[-2].extend(chunks.pop())
    return chunks


def iter_cells(context: SweepContext, specs: Sequence[CellSpec],
               stats: Optional[EngineStats] = None,
               ) -> Iterator[Tuple[int, Dict[str, object]]]:
    """Yield ``(index, outcome)`` for every spec, in submission order.

    The default engine's inline ladder.  When the specs clear the lane
    floor (:func:`use_lanes`), consecutive columns are grouped into
    chunks of about :data:`~repro.sim.block_kernels.BLOCK_CHUNK_LANES`
    candidate lanes (:func:`_lane_chunks`); each chunk is
    materialized and planned, one vectorized pass advances all of its
    lanes (the lane axis concatenates columns; lanes pad to the widest
    task count), and its outcomes are yielded per cell.  Otherwise each
    column is materialized once and its cells stream through the per-run
    kernel.
    """
    stats = EngineStats() if stats is None else stats
    columns = [list(group) for _, group in groupby(specs, key=_column_key)]
    position = 0
    if not use_lanes(context, len(specs), stats):
        for column in columns:
            block = build_column_block(context, column)
            for offset in range(len(block)):
                yield position, run_block_cell(block, offset, stats)
                position += 1
        return
    lanes = _policy_lanes(context)
    for chunk in _lane_chunks(columns, lane_candidates(context, 1)):
        cells = [(block, index)
                 for block in (build_column_block(context, column)
                               for column in chunk)
                 for index in range(len(block))]
        plans = _plan_and_execute(cells, lanes, stats)
        for (block, index), cell_plans in zip(cells, plans):
            yield position, _run_planned_cell(block, index, cell_plans,
                                              stats)
            position += 1


def run_encoded(context: SweepContext, specs: Sequence[CellSpec],
                engine: str,
                ) -> Tuple[List[bytes], Optional[Dict[str, object]]]:
    """Run ``specs`` on ``engine`` for a worker process or host.

    Returns the encoded outcomes in spec order plus, on the default
    engine, its :class:`EngineStats` as a plain dict — stats ride
    *beside* the outcome payloads, never inside them, because the cell
    wire format and the shared cell cache are engine-agnostic.
    """
    if engine == "scalar":
        return [encode_cell(run_cell(context, spec)) for spec in specs], None
    stats = EngineStats()
    return ([encode_cell(outcome)
             for _, outcome in iter_cells(context, specs, stats)],
            stats.to_dict())
