"""Flat-array simulation kernels for the batch sweep backend.

The discrete-event :class:`~repro.sim.engine.Simulator` is built for
generality: admission queues, policy wakeups, switch halts, pluggable
instrumentation, and lazily-invalidated heaps.  A sweep cell needs none of
that — every cell the batch backend accepts is a fixed periodic task set,
free switching, WCET-clamped demands, and a policy that only reacts to
releases, completions, and idling.  :func:`kernel_simulate` replays exactly
that envelope over flat per-task arrays (release times, current deadlines,
ready slots — one slot per task index) and drives the *real* policy object
through the same :class:`~repro.sim.engine.SchedulerView` protocol the
engine exposes, so every frequency-selection decision (ccEDF's utilization
bands, ccRM's quota walk, laEDF's deferral loop) is made by the same code
and is bit-for-bit identical by construction.

What the kernel removes is pure engine overhead: the three event heaps and
their lazy-invalidation tuples, the ready-entry side table, the wakeup
cache churn, the instrumentation pointer tests, the per-event method-call
chains, and the repeated ``energy_per_cycle`` property evaluations (cached
here per operating point).  Because the supported modes (``on_miss``
"raise"/"drop") keep at most one live job per task, the ready queue
collapses to one slot per task index and job picking to a linear argmin
over ``(deadline-or-period, task index)`` — the same total order as the
engine's heap keys.  The main loop is deliberately one flat function:
between two release instants ("a window") it executes segments back to
back without re-deriving the release state the engine re-scans per event.

The per-task state the paper's whole-set policies read is kept live and
index-addressed: ``c_left`` (worst-case remaining cycles), the current-job
slots, and the earliest deadline (recomputed once per release instant, the
only place a deadline changes).  laEDF's deferral walk and ccRM's quota
walk read them through :meth:`CellKernel.c_left_slots` /
:meth:`CellKernel.job_slots` instead of one accessor call per task.

The module also hosts the lazy numpy seam (:func:`numpy_backend`) of the
cross-cell lanes in :mod:`repro.sim.block_kernels`.  The per-run kernel
itself never imports numpy, so sweeps that stay below the lane floor keep
``numpy`` out of ``sys.modules`` (pinned by ``benchmarks/numpy_guard``).
"""

from __future__ import annotations

import math
import os
from typing import Dict, List, Optional, Sequence, Union

from repro.core.base import DVSPolicy
from repro.errors import DeadlineMissError, MachineError, SimulationError
from repro.hw.energy import EnergyModel
from repro.hw.machine import Machine
from repro.model.demand import DemandModel, WorstCaseDemand, demand_from_spec
from repro.model.job import Job
from repro.model.task import Task, TaskSet
from repro.sim.engine import SchedulerView
from repro.sim.results import DeadlineMiss, EnergyBreakdown, SimResult
from repro.sim.scheduler import make_priority
from repro.sim.timeline import make_trace

#: Same event tolerance as the engine.
_EPS = 1e-9

#: Miss modes the kernel replicates.  "continue" allows several live jobs
#: per task, which breaks the one-ready-slot-per-task layout; cells that
#: need it fall back to the engine.
KERNEL_MISS_MODES = ("raise", "drop")

_INF = math.inf

# ---------------------------------------------------------------------------
# the lazy numpy seam
# ---------------------------------------------------------------------------

#: ``RTDVS_NO_NUMPY=1`` pins the pure-Python kernels process-wide (the
#: numpy-absent CI leg runs the batch and lane suites under it); a later
#: ``set_numpy_enabled(True)`` still overrides for targeted tests.
_numpy_enabled = os.environ.get("RTDVS_NO_NUMPY", "") not in ("1", "true")
_numpy_module = None
_numpy_missing = False


def set_numpy_enabled(enabled: bool) -> None:
    """Force the pure-Python block kernels (``False``) or restore the
    default lazy numpy acceleration (``True``).

    Used by the differential tests to pin both sides of the
    numpy-on/numpy-off bit-identity gate of the lanes, and available to
    callers that must not pull numpy into the process.
    """
    global _numpy_enabled
    _numpy_enabled = bool(enabled)


def numpy_backend():
    """The numpy module, or ``None`` (disabled or not installed).

    The import happens on first use from the lane rung only — neither
    the scalar sweep path nor the per-run kernel calls it, so ``numpy``
    stays out of ``sys.modules`` for sweeps below the lane floor (the
    laziness invariant asserted by ``benchmarks.numpy_guard``).
    """
    global _numpy_module, _numpy_missing
    if not _numpy_enabled or _numpy_missing:
        return None
    if _numpy_module is None:
        try:
            import numpy
        except ImportError:  # pragma: no cover - image always has numpy
            _numpy_missing = True
            return None
        _numpy_module = numpy
    return _numpy_module


# ---------------------------------------------------------------------------
# kernel eligibility
# ---------------------------------------------------------------------------

def kernel_fallback_reason(policy, on_miss: str = "raise", instrument=None,
                           admissions: Sequence = (),
                           enforce_wcet: bool = True, switching=None,
                           **_ignored) -> Optional[str]:
    """Why :func:`kernel_simulate` cannot replicate this run, or ``None``.

    The envelope: a :class:`~repro.core.base.DVSPolicy` without a timer
    (``wakeup_time``), no instrumentation, no dynamic admissions,
    WCET-clamped demands, free switching, and a miss mode that keeps at
    most one live job per task.  Native residency (``residency=True``) is
    inside it.  Everything else falls back to the engine (the caller's
    responsibility — see :func:`repro.analysis.batch.batch_simulate`,
    which counts the returned reason).
    """
    if not isinstance(policy, DVSPolicy):
        return "policy-type"
    if getattr(policy, "wakeup_time", None) is not None:
        return "wakeup-timer"
    if instrument is not None:
        return "instrumented"
    if admissions:
        return "admissions"
    if not enforce_wcet:
        return "wcet-overrun"
    if switching is not None:
        return "switching"
    if on_miss not in KERNEL_MISS_MODES:
        return on_miss
    return None


def _overrides(policy, hook_name: str) -> bool:
    """Whether ``policy`` overrides a :class:`DVSPolicy` no-op hook.

    The engine calls every hook unconditionally; the base-class bodies
    return ``None``, which the engine ignores.  Skipping those calls is
    outcome-identical and removes per-event call overhead entirely for
    the static and NoDVS policies.
    """
    return getattr(type(policy), hook_name) is not getattr(DVSPolicy,
                                                           hook_name)


# ---------------------------------------------------------------------------
# the per-cell kernel
# ---------------------------------------------------------------------------

class CellKernel(SchedulerView):
    """One cell's simulation state, flattened to per-task-index arrays.

    Implements the :class:`~repro.sim.engine.SchedulerView` protocol the
    policies read, over:

    * ``_next_release[i]`` — the release queue (argmin instead of a heap;
      at-the-horizon releases follow the engine's suppression convention);
    * ``_job[i]`` / ``_job_deadline[i]`` — the deadline index (the current
      invocation's deadline persists after completion, exactly like the
      engine's lazily-invalidated deadline heap); ``_earliest`` caches its
      minimum, recomputed once per release instant;
    * ``_c_left[i]`` — ``c_left``, the current job's worst-case remaining
      cycles (``max(0, C_i - executed)``, 0 once complete), written at
      release, at the zero-demand pass, after a partial segment and at
      completion;
    * ``_ready[i]`` — the ready queue (one slot per task: the supported
      miss modes never leave two live jobs of one task ready).

    Task parameters may be supplied pre-flattened by a column block
    (``params=(periods, wcets)``) so a sweep column shares one SoA
    materialization across its cells.
    """

    def __init__(self, taskset: TaskSet, machine: Machine, policy,
                 demand: Union[str, float, DemandModel, None] = None,
                 duration: Optional[float] = None,
                 energy_model: Optional[EnergyModel] = None,
                 on_miss: str = "raise",
                 record_trace: bool = False,
                 scheduler: Optional[str] = None,
                 instrument=None,
                 params: Optional[tuple] = None,
                 residency: bool = False):
        if instrument is not None:
            raise SimulationError(
                "the batch kernel does not support instrumentation; "
                "use the scalar engine for instrumented runs")
        if on_miss not in KERNEL_MISS_MODES:
            raise SimulationError(
                f"batch kernel supports on_miss in {KERNEL_MISS_MODES}, "
                f"got {on_miss!r}")
        self.taskset = taskset
        self.machine = machine
        self.policy = policy
        if demand is None:
            self.demand_model: DemandModel = WorstCaseDemand()
        else:
            self.demand_model = demand_from_spec(demand)
        self.duration = (duration if duration is not None
                         else 2.0 * max(t.period for t in taskset))
        if self.duration <= 0:
            raise SimulationError(
                f"duration must be positive, got {self.duration}")
        self.energy_model = energy_model or EnergyModel()
        scheduler_name = scheduler or getattr(policy, "scheduler", "edf")
        # Built for its validation and canonical name; keys are inlined.
        self._priority_name = make_priority(scheduler_name, taskset).name
        self.on_miss = on_miss

        tasks = list(taskset)
        self._tasks = tasks
        self._n = len(tasks)
        self._tindex: Dict[str, int] = {t.name: i for i, t in
                                        enumerate(tasks)}
        # Identity fast path for job_of: policies pass the task objects of
        # this task set, so an id() lookup skips the attribute access and
        # string hash of the name lookup (kept as the fallback so
        # equal-but-distinct Task objects still resolve, like the engine).
        self._id_index: Dict[int, int] = {id(t): i for i, t in
                                          enumerate(tasks)}
        if params is not None:
            self._period, self._wcet = params
        else:
            self._period = [t.period for t in tasks]
            self._wcet = [t.wcet for t in tasks]

        # -- flat per-task state (the SoA row this cell occupies) --
        self._next_release = [0.0] * self._n
        self._invocation = [0] * self._n
        self._job: List[Optional[Job]] = [None] * self._n
        self._job_deadline = [_INF] * self._n
        self._earliest: Optional[float] = None
        self._c_left = [0.0] * self._n
        self._ready: List[Optional[Job]] = [None] * self._n
        # Job-log position of each current job: the final deadline check
        # visits the slots in log order.
        self._log_pos = [0] * self._n

        # -- run accounting --
        self.time = 0.0
        self._jobs: List[Job] = []
        self._misses: List[DeadlineMiss] = []
        self._energy = EnergyBreakdown()
        self._switches = 0
        self._point = machine.fastest
        self._trace = make_trace(record_trace)
        self._finished = False
        # Native residency, kept exactly like the engine's (see
        # ``Simulator(residency=True)``): only ``_set_point`` and the wind
        # down touch it, so the segment loop is unchanged.
        self._residency: Optional[Dict[float, float]] = (
            {} if residency else None)
        self._residency_since = 0.0

        # Hook dispatch: bound method when overridden, None when the
        # base-class no-op would run (the engine calls it and discards
        # the None — skipping is outcome-identical).
        self._on_release = (policy.on_release
                            if _overrides(policy, "on_release") else None)
        self._on_completion = (policy.on_completion
                               if _overrides(policy, "on_completion")
                               else None)
        self._on_idle = (policy.on_idle
                         if _overrides(policy, "on_idle") else None)
        self._on_invalidate = (policy.on_releases_invalidate
                               if _overrides(policy,
                                             "on_releases_invalidate")
                               else None)

    # ------------------------------------------------------------------
    # SchedulerView protocol
    # ------------------------------------------------------------------
    def job_of(self, task: Task) -> Optional[Job]:
        index = self._id_index.get(id(task))
        if index is None:
            index = self._tindex.get(task.name)
            if index is None:
                return None
        return self._job[index]

    def current_deadline(self, task: Task) -> Optional[float]:
        job = self.job_of(task)
        return job.absolute_deadline if job else None

    def earliest_deadline(self) -> Optional[float]:
        return self._earliest

    def worst_case_remaining(self, task: Task) -> float:
        job = self.job_of(task)
        if job is None:
            return 0.0
        return job.worst_case_remaining

    def c_left_slots(self) -> List[float]:
        return self._c_left

    def job_slots(self) -> List[Optional[Job]]:
        return self._job

    def executed_in_invocation(self, task: Task) -> float:
        job = self.job_of(task)
        return job.executed if job else 0.0

    def invocation_of(self, task: Task) -> int:
        job = self.job_of(task)
        return job.index if job else -1

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def run(self) -> SimResult:
        """Execute the cell and return its result (single use).

        One flat loop, engine-equivalent step for step: process every due
        release (index order = the engine's ordinal order), stop at the
        duration edge, otherwise execute segments back to back until the
        next release instant.  All simulator state lives in locals; the
        attributes policies read through the view protocol (``time`` and
        the per-task arrays) are synced at every point a policy can
        observe them (hook calls and miss handling).
        """
        if self._finished:
            raise SimulationError("CellKernel instances are single-use; "
                                  "construct a new one to run again")
        self._finished = True

        initial = self.policy.setup(self)
        if initial is not None:
            # The engine assigns the setup point directly: no switch is
            # counted and no membership check is applied.
            self._point = initial

        # -- hoist everything the hot loop touches --
        n = self._n
        range_n = range(n)
        tasks = self._tasks
        period = self._period
        wcet = self._wcet
        next_release = self._next_release
        invocation = self._invocation
        job_slot = self._job
        job_deadline = self._job_deadline
        c_left = self._c_left
        log_pos = self._log_pos
        ready = self._ready
        duration = self.duration
        edge = duration - _EPS
        drop_on_miss = self.on_miss == "drop"
        jobs_log = self._jobs
        trace = self._trace
        record = trace.record if trace is not None else None
        on_release = self._on_release
        on_completion = self._on_completion
        on_idle = self._on_idle
        invalidate = self._on_invalidate
        key = period if self._priority_name == "rm" else job_deadline

        model = self.demand_model
        demand_at = getattr(model, "demand_at", None)
        demand_of = model.demand

        # Energy coefficients, with energy_per_cycle (a property that
        # multiplies voltage² on every access) cached per point.  The
        # engine computes scale * idle_level * cycles * epc left to
        # right, so hoisting (scale * idle_level) keeps the products
        # bit-identical.
        scale = self.energy_model.cycle_energy_scale
        idle_coeff = scale * self.energy_model.idle_level
        point = self._point
        frequency = point.frequency
        epc = point.energy_per_cycle

        # Execution energy accumulates into flat slots, one per operating
        # point in first-use order (the insertion order the engine's
        # breakdown dict ends up with).  The slot for the current point is
        # resolved lazily after each switch, so the hot segment loop pays
        # a single list-indexed add — no OperatingPoint hashing.
        self._acc_energy: List[float] = []
        self._acc_points: List[object] = []
        self._acc_by_op = [-1] * len(self.machine.frequencies)
        self._acc_off: Dict[object, int] = {}
        acc_energy = self._acc_energy
        slot = -1
        idle_energy = 0.0

        time = 0.0

        while True:
            # ---- release phase (engine: fixed point over due releases;
            # one extra scan confirms quiescence) ----
            limit = time + _EPS
            due = [i for i in range_n
                   if next_release[i] <= limit and next_release[i] < edge]
            if due:
                released_tasks: List[Task] = []
                zero_tasks: List[Task] = []
                for i in due:
                    while True:
                        release_time = next_release[i]
                        old = job_slot[i]
                        if old is not None and old.completion_time is None:
                            self.time = time
                            self._record_miss(old)  # raises in raise mode
                            if drop_on_miss and ready[i] is old:
                                ready[i] = None
                        task = tasks[i]
                        inv = invocation[i]
                        if demand_at is not None:
                            demand = demand_at(task, inv, release_time)
                        else:
                            demand = demand_of(task, inv)
                        cap = wcet[i]
                        if demand > cap:  # enforce_wcet, as min(d, wcet)
                            demand = cap
                        job = Job(task=task, release_time=release_time,
                                  demand=demand, index=inv)
                        job_slot[i] = job
                        deadline = release_time + period[i]
                        job_deadline[i] = deadline
                        invocation[i] = inv + 1
                        next_release[i] = deadline
                        log_pos[i] = len(jobs_log)
                        jobs_log.append(job)
                        released_tasks.append(task)
                        if demand > _EPS:
                            ready[i] = job
                            c_left[i] = cap  # max(0.0, C_i - 0.0)
                        else:
                            # Engine's zero-demand pass: completes at the
                            # current time without ever becoming ready.
                            job.completion_time = time
                            c_left[i] = 0.0
                            zero_tasks.append(task)
                        if not (next_release[i] <= limit
                                and next_release[i] < edge):
                            break
                # Deadlines change only here, so the earliest one is
                # resolved once per release instant, before any hook.
                earliest = min(job_deadline)
                self._earliest = earliest if earliest != _INF else None
                if invalidate is not None:
                    self.time = time
                    invalidate(self, released_tasks)
                if on_release is not None:
                    self.time = time
                    for task in released_tasks:
                        new_point = on_release(self, task)
                        # Identity first, here and at the other switch
                        # sites: hooks mostly hand back the current point
                        # object, so the dataclass __eq__ runs only when
                        # the point may have changed.
                        if (new_point is not None and new_point is not point
                                and new_point != point):
                            self._point = point
                            self._set_point(new_point)
                            point = self._point
                            frequency = point.frequency
                            epc = point.energy_per_cycle
                            slot = -1
                if on_completion is not None and zero_tasks:
                    self.time = time
                    for task in zero_tasks:
                        new_point = on_completion(self, task)
                        if (new_point is not None and new_point is not point
                                and new_point != point):
                            self._point = point
                            self._set_point(new_point)
                            point = self._point
                            frequency = point.frequency
                            epc = point.energy_per_cycle
                            slot = -1
                # No quiescence re-scan: every processed index advanced
                # its next release by a full period past ``limit`` (the
                # catch-up loop guarantees it), and hooks never touch the
                # release state, so the engine's fixed-point iteration
                # is provably a single pass here.

            # ---- duration edge (the engine checks after releases) ----
            if time >= edge:
                break

            # ---- one window: [time, next release instant) ----
            horizon_raw = min(next_release)
            horizon = horizon_raw if horizon_raw < duration else duration
            if horizon <= limit:
                # Suppressed at-the-edge release coinciding with the
                # current instant; the engine makes no progress here
                # either (it re-enters its event scan).
                continue
            while True:
                best = -1
                best_key = _INF
                for i in range_n:
                    if ready[i] is not None:
                        k = key[i]
                        if k < best_key:
                            best = i
                            best_key = k
                if best < 0:
                    # Idle to the horizon.  The idle hook may retune
                    # first (ccEDF drops to the slowest point).
                    if on_idle is not None:
                        self.time = time
                        new_point = on_idle(self)
                        if (new_point is not None and new_point is not point
                                and new_point != point):
                            self._point = point
                            self._set_point(new_point)
                            point = self._point
                            frequency = point.frequency
                            epc = point.energy_per_cycle
                            slot = -1
                    cycles = (horizon - time) * frequency
                    energy = idle_coeff * cycles * epc
                    idle_energy += energy
                    if record is not None:
                        record(time, horizon, None, point, 0.0, energy,
                               "idle")
                    time = horizon
                    break
                job = ready[best]
                remaining = job.demand - job.executed
                if remaining < 0.0:
                    remaining = 0.0
                completion_time = time + remaining / frequency
                if completion_time <= horizon + _EPS:
                    energy = scale * remaining * epc
                    if slot < 0:
                        slot = self._slot_for(point)
                    acc_energy[slot] += energy
                    job.executed = job.demand  # absorb float residue
                    job.completion_time = completion_time
                    c_left[best] = 0.0
                    ready[best] = None
                    if record is not None:
                        record(time, completion_time, job.task.name, point,
                               remaining, energy, "run")
                    time = completion_time
                    if on_completion is not None:
                        self.time = time
                        new_point = on_completion(self, job.task)
                        if (new_point is not None and new_point is not point
                                and new_point != point):
                            self._point = point
                            self._set_point(new_point)
                            point = self._point
                            frequency = point.frequency
                            epc = point.energy_per_cycle
                            slot = -1
                    # The window survives a completion unless the next
                    # release (or the duration edge) is upon us.
                    if horizon_raw <= time + _EPS or time >= edge:
                        break
                else:
                    cycles = (horizon - time) * frequency
                    energy = scale * cycles * epc
                    if slot < 0:
                        slot = self._slot_for(point)
                    acc_energy[slot] += energy
                    executed = job.executed + cycles
                    job.executed = executed
                    left = wcet[best] - executed
                    c_left[best] = left if left > 0.0 else 0.0
                    if record is not None:
                        record(time, horizon, job.task.name, point, cycles,
                               energy, "run")
                    time = horizon
                    break

        # ---- wind down ----
        self.time = time
        self._point = point
        breakdown = self._energy
        for acc_point, energy in zip(self._acc_points, acc_energy):
            breakdown.add_execution(acc_point, energy)
        breakdown.idle = idle_energy
        self._final_deadline_check()
        residency = self._residency
        if residency is not None:
            f_last = point.frequency
            residency[f_last] = (residency.get(f_last, 0.0)
                                 + (time - self._residency_since))
        return SimResult(
            taskset=self.taskset,
            policy_name=getattr(self.policy, "name",
                                type(self.policy).__name__),
            scheduler_name=self._priority_name,
            duration=duration,
            energy=breakdown,
            jobs=jobs_log,
            misses=self._misses,
            switches=self._switches,
            trace=trace,
            span=time,
            residency=residency,
        )

    # ------------------------------------------------------------------
    # point changes / deadline accounting
    # ------------------------------------------------------------------
    def _slot_for(self, point) -> int:
        """Accumulation slot for ``point``, created on first use.

        Called at most once per operating-point switch (the hot loop
        caches the result), so the hash/index work happens off the
        per-segment path.  Slots are created in first-accumulation order,
        which is exactly the key insertion order of the engine's energy
        breakdown dict; value-equal points share a slot just as they
        share a dict key.  Points outside the machine table (a ``setup``
        return is not membership-checked, matching the engine) fall back
        to a value-keyed side map.
        """
        try:
            op_index = self.machine.index_of(point)
        except MachineError:
            slot = self._acc_off.get(point, -1)
            if slot < 0:
                slot = len(self._acc_energy)
                self._acc_off[point] = slot
                self._acc_points.append(point)
                self._acc_energy.append(0.0)
            return slot
        slot = self._acc_by_op[op_index]
        if slot < 0:
            slot = len(self._acc_energy)
            self._acc_by_op[op_index] = slot
            self._acc_points.append(point)
            self._acc_energy.append(0.0)
        return slot

    def _set_point(self, new_point) -> None:
        """The engine's ``_set_point`` without switch halts (outside the
        envelope).  The hot loop syncs ``self.time`` and ``self._point``
        before every call, so the residency slice closes at the instant
        the engine's would."""
        old_point = self._point
        if new_point == old_point:
            return
        if new_point not in self.machine:
            raise SimulationError(
                f"policy requested {new_point}, which is not an operating "
                f"point of {self.machine.name}")
        self._switches += 1
        self._point = new_point
        residency = self._residency
        if residency is not None:
            now = self.time
            f_old = old_point.frequency
            residency[f_old] = (residency.get(f_old, 0.0)
                                + (now - self._residency_since))
            self._residency_since = now

    def _record_miss(self, job: Job) -> None:
        miss = DeadlineMiss(task_name=job.task.name,
                            release_time=job.release_time,
                            deadline=job.absolute_deadline,
                            demand=job.demand, executed=job.executed)
        self._misses.append(miss)
        if self.on_miss == "raise":
            raise DeadlineMissError(job.task.name, job.release_time,
                                    job.absolute_deadline, self.time)

    def _final_deadline_check(self) -> None:
        """The engine's final sweep over every job, reduced to the current
        slots: a replaced job that was still incomplete was recorded at
        its replacement (drop) or raised (raise), so only a current job
        can add a miss.  Candidates are visited in job-log order, which
        keeps ``misses`` in the engine's content and order."""
        limit = self.duration + _EPS
        job_slot = self._job
        job_deadline = self._job_deadline
        candidates = sorted(
            (self._log_pos[i], i) for i in range(self._n)
            if job_slot[i] is not None
            and job_slot[i].completion_time is None
            and job_deadline[i] <= limit)
        for _, i in candidates:
            self._record_miss(job_slot[i])


def kernel_simulate(taskset: TaskSet, machine: Machine, policy,
                    **kwargs) -> SimResult:
    """One-shot wrapper: build a :class:`CellKernel` and run it.

    Accepts the :func:`repro.sim.engine.simulate` keywords inside the
    kernel envelope (``demand``, ``duration``, ``energy_model``,
    ``on_miss``, ``record_trace``, ``scheduler``, ``residency``) and
    returns a :class:`~repro.sim.results.SimResult` bit-identical to the
    engine's.  Callers should gate on
    :func:`kernel_fallback_reason` and fall back to the engine outside
    the envelope.
    """
    return CellKernel(taskset, machine, policy, **kwargs).run()
