"""An independent, tick-quantized reference simulator.

The main engine (:mod:`repro.sim.engine`) is event-driven and exact.  This
module is a deliberately *separate* implementation — fixed time quantum,
straight-line code, no shared scheduling logic — used by the test suite to
cross-validate the engine: on the same workload, the two must agree on
energy to within the quantization error and on every deadline outcome.

A second implementation that shared the engine's internals would inherit
its bugs; this one only reuses the passive data types (tasks, jobs,
machines, demand models) and the DVS policy objects themselves (which are
part of the specification being validated).

Resolution: hooks fire at tick boundaries, so completions and the
frequency changes they trigger are delayed by up to one tick; energy
differs from the exact engine by at most roughly
``ticks_with_changes × dt × max_power``.  Use small ticks.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from repro.errors import SimulationError
from repro.hw.energy import EnergyModel
from repro.hw.machine import Machine
from repro.hw.operating_point import OperatingPoint
from repro.model.demand import DemandModel, WorstCaseDemand, demand_from_spec
from repro.model.job import Job
from repro.model.task import Task, TaskSet
from repro.sim.engine import SchedulerView
from repro.sim.timeline import make_trace

_EPS = 1e-9


class TickResult:
    """Minimal result record of a tick simulation."""

    def __init__(self):
        self.energy = 0.0
        self.jobs: List[Job] = []
        self.missed: List[Job] = []
        self.trace = None  # SimTimeline/ExecutionTrace when recording

    @property
    def executed_cycles(self) -> float:
        return sum(job.executed for job in self.jobs)

    @property
    def met_all_deadlines(self) -> bool:
        return not self.missed


class TickSimulator(SchedulerView):
    """Quantized-time reference simulator.

    Parameters mirror :class:`~repro.sim.engine.Simulator` where they
    overlap; switching overheads and dynamic admissions are not supported
    (cross-validation uses the common feature set).
    """

    def __init__(self, taskset: TaskSet, machine: Machine, policy,
                 demand: Union[str, float, DemandModel, None] = None,
                 duration: float = 100.0, tick: float = 0.01,
                 energy_model: Optional[EnergyModel] = None,
                 scheduler: Optional[str] = None,
                 record_trace: bool = False,
                 instrument=None):
        if tick <= 0:
            raise SimulationError(f"tick must be positive, got {tick}")
        if duration <= 0:
            raise SimulationError(
                f"duration must be positive, got {duration}")
        self.taskset = taskset
        self.machine = machine
        self.policy = policy
        if demand is None:
            self.demand_model: DemandModel = WorstCaseDemand()
        else:
            self.demand_model = demand_from_spec(demand)
        self.duration = duration
        self.tick = tick
        self.energy_model = energy_model or EnergyModel()
        self.scheduler = (scheduler
                          or getattr(policy, "scheduler", "edf")).lower()
        if self.scheduler not in ("edf", "rm"):
            raise SimulationError(f"unknown scheduler {self.scheduler!r}")

        # run state (SchedulerView protocol below reads these)
        self.time = 0.0
        self._jobs: Dict[str, Optional[Job]] = {t.name: None
                                                for t in taskset}
        self._next_release: Dict[str, float] = {t.name: 0.0
                                                for t in taskset}
        self._invocation: Dict[str, int] = {t.name: 0 for t in taskset}
        self._point: OperatingPoint = machine.fastest
        self._result = TickResult()
        self._result.trace = make_trace(record_trace)
        self._trace_record = (self._result.trace.record
                              if self._result.trace is not None else None)

        # -- instrumentation (see repro.obs); same caching scheme as the
        # event-driven engine: bound-method-or-None per hook.  The tick
        # simulator has no admission/wakeup machinery, so ``on_event``
        # self-profiling does not apply here.
        self.instrument = instrument
        if instrument is not None:
            self._obs_counters = getattr(instrument, "counters", None)
            self._obs_release = getattr(instrument, "on_release", None)
            self._obs_completion = getattr(instrument, "on_completion",
                                           None)
            self._obs_miss = getattr(instrument, "on_deadline_miss", None)
            self._obs_ctx = getattr(instrument, "on_context_switch", None)
            self._obs_freq = getattr(instrument, "on_frequency_change",
                                     None)
        else:
            self._obs_counters = self._obs_release = None
            self._obs_completion = self._obs_miss = self._obs_ctx = None
            self._obs_freq = None
        self._obs_track_ctx = (self._obs_counters is not None
                               or self._obs_ctx is not None)
        self._last_exec_job: Optional[Job] = None

    # -- SchedulerView protocol (whole-set reads from the base class) ----
    def job_of(self, task: Task) -> Optional[Job]:
        return self._jobs[task.name]

    def current_deadline(self, task: Task) -> Optional[float]:
        job = self._jobs[task.name]
        return job.absolute_deadline if job else None

    def earliest_deadline(self) -> Optional[float]:
        deadlines = [j.absolute_deadline for j in self._jobs.values() if j]
        return min(deadlines) if deadlines else None

    def worst_case_remaining(self, task: Task) -> float:
        job = self._jobs[task.name]
        return job.worst_case_remaining if job else 0.0

    def executed_in_invocation(self, task: Task) -> float:
        job = self._jobs[task.name]
        return job.executed if job else 0.0

    def invocation_of(self, task: Task) -> int:
        job = self._jobs[task.name]
        return job.index if job else -1

    @property
    def busy_time(self) -> float:  # pragma: no cover - AveragingDVS only
        raise SimulationError("TickSimulator does not track busy_time")

    @property
    def current_point(self) -> OperatingPoint:
        return self._point

    def _apply_point(self, new_point: Optional[OperatingPoint]) -> None:
        """Adopt a policy-returned operating point, firing the obs hook."""
        if new_point is None or new_point == self._point:
            return
        old_point = self._point
        self._point = new_point
        cb = self._obs_freq
        if cb is not None:
            cb(self, old_point, new_point)

    # -- main loop ----------------------------------------------------------
    def run(self) -> TickResult:
        point = self.policy.setup(self)
        if point is not None:
            self._point = point
        obs = self.instrument
        if obs is not None:
            obs.on_run_start(self)
        steps = int(round(self.duration / self.tick))
        for step in range(steps):
            self.time = step * self.tick
            self._release_due()
            job = self._pick()
            record = self._trace_record
            if job is None:
                idle_hook = getattr(self.policy, "on_idle", None)
                if idle_hook is not None:
                    self._apply_point(idle_hook(self))
                energy = self.energy_model.idle_energy(self._point,
                                                       self.tick)
                self._result.energy += energy
                if record is not None:
                    record(self.time, self.time + self.tick, None,
                           self._point, 0.0, energy, "idle")
                continue
            if self._obs_track_ctx and job is not self._last_exec_job:
                self._note_context_switch(job)
            frequency = self._point.frequency
            cycles = min(self.tick * frequency, job.remaining)
            job.executed += cycles
            energy = self.energy_model.execution_energy(self._point, cycles)
            self._result.energy += energy
            run_end = self.time + cycles / frequency
            if record is not None:
                record(self.time, run_end, job.task.name, self._point,
                       cycles, energy, "run")
            leftover = self.tick - cycles / frequency
            if leftover > _EPS:
                energy = self.energy_model.idle_energy(self._point, leftover)
                self._result.energy += energy
                if record is not None:
                    record(run_end, self.time + self.tick, None,
                           self._point, 0.0, energy, "idle")
            if job.remaining <= _EPS:
                job.executed = job.demand
                job.completion_time = self.time + cycles / frequency
                cb = self._obs_completion
                if cb is not None:
                    cb(self, job)
                self._apply_point(self.policy.on_completion(self, job.task))
        self.time = self.duration
        self._final_check()
        if obs is not None:
            obs.on_run_end(self, self._result)
        return self._result

    def _note_context_switch(self, job: Job) -> None:
        """Account a change of the executing job (see :mod:`repro.obs`)."""
        prev = self._last_exec_job
        self._last_exec_job = job
        preempted = prev is not None and prev.completion_time is None
        counters = self._obs_counters
        if counters is not None:
            counters.context_switches += 1
            if preempted:
                counters.preemptions += 1
        cb = self._obs_ctx
        if cb is not None:
            cb(self, prev, job, preempted)

    # -- internals -----------------------------------------------------------
    def _release_due(self) -> None:
        released = []
        for task in self.taskset:
            name = task.name
            while self._next_release[name] <= self.time + _EPS and \
                    self._next_release[name] < self.duration - _EPS:
                old = self._jobs[name]
                if old is not None and not old.is_complete:
                    self._result.missed.append(old)
                    cb = self._obs_miss
                    if cb is not None:
                        cb(self, old)
                release = self._next_release[name]
                demand = min(
                    self.demand_model.demand(task, self._invocation[name]),
                    task.wcet)
                job = Job(task=task, release_time=release, demand=demand,
                          index=self._invocation[name])
                if demand <= _EPS:
                    job.completion_time = release
                self._jobs[name] = job
                self._invocation[name] += 1
                self._next_release[name] = release + task.period
                self._result.jobs.append(job)
                released.append(task)
                cb = self._obs_release
                if cb is not None:
                    cb(self, job)
                if job.is_complete:
                    cb = self._obs_completion
                    if cb is not None:
                        cb(self, job)
        if released:
            # Same batch-invalidation contract as the event-driven engines.
            invalidate = getattr(self.policy, "on_releases_invalidate",
                                 None)
            if invalidate is not None:
                invalidate(self, released)
        for task in released:
            self._apply_point(self.policy.on_release(self, task))
            job = self._jobs[task.name]
            if job is not None and job.is_complete and job.demand <= _EPS:
                self._apply_point(self.policy.on_completion(self, task))

    def _pick(self) -> Optional[Job]:
        ready = [j for j in self._jobs.values()
                 if j is not None and not j.is_complete]
        if not ready:
            return None
        if self.scheduler == "edf":
            return min(ready, key=lambda j: (j.absolute_deadline,
                                             j.task.name))
        return min(ready, key=lambda j: (j.task.period, j.task.name))

    def _final_check(self) -> None:
        for job in self._result.jobs:
            if not job.is_complete and \
                    job.absolute_deadline <= self.duration + _EPS and \
                    job not in self._result.missed:
                self._result.missed.append(job)
                cb = self._obs_miss
                if cb is not None:
                    cb(self, job)
