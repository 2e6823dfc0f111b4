"""The discrete-event simulation engine.

Model (matching the paper's simulator, Sec. 3.1):

* one preemptive processor with a discrete table of operating points;
* task execution reduces to counting cycles — running at relative frequency
  ``f`` executes ``f`` cycles per time unit;
* preemption and task-switch overheads are ignored (the paper argues they
  are identical with and without DVS); operating-point switch halts are
  optional via :class:`~repro.hw.regulator.SwitchingModel`;
* energy: each executed cycle costs V² at the current point, each halted
  cycle costs ``idle_level`` × V².

The engine exposes the :class:`SchedulerView` protocol to DVS policies: the
per-task state the paper's pseudo-code reads (current deadlines, worst-case
remaining cycles ``c_left``, executed cycles, the earliest deadline in the
system, ...).  Policies react to *release* and *completion* events — exactly
the two hook points of Figs. 4, 6 and 8 — by returning a new operating
point.

Dynamic task addition (Sec. 4.3) is supported through scheduled
:class:`Admission` records: at the admission time the task joins the task
set (so DVS decisions immediately account for it), and its first release
happens either immediately or — with ``defer=True`` — once the current
invocations of all existing tasks have completed, the paper's recipe for
avoiding transient misses.

Event-queue architecture
------------------------

The hot path is indexed so per-event cost is logarithmic in the task count
rather than linear (see ``DESIGN.md`` for the full complexity table):

* **Release queue** — a min-heap of ``(next_release, ordinal, state)``
  entries.  Entries are never updated in place; every change to a state's
  ``next_release`` pushes a fresh entry, and stale entries (whose recorded
  time no longer matches the state) are discarded lazily on peek/pop.
* **Ready queue** — a min-heap of ``[priority_key, serial, job]`` entries
  ordered by :meth:`~repro.sim.scheduler.PriorityPolicy.key`.  Removal
  (completion, or a dropped late job) marks the entry invalid in O(1) via a
  side table; invalid entries are skipped lazily when the queue is peeked.
  Priority keys are immutable per job, so no decrease-key is ever needed.
* **Admission queue** — the pre-sorted admission list is consumed through
  an index pointer instead of ``pop(0)``.
* **Deadline index** — ``earliest_deadline()`` resolves from a min-heap of
  ``(deadline, serial, state, job)`` entries pushed at job creation; an
  entry is valid while the state's current job is still the recorded one,
  and stale entries are discarded lazily on peek.  ccRM and laEDF query
  the earliest deadline on every policy hook, so this turns an O(n) scan
  into amortized O(log n).
* **Policy wakeup** — ``wakeup_time()`` is cached and re-queried only after
  a policy hook has run (the only code that can change it).

Simultaneous releases still fire their ``on_release`` hooks in task-set
order (states carry an ``ordinal``), so scheduling decisions are
bit-for-bit identical to the pre-refactor linear engine — a property pinned
by the cross-validation suite against
:class:`~repro.sim.baseline.BaselineSimulator` and
:class:`~repro.sim.ticksim.TickSimulator`.

Horizon convention: a release landing within ``_EPS`` of ``duration`` (in
particular, *exactly at* the horizon when the period divides the duration)
is suppressed — the job would have zero executable window inside the run
and its deadline lies beyond it, so :meth:`Simulator._final_deadline_check`
could never classify it.  :class:`~repro.sim.ticksim.TickSimulator` applies
the identical convention, keeping job counts comparable.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from itertools import count
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Union

from repro.errors import DeadlineMissError, SimulationError
from repro.hw.energy import EnergyModel
from repro.hw.machine import Machine
from repro.hw.operating_point import OperatingPoint
from repro.hw.regulator import SwitchingModel
from repro.model.demand import DemandModel, WorstCaseDemand, demand_from_spec
from repro.model.job import Job
from repro.model.task import Task, TaskSet
from repro.sim.results import DeadlineMiss, EnergyBreakdown, SimResult
from repro.sim.scheduler import PriorityPolicy, make_priority
from repro.sim.timeline import make_trace

_EPS = 1e-9

#: Sentinel distinguishing "wakeup cache empty" from a cached ``None``.
_UNSET = object()

#: What to do when a deadline miss is detected.
MISS_MODES = ("raise", "drop", "continue")


@dataclass(frozen=True, slots=True)
class Admission:
    """A task scheduled to join the system mid-run.

    Parameters
    ----------
    time:
        Simulated time at which the task is admitted (joins the task set).
    task:
        The task to add.
    defer:
        When True, the first release waits until every current invocation
        of the pre-existing tasks has completed (the paper's transient-miss
        avoidance); when False the task releases at the admission time.
    """

    time: float
    task: Task
    defer: bool = True


@dataclass(slots=True)
class _TaskState:
    """Mutable per-task bookkeeping."""

    task: Task
    next_release: float  # math.inf while a deferred admission is pending
    ordinal: int = 0  # insertion order; fixes simultaneous-release ordering
    invocation: int = 0
    job: Optional[Job] = None  # most recently released job
    pending_defer: bool = False
    # Jobs that were in flight when this task was admitted with defer=True;
    # the first release waits until every one of them has completed (the
    # paper's transient-miss avoidance, Sec. 4.3).
    defer_blockers: Optional[List[Job]] = None


class SchedulerView:
    """Read-only protocol that DVS policies use to inspect the system.

    :class:`Simulator` implements this protocol directly.  The methods map
    one-to-one onto the quantities in the paper's pseudo-code:

    * :meth:`worst_case_remaining` — ``c_left_i``;
    * :meth:`current_deadline` — ``D_i`` (deadline of the current
      invocation, which persists until the next release even after the job
      completes);
    * :meth:`earliest_deadline` — "the next deadline in the system";
    * :meth:`executed_in_invocation` — cycles the current invocation has
      executed so far (lets ccRM maintain its ``d_i`` counters);
    * :meth:`c_left_slots` / :meth:`job_slots` — ``c_left_i`` and the
      current job of every task at once, indexed like ``taskset`` (the
      whole-set walks of laEDF and ccRM read these instead of calling
      the per-task accessors).

    An admitted-but-not-yet-released task has no job: ``job_of`` returns
    ``None`` and ``current_deadline`` ``None``.  Policies treat such tasks
    conservatively (they reserve the full worst-case utilization but have
    no current-invocation work).
    """

    time: float
    taskset: TaskSet
    machine: Machine

    def job_of(self, task: Task) -> Optional[Job]:
        raise NotImplementedError

    def current_deadline(self, task: Task) -> Optional[float]:
        raise NotImplementedError

    def earliest_deadline(self) -> Optional[float]:
        raise NotImplementedError

    def worst_case_remaining(self, task: Task) -> float:
        raise NotImplementedError

    def c_left_slots(self) -> Sequence[float]:
        """``c_left`` of every task, indexed like :attr:`taskset`: the
        same values as :meth:`worst_case_remaining` task by task.

        Policies that walk the whole task set per callback (laEDF's
        deferral loop, ccRM's quota walk) read this once per callback
        and index it.  The base class derives it from the scalar
        accessor; a run loop may return its own live list instead, so
        callers must treat the result as read-only and re-read it on the
        next callback.
        """
        return [self.worst_case_remaining(task) for task in self.taskset]

    def job_slots(self) -> Sequence[Optional[Job]]:
        """The current job of every task (``None`` before its first
        release), indexed like :attr:`taskset`: :meth:`job_of` task by
        task, with the same read-only contract as :meth:`c_left_slots`."""
        return [self.job_of(task) for task in self.taskset]

    def executed_in_invocation(self, task: Task) -> float:
        raise NotImplementedError

    def invocation_of(self, task: Task) -> int:
        raise NotImplementedError


class Simulator(SchedulerView):
    """Simulate one task set under one DVS policy.

    Parameters
    ----------
    taskset:
        The periodic tasks to run; all tasks release at time 0 (phase 0).
    machine:
        Operating-point table.
    policy:
        A DVS policy (see :mod:`repro.core`).  Its ``scheduler`` attribute
        ("edf" or "rm") selects the priority policy unless ``scheduler`` is
        given explicitly.
    demand:
        Per-invocation actual computation model; a float, string, or
        :class:`~repro.model.demand.DemandModel` (see
        :func:`~repro.model.demand.demand_from_spec`).  Defaults to the
        worst case.
    duration:
        Simulated time span; defaults to ``2 ×`` the largest period so
        every task runs at least twice.
    energy_model:
        Idle-level and unit scaling; defaults to a perfect halt
        (``idle_level = 0``).
    switching:
        Operating-point switch-overhead model; defaults to free switching
        (the paper's simulation assumption).
    on_miss:
        ``"raise"`` (default) aborts with :class:`DeadlineMissError`;
        ``"drop"`` abandons the late job's remaining work; ``"continue"``
        lets the late job keep executing alongside its successor.  RT-DVS
        policies never miss on schedulable sets, so the default is safe for
        all the paper's experiments.
    record_trace:
        When True, keep a full execution trace in a columnar
        :class:`~repro.sim.timeline.SimTimeline` (costs memory; off by
        default for large sweeps).
    admissions:
        Tasks to add dynamically during the run (see :class:`Admission`).
    enforce_wcet:
        When True (default), per-invocation demands are clamped to the
        task's worst case — the paper's guarantee condition C2.  Setting it
        False lets demands overrun the bound, emulating the prototype's
        cold-start overruns (Sec. 4.3); deadline guarantees then no longer
        hold.
    instrument:
        Optional :class:`~repro.obs.hooks.Instrumentation` observing the
        run (e.g. :class:`~repro.obs.metrics.MetricsCollector`).  Hooks
        are cached as bound-method-or-``None`` at construction, so a
        disabled or partial instrument costs the hot path one pointer
        test per call site; ``None`` (the default) is free.
    residency:
        When True, accumulate the frequency-residency histogram natively
        (``SimResult.residency``, ``{frequency: seconds}``): each switch
        adds ``now - last_change`` to the outgoing point's frequency and
        the run end closes the last slice — the expressions, in the order,
        :class:`~repro.obs.metrics.MetricsCollector` uses, so the two are
        bit-identical without attaching a collector.
    """

    def __init__(self, taskset: TaskSet, machine: Machine, policy,
                 demand: Union[str, float, DemandModel, None] = None,
                 duration: Optional[float] = None,
                 energy_model: Optional[EnergyModel] = None,
                 switching: Optional[SwitchingModel] = None,
                 scheduler: Optional[str] = None,
                 on_miss: str = "raise",
                 record_trace: bool = False,
                 admissions: Sequence[Admission] = (),
                 enforce_wcet: bool = True,
                 instrument=None,
                 residency: bool = False):
        if on_miss not in MISS_MODES:
            raise SimulationError(
                f"on_miss must be one of {MISS_MODES}, got {on_miss!r}")
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
        self.switching = switching or SwitchingModel.free()
        scheduler_name = scheduler or getattr(policy, "scheduler", "edf")
        self.priority: PriorityPolicy = make_priority(scheduler_name, taskset)
        self.on_miss = on_miss
        self.record_trace = record_trace
        self.enforce_wcet = enforce_wcet
        self._admissions: List[Admission] = sorted(admissions,
                                                   key=lambda a: a.time)
        self._admission_pos = 0  # consumed prefix of the sorted admissions

        # -- mutable run state --
        self.time = 0.0
        self._states: Dict[str, _TaskState] = {}
        # Current job per task-set index (``job_slots``): states join in
        # task-set order at run start and on admission, and ``ordinal`` is
        # the state's index here.
        self._job_slots: List[Optional[Job]] = []
        self._jobs: List[Job] = []
        self._misses: List[DeadlineMiss] = []
        self._energy = EnergyBreakdown()
        self._switches = 0
        self._point: OperatingPoint = machine.fastest
        self._trace = make_trace(record_trace)
        # Bound method cached once: the recording hot path pays a single
        # None test per slice, and no dispatch on the backend type.
        self._trace_record = (self._trace.record
                              if self._trace is not None else None)
        self._busy_time = 0.0
        self._idle_time = 0.0
        self._finished = False
        # Native residency: dict-or-None, so a run that did not ask for it
        # pays one None test per operating-point switch.
        self._residency: Optional[Dict[float, float]] = (
            {} if residency else None)
        self._residency_since = 0.0

        # -- instrumentation (see repro.obs) --
        # Each hook is cached as bound-method-or-None so the hot path pays
        # a single `is not None` test per call site when observation is
        # off or partial.
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
            self._obs_event = getattr(instrument, "on_event", None)
        else:
            self._obs_counters = self._obs_release = None
            self._obs_completion = self._obs_miss = self._obs_ctx = None
            self._obs_freq = self._obs_event = None

        # -- event indexes (see "Event-queue architecture" above) --
        self._release_heap: List[tuple] = []
        self._ready_heap: List[list] = []
        self._ready_entries: Dict[int, list] = {}  # id(job) -> heap entry
        self._ready_serial = count()
        self._deferred: List[_TaskState] = []  # states awaiting defer release
        self._wakeup_cache: object = _UNSET
        # Deadline index: (deadline, serial, state, job); valid while
        # ``state.job is job``.  See ``earliest_deadline``.
        self._deadline_heap: List[tuple] = []
        self._deadline_serial = count()

    # ------------------------------------------------------------------
    # SchedulerView protocol
    # ------------------------------------------------------------------
    def job_of(self, task: Task) -> Optional[Job]:
        """The most recently released job of ``task`` (may be complete)."""
        state = self._states.get(task.name)
        return state.job if state else None

    def current_deadline(self, task: Task) -> Optional[float]:
        """Absolute deadline of the task's current invocation.

        The deadline of a completed invocation remains "current" until the
        next release — exactly how the paper's algorithms treat ``D_i``.
        """
        job = self.job_of(task)
        return job.absolute_deadline if job else None

    def earliest_deadline(self) -> Optional[float]:
        """The next deadline in the system (minimum current deadline).

        Amortized O(log n): resolves from the deadline index, discarding
        entries whose state has since released a newer job.  The deadline
        of a completed invocation stays current until the next release, so
        completion does not invalidate an entry.
        """
        heap = self._deadline_heap
        while heap and heap[0][2].job is not heap[0][3]:
            heapq.heappop(heap)
        return heap[0][0] if heap else None

    def worst_case_remaining(self, task: Task) -> float:
        """``c_left_i``: worst-case cycles the current invocation may still
        use (0 once it completes, and 0 before the first release)."""
        job = self.job_of(task)
        if job is None:
            return 0.0
        return job.worst_case_remaining

    def c_left_slots(self) -> List[float]:
        """``c_left`` per task-set index, from the live job slots.

        Inlines :attr:`Job.worst_case_remaining` (complete -> 0, else
        ``max(0, C_i - executed)``) so an n-task walk costs one method
        call and one pass over a list instead of 4n calls through the
        scalar property chain.
        """
        return [0.0 if job is None or job.completion_time is not None
                else max(0.0, job.task.wcet - job.executed)
                for job in self._job_slots]

    def job_slots(self) -> List[Optional[Job]]:
        """The live current-job list, one slot per task-set index."""
        return self._job_slots

    def executed_in_invocation(self, task: Task) -> float:
        """Cycles executed by the current invocation so far."""
        job = self.job_of(task)
        return job.executed if job else 0.0

    def invocation_of(self, task: Task) -> int:
        """Index of the current invocation (-1 before the first release)."""
        job = self.job_of(task)
        return job.index if job else -1

    @property
    def current_point(self) -> OperatingPoint:
        """The operating point currently in effect."""
        return self._point

    @property
    def busy_time(self) -> float:
        """Cumulative time spent executing tasks."""
        return self._busy_time

    @property
    def idle_time(self) -> float:
        """Cumulative time spent idle."""
        return self._idle_time

    # ------------------------------------------------------------------
    # event-queue primitives (overridden by BaselineSimulator)
    # ------------------------------------------------------------------
    def _schedule_release(self, state: _TaskState) -> None:
        """Index ``state``'s next release.  O(log n).

        Called after every change to ``state.next_release``; infinite times
        (deferred admissions) are not indexed — they re-enter the queue when
        the deferral resolves.
        """
        if state.next_release != math.inf:
            heapq.heappush(self._release_heap,
                           (state.next_release, state.ordinal, state))

    def _peek_next_release(self) -> float:
        """Earliest indexed release time (``inf`` when none), discarding
        entries invalidated by a later reschedule.  Amortized O(log n)."""
        heap = self._release_heap
        while heap and heap[0][0] != heap[0][2].next_release:
            heapq.heappop(heap)
        return heap[0][0] if heap else math.inf

    def _ready_add(self, job: Job) -> None:
        """Insert ``job`` into the ready queue.  O(log n).

        The priority key is computed once at insertion: deadlines, periods
        and tie-break indexes are immutable per job, so the key can never
        change while the job is queued (no decrease-key required).
        """
        entry = [self.priority.key(job), next(self._ready_serial), job]
        self._ready_entries[id(job)] = entry
        heapq.heappush(self._ready_heap, entry)

    def _ready_discard(self, job: Job) -> None:
        """Lazy O(1) removal: mark the entry invalid; the heap skips it."""
        entry = self._ready_entries.pop(id(job), None)
        if entry is not None:
            entry[2] = None

    def _pick_job(self) -> Optional[Job]:
        """Highest-priority ready job (amortized O(log n))."""
        heap = self._ready_heap
        while heap and heap[0][2] is None:
            heapq.heappop(heap)
        return heap[0][2] if heap else None

    def _index_deadline(self, state: _TaskState, job: Job) -> None:
        """Index ``job``'s absolute deadline for ``earliest_deadline``.

        O(log n).  The entry self-invalidates when the state moves on to a
        newer job (which always carries a later deadline for that task, so
        heap order is never violated by staleness).
        """
        heapq.heappush(self._deadline_heap,
                       (job.absolute_deadline, next(self._deadline_serial),
                        state, job))

    def _next_admission_time(self) -> float:
        if self._admission_pos < len(self._admissions):
            return self._admissions[self._admission_pos].time
        return math.inf

    def _policy_wakeup_time(self) -> Optional[float]:
        """The policy's next timer wakeup, cached between policy hooks.

        Only policy code can move the wakeup, and policy code only runs
        inside hooks — so the cache is invalidated exactly after each hook
        call (:meth:`_invalidate_wakeup`) instead of re-querying the policy
        on every segment.
        """
        cached = self._wakeup_cache
        if cached is _UNSET:
            getter = getattr(self.policy, "wakeup_time", None)
            cached = getter() if getter is not None else None
            self._wakeup_cache = cached
        return cached

    def _invalidate_wakeup(self) -> None:
        self._wakeup_cache = _UNSET

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def run(self) -> SimResult:
        """Execute the simulation and return its result (single use)."""
        if self._finished:
            raise SimulationError("Simulator instances are single-use; "
                                  "construct a new one to run again")
        self._finished = True
        for task in self.taskset:
            state = _TaskState(task=task, next_release=0.0,
                               ordinal=len(self._states))
            self._states[task.name] = state
            self._job_slots.append(None)
            self._schedule_release(state)
        initial = self.policy.setup(self)
        self._invalidate_wakeup()
        if initial is not None:
            self._point = initial
        obs = self.instrument
        if obs is not None:
            obs.on_run_start(self)
        # Context-switch accounting lives here, on loop locals, because
        # attribute increments per switch are measurable against the
        # instrumentation overhead budget; the tallies flush to the
        # instrument's HotCounters once, after the loop.
        obs_counters = self._obs_counters
        obs_ctx = self._obs_ctx
        track_ctx = obs_counters is not None or obs_ctx is not None
        last_job: Optional[Job] = None
        ctx_switches = 0
        preemptions = 0
        while True:
            self._process_due_events()
            # Releases/wakeups landing exactly at `duration` have already
            # been handled (or suppressed — see the horizon convention in
            # the module docstring) by the call above, so breaking here
            # cannot skip an event inside the simulated span.
            if self.time >= self.duration - _EPS:
                break
            if track_ctx:
                job = self._advance_one_segment()
                if job is not None and job is not last_job:
                    ctx_switches += 1
                    preempted = (last_job is not None and
                                 last_job.completion_time is None)
                    if preempted:
                        preemptions += 1
                    if obs_ctx is not None:
                        obs_ctx(self, last_job, job, preempted)
                    last_job = job
            else:
                self._advance_one_segment()
        if obs_counters is not None:
            obs_counters.context_switches += ctx_switches
            obs_counters.preemptions += preemptions
        self._final_deadline_check()
        residency = self._residency
        if residency is not None:
            f_last = self._point.frequency
            residency[f_last] = (residency.get(f_last, 0.0)
                                 + (self.time - self._residency_since))
        result = SimResult(
            taskset=self.taskset,
            policy_name=getattr(self.policy, "name",
                                type(self.policy).__name__),
            scheduler_name=self.priority.name,
            duration=self.duration,
            energy=self._energy,
            jobs=self._jobs,
            misses=self._misses,
            switches=self._switches,
            trace=self._trace,
            span=self.time,
            residency=residency,
        )
        if obs is not None:
            obs.on_run_end(self, result)
        return result

    # ------------------------------------------------------------------
    # event processing
    # ------------------------------------------------------------------
    def _event_budget(self) -> int:
        """Cap on same-instant event-processing passes.

        Scales with the amount of work that can still legally fire (pending
        admissions can each add a task whose release and policy hooks need
        a pass of their own), so pathological-but-legal workloads — e.g.
        thousands of same-instant admissions with switch halts — terminate,
        while genuine non-progress (a policy that never advances) is still
        caught quickly.
        """
        pending = (len(self._admissions) - self._admission_pos
                   + len(self._states))
        return 1024 + 8 * pending

    def _process_due_events(self) -> None:
        """Handle every admission, release, and policy wakeup that is due.

        Loops to a fixed point because a hook may advance time (switch
        halts) past further events.
        """
        if self._obs_event is not None:
            self._process_due_events_profiled()
            return
        passes = 0
        while True:
            progressed = self._process_due_admissions()
            progressed |= self._process_due_releases()
            progressed |= self._process_due_wakeup()
            if not progressed:
                return
            passes += 1
            if passes > self._event_budget():  # recomputed: admissions grow it
                raise SimulationError(
                    "event processing did not reach a fixed point after "
                    f"{passes} passes at t={self.time:g}")

    def _process_due_events_profiled(self) -> None:
        """:meth:`_process_due_events` with per-event-type wall timing.

        Selected only when the instrument implements ``on_event``
        (self-profiling), so the unprofiled loop never pays for the
        ``perf_counter`` brackets.
        """
        cb = self._obs_event
        passes = 0
        while True:
            t0 = perf_counter()
            admitted = self._process_due_admissions()
            t1 = perf_counter()
            released = self._process_due_releases()
            t2 = perf_counter()
            woke = self._process_due_wakeup()
            t3 = perf_counter()
            if admitted:
                cb("admission", self.time, t1 - t0)
            if released:
                cb("release", self.time, t2 - t1)
            if woke:
                cb("wakeup", self.time, t3 - t2)
            if not (admitted or released or woke):
                return
            passes += 1
            if passes > self._event_budget():
                raise SimulationError(
                    "event processing did not reach a fixed point after "
                    f"{passes} passes at t={self.time:g}")

    def _process_due_admissions(self) -> bool:
        progressed = False
        while (self._admission_pos < len(self._admissions)
               and self._admissions[self._admission_pos].time
               <= self.time + _EPS):
            admission = self._admissions[self._admission_pos]
            self._admission_pos += 1
            self._admit(admission)
            progressed = True
        self._check_deferred_releases()
        return progressed

    def _admit(self, admission: Admission) -> None:
        """Add a task to the live task set (Sec. 4.3)."""
        self.taskset = self.taskset.with_task(admission.task)
        task = self.taskset[-1]  # carries an auto-assigned name if needed
        self.priority.register_task(task)
        state = _TaskState(task=task, next_release=math.inf,
                           ordinal=len(self._states),
                           pending_defer=admission.defer)
        if admission.defer:
            state.defer_blockers = [
                s.job for s in self._states.values()
                if s.job is not None and not s.job.is_complete]
            self._deferred.append(state)
        else:
            state.next_release = max(self.time, admission.time)
            state.pending_defer = False
        self._states[task.name] = state
        self._job_slots.append(None)
        self._schedule_release(state)
        hook = getattr(self.policy, "on_task_added", None)
        if hook is not None:
            new_point = hook(self, task)
            self._invalidate_wakeup()
            if new_point is not None:
                self._set_point(new_point)

    def _check_deferred_releases(self) -> None:
        """Release deferred admissions once the invocations that were in
        flight at their admission time have all completed."""
        if not self._deferred:
            return
        still_blocked: List[_TaskState] = []
        for state in self._deferred:
            if all(job.is_complete for job in state.defer_blockers or ()):
                state.pending_defer = False
                state.defer_blockers = None
                state.next_release = self.time
                self._schedule_release(state)
            else:
                still_blocked.append(state)
        self._deferred = still_blocked

    def _due_release_states(self) -> List[_TaskState]:
        """Pop every state with a due, non-suppressed release from the
        release queue, in task-set order."""
        due: List[_TaskState] = []
        heap = self._release_heap
        limit = self.time + _EPS
        suppress = self.duration - _EPS
        while heap:
            release, _, state = heap[0]
            if release != state.next_release:  # invalidated by reschedule
                heapq.heappop(heap)
                continue
            if release > limit or release >= suppress:
                # Heap order: every remaining entry is due later (or is a
                # suppressed at-the-horizon release; see module docstring).
                break
            heapq.heappop(heap)
            due.append(state)
        due.sort(key=lambda s: s.ordinal)
        return due

    def _process_due_releases(self) -> bool:
        """Release every task whose release time has arrived.

        Jobs for simultaneous releases are created *before* any policy hook
        fires, so policies observe a consistent system state (all current
        deadlines and ``c_left`` values updated), then the per-task
        ``on_release`` hooks fire in task order as in the paper's
        pseudo-code.
        """
        due = self._due_release_states()
        if not due:
            return False
        released: List[Task] = []
        for state in due:
            # Catch-up loop: a long switch halt may jump several periods.
            while state.next_release <= self.time + _EPS \
                    and state.next_release < self.duration - _EPS:
                self._create_job(state)
                released.append(state.task)
        zero_demand: List[Task] = []
        for task in released:
            job = self._states[task.name].job
            assert job is not None
            if job.demand <= _EPS and not job.is_complete:
                job.completion_time = self.time
                zero_demand.append(task)
                cb = self._obs_completion
                if cb is not None:
                    cb(self, job)
        if released:
            # Batch invalidation first: every job above already exists, so
            # per-task hooks observe the other co-released tasks' new
            # invocations; policies caching view-derived state (e.g.
            # laEDF's deferral order) refresh it here.
            invalidate = getattr(self.policy, "on_releases_invalidate",
                                 None)
            if invalidate is not None:
                invalidate(self, released)
        for task in released:
            self._policy_hook(self.policy.on_release, task)
        for task in zero_demand:
            self._policy_hook(self.policy.on_completion, task)
        return True

    def _create_job(self, state: _TaskState) -> None:
        release_time = state.next_release
        old_job = state.job
        if old_job is not None and not old_job.is_complete:
            self._record_miss(old_job)
            if self.on_miss == "drop":
                self._ready_discard(old_job)
        # Demand models that need the release time (e.g. a polling server
        # reading its queue) expose demand_at; plain models expose demand.
        demand_at = getattr(self.demand_model, "demand_at", None)
        if demand_at is not None:
            demand = demand_at(state.task, state.invocation, release_time)
        else:
            demand = self.demand_model.demand(state.task, state.invocation)
        if self.enforce_wcet:
            demand = min(demand, state.task.wcet)
        job = Job(task=state.task, release_time=release_time, demand=demand,
                  index=state.invocation)
        state.job = job
        self._job_slots[state.ordinal] = job
        self._index_deadline(state, job)
        state.invocation += 1
        state.next_release = release_time + state.task.period
        self._schedule_release(state)
        self._jobs.append(job)
        if job.demand > _EPS:
            self._ready_add(job)
        cb = self._obs_release
        if cb is not None:
            cb(self, job)

    def _process_due_wakeup(self) -> bool:
        """Fire the policy's timer hook when its wakeup time has arrived."""
        progressed = False
        for _ in range(64):  # defensive bound on same-instant wakeups
            wakeup = self._policy_wakeup_time()
            if wakeup is None or wakeup > self.time + _EPS:
                return progressed
            new_point = self.policy.on_wakeup(self)
            counters = self._obs_counters
            if counters is not None:
                counters.wakeups += 1
            self._invalidate_wakeup()
            if self._policy_wakeup_time() == wakeup:
                raise SimulationError(
                    f"policy {self.policy!r} did not advance its wakeup time")
            if new_point is not None:
                self._set_point(new_point)
            progressed = True
        raise SimulationError("too many policy wakeups at one instant")

    def _policy_hook(self, hook, task: Task) -> None:
        new_point = hook(self, task)
        self._invalidate_wakeup()
        if new_point is not None:
            self._set_point(new_point)

    def _set_point(self, new_point: OperatingPoint) -> None:
        """Change the operating point, charging any switch halt."""
        if new_point == self._point:
            return
        if new_point not in self.machine:  # O(1) membership via point index
            raise SimulationError(
                f"policy requested {new_point}, which is not an operating "
                f"point of {self.machine.name}")
        old_point = self._point
        self._switches += 1
        halt = self.switching.switch_time(old_point, new_point)
        self._point = new_point
        residency = self._residency
        if residency is not None:
            # Before the halt advances time, like the collector hook.
            now = self.time
            f_old = old_point.frequency
            residency[f_old] = (residency.get(f_old, 0.0)
                                + (now - self._residency_since))
            self._residency_since = now
        cb = self._obs_freq
        if cb is not None:
            # Fired before the halt advances time, so collectors see the
            # transition instant; the halt itself is charged below.
            cb(self, old_point, new_point)
        if halt > 0.0:
            # The processor halts for the transition; the halt is charged
            # like an idle interval at the *target* point ("almost no energy
            # ... the processor does not operate during the switching
            # interval" — at most idle-level energy).
            energy = self.energy_model.idle_energy(new_point, halt)
            self._energy.switch += energy
            self._record_segment(self.time, self.time + halt, None, 0.0,
                                 energy, kind="switch")
            self.time += halt

    # ------------------------------------------------------------------
    # time advancement
    # ------------------------------------------------------------------
    def _advance_one_segment(self) -> Optional[Job]:
        """Run or idle until the next event (release, completion, wakeup,
        admission, or end of simulation).

        Returns the job that executed (None for idle or zero-length
        segments) so the run loop can account context switches.
        """
        horizon = min(self._next_event_time(), self.duration)
        if horizon <= self.time + _EPS:
            # An event became due while a hook advanced time (switch halt);
            # let the main loop process it before executing anything.
            return None
        job = self._pick_job()
        if job is None:
            idle_hook = getattr(self.policy, "on_idle", None)
            if idle_hook is not None:
                new_point = idle_hook(self)
                self._invalidate_wakeup()
                if new_point is not None:
                    self._set_point(new_point)
            self._idle_until(horizon)
            return None
        frequency = self._point.frequency
        completion_time = self.time + job.remaining / frequency
        if completion_time <= horizon + _EPS:
            self._execute(job, cycles=job.remaining,
                          until=completion_time, completes=True)
        else:
            dt = horizon - self.time
            self._execute(job, cycles=dt * frequency, until=horizon,
                          completes=False)
        return job

    def _next_event_time(self) -> float:
        horizon = self._peek_next_release()
        admission = self._next_admission_time()
        if admission < horizon:
            horizon = admission
        wakeup = self._policy_wakeup_time()
        if wakeup is not None and wakeup < horizon:
            horizon = wakeup
        return horizon

    def _execute(self, job: Job, cycles: float, until: float,
                 completes: bool) -> None:
        start = self.time
        if until < start - _EPS:
            raise SimulationError(
                f"time would run backwards: {start} -> {until}")
        energy = self.energy_model.execution_energy(self._point, cycles)
        self._energy.add_execution(self._point, energy)
        job.executed += cycles
        self._busy_time += until - start
        self._record_segment(start, until, job.task.name, cycles, energy)
        self.time = until
        if completes:
            job.executed = job.demand  # absorb floating-point residue
            job.completion_time = self.time
            self._ready_discard(job)
            cb = self._obs_completion
            if cb is not None:
                cb(self, job)
            ev = self._obs_event
            if ev is not None:
                t0 = perf_counter()
                self._policy_hook(self.policy.on_completion, job.task)
                ev("completion", self.time, perf_counter() - t0)
            else:
                self._policy_hook(self.policy.on_completion, job.task)
            self._check_deferred_releases()

    def _idle_until(self, horizon: float) -> None:
        if horizon <= self.time + _EPS:
            self.time = max(self.time, horizon)
            return
        duration = horizon - self.time
        energy = self.energy_model.idle_energy(self._point, duration)
        self._energy.idle += energy
        self._idle_time += duration
        self._record_segment(self.time, horizon, None, 0.0, energy,
                             kind="idle")
        self.time = horizon

    def _record_segment(self, start: float, end: float, task: Optional[str],
                        cycles: float, energy: float,
                        kind: str = "run") -> None:
        record = self._trace_record
        if record is not None:
            record(start, end, task, self._point, cycles, energy, kind)

    # ------------------------------------------------------------------
    # deadline accounting
    # ------------------------------------------------------------------
    def _record_miss(self, job: Job) -> None:
        miss = DeadlineMiss(task_name=job.task.name,
                            release_time=job.release_time,
                            deadline=job.absolute_deadline,
                            demand=job.demand, executed=job.executed)
        self._misses.append(miss)
        cb = self._obs_miss
        if cb is not None:
            cb(self, miss)
        if self.on_miss == "raise":
            raise DeadlineMissError(job.task.name, job.release_time,
                                    job.absolute_deadline, self.time)

    def _final_deadline_check(self) -> None:
        """Flag jobs whose deadline fell inside the run but never finished."""
        for job in self._jobs:
            if job.is_complete:
                continue
            if job.absolute_deadline <= self.duration + _EPS:
                already = any(m.task_name == job.task.name
                              and m.release_time == job.release_time
                              for m in self._misses)
                if not already:
                    self._record_miss(job)


def simulate(taskset: TaskSet, machine: Machine, policy, **kwargs) -> SimResult:
    """Convenience one-shot wrapper: build a :class:`Simulator` and run it.

    All keyword arguments are forwarded to :class:`Simulator`.
    """
    return Simulator(taskset, machine, policy, **kwargs).run()
