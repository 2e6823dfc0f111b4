"""Cycle-conserving RM (Sec. 2.4, Figs. 5 and 6).

The idea: the statically-scaled RM schedule meets all deadlines even in the
worst case.  ccRM therefore only needs to make *equal or better progress*
than that worst-case schedule would by the next deadline in the system.
Until the next deadline ``D``, the statically-scaled schedule (frequency
``f_ss``) can execute ``s_j = f_ss · (D − t_alloc)`` cycles; those cycles
are granted to tasks in RM priority order (``allocate_cycles``), giving
each task a quota ``d_i``.  Running fast enough to drain ``Σd_i`` by ``D``
keeps pace.  Early completions zero the completing task's quota, letting
the frequency drop.

The paper's pseudo-code (Fig. 6)::

    assume f_ss is frequency set by the static scaling algorithm

    select_frequency():
        set s_m = max_cycles_until_next_deadline()
        use lowest freq. f_i such that (d_1 + ... + d_n)/s_m <= f_i/f_m

    upon task_release(T_i):
        set c_left_i = C_i
        set s_m = max_cycles_until_next_deadline()
        set s_j = s_m * f_ss / f_m
        allocate_cycles(s_j)
        select_frequency()

    upon task_completion(T_i):
        set c_left_i = 0
        set d_i = 0
        select_frequency()

    during task_execution(T_i):
        decrement c_left_i and d_i

    allocate_cycles(k):
        for i = 1 to n, T_i in order of period:
            if c_left_i < k:  set d_i = c_left_i ; k = k - c_left_i
            else:             set d_i = k        ; k = 0

The "during task_execution" decrements are realized lazily: at each
selection point the quota is reduced by the cycles the task executed since
the last allocation (the engine exposes per-invocation executed cycles).

Incremental mode
----------------
Two aggregates are maintained instead of recomputed:

* **RM priority order** — ``allocate_cycles`` walks tasks by period.  The
  sorted order only changes when the task set changes, so it is cached as
  ``(task-set index, quota)`` pairs and invalidated by the task-set hooks
  (guarded by a task-set identity check, since
  :class:`~repro.model.task.TaskSet` is immutable).
* **Active quota set** — ``select_frequency`` needs ``Σd_i``, but between
  allocations only tasks that were granted a non-zero allotment can
  contribute: every other task's lazily-decremented quota is *exactly*
  ``0.0`` (``max(0.0, …)`` of a non-positive value).  Each allocation
  records the granted tasks in task-set order; the selection sums just
  those.  Skipping exact zeros from a left-to-right sum of non-negative
  floats leaves every partial sum bitwise unchanged (``x + 0.0 == x`` for
  ``x >= 0.0``), so the reduced sum is bit-identical to the full sweep —
  pinned by the differential tests.

Both walks read the view's index-addressed
:meth:`~repro.sim.engine.SchedulerView.c_left_slots` and
:meth:`~repro.sim.engine.SchedulerView.job_slots` once per callback (on
the per-run kernel, its live lists) rather than resolving each task's job
through the per-task accessors.  The quota arithmetic keeps the
reference's expressions in the same order; ``max(0.0, x)`` and
``min(a, b)`` are written as conditionals that return the same values.

``strict=True`` cross-checks the reduced sum against the full task-set
sweep of the same quota arithmetic at every selection and raises
:class:`~repro.errors.PolicyStateError` on any difference (the equality
is exact, so the tolerance is zero).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.base import DVSPolicy
from repro.core.static_scaling import StaticRM
from repro.errors import PolicyStateError
from repro.hw.operating_point import OperatingPoint
from repro.model.task import Task


@dataclass
class _Quota:
    """One task's cycle allotment ``d_i`` plus the execution snapshot that
    lets us decrement it lazily."""

    allotted: float = 0.0
    executed_at_alloc: float = 0.0
    invocation: int = -1
    completed: bool = False


class CycleConservingRM(DVSPolicy):
    """Cycle-conserving RT-DVS for RM schedulers (``ccRM``).

    Parameters
    ----------
    exact_rm_test:
        Which RM test the embedded static-scaling step uses (see
        :class:`~repro.core.static_scaling.StaticRM`).
    incremental:
        Cache the RM priority order across allocations and sum only the
        actively-allotted quotas at selection (default).  ``False`` re-sorts
        and sweeps the full task set every time — the from-scratch
        reference the differential tests compare against.
    strict:
        Cross-check the active-set quota sum against the full task-set
        sweep at every selection; raise
        :class:`~repro.errors.PolicyStateError` on any difference.
    """

    name = "ccRM"
    scheduler = "rm"

    def __init__(self, exact_rm_test: bool = True, incremental: bool = True,
                 strict: bool = False):
        self._static = StaticRM(exact=exact_rm_test)
        self._static_frequency = 1.0
        self.incremental = incremental
        self.strict = strict
        self._quota: Dict[str, _Quota] = {}
        self._rm_order_for: object = None  # taskset the cache was built for
        # (task-set index, quota) pairs in RM priority order.
        self._rm_pairs: Tuple[Tuple[int, _Quota], ...] = ()
        # (task-set index, quota) pairs granted a non-zero allotment, in
        # task-set order.
        self._active: List[Tuple[int, _Quota]] = []

    def setup(self, view) -> Optional[OperatingPoint]:
        static_point = self._static.select_point(view.taskset, view.machine)
        self._static_frequency = static_point.frequency
        self._quota = {task.name: _Quota() for task in view.taskset}
        self._rm_order_for = None
        self._active = []
        # No jobs exist yet; the t=0 releases will allocate immediately.
        return view.machine.slowest

    def on_release(self, view, task: Task) -> Optional[OperatingPoint]:
        self._allocate(view)
        return self._select(view)

    def on_completion(self, view, task: Task) -> Optional[OperatingPoint]:
        quota = self._quota.get(task.name)
        if quota is None:
            quota = self._quota[task.name] = _Quota()
        quota.completed = True
        return self._select(view)

    def on_task_added(self, view, task: Task) -> Optional[OperatingPoint]:
        # Re-derive the static frequency for the enlarged set, then re-pace.
        static_point = self._static.select_point(view.taskset, view.machine)
        self._static_frequency = static_point.frequency
        self._quota.setdefault(task.name, _Quota())
        self._allocate(view)
        return self._select(view)

    def on_task_removed(self, view, task: Task) -> Optional[OperatingPoint]:
        static_point = self._static.select_point(view.taskset, view.machine)
        self._static_frequency = static_point.frequency
        self._quota.pop(task.name, None)
        self._allocate(view)
        return self._select(view)

    # ------------------------------------------------------------------
    def _rm_sorted_pairs(self, view) -> Tuple[Tuple[int, _Quota], ...]:
        """``(task-set index, quota)`` pairs by period (RM priority).  The
        task set is immutable, so the pairs are cached until the set
        itself is replaced."""
        if self._rm_order_for is not view.taskset:
            tasks = list(view.taskset)
            order = sorted(range(len(tasks)),
                           key=lambda index: tasks[index].period)
            self._rm_pairs = tuple(
                (index, self._quota.setdefault(tasks[index].name, _Quota()))
                for index in order)
            self._rm_order_for = view.taskset
        return self._rm_pairs

    def _allocate(self, view) -> None:
        """``allocate_cycles``: split the statically-scaled capacity until
        the next deadline among tasks in RM priority order."""
        deadline = view.earliest_deadline()
        if deadline is None:
            return
        budget = max(0.0, (deadline - view.time) * self._static_frequency)
        if not self.incremental:
            # From-scratch reference: re-sort every allocation and refresh
            # every task's execution snapshot from its current job.
            for task in sorted(view.taskset, key=lambda t: t.period):
                quota = self._quota.setdefault(task.name, _Quota())
                job = view.job_of(task)
                if job is None:
                    c_left = 0.0
                    quota.invocation = -1
                    quota.executed_at_alloc = 0.0
                    quota.completed = False
                else:
                    c_left = job.worst_case_remaining
                    quota.invocation = job.index
                    quota.executed_at_alloc = job.executed
                    quota.completed = job.is_complete
                grant = min(c_left, budget)
                quota.allotted = grant
                budget -= grant
            return
        # Incremental path: tasks that would be granted exactly 0.0 cycles
        # keep their *stale* snapshot — provably harmless, because a zero
        # allotment yields a zero current quota under any snapshot
        # (executed cycles never shrink within an invocation and invocation
        # indexes never repeat).  Only genuinely-granted tasks pay the
        # snapshot refresh.
        c_lefts = view.c_left_slots()
        jobs = view.job_slots()
        granted: List[Tuple[int, _Quota]] = []
        for index, quota in self._rm_sorted_pairs(view):
            c_left = c_lefts[index]
            if budget <= 0.0 or c_left <= 0.0:
                # Capacity exhausted, or no outstanding worst-case work (no
                # job, a completed one, or c_left spent): the allotment
                # ``min(c_left, budget)`` is exactly 0.0.  In steady state
                # this covers nearly every non-running task.
                quota.allotted = 0.0
                continue
            job = jobs[index]
            quota.invocation = job.index
            quota.executed_at_alloc = job.executed
            quota.completed = False
            grant = budget if budget < c_left else c_left
            quota.allotted = grant
            budget -= grant
            granted.append((index, quota))
        # Tasks granted nothing contribute an exact 0.0 to every later
        # quota sum (see module docstring); record the rest, in task-set
        # order so the reduced sum matches the full sweep.  The granted
        # list is tiny (bounded by the budget), so re-ordering it beats a
        # full task-set pass.
        granted.sort(key=itemgetter(0))
        self._active = granted

    @staticmethod
    def _quota_sum(pairs: Iterable[Tuple[int, Optional[_Quota]]],
                   jobs: Sequence) -> float:
        """``Σd_i`` over ``pairs``, left to right: each quota is its
        allotment minus the cycles executed since the allocation, zero
        once the invocation completes or is replaced — the
        :meth:`_current_quota` arithmetic, with its exact-zero terms
        skipped (see the module docstring)."""
        total = 0.0
        for index, quota in pairs:
            if quota is None or quota.completed:
                continue
            job = jobs[index]
            if (job is None or job.index != quota.invocation
                    or job.completion_time is not None):
                continue
            left = quota.allotted - (job.executed - quota.executed_at_alloc)
            if left > 0.0:
                total += left
        return total

    def _current_quota(self, view, task: Task) -> float:
        """``d_i`` right now: the allotment minus cycles executed since the
        allocation; zero once the invocation completes (the from-scratch
        reference's per-task read)."""
        quota = self._quota.get(task.name)
        if quota is None or quota.completed:
            return 0.0
        job = view.job_of(task)
        if job is None or job.index != quota.invocation or job.is_complete:
            return 0.0
        executed_since = job.executed - quota.executed_at_alloc
        return max(0.0, quota.allotted - executed_since)

    def _select(self, view) -> OperatingPoint:
        """``select_frequency``: pace the outstanding quotas over the time
        left until the next deadline."""
        deadline = view.earliest_deadline()
        if deadline is None:
            return view.machine.slowest
        s_m = deadline - view.time  # cycles at max frequency until deadline
        if s_m <= 1e-12:
            return view.machine.fastest
        if self.incremental:
            jobs = view.job_slots()
            total = self._quota_sum(self._active, jobs)
            if self.strict:
                quota = self._quota
                exact = self._quota_sum(
                    ((index, quota.get(task.name))
                     for index, task in enumerate(view.taskset)), jobs)
                if total != exact:
                    raise PolicyStateError(
                        f"ccRM active quota sum {total!r} != full-sweep "
                        f"sum {exact!r} at t={view.time:g}")
        else:
            total = sum(
                self._current_quota(view, task) for task in view.taskset)
        speed = total / s_m
        # min(1.0, speed), as a conditional returning the same value.
        return view.machine.lowest_at_least(speed if speed < 1.0 else 1.0)

    @property
    def static_frequency(self) -> float:
        """The statically-scaled RM frequency ``f_ss`` used for pacing."""
        return self._static_frequency
