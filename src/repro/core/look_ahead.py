"""Look-ahead EDF (Sec. 2.5, Figs. 7 and 8).

The most aggressive RT-DVS algorithm: defer as much work as possible past
the earliest deadline in the system, and run just fast enough to finish the
work that *cannot* be deferred.  If tasks keep finishing early, the deferred
peak never materializes and the processor stays slow.

The paper's pseudo-code (Fig. 8)::

    select_frequency(x):
        use lowest freq. f_i such that x <= f_i / f_m

    upon task_release(T_i):   set c_left_i = C_i ; defer()
    upon task_completion(T_i): set c_left_i = 0  ; defer()
    during task_execution(T_i): decrement c_left_i

    defer():
        set U = C_1/P_1 + ... + C_n/P_n
        set s = 0
        for i = 1 to n, T_i in reverse EDF order (latest deadline first):
            set U = U - C_i/P_i
            set x = max(0, c_left_i - (1 - U)(D_i - D_n))
            set U = U + (c_left_i - x)/(D_i - D_n)
            set s = s + x
        select_frequency(s / (D_n - current_time))

where ``D_n`` is the earliest deadline in the system.  Walking tasks from
the latest deadline backwards, each task may push work into its window
beyond ``D_n`` only up to the capacity ``(1 - U)`` left after reserving the
worst-case utilization of all earlier-deadline tasks (their future
invocations); whatever does not fit (``x``) must execute before ``D_n``.

``c_left_i`` is tracked by the engine (worst-case remaining cycles of the
current invocation); tasks admitted but not yet released have no deadline
and simply keep their full worst-case utilization reserved in ``U``.

Incremental mode
----------------
``defer()`` is inherently O(n), but the from-scratch implementation paid an
additional O(n log n) re-sort per event to derive the reverse-EDF order.
A task's current deadline changes *only at its own release*, so the order
is maintained instead: a sorted key list (``(-deadline, -taskset_index)``
ascending — exactly the from-scratch descending ``(deadline, index)``
sort) repositions one entry per release via ``bisect``.  Three lists are
spliced in lock-step with it — the deadline, the worst-case utilization
and the task-set index of each entry — and the task-set utilization sum
is cached (the task set only changes through the add/remove hooks, which
rebuild everything).  ``defer()`` is then one fused ``(deadline, util,
index)`` walk that reads ``c_left`` by index from the view's
:meth:`~repro.sim.engine.SchedulerView.c_left_slots` (on the per-run
kernel, its live list) instead of calling an accessor per task.  Every
float read in the maintained walk — deadlines, utilizations, ``c_left``,
the starting ``U`` — is the identical bit pattern the from-scratch path
derives, and ``max(0, x)`` / ``min(a, b)`` are written as conditionals
that return the same values, so the selected operating points match
bit-for-bit; the differential tests pin this on full simulations, on the
event engine and on the per-run kernel.

``strict=True`` keeps its original meaning (raise on over-unity deferral
instants) and additionally cross-checks the maintained walk (deadline,
index and utilization of every entry) against a fresh re-sort at every
``defer()``, raising :class:`~repro.errors.PolicyStateError` on
divergence.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional, Tuple

from repro.core.base import DVSPolicy
from repro.errors import PolicyStateError, SchedulabilityError
from repro.hw.operating_point import OperatingPoint
from repro.model.task import Task


class LookAheadEDF(DVSPolicy):
    """Look-ahead RT-DVS for EDF schedulers (``laEDF``).

    Parameters
    ----------
    strict:
        The deferral calculation can demand more than the full-speed
        capacity of the processor (``s / (D_n - now) > 1``) when work is
        injected late — e.g. a non-deferred dynamic admission close to the
        earliest deadline in the system (the transient the paper's Sec. 4.3
        deferral recipe exists to avoid).  Running at ``f_max`` is then the
        best the machine can do, but the deferred work *cannot* finish by
        ``D_n`` and a deadline miss is already unavoidable.  With
        ``strict=True`` such an instant raises
        :class:`~repro.errors.SchedulabilityError` immediately; by default
        the policy clamps to ``f_max`` and counts the instant in
        :attr:`over_unity_events` so callers can detect the overload
        instead of it being silently swallowed.  In incremental mode,
        strict additionally cross-checks the maintained deferral order
        against a fresh re-sort at every deferral (raising
        :class:`~repro.errors.PolicyStateError` on divergence).
    incremental:
        Maintain the reverse-EDF deferral order across events (repositioning
        one entry per release) instead of re-sorting the task set at every
        deferral (default).  ``False`` is the from-scratch reference the
        differential tests compare against.

    Attributes
    ----------
    over_unity_events:
        Number of deferral instants during the last run whose required
        speed exceeded 1 (reset by ``setup``).
    """

    name = "laEDF"
    scheduler = "edf"

    def __init__(self, strict: bool = False, incremental: bool = True):
        self.strict = strict
        self.incremental = incremental
        self.over_unity_events = 0
        # Maintained reverse-EDF order: ascending (-deadline, -index) keys
        # with parallel deadline / utilization / task-set index lists,
        # spliced in lock-step so the deferral walk reads plain list slots.
        # Tasks without a current job are not in the order (they
        # contribute nothing to the walk).
        self._keys: List[Tuple[float, int]] = []
        self._deadlines: List[float] = []
        self._utils: List[float] = []
        self._order: List[int] = []
        # Per task-set index: the entry's key (None until the first
        # release) and the worst-case utilization.
        self._key_at: List[Optional[Tuple[float, int]]] = []
        self._util_at: List[float] = []
        self._index_of: Dict[str, int] = {}
        self._total_util = 0.0

    def setup(self, view) -> Optional[OperatingPoint]:
        if view.taskset.utilization > 1.0 + 1e-9:
            raise SchedulabilityError(
                f"task set utilization {view.taskset.utilization:.3f} > 1; "
                "not EDF-schedulable at any frequency")
        self.over_unity_events = 0
        self._rebuild(view)
        # Nothing is released yet; start at the bottom — the t=0 releases
        # immediately re-run defer().
        return view.machine.slowest

    def on_releases_invalidate(self, view, tasks) -> None:
        # The engine creates every job of a same-instant batch before the
        # first per-task hook fires, so the view is already "ahead" of the
        # maintained order; reposition the whole batch now or the batch's
        # intermediate deferrals read stale deadlines (observable as
        # spurious same-instant operating-point switches vs from-scratch).
        if self.incremental:
            for task in tasks:
                self._reposition(view, task)

    def on_release(self, view, task: Task) -> Optional[OperatingPoint]:
        if self.incremental:
            # No-op when the batch hook already repositioned this task;
            # kept for direct hook-level driving outside the engine.
            self._reposition(view, task)
        return self._defer(view)

    def on_completion(self, view, task: Task) -> Optional[OperatingPoint]:
        # A completion leaves the task's current deadline (and hence the
        # deferral order) untouched; only c_left drops to zero.
        return self._defer(view)

    def on_task_added(self, view, task: Task) -> Optional[OperatingPoint]:
        if self.incremental:
            self._rebuild(view)  # task-set change: rare, rebuild wholesale
        return self._defer(view)

    def on_task_removed(self, view, task: Task) -> Optional[OperatingPoint]:
        if self.incremental:
            self._rebuild(view)  # indexes of later tasks shift
        return self._defer(view)

    # ------------------------------------------------------------------
    # maintained order
    # ------------------------------------------------------------------
    def _rebuild(self, view) -> None:
        """Reconstruct every cached aggregate from the view (used at setup
        and on task-set changes; the per-release path is ``_reposition``)."""
        taskset = view.taskset
        self._index_of = {
            task.name: index for index, task in enumerate(taskset)}
        self._util_at = [task.utilization for task in taskset]
        # Bitwise-identical to TaskSet.utilization (same terms, same order).
        self._total_util = sum(self._util_at)
        self._key_at = [None] * len(taskset)
        keys = []
        for index, task in enumerate(taskset):
            deadline = view.current_deadline(task)
            if deadline is not None:
                key = (-deadline, -index)
                keys.append(key)
                self._key_at[index] = key
        keys.sort()
        self._keys = keys
        # Negating the stored key recovers the exact deadline bit pattern
        # (float negation is sign-flip only) and the task-set index.
        self._deadlines = [-key[0] for key in keys]
        self._order = [-key[1] for key in keys]
        self._utils = [self._util_at[index] for index in self._order]

    def _reposition(self, view, task: Task) -> None:
        """Move ``task`` to the slot of its newly-released deadline.
        O(log n) search + one splice per parallel list."""
        index = self._index_of.get(task.name)
        if index is None:  # task unknown (hook order surprise): resync
            self._rebuild(view)
            return
        job = view.job_slots()[index]
        if job is None:  # defensive: release without a job
            return
        deadline = job.absolute_deadline
        key = (-deadline, -index)
        old = self._key_at[index]
        if old is not None:
            if old == key:
                return
            pos = bisect_left(self._keys, old)
            del self._keys[pos]
            del self._deadlines[pos]
            del self._utils[pos]
            del self._order[pos]
        pos = bisect_left(self._keys, key)
        self._keys.insert(pos, key)
        self._deadlines.insert(pos, deadline)
        self._utils.insert(pos, self._util_at[index])
        self._order.insert(pos, index)
        self._key_at[index] = key

    def _check_order(self, view) -> None:
        """Strict-mode cross-check: the maintained walk must equal a fresh
        reverse-EDF re-sort (deadline, index and utilization)."""
        taskset = view.taskset
        deadlines = [view.current_deadline(task) for task in taskset]
        expected = sorted(((deadline, index)
                           for index, deadline in enumerate(deadlines)
                           if deadline is not None), reverse=True)
        maintained = list(zip(self._deadlines, self._order))
        utils = [taskset[index].utilization for _, index in expected]
        if maintained != expected or self._utils != utils:
            raise PolicyStateError(
                f"laEDF maintained deferral order {maintained!r} diverged "
                f"from re-sorted order {expected!r} at t={view.time:g}")

    # ------------------------------------------------------------------
    def _defer(self, view) -> OperatingPoint:
        """The deferral calculation; returns the selected operating point."""
        now = view.time
        earliest = view.earliest_deadline()
        if earliest is None or earliest <= now + 1e-12:
            return view.machine.slowest
        if self.incremental:
            if self.strict:
                self._check_order(view)
            c_lefts = view.c_left_slots()
            utilization = self._total_util
            must_run = 0.0
            for deadline, util, index in zip(self._deadlines, self._utils,
                                             self._order):
                c_left = c_lefts[index]
                utilization -= util
                span = deadline - earliest
                if span <= 1e-12:
                    deferred = 0.0
                else:
                    # max(0.0, 1.0 - U) * span and min(c_left, capacity),
                    # as conditionals returning the same values.
                    room = 1.0 - utilization
                    capacity = (room if room > 0.0 else 0.0) * span
                    deferred = capacity if capacity < c_left else c_left
                    utilization += deferred / span
                must_run += c_left - deferred
        else:
            utilization = view.taskset.utilization
            must_run = 0.0  # `s`: cycles that must execute before `earliest`
            for task in self._reverse_edf_order_scratch(view):
                deadline = view.current_deadline(task)
                if deadline is None:
                    # Admitted but unreleased: keep its worst case reserved
                    # in `utilization`, no current-invocation work to place.
                    continue
                c_left = view.worst_case_remaining(task)
                utilization -= task.utilization
                span = deadline - earliest
                if span <= 1e-12:
                    # This task's deadline *is* the earliest: nothing can
                    # be deferred.
                    deferred = 0.0
                else:
                    capacity = max(0.0, 1.0 - utilization) * span
                    deferred = min(c_left, capacity)
                    utilization += deferred / span
                must_run += c_left - deferred
        speed = must_run / (earliest - now)
        if speed > 1.0 + 1e-9:
            # Even f_max cannot finish the non-deferrable work by the
            # earliest deadline: an unavoidable (transient) overload, not a
            # quantity to clamp silently.
            self.over_unity_events += 1
            if self.strict:
                raise SchedulabilityError(
                    f"look-ahead deferral at t={now:g} needs speed "
                    f"{speed:.3f} > 1: {must_run:g} cycles cannot finish "
                    f"by the earliest deadline {earliest:g} even at f_max")
        # min(1.0, speed), as a conditional returning the same value.
        return view.machine.lowest_at_least(speed if speed < 1.0 else 1.0)

    @staticmethod
    def _reverse_edf_order_scratch(view):
        """Tasks with current jobs, latest deadline first (ties broken by
        task-set order, reversed, for determinism) — recomputed fresh."""
        indexed = [(view.current_deadline(task), index, task)
                   for index, task in enumerate(view.taskset)]
        with_jobs = [(d, i, t) for d, i, t in indexed if d is not None]
        without_jobs = [t for d, i, t in indexed if d is None]
        ordered = [t for d, i, t in
                   sorted(with_jobs, key=lambda e: (e[0], e[1]), reverse=True)]
        # Unreleased tasks are only skipped in the loop; order is irrelevant,
        # but yield them first so the reservation logic sees them.
        return list(without_jobs) + ordered

    # Backwards-compatible alias (pre-incremental name).
    _reverse_edf_order = _reverse_edf_order_scratch
