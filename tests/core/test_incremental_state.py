"""Differential and property tests for the incremental policy state.

The contract under test (the per-cell fast path's first layer): for every
policy, ``incremental=True`` — running aggregates updated in O(1)/O(log n)
per event — must produce **bit-identical** simulations to the from-scratch
reference (``incremental=False``), and ``strict=True`` must catch a
corrupted aggregate instead of silently selecting from bad state.

Hypothesis drives long random event sequences two ways:

* whole-simulation differentials through the real engine (releases,
  completions, idle transitions, dynamic admissions via
  :class:`~repro.sim.engine.Admission`) and through the per-run kernel
  (:func:`~repro.sim.batch_kernels.kernel_simulate`, inside its envelope:
  no admissions), which must also match the engine;
* hook-level sequences against a stub view (releases, completions, task
  adds *and removes* — the engine has no removal path, so the removal
  aggregates are exercised directly).

The kernel's live whole-set reads (``c_left_slots``, ``job_slots``, the
cached earliest deadline) are checked against the per-task accessors at
every policy callback.
"""

import math
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core import make_policy
from repro.core.cycle_conserving import CycleConservingEDF
from repro.core.cycle_conserving_rm import CycleConservingRM, _Quota
from repro.core.look_ahead import LookAheadEDF
from repro.errors import PolicyStateError, SchedulabilityError
from repro.hw.machine import machine0, machine2
from repro.model.generator import TaskSetGenerator
from repro.model.task import Task, TaskSet, example_taskset
from repro.sim.batch_kernels import kernel_fallback_reason, kernel_simulate
from repro.sim.engine import Admission, simulate

POLICY_FACTORIES = {
    "ccEDF": lambda **kw: CycleConservingEDF(**kw),
    "ccRM": lambda **kw: CycleConservingRM(**kw),
    "laEDF": lambda **kw: LookAheadEDF(**kw),
}

_SLOW = settings(max_examples=20, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


def _fingerprint(result):
    """Everything a sweep consumes, bit-for-bit."""
    return (result.total_energy, result.executed_cycles,
            result.switches, len(result.misses),
            tuple(sorted((j.task.name, j.index, j.completion_time)
                         for j in result.jobs if j.is_complete)))


class TestWholeSimulationDifferential:
    """incremental == from-scratch == strict on full engine runs."""

    @pytest.mark.parametrize("policy_name", sorted(POLICY_FACTORIES))
    @_SLOW
    @given(seed=st.integers(0, 5000), n=st.integers(2, 8),
           u=st.floats(0.15, 0.95), fraction=st.floats(0.3, 1.0),
           fine_machine=st.booleans(), admit=st.booleans())
    def test_bit_identical_simresults(self, policy_name, seed, n, u,
                                      fraction, fine_machine, admit):
        taskset = TaskSetGenerator(n_tasks=n, utilization=u,
                                   seed=seed).generate()
        machine = machine2() if fine_machine else machine0()
        admissions = []
        if admit:
            admissions = [Admission(time=40.0,
                                    task=Task(0.5, 20.0, name="late"),
                                    defer=True)]
        factory = POLICY_FACTORIES[policy_name]
        kwargs = dict(demand=fraction, duration=150.0, on_miss="drop",
                      admissions=admissions)
        try:
            fast = simulate(taskset, machine,
                            factory(incremental=True), **kwargs)
        except SchedulabilityError:
            # Both modes must reject identically; that is the whole check.
            with pytest.raises(SchedulabilityError):
                simulate(taskset, machine,
                         factory(incremental=False), **kwargs)
            return
        slow = simulate(taskset, machine,
                        factory(incremental=False), **kwargs)
        assert _fingerprint(fast) == _fingerprint(slow)
        try:
            checked = simulate(taskset, machine,
                               factory(incremental=True, strict=True),
                               **kwargs)
        except SchedulabilityError:
            # laEDF strict keeps its original meaning too: raise on
            # over-unity deferral instants.  PolicyStateError — the state
            # cross-check — must still propagate and fail the test.
            return
        assert _fingerprint(fast) == _fingerprint(checked)

    @pytest.mark.parametrize("policy_name", sorted(POLICY_FACTORIES))
    @_SLOW
    @given(seed=st.integers(0, 5000), n=st.integers(2, 8),
           u=st.floats(0.15, 0.95), fraction=st.floats(0.3, 1.0),
           fine_machine=st.booleans())
    def test_kernel_bit_identical_simresults(self, policy_name, seed, n, u,
                                             fraction, fine_machine):
        # The same differential on the per-run kernel, which feeds the
        # policies its live index-addressed state: incremental ==
        # from-scratch == strict there, and all equal to the engine.
        taskset = TaskSetGenerator(n_tasks=n, utilization=u,
                                   seed=seed).generate()
        machine = machine2() if fine_machine else machine0()
        factory = POLICY_FACTORIES[policy_name]
        kwargs = dict(demand=fraction, duration=150.0, on_miss="drop")
        assert kernel_fallback_reason(factory(), **kwargs) is None
        try:
            engine = simulate(taskset, machine, factory(incremental=True),
                              **kwargs)
        except SchedulabilityError:
            with pytest.raises(SchedulabilityError):
                kernel_simulate(taskset, machine,
                                factory(incremental=True), **kwargs)
            return
        for mode in (dict(incremental=True), dict(incremental=False)):
            result = kernel_simulate(taskset, machine, factory(**mode),
                                     **kwargs)
            assert _fingerprint(result) == _fingerprint(engine)
            assert result.misses == engine.misses
        try:
            checked = kernel_simulate(
                taskset, machine, factory(incremental=True, strict=True),
                **kwargs)
        except SchedulabilityError:
            return  # laEDF strict: over-unity instant (see above)
        assert _fingerprint(checked) == _fingerprint(engine)


def _checking(policy_cls):
    """``policy_cls`` with every hook first asserting that the view's
    whole-set reads equal the per-task accessors: ``c_left_slots`` vs
    ``worst_case_remaining``, ``job_slots`` vs ``job_of`` (identity) and
    ``earliest_deadline`` vs a fresh ``min`` over the current
    deadlines."""

    class Checking(policy_cls):
        def setup(self, view):
            self.checks = 0
            return super().setup(view)

        def _check(self, view):
            tasks = list(view.taskset)
            assert list(view.c_left_slots()) == [
                view.worst_case_remaining(task) for task in tasks]
            slots = list(view.job_slots())
            assert len(slots) == len(tasks)
            assert all(slot is view.job_of(task)
                       for slot, task in zip(slots, tasks))
            deadlines = [view.current_deadline(task) for task in tasks]
            present = [d for d in deadlines if d is not None]
            assert view.earliest_deadline() == (min(present) if present
                                                else None)
            self.checks += 1

        def on_releases_invalidate(self, view, tasks):
            self._check(view)
            return super().on_releases_invalidate(view, tasks)

        def on_release(self, view, task):
            self._check(view)
            return super().on_release(view, task)

        def on_completion(self, view, task):
            self._check(view)
            return super().on_completion(view, task)

        def on_idle(self, view):
            self._check(view)
            return super().on_idle(view)

    return Checking


class TestKernelLiveState:
    """The per-run kernel's live arrays against its scalar accessors, and
    its slot-only final deadline check against the engine's full sweep."""

    @pytest.mark.parametrize("engine", ["kernel", "engine"])
    @pytest.mark.parametrize("policy_name", sorted(POLICY_FACTORIES))
    @pytest.mark.parametrize("seed", [3, 17])
    def test_whole_set_reads_match_accessors(self, engine, policy_name,
                                             seed):
        taskset = TaskSetGenerator(n_tasks=6, utilization=0.8,
                                   seed=seed).generate()
        policy = _checking(type(POLICY_FACTORIES[policy_name]()))()
        run = kernel_simulate if engine == "kernel" else simulate
        run(taskset, machine0(), policy, demand=0.6, duration=300.0,
            on_miss="drop")
        assert policy.checks > 100

    def test_drop_mode_final_misses_match_engine(self):
        # Overloaded set: every task still has an incomplete job whose
        # deadline is the horizon, released in the reverse of task-set
        # order (C at 54, B at 55, A at 56), so the final check must
        # follow the job log, not the task index.
        taskset = TaskSet([Task(3.0, 4.0, name="A"),
                           Task(3.0, 5.0, name="B"),
                           Task(2.0, 6.0, name="C")])
        kwargs = dict(duration=60.0, on_miss="drop")
        kernel = kernel_simulate(taskset, machine0(), make_policy("EDF"),
                                 **kwargs)
        engine = simulate(taskset, machine0(), make_policy("EDF"),
                          **kwargs)
        at_horizon = [m for m in kernel.misses if m.deadline == 60.0]
        assert len(at_horizon) >= 2
        assert kernel.misses == engine.misses


class _StubView:
    """The minimal SchedulerView surface the ccEDF hooks touch."""

    def __init__(self, taskset, machine):
        self.taskset = taskset
        self.machine = machine
        self.time = 0.0
        self.jobs = {}

    def job_of(self, task):
        return self.jobs.get(task.name)


class TestHookLevelSequences:
    """Random release/completion/add/remove sequences straight into the
    hooks: the running ``ΣU_i`` must track the exact table sum."""

    POOL = tuple(Task(0.4 + 0.07 * i, 8.0 + 1.5 * i, name=f"P{i}")
                 for i in range(8))

    @_SLOW
    @given(ops=st.lists(
        st.tuples(st.sampled_from(["release", "complete", "add", "remove"]),
                  st.integers(0, 7), st.floats(0.0, 1.0)),
        min_size=1, max_size=400))
    def test_ccedf_aggregate_tracks_exact_sum(self, ops):
        initial = TaskSet(list(self.POOL[:4]))
        view = _StubView(initial, machine0())
        policies = [CycleConservingEDF(incremental=True),
                    CycleConservingEDF(incremental=False),
                    CycleConservingEDF(incremental=True, strict=True)]
        for policy in policies:
            policy.setup(view)
        present = {task.name for task in initial}
        for kind, index, fraction in ops:
            task = self.POOL[index]
            view.time += 0.25
            if kind == "add" and task.name not in present:
                present.add(task.name)
                points = [p.on_task_added(view, task) for p in policies]
            elif kind == "remove" and task.name in present and \
                    len(present) > 1:
                present.remove(task.name)
                view.jobs.pop(task.name, None)
                points = [p.on_task_removed(view, task) for p in policies]
            elif kind == "release" and task.name in present:
                view.jobs[task.name] = SimpleNamespace(
                    executed=0.0, index=0, is_complete=False)
                points = [p.on_release(view, task) for p in policies]
            elif kind == "complete" and task.name in present:
                view.jobs[task.name] = SimpleNamespace(
                    executed=fraction * task.wcet, index=0,
                    is_complete=True)
                points = [p.on_completion(view, task) for p in policies]
            else:
                continue
            # All three modes pick the same operating point, every event.
            assert points[0] is points[1] is points[2]
            incremental = policies[0]
            exact = sum(incremental._utilization.values())
            assert incremental._total == pytest.approx(exact, abs=1e-9)

    def test_ccedf_resync_restores_exact_sum(self):
        view = _StubView(example_taskset(), machine0())
        policy = CycleConservingEDF(incremental=True, resync_interval=4)
        policy.setup(view)
        task = view.taskset[0]
        for k in range(8):
            view.jobs[task.name] = SimpleNamespace(
                executed=0.3 * task.wcet, index=k, is_complete=True)
            policy.on_completion(view, task)
        assert policy._total == sum(policy._utilization.values())

    def test_ccedf_rejects_bad_resync_interval(self):
        with pytest.raises(ValueError):
            CycleConservingEDF(resync_interval=0)

    def test_ccrm_remove_drops_quota_and_rescales(self):
        taskset = TaskSet([Task(1.0, 8.0, name="A"),
                           Task(1.0, 16.0, name="B")])
        view = _StubView(taskset, machine0())
        view.earliest_deadline = lambda: None
        policy = CycleConservingRM(incremental=True)
        policy.setup(view)
        before = policy.static_frequency
        reduced = TaskSet([Task(1.0, 8.0, name="A")])
        view.taskset = reduced
        point = policy.on_task_removed(view, taskset[1])
        assert "B" not in policy._quota
        assert policy.static_frequency <= before + 1e-12
        assert point is machine0().slowest or point.frequency > 0

    def test_laedf_remove_rebuilds_utilization(self):
        taskset = TaskSet([Task(1.0, 8.0, name="A"),
                           Task(1.0, 16.0, name="B")])
        view = _StubView(taskset, machine0())
        view.earliest_deadline = lambda: None
        view.current_deadline = lambda task: None
        view.worst_case_remaining = lambda task: 0.0
        policy = LookAheadEDF(incremental=True)
        policy.setup(view)
        reduced = TaskSet([Task(1.0, 8.0, name="A")])
        view.taskset = reduced
        policy.on_task_removed(view, taskset[1])
        assert policy._total_util == reduced.utilization
        assert set(policy._index_of) == {"A"}


# ---------------------------------------------------------------------------
# strict mode catches corruption
# ---------------------------------------------------------------------------

class _CorruptedCcEDF(CycleConservingEDF):
    """Injects a silent error into the running aggregate mid-run."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self._events = 0

    def on_release(self, view, task):
        self._events += 1
        if self._events == 5:
            self._total += 0.125  # far beyond drift tolerance
        return super().on_release(view, task)


class _CorruptedCcRM(CycleConservingRM):
    """Swaps one active-set entry for a quota with a wrong allotment."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self._corrupted = False

    def _allocate(self, view):
        super()._allocate(view)
        if not self._corrupted and self._active:
            task, quota = self._active[0]
            fake = _Quota(allotted=quota.allotted + 1.0,
                          executed_at_alloc=quota.executed_at_alloc,
                          invocation=quota.invocation, completed=False)
            self._active[0] = (task, fake)
            self._corrupted = True


class _CorruptedLaEDF(LookAheadEDF):
    """Swaps two entries of the maintained reverse-EDF order."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self._corrupted = False

    def _defer(self, view):
        if not self._corrupted and len(self._keys) >= 2 \
                and self._keys[0] != self._keys[1]:
            self._keys[0], self._keys[1] = self._keys[1], self._keys[0]
            self._order[0], self._order[1] = self._order[1], self._order[0]
            self._corrupted = True
        return super()._defer(view)


class TestStrictCatchesCorruption:
    def test_ccedf_strict_raises_on_corrupted_sum(self):
        with pytest.raises(PolicyStateError, match="diverged"):
            simulate(example_taskset(), machine0(),
                     _CorruptedCcEDF(incremental=True, strict=True),
                     duration=60.0)

    def test_ccedf_corruption_undetected_without_strict(self):
        # The same corruption sails through silently — what strict is for.
        result = simulate(example_taskset(), machine0(),
                          _CorruptedCcEDF(incremental=True),
                          duration=60.0, on_miss="drop")
        reference = simulate(example_taskset(), machine0(),
                             CycleConservingEDF(incremental=True),
                             duration=60.0, on_miss="drop")
        assert result.total_energy != reference.total_energy

    def test_ccrm_strict_raises_on_corrupted_active_set(self):
        with pytest.raises(PolicyStateError, match="active quota sum"):
            simulate(example_taskset(), machine0(),
                     _CorruptedCcRM(incremental=True, strict=True),
                     duration=60.0)

    def test_laedf_strict_raises_on_corrupted_order(self):
        with pytest.raises(PolicyStateError, match="deferral order"):
            simulate(example_taskset(), machine0(),
                     _CorruptedLaEDF(incremental=True, strict=True),
                     duration=60.0)

    @pytest.mark.parametrize("policy_name", sorted(POLICY_FACTORIES))
    def test_strict_is_quiet_on_healthy_state(self, policy_name):
        factory = POLICY_FACTORIES[policy_name]
        result = simulate(example_taskset(), machine0(),
                          factory(incremental=True, strict=True),
                          demand=0.6, duration=280.0)
        assert result.met_all_deadlines
