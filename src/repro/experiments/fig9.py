"""Fig. 9 — energy vs worst-case utilization for 5, 10 and 15 tasks.

Machine 0, perfect idle (idle level 0), tasks always consume their
worst-case cycles.  The paper's findings, which the shape checks encode:

* RT-DVS saves a lot of energy at mid-range utilizations;
* laEDF tracks the theoretical lower bound closely;
* the *number of tasks* has very little effect — neither the relative nor
  absolute positions of the curves shift significantly.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.analysis.executor import DEFAULT_ENGINE
from repro.analysis.sweep import SweepResult, utilization_sweep
from repro.catalog import panel_sweep_config
from repro.experiments.common import ExperimentResult

TASK_COUNTS: Tuple[int, ...] = (5, 10, 15)

#: Policies whose residency tables the report emits (all paper policies
#: report residency; emitting all 6 per panel would flood the report).
RESIDENCY_TABLE_POLICIES: Tuple[str, ...] = ("ccEDF", "laEDF")


def sweep_for(n_tasks: int, quick: bool, workers=1, executor=None,
              cache_dir=None, progress=False,
              steady_fast_path=False,
              engine=DEFAULT_ENGINE) -> SweepResult:
    """The Fig. 9 sweep for one task count (catalog panel
    ``fig9/<n>-tasks``)."""
    return utilization_sweep(panel_sweep_config(
        "fig9", f"{n_tasks}-tasks", quick=quick, workers=workers,
        cache_dir=cache_dir, steady_fast_path=steady_fast_path,
        engine=engine), executor=executor, progress=progress)


def run(quick: bool = True, workers=1, executor=None, cache_dir=None,
        progress=False, steady_fast_path=False,
        engine=DEFAULT_ENGINE) -> ExperimentResult:
    """Reproduce Fig. 9 (three panels, one per task count)."""
    result = ExperimentResult(
        experiment_id="fig9",
        title="Energy vs utilization for 5, 10, 15 tasks",
        description=__doc__ or "",
        quick=quick,
    )
    sweeps: Dict[int, SweepResult] = {}
    for n_tasks in TASK_COUNTS:
        sweep = sweep_for(n_tasks, quick, workers, executor, cache_dir,
                          progress, steady_fast_path, engine)
        sweeps[n_tasks] = sweep
        result.record_sweep(sweep)
        # The paper's Fig. 9 y-axis is *absolute* energy; include both
        # views (the shape checks run on the normalized one).
        raw = sweep.raw
        raw.title = f"Fig. 9 panel: {n_tasks} tasks (energy, raw)"
        result.tables.append(raw)
        table = sweep.normalized
        table.title = f"Fig. 9 panel: {n_tasks} tasks (normalized energy)"
        result.tables.append(table)
        if n_tasks == 10:
            for policy in RESIDENCY_TABLE_POLICIES:
                res = sweep.residency[policy]
                res.title = (f"Fig. 9 residency: {policy}, "
                             f"{n_tasks} tasks")
                result.residency_tables.append(res)

    mid = 0.5
    for n_tasks, sweep in sweeps.items():
        table = sweep.normalized
        la = table.get("laEDF").y_at(mid)
        cc = table.get("ccEDF").y_at(mid)
        st = table.get("staticEDF").y_at(mid)
        rm = table.get("staticRM").y_at(mid)
        bound = table.get("bound").y_at(mid)
        result.check(
            f"{n_tasks} tasks: RT-DVS saves energy at U=0.5 "
            f"(laEDF={la:.2f} < 1)", la < 0.9)
        result.check(
            f"{n_tasks} tasks: laEDF within 15% of the bound at U=0.5 "
            f"({la:.2f} vs {bound:.2f})", la <= bound * 1.15 + 0.02)
        result.check(
            f"{n_tasks} tasks: laEDF <= ccEDF <= staticEDF at U=0.5",
            la <= cc + 1e-6 and cc <= st + 1e-6)
        result.check(
            f"{n_tasks} tasks: staticEDF <= staticRM at U=0.5 "
            "(EDF scales deeper than RM)", st <= rm + 1e-6)
        # The bound is computed from the EDF reference's executed cycles;
        # jobs straddling the end of the run make slower policies' executed
        # totals smaller (they haven't caught up with the tail yet), so the
        # normalized curves may dip below the bound by a few percent at
        # quick scale.  The airtight per-run property (no run beats the
        # bound for its *own* cycles) is verified in
        # tests/integration/test_guarantees.py.
        bound_ys = table.get("bound").ys
        for label in ("laEDF", "ccEDF", "staticEDF", "staticRM", "ccRM"):
            ys = table.get(label).ys
            result.check(
                f"{n_tasks} tasks: bound never exceeds {label} "
                "(up to end-of-run tail effects)",
                all(b <= y + 0.05 for b, y in zip(bound_ys, ys)))

    # Residency conservation: at every utilization, each residency
    # policy's mean per-frequency fractions must sum to exactly 1 (each
    # run's histogram sums to its span by construction, so the means do
    # too — within float accumulation error).
    for policy, table in sweeps[10].residency.items():
        totals = [sum(series.ys[i] for series in table.series)
                  for i in range(len(table.xs))]
        worst = max(abs(t - 1.0) for t in totals)
        result.check(
            f"10 tasks: {policy} residency fractions sum to 1 at every "
            f"utilization (worst |err| = {worst:.2e})", worst < 1e-9)

    # Task-count invariance: compare laEDF curves across panels.
    la5 = sweeps[5].normalized.get("laEDF").ys
    la15 = sweeps[15].normalized.get("laEDF").ys
    max_gap = max(abs(a - b) for a, b in zip(la5, la15))
    result.check(
        f"number of tasks has little effect (max laEDF gap 5-vs-15 tasks = "
        f"{max_gap:.3f})", max_gap < 0.15)
    return result
