"""Fig. 10 — normalized energy with idle-level factors 0.01, 0.1 and 1.0.

8 tasks, machine 0, worst-case demands.  The idle level is the ratio of
energy consumed per halted cycle to energy per executed cycle.  Paper
findings encoded as shape checks:

* large RT-DVS savings persist even with a perfect halt (the baseline is
  shown "in the most favorable light");
* as the idle level rises toward 1, the *dynamic* algorithms gain relative
  to the static ones — ccEDF diverges below staticEDF — because the
  dynamic schemes sit at the lowest voltage while idling and the static
  ones idle at their selected point.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.analysis.executor import DEFAULT_ENGINE
from repro.analysis.sweep import SweepResult, utilization_sweep
from repro.catalog import panel_sweep_config
from repro.experiments.common import ExperimentResult

IDLE_LEVELS: Tuple[float, ...] = (0.01, 0.1, 1.0)
N_TASKS = 8


def sweep_for(idle_level: float, quick: bool, workers=1, executor=None,
              cache_dir=None, progress=False,
              steady_fast_path=False,
              engine=DEFAULT_ENGINE) -> SweepResult:
    """The Fig. 10 sweep for one idle level (catalog panel
    ``fig10/idle-<level>``)."""
    return utilization_sweep(panel_sweep_config(
        "fig10", f"idle-{idle_level}", quick=quick, workers=workers,
        cache_dir=cache_dir, steady_fast_path=steady_fast_path,
        engine=engine), executor=executor, progress=progress)


def run(quick: bool = True, workers=1, executor=None, cache_dir=None,
        progress=False, steady_fast_path=False,
        engine=DEFAULT_ENGINE) -> ExperimentResult:
    """Reproduce Fig. 10 (three panels, one per idle level)."""
    result = ExperimentResult(
        experiment_id="fig10",
        title="Normalized energy vs utilization at idle levels "
              "0.01 / 0.1 / 1.0",
        description=__doc__ or "",
        quick=quick,
    )
    sweeps: Dict[float, SweepResult] = {}
    for idle in IDLE_LEVELS:
        sweep = sweep_for(idle, quick, workers, executor, cache_dir,
                          progress, steady_fast_path, engine)
        sweeps[idle] = sweep
        result.record_sweep(sweep)
        table = sweep.normalized
        table.title = f"Fig. 10 panel: idle level {idle} (normalized)"
        result.tables.append(table)

    mid = 0.5
    for idle, sweep in sweeps.items():
        la = sweep.normalized.get("laEDF").y_at(mid)
        result.check(
            f"idle={idle}: large savings remain at U=0.5 (laEDF={la:.2f})",
            la < 0.75)

    def cc_vs_static_gap(idle: float) -> float:
        """How far ccEDF sits below staticEDF, averaged over the sweep."""
        cc = sweeps[idle].normalized.get("ccEDF").ys
        st = sweeps[idle].normalized.get("staticEDF").ys
        return sum(s - c for s, c in zip(st, cc)) / len(cc)

    gap_small = cc_vs_static_gap(0.01)
    gap_large = cc_vs_static_gap(1.0)
    result.check(
        "dynamic algorithms benefit more from costly idle: ccEDF's margin "
        f"below staticEDF grows with idle level ({gap_small:.3f} -> "
        f"{gap_large:.3f})", gap_large > gap_small)
    result.check(
        "with idle level 1.0 ccEDF clearly diverges below staticEDF "
        f"(mean gap {gap_large:.3f})", gap_large > 0.02)
    return result
