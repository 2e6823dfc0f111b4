"""Run every experiment and collect a combined report.

``python -m repro run-all [--full]`` uses this module; it is also what
regenerates the measured columns of EXPERIMENTS.md.

All sweep-driven experiments share **one** worker pool (a
:class:`~repro.analysis.executor.CellExecutor`) instead of spinning up a
pool per experiment, and can share one content-addressed cell cache — so
an interrupted ``--full`` run resumes where it stopped and figures with
identical sweeps (fig16/fig17) pay for their cells once.
"""

from __future__ import annotations

import inspect
import os
from typing import Callable, Dict, List, Optional

from repro.analysis.executor import (DEFAULT_ENGINE, CellExecutor,
                                     resolve_workers)
from repro.experiments import (fig9, fig10, fig11, fig12, fig13, fig16,
                               fig17, table1, table4, traces)
from repro.experiments import (ext_battery, ext_future, ext_governors,
                               ext_mp, ext_server)
from repro.experiments.common import ExperimentResult

#: Experiment id -> run() callable, in paper order.  The ``ext-*`` entries
#: go beyond the paper (its stated future work); everything else
#: regenerates a specific table or figure.
ALL_EXPERIMENTS: Dict[str, Callable[..., ExperimentResult]] = {
    "table1": table1.run,
    "table4": table4.run,
    "traces": traces.run,
    "fig9": fig9.run,
    "fig10": fig10.run,
    "fig11": fig11.run,
    "fig12": fig12.run,
    "fig13": fig13.run,
    "fig16": fig16.run,
    "fig17": fig17.run,
    "ext-future": ext_future.run,
    "ext-battery": ext_battery.run,
    "ext-server": ext_server.run,
    "ext-governors": ext_governors.run,
    "ext-mp": ext_mp.run,
}


def _accepted_kwargs(runner: Callable[..., ExperimentResult],
                     available: Dict[str, object]) -> Dict[str, object]:
    """The subset of ``available`` that ``runner``'s signature accepts."""
    parameters = inspect.signature(runner).parameters
    return {name: value for name, value in available.items()
            if name in parameters}


def run_experiment(experiment_id: str, quick: bool = True,
                   **kwargs) -> ExperimentResult:
    """Run one experiment by id."""
    try:
        runner = ALL_EXPERIMENTS[experiment_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; available: "
            f"{sorted(ALL_EXPERIMENTS)}") from None
    return runner(quick=quick, **_accepted_kwargs(runner, kwargs))


def run_all(quick: bool = True, workers=1,
            output_dir: Optional[str] = None,
            cache_dir: Optional[str] = None,
            progress: bool = False,
            steady_fast_path: bool = False,
            engine: str = DEFAULT_ENGINE) -> List[ExperimentResult]:
    """Run every experiment; optionally write reports and CSVs.

    With an ``output_dir``, each experiment gets ``<id>.md`` plus CSVs for
    its tables, and a combined ``report.md`` covers the whole run.  With
    ``workers > 1`` (or ``"auto"``) one shared process pool serves every
    sweep; with a ``cache_dir`` cell results persist across runs.
    """
    n_workers = resolve_workers(workers)
    executor = CellExecutor(n_workers) if n_workers > 1 else None
    shared = {
        "workers": n_workers,
        "executor": executor,
        "cache_dir": cache_dir,
        "progress": progress,
        "steady_fast_path": steady_fast_path,
        "engine": engine,
    }
    results = []
    try:
        for experiment_id, runner in ALL_EXPERIMENTS.items():
            result = runner(quick=quick, **_accepted_kwargs(runner, shared))
            results.append(result)
            if output_dir is not None:
                os.makedirs(output_dir, exist_ok=True)
                report = os.path.join(output_dir, f"{experiment_id}.md")
                with open(report, "w", encoding="utf-8") as handle:
                    handle.write(result.render())
                result.write_csvs(output_dir)
    finally:
        if executor is not None:
            executor.shutdown()
    if output_dir is not None:
        from repro.analysis.report import write_combined_report
        write_combined_report(results,
                              os.path.join(output_dir, "report.md"))
    return results


def summary_table(results: List[ExperimentResult]) -> str:
    """One-line-per-experiment pass/fail summary."""
    lines = ["| experiment | title | shape checks |", "|---|---|---|"]
    for result in results:
        passed = sum(1 for c in result.checks if c.passed)
        total = len(result.checks)
        lines.append(f"| {result.experiment_id} | {result.title} | "
                     f"{passed}/{total} pass |")
    return "\n".join(lines)
