"""Fig. 11 — normalized energy on machines 0, 1 and 2.

8 tasks, idle level 0, worst-case demands.  Machine 1 adds a 0.83-relative
point to machine 0; machine 2 is a PowerNow!-style table with seven points
over a narrow (1.4-2.0 V) range.  Paper findings encoded as shape checks:

* with worst-case demands, ccEDF and staticEDF are identical;
* machine 2's many settings make staticEDF/ccEDF hug the theoretical
  bound over the whole range;
* machine 2's narrow voltage range caps the maximum savings below what
  machines 0/1 reach;
* on machine 2, ccEDF *outperforms* laEDF — fine-grained settings make
  laEDF defer too much and pay high-voltage catch-up later.
"""

from __future__ import annotations

from typing import Dict

from repro.analysis.executor import DEFAULT_ENGINE
from repro.analysis.sweep import SweepResult, utilization_sweep
from repro.catalog import panel_sweep_config
from repro.experiments.common import ExperimentResult
from repro.hw.machine import Machine, machine0, machine1, machine2

N_TASKS = 8

#: Policies whose runs report native residency for the residency tables.
RESIDENCY_POLICIES = ("ccEDF", "laEDF")


def sweep_for(machine: Machine, quick: bool, workers=1, executor=None,
              cache_dir=None, progress=False,
              steady_fast_path=False,
              engine=DEFAULT_ENGINE) -> SweepResult:
    """The Fig. 11 sweep for one machine specification (catalog panel
    ``fig11/<machine name>``)."""
    return utilization_sweep(panel_sweep_config(
        "fig11", machine.name, quick=quick, workers=workers,
        cache_dir=cache_dir, steady_fast_path=steady_fast_path,
        engine=engine), executor=executor, progress=progress)


def run(quick: bool = True, workers=1, executor=None, cache_dir=None,
        progress=False, steady_fast_path=False,
        engine=DEFAULT_ENGINE) -> ExperimentResult:
    """Reproduce Fig. 11 (three panels, one per machine)."""
    result = ExperimentResult(
        experiment_id="fig11",
        title="Normalized energy vs utilization on machines 0 / 1 / 2",
        description=__doc__ or "",
        quick=quick,
    )
    machines = {m.name: m for m in (machine0(), machine1(), machine2())}
    sweeps: Dict[str, SweepResult] = {}
    for name, machine in machines.items():
        sweep = sweep_for(machine, quick, workers, executor, cache_dir,
                          progress, steady_fast_path, engine)
        sweeps[name] = sweep
        result.record_sweep(sweep)
        table = sweep.normalized
        table.title = f"Fig. 11 panel: {name} (normalized energy)"
        result.tables.append(table)
        if name == "machine2":
            # Machine 2's seven fine-grained points are the interesting
            # residency story (how ccEDF spreads across them).
            for policy in RESIDENCY_POLICIES:
                res = sweep.residency[policy]
                res.title = f"Fig. 11 residency: {policy}, {name}"
                result.residency_tables.append(res)

    # Residency conservation on every machine and residency policy.
    for name, sweep in sweeps.items():
        for policy, table in sweep.residency.items():
            totals = [sum(series.ys[i] for series in table.series)
                      for i in range(len(table.xs))]
            worst = max(abs(t - 1.0) for t in totals)
            result.check(
                f"{name}: {policy} residency fractions sum to 1 "
                f"(worst |err| = {worst:.2e})", worst < 1e-9)

    for name, sweep in sweeps.items():
        cc = sweep.normalized.get("ccEDF").ys
        st = sweep.normalized.get("staticEDF").ys
        gap = max(abs(a - b) for a, b in zip(cc, st))
        result.check(
            f"{name}: ccEDF identical to staticEDF under worst-case "
            f"demands (max gap {gap:.4f})", gap < 1e-6)

    # Machine 2 hugs the bound.
    m2 = sweeps["machine2"].normalized
    hug = max(c - b for c, b in zip(m2.get("ccEDF").ys,
                                    m2.get("bound").ys))
    result.check(
        f"machine2: ccEDF within {hug:.3f} of the bound across the sweep",
        hug < 0.08)

    # Narrow voltage range caps maximum savings.
    low_u = 0.2
    best_m0 = sweeps["machine0"].normalized.get("laEDF").y_at(low_u)
    best_m2 = sweeps["machine2"].normalized.get("laEDF").y_at(low_u)
    result.check(
        "machine2's narrow voltage range saves less at low U than "
        f"machine0 ({best_m2:.2f} vs {best_m0:.2f})",
        best_m2 > best_m0)

    # ccEDF beats laEDF on machine 2 (mid-high utilizations).
    cc_hi = [m2.get("ccEDF").y_at(u) for u in (0.6, 0.7, 0.8)]
    la_hi = [m2.get("laEDF").y_at(u) for u in (0.6, 0.7, 0.8)]
    result.check(
        "machine2: ccEDF outperforms laEDF at mid-high utilization "
        f"(ccEDF mean {sum(cc_hi)/3:.3f} vs laEDF {sum(la_hi)/3:.3f})",
        sum(cc_hi) < sum(la_hi) + 1e-9)
    return result
