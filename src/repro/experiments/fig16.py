"""Fig. 16 — "measured" system power on the (emulated) laptop platform.

5 tasks always consuming 90 % of their worst case, on the K6-2+ machine
(two wired voltage levels), display backlight off.  The y axis is *system*
watts: the CPU's f·V² power (calibrated so full-speed execution draws the
Table 1 CPU delta of 20.2 W) plus the constant 7.1 W board overhead — the
"constant, irreducible power drain" the paper calls out.

Shape checks encode the paper's headline: RT-DVS saves 20-40 % of total
system power at mid-to-high utilizations, even including the irreducible
overhead, and the simulation (Fig. 17) differs from the measurement only by
that constant.
"""

from __future__ import annotations

from typing import Tuple

from dataclasses import replace

from repro.analysis.series import SweepTable
from repro.analysis.executor import DEFAULT_ENGINE
from repro.analysis.sweep import SweepResult, utilization_sweep
from repro.catalog import panel_sweep_config
from repro.experiments.common import ExperimentResult
from repro.hw.machine import k6_2_plus
from repro.measure.laptop import LaptopPowerModel

#: The policies shown in the paper's Figs. 16/17.
POLICIES: Tuple[str, ...] = ("EDF", "staticRM", "ccEDF", "laEDF")
N_TASKS = 5
DEMAND = 0.9


def sweep_platform(quick: bool, workers=1,
                   laptop: LaptopPowerModel = LaptopPowerModel(),
                   executor=None, cache_dir=None,
                   progress=False, engine=DEFAULT_ENGINE) -> SweepResult:
    """The underlying sweep, with energy calibrated to CPU watts
    (catalog panel ``fig16/k6-laptop``).

    The catalog's ``"k6-laptop"`` named scale is the default
    :class:`LaptopPowerModel` calibration; a custom ``laptop`` model
    overrides the scale (the legacy extension point) and is otherwise
    identical.
    """
    config = panel_sweep_config(
        "fig16", "k6-laptop", quick=quick, workers=workers,
        cache_dir=cache_dir, engine=engine)
    config = replace(config, cycle_energy_scale=laptop.
                     cycle_energy_scale_for(config.machine))
    return utilization_sweep(config, executor=executor,
                             progress=progress)


def power_table(sweep: SweepResult, laptop: LaptopPowerModel,
                include_overhead: bool) -> SweepTable:
    """Convert sweep energies to average power (watts), optionally adding
    the constant platform overhead."""
    duration = sweep.config.duration
    overhead = laptop.board_base if include_overhead else 0.0
    where = "system (measured)" if include_overhead else "CPU only"
    table = SweepTable(
        title=f"Fig. 16 power vs utilization — {where}",
        x_label="worst-case utilization", y_label="power (W)")
    for label in POLICIES:
        raw = sweep.raw.get(label)
        table.add(raw.scaled(1.0 / duration).shifted(overhead))
    return table


def run(quick: bool = True, workers=1, executor=None, cache_dir=None,
        progress=False, engine=DEFAULT_ENGINE) -> ExperimentResult:
    """Reproduce Fig. 16 (system power on the laptop model)."""
    laptop = LaptopPowerModel()
    result = ExperimentResult(
        experiment_id="fig16",
        title="Measured system power vs utilization (laptop emulation)",
        description=__doc__ or "",
        quick=quick,
    )
    sweep = sweep_platform(quick, workers, laptop, executor, cache_dir,
                           progress, engine)
    result.record_sweep(sweep)
    table = power_table(sweep, laptop, include_overhead=True)
    result.tables.append(table)

    for u in (0.6, 0.8):
        edf = table.get("EDF").y_at(u)
        la = table.get("laEDF").y_at(u)
        saving = 1.0 - la / edf
        result.check(
            f"laEDF saves 20-40% of total system power at U={u} "
            f"(got {saving:.0%})", 0.15 <= saving <= 0.50)
    cc = table.get("ccEDF")
    la = table.get("laEDF")
    edf = table.get("EDF")
    result.check(
        "every DVS policy stays below plain EDF at every utilization",
        all(c <= e + 1e-9 and l <= e + 1e-9
            for c, l, e in zip(cc.ys, la.ys, edf.ys)))
    result.check(
        "power approaches the EDF level as utilization -> 1",
        abs(la.y_at(1.0) - edf.y_at(1.0)) / edf.y_at(1.0) < 0.25)
    return result
