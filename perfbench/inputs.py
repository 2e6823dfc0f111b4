"""Seeded inputs of the benchmark's workloads, and the digests that check them.

Every workload is a list of *requests*: one call the benchmark makes into
the program's public entry points.  On the figure workloads a request is
one ``utilization_sweep`` over one catalog panel; on the served workloads
it is one HTTP sweep request.  A request is a plain JSON-safe dict, so the
orchestrator and the measuring child processes rebuild the same inputs from
``(workload, seed)`` alone.

Seed ``0`` means the catalog's own panel seeds; any other seed offsets
every panel seed (and every inline spec seed) by a fixed amount per seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from typing import Dict, List, Sequence

WORKLOADS = ("fig9-cold", "panels-cold", "serve-warm", "dist-cold")

#: Catalog panels of the two cold figure workloads.
FIGURE_PANELS = {
    "fig9-cold": (("fig9", "5-tasks"), ("fig9", "10-tasks"),
                  ("fig9", "15-tasks")),
    "panels-cold": (("fig10", "idle-0.1"), ("fig12", "c-0.5"),
                    ("fig13", "uniform"), ("fig16", "k6-laptop")),
}

#: Task sets per utilization point of a figure request: the first set of
#: each point of the quick panel, i.e. a prefix of the catalog's own cells
#: (the seed derivation draws sets sequentially, so a shorter ``n_sets``
#: keeps every cell it does run identical to the full panel's).
FIGURE_SETS = 1

PAPER_POLICIES = ("EDF", "staticRM", "staticEDF", "ccEDF", "ccRM", "laEDF")

#: serve-warm: 12 fig9-shaped inline specs (80 cells each), half of them
#: with residency on every policy.  Twelve is more than the service's
#: 8-entry result-reuse LRU, so most requests aggregate afresh.  A short
#: horizon keeps the cold pre-fill cheap; a cache hit costs the same at
#: any horizon.
SERVE_POOL_TASKS = (5, 8, 10, 15)
SERVE_POOL_SIZE = 12
SERVE_SETS = 8
SERVE_DURATION = 10.0
SERVE_CLIENTS = 2

#: dist-cold: fig9-5-tasks-shaped inline specs, a fresh spec seed each,
#: at the fig9 panels' own horizon (their ``duration_quick``).
DIST_SETS = 1
DIST_DURATION = 1000.0

#: Base of the inline spec seeds (the fig9 5-tasks catalog seed).
INLINE_BASE_SEED = 95


#: Panel seed offset between consecutive cycles of a figure workload.
FIGURE_CYCLE_STRIDE = 100_000


def figure_requests(workload: str, seed: int,
                    cycle: int = 0) -> List[Dict[str, object]]:
    """The panel sweeps of cycle ``cycle`` of a figure workload.

    Every cycle of a run sweeps other task sets (its panel seeds are
    offset by ``FIGURE_CYCLE_STRIDE * cycle``), so that a run's times rest
    on several draws of each panel and not on one.
    """
    from repro.catalog import get_scenario

    requests = []
    for scenario, label in FIGURE_PANELS[workload]:
        panel = get_scenario(scenario).panel(label).to_dict()
        panel["seed"] = panel["seed"] + seed + FIGURE_CYCLE_STRIDE * cycle
        panel["n_sets_quick"] = FIGURE_SETS
        requests.append({"name": f"{scenario}/{label}", "panel": panel})
    return requests


def serve_pool(seed: int) -> List[Dict[str, object]]:
    """The inline specs serve-warm draws its requests from."""
    pool = []
    for index in range(SERVE_POOL_SIZE):
        spec: Dict[str, object] = {
            "n_tasks": SERVE_POOL_TASKS[index % len(SERVE_POOL_TASKS)],
            "seed": INLINE_BASE_SEED + index + SERVE_POOL_SIZE * seed,
            "n_sets_quick": SERVE_SETS,
            "duration_quick": SERVE_DURATION,
        }
        if index % 2 == 0:
            spec["residency_policies"] = list(PAPER_POLICIES)
        pool.append(spec)
    return pool


def serve_sequence(seed: int, client: int, rounds: int) -> List[int]:
    """Pool indices one client sends, in order: ``rounds`` seeded
    permutations of the pool, so every prefix keeps the residency mix
    balanced within one pool's worth of requests."""
    rng = random.Random(f"serve-warm/{seed}/{client}")
    order: List[int] = []
    for _ in range(rounds):
        block = list(range(SERVE_POOL_SIZE))
        rng.shuffle(block)
        order.extend(block)
    return order


def dist_requests(seed: int, count: int) -> List[Dict[str, object]]:
    """The first ``count`` cold dist-cold specs of ``seed``."""
    return [{"n_tasks": 5,
             "seed": INLINE_BASE_SEED + 100_000 * (seed + 1) + index,
             "n_sets_quick": DIST_SETS,
             "duration_quick": DIST_DURATION,
             "residency_policies": list(PAPER_POLICIES)}
            for index in range(count)]


def inline_panel(spec: Dict[str, object]) -> Dict[str, object]:
    """An inline request spec as a catalog panel dict."""
    return dict(spec, label="inline")


def sweep_config(panel: Dict[str, object], **execution):
    """Resolve a panel dict to a quick-scale ``SweepConfig``.

    ``execution`` is passed through unchanged: the workloads pass only the
    cache directory and ``workers``, so the sweep runs with the program's
    default engine and fast-path settings.
    """
    from repro.catalog.schema import PanelSpec

    return PanelSpec.from_dict(panel).sweep_config(quick=True, **execution)


def reference_config(panel: Dict[str, object], **execution):
    """``panel`` on the reference engine: the event engine, no fast path,
    one worker (and no cache unless ``execution`` names one).  Settings the
    program no longer has are left out (it then has only one way to run a
    cell)."""
    import inspect

    from repro.catalog.schema import PanelSpec

    wanted = {"engine": "scalar", "steady_fast_path": False, "workers": 1}
    accepted = inspect.signature(PanelSpec.sweep_config).parameters
    execution.update((key, value) for key, value in wanted.items()
                     if key in accepted)
    return sweep_config(panel, **execution)


def releases(panel: Dict[str, object]) -> int:
    """Job releases the panel's cells simulate per policy run.

    Sum over cells and tasks of ``ceil(duration / period)``.  A cold
    request's cost follows this count (per-cell correlation 0.96 on the
    fig9 panels), so cold timings are scaled to the size of the same
    request at seed 0.
    """
    from repro.analysis.sweep import (materialize_cell, sweep_cell_specs,
                                      sweep_context)

    config = sweep_config(panel)
    context = sweep_context(config)
    total = 0
    for spec in sweep_cell_specs(config):
        taskset, _ = materialize_cell(context, spec)
        total += sum(math.ceil(config.duration / task.period)
                     for task in taskset)
    return total


def tables_digest(xs: Sequence[float], labels: Sequence[str],
                  raw: Sequence[Sequence[float]],
                  normalized: Sequence[Sequence[float]]) -> str:
    """Bit-exact digest of one sweep's raw and normalized tables."""
    def exact(rows):
        return [[float(value).hex() for value in row] for row in rows]

    payload = {"xs": [float(x).hex() for x in xs], "labels": list(labels),
               "raw": exact(raw), "normalized": exact(normalized)}
    return hashlib.sha256(json.dumps(payload, sort_keys=True)
                          .encode("utf-8")).hexdigest()


def result_digest(result) -> str:
    """:func:`tables_digest` of an in-process ``SweepResult``."""
    return tables_digest(result.raw.xs, result.raw.labels(),
                         result.raw.rows(), result.normalized.rows())


def event_digest(event: Dict[str, object]) -> str:
    """:func:`tables_digest` of a served ``result`` event."""
    return tables_digest(event["xs"], event["labels"], event["raw"],
                         event["normalized"])
