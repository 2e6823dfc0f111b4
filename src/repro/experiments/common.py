"""Shared experiment-result container and rendering."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.analysis.export import to_csv, to_markdown
from repro.analysis.series import SweepTable
from repro.analysis.textplot import line_chart


@dataclass(frozen=True)
class ShapeCheck:
    """A named assertion about the *shape* of a result.

    The reproduction does not claim to match the paper's absolute numbers
    (different substrate), but it does claim the qualitative relationships
    — who wins, roughly by how much, where curves cross.  Each experiment
    encodes those claims as shape checks, and EXPERIMENTS.md reports them.
    """

    description: str
    passed: bool

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.description}"


@dataclass
class ExperimentResult:
    """Everything one experiment produced."""

    experiment_id: str
    title: str
    description: str
    tables: List[SweepTable] = field(default_factory=list)
    #: Per-policy frequency-residency tables (from residency sweeps,
    #: see :attr:`repro.analysis.sweep.SweepConfig.residency_policies`);
    #: rendered in their own section and exported alongside the data.
    residency_tables: List[SweepTable] = field(default_factory=list)
    text_blocks: List[str] = field(default_factory=list)
    checks: List[ShapeCheck] = field(default_factory=list)
    quick: bool = True
    #: Engine fallback ledger summed over the experiment's sweeps: reason
    #: -> policy runs the per-run kernel handed to the event engine (see
    #: :attr:`repro.analysis.sweep.SweepResult.engine_fallbacks`).
    engine_fallbacks: Dict[str, int] = field(default_factory=dict)
    #: Lane ledger summed over the experiment's sweeps: cells a vectorized
    #: lane served, and reason -> policy runs that did not come from a
    #: lane (see :attr:`repro.analysis.sweep.SweepResult.block_fallbacks`).
    block_cells: int = 0
    block_fallbacks: Dict[str, int] = field(default_factory=dict)

    @property
    def all_checks_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def record_sweep(self, sweep) -> None:
        """Fold one sweep's lane and engine fallback ledgers into this
        result."""
        self.block_cells += sweep.block_cells
        for mine, theirs in ((self.engine_fallbacks, sweep.engine_fallbacks),
                             (self.block_fallbacks, sweep.block_fallbacks)):
            for reason, count in theirs.items():
                mine[reason] = mine.get(reason, 0) + count

    def engine_summary(self, engine: str) -> str:
        """One line naming the engine and its fallback ledgers; the
        default engine also says how many cells lanes served and why the
        other runs did not take one."""
        line = (f"engine: {engine} · engine fallbacks: "
                f"{_ledger(self.engine_fallbacks)}")
        if engine == "scalar":
            return line
        return (f"{line} · lane cells: {self.block_cells} · "
                f"lane fallbacks: {_ledger(self.block_fallbacks)}")

    def check(self, description: str, passed: bool) -> None:
        """Record a shape check."""
        self.checks.append(ShapeCheck(description, bool(passed)))

    def render(self, charts: bool = True, width: int = 64) -> str:
        """Human-readable report: description, data tables, ASCII charts,
        shape checks."""
        scale = "quick" if self.quick else "full"
        lines = [f"## {self.experiment_id}: {self.title} ({scale} scale)",
                 "", self.description.strip(), ""]
        for block in self.text_blocks:
            lines.extend([block.rstrip(), ""])
        for table in self.tables:
            lines.append(f"### {table.title}")
            lines.append("")
            lines.append(to_markdown(table))
            lines.append("")
            if charts and len(table.xs) > 1:
                lines.append("```")
                lines.append(line_chart(table, width=width))
                lines.append("```")
                lines.append("")
        if self.residency_tables:
            lines.append("### Frequency residency")
            lines.append("")
            lines.append("Mean fraction of each run spent at every "
                         "operating-point frequency (measured natively "
                         "by the run loop, `SimResult.residency`; rows "
                         "sum to 1).")
            lines.append("")
            for table in self.residency_tables:
                lines.append(f"#### {table.title}")
                lines.append("")
                lines.append(to_markdown(table))
                lines.append("")
        if self.checks:
            lines.append("### Shape checks")
            lines.append("")
            for check in self.checks:
                lines.append(f"- {check}")
            lines.append("")
        return "\n".join(lines)

    def write_csvs(self, directory: str) -> List[str]:
        """Export every table as CSV into ``directory``; returns paths."""
        import os

        os.makedirs(directory, exist_ok=True)
        paths = []
        for index, table in enumerate(self.tables + self.residency_tables):
            slug = _slugify(table.title) or f"table{index}"
            path = os.path.join(directory,
                                f"{self.experiment_id}_{slug}.csv")
            to_csv(table, path)
            paths.append(path)
        return paths


def _slugify(text: str) -> str:
    out = []
    for ch in text.lower():
        if ch.isalnum():
            out.append(ch)
        elif out and out[-1] != "-":
            out.append("-")
    return "".join(out).strip("-")[:48]


def _ledger(counts: Dict[str, int]) -> str:
    """``reason=count, ...`` in reason order, or ``none``."""
    return ", ".join(f"{reason}={count}" for reason, count
                     in sorted(counts.items())) or "none"
