"""Combined reproduction report.

Assembles the outputs of many experiments into a single Markdown document
(summary table up front, full per-experiment sections after), the
machine-generated companion to the hand-written EXPERIMENTS.md.
"""

from __future__ import annotations

import datetime
from typing import TYPE_CHECKING, List, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - import is type-only to avoid a
    # cycle (experiments.common uses the analysis exporters).
    from repro.experiments.common import ExperimentResult


def combined_report(results: Sequence[ExperimentResult],
                    title: str = "RT-DVS reproduction report",
                    charts: bool = True,
                    generated_at: Optional[str] = None) -> str:
    """Render many experiment results as one Markdown document.

    ``generated_at`` defaults to the current UTC time; pass a fixed string
    for reproducible output.
    """
    if generated_at is None:
        generated_at = datetime.datetime.now(
            datetime.timezone.utc).strftime("%Y-%m-%d %H:%M UTC")
    lines: List[str] = [f"# {title}", "",
                        f"Generated {generated_at}.", ""]
    lines.append("## Summary")
    lines.append("")
    lines.append("| experiment | scale | shape checks | status |")
    lines.append("|---|---|---|---|")
    for result in results:
        passed = sum(1 for c in result.checks if c.passed)
        total = len(result.checks)
        status = "ok" if result.all_checks_pass else "**CHECK FAILURES**"
        scale = "quick" if result.quick else "full"
        lines.append(f"| {result.experiment_id} | {scale} | "
                     f"{passed}/{total} | {status} |")
    lines.append("")
    residency_count = sum(len(getattr(r, "residency_tables", ()))
                          for r in results)
    if residency_count:
        lines.append(f"Includes {residency_count} frequency-residency "
                     "table(s) measured natively by the run loop "
                     "(`SimResult.residency`).")
        lines.append("")
    for result in results:
        lines.append(result.render(charts=charts))
        lines.append("")
    return "\n".join(lines)


def write_combined_report(results: Sequence[ExperimentResult], path: str,
                          **kwargs) -> str:
    """Write :func:`combined_report` to ``path``; returns the text."""
    text = combined_report(results, **kwargs)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return text
