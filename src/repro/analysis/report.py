"""One-shot experiment report.

:func:`generate_report` runs every experiment of the paper's evaluation
(Table I, the latency comparison, Figure 5, Figure 6) and assembles a single
markdown document with the measured values next to the paper's reference
numbers — the machine-generated counterpart of the per-figure files the
benchmark harness writes to ``results/``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.analysis.latency import (
    PAPER_IBEX_CYCLES,
    PAPER_INSTANT_CYCLES,
    PAPER_SEQUENCED_CYCLES,
    LatencyComparison,
    measure_latency_comparison,
)
from repro.analysis.tables import format_table1
from repro.area.soc import figure6b_breakdown
from repro.area.sweep import figure6a_sweep, minimal_configuration_summary, sweep_as_table
from repro.power.report import format_figure5
from repro.power.scenarios import Figure5Dataset, run_figure5

PAPER_RATIOS = {
    "linking_iso_latency": 2.5,
    "idle_iso_latency": 1.5,
    "linking_iso_freq": 1.6,
}


@dataclass
class ExperimentReport:
    """All measured artefacts plus the rendered markdown."""

    latency: LatencyComparison
    figure5: Figure5Dataset
    figure6a_summary: Dict[str, float]
    figure6b: Dict[str, Dict[str, float]]
    markdown: str = field(default="", repr=False)

    def headline(self) -> Dict[str, float]:
        """The headline quantities a reader checks first."""
        return {
            "sequenced_cycles": float(self.latency.pels_sequenced_cycles or 0),
            "instant_cycles": float(self.latency.pels_instant_cycles or 0),
            "ibex_cycles": float(self.latency.ibex_interrupt_cycles or 0),
            "linking_iso_latency_ratio": self.figure5.ratio("linking_iso_latency"),
            "linking_iso_freq_ratio": self.figure5.ratio("linking_iso_freq"),
            "idle_iso_latency_ratio": self.figure5.ratio("idle_iso_latency"),
            "pels_minimal_kge": self.figure6a_summary["pels_minimal_kge"],
            "pels_soc_logic_fraction": self.figure6b["logic_fractions"]["PELS"],
        }


def _check(measured: float, reference: float, tolerance: float = 0.25) -> str:
    """Mark a measured value as matching the paper within ``tolerance``."""
    if reference == 0:
        return "n/a"
    return "ok" if abs(measured - reference) / reference <= tolerance else "off"


def generate_report(n_events: int = 6, idle_cycles: int = 1500) -> ExperimentReport:
    """Run every experiment and return the assembled report."""
    latency = measure_latency_comparison()
    figure5 = run_figure5(n_events=n_events, idle_cycles=idle_cycles)
    figure6a_summary = minimal_configuration_summary()
    figure6b = figure6b_breakdown()

    sections = []
    sections.append("# PELS reproduction — experiment report\n")

    sections.append("## Headline comparison\n")
    sections.append("| quantity | paper | measured | status |")
    sections.append("|---|---|---|---|")
    rows = [
        ("PELS sequenced action latency (cycles)", PAPER_SEQUENCED_CYCLES, latency.pels_sequenced_cycles),
        ("PELS instant action latency (cycles)", PAPER_INSTANT_CYCLES, latency.pels_instant_cycles),
        ("Ibex interrupt latency (cycles)", PAPER_IBEX_CYCLES, latency.ibex_interrupt_cycles),
        ("linking power ratio, iso-latency", PAPER_RATIOS["linking_iso_latency"], figure5.ratio("linking_iso_latency")),
        ("idle power ratio, iso-latency", PAPER_RATIOS["idle_iso_latency"], figure5.ratio("idle_iso_latency")),
        ("linking power ratio, iso-frequency", PAPER_RATIOS["linking_iso_freq"], figure5.ratio("linking_iso_freq")),
        ("minimal PELS area (kGE)", 7.0, figure6a_summary["pels_minimal_kge"]),
        ("PELS share of PULPissimo logic area", 0.095, figure6b["logic_fractions"]["PELS"]),
    ]
    for label, reference, measured in rows:
        measured_value = float(measured or 0)
        sections.append(
            f"| {label} | {reference:g} | {measured_value:.3g} | {_check(measured_value, float(reference))} |"
        )

    sections.append("\n## Latency comparison (Section IV-B)\n")
    sections.append("```\n" + latency.format() + "\n```")

    sections.append("\n## Figure 5 — power breakdown\n")
    sections.append("```\n" + format_figure5(figure5) + "\n```")

    sections.append("\n## Figure 6a — area sweep\n")
    sections.append("```\n" + sweep_as_table(figure6a_sweep()) + "\n```")

    sections.append("\n## Figure 6b — PULPissimo area breakdown\n")
    logic = figure6b["logic_fractions"]
    with_sram = figure6b["with_sram_fractions"]
    sections.append("| block | logic-only share | share incl. SRAM |")
    sections.append("|---|---|---|")
    for name in sorted(logic):
        sections.append(f"| {name} | {logic[name] * 100:.1f} % | {with_sram.get(name, 0.0) * 100:.1f} % |")
    sections.append(f"| SRAM | — | {with_sram['SRAM'] * 100:.1f} % |")

    sections.append("\n## Table I — feature comparison\n")
    sections.append("```\n" + format_table1() + "\n```")

    markdown = "\n".join(sections) + "\n"
    return ExperimentReport(
        latency=latency,
        figure5=figure5,
        figure6a_summary=figure6a_summary,
        figure6b=figure6b,
        markdown=markdown,
    )


def write_report(path: str, n_events: int = 6, idle_cycles: int = 1500) -> ExperimentReport:
    """Generate the report and write its markdown to ``path``."""
    report = generate_report(n_events=n_events, idle_cycles=idle_cycles)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(report.markdown)
    return report
