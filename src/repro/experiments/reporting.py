"""Plain-text rendering of experiment results.

The benchmark harness prints the same rows and series the paper reports:
improvement-rate tables (Tables 3, 4, 7, 8), average-makespan tables
(Table 6) and makespan-vs-parameter series (the six panels of Fig. 8).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from repro.experiments.multi_tenant import MultiWorkflowPoint
from repro.experiments.runner import CaseResult
from repro.experiments.sweep import ScenarioPoint, SweepPoint
from repro.experiments.uncertainty import UncertaintyPoint

__all__ = [
    "format_table",
    "render_improvement_table",
    "render_series",
    "render_case_results",
    "render_scenario_matrix",
    "render_multi_tenant_matrix",
    "render_uncertainty_matrix",
]


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    *,
    float_format: str = "{:.1f}",
) -> str:
    """Render an aligned plain-text table."""

    def render_cell(cell: object) -> str:
        if isinstance(cell, float):
            return float_format.format(cell)
        return str(cell)

    rendered = [[render_cell(cell) for cell in row] for row in rows]
    widths = [len(str(header)) for header in headers]
    for row in rendered:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    header_line = "  ".join(str(h).ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def render_improvement_table(
    points: Sequence[SweepPoint],
    *,
    baseline: str = "HEFT",
    improved: str = "AHEFT",
    title: Optional[str] = None,
    value_label: Optional[str] = None,
) -> str:
    """A Table 3/4/7/8-style row: parameter values vs improvement rate."""
    if not points:
        return "(no data)"
    label = value_label or points[0].parameter
    headers = [label] + [str(point.value) for point in points]
    row = ["Imprv. rate"] + [
        f"{100.0 * point.improvement(baseline, improved):.1f}%" for point in points
    ]
    table = format_table(headers, [row])
    if title:
        return f"{title}\n{table}"
    return table


def render_series(
    series: Mapping[str, Sequence[SweepPoint]],
    *,
    strategies: Sequence[str] = ("HEFT", "AHEFT"),
    title: Optional[str] = None,
) -> str:
    """A Fig. 8-style series table: one row per parameter value.

    ``series`` maps a workload label (e.g. ``"BLAST"``, ``"WIEN2K"``) to its
    sweep points; columns are ``<strategy><label>`` averages, mirroring the
    paper's HEFT1/AHEFT1/HEFT2/AHEFT2 legend.
    """
    labels = list(series.keys())
    if not labels:
        return "(no data)"
    reference = series[labels[0]]
    parameter = reference[0].parameter if reference else "value"
    headers = [parameter]
    for index, label in enumerate(labels, start=1):
        for strategy in strategies:
            headers.append(f"{strategy}{index}({label})")
    rows: List[List[object]] = []
    for point_index, point in enumerate(reference):
        row: List[object] = [point.value]
        for label in labels:
            labelled_point = series[label][point_index]
            for strategy in strategies:
                row.append(labelled_point.mean_makespans[strategy])
        rows.append(row)
    table = format_table(headers, rows)
    if title:
        return f"{title}\n{table}"
    return table


def render_scenario_matrix(
    points: Sequence[ScenarioPoint],
    *,
    strategies: Optional[Sequence[str]] = None,
    title: Optional[str] = None,
) -> str:
    """One row per scenario: makespans, AHEFT-vs-HEFT, reschedules, waste."""
    if not points:
        return "(no data)"
    strategies = list(strategies or points[0].mean_makespans.keys())
    headers = ["scenario"] + list(strategies)
    has_pair = "HEFT" in strategies and "AHEFT" in strategies
    if has_pair:
        headers.append("AHEFT vs HEFT")
    if "AHEFT" in strategies:
        headers.append("resched(AHEFT)")
    headers.append("wasted(max)")
    rows: List[List[object]] = []
    for point in points:
        row: List[object] = [point.scenario]
        for strategy in strategies:
            row.append(point.mean_makespans.get(strategy, float("nan")))
        if has_pair:
            if "HEFT" in point.mean_makespans and "AHEFT" in point.mean_makespans:
                row.append(f"{100.0 * point.improvement():.1f}%")
            else:
                row.append("-")
        if "AHEFT" in strategies:
            row.append(f"{point.mean_reschedules.get('AHEFT', 0.0):.1f}")
        row.append(max(point.mean_wasted_work.values(), default=0.0))
        rows.append(row)
    table = format_table(headers, rows)
    if title:
        return f"{title}\n{table}"
    return table


def render_multi_tenant_matrix(
    points: Sequence[MultiWorkflowPoint],
    *,
    title: Optional[str] = None,
) -> str:
    """One row per multi-tenant cell: flow/stretch/throughput/fairness.

    The overload columns (``adm``/``p99 str``/``rej``/``defer``) show the
    admission controller's effect; without it they read ``off``/tail/0/0.
    """
    if not points:
        return "(no data)"
    headers = [
        "scenario",
        "policy",
        "strategy",
        "adm",
        "tenants",
        "rate",
        "wfs",
        "mean flow",
        "p95 flow",
        "stretch",
        "p99 str",
        "rej",
        "defer",
        "thru/1k",
        "fairness",
        "wasted",
    ]
    rows: List[List[object]] = []
    for point in points:
        rows.append(
            [
                point.scenario,
                point.policy,
                point.strategy,
                "on" if point.admission else "off",
                point.tenants,
                f"{point.arrival_rate:g}",
                point.workflows,
                point.mean_flow_time,
                point.p95_flow_time,
                f"{point.mean_stretch:.2f}",
                f"{point.p99_stretch:.2f}",
                point.rejected,
                point.deferrals,
                f"{point.throughput:.3f}",
                f"{point.fairness:.3f}",
                point.wasted_work,
            ]
        )
    table = format_table(headers, rows)
    if title:
        return f"{title}\n{table}"
    return table


def render_uncertainty_matrix(
    points: Sequence[UncertaintyPoint],
    *,
    strategies: Optional[Sequence[str]] = None,
    title: Optional[str] = None,
) -> str:
    """One row per (scenario, error magnitude) with mean±CI95 makespans.

    The last two columns report the improvement rate of AHEFT over HEFT
    (or of ``aheft`` over ``heft``) — once on the mean makespans (the
    paper's convention) and once as the mean of the paired per-replication
    rates with its CI95 half-width; ``-`` when neither pair ran.
    """
    if not points:
        return "(no data)"
    strategies = list(strategies or points[0].stats.keys())
    headers = ["scenario", "error", "magnitude", "n"]
    for strategy in strategies:
        headers.append(f"{strategy} mean±ci95")
    headers.extend(["imprv(means)", "imprv(paired)"])
    rows: List[List[object]] = []
    for point in points:
        row: List[object] = [
            point.scenario,
            point.error_model,
            f"{point.magnitude:g}",
            point.instances * point.replications,
        ]
        for strategy in strategies:
            stat = point.stats[strategy]
            row.append(f"{stat.mean:.1f}±{stat.ci95_half:.1f}")
        if point.improvement is None:
            row.extend(["-", "-"])
        else:
            half = (point.improvement_ci95_high - point.improvement_ci95_low) / 2.0
            row.append(f"{100.0 * point.improvement:.1f}%")
            row.append(f"{100.0 * point.improvement_mean:.1f}%±{100.0 * half:.1f}")
        rows.append(row)
    table = format_table(headers, rows)
    if title:
        return f"{title}\n{table}"
    return table


def render_case_results(
    results: Sequence[CaseResult],
    *,
    strategies: Optional[Sequence[str]] = None,
    title: Optional[str] = None,
) -> str:
    """One row per case listing the makespans of every strategy."""
    if not results:
        return "(no data)"
    strategies = list(strategies or results[0].strategies())
    headers = ["case"] + list(strategies) + ["AHEFT vs HEFT"]
    rows = []
    for index, result in enumerate(results):
        row: List[object] = [index]
        for strategy in strategies:
            row.append(result.makespans.get(strategy, float("nan")))
        if "HEFT" in result.makespans and "AHEFT" in result.makespans:
            row.append(f"{100.0 * result.improvement():.1f}%")
        else:
            row.append("-")
        rows.append(row)
    table = format_table(headers, rows)
    if title:
        return f"{title}\n{table}"
    return table
