"""Rebuild-impact analysis: dependency-graph closures for layered versus
pipeline-unit changes, and release-metrics aggregation across projects.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path
from typing import Collection, Iterable, Mapping, Sequence

GRAPH_LAYERS = ("ui", "business", "data", "shared", "pipeline")

# Metric key -> the ProjectMetrics field that holds it, in report order.
METRIC_FIELDS = {
    "defects": "avg_post_release_defects",
    "release_time": "avg_release_time",
    "testing_time": "avg_testing_time",
    "development_time": "avg_development_time",
    "deployment_time": "avg_deployment_time",
    "loc_changed": "avg_loc_changed",
}
METRIC_KEYS = tuple(METRIC_FIELDS)

CSV_HEADER = ("project", "defects", "release", "testing", "development", "deployment", "loc")

# Headline percentages the bundled measurement tables were published with.
# Only defects disagrees with the recomputed value (by 0.17 points); the
# report shows the computed number and notes the difference.
PUBLISHED_HEADLINE_CHANGES = {
    "defects": -85.54,
    "release_time": -42.99,
    "loc_changed": 22.58,
}

_DATA_DIR = Path(__file__).parent / "data"
BASELINE_TABLE = _DATA_DIR / "table1.csv"
TREATMENT_TABLE = _DATA_DIR / "table2.csv"
DEMO_GRAPH = _DATA_DIR / "layered_demo.graph"


class ImpactError(Exception):
    pass


class GraphError(ImpactError):
    pass


class UnknownComponent(ImpactError):
    def __init__(self, component: str):
        super().__init__(f"unknown component: {component}")
        self.component = component


class UnknownUnit(ImpactError):
    def __init__(self, unit: str):
        super().__init__(f"unknown unit: {unit}")
        self.unit = unit


class BadRow(ImpactError):
    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


class ProjectMismatch(ImpactError):
    pass


class ZeroBaseline(ImpactError):
    def __init__(self, metric: str):
        super().__init__(f"baseline mean for {metric} is zero; percent change undefined")
        self.metric = metric


class DependencyGraph:
    """Directed acyclic depends-on graph over layered components."""

    def __init__(self, nodes: Mapping[str, str], edges: Iterable[tuple[str, str]]):
        self.nodes = dict(nodes)
        self.edges = set()
        for layer in self.nodes.values():
            if layer not in GRAPH_LAYERS:
                raise GraphError(f"unknown layer {layer!r}")
        self._dependents: dict[str, set[str]] = {n: set() for n in self.nodes}
        for source, target in edges:
            if source not in self.nodes:
                raise GraphError(f"edge endpoint {source!r} is not a node")
            if target not in self.nodes:
                raise GraphError(f"edge endpoint {target!r} is not a node")
            self.edges.add((source, target))
            self._dependents[target].add(source)
        self._check_acyclic()

    def _check_acyclic(self) -> None:
        # Kahn's algorithm: anything left over sits on a cycle.
        out_degree = {n: 0 for n in self.nodes}
        for source, _target in self.edges:
            out_degree[source] += 1
        ready = [n for n, d in out_degree.items() if d == 0]
        seen = 0
        while ready:
            node = ready.pop()
            seen += 1
            for dependent in self._dependents[node]:
                out_degree[dependent] -= 1
                if out_degree[dependent] == 0:
                    ready.append(dependent)
        if seen != len(self.nodes):
            cyclic = sorted(n for n, d in out_degree.items() if d > 0)
            raise GraphError(f"dependency graph has a cycle through: {', '.join(cyclic)}")

    def dependents_of(self, component: str) -> set[str]:
        return set(self._dependents[component])


def load_graph(text: str) -> DependencyGraph:
    """Parse ``node <id> <layer>`` and ``edge <from> <to>`` lines."""
    nodes: dict[str, str] = {}
    edges: list[tuple[str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if tokens[0] == "node" and len(tokens) == 3:
            if tokens[1] in nodes:
                raise GraphError(f"line {lineno}: duplicate node {tokens[1]!r}")
            if tokens[2] not in GRAPH_LAYERS:
                raise GraphError(f"line {lineno}: unknown layer {tokens[2]!r}")
            nodes[tokens[1]] = tokens[2]
        elif tokens[0] == "edge" and len(tokens) == 3:
            edges.append((tokens[1], tokens[2]))
        else:
            raise GraphError(f"line {lineno}: expected 'node <id> <layer>' or 'edge <from> <to>'")
    return DependencyGraph(nodes, edges)


def rebuild_closure(graph: DependencyGraph, changed: str) -> set[str]:
    """Everything that must rebuild after a change: the changed component
    plus all components depending on it, transitively."""
    if changed not in graph.nodes:
        raise UnknownComponent(changed)
    closure = {changed}
    stack = [changed]
    while stack:
        node = stack.pop()
        for dependent in graph.dependents_of(node):
            if dependent not in closure:
                closure.add(dependent)
                stack.append(dependent)
    return closure


def scpa_closure(units: Collection[str], unit: str) -> set[str]:
    """A self-contained unit rebuilds alone: the closure is exactly itself."""
    if unit not in units:
        raise UnknownUnit(unit)
    return {unit}


@dataclass(frozen=True)
class ProjectMetrics:
    """Per-project release averages, one row of a measurement table."""

    project: str
    avg_post_release_defects: float
    avg_release_time: float
    avg_testing_time: float
    avg_development_time: float
    avg_deployment_time: float
    avg_loc_changed: float

    def __post_init__(self):
        for name in METRIC_FIELDS.values():
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

    def metric(self, key: str) -> float:
        return getattr(self, METRIC_FIELDS[key])


def load_metrics_table(text: str) -> list[ProjectMetrics]:
    """Parse the metrics CSV (header ``project,defects,release,testing,
    development,deployment,loc``) into one ProjectMetrics per row."""
    reader = csv.reader(io.StringIO(text))
    rows = [(i, row) for i, row in enumerate(reader, 1) if row and any(cell.strip() for cell in row)]
    if not rows:
        raise BadRow(1, "empty table")
    header_line, header = rows[0]
    if tuple(cell.strip() for cell in header) != CSV_HEADER:
        raise BadRow(header_line, f"expected header {','.join(CSV_HEADER)}")
    metrics: list[ProjectMetrics] = []
    seen: set[str] = set()
    for lineno, row in rows[1:]:
        if len(row) != len(CSV_HEADER):
            raise BadRow(lineno, f"expected {len(CSV_HEADER)} cells, got {len(row)}")
        project = row[0].strip()
        if not project:
            raise BadRow(lineno, "empty project id")
        if project in seen:
            raise BadRow(lineno, f"duplicate project {project!r}")
        seen.add(project)
        values: list[float] = []
        for cell, column in zip(row[1:], CSV_HEADER[1:]):
            try:
                value = float(cell.strip())
            except ValueError:
                raise BadRow(lineno, f"{column}: {cell.strip()!r} is not a number") from None
            if value < 0:
                raise BadRow(lineno, f"{column}: must be >= 0")
            values.append(value)
        metrics.append(ProjectMetrics(project, *values))
    return metrics


@dataclass(frozen=True)
class MetricChange:
    metric: str
    baseline_mean: float
    treatment_mean: float
    percent_change: float


@dataclass(frozen=True)
class ImprovementReport:
    changes: tuple[MetricChange, ...]

    def change(self, metric: str) -> MetricChange:
        for c in self.changes:
            if c.metric == metric:
                return c
        raise KeyError(metric)


def aggregate_metrics(
    baseline: Sequence[ProjectMetrics], treatment: Sequence[ProjectMetrics]
) -> ImprovementReport:
    """Cross-project means per metric and their percent change.

    The change is computed on the means (not the mean of per-project
    changes): (treatment - baseline) / baseline * 100, negative = reduction.
    """
    baseline_ids = {m.project for m in baseline}
    treatment_ids = {m.project for m in treatment}
    if baseline_ids != treatment_ids or len(baseline) != len(treatment):
        raise ProjectMismatch(
            f"project sets differ: baseline {sorted(baseline_ids)}, treatment {sorted(treatment_ids)}"
        )
    if not baseline:
        raise ProjectMismatch("no projects to aggregate")
    changes = []
    for key in METRIC_KEYS:
        # fsum keeps the means exact regardless of project order
        baseline_mean = math.fsum(m.metric(key) for m in baseline) / len(baseline)
        treatment_mean = math.fsum(m.metric(key) for m in treatment) / len(treatment)
        if baseline_mean == 0:
            raise ZeroBaseline(key)
        pct = (treatment_mean - baseline_mean) / baseline_mean * 100.0
        changes.append(MetricChange(key, baseline_mean, treatment_mean, pct))
    return ImprovementReport(changes=tuple(changes))


def round_half_up(value: float, places: int = 2) -> float:
    """Presentation rounding; means keep full precision everywhere else."""
    quantum = Decimal(1).scaleb(-places)
    return float(Decimal(repr(value)).quantize(quantum, rounding=ROUND_HALF_UP))


def format_report(report: ImprovementReport, fmt: str = "text") -> str:
    """Render the report as an aligned text table or CSV, with notes for any
    metric whose recomputed change differs from its published headline."""
    rows = [
        (
            c.metric,
            f"{c.baseline_mean:.3f}",
            f"{c.treatment_mean:.3f}",
            f"{round_half_up(c.percent_change):+.2f}%",
        )
        for c in report.changes
    ]
    notes = []
    for c in report.changes:
        if c.metric in PUBLISHED_HEADLINE_CHANGES:
            computed = round_half_up(c.percent_change)
            stated = PUBLISHED_HEADLINE_CHANGES[c.metric]
            delta = abs(computed - stated)
            if delta > 0.005:
                notes.append(
                    f"note: {c.metric} computed {computed:+.2f}% differs from the "
                    f"published {stated:+.2f}% figure by {round_half_up(delta)} points"
                )
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(("metric", "baseline_mean", "treatment_mean", "percent_change"))
        for row in rows:
            writer.writerow(row)
        text = out.getvalue().rstrip("\n")
        if notes:
            text += "\n" + "\n".join(f"# {n}" for n in notes)
        return text + "\n"
    header = ("metric", "baseline_mean", "treatment_mean", "change")
    table = align_table([header, *rows])
    if notes:
        table += "\n".join(notes) + "\n"
    return table


def align_table(rows: Sequence[Sequence[str]]) -> str:
    """Left-align ``rows`` in columns two spaces apart, one line each."""
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = [
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
        for row in rows
    ]
    return "\n".join(lines) + "\n"


def closure_comparison(graph: DependencyGraph, changed: str) -> dict[str, object]:
    """Layered rebuild closure versus the single-unit pipeline closure."""
    layered = rebuild_closure(graph, changed)
    pipeline = scpa_closure(graph.nodes.keys(), changed)
    reduction = (1 - len(pipeline) / len(layered)) * 100.0
    return {
        "changed": changed,
        "layered_closure": sorted(layered),
        "layered_size": len(layered),
        "scpa_size": len(pipeline),
        "reduction_percent": reduction,
    }
