"""Cost models, comparison tables, improvement averages, Pareto fronts.

The published reference dataset covers eight prior reversible BCD adders
plus the two designs built by this package, each as affine functions of
the digit count N.  Comparison tables use the published formulas for all
ten columns, the two proposed designs included, so every integer cell of
the reference comparison is reproduced exactly.  MODELS is the one place
where a published formula is written.  The built adders' own figures come
from one cached fit per design, structural_figures(), which the
metric-fidelity check reads too; structural_rows() sets them beside the
published ones, so the discrepancy report shows every gap as a row.

Percentages are computed in exact rational arithmetic and rounded half-up
to two decimals only for display and comparison.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

from . import designs
from .errors import InvalidArgumentError, positive, shown
from .metrics import MetricReport, metric_decomposition, total

METRICS = ("ci", "go", "qc", "delay")

# Published cost models, one row per design: each metric is the affine
# function slope*N + intercept of the digit count N.
MODELS: dict[str, dict[str, tuple[int, int]]] = {
    name: dict(zip(METRICS, coefficients))
    for name, *coefficients in (
        # name            ci        go         qc        delay
        ("[10]-design1", (11, 0), (16, 0), (58, 0), (40, 0)),
        ("[10]-design2", (12, 0), (17, 0), (75, 0), (40, 0)),
        ("[11]-design1", (2, 0), (2, -1), (88, 0), (73, 0)),
        ("[11]-design2", (1, 0), (1, -1), (70, 0), (57, 0)),
        ("[12]", (17, 0), (22, 0), (81, 0), (54, 0)),
        ("[13]", (19, 0), (24, 0), (88, 0), (62, 0)),
        ("[14]", (7, 0), (7, 0), (56, 0), (40, 0)),
        ("[15]", (10, 0), (14, 0), (52, 0), (31, 0)),
        ("Dec-RCA", (8, 0), (4, 0), (45, 0), (25, 10)),
        ("Dec-CSK", (10, 0), (12, 0), (65, 0), (5, 40)),
    )
}

# Comparison-table column set: each prior work appears once; where a work
# published two designs the one matching the published table cells is used.
COMPARISON_BASELINES = (
    "[10]-design1",
    "[11]-design2",
    "[12]",
    "[13]",
    "[14]",
    "[15]",
)
PROPOSED = ("Dec-RCA", "Dec-CSK")
TABLE_COLUMNS = COMPARISON_BASELINES + PROPOSED
TABLE_NS = (8, 16, 32, 64, 128, 256)

DISPLAY_NAMES = {
    "[10]-design1": "[10]",
    "[11]-design2": "[11]",
}


def display_name(name: str) -> str:
    return DISPLAY_NAMES.get(name, name)


def metric_value(name: str, metric: str, n: int) -> int:
    """One metric of a named model at digit count n."""
    if name not in MODELS:
        raise InvalidArgumentError(f"unknown design {shown(name)}")
    positive(n, "digit count")
    if metric not in METRICS:
        raise InvalidArgumentError(f"unknown metric {shown(metric)}")
    slope, intercept = MODELS[name][metric]
    return slope * n + intercept


def _formula(slope: int, intercept: int) -> str:
    """slope*N + intercept as the paper writes it: "45N", "25N+10"."""
    return f"{slope}N" + (f"{intercept:+d}" if intercept else "")


def round_half_up(value: Fraction) -> Decimal:
    """Two decimals, ties away from zero, for display/comparison."""
    dec = Decimal(value.numerator) / Decimal(value.denominator)
    return dec.quantize(Decimal("0.01"), rounding=ROUND_HALF_UP)


# -- improvement percentages -------------------------------------------------


@dataclass(frozen=True)
class ImprovementReport:
    """Exact per-N and overall average improvement percentages.

    Values are Fractions: 100*(baseline - proposed)/baseline, averaged
    over the comparison baselines per N, then over N for the total.
    """

    per_n: dict[int, Fraction]
    average: Fraction


def improvement(
    proposed: str, ns: tuple[int, ...] = TABLE_NS, metric: str = "qc"
) -> ImprovementReport:
    if not ns:
        raise InvalidArgumentError("need at least one digit count")
    if len(set(ns)) != len(ns):
        raise InvalidArgumentError(
            f"each digit count must appear once, got {shown(list(ns))}"
        )
    per_n: dict[int, Fraction] = {}
    for n in ns:
        ours = metric_value(proposed, metric, n)
        total = Fraction(0)
        for base in COMPARISON_BASELINES:
            theirs = metric_value(base, metric, n)
            if theirs == 0:
                raise ZeroDivisionError(f"{base} {metric} is 0 at N={n}")
            total += Fraction(100) * Fraction(theirs - ours, theirs)
        per_n[n] = total / len(COMPARISON_BASELINES)
    average = sum(per_n.values(), Fraction(0)) / len(per_n)
    return ImprovementReport(per_n, average)


# -- tables -------------------------------------------------------------------


def render_rows(rows: list[list], fmt: str) -> str:
    """A header row and body rows, each cell written with str(): a markdown
    table for "md", with "|" in a cell escaped, or comma ("csv") or tab
    ("tsv") separated lines, quoted as the csv module does."""
    if fmt == "md":
        lines = [
            "| " + " | ".join(str(cell).replace("|", r"\|") for cell in row) + " |"
            for row in rows
        ]
        lines.insert(1, "|" + "---|" * len(rows[0]))
        return "".join(line + "\n" for line in lines)
    out = io.StringIO()
    sep = {"csv": ",", "tsv": "\t"}[fmt]
    csv.writer(out, delimiter=sep, lineterminator="\n").writerows(rows)
    return out.getvalue()


@dataclass(frozen=True)
class CostTable:
    """One reproduced comparison table plus its improvement columns."""

    ns: tuple[int, ...]
    cells: dict[tuple[str, int], int]
    improvements: dict[str, ImprovementReport]

    def row(self, n: int) -> list[int]:
        return [self.cells[(c, n)] for c in TABLE_COLUMNS]


def cost_table(metric: str, ns: tuple[int, ...] = TABLE_NS) -> CostTable:
    ns = tuple(ns)
    cells = {(c, n): metric_value(c, metric, n) for c in TABLE_COLUMNS for n in ns}
    improvements = {p: improvement(p, ns, metric) for p in PROPOSED}
    return CostTable(ns, cells, improvements)


# The improvement-column prefix and the totals-row label of each format.
_TABLE_LABELS = {"md": ("% Impr ", "Total average"), "csv": ("impr_", "total_average")}


def render_table(table: CostTable, fmt: str) -> str:
    """Header, one row per digit count, then the average-improvement row,
    as a markdown table ("md") or CSV ("csv")."""
    impr, totals = _TABLE_LABELS[fmt]
    reports = table.improvements.values()
    rows = [
        ["digit", *map(display_name, TABLE_COLUMNS)]
        + [impr + p for p in table.improvements]
    ]
    rows += [
        [n, *table.row(n), *(round_half_up(r.per_n[n]) for r in reports)]
        for n in table.ns
    ]
    rows.append(
        [totals, *[""] * len(TABLE_COLUMNS)]
        + [round_half_up(r.average) for r in reports]
    )
    return render_rows(rows, fmt)


# -- Pareto analysis ----------------------------------------------------------


@dataclass(frozen=True)
class CostPoint:
    name: str
    n: int
    qc: int
    delay: int


def pareto_points(n: int) -> list[CostPoint]:
    """(qc, delay) points of the comparison set at one digit count."""
    return [
        CostPoint(c, n, metric_value(c, "qc", n), metric_value(c, "delay", n))
        for c in TABLE_COLUMNS
    ]


def _dominates(x: CostPoint, y: CostPoint) -> bool:
    """x dominates y: no worse in both objectives, better in at least one."""
    return (
        x.qc <= y.qc
        and x.delay <= y.delay
        and (x.qc < y.qc or x.delay < y.delay)
    )


def pareto_front(points: list[CostPoint]) -> list[CostPoint]:
    """Non-dominated subset, ascending quantum cost.

    Equal points survive together (weak non-domination); all points must
    share one digit count, one curve per size.
    """
    if not points:
        return []
    if len({p.n for p in points}) != 1:
        raise InvalidArgumentError("pareto points must share one digit count")
    front = [
        p
        for p in points
        if not any(_dominates(q, p) for q in points)
    ]
    return sorted(front, key=lambda p: (p.qc, p.delay, p.name))


def render_svg(points: list[CostPoint], front: list[CostPoint]) -> str:
    """Minimal static scatter with the `front` polyline; no dependencies."""
    if not points:
        return "<svg xmlns='http://www.w3.org/2000/svg'/>"
    n = points[0].n
    width, height, margin = 640, 440, 60
    qc_max = max(p.qc for p in points)
    d_max = max(p.delay for p in points)

    def sx(qc):
        return margin + (width - 2 * margin) * qc / (qc_max * 1.05)

    def sy(delay):
        return height - margin - (height - 2 * margin) * delay / (d_max * 1.05)

    parts = [
        f"<svg xmlns='http://www.w3.org/2000/svg' width='{width}' height='{height}' "
        f"viewBox='0 0 {width} {height}'>",
        f"<text x='{width // 2}' y='24' text-anchor='middle' font-size='15'>"
        f"Quantum cost vs delay, N={n}</text>",
        f"<line x1='{margin}' y1='{height - margin}' x2='{width - margin}' "
        f"y2='{height - margin}' stroke='black'/>",
        f"<line x1='{margin}' y1='{margin // 2}' x2='{margin}' "
        f"y2='{height - margin}' stroke='black'/>",
        f"<text x='{width // 2}' y='{height - 16}' text-anchor='middle' "
        f"font-size='12'>quantum cost</text>",
        f"<text x='16' y='{height // 2}' font-size='12' "
        f"transform='rotate(-90 16 {height // 2})' text-anchor='middle'>delay</text>",
    ]
    for t in range(5):
        qv = round(qc_max * 1.05 * t / 4)
        dv = round(d_max * 1.05 * t / 4)
        parts.append(
            f"<text x='{sx(qv):.1f}' y='{height - margin + 16}' font-size='10' "
            f"text-anchor='middle'>{qv}</text>"
        )
        parts.append(
            f"<text x='{margin - 6}' y='{sy(dv):.1f}' font-size='10' "
            f"text-anchor='end'>{dv}</text>"
        )
    path = " ".join(f"{sx(p.qc):.1f},{sy(p.delay):.1f}" for p in front)
    parts.append(
        f"<polyline points='{path}' fill='none' stroke='#1f77b4' "
        f"stroke-dasharray='5,4' stroke-width='1.5'/>"
    )
    for p in sorted(points, key=lambda p: (p.qc, p.delay, p.name)):
        on_front = p in front
        color = "#d62728" if p.name in PROPOSED else "#555555"
        parts.append(
            f"<circle cx='{sx(p.qc):.1f}' cy='{sy(p.delay):.1f}' r='4' "
            f"fill='{color}'/>"
        )
        parts.append(
            f"<text x='{sx(p.qc) + 6:.1f}' y='{sy(p.delay) - 6:.1f}' "
            f"font-size='10'>{display_name(p.name)}"
            + (" *" if on_front else "")
            + "</text>"
        )
    parts.append("</svg>")
    return "\n".join(parts)


# -- discrepancy report -------------------------------------------------------

# Published total-average improvement values for the four headline numbers.
PUBLISHED_TOTALS = {
    ("Dec-RCA", "qc"): Decimal("30.75"),
    ("Dec-CSK", "qc"): Decimal("-0.02"),
    ("Dec-RCA", "delay"): Decimal("43.07"),
    ("Dec-CSK", "delay"): Decimal("85.12"),
}

# Published per-N improvement columns of the two comparison tables.
PUBLISHED_PER_N = {
    ("Dec-RCA", "qc"): {n: Decimal("30.75") for n in TABLE_NS},
    ("Dec-CSK", "qc"): {n: Decimal("-0.02") for n in TABLE_NS},
    ("Dec-RCA", "delay"): {
        8: Decimal("41.18"),
        16: Decimal("42.55"),
        32: Decimal("43.28"),
        64: Decimal("43.63"),
        128: Decimal("43.89"),
        256: Decimal("43.92"),
    },
    ("Dec-CSK", "delay"): {
        8: Decimal("77.59"),
        16: Decimal("83.19"),
        32: Decimal("85.99"),
        64: Decimal("87.40"),
        128: Decimal("88.10"),
        256: Decimal("88.45"),
    },
}


def per_n_deltas() -> list[dict]:
    """Compare recomputed per-N improvement percentages with the published
    columns; returns one record per cell more than 0.01 apart."""
    out = []
    for (proposed, metric), published in PUBLISHED_PER_N.items():
        report = improvement(proposed, metric=metric)
        for n, printed in published.items():
            computed = round_half_up(report.per_n[n])
            if abs(computed - printed) > Decimal("0.01"):
                out.append(
                    {
                        "design": proposed,
                        "metric": metric,
                        "n": n,
                        "published": printed,
                        "computed": computed,
                    }
                )
    return out


# -- structural comparison ------------------------------------------------------

FIT_NS = range(1, 9)  # the digit counts every built adder is measured at

# Published figures of the proposed designs beyond MODELS, as
# {model: {scope: {figure: value}}}: scope "N=1" is the single-digit
# adder, any other scope one stage of it.
PUBLISHED_CELL = {
    "Dec-CSK": {
        "N=1": {"gc": 18},
        "addition": {"qc": 24},
        "correction": {"qc": 11},
        "detection": {"gc": 11, "qc": 30, "ci": 4, "go": 9},
    },
}


@lru_cache(maxsize=None)
def structural_figures(design: str) -> MappingProxyType[str, MetricReport]:
    """A registered adder's structural figures by scope: "N=n" for its
    n-digit build at each n of FIT_NS, and each stage of its single-digit
    build.  One arrival sweep per netlist; no netlist is kept."""
    splits = {n: metric_decomposition(designs.build_design(design, n)) for n in FIT_NS}
    fit = {f"N={n}": total(split.values()) for n, split in splits.items()}
    return MappingProxyType({**fit, **splits[1]})


def _line(values: dict[int, int]) -> str:
    """The line through a figure's values at N=2 and N=3, naming each N
    whose value is off it: "5N+49", "98N (off at N=5: 480)"."""
    slope = values[3] - values[2]
    intercept = values[2] - 2 * slope
    off = [f"N={n}: {v}" for n, v in values.items() if v != slope * n + intercept]
    return _formula(slope, intercept) + (f" (off at {', '.join(off)})" if off else "")


def structural_rows() -> list[list]:
    """The structural comparison table, header first.  Per adder of
    designs.ADDER_DESIGNS: each figure's line over N=2..8 against the
    published formula, the single-digit delay, and each PUBLISHED_CELL
    figure; "-" where nothing is published."""
    rows = [["design", "scope", "figure", "structural", "published"]]
    for design in designs.ADDER_DESIGNS:
        fit = structural_figures(design)
        model = next((name for name in PROPOSED if name.lower() == design), None)
        published = MODELS.get(model, {})
        for figure in ("gc", *METRICS):
            line = _line({n: getattr(fit[f"N={n}"], figure) for n in FIT_NS[1:]})
            formula = _formula(*published[figure]) if figure in published else "-"
            rows.append([design, f"N=2..{FIT_NS[-1]}", figure, line, formula])
        single = metric_value(model, "delay", 1) if model else "-"
        rows.append([design, "N=1", "delay", fit["N=1"].delay, single])
        for scope, cells in PUBLISHED_CELL.get(model, {}).items():
            for figure, value in cells.items():
                rows.append([design, scope, figure, getattr(fit[scope], figure), value])
    return rows


def structural_discrepancy_report() -> str:
    """Markdown report: the built adders' structural figures against the
    published ones (structural_rows), then the known published-value
    deltas.  Comparison tables themselves always use the published
    formulas."""
    lines = [
        "## Structural analysis vs published formulas",
        "",
        *render_rows(structural_rows(), "md").splitlines(),
        "",
        "## Published-value notes",
        "",
    ]
    lines.append(
        "- The published prose calls the carry-skip total quantum-cost "
        "change a 2% enhancement; the reproduced table value is -0.02 "
        "(a 0.02% increase).  The table value is what this package reports."
    )
    deltas = per_n_deltas()
    if deltas:
        lines.append(
            "- Recomputing the per-N improvement columns from the published "
            "integer cells disagrees with the published percentage in "
            f"{len(deltas)} cell(s); the published cells appear to be "
            "arithmetic slips:"
        )
        for d in deltas:
            lines.append(
                f"    - {d['design']} {d['metric']} N={d['n']}: published "
                f"{d['published']}, recomputed {d['computed']}"
            )
    lines.append(
        "- The sum-to-9 propagate condition is implemented with the guarded "
        "p3 term (see decimal_propagate); the unguarded variant also fires "
        "on digit pairs summing to 11, 13, or 15 and would corrupt the "
        "carry select for those pairs."
    )
    return "\n".join(lines) + "\n"
