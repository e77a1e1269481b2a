"""Cost models, comparison tables, improvement averages, Pareto fronts.

The published reference dataset covers eight prior reversible BCD adders
plus the two designs built by this package, each as affine functions of
the digit count N.  Comparison tables use the published formulas for all
ten columns, the two proposed designs included, so every integer cell of
the reference comparison is reproduced exactly.  The structurally
analyzed figures of the carry-skip build differ from its published
formulas; structural_discrepancy_report() lays the two side by side
rather than hiding the gap.

Percentages are computed in exact rational arithmetic and rounded half-up
to two decimals only for display and comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from fractions import Fraction

from .errors import InvalidArgumentError
from .metrics import structural_metrics

METRICS = ("ci", "go", "qc", "delay")


@dataclass(frozen=True)
class Affine:
    """slope*N + intercept with integer coefficients."""

    slope: int
    intercept: int = 0

    def __call__(self, n: int) -> int:
        return self.slope * n + self.intercept


@dataclass(frozen=True)
class BaselineModel:
    """Affine-in-N cost model (ci, go, qc, delay) for one named design."""

    name: str
    ci: Affine
    go: Affine
    qc: Affine
    delay: Affine

    def metric(self, metric: str) -> Affine:
        if metric not in METRICS:
            raise InvalidArgumentError(f"unknown metric {metric!r}")
        return getattr(self, metric)


def _m(name, ci, go, qc, delay):
    return BaselineModel(name, Affine(*ci), Affine(*go), Affine(*qc), Affine(*delay))


MODELS: dict[str, BaselineModel] = {
    m.name: m
    for m in (
        _m("[10]-design1", (11,), (16,), (58,), (40,)),
        _m("[10]-design2", (12,), (17,), (75,), (40,)),
        _m("[11]-design1", (2,), (2, -1), (88,), (73,)),
        _m("[11]-design2", (1,), (1, -1), (70,), (57,)),
        _m("[12]", (17,), (22,), (81,), (54,)),
        _m("[13]", (19,), (24,), (88,), (62,)),
        _m("[14]", (7,), (7,), (56,), (40,)),
        _m("[15]", (10,), (14,), (52,), (31,)),
        _m("Dec-RCA", (8,), (4,), (45,), (25, 10)),
        _m("Dec-CSK", (10,), (12,), (65,), (5, 40)),
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
        raise InvalidArgumentError(f"unknown design {name!r}")
    if n < 1:
        raise InvalidArgumentError("digit count must be at least 1")
    return MODELS[name].metric(metric)(n)


def evaluate_model(name: str, n: int) -> tuple[int, int, int, int]:
    """(ci, go, qc, delay) of a named model at digit count n."""
    return tuple(metric_value(name, m, n) for m in METRICS)


def round_half_up(value: Fraction | float, places: int = 2) -> Decimal:
    """Decimal rounding, ties away from zero, for display/comparison."""
    if isinstance(value, Fraction):
        dec = Decimal(value.numerator) / Decimal(value.denominator)
    else:
        dec = Decimal(repr(value))
    quantum = Decimal(1).scaleb(-places)
    return dec.quantize(quantum, rounding=ROUND_HALF_UP)


# -- improvement percentages -------------------------------------------------


@dataclass(frozen=True)
class ImprovementReport:
    """Exact per-pair, per-N, and overall average improvement fractions.

    Values are percentages as Fractions: 100*(baseline - proposed)/baseline,
    averaged over baselines per N, then over N for the total.
    """

    proposed: str
    metric: str
    per_pair: dict[tuple[str, int], Fraction]
    per_n: dict[int, Fraction]
    average: Fraction


def improvement(
    proposed: str,
    baselines: tuple[str, ...] = COMPARISON_BASELINES,
    ns: tuple[int, ...] = TABLE_NS,
    metric: str = "qc",
) -> ImprovementReport:
    if not ns:
        raise InvalidArgumentError("need at least one digit count")
    per_pair: dict[tuple[str, int], Fraction] = {}
    per_n: dict[int, Fraction] = {}
    for n in ns:
        ours = metric_value(proposed, metric, n)
        values = []
        for base in baselines:
            theirs = metric_value(base, metric, n)
            if theirs == 0:
                raise ZeroDivisionError(f"{base} {metric} is 0 at N={n}")
            frac = Fraction(100) * Fraction(theirs - ours, theirs)
            per_pair[(base, n)] = frac
            values.append(frac)
        per_n[n] = sum(values, Fraction(0)) / len(values)
    average = sum(per_n.values(), Fraction(0)) / len(per_n)
    return ImprovementReport(proposed, metric, per_pair, per_n, average)


# -- tables -------------------------------------------------------------------


@dataclass(frozen=True)
class CostTable:
    """One reproduced comparison table plus its improvement columns."""

    metric: str
    ns: tuple[int, ...]
    columns: tuple[str, ...]
    cells: dict[tuple[str, int], int]
    improvements: dict[str, ImprovementReport]

    def row(self, n: int) -> list[int]:
        return [self.cells[(c, n)] for c in self.columns]


def cost_table(
    metric: str,
    ns: tuple[int, ...] = TABLE_NS,
    columns: tuple[str, ...] = TABLE_COLUMNS,
) -> CostTable:
    if not ns:
        raise InvalidArgumentError("need at least one digit count")
    cells = {(c, n): metric_value(c, metric, n) for c in columns for n in ns}
    baselines = tuple(c for c in columns if c not in PROPOSED)
    improvements = {}
    if baselines:
        improvements = {
            p: improvement(p, baselines, tuple(ns), metric)
            for p in PROPOSED
            if p in columns
        }
    return CostTable(metric, tuple(ns), tuple(columns), cells, improvements)


def _table_rows(
    table: CostTable, impr_prefix: str, totals_label: str
) -> list[list[str]]:
    """Header, one row per digit count, then the average-improvement row."""
    reports = table.improvements.values()
    header = ["digit"] + [display_name(c) for c in table.columns]
    rows = [header + [f"{impr_prefix}{p}" for p in table.improvements]]
    for n in table.ns:
        rows.append(
            [str(n)]
            + [str(v) for v in table.row(n)]
            + [str(round_half_up(r.per_n[n])) for r in reports]
        )
    rows.append(
        [totals_label]
        + [""] * len(table.columns)
        + [str(round_half_up(r.average)) for r in reports]
    )
    return rows


def render_markdown(table: CostTable) -> str:
    header, *body = _table_rows(table, "% Impr ", "Total average")
    lines = ["| " + " | ".join(header) + " |"]
    lines.append("|" + "|".join(["---"] * len(header)) + "|")
    lines += ["| " + " | ".join(row) + " |" for row in body]
    return "\n".join(lines)


def render_csv(table: CostTable) -> str:
    rows = _table_rows(table, "impr_", "total_average")
    return "".join(",".join(row) + "\n" for row in rows)


# -- Pareto analysis ----------------------------------------------------------


@dataclass(frozen=True)
class CostPoint:
    name: str
    n: int
    qc: int
    delay: int


def pareto_points(
    n: int, columns: tuple[str, ...] = TABLE_COLUMNS
) -> list[CostPoint]:
    """(qc, delay) points of the comparison set at one digit count."""
    return [
        CostPoint(c, n, metric_value(c, "qc", n), metric_value(c, "delay", n))
        for c in columns
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


def render_points_tsv(points: list[CostPoint], front: list[CostPoint]) -> str:
    """Plot-ready rows: qc, delay, name, on_front (membership of `front`)."""
    lines = ["qc\tdelay\tname\ton_front"]
    for p in sorted(points, key=lambda p: (p.qc, p.delay, p.name)):
        flag = "1" if p in front else "0"
        lines.append(f"{p.qc}\t{p.delay}\t{display_name(p.name)}\t{flag}")
    return "\n".join(lines) + "\n"


def render_svg(
    points: list[CostPoint],
    front: list[CostPoint],
    width: int = 640,
    height: int = 440,
) -> str:
    """Minimal static scatter with the `front` polyline; no dependencies."""
    if not points:
        return "<svg xmlns='http://www.w3.org/2000/svg'/>"
    n = points[0].n
    margin = 60
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


def per_n_deltas(tolerance: Decimal = Decimal("0.01")) -> list[dict]:
    """Compare recomputed per-N improvement percentages with the published
    columns; returns one record per cell outside the tolerance."""
    out = []
    for (proposed, metric), published in PUBLISHED_PER_N.items():
        report = improvement(proposed, metric=metric)
        for n, printed in published.items():
            computed = round_half_up(report.per_n[n])
            if abs(computed - printed) > tolerance:
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


# Published figures for the carry-skip digit's detection stage.
CSK_PUBLISHED_DETECTION_BUDGET = {"gc": 11, "qc": 30, "ci": 4, "go": 9}


def structural_discrepancy_report() -> str:
    """Markdown report pinning the structural analyzer against the
    published per-digit formulas, plus the known published-value deltas.

    This is the first-class artifact for every figure the build achieves
    differently from the reference dataset; comparison tables themselves
    always use the published formulas.
    """
    from .designs import build_dec_csk, build_dec_rca
    from .metrics import arrival_profile, metric_decomposition

    lines = ["## Structural analysis vs published formulas", ""]

    rca = structural_metrics(build_dec_rca(4))
    lines.append(
        f"- Ripple design, structural (N=4): ci={rca.ci} go={rca.go} "
        f"qc={rca.qc} delay={rca.delay}; published formulas 8N/4N/45N/25N+10 "
        "agree exactly at every size."
    )

    sizes = (2, 3, 4, 5, 6)
    delays = {n: structural_metrics(build_dec_csk(n)).delay for n in sizes}
    slopes = {n: delays[n + 1] - delays[n] for n in sizes[:-1]}
    intercept = delays[2] - 10
    csk1 = build_dec_csk(1)
    profile = arrival_profile(csk1)
    m1 = structural_metrics(csk1, profile=profile)
    lines.append(
        f"- Carry-skip design, structural per digit: gc={m1.gc} ci={m1.ci} "
        f"go={m1.go} qc={m1.qc}; published per-digit totals are gc=18 ci=10 "
        f"go=12 qc=65.  Structural total qc is {m1.qc}N vs the published 65N "
        f"(delta {m1.qc - 65:+d} per digit)."
    )
    lines.append(
        f"- Carry-skip structural delay: slope {set(slopes.values()).pop() if len(set(slopes.values())) == 1 else slopes}"
        f" delta/digit for N >= 2 (published slope 5), intercept {intercept} "
        f"vs published 40 (delta {intercept - 40:+d}); single digit: "
        f"{m1.delay}."
    )
    dec = metric_decomposition(csk1, profile=profile)
    budget = CSK_PUBLISHED_DETECTION_BUDGET
    det = dec["detection"]
    lines.append(
        f"- Carry-skip detection stage, structural: gc={det.gc} qc={det.qc} "
        f"ci={det.ci} go={det.go}; published budget gc={budget['gc']} "
        f"qc={budget['qc']} ci={budget['ci']} go={budget['go']}.  The "
        "published budget does not accommodate a propagate network that "
        "restores both operands and a carry select fed entirely from "
        "carry-independent signals, so the achieved figures are published "
        "here instead of being forced."
    )
    lines.append(
        f"- Carry-skip addition stage qc={dec['addition'].qc} and correction "
        f"stage qc={dec['correction'].qc} match the published 24 and 11 "
        "exactly (the correction realizes its copy with a Feynman gate, "
        "which is what makes the published stage total 11 add up)."
    )
    lines.append("")
    lines.append("## Published-value notes")
    lines.append("")
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
