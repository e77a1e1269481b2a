"""Cost models, table reproduction, improvements, Pareto analysis."""

from decimal import Decimal
from fractions import Fraction

import pytest

from revbcd.costs import (
    FIT_NS,
    METRICS,
    MODELS,
    TABLE_NS,
    CostPoint,
    cost_table,
    improvement,
    metric_value,
    pareto_front,
    pareto_points,
    per_n_deltas,
    render_svg,
    render_table,
    _line,
    round_half_up,
    structural_discrepancy_report,
    structural_figures,
    structural_rows,
)
from revbcd.designs import ADDER_DESIGNS, build_design
from revbcd.metrics import metric_decomposition, structural_metrics
from revbcd.cli import main
from revbcd.errors import InvalidArgumentError

from published_data import DELAY_TABLE, QC_TABLE


class TestModels:
    def test_ripple_at_eight(self):
        ci, go, qc, delay = (metric_value("Dec-RCA", m, 8) for m in METRICS)
        assert (qc, delay) == (360, 210)
        assert (ci, go) == (64, 32)

    def test_reference_13_at_256(self):
        assert metric_value("[13]", "qc", 256) == 22528

    def test_carry_skip_delay_at_one(self):
        assert metric_value("Dec-CSK", "delay", 1) == 45

    def test_negative_intercepts(self):
        assert metric_value("[11]-design2", "go", 1) == 0  # go = N-1

    def test_bad_digit_count(self):
        with pytest.raises(InvalidArgumentError):
            metric_value("Dec-RCA", "qc", 0)

    def test_unknown_design(self):
        with pytest.raises(InvalidArgumentError):
            metric_value("nope", "qc", 8)

    def test_ten_models_registered(self):
        assert len(MODELS) == 10


class TestTables:
    @pytest.mark.parametrize("n", TABLE_NS)
    def test_qc_cells(self, n):
        assert tuple(cost_table("qc").row(n)) == QC_TABLE[n]

    @pytest.mark.parametrize("n", TABLE_NS)
    def test_delay_cells(self, n):
        assert tuple(cost_table("delay").row(n)) == DELAY_TABLE[n]

    def test_markdown_contains_cells(self):
        text = render_table(cost_table("delay"), "md")
        assert "| 8 | 320 | 456 | 432 | 496 | 320 | 248 | 210 | 80 |" in text
        assert "Total average" in text

    def test_csv_round_trips_rows(self):
        lines = render_table(cost_table("qc"), "csv").splitlines()
        assert lines[0].startswith("digit,[10],[11],")
        assert lines[1].split(",")[1:9] == [str(v) for v in QC_TABLE[8]]

    def test_empty_ns_rejected(self):
        with pytest.raises(InvalidArgumentError):
            cost_table("qc", ns=())


class TestImprovements:
    def test_ripple_qc_total(self):
        rep = improvement("Dec-RCA", metric="qc")
        assert abs(round_half_up(rep.average) - Decimal("30.75")) <= Decimal("0.01")

    def test_carry_skip_delay_total(self):
        rep = improvement("Dec-CSK", metric="delay")
        assert round_half_up(rep.average) == Decimal("85.12")

    def test_carry_skip_qc_total(self):
        rep = improvement("Dec-CSK", metric="qc")
        assert round_half_up(rep.average) == Decimal("-0.02")

    def test_ripple_delay_at_eight(self):
        rep = improvement("Dec-RCA", metric="delay")
        assert round_half_up(rep.per_n[8]) == Decimal("41.18")

    def test_repeated_digit_count_rejected(self):
        """A repeated N would count once in the average but show twice."""
        with pytest.raises(InvalidArgumentError, match=r"once, got \[8, 16, 8\]"):
            improvement("Dec-RCA", ns=(8, 16, 8))

    def test_exact_fractions(self):
        rep = improvement("Dec-RCA", metric="qc")
        # constant ratio across sizes: every per-N value equals the average
        assert set(rep.per_n.values()) == {rep.average}

    def test_known_published_slips(self):
        deltas = per_n_deltas()
        keys = {(d["design"], d["metric"], d["n"]) for d in deltas}
        assert keys == {
            ("Dec-RCA", "delay", 16),
            ("Dec-RCA", "delay", 128),
            ("Dec-RCA", "delay", 256),
        }


class TestRounding:
    def test_half_up(self):
        assert round_half_up(Fraction(1, 200)) == Decimal("0.01")
        assert round_half_up(Fraction(-1, 200)) == Decimal("-0.01")
        assert round_half_up(Fraction(30755, 1000)) == Decimal("30.76")


class TestPareto:
    def test_front_at_sixteen(self):
        front = pareto_front(pareto_points(16))
        assert [(p.name, p.qc, p.delay) for p in front] == [
            ("Dec-RCA", 720, 410),
            ("Dec-CSK", 1040, 120),
        ]

    @pytest.mark.parametrize("n", (16, 32, 64))
    def test_proposed_on_front(self, n):
        names = {p.name for p in pareto_front(pareto_points(n))}
        assert {"Dec-RCA", "Dec-CSK"} <= names

    def test_single_point(self):
        p = CostPoint("x", 8, 10, 10)
        assert pareto_front([p]) == [p]

    def test_equal_points_both_kept(self):
        pts = [CostPoint("x", 8, 10, 10), CostPoint("y", 8, 10, 10)]
        assert len(pareto_front(pts)) == 2

    def test_empty(self):
        assert pareto_front([]) == []

    def test_mixed_sizes_rejected(self):
        with pytest.raises(InvalidArgumentError):
            pareto_front([CostPoint("x", 8, 1, 1), CostPoint("y", 16, 2, 2)])

    @pytest.mark.parametrize("n", (16, 32, 64))
    def test_brute_force_soundness_and_completeness(self, n):
        points = pareto_points(n)
        front = pareto_front(points)
        front_keys = {(p.name, p.qc, p.delay) for p in front}

        def dominated(p):
            return any(
                q.qc <= p.qc
                and q.delay <= p.delay
                and (q.qc < p.qc or q.delay < p.delay)
                for q in points
            )

        for p in points:
            if (p.name, p.qc, p.delay) in front_keys:
                assert not dominated(p)
            else:
                assert dominated(p)

    def test_tsv_flags(self, capsys):
        assert main(["pareto", "--digits", "16", "--format", "tsv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "n\tqc\tdelay\tname\ton_front"
        rows = [line.split("\t") for line in lines[1:]]
        assert {row[0] for row in rows} == {"16"}
        flags = {row[3]: row[4] for row in rows}
        assert flags["Dec-RCA"] == "1" and flags["Dec-CSK"] == "1"
        assert flags["[13]"] == "0"

    def test_svg_is_well_formed(self):
        import xml.etree.ElementTree as ET

        points = pareto_points(16)
        svg = render_svg(points, pareto_front(points))
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        assert len(svg) > 500


def cells_by_key(rows):
    """structural_rows() body as {(design, scope, figure): (structural, published)}."""
    return {tuple(row[:3]): tuple(row[3:]) for row in rows[1:]}


class TestDiscrepancyReport:
    ROWS = [
        ["design", "scope", "figure", "structural", "published"],
        ["dec-rca", "N=2..8", "gc", "10N", "-"],
        ["dec-rca", "N=2..8", "ci", "8N", "8N"],
        ["dec-rca", "N=2..8", "go", "4N", "4N"],
        ["dec-rca", "N=2..8", "qc", "45N", "45N"],
        ["dec-rca", "N=2..8", "delay", "25N+10", "25N+10"],
        ["dec-rca", "N=1", "delay", 35, 35],
        ["dec-csk", "N=2..8", "gc", "32N", "-"],
        ["dec-csk", "N=2..8", "ci", "19N", "10N"],
        ["dec-csk", "N=2..8", "go", "15N", "12N"],
        ["dec-csk", "N=2..8", "qc", "98N", "65N"],
        ["dec-csk", "N=2..8", "delay", "5N+49", "5N+40"],
        ["dec-csk", "N=1", "delay", 51, 45],
        ["dec-csk", "N=1", "gc", 32, 18],
        ["dec-csk", "addition", "qc", 24, 24],
        ["dec-csk", "correction", "qc", 11, 11],
        ["dec-csk", "detection", "gc", 25, 11],
        ["dec-csk", "detection", "qc", 63, 30],
        ["dec-csk", "detection", "ci", 12, 4],
        ["dec-csk", "detection", "go", 12, 9],
    ]

    def test_report_contents(self):
        assert structural_rows() == self.ROWS
        text = structural_discrepancy_report()
        assert "| dec-csk | N=2..8 | delay | 5N+49 | 5N+40 |" in text
        assert "42.55" in text and "42.58" in text
        assert "2% enhancement" in text

    def test_fit_matches_structural_metrics(self):
        """Every figure of the cached fit is what the netlist's own
        structural_metrics and stage split give."""
        for design in ADDER_DESIGNS:
            fit = structural_figures(design)
            for n in FIT_NS:
                assert fit[f"N={n}"] == structural_metrics(build_design(design, n))
            for stage, split in metric_decomposition(build_design(design, 1)).items():
                assert fit[stage] == split

    def test_line_names_each_n_off_it(self):
        assert _line({2: 10, 3: 15, 4: 20}) == "5N"
        assert _line({2: 59, 3: 64, 4: 70, 5: 74}) == "5N+49 (off at N=4: 70)"
        assert _line({2: 1, 3: 1, 4: 0}) == "0N+1 (off at N=4: 0)"

    def test_published_figures_are_data(self, monkeypatch):
        """The published cells come from costs.PUBLISHED_CELL when the rows
        are made, for any registered adder, not from the cached fit."""
        from revbcd import costs

        monkeypatch.setattr(
            costs,
            "PUBLISHED_CELL",
            {
                "Dec-CSK": {"N=1": {"gc": 17}, "addition": {"qc": 20}},
                "Dec-RCA": {"correction": {"go": 2}},
            },
        )
        costs.structural_figures.cache_clear()
        cells = cells_by_key(structural_rows())
        assert cells[("dec-csk", "N=1", "gc")] == (32, 17)
        assert cells[("dec-csk", "addition", "qc")] == (24, 20)
        assert cells[("dec-rca", "correction", "go")] == (3, 2)
        assert ("dec-csk", "detection", "qc") not in cells
        text = structural_discrepancy_report()
        assert "| dec-rca | correction | go | 3 | 2 |" in text

    def test_builds_and_measures_each_netlist_once(self, monkeypatch):
        """The fit builds each (design, N) once per process, with one
        arrival profile per netlist; a second report builds nothing."""
        from revbcd import costs, designs, metrics

        calls = []

        def count(module, name):
            original = getattr(module, name)

            def wrapper(*args):
                calls.append((name, args))
                return original(*args)

            monkeypatch.setattr(module, name, wrapper)

        count(designs, "build_design")
        count(metrics, "arrival_profile")
        costs.structural_figures.cache_clear()
        structural_discrepancy_report()
        builds = sorted(args for name, args in calls if name == "build_design")
        assert builds == [(d, n) for d in sorted(ADDER_DESIGNS) for n in FIT_NS]
        assert len(calls) == 2 * len(builds)  # one profile per built netlist
        calls.clear()
        structural_discrepancy_report()
        assert calls == []
