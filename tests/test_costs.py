"""Cost models, table reproduction, improvements, Pareto analysis."""

from decimal import Decimal
from fractions import Fraction

import pytest

from revbcd.costs import (
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
    round_half_up,
    structural_discrepancy_report,
)
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


class TestDiscrepancyReport:
    def test_report_contents(self):
        text = structural_discrepancy_report()
        assert "98N" in text and "65N" in text
        assert "intercept 49" in text and "published 40" in text
        assert "42.55" in text and "42.58" in text
        assert "2% enhancement" in text
        assert "qc=30" in text  # published detection budget

    def test_published_figures_are_data(self, monkeypatch):
        """The published digit gc and stage qc come from costs' data, and
        the stage line says "exactly" only while the built cell matches."""
        from revbcd import costs

        text = structural_discrepancy_report()
        assert "published per-digit totals are gc=18 " in text
        assert "match the published 24 and 11 exactly" in text
        monkeypatch.setattr(costs, "CSK_PUBLISHED_DIGIT_GC", 17)
        monkeypatch.setattr(
            costs, "CSK_PUBLISHED_STAGE_QC", {"addition": 20, "correction": 13}
        )
        text = structural_discrepancy_report()
        assert "published per-digit totals are gc=17 " in text
        assert "match the published" not in text
        assert "addition stage qc=24 vs published 20 (delta +4)" in text
        assert "correction stage qc=11 vs published 13 (delta -2)" in text

    def test_builds_and_measures_each_netlist_once(self, monkeypatch):
        from revbcd import designs, metrics

        calls = []

        def count(module, name):
            original = getattr(module, name)

            def wrapper(arg):
                calls.append((name, arg))
                return original(arg)

            monkeypatch.setattr(module, name, wrapper)

        count(designs, "build_dec_rca")
        count(designs, "build_dec_csk")
        count(metrics, "arrival_profile")
        structural_discrepancy_report()
        builds = sorted(call for call in calls if call[0] != "arrival_profile")
        assert builds == [("build_dec_csk", n) for n in range(1, 7)] + [
            ("build_dec_rca", 4)
        ]
        assert len(calls) == 2 * len(builds)  # one profile per built netlist
