"""Acceptance suite: one test per acceptance criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion.  Criterion 7's per-size improvement columns contain three
published cells that are arithmetic slips relative to the published
integer cells themselves; test_c07_faithful_published_percentages asserts
the published numbers verbatim and is a strict expected failure, while
test_c07_table_reproduction checks every cell against the recomputed
values and requires the three deltas to be documented.
"""

import random
import time
from decimal import Decimal

import pytest

from revbcd import costs
from revbcd.designs import (
    build_correction,
    build_dec_csk,
    build_dec_rca,
    build_pdfa,
    build_scl,
    build_skip_block,
    build_skip_generator,
    decimal_propagate,
    skip_carry,
)
from revbcd.gates import ALL_KINDS, GateKind, gate_truth_table, is_bijective
from revbcd.ledger import CsvConfig, generate_synthetic_csv, ingest_csv, sum_ledger
from revbcd.metrics import (
    arrival_profile,
    metric_decomposition,
    structural_metrics,
)
from revbcd.netlist import deserialize, serialize
from revbcd.simulator import compile_netlist, run
from revbcd.verify import adder_sum

SEED = 20260808


def report(criterion, text):
    print(f"ACCEPTANCE {criterion}: PASS - {text}")


# Printed single-gate formulas, written independently of the gate library.
FORMULAS = {
    GateKind.NOT: lambda a: (1 - a,),
    GateKind.FG: lambda a, b: (a, a ^ b),
    GateKind.PG: lambda a, b, c: (a, a ^ b, (a and b) ^ c),
    GateKind.MF: lambda a, b, c: (
        a,
        ((1 - a) and b) ^ (a and (1 - c)),
        (a and b) ^ ((1 - a) and c),
    ),
    GateKind.HNG: lambda a, b, c, d: (
        a,
        b,
        a ^ b ^ c,
        ((a ^ b) and c) ^ (a and b) ^ d,
    ),
    GateKind.BJN: lambda a, b, c: (a, b, (a or b) ^ c),
    GateKind.DFG: lambda a, b, c: (a, a ^ b, a ^ c),
}


def test_c01_gate_fidelity():
    start = time.time()
    for kind in ALL_KINDS:
        formula = FORMULAS[kind]
        for inp, out in gate_truth_table(kind):
            assert out == formula(*inp), (kind, inp)
        assert is_bijective(kind)
    elapsed = time.time() - start
    assert elapsed < 1.0
    report("C01 gate-fidelity", f"7/7 gates match printed formulas, bijective ({elapsed:.3f}s)")


def test_c02_pdfa_functional():
    start = time.time()
    pdfa = build_pdfa()
    nines = run(pdfa, {"a0": 1, "a1": 0, "a2": 0, "a3": 1,
                       "b0": 1, "b1": 0, "b2": 0, "b3": 1, "cin": 0})
    pattern = "".join(
        str(nines.named[k]) for k in ("dC", "S3", "S2", "S1", "S0")
    )
    assert pattern == "11000"
    compiled = compile_netlist(pdfa)
    checked = 0
    for a in range(10):
        for b in range(10):
            for c in range(2):
                bits = {f"a{i}": (a >> i) & 1 for i in range(4)}
                bits |= {f"b{i}": (b >> i) & 1 for i in range(4)}
                res = compiled.run_labels(bits | {"cin": c})
                digit = sum(res.named[f"S{i}"] << i for i in range(4))
                assert digit == (a + b + c) % 10
                assert res.named["dC"] == int(a + b + c >= 10)
                assert res.restored_ok
                checked += 1
    elapsed = time.time() - start
    assert checked == 200 and elapsed < 1.0
    report("C02 pdfa-functional", f"200/200 exhaustive + 9+9 pattern 11000 ({elapsed:.3f}s)")


def test_c03_pdfa_metrics():
    pdfa = build_pdfa()
    m = structural_metrics(pdfa)
    assert (m.gc, m.ci, m.go, m.qc, m.delay) == (10, 8, 4, 45, 35)
    stages = metric_decomposition(pdfa)
    assert [stages[s].qc for s in ("addition", "detection", "correction")] == [24, 10, 11]
    assert [stages[s].delay for s in ("addition", "detection", "correction")] == [20, 5, 10]
    report("C03 pdfa-metrics", "gc/ci/go/qc/delay = 10/8/4/45/35, stages qc 24+10+11, delay 20+5+10")


def test_c04_ripple_formulas():
    for n in range(1, 9):
        m = structural_metrics(build_dec_rca(n))
        assert (m.qc, m.ci, m.go, m.delay) == (45 * n, 8 * n, 4 * n, 25 * n + 10), n
    nl = build_dec_rca(8)
    profile = arrival_profile(nl)
    copies = [
        i for i, g in enumerate(nl.gates)
        if g.kind == GateKind.FG and g.stage == "detection"
    ]
    arrivals = [profile.completions[i] for i in copies]
    assert arrivals == [25 * (j + 1) for j in range(8)]
    report("C04 ripple-formulas", "qc/ci/go/delay formulas exact for N=1..8; carry steps 25 per digit")


def test_c05_carry_skip_functional():
    start = time.time()
    rng = random.Random(SEED)
    assert adder_sum("dec-csk", 8, 88888889, 88888889)[:2] == (77777778, 1)
    assert adder_sum("dec-csk", 8, 88888889, 11111111)[:2] == (0, 1)
    per_n = 10_000
    for n in (2, 4, 8, 16):
        modulus = 10**n
        for _ in range(per_n):
            a = rng.randrange(modulus)
            b = rng.randrange(modulus)
            c = rng.randrange(2)
            want = ((a + b + c) % modulus, int(a + b + c >= modulus))
            got_rca = adder_sum("dec-rca", n, a, b, c)
            got_csk = adder_sum("dec-csk", n, a, b, c)
            assert got_rca[:2] == want and got_csk[:2] == want, (n, a, b, c)
            assert got_rca[2] and got_csk[2]
    elapsed = time.time() - start
    assert elapsed < 30.0
    report(
        "C05 carry-skip-functional",
        f"4x{per_n} seeded vectors match native and ripple bit-for-bit "
        f"+ both waveform vectors ({elapsed:.1f}s)",
    )


def test_c06_skip_condition_soundness():
    for da in range(10):
        for db in range(10):
            assert decimal_propagate(da, db) == int(da + db == 9)
    sg = compile_netlist(build_skip_generator())
    for da in range(10):
        for db in range(10):
            bits = {f"a{i}": (da >> i) & 1 for i in range(4)}
            bits |= {f"b{i}": (db >> i) & 1 for i in range(4)}
            assert sg.run_labels(bits).named["P"] == int(da + db == 9)
    rows = 0
    for p in (0, 1):
        for dc in (0, 1):
            for g in (0, 1):
                assert skip_carry(p, dc, g) == ((p and dc) or ((1 - p) and g))
                rows += 1
    assert rows == 8
    report("C06 skip-condition", "propagate sound on 100/100 pairs; carry select exact on 8/8 rows")


# Published percentage columns that are reproducible from the published
# integer cells (everything except the three documented slips).
_ERRATA_CELLS = {("Dec-RCA", "delay", 16), ("Dec-RCA", "delay", 128),
                 ("Dec-RCA", "delay", 256)}


def test_c07_table_reproduction():
    start = time.time()
    from published_data import DELAY_TABLE, QC_TABLE

    for metric, frozen in (("qc", QC_TABLE), ("delay", DELAY_TABLE)):
        table = costs.cost_table(metric)
        for n in costs.TABLE_NS:
            assert tuple(table.row(n)) == frozen[n], (metric, n)
    tol = Decimal("0.01")
    for (proposed, metric), published_total in costs.PUBLISHED_TOTALS.items():
        rep = costs.improvement(proposed, metric=metric)
        assert abs(costs.round_half_up(rep.average) - published_total) <= tol
    documented = {
        (d["design"], d["metric"], d["n"]) for d in costs.per_n_deltas()
    }
    assert documented == _ERRATA_CELLS
    for (proposed, metric), column in costs.PUBLISHED_PER_N.items():
        rep = costs.improvement(proposed, metric=metric)
        for n, published in column.items():
            computed = costs.round_half_up(rep.per_n[n])
            if (proposed, metric, n) in _ERRATA_CELLS:
                assert abs(computed - published) > tol  # the documented slips
            else:
                assert abs(computed - published) <= tol, (proposed, metric, n)
    elapsed = time.time() - start
    assert elapsed < 1.0
    report(
        "C07 table-reproduction",
        "all 96 integer cells exact; 4 totals within 0.01; 21/24 per-size "
        "percentages within 0.01, 3 published slips documented in the report",
    )


@pytest.mark.xfail(
    strict=True,
    reason="three published per-size delay percentages (42.55, 43.89, 43.92) "
    "are inconsistent with the published integer cells; recomputed values "
    "are 42.58, 43.80, 43.89 (see the structural discrepancy report)",
)
def test_c07_faithful_published_percentages():
    tol = Decimal("0.01")
    for (proposed, metric), column in costs.PUBLISHED_PER_N.items():
        rep = costs.improvement(proposed, metric=metric)
        for n, published in column.items():
            computed = costs.round_half_up(rep.per_n[n])
            assert abs(computed - published) <= tol, (proposed, metric, n)


def test_c08_pareto_claim():
    for n in (16, 32, 64):
        points = costs.pareto_points(n)
        front = costs.pareto_front(points)
        names = {p.name for p in front}
        assert {"Dec-RCA", "Dec-CSK"} <= names, n
        front_keys = {(p.name, p.qc, p.delay) for p in front}
        for p in points:
            dominated = any(
                q.qc <= p.qc and q.delay <= p.delay
                and (q.qc < p.qc or q.delay < p.delay)
                for q in points
            )
            assert ((p.name, p.qc, p.delay) in front_keys) == (not dominated)
    report("C08 pareto", "both designs on the front at N=16/32/64; front sound and complete")


def test_c09_carry_skip_delay_slope():
    delays = {n: structural_metrics(build_dec_csk(n)).delay for n in range(2, 9)}
    for n in range(2, 8):
        assert delays[n + 1] - delays[n] == 5, n
    intercept = delays[2] - 10
    assert all(delays[n] == 5 * n + intercept for n in delays)
    text = costs.structural_discrepancy_report()
    assert f"intercept {intercept}" in text and "published 40" in text
    assert f"delta {intercept - 40:+d}" in text
    report(
        "C09 carry-skip-delay",
        f"slope exactly 5 per digit for N=2..8; intercept {intercept} "
        f"(published 40, delta {intercept - 40:+d}) documented",
    )


def test_c10_carry_skip_structural_qc():
    stages = metric_decomposition(build_dec_csk(1))
    budget = costs.CSK_PUBLISHED_DETECTION_BUDGET
    detection_qc = stages["detection"].qc
    text = costs.structural_discrepancy_report()
    if detection_qc > budget["qc"]:
        assert f"qc={detection_qc}" in text and f"qc={budget['qc']}" in text
    total = structural_metrics(build_dec_csk(1)).qc
    for n in (2, 4):
        assert structural_metrics(build_dec_csk(n)).qc == total * n
    assert f"{total}N" in text and "65N" in text
    assert f"delta {total - 65:+d}" in text
    report(
        "C10 carry-skip-qc",
        f"detection stage qc {detection_qc} vs published budget "
        f"{budget['qc']}; total {total}N vs 65N, delta published in report",
    )


def test_c11_ledger_oracle(tmp_path):
    start = time.time()
    path = generate_synthetic_csv(tmp_path / "tx.csv", rows=2000, groups=800, seed=SEED)
    config = CsvConfig(group_column="client_id", amount_column="amount")
    records, diags = ingest_csv(path, config)
    assert diags.rows_read == 2000 and len(records) == 2000
    ledger_report = sum_ledger(records, design="dec-rca", width=16)
    assert ledger_report.verified
    assert ledger_report.totals == ledger_report.native
    assert ledger_report.additions == 2000 - ledger_report.groups
    elapsed = time.time() - start
    assert elapsed < 60.0
    report(
        "C11 ledger-oracle",
        f"{ledger_report.groups} groups all equal native sums; "
        f"{ledger_report.additions} simulated additions ({elapsed:.1f}s)",
    )


def test_c12_round_trip():
    builders = [
        build_scl,
        build_correction,
        build_skip_generator,
        build_skip_block,
        build_pdfa,
        lambda: build_dec_rca(1),
        lambda: build_dec_rca(8),
        lambda: build_dec_csk(1),
        lambda: build_dec_csk(8),
    ]
    for builder in builders:
        nl = builder()
        assert deserialize(serialize(nl)) == nl
    report("C12 round-trip", f"{len(builders)} built-in netlists serialize/deserialize to equality")
