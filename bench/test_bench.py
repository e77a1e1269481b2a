"""Tests of the benchmark itself: every workload at a tiny size, span
nesting in the traced run, oracle failures, and the output contract.

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run as runner  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from revbcd import designs, verify  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

TINY = {
    "verify-sampled": dict(samples=3),
    "ledger-fold": dict(rows=40, groups=7),
    "analyze-wide": dict(digits=4),
    "simulate-wide": dict(digits=16),
}


def make(name: str, tmp_path: Path, seed: int = 5):
    workload = workloads.WORKLOADS[name](seed, **TINY[name])
    workload.setup(tmp_path)
    return workload


def traced_cycle(workload) -> tuple[tracing.Tracer, list]:
    tracer = tracing.Tracer()
    tracer.install()
    try:
        ops = list(workload.cycle())
    finally:
        tracer.uninstall()
    return tracer, ops


def test_workload_names_match_the_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)
    assert sorted(TINY) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_passes_its_oracles(name, tmp_path):
    workload = make(name, tmp_path)
    ops = list(workload.cycle()) + list(workload.final_checks())
    assert ops and all(op.ok for op in ops), [(op.step, op.ok) for op in ops]
    assert any(op.step == workload.main_step and op.items for op in ops)


def test_loop_times_every_call_against_the_reference(tmp_path):
    cycles = runner._loop(make("simulate-wide", tmp_path), 0.05)
    ops = [op for ops in cycles for op in ops]
    assert ops and all(op.ref > 0 and op.refs == op.seconds / op.ref for op in ops)


def test_same_seed_same_inputs(tmp_path):
    for sub in ("a", "b", "c"):
        (tmp_path / sub).mkdir()
    first = make("ledger-fold", tmp_path / "a")
    second = make("ledger-fold", tmp_path / "b")
    other = make("ledger-fold", tmp_path / "c", seed=6)
    data = [(tmp_path / sub / "transactions.csv").read_bytes() for sub in "abc"]
    assert first.expected == second.expected and data[0] == data[1]
    assert other.expected != first.expected and data[2] != data[0]


def test_wrong_ledger_total_counts_as_failure(tmp_path):
    workload = make("ledger-fold", tmp_path)
    group = next(iter(workload.expected))
    workload.expected[group] += 1
    assert [op.ok for op in workload.cycle()] == [False, False]


def test_wrong_recorded_stage_split_counts_as_failure(tmp_path, monkeypatch):
    key = ("dec-csk", TINY["analyze-wide"]["digits"])
    wrong = dict(workloads.STAGE_SPLIT[key], correction=(0, 0, 0, 0, 0))
    monkeypatch.setitem(workloads.STAGE_SPLIT, key, wrong)
    ops = list(make("analyze-wide", tmp_path).cycle())
    # dec-rca's three calls come first; dec-csk's `metrics --stages` is fourth.
    assert [i for i, op in enumerate(ops) if not op.ok] == [3]


def test_wrong_critical_path_digest_counts_as_failure(tmp_path, monkeypatch):
    key = ("dec-rca", TINY["analyze-wide"]["digits"])
    monkeypatch.setitem(workloads.CRITICAL_PATH_SHA256, key, "0" * 64)
    ops = list(make("analyze-wide", tmp_path).final_checks())
    assert [op.ok for op in ops] == [False, True]


def test_exception_and_exit_code_count_as_failures():
    crash = workloads.timed("x", lambda: 1 / 0, lambda result: True)
    usage = workloads.timed(
        "x", lambda: workloads.run_cli(["build", "--design", "nope"]),
        workloads._cli_ok(lambda out: True),
    )
    assert not crash.ok and not usage.ok


@pytest.mark.parametrize("name", ["verify-sampled", "analyze-wide", "ledger-fold"])
def test_children_never_exceed_their_parent(name, tmp_path):
    tracer, ops = traced_cycle(make(name, tmp_path))
    assert all(op.ok for op in ops)
    assert tracer.spans
    children: dict[int, list[tuple[int, int]]] = {}
    for _, parent, _, start, end in tracer.spans:
        children.setdefault(parent, []).append((start, end))
    for span_id, _, name_, start, end in tracer.spans:
        kids = children.get(span_id, [])
        assert all(start <= a <= b <= end for a, b in kids), name_
        assert sum(b - a for a, b in kids) <= end - start, name_
    if not tracer.dropped:
        top = sum(end - start for _, parent, _, start, end in tracer.spans if parent == 0)
        assert tracer.self_sum_seconds() == pytest.approx(top / 1e9)


def test_tracing_reaches_reexports_and_dispatch_tables(tmp_path):
    tracer, ops = traced_cycle(make("simulate-wide", tmp_path))
    assert all(op.ok for op in ops)
    # cli imports bcd_add from ledger; the span must still appear.
    assert tracer.calls["ledger.bcd_add"] == 1
    assert tracer.calls["simulator.run_state"] == 1
    tracer, _ = traced_cycle(make("verify-sampled", tmp_path))
    assert tracer.calls["verify.verify_adders"] == 1  # called via verify.SCOPES


def test_uninstall_restores_every_original():
    originals = (verify.SCOPES["adders"][0], designs.DESIGN_BUILDERS["dec-rca"],
                 verify.verify_adders, designs.build_dec_rca)
    tracer = tracing.Tracer()
    tracer.install()
    assert verify.SCOPES["adders"][0] is verify.verify_adders is not originals[2]
    tracer.uninstall()
    assert (verify.SCOPES["adders"][0], designs.DESIGN_BUILDERS["dec-rca"],
            verify.verify_adders, designs.build_dec_rca) == originals


def test_layer_values_cover_the_spec(tmp_path):
    workload = make("ledger-fold", tmp_path)
    tracer, ops = traced_cycle(workload)
    values = tracing.layer_values(tracer, 1, 0, 0, sum(op.seconds for op in ops), 0.0)
    assert sorted(values) == sorted(m["name"] for m in SPEC["per_layer"])
    # one cycle sums the CSV once per adder design
    assert values["ledger.additions"] == 2 * (workload.rows - len(workload.expected))


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.splitlines()[-1])


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_command_prints_every_metric(trace, key):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "simulate-wide", "--seed", "1",
         "--seconds", "0.3", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    if key == "end_to_end":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ledger-fold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
