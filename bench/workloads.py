"""The benchmark's four workloads and their oracles.

Each workload makes its inputs from a seed, prepares what a user's first
call needs (``setup``), and then runs cycles of calls through the user's
entry points: ``revbcd.cli.main(argv)`` in-process with its output
captured, and ``simulator.check_permutation`` as a library call.  Every
call is one operation: it is timed on its own and then checked, outside
the timed span, against an oracle the benchmark owns.  An operation fails
on a non-zero exit code, an exception, or any oracle mismatch.

The oracles never ask revbcd for the expected answer: native integer
arithmetic, the published closed-form metrics, and values recorded from
the program at the commit that introduced the benchmark (stage splits
and SHA-256 digests) are kept here as data.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import random
import re
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

from revbcd import cli, designs, ledger, metrics, simulator

ADDERS = ("dec-rca", "dec-csk")


@dataclass
class Op:
    """One timed call and whether its output passed the oracle.

    `ref` is the time of the reference computation measured around the
    call (see run.py); `seconds / ref` is the call's time in reference units.
    """

    step: str
    seconds: float
    ok: bool
    items: int = 0
    ref: float = 0.0

    @property
    def refs(self) -> float:
        return self.seconds / self.ref


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Call the CLI entry point in-process; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def timed(step: str, call, check, items: int = 0) -> Op:
    """Time `call()`, then judge its result with `check` outside the timing."""
    start = time.perf_counter()
    try:
        result = call()
    except Exception:  # a crash fails this operation, not the whole run
        return Op(step, time.perf_counter() - start, False, items)
    seconds = time.perf_counter() - start
    try:
        ok = bool(check(result))
    except Exception:  # a malformed output is a mismatch
        ok = False
    return Op(step, seconds, ok, items)


def _cli_ok(check):
    """Wrap a stdout check so a non-zero exit code fails first."""
    return lambda result: result[0] == 0 and check(result[1])


def median_ms(values: list[float]) -> float:
    return statistics.median(values) * 1e3


class Workload:
    """Defaults shared by the workloads below."""

    name = ""
    main_step = ""  # the step whose items give `items_per_s`

    def setup(self, work_dir: Path) -> None:
        """Prepare what the first timed call needs; runs before the clock."""

    def final_checks(self):
        """Untimed operations checked once per run, after the timed loop."""
        return ()


# -- verify-sampled -------------------------------------------------------------

VERIFY_SIZES = (2, 4, 8, 16)  # the digit counts `verify --scope adders` samples
VERIFY_SCOPES = 5  # gates, pdfa, propagate, metrics, adders


class VerifySampled(Workload):
    """Many scalar additions at small N through pack, gates, unpack, oracle,
    plus one narrow exhaustive bijectivity sweep (2^17 states)."""

    name = "verify-sampled"
    main_step = "verify"

    def __init__(self, seed: int, samples: int = 1000):
        self.rng = random.Random(seed)
        self.samples = samples

    def setup(self, work_dir: Path) -> None:
        for n in VERIFY_SIZES:
            for design in ADDERS:
                simulator.compile_netlist(designs.build_design(design, n))
        simulator.compile_netlist(designs.build_pdfa())

    def check_verify(self, out: str) -> bool:
        lines = out.splitlines()
        vectors = f"{len(VERIFY_SIZES) * self.samples}/{len(VERIFY_SIZES) * self.samples}"
        return (
            len(lines) == VERIFY_SCOPES
            and all(line.startswith("PASS ") for line in lines)
            and any(line.startswith("PASS adders:") and vectors in line for line in lines)
        )

    def cycle(self):
        seed = self.rng.randrange(2**31)
        argv = ["verify", "--scope", "all", "--seed", str(seed),
                "--samples", str(self.samples)]
        yield timed(
            "verify",
            lambda: run_cli(argv),
            _cli_ok(self.check_verify),
            items=len(ADDERS) * len(VERIFY_SIZES) * self.samples,
        )
        yield timed(
            "check_permutation",
            lambda: simulator.check_permutation(designs.build_pdfa()),
            lambda bijective: bijective is True,
            items=1 << 17,
        )

    def figures(self, cycles: list[list[Op]]) -> dict:
        return {
            "verify.vectors_per_s": (rate(cycles, "verify"), "1/s"),
            "verify.states_per_s": (rate(cycles, "check_permutation"), "1/s"),
        }


# -- ledger-fold ----------------------------------------------------------------


class LedgerFold(Workload):
    """Many short per-group folds of small-N additions plus CSV parsing."""

    name = "ledger-fold"
    main_step = "ledger"

    width = 16

    def __init__(self, seed: int, rows: int = 2000, groups: int = 800):
        self.seed = seed
        self.rows = rows
        self.groups = groups
        self.expected: dict[str, int] = {}

    def setup(self, work_dir: Path) -> None:
        self.csv_path = work_dir / "transactions.csv"
        self.expected = write_ledger_csv(self.csv_path, self.seed, self.rows, self.groups)
        zero = ledger.encode(0, self.width)
        for design in ADDERS:
            ledger.bcd_add(zero, zero, design)

    def check_ledger(self, out: str) -> bool:
        lines = out.splitlines()
        if not lines or lines[0] != "group,total_cents":
            return False
        summary = json.loads(lines[-1])
        totals = {}
        for line in lines[1:-1]:
            group, total = line.split(",")
            totals[group] = int(total)
        return (
            totals == self.expected
            and summary["rows_read"] == self.rows
            and summary["rows_skipped"] == 0
            and summary["groups"] == len(self.expected)
            and summary["additions"] == self.rows - len(self.expected)
            and summary["mismatches"] == 0
        )

    def cycle(self):
        for design in ADDERS:
            argv = ["ledger", "--csv", str(self.csv_path), "--group-col", "client_id",
                    "--amount-col", "amount", "--design", design,
                    "--width", str(self.width), "--format", "csv"]
            yield timed("ledger", lambda: run_cli(argv), _cli_ok(self.check_ledger),
                        items=self.rows)

    def figures(self, cycles: list[list[Op]]) -> dict:
        return {"ledger.rows_per_s": (rate(cycles, "ledger"), "1/s")}


def write_ledger_csv(path: Path, seed: int, rows: int, groups: int) -> dict[str, int]:
    """Write a transactions CSV in the documented format; return the native
    per-group totals in cents.  Amounts are bare, `$`-prefixed or negative;
    the ledger sums negative amounts by magnitude."""
    rng = random.Random(seed)
    expected: dict[str, int] = {}
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["client_id", "date", "amount"])
        for _ in range(rows):
            client = f"client{rng.randrange(groups):04d}"
            date = f"2024-{rng.randrange(1, 13):02d}-{rng.randrange(1, 29):02d}"
            cents = rng.randrange(1, 1_000_000)
            text = f"{cents // 100}.{cents % 100:02d}"
            text = ("", "$", "-")[rng.randrange(3)] + text
            writer.writerow([client, date, text])
            expected[client] = expected.get(client, 0) + cents
    return expected


# -- analyze-wide ---------------------------------------------------------------


def published_structure(design: str, n: int) -> tuple[int, int, int, int, int]:
    """gc, ci, go, qc, delay of the built designs, in closed form."""
    if design == "dec-rca":
        return (10 * n, 8 * n, 4 * n, 45 * n, 25 * n + 10)
    return (32 * n, 19 * n, 15 * n, 98 * n, 5 * n + 49)


# Published comparison-table formulas for the two proposed designs.
PUBLISHED_TABLE = {
    ("qc", "Dec-RCA"): lambda n: 45 * n,
    ("qc", "Dec-CSK"): lambda n: 65 * n,
    ("delay", "Dec-RCA"): lambda n: 25 * n + 10,
    ("delay", "Dec-CSK"): lambda n: 5 * n + 40,
}
TABLE_NS = (8, 16, 32, 64, 128, 256)
PARETO_FRONT = "front: Dec-RCA, Dec-CSK"
PARETO_NS = 3  # `pareto` reports N = 16, 32, 64 by default

# Recorded from the program when the benchmark was introduced: per-stage
# (gc, ci, go, qc, delay), and SHA-256 of the critical-path gate list (as
# comma-joined indices) and of the serialized netlist bytes.
STAGE_SPLIT = {
    ("dec-rca", 4): {"addition": (16, 16, 0, 96, 80), "detection": (12, 8, 4, 40, 20),
                     "correction": (12, 8, 12, 44, 10)},
    ("dec-csk", 4): {"addition": (16, 20, 0, 96, 15), "detection": (100, 48, 48, 252, 48),
                     "correction": (12, 8, 12, 44, 6)},
    ("dec-rca", 512): {"addition": (2048, 2048, 0, 12288, 10240),
                       "detection": (1536, 1024, 512, 5120, 2560),
                       "correction": (1536, 1024, 1536, 5632, 10)},
    ("dec-csk", 512): {"addition": (2048, 2560, 0, 12288, 15),
                       "detection": (12800, 6144, 6144, 32256, 2588),
                       "correction": (1536, 1024, 1536, 5632, 6)},
}
CRITICAL_PATH_SHA256 = {
    ("dec-rca", 4): "9feaaacdb1ab3a8f2b4e4ab1393c9aa5acc9afff5d9808c717e0ddc2c0fd0cab",
    ("dec-csk", 4): "57f1b8c09bc76afb48ab484b91f10213429b953632b492b95607f2a10d70e118",
    ("dec-rca", 512): "53ce844637e17763d6e57172540528695f2e87dafdc04259908962b0d6d8bb36",
    ("dec-csk", 512): "356d12647b992c0705fd9fced9decb8c7b5cc395c6cc62b8858d98e720d3d44b",
}
NETLIST_SHA256 = {
    ("dec-rca", 4): "32413452eec353b81adac3fec711c874524e541939c94904ddd00822cc98ee8f",
    ("dec-csk", 4): "97b2862d23e66550068028357c5086b4a933df7d5df1ae0ba17c5c50698bb4bb",
    ("dec-rca", 512): "a552fdb685ac4699a61391a48bf462a1b57b7234ed7541c3c99c0a56a5ec57cc",
    ("dec-csk", 512): "b19be399c98c1204449098278a7d1eb011f02f7f0dcf17ad1a984002a9f08268",
}

_REPORT_RE = re.compile(r"gc=(\d+) ci=(\d+) go=(\d+) qc=(\d+) delay=(\d+)")


def _metrics_rows(out: str) -> dict[str, tuple[int, ...]]:
    """Parse `metrics --format csv` output into scope -> figures."""
    lines = out.splitlines()
    if lines[0] != "scope,gc,ci,go,qc,delay":
        raise ValueError("unexpected metrics header")
    rows = {}
    for line in lines[1:]:
        scope, *values = line.split(",")
        rows[scope] = tuple(int(v) for v in values)
    return rows


def _table_cells(out: str) -> dict[tuple[str, int], int]:
    """Parse the markdown comparison table into (column, N) -> cell."""
    header = None
    cells = {}
    for line in out.splitlines():
        if not line.startswith("| "):
            continue
        parts = [p.strip() for p in line.strip("|").split("|")]
        if parts[0] == "digit":
            header = parts
        elif header and parts[0].isdigit():
            for column, value in zip(header[1:], parts[1:]):
                if value.lstrip("-").isdigit():
                    cells[(column, int(parts[0]))] = int(value)
    return cells


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class AnalyzeWide(Workload):
    """Structural analysis at large N: the critical-path walk, repeated
    arrival profiles, JSON I/O and building.  No simulation."""

    name = "analyze-wide"
    main_step = "design"

    def __init__(self, seed: int, digits: int = 512):
        # The inputs are fixed: the seed is only recorded with the result.
        if not all((d, digits) in STAGE_SPLIT for d in ADDERS):
            raise ValueError(f"no recorded oracle values for {digits} digits")
        self.digits = digits

    def setup(self, work_dir: Path) -> None:
        self.work_dir = work_dir

    def check_stages(self, design: str, out: str) -> bool:
        rows = _metrics_rows(out)
        want = dict(STAGE_SPLIT[(design, self.digits)])
        want["total"] = published_structure(design, self.digits)
        return rows == want

    def check_build(self, design: str, path: Path, out: str) -> bool:
        found = _REPORT_RE.search(out)
        figures = tuple(int(g) for g in found.groups())
        digest = sha256(path.read_bytes())
        return (
            figures == published_structure(design, self.digits)
            and digest == NETLIST_SHA256[(design, self.digits)]
        )

    def check_total(self, design: str, out: str) -> bool:
        return _metrics_rows(out) == {"total": published_structure(design, self.digits)}

    def check_compare(self, metric: str, out: str) -> bool:
        cells = _table_cells(out)
        return all(
            cells.get((column, n)) == PUBLISHED_TABLE[(metric, column)](n)
            for (m, column) in PUBLISHED_TABLE
            if m == metric
            for n in TABLE_NS
        )

    @staticmethod
    def check_pareto(out: str) -> bool:
        fronts = [line for line in out.splitlines() if line.startswith("front:")]
        return fronts == [PARETO_FRONT] * PARETO_NS

    def cycle(self):
        digits = str(self.digits)
        for design in ADDERS:
            path = self.work_dir / f"{design}-{digits}.json"
            yield timed(
                "design",
                lambda: run_cli(["metrics", "--design", design, "--digits", digits,
                                 "--stages", "--format", "csv"]),
                _cli_ok(lambda out: self.check_stages(design, out)),
                items=published_structure(design, self.digits)[0],
            )
            yield timed(
                "design",
                lambda: run_cli(["build", "--design", design, "--digits", digits,
                                 "--out", str(path)]),
                _cli_ok(lambda out: self.check_build(design, path, out)),
            )
            yield timed(
                "design",
                lambda: run_cli(["metrics", "--netlist", str(path), "--format", "csv"]),
                _cli_ok(lambda out: self.check_total(design, out)),
            )
        for metric in ("qc", "delay"):
            yield timed(
                "compare",
                lambda: run_cli(["compare", "--metric", metric]),
                _cli_ok(lambda out: self.check_compare(metric, out)),
            )
        yield timed("compare", lambda: run_cli(["pareto"]), _cli_ok(self.check_pareto))

    def final_checks(self):
        """The critical-path digest, checked once per run, untimed."""
        for design in ADDERS:
            netlist = designs.build_design(design, self.digits)
            yield timed(
                "critical_path",
                lambda: metrics.critical_path(netlist),
                lambda path: sha256(",".join(map(str, path)).encode())
                == CRITICAL_PATH_SHA256[(design, self.digits)],
            )

    def figures(self, cycles: list[list[Op]]) -> dict:
        # One design's sequence is three consecutive "design" calls.
        sequences = []
        for ops in cycles:
            steps = [op.seconds for op in ops if op.step == "design"]
            sequences += [sum(steps[i:i + 3]) for i in range(0, len(steps), 3)]
        compare = [sum(op.seconds for op in ops if op.step == "compare") for ops in cycles]
        return {
            "analyze.p50_s": (statistics.median(sequences), "s"),
            "compare.p50_ms": (median_ms(compare), "ms"),
        }


# -- simulate-wide --------------------------------------------------------------


_SIM_RE = re.compile(r"^\s*(sum|carry)\s*=\s*(\d+)$", re.MULTILINE)


class SimulateWide(Workload):
    """One vector through a very wide adder: codec glue against gates."""

    name = "simulate-wide"
    main_step = "simulate"

    design = "dec-csk"

    def __init__(self, seed: int, digits: int = 1024):
        self.rng = random.Random(seed)
        self.digits = digits

    def setup(self, work_dir: Path) -> None:
        zero = ledger.encode(0, self.digits)
        ledger.bcd_add(zero, zero, self.design)

    def cycle(self):
        a = self.rng.randrange(10**self.digits)
        b = self.rng.randrange(10**self.digits)
        argv = ["simulate", "--design", self.design, "--digits", str(self.digits),
                "--a", str(a), "--b", str(b)]
        want = {"sum": (a + b) % 10**self.digits, "carry": (a + b) // 10**self.digits}
        yield timed(
            "simulate",
            lambda: run_cli(argv),
            _cli_ok(lambda out: {k: int(v) for k, v in _SIM_RE.findall(out)} == want),
            items=1,
        )

    def figures(self, cycles: list[list[Op]]) -> dict:
        latencies = sorted(op.seconds for ops in cycles for op in ops)
        p99 = latencies[min(len(latencies) - 1, int(0.99 * len(latencies)))]
        return {
            "simulate.p50_ms": (median_ms(latencies), "ms"),
            "simulate.p99_ms": (p99 * 1e3, "ms"),
        }


def rate(cycles: list[list[Op]], step: str, in_refs: bool = False) -> float:
    """Median over cycles of one step's items per second (or per reference
    unit) spent in that step's calls."""
    rates = []
    for ops in cycles:
        mine = [op for op in ops if op.step == step]
        spent = sum(op.refs if in_refs else op.seconds for op in mine)
        rates.append(sum(op.items for op in mine) / spent)
    return statistics.median(rates)


WORKLOADS = {w.name: w for w in (VerifySampled, LedgerFold, AnalyzeWide, SimulateWide)}
