"""Command line front end.

Subcommands: build, simulate, verify, metrics, compare, pareto, ledger.
Exit codes: 0 success, 1 verification failure, 2 usage, 3 I/O,
4 overflow/capacity, 5 ledger mismatch.  Any other toolkit error (for
example metrics on a netlist without outputs, or a stage split of an
untagged one) is reported as a usage error, 2.  Randomized paths take --seed
(default from REVBCD_SEED) and are reproducible for a fixed seed.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from functools import lru_cache
from pathlib import Path

from . import costs, verify
from .designs import ADDER_DESIGNS, DESIGN_BUILDERS, build_design
from .errors import (
    CapacityError,
    InvalidArgumentError,
    LedgerFormatError,
    NetlistFormatError,
    RevbcdError,
    shown,
)
from .ledger import (
    DEFAULT_WIDTH,
    AdderPort,
    CsvConfig,
    bcd_add,
    decimal_text,
    ingest_csv,
    sum_ledger,
)
from .metrics import metric_decomposition, structural_metrics, total
from .netlist import deserialize, serialize

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_OVERFLOW = 4
EXIT_LEDGER = 5

# The widest adder any command builds or simulates, in digits.  A dec-csk
# netlist costs about 24 kB per digit, so this bounds what one argument
# can make the process allocate.
MAX_DIGITS = 10_000


def _default_seed() -> int:
    raw = os.environ.get("REVBCD_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise InvalidArgumentError(f"REVBCD_SEED must be an integer, got {shown(raw)}")


def _bounded(value: int) -> int:
    if value > MAX_DIGITS:
        count = value if value < 10**40 else f"a {len(str(value))}-digit count of"
        raise argparse.ArgumentTypeError(
            f"{count} digits exceeds the limit of {MAX_DIGITS}"
        )
    return value


def _int_list(text: str) -> list[int]:
    """A compare/pareto --digits list: ints of at most MAX_DIGITS each."""
    try:
        values = [int(part) for part in text.split(",") if part]
    except ValueError:
        values = []
    if not values:
        raise argparse.ArgumentTypeError(
            f"not a comma list of integers: {shown(text)}"
        )
    return [_bounded(value) for value in values]


def _int_value(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {shown(text)}")


def _digit_count(text: str) -> int:
    """A --digits or --width value: an int of at most MAX_DIGITS."""
    return _bounded(_int_value(text))


def _sample_count(text: str) -> int:
    """A verify --samples value: an int of at least 1, checked for every
    scope before any runs."""
    value = _int_value(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"samples must be at least 1, got {value}")
    return value


class _Parser(argparse.ArgumentParser):
    """An argument parser whose invalid-choice error names the value as
    `errors.shown` does, so an oversized value cannot flood stderr."""

    def _check_value(self, action, value):
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(map(repr, action.choices))
            raise argparse.ArgumentError(
                action, f"invalid choice: {shown(value)} (choose from {choices})"
            )


# Built on the first main() call and reused: a parser costs about 1.5 ms
# and leaves some hundred objects in reference cycles.  Every default is
# immutable, so no parse can change what the next one sees.
@lru_cache(maxsize=1)
def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="revbcd",
        description="Reversible BCD adder toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="build a design and emit its netlist")
    p_build.add_argument("--design", required=True, choices=sorted(DESIGN_BUILDERS))
    p_build.add_argument("--digits", type=_digit_count, default=1)
    p_build.add_argument("--out", type=Path, help="netlist file to write")

    p_sim = sub.add_parser("simulate", help="add two decimal operands")
    p_sim.add_argument("--design", default="dec-rca", choices=sorted(ADDER_DESIGNS))
    p_sim.add_argument("--a", required=True)
    p_sim.add_argument("--b", required=True)
    p_sim.add_argument("--cin", type=_int_value, default=0, choices=(0, 1))
    p_sim.add_argument(
        "--digits", type=_digit_count, help="digit width (default: fit operands)"
    )
    p_sim.add_argument(
        "--raw-bits",
        action="store_true",
        help="treat --a/--b as little-endian bit strings (4 per digit)",
    )

    p_verify = sub.add_parser("verify", help="run the oracle suites")
    p_verify.add_argument(
        "--scope",
        default="all",
        choices=("all", *verify.SCOPES),
    )
    p_verify.add_argument("--seed", type=_int_value, default=None)
    p_verify.add_argument("--samples", type=_sample_count, default=1000)

    p_metrics = sub.add_parser("metrics", help="report structural metrics")
    src = p_metrics.add_mutually_exclusive_group(required=True)
    src.add_argument("--design", choices=sorted(DESIGN_BUILDERS))
    src.add_argument("--netlist", type=Path, help="netlist file to analyze")
    p_metrics.add_argument("--digits", type=_digit_count, default=1)
    p_metrics.add_argument("--stages", action="store_true", help="per-stage split")
    p_metrics.add_argument("--format", default="md", choices=("md", "csv"))

    p_cmp = sub.add_parser("compare", help="reproduce the comparison tables")
    p_cmp.add_argument("--metric", default="qc", choices=("qc", "delay"))
    p_cmp.add_argument("--digits", type=_int_list, default=tuple(costs.TABLE_NS))
    p_cmp.add_argument("--format", default="md", choices=("md", "csv"))
    p_cmp.add_argument(
        "--no-structural",
        action="store_true",
        help="omit the structural-deltas report section (md output only; "
        "csv output is the comparison table alone)",
    )

    p_par = sub.add_parser("pareto", help="cost/delay trade-off points and front")
    p_par.add_argument("--digits", type=_int_list, default=(16, 32, 64))
    p_par.add_argument("--format", default="md", choices=("md", "tsv"))
    p_par.add_argument(
        "--svg-dir", type=Path, help="write pareto-N<digits>.svg files here"
    )

    p_led = sub.add_parser("ledger", help="sum a transactions CSV per group")
    p_led.add_argument("--csv", type=Path, required=True)
    p_led.add_argument("--group-col", required=True)
    p_led.add_argument("--amount-col", required=True)
    p_led.add_argument("--design", default="dec-rca", choices=sorted(ADDER_DESIGNS))
    p_led.add_argument("--width", type=_digit_count, default=DEFAULT_WIDTH)
    p_led.add_argument("--delimiter", default=",")
    p_led.add_argument("--lenient", action="store_true", help="skip bad rows")
    p_led.add_argument("--format", default="md", choices=("md", "csv"))

    return parser


def cmd_build(args) -> int:
    netlist = build_design(args.design, args.digits)
    if args.out:
        args.out.write_text(serialize(netlist), encoding="utf-8")
        print(f"wrote {args.out}")
    report = structural_metrics(netlist)
    print(f"{args.design} digits={args.digits}: {report}")
    return EXIT_OK


# The integer literals int() accepts, signs included.  Operands go through
# the codec's digit strings rather than int()/str(), which CPython refuses
# beyond 4300 digits.
_DECIMAL_RE = re.compile(r"\s*([+-]?)(\d+(?:_\d+)*)\s*")


def _stripped(digits: str) -> str:
    """A digit string without leading zeros ("0" for zero)."""
    return digits.lstrip("0") or "0"


def _parse_operands(args) -> tuple[str, str, int]:
    """Both operands as stripped ASCII digit strings, and their digit width."""
    if args.raw_bits:
        if len(args.a) != len(args.b):
            raise InvalidArgumentError("bit strings need equal 4-per-digit length")
        a, b = AdderPort.from_bits(args.a), AdderPort.from_bits(args.b)
        return _stripped(a), _stripped(b), len(a)
    ma, mb = _DECIMAL_RE.fullmatch(args.a), _DECIMAL_RE.fullmatch(args.b)
    if ma is None or mb is None:
        raise InvalidArgumentError("operands must be decimal integers")
    operands = []
    for m in (ma, mb):
        digits = m[2].replace("_", "")
        if not digits.isascii():
            # int() of each character turns any Unicode decimal digit into ASCII.
            digits = "".join(str(int(c)) for c in digits)
        operands.append(_stripped(digits))
    a, b = operands
    if (ma[1] == "-" and a != "0") or (mb[1] == "-" and b != "0"):
        raise InvalidArgumentError("operands must be non-negative")
    return a, b, max(len(a), len(b))


def cmd_simulate(args) -> int:
    a, b, fitted = _parse_operands(args)
    n = fitted if args.digits is None else args.digits
    if n < 1:
        raise InvalidArgumentError("width must be at least 1")
    if n > MAX_DIGITS:
        raise InvalidArgumentError(
            f"operands of {n} digits exceed the limit of {MAX_DIGITS}"
        )
    if max(len(a), len(b)) > n:
        raise CapacityError(f"operands do not fit in {n} digits")
    total, carry = bcd_add(a.zfill(n), b.zfill(n), args.design, cin=args.cin)
    print(f"design={args.design} digits={n}")
    print(f"  a     = {a}")
    print(f"  b     = {b}")
    print(f"  cin   = {args.cin}")
    print(f"  sum   = {_stripped(total)}")
    print(f"  carry = {carry}")
    print(f"  full  = {_stripped(str(carry) + total)}")
    print(f"  sum bits (little-endian) = {AdderPort.to_bits(total)}")
    return EXIT_OK


def cmd_verify(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    results = verify.run_scope(args.scope, seed=seed, samples=args.samples)
    worst = EXIT_OK
    for res in results:
        print(f"{'PASS' if res.passed else 'FAIL'} {res.name}: {res.detail}")
        if not res.passed:
            worst = EXIT_VERIFY
    return worst


def cmd_metrics(args) -> int:
    if args.design:
        netlist = build_design(args.design, args.digits)
        label = f"{args.design} digits={args.digits}"
    else:
        try:
            text = args.netlist.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise NetlistFormatError(
                f"not valid UTF-8 text (byte {exc.start}): {exc.reason}"
            ) from exc
        netlist = deserialize(text)
        label = str(args.netlist)
    if args.stages:
        stages = metric_decomposition(netlist)
        reports = [("total", total(stages.values())), *stages.items()]
    else:
        reports = [("total", structural_metrics(netlist))]
    rows = [["scope", "gc", "ci", "go", "qc", "delay"]] + [
        [scope, rep.gc, rep.ci, rep.go, rep.qc, rep.delay] for scope, rep in reports
    ]
    if args.format == "md":
        print(f"## {label}")
    print(costs.render_rows(rows, args.format), end="")
    return EXIT_OK


def cmd_compare(args) -> int:
    table = costs.cost_table(args.metric, tuple(args.digits))
    if args.format == "md":
        print(f"## {args.metric} comparison")
    print(costs.render_table(table, args.format), end="")
    if args.format != "md":  # csv: the table alone, one CSV stream
        return EXIT_OK
    for proposed, rep in table.improvements.items():
        published = costs.PUBLISHED_TOTALS.get((proposed, args.metric))
        note = f" (published {published})" if published is not None else ""
        print(
            f"Total average improvement {proposed}: "
            f"{costs.round_half_up(rep.average)}{note}"
        )
    if not args.no_structural:
        print()
        print(costs.structural_discrepancy_report(), end="")
    return EXIT_OK


def cmd_pareto(args) -> int:
    if args.format == "tsv":  # one table over every N, so one header
        header = ["n", "qc", "delay", "name", "on_front"]
        print(costs.render_rows([header], "tsv"), end="")
    for n in args.digits:
        points = costs.pareto_points(n)
        front = costs.pareto_front(points)
        if args.format == "tsv":
            rows = [
                [n, p.qc, p.delay, costs.display_name(p.name), int(p in front)]
                for p in sorted(points, key=lambda p: (p.qc, p.delay, p.name))
            ]
            print(costs.render_rows(rows, "tsv"), end="")
        else:
            rows = [["design", "qc", "delay", "on front"]] + [
                [costs.display_name(p.name), p.qc, p.delay, "yes" if p in front else ""]
                for p in sorted(points, key=lambda p: (p.qc, p.delay))
            ]
            print(f"## N={n}")
            print(costs.render_rows(rows, "md"), end="")
            print("front: " + ", ".join(costs.display_name(p.name) for p in front))
        if args.svg_dir:
            args.svg_dir.mkdir(parents=True, exist_ok=True)
            out = args.svg_dir / f"pareto-N{n}.svg"
            out.write_text(costs.render_svg(points, front), encoding="utf-8")
            # In TSV, stdout is exactly one table.
            stream = sys.stderr if args.format == "tsv" else sys.stdout
            print(f"wrote {out}", file=stream)
    return EXIT_OK


def cmd_ledger(args) -> int:
    config = CsvConfig(
        group_column=args.group_col,
        amount_column=args.amount_col,
        delimiter=args.delimiter,
        strict=not args.lenient,
    )
    records, diags = ingest_csv(args.csv, config)
    report = sum_ledger(records, design=args.design, width=args.width)
    header = ["group", "total_cents" if args.format == "csv" else "total (cents)"]
    rows = [header] + [
        [group, decimal_text(total)] for group, total in report.totals.items()
    ]
    print(costs.render_rows(rows, args.format), end="")
    summary = dict(report.summary())
    summary["rows_read"] = diags.rows_read
    summary["rows_skipped"] = len(diags.skipped)
    print(json.dumps(summary, sort_keys=True))
    if report.mismatches:
        print(f"MISMATCHED GROUPS: {report.mismatches}", file=sys.stderr)
        return EXIT_LEDGER
    return EXIT_OK


_HANDLERS = {
    "build": cmd_build,
    "simulate": cmd_simulate,
    "verify": cmd_verify,
    "metrics": cmd_metrics,
    "compare": cmd_compare,
    "pareto": cmd_pareto,
    "ledger": cmd_ledger,
}


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors already
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OVERFLOW
    except (LedgerFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except RevbcdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
