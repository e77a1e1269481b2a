"""Command line surface: subcommands, output, exit-code contract."""

import csv
import gc
import hashlib
import io
import json
import random
import re

import pytest

from revbcd.cli import main
from revbcd.ledger import decode, generate_synthetic_csv
from revbcd.netlist import deserialize
from revbcd.verify import SCOPES


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestBuild:
    def test_pdfa_reports_metrics(self, capsys):
        code, out, _ = run_cli("build", "--design", "pdfa", capsys=capsys)
        assert code == 0
        assert "qc=45" in out and "delay=35" in out

    def test_ripple_eight_reports_qc(self, capsys):
        code, out, _ = run_cli(
            "build", "--design", "dec-rca", "--digits", "8", capsys=capsys
        )
        assert code == 0 and "qc=360" in out

    def test_writes_loadable_netlist(self, tmp_path, capsys):
        out_path = tmp_path / "rca.json"
        code, _, _ = run_cli(
            "build", "--design", "dec-rca", "--digits", "2",
            "--out", str(out_path), capsys=capsys,
        )
        assert code == 0
        nl = deserialize(out_path.read_text())
        assert nl.width == 16 * 2 + 1

    def test_unknown_design_usage_error(self, capsys):
        code, _, _ = run_cli("build", "--design", "foo", capsys=capsys)
        assert code == 2


class TestSimulate:
    def test_carry_skip_waveform(self, capsys):
        code, out, _ = run_cli(
            "simulate", "--design", "dec-csk",
            "--a", "88888889", "--b", "88888889", capsys=capsys,
        )
        assert code == 0
        assert "full  = 177777778" in out

    def test_zero(self, capsys):
        code, out, _ = run_cli(
            "simulate", "--design", "dec-rca", "--a", "0", "--b", "0",
            capsys=capsys,
        )
        assert code == 0 and "sum   = 0" in out

    def test_overflow_exit_four(self, capsys):
        code, _, err = run_cli(
            "simulate", "--design", "dec-rca", "--a", "123", "--b", "5",
            "--digits", "2", capsys=capsys,
        )
        assert code == 4

    def test_width_below_one_usage_error(self, capsys):
        code, _, err = run_cli(
            "simulate", "--a", "5", "--b", "5", "--digits", "-1", capsys=capsys
        )
        assert code == 2 and "width must be at least 1" in err

    def test_zero_width_usage_error(self, capsys):
        code, out, err = run_cli(
            "simulate", "--a", "5", "--b", "5", "--digits", "0", capsys=capsys
        )
        assert code == 2 and "width must be at least 1" in err and out == ""

    def test_designs_agree_on_seeded_pairs(self, capsys):
        import random

        rng = random.Random(41)
        for _ in range(20):
            a, b = rng.randrange(10**4), rng.randrange(10**4)
            outs = []
            for design in ("dec-rca", "dec-csk"):
                code, out, _ = run_cli(
                    "simulate", "--design", design, "--a", str(a), "--b", str(b),
                    "--digits", "4", capsys=capsys,
                )
                assert code == 0
                outs.append([l for l in out.splitlines() if "full" in l])
            assert outs[0] == outs[1]

    def test_raw_bits(self, capsys):
        code, out, _ = run_cli(
            "simulate", "--design", "dec-rca", "--raw-bits",
            "--a", "10010001", "--b", "00000000", capsys=capsys,
        )
        # little-endian 4-per-digit: digits (9, 8) -> value 89
        assert code == 0 and "a     = 89" in out

    @pytest.mark.parametrize(
        "text", (" 12 ", "+7", "1_000", "007", "-0", "\u0663", "\uff15", "\t42\n")
    )
    def test_operand_spellings_int_accepts(self, text, capsys):
        code, out, _ = run_cli("simulate", "--a", text, "--b", "5", capsys=capsys)
        assert code == 0 and f"a     = {int(text)}\n" in out

    @pytest.mark.parametrize(
        "text", ("", "+", "1__0", "_1", "1_", "0x10", "1.0", "+ 5", "+-5", "\u00b2")
    )
    def test_operand_spellings_int_rejects(self, text, capsys):
        code, _, err = run_cli("simulate", "--a", text, "--b", "5", capsys=capsys)
        assert code == 2 and "decimal integers" in err

    @pytest.mark.parametrize("raw_bits", (False, True))
    def test_past_int_str_digit_limit(self, raw_bits, capsys):
        """4301 digits: above CPython's 4300-digit int<->str limit."""
        n = 4301
        rng = random.Random(n)
        texts = ["".join(rng.choice("123456789") for _ in range(n)) for _ in "ab"]
        a, b = (decode(t) for t in texts)
        if raw_bits:
            texts = [
                "".join(format(int(d), "04b")[::-1] for d in reversed(t))
                for t in texts
            ]
            args = ["--raw-bits", "--a", texts[0], "--b", texts[1]]
        else:
            args = ["--a", texts[0], "--b", texts[1]]
        code, out, _ = run_cli("simulate", *args, capsys=capsys)
        assert code == 0
        fields = dict(line.split(" = ") for line in out.splitlines()[1:])
        assert decode(fields["  sum  "]) == (a + b) % 10**n
        assert int(fields["  carry"]) == (a + b) // 10**n
        assert decode(fields["  full "]) == a + b

    def test_wide_operand_with_underscores_and_unicode_digit(self, capsys):
        """1,024 digits in groups of 8, one of them a Devanagari seven."""
        rng = random.Random(1024)
        groups = [
            "".join(rng.choice("0123456789") for _ in range(8)) for _ in range(128)
        ]
        text = "9" + "_".join(groups)[1:]
        text = text[:500] + "\u096d" + text[501:]
        a, b = int(text), rng.randrange(10**1024)
        code, out, _ = run_cli("simulate", "--a", text, "--b", str(b), capsys=capsys)
        assert code == 0
        fields = dict(line.split(" = ") for line in out.splitlines()[1:])
        assert int(fields["  a    "]) == a
        assert int(fields["  full "]) == a + b


class TestVerify:
    @pytest.mark.parametrize("scope", ("gates", "pdfa", "propagate", "metrics"))
    def test_scopes_pass(self, scope, capsys):
        code, out, _ = run_cli("verify", "--scope", scope, capsys=capsys)
        assert code == 0
        assert "PASS" in out and "FAIL" not in out

    def test_adders_seeded(self, capsys):
        code, out, _ = run_cli(
            "verify", "--scope", "adders", "--seed", "7", "--samples", "60",
            capsys=capsys,
        )
        assert code == 0 and "seed=7" in out

    def test_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("REVBCD_SEED", "11")
        code, out, _ = run_cli(
            "verify", "--scope", "adders", "--samples", "20", capsys=capsys
        )
        assert code == 0 and "seed=11" in out

    def test_failure_exits_one(self, capsys, monkeypatch):
        from revbcd import verify as verify_mod
        from revbcd.verify import VerifyResult

        monkeypatch.setitem(
            verify_mod.SCOPES,
            "gates",
            (lambda: VerifyResult("gates", False, "forced failure"),),
        )
        code, out, _ = run_cli("verify", "--scope", "gates", capsys=capsys)
        assert code == 1 and "FAIL" in out

    @pytest.mark.parametrize("samples", ("0", "-5"))
    def test_samples_below_one_usage_error(self, samples, capsys):
        code, out, err = run_cli(
            "verify", "--scope", "adders", "--samples", samples, capsys=capsys
        )
        assert code == 2 and "samples must be at least 1" in err
        assert "PASS" not in out

    @pytest.mark.parametrize("scope", ("all", *SCOPES))
    @pytest.mark.parametrize("samples", ("0", "-1"))
    def test_samples_checked_before_any_scope_runs(
        self, scope, samples, capsys, monkeypatch
    ):
        """Every scope takes --samples, so every scope rejects a bad one
        at parse time, before any check runs."""
        from revbcd import verify as verify_mod

        def refuse(*args, **kwargs):
            raise AssertionError("a scope ran")

        monkeypatch.setattr(verify_mod, "run_scope", refuse)
        code, out, err = run_cli(
            "verify", "--scope", scope, "--samples", samples, capsys=capsys
        )
        assert code == 2 and out == ""
        assert f"samples must be at least 1, got {samples}" in err

    def test_unknown_scope_rejected(self):
        from revbcd.errors import InvalidArgumentError
        from revbcd.verify import run_scope

        with pytest.raises(InvalidArgumentError, match="bogus"):
            run_scope("bogus")


class TestMetrics:
    def test_design_with_stages(self, capsys):
        code, out, _ = run_cli(
            "metrics", "--design", "pdfa", "--stages", capsys=capsys
        )
        assert code == 0
        assert "| addition | 4 | 4 | 0 | 24 | 20 |" in out

    def test_netlist_not_utf8_usage_error(self, tmp_path, capsys):
        path = tmp_path / "n.json"
        content = b'{"width": 1, "lines": [{"role": "\xff"}]}'
        path.write_bytes(content)
        code, out, err = run_cli("metrics", "--netlist", str(path), capsys=capsys)
        assert code == 2 and out == ""
        at = content.index(b"\xff")
        assert err == f"error: not valid UTF-8 text (byte {at}): invalid start byte\n"

    def test_deeply_nested_netlist_usage_error(self, tmp_path, capsys):
        """JSON nested past the parser's recursion limit is a format error,
        not a traceback."""
        path = tmp_path / "n.json"
        path.write_text("[" * 1000)
        code, out, err = run_cli("metrics", "--netlist", str(path), capsys=capsys)
        assert code == 2 and out == ""
        assert err == "error: JSON nested too deeply to parse\n"

    def test_netlist_file(self, tmp_path, capsys):
        path = tmp_path / "n.json"
        run_cli("build", "--design", "scl", "--out", str(path), capsys=capsys)
        code, out, _ = run_cli("metrics", "--netlist", str(path), capsys=capsys)
        assert code == 0 and "| total | 3 | 2 | 1 | 10 |" in out

    def test_missing_file_exit_three(self, tmp_path, capsys):
        code, _, _ = run_cli(
            "metrics", "--netlist", str(tmp_path / "nope.json"), capsys=capsys
        )
        assert code == 3

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            "metrics", "--design", "pdfa", "--format", "csv", capsys=capsys
        )
        assert code == 0 and "total,10,8,4,45,35" in out

    @pytest.mark.parametrize(
        "outputs,flags,message",
        [
            ({}, (), "designated outputs"),
            ({"out": 1}, ("--stages",), "stage"),
        ],
        ids=["no-outputs", "untagged-stages"],
    )
    def test_undefined_metrics_usage_error(
        self, tmp_path, capsys, outputs, flags, message
    ):
        from revbcd.gates import GateKind
        from revbcd.netlist import (
            GateInstance, Netlist, const_role, input_role, serialize,
        )

        nl = Netlist(
            width=2,
            roles=(input_role("a"), const_role(0)),
            gates=(GateInstance(GateKind.FG, (0, 1)),),
            outputs=tuple(outputs.items()),
        )
        path = tmp_path / "n.json"
        path.write_text(serialize(nl))
        code, _, err = run_cli("metrics", "--netlist", str(path), *flags, capsys=capsys)
        assert code == 2
        assert err.startswith("error: ") and message in err


class TestDigitLimit:
    """No digit count past MAX_DIGITS reaches a builder: each exits 2
    naming the limit."""

    @pytest.fixture
    def no_build(self, monkeypatch):
        from revbcd import designs

        def refuse(*args):
            raise AssertionError("a netlist was built")

        for name in designs.DESIGN_BUILDERS:
            monkeypatch.setitem(designs.DESIGN_BUILDERS, name, refuse)

    @pytest.mark.parametrize(
        "argv",
        [
            ("build", "--design", "dec-csk"),
            ("metrics", "--design", "dec-csk", "--stages"),
            ("simulate", "--design", "dec-csk", "--a", "1", "--b", "2"),
        ],
        ids=["build", "metrics", "simulate"],
    )
    def test_digits_past_limit_usage_error(self, no_build, argv, capsys):
        from revbcd.cli import MAX_DIGITS

        too_many = str(MAX_DIGITS + 1)
        code, out, err = run_cli(*argv, "--digits", too_many, capsys=capsys)
        assert code == 2 and out == ""
        assert f"{too_many} digits exceeds the limit of {MAX_DIGITS}" in err

    def test_fitted_operands_past_limit_usage_error(self, no_build, capsys):
        from revbcd.cli import MAX_DIGITS

        wide = "1" * (MAX_DIGITS + 1)
        code, out, err = run_cli("simulate", "--a", wide, "--b", "1", capsys=capsys)
        assert code == 2 and out == ""
        assert err == (
            f"error: operands of {MAX_DIGITS + 1} digits exceed the limit "
            f"of {MAX_DIGITS}\n"
        )

    def test_ledger_width_past_limit_usage_error(self, no_build, tmp_path, capsys):
        from revbcd.cli import MAX_DIGITS

        path = tmp_path / "t.csv"
        path.write_text("g,a\nx,1.00\nx,2.00\n")
        code, out, err = run_cli(
            "ledger", "--csv", str(path), "--group-col", "g", "--amount-col", "a",
            "--width", str(MAX_DIGITS + 1), capsys=capsys,
        )
        assert code == 2 and out == ""
        assert f"{MAX_DIGITS + 1} digits exceeds the limit of {MAX_DIGITS}" in err

    @pytest.mark.parametrize("flag", ["--digits", "--width"])
    def test_limit_itself_reaches_the_builder(self, no_build, flag, tmp_path):
        from revbcd.cli import MAX_DIGITS

        path = tmp_path / "t.csv"
        path.write_text("g,a\nx,1.00\nx,2.00\n")
        argv = {
            "--digits": ("build", "--design", "dec-csk"),
            "--width": ("ledger", "--csv", str(path), "--group-col", "g",
                        "--amount-col", "a"),
        }[flag]
        with pytest.raises(AssertionError, match="a netlist was built"):
            main([*argv, flag, str(MAX_DIGITS)])


class TestHostileArguments:
    """Each row is an argument list that once escaped as a traceback or
    sits at a documented bound: main, called in-process, raises nothing,
    prints nothing to stdout, returns the documented code and ends stderr
    with one error line.  An oversized value is named by its length, so
    stderr stays short."""

    NINES = "9" * 4299  # int() reads it, but 45 times it has 4,301 digits
    LIMIT = "exceeds the limit of 10000"
    LEDGER = ("ledger", "--csv", "{csv}", "--group-col", "g", "--amount-col", "a")
    ROWS = {
        "compare": (("compare", "--digits", NINES), 2, LIMIT),
        "compare-csv": (("compare", "--digits", NINES, "--format", "csv"), 2, LIMIT),
        "pareto": (("pareto", "--digits", NINES), 2, LIMIT),
        "pareto-tsv": (("pareto", "--digits", NINES, "--format", "tsv"), 2, LIMIT),
        "netlist-width": (("metrics", "--netlist", "{width}"), 2, "JSON integer"),
        "netlist-pin": (("metrics", "--netlist", "{pin}"), 2, "JSON integer"),
        "no-outputs-stages": (
            ("metrics", "--netlist", "{no_outputs}", "--stages"),
            2,
            "decomposition needs designated outputs",
        ),
        "compare-unparsed": (
            ("compare", "--digits", "9" * 5000), 2, "not a comma list of integers"
        ),
        "simulate-digits": (
            ("simulate", "--a", "1", "--b", "2", "--digits", "10001"), 2, LIMIT
        ),
        "simulate-unparsed": (
            ("simulate", "--a", "1", "--b", "2", "--digits", "9" * 5000),
            2,
            "invalid int value",
        ),
        "ledger-width": ((*LEDGER, "--width", "0"), 2, "width must be at least 1"),
        "verify-samples": (("verify", "--samples", "0"), 2, "samples must be"),
        "verify-seed": (
            ("verify", "--scope", "gates", "--seed", "9" * 5000),
            2,
            "invalid int value: a 5000-character value",
        ),
        "long-seed": (("verify", "--scope", "gates"), 2, "REVBCD_SEED"),
        "simulate-raw-bits": (
            ("simulate", "--raw-bits", "--a", "2" * 50_000, "--b", "2" * 50_000),
            2,
            "not a 4-per-digit bit string: a 50000-character value",
        ),
        "simulate-cin": (
            ("simulate", "--a", "1", "--b", "2", "--cin", "9" * 50_000),
            2,
            "invalid int value: a 50000-character value",
        ),
        "simulate-cin-choice": (
            ("simulate", "--a", "1", "--b", "2", "--cin", "9" * 4000),
            2,
            "invalid choice: a 4000-character value (choose from 0, 1)",
        ),
        "verify-scope": (
            ("verify", "--scope", "x" * 50_000), 2, "invalid choice: a 50000-character"
        ),
        "build-design": (
            ("build", "--design", "x" * 50_000), 2, "invalid choice: a 50000-character"
        ),
        "compare-metric": (
            ("compare", "--metric", "x" * 50_000), 2, "invalid choice: a 50000-character"
        ),
        "metrics-format": (
            ("metrics", "--design", "pdfa", "--format", "x" * 50_000),
            2,
            "invalid choice: a 50000-character",
        ),
        "ledger-delimiter": (
            (*LEDGER, "--delimiter", ";" * 50_000),
            2,
            "delimiter must be one character, got a 50000-character value",
        ),
        "ledger-long-amount": (
            (*LEDGER[:2], "{long_amount}", *LEDGER[3:]),
            4,
            "group 'x': amount a 100002-digit value exceeds 16 digits",
        ),
        "ledger-malformed-amount": (
            (*LEDGER[:2], "{malformed}", *LEDGER[3:]),
            3,
            "row 1: malformed amount a 50000-character value",
        ),
        "ledger-long-header": (
            (*LEDGER[:2], "{long_header}", *LEDGER[3:]),
            3,
            "column 'a' not in header a 100009-character value",
        ),
    }

    @pytest.fixture
    def files(self, tmp_path):
        from revbcd.gates import GateKind
        from revbcd.netlist import GateInstance, Netlist, const_role, input_role, serialize

        big = "1" + "0" * 5000
        texts = {
            "csv": "g,a\nx,1.00\n",
            "long_amount": f"g,a\nx,{'1' * 100_000}\n",
            "malformed": f"g,a\nx,{'x' * 50_000}\n",
            "long_header": f"g,{'h' * 100_000}\nx,1.00\n",
            "width": f'{{"width": {big}}}',
            "pin": f'{{"width": 2, "gates": [{{"kind": "FG", "pins": [0, {big}]}}]}}',
            "no_outputs": serialize(
                Netlist(
                    width=2,
                    roles=(input_role("a"), const_role(0)),
                    gates=(GateInstance(GateKind.FG, (0, 1), "s"),),
                )
            ),
        }
        for name, text in texts.items():
            (tmp_path / name).write_text(text)
        return {name: str(tmp_path / name) for name in texts}

    @pytest.mark.parametrize("row", ROWS)
    def test_documented_exit(self, row, files, monkeypatch, capsys):
        argv, want, message = self.ROWS[row]
        monkeypatch.setenv("REVBCD_SEED", "1" * 5000 if row == "long-seed" else "0")
        code, out, err = run_cli(*(arg.format(**files) for arg in argv), capsys=capsys)
        assert code == want and out == ""
        assert "error: " in err.splitlines()[-1]
        assert message in err and "set_int_max_str_digits" not in err
        assert len(err) < 1000


class TestArrivalProfileSharing:
    """`metrics` computes one arrival profile per call and shares it."""

    @pytest.mark.parametrize("flags", [(), ("--stages",)], ids=["total", "stages"])
    def test_one_profile_per_call(self, monkeypatch, capsys, flags):
        from revbcd import metrics

        calls = []
        original = metrics.arrival_profile

        def counting(netlist):
            calls.append(netlist)
            return original(netlist)

        monkeypatch.setattr(metrics, "arrival_profile", counting)
        argv = ("metrics", "--design", "dec-csk", "--digits", "3", *flags)
        code, out, _ = run_cli(*argv, capsys=capsys)
        assert code == 0 and len(calls) == 1
        monkeypatch.undo()
        assert run_cli(*argv, capsys=capsys)[1] == out


class TestCompare:
    def test_delay_footer(self, capsys):
        code, out, _ = run_cli("compare", "--metric", "delay", capsys=capsys)
        assert code == 0
        assert "43.07" in out  # published total, shown next to computed
        assert "85.12" in out
        assert "Structural analysis" in out

    @pytest.mark.parametrize("metric", ("qc", "delay"))
    def test_report_rows_leave_table_cells_alone(self, metric, capsys):
        """A "| " line whose first cell is all digits reads as a row of the
        comparison table (bench/workloads.py parses the output that way), so
        no line of the structural report after the table may be one."""
        code, out, _ = run_cli("compare", "--metric", metric, capsys=capsys)
        lines = out.splitlines()
        start = next(i for i, line in enumerate(lines) if line.startswith("| digit |"))
        end = next(i for i in range(start, len(lines)) if not lines[i].startswith("|"))
        later = [
            line.strip("|").split("|")[0].strip()
            for line in lines[end:]
            if line.startswith("| ")
        ]
        assert code == 0 and len(later) > 1  # the report's header and rows
        assert not any(cell.isdigit() or cell == "digit" for cell in later)

    def test_qc_csv(self, capsys):
        code, out, _ = run_cli(
            "compare", "--metric", "qc", "--format", "csv",
            "--no-structural", capsys=capsys,
        )
        assert code == 0
        assert "8,464,560,648,704,448,416,360,520" in out

    @pytest.mark.parametrize("metric", ("qc", "delay"))
    def test_csv_is_one_table(self, metric, capsys):
        """csv output is the comparison table alone: every row has the
        header's width, and no structural report follows it."""
        import csv

        code, out, _ = run_cli("compare", "--metric", metric, "--format", "csv",
                               capsys=capsys)
        rows = list(csv.reader(out.splitlines()))
        assert code == 0 and rows[0][0] == "digit"
        assert {len(row) for row in rows} == {len(rows[0])}

    def test_single_size(self, capsys):
        code, out, _ = run_cli(
            "compare", "--digits", "8", "--no-structural", capsys=capsys
        )
        assert code == 0 and "| 8 |" in out

    def test_repeated_digit_count_usage_error(self, capsys):
        code, out, err = run_cli("compare", "--digits", "8,8", capsys=capsys)
        assert code == 2 and "each digit count must appear once" in err
        assert out == ""

    @pytest.mark.parametrize("command", ("compare", "pareto"))
    @pytest.mark.parametrize("digits", ("", ","))
    def test_empty_digit_list_usage_error(self, command, digits, capsys):
        code, out, err = run_cli(command, "--digits", digits, capsys=capsys)
        assert code == 2 and "not a comma list of integers" in err
        assert out == ""


class TestPareto:
    def test_front_membership(self, capsys):
        code, out, _ = run_cli("pareto", "--digits", "16", capsys=capsys)
        assert code == 0
        assert "front: Dec-RCA, Dec-CSK" in out

    def test_tsv(self, capsys):
        """Several N make one table: one header, and N in the first column."""
        code, out, _ = run_cli(
            "pareto", "--digits", "16,32", "--format", "tsv", capsys=capsys
        )
        assert code == 0
        header, *rows = csv.reader(io.StringIO(out), delimiter="\t")
        assert header == ["n", "qc", "delay", "name", "on_front"]
        assert rows and all(len(row) == 5 for row in rows)
        assert {row[0] for row in rows} == {"16", "32"}

    def test_tsv_with_svg_dir_is_one_table(self, tmp_path, capsys):
        """The `wrote` lines go to stderr, so stdout stays one table."""
        code, out, err = run_cli(
            "pareto", "--digits", "16,32", "--format", "tsv",
            "--svg-dir", str(tmp_path), capsys=capsys,
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out), delimiter="\t"))
        assert rows and all(len(row) == 5 for row in rows)
        assert err == "".join(
            f"wrote {tmp_path / f'pareto-N{n}.svg'}\n" for n in (16, 32)
        )
        assert (tmp_path / "pareto-N16.svg").exists()
        assert (tmp_path / "pareto-N32.svg").exists()

    def test_svg_files(self, tmp_path, capsys):
        code, out, _ = run_cli(
            "pareto", "--digits", "16,32", "--svg-dir", str(tmp_path),
            capsys=capsys,
        )
        assert code == 0
        assert (tmp_path / "pareto-N16.svg").exists()
        assert (tmp_path / "pareto-N32.svg").exists()


_PAST_FIRST_CHUNK = (
    b"user,amount\n"
    + b"".join(b"u%d,1.00\n" % k for k in range(1500))
    + b"u\xff,2.00\n"
)
_BAD_BYTE = _PAST_FIRST_CHUNK.index(b"\xff")  # 15,403, past 8,192


class TestLedger:
    def test_synthetic_round_trip(self, tmp_path, capsys):
        path = generate_synthetic_csv(tmp_path / "tx.csv", rows=120, groups=12, seed=4)
        code, out, _ = run_cli(
            "ledger", "--csv", str(path),
            "--group-col", "client_id", "--amount-col", "amount",
            "--width", "12", capsys=capsys,
        )
        assert code == 0
        summary = json.loads(out.strip().splitlines()[-1])
        assert summary["groups"] == 12
        assert summary["mismatches"] == 0
        assert summary["additions"] == 120 - 12

    @pytest.mark.parametrize("fmt", ("csv", "md"))
    def test_group_keys_with_separators(self, tmp_path, capsys, fmt):
        """Groups holding "," and "|" stay one cell in either format."""
        path = tmp_path / "tx.csv"
        path.write_text('user,amount\n"a,b",1.00\nc|d,2.00\n', encoding="utf-8")
        code, out, _ = run_cli(
            "ledger", "--csv", str(path), "--group-col", "user",
            "--amount-col", "amount", "--format", fmt, capsys=capsys,
        )
        assert code == 0
        table = out.splitlines(keepends=True)[:-1]  # the summary JSON is last
        if fmt == "csv":
            rows = list(csv.reader(io.StringIO("".join(table))))
            assert rows == [["group", "total_cents"], ["a,b", "100"], ["c|d", "200"]]
        else:
            body = table[2:]
            assert len(body) == 2
            assert all(len(re.findall(r"(?<!\\)\|", row)) == 3 for row in body)
            assert body[1] == "| c\\|d | 200 |\n"

    def test_overflow_exit_four(self, tmp_path, capsys):
        path = tmp_path / "tx.csv"
        path.write_text("user,amount\nu1,123.00\n", encoding="utf-8")
        code, _, _ = run_cli(
            "ledger", "--csv", str(path), "--group-col", "user",
            "--amount-col", "amount", "--width", "3", capsys=capsys,
        )
        assert code == 4

    def test_empty_data_ok(self, tmp_path, capsys):
        path = tmp_path / "tx.csv"
        path.write_text("user,amount\n", encoding="utf-8")
        code, out, _ = run_cli(
            "ledger", "--csv", str(path), "--group-col", "user",
            "--amount-col", "amount", capsys=capsys,
        )
        assert code == 0
        assert json.loads(out.strip().splitlines()[-1])["groups"] == 0

    @pytest.mark.parametrize("rows", ("u1,123.00\n", ""), ids=("data", "empty"))
    @pytest.mark.parametrize("width", ("0", "-2"))
    def test_width_below_one_usage_error(self, tmp_path, capsys, width, rows):
        path = tmp_path / "tx.csv"
        path.write_text("user,amount\n" + rows, encoding="utf-8")
        code, out, err = run_cli(
            "ledger", "--csv", str(path), "--group-col", "user",
            "--amount-col", "amount", "--width", width, capsys=capsys,
        )
        assert code == 2 and out == ""
        assert err == "error: width must be at least 1\n"

    @pytest.mark.parametrize("width,code", [(16, 4), (4403, 0)])
    def test_amount_past_int_str_digit_limit(self, tmp_path, capsys, width, code):
        """A 4,400-digit amount overflows the default width with exit 4 and
        sums exactly at a width that holds it; no int<->str limit escapes."""
        path = tmp_path / "tx.csv"
        path.write_text(f"user,amount\nu1,{'1' * 4400}\nu1,1.00\n", encoding="utf-8")
        got, out, err = run_cli(
            "ledger", "--csv", str(path), "--group-col", "user",
            "--amount-col", "amount", "--width", str(width), "--format", "csv",
            capsys=capsys,
        )
        assert got == code
        if code:
            assert err == "error: group 'u1': amount a 4402-digit value exceeds 16 digits\n"
        else:
            assert out.splitlines()[1] == "u1," + "1" * 4399 + "200"

    def test_bad_rows_exit_three(self, tmp_path, capsys):
        path = tmp_path / "tx.csv"
        path.write_text("user,amount\nu1,wat\n", encoding="utf-8")
        code, _, _ = run_cli(
            "ledger", "--csv", str(path), "--group-col", "user",
            "--amount-col", "amount", capsys=capsys,
        )
        assert code == 3

    def test_amount_column_named_twice_exits_three(self, tmp_path, capsys):
        path = tmp_path / "tx.csv"
        path.write_text("client_id,amount,amount\nu1,1.00,2.00\n", encoding="utf-8")
        code, out, err = run_cli(
            "ledger", "--csv", str(path), "--group-col", "client_id",
            "--amount-col", "amount", capsys=capsys,
        )
        assert code == 3 and out == ""
        assert err == (
            "error: column 'amount' named 2 times in header "
            "['client_id', 'amount', 'amount']\n"
        )

    @pytest.mark.parametrize("delimiter", ("", ";;"))
    def test_delimiter_not_one_character_usage_error(self, tmp_path, capsys, delimiter):
        path = tmp_path / "tx.csv"
        path.write_text("user,amount\nu1,1.00\n", encoding="utf-8")
        code, out, err = run_cli(
            "ledger", "--csv", str(path), "--group-col", "user",
            "--amount-col", "amount", "--delimiter", delimiter, capsys=capsys,
        )
        assert code == 2 and out == ""
        assert err == f"error: delimiter must be one character, got {delimiter!r}\n"

    @pytest.mark.parametrize("lenient", ((), ("--lenient",)), ids=("strict", "lenient"))
    @pytest.mark.parametrize(
        "content,message",
        [
            (b"user,amount\nu1,1.00\nu\xff,2.00\n", "not valid UTF-8 text"),
            # The offset counts from the start of the file, not from the
            # 8 kB chunk the reader was decoding.
            (_PAST_FIRST_CHUNK, f"not valid UTF-8 text (byte {_BAD_BYTE}): invalid start"),
            (
                b"user,amount\nu1,1.00\nu2," + b"1" * 131_073 + b"\n",
                "unreadable CSV: field larger than field limit (131072)",
            ),
        ],
        ids=("not-utf8", "not-utf8-past-first-chunk", "field-past-csv-limit"),
    )
    def test_unreadable_file_exit_three(self, tmp_path, capsys, content, message, lenient):
        path = tmp_path / "tx.csv"
        path.write_bytes(content)
        code, out, err = run_cli(
            "ledger", "--csv", str(path), "--group-col", "user",
            "--amount-col", "amount", *lenient, capsys=capsys,
        )
        assert code == 3 and out == ""
        assert err.startswith(f"error: {message}")


class TestParserReuse:
    @pytest.mark.parametrize("command", ("simulate", "verify", "metrics", "ledger"))
    def test_repeated_calls_leave_no_reference_cycles(self, command, tmp_path, capsys):
        """The parser is built once per process, so a warm call leaves no
        garbage for the cycle collector."""
        path = generate_synthetic_csv(tmp_path / "tx.csv", rows=40, groups=5, seed=2)
        argv = {
            "simulate": ["simulate", "--design", "dec-csk", "--a", "123", "--b", "989"],
            "verify": ["verify", "--samples", "100"],
            "metrics": ["metrics", "--design", "dec-rca", "--digits", "3", "--stages"],
            "ledger": [
                "ledger", "--csv", str(path),
                "--group-col", "client_id", "--amount-col", "amount",
            ],
        }[command]
        assert main(argv) == 0
        gc.collect()
        gc.disable()
        try:
            codes = [main(argv) for _ in range(3)]
            garbage = gc.collect()
        finally:
            gc.enable()
        assert codes == [0, 0, 0]
        assert garbage == 0


class TestGoldenBytes:
    """SHA-256 of the table commands' stdout and of the SVG files, so any
    change to a rendered byte shows."""

    LEDGER = ("--csv", "tx.csv", "--group-col", "client_id", "--amount-col", "amount")
    STAGES = ("--design", "dec-csk", "--digits", "4", "--stages")
    CASES = {
        "compare-qc-md": (
            ("compare", "--metric", "qc"),
            "c92352ba51ae36a7fdfcf12852043f6940e4c881efc4ac24489103df551b1f95",
        ),
        "compare-qc-csv": (
            ("compare", "--metric", "qc", "--format", "csv"),
            "32c9a24aa34c6171b9dab24d3298c10a73c02d6881b8957da37ccb72c163354f",
        ),
        "compare-delay-md": (
            ("compare", "--metric", "delay"),
            "da14c0cd97feddc8f853ba193a2b228c1f06cbda58fbe401fea3e49c44af1a64",
        ),
        "compare-delay-csv": (
            ("compare", "--metric", "delay", "--format", "csv"),
            "d958d83af8a283450f0c79cc97cf0a688d570f969d60aacab3a841526418a3b3",
        ),
        "pareto-md": (
            ("pareto", "--svg-dir", "svg"),
            "16bb3ab38cbc5aa579ba07dc633c8d470e81233065268cb320e00e4d7561634d",
        ),
        "pareto-tsv": (
            ("pareto", "--format", "tsv"),
            "8e6d5ab1b824566df936b5530a668470943484118af4a42b6abc82b8e868aec2",
        ),
        "metrics-md": (
            ("metrics", *STAGES),
            "aa61e254462351e4eb71883eb57cbc66e8274224d2e6f8c9c26a5d2645a8cbc8",
        ),
        "metrics-csv": (
            ("metrics", *STAGES, "--format", "csv"),
            "9240911238fd78d1ceb46ae2259618381ea4c383506c2a592d9aefbea50be19f",
        ),
        "ledger-md": (
            ("ledger", *LEDGER),
            "a70eaa111aafa7fa8a0610080c9bb92f73d760d6a5d132e75a96b75f70ef4bad",
        ),
        "ledger-csv": (
            ("ledger", *LEDGER, "--format", "csv"),
            "92f75e562e03694e1dfa2ce0c927d082047520a89235bdabb88c3a58fac56b1a",
        ),
    }
    SVG = {
        "pareto-N16.svg": "00e6246008d36ce44e005425fbd02ac6673de101b68c2918dff3bc3beb809627",
        "pareto-N32.svg": "4739aa96ae6066fc7226f5c188e05499174312069999d24430a75a55a0a01bbf",
        "pareto-N64.svg": "03c2940e5c90578dae6e00543ad4bfa186c9bc0433b197a2d5cc33d7e049a086",
    }

    @pytest.mark.parametrize("case", CASES)
    def test_stdout_bytes(self, case, tmp_path, monkeypatch, capsys):
        argv, digest = self.CASES[case]
        monkeypatch.chdir(tmp_path)
        if argv[0] == "ledger":
            generate_synthetic_csv("tx.csv", seed=0)
        code, out, err = run_cli(*argv, capsys=capsys)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        if case == "pareto-md":
            written = {
                path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                for path in (tmp_path / "svg").iterdir()
            }
            assert written == self.SVG
