"""BCD codec, simulated addition, CSV ingestion, group summation."""

import random

import pytest

from revbcd.designs import (
    build_correction,
    build_scl,
    build_skip_block,
    build_skip_generator,
)
from revbcd.errors import (
    CapacityError,
    InvalidArgumentError,
    InvalidBCDError,
    LedgerFormatError,
    shown,
)
from revbcd.ledger import (
    AdderPort,
    CsvConfig,
    LedgerRecord,
    bcd_add,
    cached_adder,
    decimal_text,
    decode,
    encode,
    generate_synthetic_csv,
    ingest_csv,
    lane_mask,
    parse_amount,
    sum_ledger,
    text_lanes,
    to_lanes,
)
from revbcd.simulator import compile_netlist

_NOT_INTS = (True, False, 1.5, 1e30, -1.0, None, "12")


class TestCodec:
    def test_nineteen(self):
        assert encode(19, 2) == "19"

    def test_zero_padding(self):
        assert encode(0, 8) == "0" * 8

    def test_waveform_operand(self):
        assert encode(88888889, 8) == "88888889"

    def test_round_trip_exhaustive_small(self):
        for width in (1, 2, 3, 4):
            for x in range(10**width):
                assert decode(encode(x, width)) == x

    def test_round_trip_sampled_large(self):
        rng = random.Random(5)
        for _ in range(200):
            x = rng.randrange(10**12)
            assert decode(encode(x, 12)) == x

    @pytest.mark.parametrize("width", (999, 1000, 1001, 2048, 4301, 9000))
    def test_round_trip_chunk_boundaries(self, width):
        """Around the one-call str() size, and past CPython's 4300-digit
        int<->str limit; digits checked by arithmetic up to 2048."""
        rng = random.Random(width)
        for x in (0, 10**width - 1, rng.randrange(10**width)):
            v = encode(x, width)
            assert decode(v) == x
            if width <= 2048:
                assert v == "".join(
                    str((x // 10**j) % 10) for j in reversed(range(width))
                )

    def test_overflow(self):
        with pytest.raises(CapacityError):
            encode(100, 2)

    def test_negative(self):
        with pytest.raises(CapacityError):
            encode(-1, 4)

    def test_round_trip_past_int_str_digit_limit(self):
        """Widths above sys.get_int_max_str_digits() (4300 by default),
        where str(int) raises, still round-trip."""
        x = 7 * 10**4400 + 123
        v = encode(x, 4401)
        assert v[-3:] == "123" and v[0] == "7"
        assert decode(v) == x

    def test_overflow_message_past_int_str_digit_limit(self):
        with pytest.raises(CapacityError) as info:
            encode(10**5000, 3)
        assert str(info.value) == "a 5001-digit value does not fit in 3 BCD digits"

    @pytest.mark.parametrize("digits", (2, 40, 41))
    def test_overflow_names_a_long_amount_by_its_digit_count(self, digits):
        amount = 10 ** (digits - 1)
        want = str(amount) if digits <= 40 else f"a {digits}-digit value"
        with pytest.raises(CapacityError) as info:
            encode(amount, 1)
        assert str(info.value) == f"{want} does not fit in 1 BCD digits"

    @pytest.mark.parametrize(
        "call,amount",
        [pytest.param(lambda v: encode(v, 3), v, id=repr(v)) for v in _NOT_INTS]
        + [pytest.param(decimal_text, v, id=f"decimal_text-{v!r}") for v in _NOT_INTS],
    )
    def test_encode_rejects_what_is_not_an_int(self, call, amount):
        with pytest.raises(InvalidArgumentError, match="^amount must be an int, got "):
            call(amount)

    @pytest.mark.parametrize("text", ("1_0", " 12", "+7", "12 ", "", "\u0663", "1.0"))
    def test_decode_rejects_what_is_not_ascii_digits(self, text):
        with pytest.raises(InvalidArgumentError, match="^not a digit string: "):
            decode(text)

    def test_decode_rejects_a_non_string(self):
        with pytest.raises(InvalidArgumentError, match="^not a digit string: 12$"):
            decode(12)

    @pytest.mark.parametrize("amount", (0, 7, -7, 10**20, -(10**999), 10**1000 + 5))
    def test_decimal_text_equals_str(self, amount):
        assert decimal_text(amount) == str(amount)

    def test_decimal_text_past_int_str_digit_limit(self):
        assert decimal_text(2 * 10**5000 + 3) == "2" + "0" * 4999 + "3"


class TestLanes:
    @pytest.mark.parametrize("width", (1, 2, 16, 1001, 4401))
    def test_layout(self, width):
        rng = random.Random(width)
        values = [0, 10**width - 1] + [rng.randrange(10**width) for _ in range(6)]
        lanes = to_lanes(values, width)
        assert len(lanes) == 4 * width
        assert lane_mask(len(values)) == sum(1 << 4 * k for k in range(len(values)))
        assert all(lane & ~lane_mask(len(values)) == 0 for lane in lanes)
        for k, value in enumerate(values):
            digits = "".join(
                str(sum((lanes[4 * j + i] >> 4 * k & 1) << i for i in range(4)))
                for j in reversed(range(width))
            )
            assert digits == encode(value, width)

    def test_empty_batch(self):
        assert to_lanes([], 3) == [0] * 12

    @pytest.mark.parametrize(
        "text", ("x", "12a4", "0x12", "12_4", " 123", "1234\n", "١٢٣٤", "１２")
    )
    def test_text_not_ascii_digits(self, text):
        with pytest.raises(InvalidArgumentError, match="^not a digit string: "):
            text_lanes(text, 1)

    def test_text_not_whole_records(self):
        with pytest.raises(InvalidArgumentError, match="not whole 2-digit records"):
            text_lanes("123", 2)

    @pytest.mark.parametrize("values", ([5, 100], [-1], [10**5000]))
    def test_out_of_range(self, values):
        with pytest.raises(CapacityError):
            to_lanes(values, 2)

    def test_width_below_one(self):
        with pytest.raises(InvalidArgumentError):
            to_lanes([0], 0)
        with pytest.raises(InvalidArgumentError, match="width must be at least 1"):
            text_lanes("", 0)


class TestBcdAdd:
    @pytest.mark.parametrize("design", ("dec-rca", "dec-csk"))
    def test_waveform_vectors(self, design):
        a = encode(88888889, 8)
        total, carry = bcd_add(a, a, design)
        assert decode(total) == 77777778 and carry == 1
        total, carry = bcd_add(a, encode(11111111, 8), design)
        assert decode(total) == 0 and carry == 1

    def test_identity(self):
        rng = random.Random(13)
        zero = encode(0, 6)
        for _ in range(50):
            x = encode(rng.randrange(10**6), 6)
            total, carry = bcd_add(x, zero)
            assert total == x and carry == 0

    def test_width_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            bcd_add(encode(1, 2), encode(1, 3))

    def test_unknown_design(self):
        with pytest.raises(InvalidArgumentError):
            bcd_add(encode(1, 2), encode(1, 2), "fast-adder")

    def test_pdfa_is_a_registered_adder(self):
        assert bcd_add("5", "7", "pdfa") == ("2", 1)
        assert cached_adder("pdfa", 1).add("9", "9", 1) == ("9", 1, True)

    @pytest.mark.parametrize(
        "design,width,message",
        (
            ("scl", 1, "not a BCD adder: no line 'a0.0'"),
            ("pdfa", 2, "design 'pdfa' is single-digit only"),
            ("fast-adder", 1, "unknown design 'fast-adder'; known: "),
        ),
    )
    def test_cached_adder_names_what_is_not_an_adder(self, design, width, message):
        with pytest.raises(InvalidArgumentError) as info:
            cached_adder(design, width)
        assert str(info.value).startswith(message)

    @pytest.mark.parametrize("design", ("dec-rca", "dec-csk"))
    @pytest.mark.parametrize("cin", (2, -1, 1.0, "1", None), ids=repr)
    def test_carry_in_not_a_bit_rejected(self, design, cin):
        with pytest.raises(InvalidArgumentError, match="carry-in must be 0 or 1"):
            bcd_add("15", "27", design, cin=cin)

    @pytest.mark.parametrize("design", ("dec-rca", "dec-csk"))
    def test_carry_in_bits(self, design):
        for cin, want in ((0, "42"), (1, "43"), (False, "42"), (True, "43")):
            assert bcd_add("15", "27", design, cin=cin) == (want, 0)


class TestAdderPort:
    def test_pdfa_names(self, pdfa):
        port = AdderPort(compile_netlist(pdfa))
        total, carry, ok = port.add("9", "9", 1)
        assert total == "9" and carry == 1 and ok

    @pytest.mark.parametrize(
        "build,missing",
        (
            (build_scl, "a0.0"),
            (build_correction, "a0.0"),
            (build_skip_generator, "cin"),
            (build_skip_block, "a0.0"),
        ),
    )
    def test_rejects_non_adders(self, build, missing):
        """A block without the adder's lines is refused at construction,
        naming the first line it lacks."""
        with pytest.raises(InvalidArgumentError, match=f"no line '{missing}'$"):
            AdderPort(compile_netlist(build()))

    def test_width_mismatch(self, dec_csk8):
        port = AdderPort(compile_netlist(dec_csk8))
        with pytest.raises(InvalidArgumentError, match="^operands must be strings of 8"):
            port.add(encode(1, 8), encode(1, 7))

    @pytest.mark.parametrize("text", ["0000000a", "0000 001", "\u0663" * 8, "+0000001"])
    def test_pack_rejects_non_digits(self, dec_rca8, text):
        port = AdderPort(compile_netlist(dec_rca8))
        for a, b in ((text, "0" * 8), ("0" * 8, text)):
            with pytest.raises(InvalidArgumentError, match="^not a digit string: "):
                port.pack(a, b)

    def test_sum_digit_above_nine(self, dec_rca8, monkeypatch):
        """A sum nibble of 12 on digit 2 (and 10 on digit 5) raises, naming
        the lower digit's value."""
        compiled = compile_netlist(dec_rca8)
        port = AdderPort(compiled)
        run_state = compiled.run_state
        named = dict(compiled.named)

        def broken(state, mask=1):
            run_state(state, mask)
            for j, value in ((2, 12), (5, 10)):
                for i in range(4):
                    state[named[f"S{i}.{j}"]] = value >> i & 1

        monkeypatch.setattr(compiled, "run_state", broken)
        with pytest.raises(InvalidBCDError, match="^digit 12 outside 0..9$"):
            port.add(encode(1, 8), encode(2, 8))

    @pytest.mark.parametrize("design", ("dec-rca", "dec-csk"))
    def test_lanes_equal_scalar_adds(self, design):
        rng = random.Random(41)
        port = cached_adder(design, 4)
        a = [rng.randrange(10**4) for _ in range(200)]
        b = [rng.randrange(10**4) for _ in range(200)]
        cin = [rng.randrange(2) for _ in range(200)]
        sums, carry, moved = port.add_lanes(
            to_lanes(a, 4), to_lanes(b, 4), to_lanes(cin, 1)[0], lane_mask(200)
        )
        totals, carries = [], []
        for k in range(200):
            total, c, ok = port.add(encode(a[k], 4), encode(b[k], 4), cin[k])
            assert ok
            totals.append(decode(total))
            carries.append(c)
        assert (sums, carry, moved) == (to_lanes(totals, 4), to_lanes(carries, 1)[0], 0)

    def test_lane_count_mismatch(self):
        port = cached_adder("dec-rca", 2)
        with pytest.raises(InvalidArgumentError):
            port.add_lanes(to_lanes([1], 2), to_lanes([1], 3), 0, 1)

    def test_bits_round_trip(self):
        assert AdderPort.from_bits("10010001") == "89"
        assert AdderPort.to_bits("89") == "10010001"
        assert AdderPort.from_bits("0000" * 5) == "00000"
        digits = "".join(random.Random(3).choice("0123456789") for _ in range(4401))
        assert AdderPort.from_bits(AdderPort.to_bits(digits)) == digits

    @pytest.mark.parametrize(
        "text", ["", "100", "1002", "1 01", 1001, ["1", "0", "0", "1"]]
    )
    def test_bad_bit_string(self, text):
        with pytest.raises(InvalidArgumentError) as info:
            AdderPort.from_bits(text)
        assert str(info.value) == f"not a 4-per-digit bit string: {shown(text)}"

    def test_bit_digit_above_nine(self):
        """The lowest non-BCD nibble is named: 10 here, not 14 above it."""
        with pytest.raises(InvalidBCDError, match="^digit 10 outside 0..9$"):
            AdderPort.from_bits("1000" "0101" "0111")


class TestParseAmount:
    @pytest.mark.parametrize(
        "text,cents",
        [
            ("$12.34", 1234),
            ("12.34", 1234),
            ("-5.00", -500),
            ("-$5.00", -500),
            ("$-5.00", -500),
            ("1,234.56", 123456),
            ("5", 500),
            ("5.1", 510),
            (" 7.25 ", 725),
        ],
    )
    def test_good(self, text, cents):
        assert parse_amount(text) == cents

    @pytest.mark.parametrize(
        "text", ["", "abc", "1.234", "12..3", "$", "--5", 5, None, b"5.00"]
    )
    def test_bad(self, text):
        with pytest.raises(LedgerFormatError, match="^malformed amount "):
            parse_amount(text)

    def test_past_int_str_digit_limit(self):
        repunit = (10**4400 - 1) // 9
        assert parse_amount("1" * 4400) == repunit * 100
        assert parse_amount("$" + "1" * 4400 + ".5") == repunit * 100 + 50


class TestIngest:
    def write(self, tmp_path, body):
        path = tmp_path / "tx.csv"
        path.write_text(body, encoding="utf-8")
        return path

    def config(self, **kw):
        return CsvConfig(group_column="user", amount_column="amount", **kw)

    def test_basic_rows(self, tmp_path):
        path = self.write(tmp_path, "user,amount\nu1,$12.34\nu2,3\n")
        records, diags = ingest_csv(path, self.config())
        assert records == [LedgerRecord("u1", 1234), LedgerRecord("u2", 300)]
        assert diags.rows_read == 2 and diags.rows_kept == 2

    def test_record_is_an_immutable_value(self):
        record = LedgerRecord("u1", 1234)
        assert repr(record) == "LedgerRecord(group='u1', amount_cents=1234)"
        assert (record.group, record.amount_cents) == ("u1", 1234)
        assert record == LedgerRecord("u1", 1234) != LedgerRecord("u1", 1235)
        assert hash(record) == hash(LedgerRecord("u1", 1234))
        with pytest.raises(AttributeError):
            record.amount_cents = 5

    def test_negative_magnitude_default(self, tmp_path):
        path = self.write(tmp_path, "user,amount\nu1,-5.00\n")
        records, _ = ingest_csv(path, self.config())
        assert records == [LedgerRecord("u1", 500)]

    def test_strict_aborts_with_row_number(self, tmp_path):
        path = self.write(tmp_path, "user,amount\nu1,1.00\nu1,bogus\n")
        with pytest.raises(LedgerFormatError, match="row 2"):
            ingest_csv(path, self.config())

    def test_lenient_skips_and_counts(self, tmp_path):
        path = self.write(tmp_path, "user,amount\nu1,1.00\nu1,bogus\nu1,2.00\n")
        records, diags = ingest_csv(path, self.config(strict=False))
        assert [r.amount_cents for r in records] == [100, 200]
        assert len(diags.skipped) == 1 and diags.skipped[0][0] == 2

    # One fault per row: an empty group key, a malformed amount, a row
    # too short to hold the amount field.
    FAULTY = "user,amount\n,1.00\nu1,bogus\nu1\nu1,2.00\n"
    FAULTS = ["empty group key", "malformed amount 'bogus'", "missing amount field"]

    def test_lenient_keeps_each_bare_message_once(self, tmp_path):
        path = self.write(tmp_path, self.FAULTY)
        records, diags = ingest_csv(path, self.config(strict=False))
        assert records == [LedgerRecord("u1", 200)]
        assert diags.skipped == list(enumerate(self.FAULTS, start=1))
        assert (diags.rows_read, diags.rows_kept) == (4, 1)

    @pytest.mark.parametrize("row", (1, 2, 3))
    def test_strict_names_the_row_once(self, tmp_path, row):
        lines = self.FAULTY.splitlines()
        body = "\n".join([lines[0], lines[row], lines[-1]]) + "\n"
        with pytest.raises(LedgerFormatError) as info:
            ingest_csv(self.write(tmp_path, body), self.config())
        assert str(info.value) == f"row 1: {self.FAULTS[row - 1]}"
        assert info.value.row == 1

    @pytest.mark.parametrize("size", (40, 41))
    def test_long_fields_named_by_length(self, tmp_path, size):
        field = "x" * size
        path = self.write(tmp_path, f"user,amount\nu1,{field}\n")
        with pytest.raises(LedgerFormatError) as info:
            ingest_csv(path, self.config())
        shown = repr(field) if size <= 40 else f"a {size}-character value"
        assert str(info.value) == f"row 1: malformed amount {shown}"
        path = self.write(tmp_path, f"user,{field}\nu1,1\n")
        header = str(["user", field])
        shown = header if len(header) <= 40 else f"a {len(header)}-character value"
        with pytest.raises(LedgerFormatError) as info:
            ingest_csv(path, self.config())
        assert str(info.value) == f"column 'amount' not in header {shown}"

    def test_missing_column(self, tmp_path):
        path = self.write(tmp_path, "user,value\nu1,1\n")
        with pytest.raises(LedgerFormatError, match="amount"):
            ingest_csv(path, self.config())

    def test_header_only_is_empty(self, tmp_path):
        path = self.write(tmp_path, "user,amount\n")
        records, diags = ingest_csv(path, self.config())
        assert records == [] and diags.rows_read == 0

    def test_empty_file_rejected(self, tmp_path):
        path = self.write(tmp_path, "")
        with pytest.raises(LedgerFormatError, match="header"):
            ingest_csv(path, self.config())

    def test_alternate_delimiter(self, tmp_path):
        path = self.write(tmp_path, "user;amount\nu1;4.50\n")
        records, _ = ingest_csv(path, self.config(delimiter=";"))
        assert records == [LedgerRecord("u1", 450)]

    @pytest.mark.parametrize("header", ("user,amount,amount", "user,amount,user"))
    @pytest.mark.parametrize("strict", (True, False))
    def test_column_named_twice_rejected(self, tmp_path, header, strict):
        """A header that names the group or amount column twice says which
        column, in either mode, rather than reading one of the two."""
        path = self.write(tmp_path, f"{header}\nu1,1.00,2.00\n")
        col = header.rsplit(",", 1)[1]
        with pytest.raises(LedgerFormatError) as info:
            ingest_csv(path, self.config(strict=strict))
        assert str(info.value) == (
            f"column {col!r} named 2 times in header {header.split(',')!r}"
        )
        assert info.value.row is None

    def test_other_columns_may_repeat(self, tmp_path):
        path = self.write(tmp_path, "note,user,note,amount\nx,u1,y,1.00\n")
        records, _ = ingest_csv(path, self.config())
        assert records == [LedgerRecord("u1", 100)]

    def test_one_column_for_group_and_amount(self, tmp_path):
        path = self.write(tmp_path, "user\n12\n")
        records, _ = ingest_csv(path, CsvConfig("user", "user"))
        assert records == [LedgerRecord("12", 1200)]


class TestSumLedger:
    def test_small_group(self):
        records = [LedgerRecord("g", v) for v in (100, 200, 300)]
        report = sum_ledger(records, width=6)
        assert report.totals == {"g": 600}
        assert report.native == {"g": 600}
        assert report.additions == 2
        assert report.verified

    def test_single_record(self):
        report = sum_ledger([LedgerRecord("g", 123)], width=4)
        assert report.totals == {"g": 123} and report.additions == 0

    def test_random_groups_match_native(self):
        rng = random.Random(31)
        records = [
            LedgerRecord(f"g{rng.randrange(10)}", rng.randrange(1, 10**6))
            for _ in range(1000)
        ]
        report = sum_ledger(records, design="dec-rca", width=10)
        assert report.verified
        assert report.groups == 10
        assert report.additions == 1000 - 10
        assert report.summary() == {
            "groups": 10,
            "additions": 990,
            "mismatches": 0,
        }

    def test_order_independent_within_group(self):
        rng = random.Random(37)
        amounts = [rng.randrange(1, 10**5) for _ in range(40)]
        base = sum_ledger([LedgerRecord("g", v) for v in amounts], width=8)
        rng.shuffle(amounts)
        again = sum_ledger([LedgerRecord("g", v) for v in amounts], width=8)
        assert base.totals == again.totals

    def test_amount_overflow_names_group(self):
        with pytest.raises(CapacityError, match="grande"):
            sum_ledger([LedgerRecord("grande", 10**4)], width=4)

    def test_fold_overflow_names_group(self):
        records = [LedgerRecord("full", 9999), LedgerRecord("full", 1)]
        with pytest.raises(CapacityError, match="full"):
            sum_ledger(records, width=4)

    @pytest.mark.parametrize(
        "rows,group",
        [
            # "b" overflows at its second row, "a" only at its fourth: "a" sorts first
            ([("a", 3000), ("b", 6000), ("b", 6000), ("a", 3000), ("c", 1),
              ("a", 3000), ("a", 1000)], "a"),
            ([("z", 6000), ("z", 6000), ("a", 1), ("a", 2), ("m", 9999)], "z"),
        ],
    )
    def test_fold_overflow_names_first_sorted_group(self, rows, group):
        records = [LedgerRecord(g, v) for g, v in rows]
        with pytest.raises(CapacityError, match=f"^group '{group}': running total"):
            sum_ledger(records, width=4)

    def test_amount_past_int_str_digit_limit(self):
        with pytest.raises(CapacityError) as info:
            sum_ledger([LedgerRecord("g", 10**5000)], width=16)
        assert str(info.value) == "group 'g': amount a 5001-digit value exceeds 16 digits"

    def test_long_group_key_named_by_length(self):
        records = [LedgerRecord("g" * 41, 5000), LedgerRecord("g" * 41, 5000)]
        with pytest.raises(CapacityError) as info:
            sum_ledger(records, width=4)
        assert str(info.value) == (
            "group a 41-character value: running total overflowed 4 digits"
        )


class TestSynthetic:
    def test_deterministic(self, tmp_path):
        a = generate_synthetic_csv(tmp_path / "a.csv", rows=50, groups=5, seed=9)
        b = generate_synthetic_csv(tmp_path / "b.csv", rows=50, groups=5, seed=9)
        assert a.read_bytes() == b.read_bytes()

    def test_ingests_cleanly(self, tmp_path):
        path = generate_synthetic_csv(tmp_path / "tx.csv", rows=80, groups=8, seed=2)
        config = CsvConfig(group_column="client_id", amount_column="amount")
        records, diags = ingest_csv(path, config)
        assert diags.rows_read == 80 and len(records) == 80
        report = sum_ledger(records, width=12)
        assert report.verified
