"""BCD codec and the transaction-ledger demonstration.

Monetary amounts are carried as integer minor units (cents), never as
binary floating point, so per-group totals are exact.  Group sums are
folded through a simulated BCD adder netlist and cross-checked against
native integer arithmetic; the verification summary records group count,
adder invocations, and any mismatches.
"""

from __future__ import annotations

import csv
import random
import re
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from itertools import chain
from operator import itemgetter, or_, xor
from pathlib import Path
from typing import NamedTuple, Sequence

from .designs import adder_labels, build_design
from .errors import (
    CapacityError,
    InvalidArgumentError,
    InvalidBCDError,
    LedgerFormatError,
    digit_text,
    is_digit_text,
    positive,
    shown,
)
from .simulator import _BYTE_OF_BIT, CompiledNetlist, compile_netlist

DEFAULT_WIDTH = 16  # digits; headroom for folded sums of thousands of rows


# Widths up to this convert in one str()/int() call; wider values are split
# in halves first, so no str()/int() call sees more than this many digits
# (under CPython's 4300-digit int<->str limit).  The halving replaces the
# per-digit powers 10**j; divmod by 10**half is still schoolbook, so the
# codec is quadratic, with a small constant.
_STR_DIGITS = 1000


def _padded_text(amount: int, width: int) -> str:
    """`amount` (< 10**width) in decimal, zero padded to `width` digits."""
    if width <= _STR_DIGITS:
        return str(amount).zfill(width)
    half = width // 2
    high, low = divmod(amount, 10**half)
    return _padded_text(high, width - half) + _padded_text(low, half)


def _text_value(text: str) -> int:
    """Inverse of _padded_text."""
    if len(text) <= _STR_DIGITS:
        return int(text or "0")
    half = len(text) // 2
    return _text_value(text[:-half]) * 10**half + _text_value(text[-half:])


def _whole(amount: int) -> int:
    """`amount` as an amount: an int, not a bool."""
    if not isinstance(amount, int) or isinstance(amount, bool):
        raise InvalidArgumentError(f"amount must be an int, got {shown(amount)}")
    return amount


def decimal_text(amount: int) -> str:
    """`amount` in decimal at any size, like str() without its digit limit.
    An amount that is not an int, or is a bool, is an InvalidArgumentError."""
    if _whole(amount) < 0:
        return "-" + decimal_text(-amount)
    # bit_length * 0.30103 bounds the digit count from above (log10 2 < 0.30103)
    width = amount.bit_length() * 30103 // 100000 + 1
    return _padded_text(amount, width).lstrip("0") or "0"


def encode(amount: int, width: int) -> str:
    """`amount` as `width` decimal digits, most significant first, zero
    padded: the scalar operand of AdderPort and bcd_add.  An amount that
    is not an int, or is a bool, is an InvalidArgumentError."""
    positive(width, "width")
    if _whole(amount) < 0 or amount >= 10**width:
        raise CapacityError(f"{shown(amount)} does not fit in {width} BCD digits")
    return _padded_text(amount, width)


def decode(text: str) -> int:
    """The value of a digit string such as encode returns.  Anything else
    is an InvalidArgumentError (errors.digit_text)."""
    return _text_value(digit_text(text))


# Lanes made from digit text put vector k at bit 4k (see simulator): then
# the base-16 value of a digit column, vector k's digit in nibble k, holds
# that column's four bit lanes at once.


def lane_mask(count: int) -> int:
    """The lane mask of a batch of `count` vectors in the layout of
    text_lanes: bit 4k set for each vector k."""
    return int("1" * count or "0", 16)


def to_lanes(amounts: Sequence[int], width: int) -> list[int]:
    """The 4*width digit-bit lanes of a batch of amounts, amounts[k] in
    bit 4k (the layout of text_lanes, under lane_mask(len(amounts))); each
    amount is checked as encode checks it."""
    return text_lanes("".join([encode(amount, width) for amount in amounts]), width)


def text_columns(text: str, width: int) -> list[int]:
    """The `width` digit columns of a batch of operands written as ASCII
    digits: `text` holds one `width`-digit operand per vector, in vector
    order, each most significant digit first.

    Column j holds digit j of vector k (least significant first) in
    nibble k, so its four bit lanes are its bits 4k+i (text_lanes).  A
    width below 1, and text that is neither empty (no vectors) nor digit
    text (errors.digit_text) nor whole operands, raise
    InvalidArgumentError.
    """
    positive(width, "width")
    if text != "":
        digit_text(text)
    if len(text) % width:
        raise InvalidArgumentError(
            f"{len(text)} digits are not whole {width}-digit records"
        )
    # Reversed, the last operand comes first, so each strided column read
    # in base 16 holds vector k's digit in nibble k, and digit j of the
    # operand sits j places into it.
    backward = text[::-1]
    return [int(backward[j::width] or "0", 16) for j in range(width)]


def column_lanes(columns: Sequence[int], mask: int) -> list[int]:
    """The bit split of digit columns: lane 4j+i is bit i of every digit
    of column j, vector k's at bit 4k, under the batch's lane_mask."""
    return [column >> i & mask for column in columns for i in range(4)]


def text_lanes(text: str, width: int) -> list[int]:
    """The 4*width digit-bit lanes of a batch of operands written as ASCII
    digits, as text_columns reads them: the bit split of their columns.

    Lane 4j+i holds bit i of digit j of vector k at bit 4k, so every lane
    lies inside lane_mask(len(text) // width).  A width below 1, and text
    that is neither empty nor digit text nor whole operands, raise
    InvalidArgumentError.
    """
    columns = text_columns(text, width)
    return column_lanes(columns, lane_mask(len(text) // width))


_BIT_OF_BYTE = bytes.maketrans(b"\0\1", b"01")


def _bcd_digits(bits: str | bytes) -> str:
    """The digit string of 4N bits written most significant first: read
    as one binary number, its hex digits are the decimal digits.  A
    nibble above 9 raises InvalidBCDError, naming the lowest such."""
    digits = format(int(bits, 2), "x").zfill(len(bits) // 4)
    if not is_digit_text(digits):
        bad = next(c for c in reversed(digits) if c > "9")
        raise InvalidBCDError(f"digit {int(bad, 16)} outside 0..9")
    return digits


class AdderPort:
    """Operand and result lines of one compiled BCD adder, by name.

    The labels are ``designs.adder_labels``: bit i of operand digit j is
    the input ``a{i}.{j}`` / ``b{i}.{j}`` and sum bit i the output
    ``S{i}.{j}`` (no ``.{j}`` on the single-digit pdfa); ``cin`` and
    ``dC`` are the carries.  A netlist that lacks one of these lines is
    not an adder, and InvalidArgumentError names the first one missing.
    The operands must lie as ``designs._adder`` lays them out, and
    InvalidArgumentError names the first line that does not: a0..a3 then
    b0..b3 of digit j on lines 8j..8j+7, ``cin`` on line 8N, and the
    restored lines exactly 0..8N-1.  So the 8N operand bits are one slice
    of the line state, written and checked whole.  Scalar operands and
    sums are digit strings as encode returns them; any other operand is
    refused by the one digit-text rule, ``errors.digit_text``.
    """

    def __init__(self, compiled: CompiledNetlist):
        self.compiled = compiled
        labels, named = compiled.label_to_line, dict(compiled.named)
        n = self.width = max(1, len(labels) // 8)  # eight bits a digit, plus cin
        count = None if "a0" in labels else n  # the pdfa's labels have no .j
        # The label sequences are made again for each pass, not held: at
        # N=1024, held as lists, they raised the constructor's peak memory
        # from 0.5 to 1.2 MB.
        inputs, sums = adder_labels(count)
        for lines, wanted in ((labels, inputs), (named, chain(sums, ["dC"]))):
            missing = next((key for key in wanted if key not in lines), None)
            if missing is not None:
                raise InvalidArgumentError(f"not a BCD adder: no line {missing!r}")
        inputs, sums = adder_labels(count)
        for line, label in enumerate(inputs):
            if labels[label] != line:
                raise InvalidArgumentError(
                    f"not a BCD adder: input {label!r} on line {labels[label]}, "
                    f"not {line}"
                )
        # Sorted and distinct, so 8N of them ending at 8N-1 are 0..8N-1.
        restored = compiled.restored
        if len(restored) != 8 * n or restored[-1] != 8 * n - 1:
            line = min(set(restored) ^ set(range(8 * n)))
            raise InvalidArgumentError(
                f"not a BCD adder: line {line} is "
                + ("not restored" if line < 8 * n else "restored")
            )
        self._carry_line = named["dC"]
        # The sum bits in lane order; reversed, one binary number whose hex
        # digits are the sum's decimal digits.
        self._sums = itemgetter(*map(named.__getitem__, sums))
        self._constants = compiled.base_state[8 * n + 1 :]  # the lines past cin

    def pack(self, a: str, b: str, cin: int = 0) -> list[int]:
        """A fresh line state holding the operands and the carry-in.

        An operand that is not digit text (errors.digit_text), or not
        `width` digits long, is an InvalidArgumentError."""
        if type(cin) not in (int, bool) or cin not in (0, 1):
            raise InvalidArgumentError(f"carry-in must be 0 or 1, got {shown(cin)}")
        digit_text(a)
        digit_text(b)
        if len(a) != self.width or len(b) != self.width:
            raise InvalidArgumentError(
                f"operands must be strings of {self.width} ASCII digits"
            )
        # An ASCII digit read in base 16 is its BCD nibble, so the digits
        # paired b, a from the most significant read as one number whose
        # byte j holds a0..a3 then b0..b3 of digit j, from its low bit.
        pairs = bytearray(2 * self.width)
        pairs[0::2], pairs[1::2] = b.encode(), a.encode()
        bits = format(int(pairs, 16), "b").zfill(8 * self.width)
        return [*bits[::-1].encode().translate(_BYTE_OF_BIT), cin, *self._constants]

    def add_lanes(
        self, a: Sequence[int], b: Sequence[int], cin: int, mask: int
    ) -> tuple[list[int], int, int]:
        """Simulate every vector of a lane batch in one pass.

        `a` and `b` are operand lanes as to_lanes returns them, `cin` the
        carry-in lane and `mask` the batch's lane_mask.  Returns (sum
        lanes, carry lane, moved) in the same layout; bit 4k of `moved`
        is set when vector k changed a restored line.
        """
        if len(a) != 4 * self.width or len(b) != 4 * self.width:
            raise InvalidArgumentError(
                f"lane counts {len(a)}, {len(b)} != {4 * self.width}"
            )
        n8 = 8 * self.width
        initial = [0] * n8
        for i in range(4):  # bit i of every digit at once
            initial[i::8], initial[4 + i :: 8] = a[i::4], b[i::4]
        state = self.compiled.fresh_state(mask)
        state[:n8] = initial
        state[n8] = cin
        self.compiled.run_state(state, mask)
        moved = reduce(or_, map(xor, state[:n8], initial), 0)
        return list(self._sums(state)), state[self._carry_line], moved

    def add(self, a: str, b: str, cin: int = 0) -> tuple[str, int, bool]:
        """Simulate one addition; returns (sum, carry, restored_ok).

        Raises InvalidBCDError, naming the lowest such digit, when a sum
        nibble is above 9.
        """
        state = self.pack(a, b, cin)
        n8 = 8 * self.width
        initial = state[:n8]
        self.compiled.run_state(state)
        bits = bytes(self._sums(state))[::-1].translate(_BIT_OF_BYTE)
        return _bcd_digits(bits), state[self._carry_line], state[:n8] == initial

    @staticmethod
    def from_bits(text: str) -> str:
        """The digit string of a bit string, four little-endian bits per
        digit, least significant digit first."""
        if not is_digit_text(text) or len(text) % 4 or set(text) - {"0", "1"}:
            raise InvalidArgumentError(f"not a 4-per-digit bit string: {shown(text)}")
        return _bcd_digits(text[::-1])

    @staticmethod
    def to_bits(text: str) -> str:
        """Inverse of from_bits: the bits of digit text (errors.digit_text)."""
        return format(int(digit_text(text), 16), "b").zfill(4 * len(text))[::-1]


@lru_cache(maxsize=256, typed=True)
def cached_adder(design: str, width: int) -> AdderPort:
    """The port of the compiled `design` adder at `width` digits, built once.

    Any registered adder works: the pdfa at width 1, dec-rca and dec-csk
    at any width.  build_design names an unknown design or a width the
    design cannot take, and AdderPort a netlist that is not an adder."""
    return AdderPort(compile_netlist(build_design(design, width)))


def bcd_add(a: str, b: str, design: str = "dec-rca", cin: int = 0) -> tuple[str, int]:
    """Add two digit strings of one width by simulating the chosen adder
    netlist.

    Returns (sum mod 10^width as a digit string, carry bit).  The
    arithmetic is done by the gate-level circuit; nothing here computes
    the sum natively.
    """
    total, carry, _ = cached_adder(design, len(digit_text(a))).add(a, b, cin)
    return total, carry


# -- CSV ingestion ------------------------------------------------------------


class LedgerRecord(NamedTuple):
    group: str
    amount_cents: int


@dataclass(frozen=True)
class CsvConfig:
    """Schema for the configurable transaction CSV.

    A negative amount (a withdrawal) is kept as its magnitude.
    """

    group_column: str
    amount_column: str
    delimiter: str = ","
    strict: bool = True

    def __post_init__(self):
        if len(self.delimiter) != 1:
            raise InvalidArgumentError(
                f"delimiter must be one character, got {shown(self.delimiter)}"
            )


@dataclass
class IngestDiagnostics:
    rows_read: int = 0
    rows_kept: int = 0
    skipped: list[tuple[int, str]] = field(default_factory=list)


_AMOUNT_RE = re.compile(r"(-?)\$?(-?)(\d{1,3}(?:,\d{3})*|\d+)(?:\.(\d{1,2}))?")


def parse_amount(text: str) -> int:
    """Parse "$12.34", "12.34", "-5.00", "1,234.5" to signed cents."""
    m = _AMOUNT_RE.fullmatch(text.strip()) if isinstance(text, str) else None
    if m is None or m[1] and m[2]:  # one minus sign at most
        raise LedgerFormatError(f"malformed amount {shown(text)}")
    neg1, neg2, whole, frac = m.groups()
    # The whole units then two cents digits: the amount in cents.
    cents = _text_value(whole.replace(",", "") + (frac or "").ljust(2, "0"))
    return -cents if neg1 or neg2 else cents


def ingest_csv(
    path: str | Path, config: CsvConfig
) -> tuple[list[LedgerRecord], IngestDiagnostics]:
    """Parse ledger rows from a CSV file with a required header.

    The header must name the group and amount columns once each.
    Strict mode aborts at the first bad row; lenient mode skips bad rows
    and counts them in the diagnostics, with 1-based data row numbers;
    blank lines are skipped and not numbered.  A file that is not UTF-8
    or that csv cannot split is an error in either mode.
    """
    path = Path(path)
    diags = IngestDiagnostics()
    records: list[LedgerRecord] = []
    # Undecodable text and csv's own errors (a field past its size limit, a
    # NUL byte) end the read in lenient mode too: no later row is trusted.
    try:
        with path.open(newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle, delimiter=config.delimiter)
            header = next(reader, None)
            if header is None:
                raise LedgerFormatError("file has no header row")
            for col in (config.group_column, config.amount_column):
                count = header.count(col)
                if count != 1:
                    place = f"named {count} times in" if count else "not in"
                    raise LedgerFormatError(
                        f"column {shown(col)} {place} header {shown(header)}"
                    )
            group_at = header.index(config.group_column)
            amount_at = header.index(config.amount_column)
            # Blank lines read as empty rows; they are skipped, not numbered.
            row_no = 0
            for row_no, row in enumerate(filter(None, reader), start=1):
                try:
                    group = row[group_at].strip() if group_at < len(row) else ""
                    if not group:
                        raise LedgerFormatError("empty group key")
                    if amount_at >= len(row):
                        raise LedgerFormatError("missing amount field")
                    amount = abs(parse_amount(row[amount_at]))
                    records.append(LedgerRecord(group, amount))
                except LedgerFormatError as exc:  # raised without a row
                    if config.strict:
                        raise LedgerFormatError(str(exc), row_no) from exc
                    diags.skipped.append((row_no, str(exc)))
            diags.rows_read = row_no
            diags.rows_kept = len(records)
    except UnicodeDecodeError as exc:
        # The reader decodes in chunks, so exc.start counts from the start
        # of one; decoding the whole file again names the absolute byte.
        try:
            path.read_bytes().decode("utf-8")
        except UnicodeDecodeError as whole:
            exc = whole
        raise LedgerFormatError(
            f"not valid UTF-8 text (byte {exc.start}): {exc.reason}"
        ) from exc
    except csv.Error as exc:
        raise LedgerFormatError(f"unreadable CSV: {exc}") from exc
    return records, diags


# -- group summation -----------------------------------------------------------


@dataclass
class LedgerReport:
    """Per-group BCD totals plus the native-arithmetic verification."""

    totals: dict[str, int]
    native: dict[str, int]
    additions: int
    mismatches: list[str]
    width: int

    @property
    def groups(self) -> int:
        return len(self.totals)

    @property
    def verified(self) -> bool:
        return not self.mismatches

    def summary(self) -> dict[str, int]:
        return {
            "groups": self.groups,
            "additions": self.additions,
            "mismatches": len(self.mismatches),
        }


def sum_ledger(
    records: list[LedgerRecord],
    design: str = "dec-rca",
    width: int = DEFAULT_WIDTH,
) -> LedgerReport:
    """Left-fold each group's amounts through the simulated adder.

    Raises CapacityError naming the group if a fold overflows the digit
    width; group order in the report is sorted by key.
    """
    limit = 10 ** positive(width, "width")
    grouped: dict[str, list[int]] = {}
    for rec in records:
        if rec.amount_cents >= limit:
            raise CapacityError(
                f"group {shown(rec.group)}: amount {shown(rec.amount_cents)} "
                f"exceeds {width} digits"
            )
        grouped.setdefault(rec.group, []).append(rec.amount_cents)

    totals: dict[str, int] = {}
    native: dict[str, int] = {}
    mismatches: list[str] = []
    additions = 0
    for group in sorted(grouped):
        amounts = grouped[group]
        acc = encode(amounts[0], width)
        for value in amounts[1:]:
            acc, carry = bcd_add(acc, encode(value, width), design)
            additions += 1
            if carry:
                raise CapacityError(
                    f"group {shown(group)}: running total overflowed {width} digits"
                )
        totals[group] = decode(acc)
        native[group] = sum(amounts)
        if totals[group] != native[group]:
            mismatches.append(group)
    return LedgerReport(totals, native, additions, mismatches, width)


# -- synthetic data -------------------------------------------------------------


def generate_synthetic_csv(
    path: str | Path,
    rows: int = 2000,
    groups: int = 800,
    seed: int = 0,
) -> Path:
    """Write a reproducible transactions file for tests and demos.

    Columns: client_id, card_id, date, amount.  Amounts mix bare, dollar
    prefixed, and negative (debit) renderings.
    """
    rng = random.Random(seed)
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["client_id", "card_id", "date", "amount"])
        for k in range(rows):
            client = f"u{rng.randrange(groups):04d}"
            card = f"c{rng.randrange(3)}"
            date = f"201{rng.randrange(10)}-{rng.randrange(1, 13):02d}-{rng.randrange(1, 29):02d}"
            cents = rng.randrange(1, 10_000_00)
            text = f"{cents // 100}.{cents % 100:02d}"
            style = rng.randrange(3)
            if style == 1:
                text = "$" + text
            elif style == 2:
                text = "-" + text
            writer.writerow([client, card, date, text])
    return path
