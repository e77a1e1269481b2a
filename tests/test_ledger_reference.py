"""The adder port and the CSV reader against self-contained reference
copies of the loops they replace (needs hypothesis).

`AdderPort` writes the 8N operand bits as one slice and reads the sum
bits with one itemgetter, relying on the operand layout of
`designs._adder`.  The reference below maps every line by its label and
packs and unpacks one digit at a time, so it assumes no layout.  Both
must agree on every sum, carry, restored-line verdict and InvalidBCDError
message, with correct gates and under mutated ones.

`ingest_csv` reads rows as lists by column index; the reference reads
them as `csv.DictReader` dicts.  Both must give the same records,
diagnostics and errors, except that a header naming the group or amount
column twice is now an error where the dict reader took the last one.
"""

import csv
import dataclasses
import io
from itertools import chain

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from revbcd.designs import build_dec_csk, build_design
from revbcd.errors import (
    InvalidArgumentError,
    InvalidBCDError,
    LedgerFormatError,
    shown,
)
from revbcd.gates import GateKind
from revbcd.ledger import (
    AdderPort,
    CsvConfig,
    IngestDiagnostics,
    LedgerRecord,
    ingest_csv,
    lane_mask,
    parse_amount,
    text_lanes,
)
from revbcd.netlist import RoleColumns
from revbcd.simulator import compile_netlist

SIZES = (1, 2, 3, 16, 64)
ADDERS = [("pdfa", 1)] + [(d, n) for d in ("dec-rca", "dec-csk") for n in SIZES]

# Bijective gates that are wrong for adders (as in test_verify): a DFG
# that drops its second target, a BJN with AND for OR, an MF whose mux
# outputs trade lines, and an HNG that leaves its result on its first
# operand too, so an operand line is not restored.
FAULTS = {
    "none": None,
    "hng": (
        GateKind.HNG,
        "t = {a} ^ {b}\n{d} ^= (t & {c}) ^ ({a} & {b})\n{c} ^= t\n{a} ^= {d}",
    ),
    "dfg": (GateKind.DFG, "{b} ^= {a}"),
    "bjn": (GateKind.BJN, "{c} ^= {a} & {b}"),
    "mf": (
        GateKind.MF,
        "t = {b}\n{b} = ({a} & t) ^ (~{a} & {c})\n{c} = (~{a} & t) ^ ({a} & ~{c})",
    ),
}


class ReferencePort:
    """The adder port as one loop per digit over lines found by label."""

    def __init__(self, compiled):
        self.compiled = compiled
        labels, named = compiled.label_to_line, dict(compiled.named)
        self.width = max(1, len(labels) // 8)
        digits = [""] if "a0" in labels else [f".{j}" for j in range(self.width)]

        def quads(lines, stem):
            return [[lines[f"{stem}{i}{d}"] for i in range(4)] for d in digits]

        self.a_lines, self.b_lines = quads(labels, "a"), quads(labels, "b")
        self.cin_line = labels["cin"]
        self.sum_lines = quads(named, "S")
        self.carry_line = named["dC"]
        self.restored = compiled.restored

    def pack(self, a, b, cin=0):
        state = self.compiled.fresh_state()
        for quad_a, quad_b, da, db in zip(self.a_lines, self.b_lines, a[::-1], b[::-1]):
            for i in range(4):
                state[quad_a[i]] = int(da) >> i & 1
                state[quad_b[i]] = int(db) >> i & 1
        state[self.cin_line] = cin
        return state

    def add(self, a, b, cin=0):
        state = self.pack(a, b, cin)
        initial = [state[line] for line in self.restored]
        self.compiled.run_state(state)
        digits = [
            state[s0] | state[s1] << 1 | state[s2] << 2 | state[s3] << 3
            for s0, s1, s2, s3 in self.sum_lines
        ]
        for digit in digits:  # least significant first
            if digit > 9:
                raise InvalidBCDError(f"digit {digit} outside 0..9")
        ok = [state[line] for line in self.restored] == initial
        return "".join(map(str, reversed(digits))), state[self.carry_line], ok

    def add_lanes(self, a, b, cin, mask):
        state = self.compiled.fresh_state(mask)
        for quads, lanes in ((self.a_lines, a), (self.b_lines, b)):
            for line, lane in zip(chain.from_iterable(quads), lanes):
                state[line] = lane
        state[self.cin_line] = cin
        initial = [state[line] for line in self.restored]
        self.compiled.run_state(state, mask)
        moved = 0
        for line, before in zip(self.restored, initial):
            moved |= state[line] ^ before
        sums = [state[line] for line in chain.from_iterable(self.sum_lines)]
        return sums, state[self.carry_line], moved


def outcome(call, *args):
    """What a port call returns, or the type and text of what it raises."""
    try:
        return call(*args)
    except InvalidBCDError as exc:
        return ("InvalidBCDError", str(exc))


@pytest.fixture(params=list(FAULTS), ids=list(FAULTS))
def fault(request, mutate_gate):
    if FAULTS[request.param]:
        mutate_gate(*FAULTS[request.param])
    return request.param


def ports(design, n):
    compiled = compile_netlist(build_design(design, n))
    return AdderPort(compiled), ReferencePort(compiled)


def operands(draw, n, count):
    digits = st.text(alphabet="0123456789", min_size=n, max_size=n)
    # all-0 and all-9 operands reach every carry chain's ends
    edge = st.sampled_from(["0" * n, "9" * n])
    return draw(st.lists(digits | edge, min_size=count, max_size=count))


@st.composite
def scalar_cases(draw):
    design, n = draw(st.sampled_from(ADDERS))
    a, b = operands(draw, n, 2)
    return design, n, a, b, draw(st.integers(0, 1))


@st.composite
def lane_cases(draw):
    design, n = draw(st.sampled_from(ADDERS))
    count = draw(st.integers(1, 24))
    a, b = operands(draw, n, count), operands(draw, n, count)
    cins = draw(st.text(alphabet="01", min_size=count, max_size=count))
    return design, n, a, b, cins


_FIXTURE_ONCE = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@_FIXTURE_ONCE
@given(case=scalar_cases())
def test_pack_and_add_equal_the_reference(fault, case):
    design, n, a, b, cin = case
    port, reference = ports(design, n)
    assert port.pack(a, b, cin) == reference.pack(a, b, cin)
    assert outcome(port.add, a, b, cin) == outcome(reference.add, a, b, cin)


@_FIXTURE_ONCE
@given(case=lane_cases())
def test_add_lanes_equals_the_reference(fault, case):
    design, n, a, b, cins = case
    port, reference = ports(design, n)
    args = (text_lanes("".join(a), n), text_lanes("".join(b), n))
    args += (text_lanes(cins, 1)[0], lane_mask(len(cins)))
    assert port.add_lanes(*args) == reference.add_lanes(*args)


@pytest.mark.parametrize("design,n", [("pdfa", 1), ("dec-rca", 3), ("dec-csk", 3)])
@pytest.mark.parametrize(
    "first,second", [("a0", "b0"), ("a3", "a2"), ("b1", "cin")], ids=str
)
def test_swapped_operand_labels_refused(design, n, first, second):
    """Two operand labels traded: every line is still there by name, but
    not where the port's slice puts it."""
    netlist = build_design(design, n)
    suffix = "" if design == "pdfa" else f".{n - 1}"
    first += suffix
    second += suffix if second != "cin" else ""
    labels = list(netlist.roles.labels)
    i, j = sorted([labels.index(first), labels.index(second)])
    want = f"not a BCD adder: input {labels[i]!r} on line {j}, not {i}"
    labels[i], labels[j] = labels[j], labels[i]
    swapped = dataclasses.replace(
        netlist, roles=RoleColumns(netlist.roles.kinds, labels)
    )
    with pytest.raises(InvalidArgumentError) as info:
        AdderPort(compile_netlist(swapped))
    assert str(info.value) == want


@pytest.mark.parametrize(
    "change,message",
    [
        (lambda lines: lines - {5}, "line 5 is not restored"),
        (lambda lines: lines | {16}, "line 16 is restored"),
    ],
    ids=("operand-not-restored", "carry-in-restored"),
)
def test_restored_lines_must_be_the_operands(change, message):
    netlist = build_dec_csk(2)  # its carry-in is no output line
    changed = dataclasses.replace(netlist, restored=change(netlist.restored))
    with pytest.raises(InvalidArgumentError, match=f"^not a BCD adder: {message}$"):
        AdderPort(compile_netlist(changed))


# -- CSV reader ----------------------------------------------------------------


def reference_ingest(path, config):
    """ingest_csv as one DictReader dict per row."""
    diags = IngestDiagnostics()
    records = []
    try:
        with path.open(newline="", encoding="utf-8") as handle:
            reader = csv.DictReader(handle, delimiter=config.delimiter)
            header = reader.fieldnames
            if header is None:
                raise LedgerFormatError("file has no header row")
            for col in (config.group_column, config.amount_column):
                if col not in header:
                    raise LedgerFormatError(
                        f"column {shown(col)} not in header {shown(header)}"
                    )
            for row_no, row in enumerate(reader, start=1):
                diags.rows_read += 1
                try:
                    group = (row[config.group_column] or "").strip()
                    if not group:
                        raise LedgerFormatError("empty group key")
                    raw = row[config.amount_column]
                    if raw is None:
                        raise LedgerFormatError("missing amount field")
                    records.append(LedgerRecord(group, abs(parse_amount(raw))))
                    diags.rows_kept += 1
                except LedgerFormatError as exc:
                    if config.strict:
                        raise LedgerFormatError(str(exc), row_no) from exc
                    diags.skipped.append((row_no, str(exc)))
    except csv.Error as exc:
        raise LedgerFormatError(f"unreadable CSV: {exc}") from exc
    return records, diags


def read(reader, path, config):
    try:
        records, diags = reader(path, config)
    except LedgerFormatError as exc:
        return ("error", str(exc), exc.row)
    return records, dataclasses.asdict(diags)


COLUMNS = ["user", "amount", "note", ""]
FIELD = st.sampled_from(
    ["u1", " u2 ", "", "1.00", "$2.50", "-3", "bogus", "a,b", 'q"', "x\ny"]
)
ROW = st.lists(
    FIELD | st.text(alphabet='0123456789u.$-, ;"\n', max_size=6), max_size=5
)


@st.composite
def csv_texts(draw):
    """(text, delimiter, strict): a header over a few known column names,
    then rows of any length, written by csv.writer (so quoted
    delimiters, quotes and newlines occur) or as raw text."""
    delimiter = draw(st.sampled_from([",", ";", "\t"]))
    header = draw(st.lists(st.sampled_from(COLUMNS), max_size=5))
    rows = draw(st.lists(st.just([]) | ROW, max_size=12))  # [] writes a blank line
    if draw(st.booleans()):
        lines = io.StringIO()
        writer = csv.writer(lines, delimiter=delimiter)
        for row in [header, *rows]:
            writer.writerow(row)
        text = lines.getvalue()
    else:
        body = [delimiter.join(row) for row in [header, *rows]]
        text = draw(st.sampled_from(["\n", "\r\n"])).join(body)
    return text, delimiter, draw(st.booleans())


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=csv_texts())
def test_ingest_equals_the_dict_reader(tmp_path, case):
    text, delimiter, strict = case
    path = tmp_path / "tx.csv"
    path.write_text(text, encoding="utf-8", newline="")
    config = CsvConfig("user", "amount", delimiter=delimiter, strict=strict)
    got = read(ingest_csv, path, config)
    header = next(csv.reader(text.splitlines(), delimiter=delimiter), [])
    for col in ("user", "amount"):  # the order ingest_csv checks them in
        count = header.count(col)
        if count > 1:
            named = f"column {col!r} named {count} times in header {shown(header)}"
            assert got == ("error", named, None)
            return
        if not count:
            break
    assert got == read(reference_ingest, path, config)
