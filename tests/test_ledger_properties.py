"""Property tests for the ledger amount boundary and the digit-text lane
codec (needs hypothesis).

Any text either parses to an int or fails with LedgerFormatError, and
every rendering of a cents value the parser documents reads back exactly.
`text_lanes` reads fixed-width digit operands into lanes with vector k
at bit 4k: every lane lies inside `lane_mask`, and nibble k of the lanes
gives operand k back.
"""

import itertools

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from revbcd.errors import LedgerFormatError
from revbcd.ledger import lane_mask, parse_amount, text_lanes

# Text drawn mostly from the characters an amount is made of, so the
# parser's later branches (signs, commas, the fraction) are reached often.
_AMOUNT_LIKE = st.text(alphabet="0123456789,.$- \t\n", max_size=16)


@settings(max_examples=400, deadline=None)
@given(_AMOUNT_LIKE | st.text(max_size=16))
def test_any_text_parses_or_raises_format_error(text):
    try:
        value = parse_amount(text)
    except LedgerFormatError:
        return
    assert type(value) is int


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10**30))
def test_rendered_cents_read_back(cents):
    whole, frac = divmod(cents, 100)
    tails = (f".{frac:02d}", "") if frac == 0 else (f".{frac:02d}",)
    for grouped, dollar, minus in itertools.product((False, True), repeat=3):
        for tail in tails:
            text = f"{whole:,}" if grouped else str(whole)
            text = f"{'-' if minus else ''}{'$' if dollar else ''}{text}{tail}"
            assert parse_amount(text) == (-cents if minus else cents), text


@st.composite
def digit_records(draw):
    """(width, records): 0..60 operands of `width` ASCII digits."""
    width = draw(st.integers(min_value=1, max_value=12))
    record = st.text(alphabet="0123456789", min_size=width, max_size=width)
    return width, draw(st.lists(record, max_size=60))


@settings(max_examples=300, deadline=None)
@given(digit_records())
def test_nibble_k_of_the_lanes_rebuilds_field_k(batch):
    width, records = batch
    lanes = text_lanes("".join(records), width)
    mask = lane_mask(len(records))
    assert len(lanes) == 4 * width
    assert all(lane & ~mask == 0 for lane in lanes)
    for k, record in enumerate(records):
        digits = [
            sum((lanes[4 * j + i] >> 4 * k & 1) << i for i in range(4))
            for j in reversed(range(width))
        ]
        assert "".join(map(str, digits)) == record
