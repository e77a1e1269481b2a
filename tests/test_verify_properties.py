"""Property tests for verify's native-addition oracle (needs hypothesis).

`verify._column_sums` adds a batch of digit records column by column,
from their digit columns (`ledger.text_columns`); its sum and carry lanes
must be those of each vector's own sum, str(a + b + cin).zfill(n + 1),
read through `ledger.text_lanes`.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from revbcd import verify
from revbcd.ledger import text_columns, text_lanes


def records(n, vectors):
    """The digit records of (a, b, carry digit) vectors at n digits."""
    return "".join(f"{a:0{n}d}{b:0{n}d}{c}" for a, b, c in vectors)


def column_sums(n, vectors):
    """The column oracle on the vectors' records."""
    columns = text_columns(records(n, vectors), 2 * n + 1)
    return verify._column_sums(columns, n, len(vectors))


def native(n, vectors):
    """(sum lanes, carry lane) of each vector's a + b + (carry digit
    parity), one native addition a vector, as n+1 digits through
    text_lanes."""
    fields = "".join(str(a + b + c % 2).zfill(n + 1) for a, b, c in vectors)
    lanes = text_lanes(fields, n + 1)
    return lanes[: 4 * n], lanes[4 * n]


@st.composite
def batches(draw):
    # Up to 40 digits a vector, so a carry can run across many columns.
    n = draw(st.integers(min_value=1, max_value=40))
    top = 10**n - 1
    operand = st.integers(min_value=0, max_value=top) | st.sampled_from((0, top))
    vector = st.tuples(operand, operand, st.integers(min_value=0, max_value=9))
    return n, draw(st.lists(vector, min_size=1, max_size=300))


@settings(max_examples=200, deadline=None)
@given(batches())
def test_each_field_is_the_native_sum(batch):
    n, vectors = batch
    assert column_sums(n, vectors) == native(n, vectors)


@pytest.mark.parametrize("count", (1, 7, 300))
def test_extreme_operands(count):
    """All-9 operands with an odd carry digit carry out of every digit;
    all-0 operands give zero sums."""
    for n in range(1, 41):
        top = 10**n - 1
        nines, zeros = [(top, top, 9)] * count, [(0, 0, 0)] * count
        for vectors in (nines, zeros, [nines[0], zeros[0]] * count):
            assert column_sums(n, vectors) == native(n, vectors), (n, vectors[:2])
        sums, carry = column_sums(n, nines)
        assert sums == text_lanes("9" * n * count, n)
        assert carry == text_lanes("1" * count, 1)[0]
