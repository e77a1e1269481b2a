"""Property tests for verify's native-addition oracle (needs hypothesis).

`verify._native_sums` adds a batch of digit records as guarded BCD
fields in one binary addition; each field must read as the vector's own
sum, carry digit first.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from revbcd import verify


def records(n, vectors):
    """The digit records of (a, b, carry digit) vectors at n digits."""
    return "".join(f"{a:0{n}d}{b:0{n}d}{c}" for a, b, c in vectors)


def fields(n, vectors):
    """Each vector's a + b + (carry digit parity), as n+1 digits."""
    return "".join(str(a + b + c % 2).zfill(n + 1) for a, b, c in vectors)


@st.composite
def batches(draw):
    # Up to 40 digits a field, so a batch crosses many chunk boundaries.
    n = draw(st.integers(min_value=1, max_value=40))
    top = 10**n - 1
    operand = st.integers(min_value=0, max_value=top) | st.sampled_from((0, top))
    vector = st.tuples(operand, operand, st.integers(min_value=0, max_value=9))
    return n, draw(st.lists(vector, min_size=1, max_size=300))


@settings(max_examples=200, deadline=None)
@given(batches())
def test_each_field_is_the_native_sum(batch):
    n, vectors = batch
    assert verify._native_sums(records(n, vectors), n) == fields(n, vectors)


@pytest.mark.parametrize("count", (1, 7, 300))
def test_extreme_operands(count):
    """All-9 operands with an odd carry digit carry out of every field;
    all-0 operands give zero fields."""
    for n in range(1, 41):
        top = 10**n - 1
        nines, zeros = [(top, top, 9)] * count, [(0, 0, 0)] * count
        for vectors in (nines, zeros, [nines[0], zeros[0]] * count):
            got = verify._native_sums(records(n, vectors), n)
            assert got == fields(n, vectors), (n, vectors[:2])
        assert verify._native_sums(records(n, nines), n) == ("1" + "9" * n) * count
