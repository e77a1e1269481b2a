"""Gate semantics, cost constants, and reversibility laws."""

import pytest

from revbcd.errors import ArityError
from revbcd.gates import (
    ALL_KINDS,
    GateKind,
    arity,
    block,
    gate_cost,
    gate_semantics,
    gate_truth_table,
    is_bijective,
    undo_steps,
)


class TestSemantics:
    @pytest.mark.parametrize(
        "kind,inp,out",
        [
            (GateKind.FG, (1, 1), (1, 0)),
            (GateKind.NOT, (0,), (1,)),
            (GateKind.PG, (1, 1, 0), (1, 0, 1)),
            (GateKind.HNG, (1, 1, 0, 0), (1, 1, 0, 1)),
            (GateKind.BJN, (0, 1, 0), (0, 1, 1)),
            (GateKind.MF, (0, 1, 0), (0, 1, 0)),
            (GateKind.DFG, (1, 0, 0), (1, 1, 1)),
        ],
    )
    def test_known_rows(self, kind, inp, out):
        assert gate_semantics(kind, inp) == out

    def test_arity_mismatch(self):
        with pytest.raises(ArityError):
            gate_semantics(GateKind.FG, (1, 0, 1))

    def test_non_bit_rejected(self):
        with pytest.raises(ArityError):
            gate_semantics(GateKind.NOT, (2,))

    @pytest.mark.parametrize("bit", (-1, 1.0, "1", None), ids=repr)
    def test_non_int_bit_rejected(self, bit):
        with pytest.raises(ArityError, match="must be 0/1 bits"):
            gate_semantics(GateKind.NOT, (bit,))

    def test_bools_are_bits(self):
        assert gate_semantics(GateKind.FG, (True, False)) == (True, 1)


class TestCosts:
    @pytest.mark.parametrize(
        "kind,qc,delay",
        [
            (GateKind.NOT, 0, 1),
            (GateKind.FG, 1, 1),
            (GateKind.PG, 4, 4),
            (GateKind.MF, 4, 3),
            (GateKind.HNG, 6, 5),
            (GateKind.BJN, 5, 4),
            (GateKind.DFG, 2, 2),
        ],
    )
    def test_constants(self, kind, qc, delay):
        assert gate_cost(kind) == (qc, delay)

    def test_arities(self):
        assert [arity(k) for k in ALL_KINDS] == [1, 2, 3, 3, 4, 3, 3]


class TestTruthTables:
    def test_not_table(self):
        assert gate_truth_table(GateKind.NOT) == [((0,), (1,)), ((1,), (0,))]

    def test_fg_outputs_permute_inputs(self):
        rows = gate_truth_table(GateKind.FG)
        assert len(rows) == 4
        assert sorted(out for _, out in rows) == sorted(inp for inp, _ in rows)

    def test_mf_outputs_distinct(self):
        rows = gate_truth_table(GateKind.MF)
        assert len(rows) == 8
        assert len({out for _, out in rows}) == 8

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_bijectivity(self, kind):
        assert is_bijective(kind)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_rows_are_the_per_vector_semantics(self, kind):
        """The one lane-batch run gives, row by row, what gate_semantics
        gives on that row's input alone."""
        n = arity(kind)
        inputs = [tuple(k >> i & 1 for i in range(n)) for k in range(1 << n)]
        want = [(bits, gate_semantics(kind, bits)) for bits in inputs]
        assert gate_truth_table(kind) == want


class TestAlgebra:
    @pytest.mark.parametrize("a,b", [(a, b) for a in (0, 1) for b in (0, 1)])
    def test_fg_self_inverse(self, a, b):
        once = gate_semantics(GateKind.FG, (a, b))
        assert gate_semantics(GateKind.FG, once) == (a, b)

    def test_not_self_inverse(self):
        for a in (0, 1):
            assert gate_semantics(GateKind.NOT, gate_semantics(GateKind.NOT, (a,))) == (a,)

    def test_pg_is_and_xor(self):
        for a in (0, 1):
            for b in (0, 1):
                _, q, r = gate_semantics(GateKind.PG, (a, b, 0))
                assert q == a ^ b and r == a & b

    def test_bjn_is_or(self):
        for a in (0, 1):
            for b in (0, 1):
                assert gate_semantics(GateKind.BJN, (a, b, 0))[2] == (a | b)

    def test_hng_is_full_adder(self):
        for a in (0, 1):
            for b in (0, 1):
                for c in (0, 1):
                    _, _, r, s = gate_semantics(GateKind.HNG, (a, b, c, 0))
                    assert r == a ^ b ^ c
                    assert s == int(a + b + c >= 2)  # majority

    def test_mf_is_mux(self):
        for a in (0, 1):
            for b in (0, 1):
                for c in (0, 1):
                    r = gate_semantics(GateKind.MF, (a, b, c))[2]
                    assert r == (b if a else c)

    def test_dfg_copies(self):
        for a in (0, 1):
            for b in (0, 1):
                for c in (0, 1):
                    p, q, r = gate_semantics(GateKind.DFG, (a, b, c))
                    assert (p, q, r) == (a, a ^ b, a ^ c)
        assert gate_semantics(GateKind.DFG, (1, 0, 0)) == (1, 1, 1)




def apply(kind, state):
    """Run one gate on lines 0..arity-1 of `state`, whose last slot holds
    the lane mask, in place."""
    pins = tuple(range(arity(kind)))
    block(((kind, pins),))(*pins)(state)


def undo(kind, state):
    """Run the undo steps of `kind` on lines 0..arity-1 of `state` as one
    block, in place."""
    block(undo_steps(kind))(*range(arity(kind)))(state)


class TestInverse:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_steps_use_only_their_own_kind(self, kind):
        """Each step is a gate of the undone kind on the same pins, so a
        mutated kind changes no other kind's undo."""
        steps = undo_steps(kind)
        assert steps
        for step_kind, positions in steps:
            assert step_kind is kind
            assert sorted(positions) == list(range(arity(kind)))

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_inverse_restores_every_scalar_input(self, kind):
        n = arity(kind)
        for value in range(1 << n):
            bits = [(value >> i) & 1 for i in range(n)]
            state = [*bits, 1]
            apply(kind, state)
            assert tuple(state[:n]) == gate_semantics(kind, tuple(bits))
            undo(kind, state)
            assert state == [*bits, 1]

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_inverse_restores_a_lane_batch(self, kind):
        """All 2^arity inputs at once, vector k being input k, under a
        mask of 2^arity bits: NOT's v[-1] and MF's ~ meet a real mask.
        Vector k sits at bit k (the compact layout) and at bit 4k (the
        sparse layout of digit-text batches), whose mask has gaps."""
        n = arity(kind)
        count = 1 << n
        for spread in (1, 4):
            mask = sum(1 << spread * k for k in range(count))
            lanes = [
                sum(((k >> i) & 1) << spread * k for k in range(count))
                for i in range(n)
            ]
            state = [*lanes, mask]
            apply(kind, state)
            for k in range(count):
                out = tuple(lane >> spread * k & 1 for lane in state[:n])
                want = gate_semantics(kind, tuple((k >> i) & 1 for i in range(n)))
                assert out == want
            assert all(lane & ~mask == 0 for lane in state[:n])
            undo(kind, state)
            assert state == [*lanes, mask]
