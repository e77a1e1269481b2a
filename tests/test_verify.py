"""The verify suites: lane batches against one-vector-at-a-time references."""

import re
from collections import Counter

import pytest

from revbcd import costs, designs, ledger, simulator, verify
from revbcd.designs import ADDER_DESIGNS
from revbcd.gates import GateKind
from revbcd.ledger import AdderPort, cached_adder, encode


# A DFG that drops its second target: still bijective, wrong for adders.
dfg_first_only = "{b} ^= {a}"


# A BJN with AND in place of OR: still bijective, wrong for adders.
bjn_and = "{c} ^= {a} & {b}"


# An MF whose two mux outputs trade lines: still bijective, but the
# selected carry lands on the wrong line.
mf_outputs_swapped = (
    "t = {b}\n{b} = ({a} & t) ^ (~{a} & {c})\n{c} = (~{a} & t) ^ ({a} & ~{c})"
)


def scalar_failures(seed, samples):
    """Failing vectors of verify_adders, one scalar run per vector and design.

    Each size's vectors are records of 2n+1 digits of the seed's digit
    stream: a, b, and a digit whose parity is the carry-in.

    Reads the raw sum nibbles, so a non-BCD digit counts as a failure
    instead of raising.  Returns (count, first failing (design, n, a, b, cin)).
    """
    stream = verify.DigitStream(seed)
    count, first = 0, None
    for n in verify.ADDER_SIZES:
        text = stream.take(samples * (2 * n + 1))
        for k in range(samples):
            record = text[k * (2 * n + 1) : (k + 1) * (2 * n + 1)]
            a, b, cin = int(record[:n]), int(record[n : 2 * n]), int(record[-1]) % 2
            total = a + b + cin
            want = (
                tuple(map(int, reversed(encode(total % 10**n, n)))),
                int(total >= 10**n),
            )
            failing = []
            for design in ADDER_DESIGNS:
                port = cached_adder(design, n)
                state = port.pack(encode(a, n), encode(b, n), cin)
                before = [state[line] for line in port.compiled.restored]
                port.compiled.run_state(state)
                got = (
                    tuple(
                        sum(state[line] << i for i, line in enumerate(quad))
                        for quad in port._sum_lines
                    ),
                    state[port._carry_line],
                )
                restored = [state[line] for line in port.compiled.restored] == before
                if got != want or not restored:
                    failing.append(design)
            if failing:
                count += 1
                first = first or (failing[0], n, a, b, cin)
    return count, first


def matched(detail):
    good, total = re.match(r"(\d+)/(\d+)", detail).groups()
    return int(good), int(total)


class TestAdders:
    def test_passing_detail_unchanged(self):
        result = verify.verify_adders(seed=5, samples=40)
        assert result.passed
        assert result.detail == (
            "160/160 sampled vectors match native addition on both designs (seed=5)"
        )

    def test_failure_count_equals_scalar_loop(self, mutate_gate):
        mutate_gate(GateKind.DFG, dfg_first_only)
        result = verify.verify_adders(seed=3, samples=120)
        count, first = scalar_failures(3, 120)
        good, total = matched(result.detail)
        assert not result.passed
        assert total == 480 and 0 < count < total
        assert total - good == count
        design, n, a, b, cin = first
        want = f"; first failure: {design} N={n} a={a} b={b} cin={cin}: "
        assert want in result.detail

    def test_first_failure_shows_expected_and_actual(self, mutate_gate):
        mutate_gate(GateKind.DFG, dfg_first_only)
        result = verify.verify_adders(seed=3, samples=120)
        m = re.search(
            r"first failure: (\S+) N=2 a=(\d+) b=(\d+) cin=(\d): "
            r"expected sum=(\d\d) carry=(\d), got sum=(\w\w) carry=(\d)",
            result.detail,
        )
        assert m, result.detail
        design, a, b, cin, want_sum, want_carry, got_sum, got_carry = m.groups()
        total = int(a) + int(b) + int(cin)
        assert (int(want_sum), int(want_carry)) == (total % 100, total >= 100)
        assert (got_sum, got_carry) != (want_sum, want_carry)
        assert design in ADDER_DESIGNS

    @pytest.mark.parametrize("batch_bits", (0, 3))
    def test_batches_keep_the_vectors_and_the_report(
        self, mutate_gate, monkeypatch, batch_bits
    ):
        """Batches of 1 or 8 vectors draw, count and name exactly what one
        batch does."""
        mutate_gate(GateKind.DFG, dfg_first_only)
        whole = verify.verify_adders(seed=3, samples=60)
        monkeypatch.setattr(verify, "BATCH_BITS", batch_bits)
        assert verify.verify_adders(seed=3, samples=60) == whole
        assert not whole.passed and "first failure" in whole.detail

    def test_carry_and_restored_mismatches_count(self, monkeypatch):
        """Vector 0 gets a wrong carry and vector 3 a moved restored line."""
        original = AdderPort.add_lanes

        def tampered(self, *args):
            sums, carry, moved = original(self, *args)
            return sums, carry ^ 0b1, moved | 0b1000

        monkeypatch.setattr(AdderPort, "add_lanes", tampered)
        result = verify.verify_adders(seed=0, samples=10)
        assert matched(result.detail) == (32, 40)
        first = result.detail.split("; first failure: ")[1]
        assert first.startswith("dec-rca N=2 ")
        assert "restored" not in first
        want_carry, got_carry = re.findall(r"carry=(\d)", first)
        assert want_carry != got_carry


class TestDigitStream:
    def test_each_digit_from_25_byte_values(self):
        kept = bytes(range(256)).translate(verify._DIGIT_OF_BYTE, verify._REJECTED)
        assert len(kept) == 250
        assert Counter(kept) == {ord(d): 25 for d in "0123456789"}
        assert verify._REJECTED == bytes(range(250, 256))

    def test_draws_do_not_depend_on_the_split(self):
        # 4103 digits take more than one block of bytes, so the split
        # requests cross a refill.
        assert verify.DigitStream.BLOCK < 4103
        whole = verify.DigitStream(7).take(4103)
        stream = verify.DigitStream(7)
        parts = [stream.take(count) for count in (5, 4091, 7)]
        assert "".join(parts) == whole
        assert len(whole) == 4103 and whole.isascii() and whole.isdecimal()

    def test_buffer_stays_below_one_block(self, monkeypatch):
        buffered = []

        class Recorded(verify.DigitStream):
            def take(self, count):
                digits = super().take(count)
                buffered.append(len(self.buffer))
                return digits

        monkeypatch.setattr(verify, "DigitStream", Recorded)
        monkeypatch.setattr(verify, "BATCH_BITS", 4)
        assert verify.verify_adders(seed=2, samples=300).passed
        assert len(buffered) == 4 * 19
        assert max(buffered) < verify.DigitStream.BLOCK


class TestCells:
    def test_pdfa_failure_named(self, mutate_gate):
        mutate_gate(GateKind.BJN, bjn_and)
        result = verify.verify_pdfa()
        assert not result.passed
        assert 0 < matched(result.detail)[0] < 200
        assert "; first failure: pdfa N=1 a=" in result.detail

    def test_propagate_passing_detail_unchanged(self):
        result = verify.verify_propagate()
        assert result.passed
        assert result.detail == "100/100 digit pairs sound; carry-select rows 8/8"

    def test_carry_select_rows_follow_the_skip_block(self, mutate_gate):
        mutate_gate(GateKind.MF, mf_outputs_swapped)
        result = verify.verify_propagate()
        assert not result.passed
        assert "carry-select rows 8/8" not in result.detail
        assert re.search(r"carry-select rows [0-7]/8$", result.detail)

    def test_metrics_scope_compiles_nothing(self):
        """The metrics scope reads the structural fit, which measures the
        built netlists without compiling any."""
        for cached in (
            simulator.compile_netlist,
            ledger.cached_adder,
            costs.structural_figures,
        ):
            cached.cache_clear()
        assert all(r.passed for r in verify.run_scope("metrics"))
        assert simulator.compile_netlist.cache_info().misses == 0

    def test_scopes_rebuild_nothing_once_warm(self, monkeypatch):
        assert all(r.passed for r in verify.run_scope("all", seed=1, samples=10))

        def no_build(*args, **kwargs):
            raise AssertionError("netlist rebuilt")

        for module, name in (
            (designs, "build_design"),
            (ledger, "build_design"),
            (verify, "build_pdfa"),
            (verify, "build_skip_generator"),
        ):
            monkeypatch.setattr(module, name, no_build)
        assert all(r.passed for r in verify.run_scope("all", seed=2, samples=10))
