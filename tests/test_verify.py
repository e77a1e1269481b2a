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
                named = dict(port.compiled.named)
                got = (
                    tuple(
                        sum(state[named[f"S{i}.{j}"]] << i for i in range(4))
                        for j in range(n)
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


def operands(seed, k):
    """The "a=.. b=.. cin=.." of vector k of verify_adders' first size."""
    n = verify.ADDER_SIZES[0]
    record = verify.DigitStream(seed).take((k + 1) * (2 * n + 1))[-(2 * n + 1) :]
    return f"a={int(record[:n])} b={int(record[n:-1])} cin={int(record[-1]) % 2}"


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
        """Vector 0 gets a wrong carry (bit 0) and vector 3 a moved restored
        line (bit 12): two failing vectors per batch, vector 0 named."""
        original = AdderPort.add_lanes

        def tampered(self, *args):
            sums, carry, moved = original(self, *args)
            return sums, carry ^ 1, moved | 1 << 12

        monkeypatch.setattr(AdderPort, "add_lanes", tampered)
        result = verify.verify_adders(seed=0, samples=10)
        assert matched(result.detail) == (32, 40)
        first = result.detail.split("; first failure: ")[1]
        assert first.startswith(f"dec-rca N=2 {operands(0, 0)}: ")
        assert "restored" not in first
        want_carry, got_carry = re.findall(r"carry=(\d)", first)
        assert want_carry != got_carry

    def test_restored_mismatch_names_its_vector(self, monkeypatch):
        """A moved restored line at bit 12 alone fails vector 3 of each
        batch, and the report names vector 3's operands."""
        original = AdderPort.add_lanes

        def tampered(self, *args):
            sums, carry, moved = original(self, *args)
            return sums, carry, moved | 1 << 12

        monkeypatch.setattr(AdderPort, "add_lanes", tampered)
        result = verify.verify_adders(seed=0, samples=10)
        assert matched(result.detail) == (36, 40)
        first = result.detail.split("; first failure: ")[1]
        assert first.startswith(f"dec-rca N=2 {operands(0, 3)}: ")
        assert first.endswith(", restored line changed")

    @pytest.mark.parametrize(
        "kind, template, first",
        (
            (
                GateKind.DFG,
                dfg_first_only,
                "359/480 sampled vectors match native addition on both designs "
                "(seed=8); first failure: dec-csk N=2 a=74 b=27 cin=1: "
                "expected sum=02 carry=1, got sum=a2 carry=0",
            ),
            (
                GateKind.BJN,
                bjn_and,
                "87/480 sampled vectors match native addition on both designs "
                "(seed=8); first failure: dec-rca N=2 a=11 b=98 cin=1: "
                "expected sum=10 carry=1, got sum=aa carry=0",
            ),
        ),
        ids=("dfg", "bjn"),
    )
    def test_mutated_gate_report_pinned(self, mutate_gate, kind, template, first):
        """The whole report of a failing run, recorded when every lane held
        vector k at bit k: the count, the vector named and what it got."""
        mutate_gate(kind, template)
        assert verify.verify_adders(seed=8, samples=120).detail == first


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
    def test_gate_law_failure_named(self, mutate_gate):
        """A DFG that copies A onto its third line loses a row: no
        bijection, and the gates check names it."""
        mutate_gate(GateKind.DFG, "{b} ^= {a}\n{c} = {a}")
        result = verify.verify_gates()
        assert not result.passed
        assert result.detail == "6/7 bijective; failing: ['DFG']"

    def test_pdfa_failure_named(self, mutate_gate):
        mutate_gate(GateKind.BJN, bjn_and)
        result = verify.verify_pdfa()
        assert not result.passed
        assert 0 < matched(result.detail)[0] < 200
        assert "; first failure: pdfa N=1 a=" in result.detail
        # as recorded when every lane held vector k at bit k
        assert result.detail == (
            "136/200 oracle matches; first failure: pdfa N=1 a=0 b=9 cin=1: "
            "expected sum=0 carry=1, got sum=a carry=0"
        )

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
            (verify, "build_skip_generator"),
        ):
            monkeypatch.setattr(module, name, no_build)
        assert all(r.passed for r in verify.run_scope("all", seed=2, samples=10))
