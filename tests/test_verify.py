"""The verify suites: lane batches against one-vector-at-a-time references."""

import random
import re

from revbcd import ledger, verify
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

    Reads the raw sum nibbles, so a non-BCD digit counts as a failure
    instead of raising.  Returns (count, first failing (design, n, a, b, cin)).
    """
    rng = random.Random(seed)
    count, first = 0, None
    for n in verify.ADDER_SIZES:
        for _ in range(samples):
            a, b, cin = rng.randrange(10**n), rng.randrange(10**n), rng.randrange(2)
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

    def test_batches_keep_the_vectors_and_the_report(self, mutate_gate, monkeypatch):
        """Batches of 8 vectors draw, count and name exactly what one batch does."""
        mutate_gate(GateKind.DFG, dfg_first_only)
        whole = verify.verify_adders(seed=3, samples=60)
        monkeypatch.setattr(verify, "BATCH_BITS", 3)
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

    def test_scopes_rebuild_nothing_once_warm(self, monkeypatch):
        assert all(r.passed for r in verify.run_scope("all", seed=1, samples=10))

        def no_build(*args, **kwargs):
            raise AssertionError("netlist rebuilt")

        for module, name in (
            (ledger, "build_design"),
            (verify, "build_pdfa"),
            (verify, "build_skip_generator"),
        ):
            monkeypatch.setattr(module, name, no_build)
        assert all(r.passed for r in verify.run_scope("all", seed=2, samples=10))
