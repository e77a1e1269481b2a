"""Adder builders against their boolean evaluators and the native oracle."""

import hashlib
import random

import pytest

from revbcd.designs import (
    build_correction,
    build_dec_csk,
    build_dec_rca,
    build_design,
    build_pdfa,
    build_scl,
    build_skip_block,
    build_skip_generator,
    decimal_propagate,
    scl_function,
    skip_carry,
)
from revbcd.errors import InvalidArgumentError, InvalidBCDError
from revbcd.ledger import AdderPort, cached_adder, encode, lane_mask, to_lanes
from revbcd.metrics import structural_metrics
from revbcd.netlist import serialize
from revbcd.simulator import check_permutation, compile_netlist, run
from revbcd.verify import adder_sum


class TestDetectionFunction:
    @pytest.mark.parametrize(
        "s1,s2,s3,c4,want",
        [(0, 0, 0, 1, 1), (0, 0, 0, 0, 0), (1, 0, 1, 0, 1)],
    )
    def test_examples(self, s1, s2, s3, c4, want):
        assert scl_function(s1, s2, s3, c4) == want

    def test_netlist_matches_function(self):
        nl = build_scl()
        for value in range(16):
            s1, s2, s3, c4 = [(value >> i) & 1 for i in range(4)]
            res = run(nl, {"S1": s1, "S2": s2, "S3": s3, "C4": c4})
            want = scl_function(s1, s2, s3, c4)
            assert res.named["dC"] == want
            assert res.named["dC_chain"] == want
            assert res.restored_ok

    def test_fragment_metrics(self):
        m = structural_metrics(build_scl())
        assert (m.gc, m.ci, m.go, m.qc) == (3, 2, 1, 10)

    def test_bijective(self):
        assert check_permutation(build_scl())


class TestCorrectionBlock:
    @pytest.mark.parametrize("raw,dc,want", [(8, 0, 8), (2, 1, 8), (12, 1, 2)])
    def test_examples(self, raw, dc, want):
        assert self._correct(raw, dc) == want

    @staticmethod
    def _correct(raw, dc):
        nl = build_correction()
        bits = {f"S{i}": (raw >> i) & 1 for i in (1, 2, 3)}
        res = run(nl, bits | {"dC": dc})
        out = raw & 1
        for i, name in ((1, "S1c"), (2, "S2c"), (3, "S3c")):
            out |= res.named[name] << i
        return out

    def test_adds_six_exactly_when_flagged(self):
        for raw in range(16):
            for dc in (0, 1):
                assert self._correct(raw, dc) == (raw + 6 * dc) % 16

    def test_bijective(self):
        assert check_permutation(build_correction())


class TestPropagate:
    @pytest.mark.parametrize(
        "da,db,want", [(4, 5, 1), (5, 5, 0), (0, 0, 0), (9, 0, 1)]
    )
    def test_examples(self, da, db, want):
        assert decimal_propagate(da, db) == want

    def test_sound_iff_sum_is_nine(self):
        for da in range(10):
            for db in range(10):
                assert decimal_propagate(da, db) == int(da + db == 9)

    def test_invalid_digit_rejected(self):
        with pytest.raises(InvalidBCDError):
            decimal_propagate(10, 3)

    def test_netlist_matches_evaluator(self):
        compiled = compile_netlist(build_skip_generator())
        for da in range(10):
            for db in range(10):
                bits = {f"a{i}": (da >> i) & 1 for i in range(4)}
                bits |= {f"b{i}": (db >> i) & 1 for i in range(4)}
                res = compiled.run_labels(bits)
                assert res.named["P"] == decimal_propagate(da, db)
                assert res.restored_ok

    def test_generator_bijective(self):
        assert check_permutation(build_skip_generator())


class TestGenerateAndSkip:
    @pytest.mark.parametrize(
        "c4,s3,s2,s1,want", [(1, 0, 0, 0, 1), (0, 1, 1, 0, 1), (0, 1, 0, 0, 0)]
    )
    def test_generate_examples(self, c4, s3, s2, s1, want):
        assert scl_function(s1, s2, s3, c4) == want

    def test_skip_carry_rows(self):
        assert skip_carry(1, 1, 0) == 1
        for x in (0, 1):
            for g in (0, 1):
                assert skip_carry(0, x, g) == g
        for p in (0, 1):
            for dc in (0, 1):
                for g in (0, 1):
                    assert skip_carry(p, dc, g) == (dc if p else g)

    def test_skip_block_matches_evaluator(self):
        nl = build_skip_block()
        for p in (0, 1):
            for dc in (0, 1):
                for g in (0, 1):
                    res = run(nl, {"P": p, "dC_in": dc, "G": g})
                    want = skip_carry(p, dc, g)
                    assert res.named["dC"] == want
                    assert res.named["copy0"] == want
                    assert res.named["copy1"] == want
                    assert res.restored_ok

    def test_skip_block_bijective(self):
        assert check_permutation(build_skip_block())


class TestPdfa:
    def test_waveform_vector(self, pdfa):
        res = run(pdfa, {"a0": 1, "a1": 0, "a2": 0, "a3": 1,
                         "b0": 1, "b1": 0, "b2": 0, "b3": 1, "cin": 0})
        # read out in carry-first order this is the 11000 pattern
        assert [res.named[k] for k in ("dC", "S3", "S2", "S1", "S0")] == [1, 1, 0, 0, 0]

    def test_metrics(self, pdfa):
        m = structural_metrics(pdfa)
        assert (m.gc, m.ci, m.go, m.qc, m.delay) == (10, 8, 4, 45, 35)


class TestRipple:
    def test_zero_digits_rejected(self):
        with pytest.raises(InvalidArgumentError):
            build_dec_rca(0)

    def test_single_digit_matches_pdfa_metrics(self, pdfa):
        assert structural_metrics(build_dec_rca(1)) == structural_metrics(pdfa)

    def test_sixteen_digit_random_oracle(self):
        rng = random.Random(21)
        for _ in range(300):
            a = rng.randrange(10**16)
            b = rng.randrange(10**16)
            c = rng.randrange(2)
            total, carry, ok = adder_sum("dec-rca", 16, a, b, c)
            assert total == (a + b + c) % 10**16
            assert carry == int(a + b + c >= 10**16)
            assert ok


class TestCarrySkip:
    def test_zero_digits_rejected(self):
        with pytest.raises(InvalidArgumentError):
            build_dec_csk(0)

    def test_single_digit_exhaustive(self):
        for a in range(10):
            for b in range(10):
                for c in range(2):
                    total, carry, ok = adder_sum("dec-csk", 1, a, b, c)
                    assert total == (a + b + c) % 10
                    assert carry == int(a + b + c >= 10)
                    assert ok

    def test_waveform_vectors(self):
        assert adder_sum("dec-csk", 8, 88888889, 88888889)[:2] == (77777778, 1)
        assert adder_sum("dec-csk", 8, 88888889, 11111111)[:2] == (0, 1)

    def test_matches_ripple_bitwise(self):
        rng = random.Random(17)
        for _ in range(400):
            a = rng.randrange(10**8)
            b = rng.randrange(10**8)
            c = rng.randrange(2)
            rca, csk = (adder_sum(d, 8, a, b, c)[:2] for d in ("dec-rca", "dec-csk"))
            assert rca == csk

    def test_exhaustive_equivalence_two_digits(self):
        """All 100*100*2 vectors at N=2, one lane batch per design: both
        designs give the same sum and carry lanes, equal to native addition,
        and restore their operands."""
        vectors = [(a, b, c) for a in range(100) for b in range(100) for c in range(2)]
        a, b, cin = (list(column) for column in zip(*vectors))
        mask = lane_mask(len(vectors))
        results = [
            cached_adder(design, 2).add_lanes(
                to_lanes(a, 2), to_lanes(b, 2), to_lanes(cin, 1)[0], mask
            )
            for design in ("dec-rca", "dec-csk")
        ]
        assert results[0] == results[1]
        totals = [x + y + c for x, y, c in vectors]
        sums, carry, moved = results[0]
        assert sums == to_lanes([t % 100 for t in totals], 2)
        assert carry == to_lanes([int(t >= 100) for t in totals], 1)[0]
        assert moved == 0

    def test_digitwise_carries_equal_ripple(self, dec_rca8, dec_csk8):
        """The selected carry chain reproduces the ripple carries exactly."""
        rng = random.Random(23)
        rca = compile_netlist(dec_rca8)
        csk = compile_netlist(dec_csk8)
        rca_consts, csk_consts = (
            {nl.roles.labels[i]: i for i in nl.const_lines()}
            for nl in (dec_rca8, dec_csk8)
        )
        rca_lines = [rca_consts[f"k3.{j}"] for j in range(8)]
        csk_lines = [csk_consts[f"dCnext.{j}"] for j in range(8)]
        for _ in range(150):
            a = rng.randrange(10**8)
            b = rng.randrange(10**8)
            states = []
            for compiled in (rca, csk):
                st = AdderPort(compiled).pack(encode(a, 8), encode(b, 8))
                compiled.run_state(st)
                states.append(st)
            for j in range(8):
                native = int((a % 10 ** (j + 1)) + (b % 10 ** (j + 1)) >= 10 ** (j + 1))
                assert states[0][rca_lines[j]] == native
                assert states[1][csk_lines[j]] == native

    def test_achieved_structural_metrics(self):
        """Regression pin for the achieved per-digit figures (the published
        per-digit totals differ; see the structural discrepancy report)."""
        m = structural_metrics(build_dec_csk(1))
        assert (m.gc, m.ci, m.go, m.qc) == (32, 19, 15, 98)
        for n in (2, 5):
            m = structural_metrics(build_dec_csk(n))
            assert (m.gc, m.ci, m.go, m.qc) == (32 * n, 19 * n, 15 * n, 98 * n)
            assert m.delay == 5 * n + 49


class TestRegistry:
    def test_build_design_dispatch(self):
        assert structural_metrics(build_design("dec-rca", 2)).qc == 90

    def test_unknown_design(self):
        with pytest.raises(InvalidArgumentError):
            build_design("foo")

    def test_single_digit_designs_reject_digits(self):
        with pytest.raises(InvalidArgumentError):
            build_design("pdfa", 3)


# SHA-256 of serialize() for each netlist, recorded before the builders
# were rebuilt from shared fragment emitters.  Any change to a line's
# allocation order, label or role, or to a gate's kind, pins or stage,
# changes these bytes.  The N=64 and N=512 rows were recorded before the
# adders were stamped from one recorded digit cell; the N=512 rows equal
# the benchmark's netlist digests.
NETLIST_DIGESTS = {
    ("scl", None): "8c4340ee51049a44456d1eadb07c8645e857420cdeb766739fc22fc6fb70779c",
    ("pdfa", None): "2761cd10aa8682e36f75643a3298718335cae39b25ef62ab7542a01e35c452bd",
    ("correction", None): "46967ddbef2f77f82567954ac732628ed4873e988e094550d7299520d1467bf4",
    ("skip-block", None): "99ab521ced96737ff94cc80748264b83b9bcc064b85f955b21b36e831e00943b",
    ("skip-generator", None): "db2829123657d861efa9e7197e2dedeec70b4d61fae3d02f81bbd2fa1cbc0054",
    ("dec-rca", 1): "5dbc80dd999e9b44301f92428b55af34f106bff71bf815754216b2414c0ddb6d",
    ("dec-rca", 2): "1743326929cb4eb092e84a67f44f5c8486e275e1bbb772e9e3aec4af3938c3b2",
    ("dec-rca", 3): "045ea747d52bbe75a37252c4f7f825fbc8026c780232d1438065843c12e0ec32",
    ("dec-rca", 8): "53474da532c6c5bda9be4f53456e64976dbde1dadc689c5ec884b423a520c886",
    ("dec-rca", 64): "44556bdbac13ffe8a531b850b07d2506ffe3f0a5bfe5ac5d0e3d426764325936",
    ("dec-rca", 512): "a552fdb685ac4699a61391a48bf462a1b57b7234ed7541c3c99c0a56a5ec57cc",
    ("dec-csk", 1): "96fc4ce4a42bdda0d51db31ad5ff23e6adf610fca9e3287b953a678a3d0977e0",
    ("dec-csk", 2): "8391af6567b4401d4fd9f27856a7fbd1debe65cbe3202cfbd27dd8cfcc685fd4",
    ("dec-csk", 3): "3e099f37a278a5850efcb61aeb1e42dde53a9d40f2023bc6e537a6d58cceba17",
    ("dec-csk", 8): "ca46afa4e2d0d17ab038270caa809511cf733a3521abb865644350540546fa08",
    ("dec-csk", 64): "0214f1591bd644f3da52ea05942edb0ab026b1bf1c329533717f325213e3ba55",
    ("dec-csk", 512): "b19be399c98c1204449098278a7d1eb011f02f7f0dcf17ad1a984002a9f08268",
}

_BLOCKS = {
    "scl": build_scl,
    "pdfa": build_pdfa,
    "correction": build_correction,
    "skip-block": build_skip_block,
    "skip-generator": build_skip_generator,
}


@pytest.mark.parametrize("name,digits", sorted(NETLIST_DIGESTS, key=str))
def test_netlist_bytes_pinned(name, digits):
    nl = _BLOCKS[name]() if digits is None else build_design(name, digits)
    digest = hashlib.sha256(serialize(nl).encode("ascii")).hexdigest()
    assert digest == NETLIST_DIGESTS[name, digits]
