"""Simulation, truth tables, bijectivity, and batch behavior."""

import random
from dataclasses import replace

import pytest

from revbcd import simulator
from revbcd.designs import build_dec_csk, build_dec_rca, build_scl, scl_function
from revbcd.errors import AssignmentError, CapacityError
from revbcd.gates import (
    ALL_KINDS,
    GateKind,
    _GATES,
    arity,
    block,
    gate_semantics,
    gate_truth_table,
)
from revbcd.netlist import GateInstance, Netlist, const_role, input_role, inverse
from revbcd.simulator import (
    BLOCK_MAX,
    BLOCK_MIN,
    CompiledNetlist,
    _block_end,
    byte_plane,
    check_permutation,
    compile_netlist,
    counting_lanes,
    run,
    truth_table,
)
from revbcd.verify import adder_sum


def bit_lane(bits):
    """The lane whose bit k is bits[k] (each 0 or 1, or a bool)."""
    return int("".join("1" if bit else "0" for bit in reversed(bits)) or "0", 2)


def scalar_truth_table(netlist):
    """The one-vector-at-a-time truth table: the reference for the lane sweep."""
    compiled = compile_netlist(netlist)
    rows = []
    for value in range(1 << len(compiled.inputs)):
        state = compiled.fresh_state()
        for pos, line in enumerate(compiled.inputs):
            state[line] = (value >> pos) & 1
        initial = tuple(state)
        compiled.run_state(state)
        rows.append((initial, tuple(state)))
    return rows


def scalar_is_permutation(netlist):
    """The one-state-at-a-time bijectivity check: the reference for the sweep."""
    compiled = compile_netlist(netlist)
    seen = set()
    for value in range(1 << netlist.width):
        state = [(value >> i) & 1 for i in range(netlist.width)]
        compiled.run_state(state)
        seen.add(tuple(state))
    return len(seen) == 1 << netlist.width


# A non-bijective FG: Q = A instead of A^B.
fg_copy = "{b} = {a}"


def inputs_netlist(width, gates=(), prefix="x"):
    """A netlist whose lines are all primary inputs."""
    roles = [input_role(f"{prefix}{i}") for i in range(width)]
    return Netlist(width=width, roles=roles, gates=gates)


def one_gate(kind):
    """A single gate on lines 0..arity-1."""
    n = arity(kind)
    return inputs_netlist(n, (GateInstance(kind, tuple(range(n))),))


def with_fg(nl, pins):
    """`nl` with one Feynman gate appended."""
    return replace(nl, gates=nl.gates + (GateInstance(GateKind.FG, pins),))


def random_netlist(rng, width, gates, prefix="x"):
    placed = []
    for _ in range(gates):
        kind = rng.choice(list(GateKind))
        if arity(kind) <= width:
            pins = tuple(rng.sample(range(width), arity(kind)))
            placed.append(GateInstance(kind, pins))
    return inputs_netlist(width, placed, prefix)


def mixed_netlist(rng, kinds, prefix):
    """4-9 lines, each an input, const0 or const1, and every kind of
    `kinds` at least once among 0-12 more gates drawn from them."""
    width = rng.randint(4, 9)
    roles = [
        rng.choice((input_role(f"{prefix}{i}"), const_role(0), const_role(1)))
        for i in range(width)
    ]
    drawn = list(kinds) + [rng.choice(kinds) for _ in range(rng.randint(0, 12))]
    rng.shuffle(drawn)
    placed = [GateInstance(k, tuple(rng.sample(range(width), arity(k)))) for k in drawn]
    return Netlist(width=width, roles=roles, gates=placed)


STAGES = ("addition", "detection", "correction", None)


def staged_netlist(rng, prefix):
    """1-12 lines and 0-150 gates of every kind that fits, with stage tags
    in runs (so runs restart), all None, or drawn gate by gate."""
    width = rng.randint(1, 12)
    kinds = [k for k in GateKind if arity(k) <= width]
    style = rng.choice(("runs", "none", "mixed"))
    stage = rng.choice(STAGES) if style == "runs" else None
    placed = []
    for _ in range(rng.randint(0, 150)):
        if style == "mixed" or (style == "runs" and rng.random() < 0.2):
            stage = rng.choice(STAGES)
        kind = rng.choice(kinds)
        pins = tuple(rng.sample(range(width), arity(kind)))
        placed.append(GateInstance(kind, pins, stage))
    return inputs_netlist(width, placed, prefix)


def block_cuts(gates):
    """Why each block of `gates` ends: at the minimum size, at a stage
    restart past it, at the maximum size, or at the last gate."""
    cuts, start = [], 0
    while start < len(gates):
        end = _block_end(gates, start)
        if end - start == BLOCK_MAX:
            cuts.append("max")
        elif end == len(gates):
            cuts.append("end")
        else:
            cuts.append("min" if end - start == BLOCK_MIN else "restart")
        start = end
    return cuts


def per_gate_reference(netlist, state):
    """Terminal state of one vector, one gate_semantics call per gate."""
    state = list(state)
    for g in netlist.gates:
        out = gate_semantics(g.kind, tuple(state[p] for p in g.pins))
        for p, bit in zip(g.pins, out):
            state[p] = bit
    return state


def pdfa_inputs(a, b, c):
    bits = {f"a{i}": (a >> i) & 1 for i in range(4)}
    bits |= {f"b{i}": (b >> i) & 1 for i in range(4)}
    bits["cin"] = c
    return bits


class TestRun:
    def test_quirk_vector(self, pdfa):
        res = run(pdfa, pdfa_inputs(9, 9, 0))
        assert res.named == {"S0": 0, "S1": 0, "S2": 0, "S3": 1, "dC": 1}
        assert res.restored_ok

    def test_zero_case(self, pdfa):
        res = run(pdfa, pdfa_inputs(0, 0, 0))
        assert all(res.named[f"S{i}"] == 0 for i in range(4))
        assert res.named["dC"] == 0

    def test_exhaustive_decimal_oracle(self, pdfa):
        for a in range(10):
            for b in range(10):
                for c in range(2):
                    res = run(pdfa, pdfa_inputs(a, b, c))
                    digit = sum(res.named[f"S{i}"] << i for i in range(4))
                    assert digit == (a + b + c) % 10
                    assert res.named["dC"] == int(a + b + c >= 10)
                    assert res.restored_ok

    def test_missing_label(self, pdfa):
        with pytest.raises(AssignmentError, match="unassigned"):
            run(pdfa, {"a0": 1})

    def test_unknown_label(self, pdfa):
        with pytest.raises(AssignmentError, match="unknown"):
            run(pdfa, pdfa_inputs(1, 1, 0) | {"zz": 1})

    @pytest.mark.parametrize("bit", (2, -1, 1.0, "1", None), ids=repr)
    def test_non_bit_rejected(self, pdfa, bit):
        with pytest.raises(AssignmentError, match="'a0' must be an int inside the mask"):
            run(pdfa, pdfa_inputs(1, 1, 0) | {"a0": bit})

    def test_lane_outside_the_mask_rejected(self, pdfa):
        compiled = compile_netlist(pdfa)
        lanes = {label: 0 for label in compiled.label_to_line}
        compiled.run_labels(lanes | {"cin": 0b101}, 0b101)
        for lane in (0b10, 0b1000, -1, 5.0):
            with pytest.raises(AssignmentError, match="'cin' must be an int"):
                compiled.run_labels(lanes | {"cin": lane}, 0b101)

    def test_deterministic(self, pdfa):
        assignment = pdfa_inputs(7, 5, 1)
        assert run(pdfa, assignment) == run(pdfa, assignment)


class TestTruthTable:
    @pytest.mark.parametrize("kind", list(GateKind))
    def test_single_gate_matches_gate_table(self, kind):
        assert truth_table(one_gate(kind)) == gate_truth_table(kind)

    def test_scl_rows_match_detection_function(self):
        rows = truth_table(build_scl())
        # inputs: S1, S2, S3, C4 on lines 0..3; named dC on line 5
        for initial, terminal in rows:
            s1, s2, s3, c4 = initial[:4]
            assert terminal[5] == scl_function(s1, s2, s3, c4)
        assert len(rows) == 16

    def test_constants_fixed(self, pdfa):
        rows = truth_table(pdfa)
        assert len(rows) == 2**9
        for initial, _ in rows:
            assert all(initial[line] == 0 for line in pdfa.const_lines())

    def test_capacity_bound(self, dec_csk8):
        with pytest.raises(CapacityError):
            truth_table(dec_csk8)

    @pytest.mark.parametrize("kind", list(GateKind))
    def test_lane_rows_equal_scalar_rows(self, kind):
        nl = one_gate(kind)
        assert truth_table(nl) == scalar_truth_table(nl)

    def test_lane_rows_equal_scalar_rows_pdfa(self, pdfa):
        assert truth_table(pdfa) == scalar_truth_table(pdfa)

    def test_lane_rows_follow_a_mutated_gate(self, mutate_gate):
        mutate_gate(GateKind.FG, fg_copy)
        nl = random_netlist(random.Random(2), 6, 12, prefix="m")
        assert truth_table(nl) == scalar_truth_table(nl)


class TestPermutation:
    @pytest.mark.parametrize("kind", list(GateKind))
    def test_single_gate_is_permutation(self, kind):
        assert check_permutation(one_gate(kind))

    def test_pdfa_is_permutation(self, pdfa):
        assert check_permutation(pdfa)

    def test_random_compositions_are_permutations(self):
        rng = random.Random(11)
        for _ in range(20):
            width = rng.randrange(4, 9)
            gates = []
            for _ in range(rng.randrange(1, 12)):
                kind = rng.choice(list(GateKind))
                if arity(kind) > width:
                    continue
                pins = tuple(rng.sample(range(width), arity(kind)))
                gates.append(GateInstance(kind, pins))
            assert check_permutation(inputs_netlist(width, gates))

    def test_capacity_bound(self, dec_csk8):
        with pytest.raises(
            CapacityError, match=r"^width \d+ exceeds the exhaustive bound of 20 lines$"
        ):
            check_permutation(dec_csk8)

    def test_non_bijective_gate_detected(self, mutate_gate):
        mutate_gate(GateKind.FG, fg_copy)
        nl = Netlist(
            width=2,
            roles=(input_role("p"), input_role("q")),
            gates=(GateInstance(GateKind.FG, (0, 1)),),
        )
        assert not check_permutation(nl)
        assert not scalar_is_permutation(nl)

    def test_sweep_agrees_with_scalar_check_under_mutation(self, mutate_gate):
        mutate_gate(GateKind.FG, fg_copy)
        rng = random.Random(17)
        verdicts = []
        for n in range(30):
            nl = random_netlist(rng, rng.randrange(2, 10), rng.randrange(1, 8), f"s{n}_")
            verdicts.append(check_permutation(nl))
            assert verdicts[-1] == scalar_is_permutation(nl)
        assert True in verdicts and False in verdicts

    def test_agrees_with_scalar_check_on_mixed_lines(self):
        rng = random.Random(19)
        roles = set()
        for n in range(20):
            nl = mixed_netlist(rng, ALL_KINDS, f"c{n}_")
            roles.update(r.kind for r in nl.roles)
            assert check_permutation(nl) == scalar_is_permutation(nl) is True
        assert roles == {"input", "const0", "const1"}

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_agrees_with_scalar_check_when_a_kind_loses_a_line(self, kind, mutate_gate):
        """With `kind` made to clear its first pin, a netlist is a bijection
        exactly when it holds no such gate."""
        mutate_gate(kind, _GATES[kind][3] + "\n{a} = 0")
        rng = random.Random(kind.value)
        others = tuple(k for k in ALL_KINDS if k is not kind)
        verdicts = []
        for n in range(8):
            nl = mixed_netlist(rng, ALL_KINDS if n % 2 else others, f"l{n}_")
            verdicts.append(check_permutation(nl))
            assert verdicts[-1] == scalar_is_permutation(nl)
        assert verdicts == [True, False] * 4

    def test_a_changed_gate_passes_only_with_its_inverse(self, mutate_gate):
        """PG with an OR is an involution, so still a bijection: the
        inverse run rejects it under steps that undo the real PG but not
        it, PG·FG(a, c), and proves it under the one step PG."""
        pg_or = "{c} ^= {a} | {b}\n{b} ^= {a}"
        nl = mixed_netlist(random.Random(7), ALL_KINDS, "o")
        pg = ((GateKind.PG, (0, 1, 2)),)
        mutate_gate(GateKind.PG, pg_or, steps=pg + ((GateKind.FG, (0, 2)),))
        assert scalar_is_permutation(nl)
        assert not check_permutation(nl)
        mutate_gate(GateKind.PG, pg_or, steps=pg)
        assert check_permutation(nl)

    def test_inverse_compiled_once_per_compiled_netlist(self, pdfa, monkeypatch):
        """A second check of an equal netlist builds no inverse; emptying
        the compile cache drops the compiled inverse with the netlist's."""
        calls = []

        def counted(netlist):
            calls.append(netlist)
            return inverse(netlist)

        monkeypatch.setattr(simulator, "inverse", counted)
        compile_netlist.cache_clear()
        assert check_permutation(pdfa)
        assert len(calls) == 1
        equal = replace(pdfa)
        assert equal == pdfa and equal is not pdfa
        assert check_permutation(equal)
        assert len(calls) == 1
        compile_netlist.cache_clear()
        assert check_permutation(equal)
        assert len(calls) == 2

    def test_sweep_past_one_chunk(self, mutate_gate):
        """15 lines run as two chunks of 2^14 vectors; a gate that copies
        across the chunk-constant line 14 is caught and truth tables agree."""
        nl = with_fg(random_netlist(random.Random(5), 15, 10, prefix="w"), (14, 3))
        assert truth_table(nl) == scalar_truth_table(nl)
        assert check_permutation(nl)
        mutate_gate(GateKind.FG, fg_copy)
        assert not check_permutation(nl)
        assert not scalar_is_permutation(nl)


class TestBatch:
    def test_waveform_vectors(self, dec_csk8):
        def labels(a, b):
            bits = {"cin": 0}
            for j in range(8):
                da = (a // 10**j) % 10
                db = (b // 10**j) % 10
                for i in range(4):
                    bits[f"a{i}.{j}"] = (da >> i) & 1
                    bits[f"b{i}.{j}"] = (db >> i) & 1
            return bits

        compiled = compile_netlist(dec_csk8)
        results = [
            compiled.run_labels(labels(88888889, 88888889)),
            compiled.run_labels(labels(88888889, 11111111)),
        ]
        sums = [
            sum(
                sum(r.named[f"S{i}.{j}"] << i for i in range(4)) * 10**j
                for j in range(8)
            )
            + r.named["dC"] * 10**8
            for r in results
        ]
        assert sums == [177777778, 100000000]
        assert all(r.restored_ok for r in results)

    def test_random_batch_matches_native(self):
        rng = random.Random(3)
        for _ in range(500):
            a = rng.randrange(10**8)
            b = rng.randrange(10**8)
            total, carry, ok = adder_sum("dec-rca", 8, a, b)
            assert total == (a + b) % 10**8
            assert carry == int(a + b >= 10**8)
            assert ok


class TestLanes:
    @pytest.mark.parametrize("count", range(6))
    def test_counting_lanes_hold_every_assignment(self, count):
        lanes = counting_lanes(count)
        for k in range(1 << count):
            assert sum((lane >> k & 1) << i for i, lane in enumerate(lanes)) == k
        assert all(lane < 1 << (1 << count) for lane in lanes)

    def test_bit_lane_and_byte_plane(self):
        bits = [1, 0, 0, 1, 1, 0, 1]
        lane = bit_lane(bits)
        assert lane == 0b1011001
        assert bit_lane([]) == 0
        plane = byte_plane(lane, len(bits))
        assert plane.to_bytes(len(bits), "little") == bytes(bits)

    def test_lane_run_equals_scalar_runs(self, pdfa):
        rng = random.Random(4)
        compiled = compile_netlist(pdfa)
        vectors = [[rng.randrange(2) for _ in range(pdfa.width)] for _ in range(64)]
        lanes = [bit_lane([vec[line] for vec in vectors]) for line in range(pdfa.width)]
        compiled.run_state(lanes, (1 << len(vectors)) - 1)
        for k, vec in enumerate(vectors):
            compiled.run_state(vec)
            assert vec == [lane >> k & 1 for lane in lanes]

    @pytest.mark.parametrize("seed", range(6))
    def test_run_labels_batch_equals_scalar_runs(self, pdfa, seed):
        """One run_labels lane batch gives, in each lane, the named outputs
        and restored_ok of that vector's scalar run: on the pdfa and on a
        random netlist with constants, in the bit-k and the bit-4k layout."""
        rng = random.Random(seed)
        if seed:
            netlist = mixed_netlist(rng, list(GateKind), "x")
            inputs = list(netlist.input_lines())
            restored = set(rng.sample(inputs, min(len(inputs), rng.randint(0, 2))))
            outputs = [line for line in range(netlist.width) if line not in restored]
            netlist = replace(
                netlist,
                outputs=tuple((f"o{line}", line) for line in outputs),
                restored=frozenset(restored),
            )
        else:
            netlist = pdfa
        compiled = compile_netlist(netlist)
        labels = list(compiled.label_to_line)
        vectors = [{label: rng.randrange(2) for label in labels} for _ in range(40)]
        spread = 4 if seed % 2 else 1  # vector k at bit spread*k
        mask = sum(1 << spread * k for k in range(len(vectors)))
        lanes = {
            label: sum(vec[label] << spread * k for k, vec in enumerate(vectors))
            for label in labels
        }
        batch = compiled.run_labels(lanes, mask)
        scalar = [compiled.run_labels(vec) for vec in vectors]
        for name, lane in batch.named.items():
            assert lane & ~mask == 0
            assert [lane >> spread * k & 1 for k in range(len(vectors))] == [
                res.named[name] for res in scalar
            ]
        assert batch.restored_ok == all(res.restored_ok for res in scalar)

    def test_inverse_after_netlist_gives_back_every_lane(self):
        """Staged random netlists and both adders at N=64, whose width is
        past check_permutation's bound: 64 lanes through the netlist and
        its inverse, and one scalar state through the inverse and back."""
        rng = random.Random(8)
        nets = [staged_netlist(rng, f"u{n}_") for n in range(16)]
        for nl in nets + [build_dec_rca(64), build_dec_csk(64)]:
            undo = inverse(nl)
            assert (undo.width, undo.roles) == (nl.width, nl.roles)
            assert {g.stage for g in undo.gates} == {g.stage for g in nl.gates}
            forward, backward = compile_netlist(nl), compile_netlist(undo)
            lanes = [rng.getrandbits(64) for _ in range(nl.width)]
            state = lanes.copy()
            forward.run_state(state, (1 << 64) - 1)
            backward.run_state(state, (1 << 64) - 1)
            assert state == lanes
            scalar = [lane & 1 for lane in lanes]
            state = scalar.copy()
            backward.run_state(state)
            forward.run_state(state)
            assert state == scalar


class TestRestoredAndReference:
    def test_restored_verified_exhaustively(self, pdfa):
        """One lane run over all 2^9 inputs leaves every restored line as it was."""
        for nl in (pdfa, build_dec_csk(1)):
            compiled = compile_netlist(nl)
            mask = (1 << 512) - 1
            state = compiled.fresh_state(mask)
            for line, lane in zip(compiled.inputs, counting_lanes(9), strict=True):
                state[line] = lane
            initial = state.copy()
            compiled.run_state(state, mask)
            assert compiled.restored
            assert all(state[l] == initial[l] for l in compiled.restored)

    def test_compiled_matches_reference(self, pdfa):
        rng = random.Random(9)
        compiled = compile_netlist(pdfa)
        for _ in range(200):
            state = [rng.randrange(2) for _ in range(pdfa.width)]
            fast = state.copy()
            compiled.run_state(fast)
            assert fast == per_gate_reference(pdfa, state)


class TestFusedBlocks:
    def test_blocks_equal_the_per_gate_reference(self):
        """Random staged netlists, one vector at a time and 64 at once."""
        rng = random.Random(23)
        cuts = set()
        for n in range(32):
            nl = staged_netlist(rng, f"f{n}_")
            cuts.update(block_cuts(nl.gates))
            compiled = compile_netlist(nl)
            vectors = [[rng.randrange(2) for _ in range(nl.width)] for _ in range(64)]
            want = [per_gate_reference(nl, vec) for vec in vectors]
            lanes = [bit_lane([vec[line] for vec in vectors]) for line in range(nl.width)]
            compiled.run_state(lanes, (1 << 64) - 1)
            assert lanes == [bit_lane([ref[line] for ref in want]) for line in range(nl.width)]
            for vec, ref in zip(vectors, want):
                compiled.run_state(vec)
                assert vec == ref
        assert {"min", "restart", "max"} <= cuts

    def test_block_shapes_do_not_grow_with_digits(self):
        for build in (build_dec_rca, build_dec_csk):
            CompiledNetlist(build(8))
            made = block.cache_info().misses
            CompiledNetlist(build(1024))
            assert block.cache_info().misses == made
