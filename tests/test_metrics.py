"""Structural metrics: counts, arrivals, critical path, stage split."""

import random
from dataclasses import replace

import pytest

from revbcd.designs import (
    build_correction,
    build_dec_csk,
    build_dec_rca,
    build_pdfa,
    build_scl,
    build_skip_block,
    build_skip_generator,
)
from revbcd.errors import (
    DecompositionError,
    MetricsUndefinedError,
    RevbcdError,
)
from revbcd.gates import ALL_KINDS, GateKind, arity, gate_cost
from revbcd.metrics import (
    MetricReport,
    arrival_profile,
    critical_path,
    metric_decomposition,
    structural_metrics,
    total,
)
from revbcd.netlist import GateInstance, Netlist, const_role, input_role


def four_bit_rca():
    """Plain 4-bit binary ripple adder from four full-adder gates."""
    roles = [input_role(f"a{i}") for i in range(4)]
    roles += [input_role(f"b{i}") for i in range(4)]
    roles.append(input_role("cin"))
    roles += [const_role(0, f"k{i}") for i in range(4)]
    chain = [8, 9, 10, 11, 12]
    gates = [
        GateInstance(GateKind.HNG, (i, 4 + i, chain[i], 9 + i), "addition")
        for i in range(4)
    ]
    names = {"S0": 8, "S1": 9, "S2": 10, "S3": 11, "C4": 12}
    return Netlist(
        width=13,
        roles=roles,
        gates=gates,
        outputs=tuple(names.items()),
        restored=set(range(8)),
    )


_AB = (input_role("a"), input_role("b"))


def with_fg(nl, pins):
    """`nl` with one untagged Feynman gate appended."""
    return replace(nl, gates=(*nl.gates, GateInstance(GateKind.FG, pins)))


class TestStructural:
    def test_binary_rca_block(self):
        m = structural_metrics(four_bit_rca())
        assert (m.gc, m.ci, m.go, m.qc, m.delay) == (4, 4, 0, 24, 20)

    def test_pdfa(self, pdfa):
        m = structural_metrics(pdfa)
        assert (m.gc, m.ci, m.go, m.qc, m.delay) == (10, 8, 4, 45, 35)

    def test_single_fg(self):
        nl = Netlist(
            width=2,
            roles=_AB,
            gates=(GateInstance(GateKind.FG, (0, 1)),),
            outputs=(("p", 0), ("q", 1)),
        )
        m = structural_metrics(nl)
        assert (m.qc, m.delay) == (1, 1)

    def test_undesignated_rejected(self):
        nl = Netlist(width=2, roles=_AB)
        with pytest.raises(MetricsUndefinedError):
            structural_metrics(nl)


class TestArrivals:
    def test_pdfa_carry_and_sum(self, pdfa):
        final = arrival_profile(pdfa).final
        lines = dict(zip(pdfa.outputs.names, pdfa.outputs.lines))
        assert final[lines["dC"]] == 25
        assert final[lines["S3"]] == 35

    def test_untouched_input_is_zero(self):
        nl = Netlist(
            width=2,
            roles=_AB,
            gates=(GateInstance(GateKind.NOT, (0,)),),
            outputs=(("na", 0),),
        )
        assert arrival_profile(nl).final[1] == 0

    def test_monotone_under_append(self, pdfa):
        before = arrival_profile(pdfa).final
        grown = with_fg(pdfa, (0, 4))
        after = arrival_profile(grown).final
        assert all(b >= a for a, b in zip(before, after))

    def test_detection_or_runs_in_carry_shadow(self, pdfa):
        """The OR gate finishes before the top full adder, so detection
        adds only 5 delta to the carry path."""
        profile = arrival_profile(pdfa)
        bjn_index = next(
            i for i, g in enumerate(pdfa.gates) if g.kind == GateKind.BJN
        )
        top_hng_completion = profile.completions[3]
        assert profile.completions[bjn_index] < top_hng_completion
        assert (top_hng_completion, profile.completions[bjn_index]) == (20, 19)


class TestDecomposition:
    def test_pdfa_stage_rows(self, pdfa):
        dec = metric_decomposition(pdfa)
        assert [s for s in dec] == ["addition", "detection", "correction"]
        assert [dec[s].qc for s in dec] == [24, 10, 11]
        assert [dec[s].delay for s in dec] == [20, 5, 10]
        assert [dec[s].ci for s in dec] == [4, 2, 2]
        assert [dec[s].go for s in dec] == [0, 1, 3]
        assert [dec[s].gc for s in dec] == [4, 3, 3]

    def test_csk_stage_rows(self):
        dec = metric_decomposition(build_dec_csk(1))
        assert dec["addition"].qc == 24
        assert dec["correction"].qc == 11
        # achieved detection figures; published budget is qc=30 (see the
        # structural discrepancy report)
        assert dec["detection"].qc == 63

    def test_untagged_gate_rejected(self, pdfa):
        grown = with_fg(pdfa, (0, 4))
        with pytest.raises(DecompositionError):
            metric_decomposition(grown)

    def test_qc_additivity_over_stages(self, pdfa):
        dec = metric_decomposition(pdfa)
        total = structural_metrics(pdfa)
        assert sum(r.qc for r in dec.values()) == total.qc
        assert sum(r.gc for r in dec.values()) == total.gc
        assert sum(r.ci for r in dec.values()) == total.ci
        assert sum(r.go for r in dec.values()) == total.go

    def test_critical_path_ends_at_slowest_output(self, pdfa):
        path = critical_path(pdfa)
        assert len(path) == 9  # 4 HNG + PG + FG + PG + HNG + FG
        kinds = [pdfa.gates[i].kind for i in path]
        assert kinds.count(GateKind.BJN) == 0


def reference_arrivals(netlist):
    """Per-gate pre-gate pin arrivals and completions, and final arrivals."""
    arr = [0] * netlist.width
    pres, completions = [], []
    for kind, pins, _ in netlist.gates:
        pre = tuple(arr[p] for p in pins)
        t = max(pre) + gate_cost(kind)[1]
        for p in pins:
            arr[p] = t
        pres.append(pre)
        completions.append(t)
    return arr, completions, pres


def reference_critical_path(netlist):
    """The quadratic walk: every step rescans the gates from the last one
    for the last gate touching the line that completes at the arrival."""
    if not netlist.outputs:
        raise MetricsUndefinedError("critical path needs designated outputs")
    final, completions, pres = reference_arrivals(netlist)
    line, t = max(
        ((l, final[l]) for _, l in netlist.outputs),
        key=lambda item: item[1],
    )
    path = []
    while t > 0:
        setter = None
        for idx in range(len(netlist.gates) - 1, -1, -1):
            if line in netlist.gates[idx].pins and completions[idx] == t:
                setter = idx
                break
        if setter is None:
            break
        path.append(setter)
        pins = netlist.gates[setter].pins
        pre = pres[setter]
        best = max(range(len(pins)), key=lambda pos: (pre[pos], -pos))
        line = pins[best]
        t = pre[best]
    path.reverse()
    return path


def tied_pins_netlist():
    """Gate 2 sees equal pre-gate arrivals on both pins; line 0 is
    touched by gates 0, 2 and 3."""
    gates = [
        GateInstance(GateKind.FG, (1, 0)),
        GateInstance(GateKind.FG, (3, 2)),
        GateInstance(GateKind.FG, (2, 0)),
        GateInstance(GateKind.NOT, (0,)),
    ]
    return Netlist(
        width=4,
        roles=[input_role(f"x{i}") for i in range(4)],
        gates=gates,
        outputs=(("y", 0), ("p", 1), ("q", 2), ("r", 3)),
    )


class TestCriticalPath:
    def test_every_gate_delay_is_positive(self):
        """critical_path's single sweep relies on this."""
        assert all(gate_cost(kind)[1] >= 1 for kind in ALL_KINDS)

    @pytest.mark.parametrize("n", (*range(1, 9), 64))
    @pytest.mark.parametrize("build", (build_dec_rca, build_dec_csk))
    def test_matches_reference_walk(self, build, n):
        netlist = build(n)
        assert critical_path(netlist) == reference_critical_path(netlist)

    def test_pdfa_matches_reference_walk(self, pdfa):
        assert critical_path(pdfa) == reference_critical_path(pdfa)

    def test_tie_breaks_to_lowest_pin_position(self):
        nl = tied_pins_netlist()
        assert critical_path(nl) == reference_critical_path(nl) == [1, 2, 3]


class TestFormulaAgreement:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_ripple_row(self, n):
        m = structural_metrics(build_dec_rca(n))
        assert (m.gc, m.ci, m.go, m.qc, m.delay) == (
            10 * n,
            8 * n,
            4 * n,
            45 * n,
            25 * n + 10,
        )

    def test_ripple_carry_advances_25_per_digit(self):
        n = 8
        nl = build_dec_rca(n)
        profile = arrival_profile(nl)
        fg_copies = [
            i
            for i, g in enumerate(nl.gates)
            if g.kind == GateKind.FG and g.stage == "detection"
        ]
        assert [profile.completions[i] for i in fg_copies] == [
            25 * (j + 1) for j in range(n)
        ]

    def test_carry_skip_slope_is_five(self):
        delays = {n: structural_metrics(build_dec_csk(n)).delay for n in range(2, 9)}
        assert {delays[n + 1] - delays[n] for n in range(2, 8)} == {5}


def reference_structural_metrics(netlist):
    if not netlist.outputs:
        raise MetricsUndefinedError("structural metrics need designated outputs")
    final, _, _ = reference_arrivals(netlist)
    return MetricReport(
        gc=len(netlist.gates),
        ci=len(netlist.const_lines()),
        go=len(netlist.garbage_lines()),
        qc=sum(gate_cost(g.kind)[0] for g in netlist.gates),
        delay=max(final[line] for _, line in netlist.outputs),
    )


def reference_touchers(netlist):
    """Each touched line's first and last gate, from a pass of its own."""
    first_toucher, last_toucher = {}, {}
    for i, g in enumerate(netlist.gates):
        for p in g.pins:
            first_toucher.setdefault(p, i)
            last_toucher[p] = i
    return first_toucher, last_toucher


def reference_via(netlist):
    """Per gate, the last earlier gate on its latest-arriving pin (the
    lowest pin position on a tie), found by scanning back; -1 when no
    earlier gate touches that pin."""
    _, _, pres = reference_arrivals(netlist)
    via = []
    for g, (gate, pre) in enumerate(zip(netlist.gates, pres)):
        line = gate.pins[pre.index(max(pre))]
        earlier = [i for i in range(g) if line in netlist.gates[i].pins]
        via.append(earlier[-1] if earlier else -1)
    return via


def reference_decomposition(netlist):
    """The stage split with its own pass for each line's first and last
    toucher, one dict per figure."""
    if not netlist.outputs:
        raise MetricsUndefinedError("decomposition needs designated outputs")
    stages = []
    for i, g in enumerate(netlist.gates):
        if g.stage is None:
            raise DecompositionError(f"gate {i} ({g.kind}) has no stage tag")
        if g.stage not in stages:
            stages.append(g.stage)
    first_toucher, last_toucher = reference_touchers(netlist)
    gc, qc, ci, go, delay = ({s: 0 for s in stages} for _ in range(5))
    for kind, _, stage in netlist.gates:
        gc[stage] += 1
        qc[stage] += gate_cost(kind)[0]
    for line in netlist.const_lines():
        if line not in first_toucher:
            raise DecompositionError(f"constant line {line} is consumed by no gate")
        ci[netlist.gates[first_toucher[line]].stage] += 1
    for line in netlist.garbage_lines():
        if line not in last_toucher:
            raise DecompositionError(f"garbage line {line} is touched by no gate")
        go[netlist.gates[last_toucher[line]].stage] += 1
    for idx in reference_critical_path(netlist):
        kind, _, stage = netlist.gates[idx]
        delay[stage] += gate_cost(kind)[1]
    return {
        s: MetricReport(gc[s], ci[s], go[s], qc[s], delay[s]) for s in stages
    }


def random_tagged_netlist(rng):
    """1-8 lines of inputs and constants, 0-12 gates of any kind that fits,
    stage tags that may be missing, and outputs and restored inputs on any
    lines, touched or not."""
    width = rng.randint(1, 8)
    is_input = [rng.random() < 0.6 for _ in range(width)]
    roles = [
        input_role(f"x{i}") if is_input[i] else const_role(rng.randrange(2), f"k{i}")
        for i in range(width)
    ]
    tagged = rng.random() < 0.7
    stages = ("s0", "s1", "s2") if tagged else ("s0", "s1", None)
    kinds = [k for k in GateKind if arity(k) <= width]
    gates = []
    for _ in range(rng.randint(0, 12)):
        kind = rng.choice(kinds)
        pins = tuple(rng.sample(range(width), arity(kind)))
        gates.append(GateInstance(kind, pins, rng.choice(stages)))
    lines = list(range(width))
    rng.shuffle(lines)
    named = lines[: rng.randint(0, width)]
    restored = [l for l in lines[len(named) :] if is_input[l] and rng.random() < 0.5]
    return Netlist(
        width=width,
        roles=roles,
        gates=gates,
        outputs=tuple((f"y{l}", l) for l in named),
        restored=restored,
    )


def outcome(fn, netlist):
    """fn's value on `netlist`, or the type and message of its error."""
    try:
        return fn(netlist)
    except RevbcdError as exc:
        return type(exc), str(exc)


class TestSweepAgreement:
    """The one-sweep profile against self-contained references: every
    field of the profile, the quadratic walk and a stage split with its
    own toucher pass."""

    def test_random_netlists(self):
        rng = random.Random(2024)
        seen = set()
        for _ in range(2000):
            nl = random_tagged_netlist(rng)
            final, completions, pres = reference_arrivals(nl)
            profile = arrival_profile(nl)
            assert profile.final == tuple(final)
            assert profile.completions == tuple(completions)
            first, last = reference_touchers(nl)
            lines = range(nl.width)
            assert profile.first == tuple(first.get(line, -1) for line in lines)
            assert profile.last == tuple(last.get(line, -1) for line in lines)
            assert profile.via == tuple(reference_via(nl))
            # -1 exactly where the latest pin arrives at 0
            assert [v < 0 for v in profile.via] == [max(pre) == 0 for pre in pres]
            for fn, ref in (
                (critical_path, reference_critical_path),
                (structural_metrics, reference_structural_metrics),
                (metric_decomposition, reference_decomposition),
            ):
                got = outcome(fn, nl)
                assert got == outcome(ref, nl), (fn.__name__, nl)
                seen.add((fn.__name__, got[0] if isinstance(got, tuple) else "value"))
        # every branch of the comparison was reached
        assert seen == {
            ("critical_path", "value"),
            ("critical_path", MetricsUndefinedError),
            ("structural_metrics", "value"),
            ("structural_metrics", MetricsUndefinedError),
            ("metric_decomposition", "value"),
            ("metric_decomposition", MetricsUndefinedError),
            ("metric_decomposition", DecompositionError),
        }

    def test_line_views_on_random_netlists(self):
        """`const_lines` and `garbage_lines` against plain comprehensions
        over the records."""
        rng = random.Random(2024)
        for _ in range(2000):
            nl = random_tagged_netlist(rng)
            named = {line for _, line in nl.outputs}
            assert nl.const_lines() == [
                i for i, (kind, _) in enumerate(nl.roles) if kind != "input"
            ]
            assert nl.garbage_lines() == [
                i for i in range(nl.width) if i not in named | nl.restored
            ]

    def test_stage_split_sums_to_total_on_random_netlists(self):
        """Whenever the stage split is defined, its column sums are the
        netlist's figures: each gate has one stage, each constant and
        garbage line one counting gate, and the stage delays telescope
        along the critical path."""
        rng = random.Random(2024)
        accepted = 0
        for _ in range(2000):
            nl = random_tagged_netlist(rng)
            try:
                stages = metric_decomposition(nl)
            except RevbcdError:
                continue
            accepted += 1
            assert total(stages.values()) == structural_metrics(nl), nl
        assert accepted > 100

    @pytest.mark.parametrize("n", [*range(1, 9), 64])
    @pytest.mark.parametrize("build", [build_dec_rca, build_dec_csk])
    def test_stage_split_sums_to_total_on_adders(self, build, n):
        nl = build(n)
        assert total(metric_decomposition(nl).values()) == structural_metrics(nl)

    @pytest.mark.parametrize(
        "build",
        [build_pdfa, build_scl, build_correction, build_skip_block, build_skip_generator],
    )
    def test_stage_split_sums_to_total_on_blocks(self, build):
        nl = build()
        assert total(metric_decomposition(nl).values()) == structural_metrics(nl)
