"""Reusable verification suites: gate laws, adder oracles, metric fidelity.

Each check returns a VerifyResult; run_scope drives the named scope with a
fixed seed so every randomized pass is reproducible bit-for-bit.  Adder
vectors are checked in lane batches (one simulator pass per design and
batch of up to 2^14 vectors), and a failing check names its first failing
vector.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

from .costs import METRICS, MODELS, metric_value
from .designs import (
    ADDER_DESIGNS,
    build_pdfa,
    build_skip_block,
    build_skip_generator,
    decimal_propagate,
    skip_carry,
)
from .errors import InvalidArgumentError
from .gates import ALL_KINDS, is_bijective
from .ledger import AdderPort, cached_adder, decode, encode, to_lanes
from .metrics import structural_metrics
from .simulator import (
    BATCH_BITS,
    CompiledNetlist,
    bit_lane,
    compile_netlist,
    truth_table,
)


@dataclass(frozen=True)
class VerifyResult:
    name: str
    passed: bool
    detail: str


def adder_sum(design: str, n: int, a: int, b: int, cin: int = 0):
    """Simulate one addition at `n` digits; returns (sum, carry, restored_ok)."""
    total, carry, ok = cached_adder(design, n).add(encode(a, n), encode(b, n), cin)
    return decode(total), carry, ok


@lru_cache(maxsize=None)
def _compiled_block(builder: str) -> CompiledNetlist:
    """The compiled netlist of the standalone block made by the builder of
    this name (build_pdfa, build_skip_generator, build_skip_block), built
    once.  The name is looked up at the first call, so a builder replaced
    before then is the one that runs."""
    return compile_netlist(globals()[builder]())


class _Additions:
    """A batch of additions a[k] + b[k] + cin[k] at n digits, held as lanes
    together with the lanes of their native sums and carries."""

    def __init__(self, n: int, a: list[int], b: list[int], cin: list[int]):
        self.n, self.a, self.b, self.cin = n, a, b, cin
        limit = 10**n
        totals = [x + y + c for x, y, c in zip(a, b, cin)]
        self.mask = (1 << len(totals)) - 1
        self.operands = (to_lanes(a, n), to_lanes(b, n), bit_lane(cin))
        self.want_sums = to_lanes([t % limit for t in totals], n)
        self.want_carry = bit_lane([t >= limit for t in totals])

    def run(self, ports: dict[str, AdderPort]) -> tuple[int, str]:
        """Run the batch once through each port; returns (failures, text).

        A vector fails when a port's sum or carry differs from native
        addition or it changed a restored line.  `text` names the lowest
        failing vector, with what native addition gives and what the first
        port failing it gave (a non-BCD sum digit shows in hex); it is
        empty when nothing fails.
        """
        outcomes = {}
        bad = 0
        for name, port in ports.items():
            sums, carry, moved = port.add_lanes(*self.operands, self.mask)
            lane = moved | carry ^ self.want_carry
            for got, want in zip(sums, self.want_sums):
                lane |= got ^ want
            outcomes[name] = (lane, sums, carry, moved)
            bad |= lane
        if not bad:
            return 0, ""
        k = (bad & -bad).bit_length() - 1
        design = next(name for name, out in outcomes.items() if out[0] >> k & 1)
        _, sums, carry, moved = outcomes[design]
        n, a, b, cin = self.n, self.a[k], self.b[k], self.cin[k]
        nibbles = (
            sum((sums[4 * j + i] >> k & 1) << i for i in range(4))
            for j in reversed(range(n))
        )
        total = a + b + cin
        text = (
            f"first failure: {design} N={n} a={a} b={b} cin={cin}: "
            f"expected sum={str(total % 10**n).zfill(n)} carry={int(total >= 10**n)}, "
            f"got sum={''.join('0123456789abcdef'[d] for d in nibbles)} "
            f"carry={carry >> k & 1}"
        )
        if moved >> k & 1:
            text += ", restored line changed"
        return bad.bit_count(), text


def verify_gates() -> VerifyResult:
    bad = [k.value for k in ALL_KINDS if not is_bijective(k)]
    return VerifyResult(
        "gates",
        not bad,
        f"{len(ALL_KINDS) - len(bad)}/{len(ALL_KINDS)} bijective"
        + (f"; failing: {bad}" if bad else ""),
    )


def verify_pdfa() -> VerifyResult:
    vectors = [(a, b, c) for a in range(10) for b in range(10) for c in range(2)]
    adds = _Additions(1, *(list(column) for column in zip(*vectors)))
    failures, first = adds.run({"pdfa": AdderPort(_compiled_block("build_pdfa"))})
    detail = f"{len(vectors) - failures}/{len(vectors)} oracle matches"
    if first:
        detail += f"; {first}"
    return VerifyResult("pdfa", failures == 0, detail)


def verify_propagate() -> VerifyResult:
    """The skip generator's P on every digit pair, and the skip block's
    selected carry dC on every (P, dC_in, G) row, against the models."""
    compiled = _compiled_block("build_skip_generator")
    p_line = compiled.netlist.output_map["P"]
    da = [x for x in range(10) for _ in range(10)]
    db = [y for _ in range(10) for y in range(10)]
    want = bit_lane([x + y == 9 for x, y in zip(da, db)])
    model = bit_lane([decimal_propagate(x, y) for x, y in zip(da, db)])
    mask = (1 << len(da)) - 1
    state = compiled.fresh_state(mask)
    for stem, digits in (("a", da), ("b", db)):
        for i, lane in enumerate(to_lanes(digits, 1)):
            state[compiled.label_to_line[f"{stem}{i}"]] = lane
    compiled.run_state(state, mask)
    failures = (state[p_line] ^ want | model ^ want).bit_count()
    block = _compiled_block("build_skip_block").netlist
    p, dc_in, g = (block.label_map()[label] for label in ("P", "dC_in", "G"))
    dc = block.output_map["dC"]
    rows = truth_table(block)
    rows_bad = sum(
        terminal[dc] != skip_carry(initial[p], initial[dc_in], initial[g])
        for initial, terminal in rows
    )
    passed = failures == 0 and rows_bad == 0
    return VerifyResult(
        "propagate",
        passed,
        f"{100 - failures}/100 digit pairs sound; carry-select rows "
        f"{len(rows) - rows_bad}/{len(rows)}",
    )


ADDER_SIZES = (2, 4, 8, 16)  # digit counts verify_adders samples


def verify_adders(seed: int = 0, samples: int = 1000) -> VerifyResult:
    """Add `samples` seeded vectors per size of ADDER_SIZES on both designs,
    in lane batches of at most 2^BATCH_BITS vectors; a failure names the
    first failing vector."""
    if samples < 1:
        raise InvalidArgumentError(f"samples must be at least 1, got {samples}")
    rng = random.Random(seed)
    failures = 0
    checked = 0
    first = ""
    for n in ADDER_SIZES:
        ports = {design: cached_adder(design, n) for design in ADDER_DESIGNS}
        for start in range(0, samples, 1 << BATCH_BITS):
            a, b, cin = [], [], []
            for _ in range(min(samples - start, 1 << BATCH_BITS)):
                a.append(rng.randrange(10**n))
                b.append(rng.randrange(10**n))
                cin.append(rng.randrange(2))
            bad, text = _Additions(n, a, b, cin).run(ports)
            checked += len(a)
            failures += bad
            first = first or text
    detail = (
        f"{checked - failures}/{checked} sampled vectors match native "
        f"addition on both designs (seed={seed})"
    )
    if first:
        detail += f"; {first}"
    return VerifyResult("adders", failures == 0, detail)


def verify_metric_fidelity() -> VerifyResult:
    """The structural metrics against the published formulas in
    costs.MODELS: every ripple metric at N=1..8 (and gc=10N, which the
    comparison does not publish), and the carry-skip delay slope."""
    problems = []
    for n in range(1, 9):
        m = structural_metrics(cached_adder("dec-rca", n).compiled.netlist)
        want = (10 * n, *(metric_value("Dec-RCA", k, n) for k in METRICS))
        if (m.gc, m.ci, m.go, m.qc, m.delay) != want:
            problems.append(f"ripple N={n}: {m}")
    slope = MODELS["Dec-CSK"]["delay"][0]
    delays = {
        n: structural_metrics(cached_adder("dec-csk", n).compiled.netlist).delay
        for n in range(2, 7)
    }
    slopes = {delays[n + 1] - delays[n] for n in range(2, 6)}
    if slopes != {slope}:
        problems.append(f"carry-skip delay slopes {sorted(slopes)} != {slope}")
    return VerifyResult(
        "metrics",
        not problems,
        f"ripple formulas 1..8 exact; carry-skip slope {slope}/digit"
        if not problems
        else "; ".join(problems),
    )


SCOPES = {
    "gates": (verify_gates,),
    "pdfa": (verify_pdfa,),
    "propagate": (verify_propagate,),
    "metrics": (verify_metric_fidelity,),
    "adders": (verify_adders,),
}


def run_scope(scope: str, seed: int = 0, samples: int = 1000) -> list[VerifyResult]:
    """Run one scope of SCOPES, or all of them in order for "all"."""
    if scope == "all":
        names = tuple(SCOPES)
    elif scope in SCOPES:
        names = (scope,)
    else:
        choices = ", ".join(SCOPES)
        raise InvalidArgumentError(
            f"unknown verify scope {scope!r}; expected all or one of {choices}"
        )
    results = []
    for name in names:
        for check in SCOPES[name]:
            if check is verify_adders:
                results.append(check(seed=seed, samples=samples))
            else:
                results.append(check())
    return results
