"""Reusable verification suites: gate laws, adder oracles, metric fidelity.

Each check returns a VerifyResult; run_scope drives the named scope with a
fixed seed so every randomized pass is reproducible bit-for-bit.  The
sampled adder vectors are drawn as decimal digit text from one seeded
byte stream (DigitStream), and their operand lanes are built straight
from that text.  Adder vectors are checked in lane batches (one simulator
pass per design and batch of up to 2^14 vectors) against native integer
addition, and a failing check names its first failing vector.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

from .costs import METRICS, MODELS, metric_value, structural_figures
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
from .ledger import AdderPort, cached_adder, decode, encode, text_lanes, to_lanes
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


# The sampler's digits: bytes 0..249 map to the ASCII digit of their value
# mod 10, 25 bytes to each digit, and bytes 250..255 are dropped, so every
# digit kept is uniform (rejection sampling).
_DIGIT_OF_BYTE = bytes(48 + byte % 10 for byte in range(256))
_REJECTED = bytes(range(250, 256))


class DigitStream:
    """Uniform ASCII decimal digits from one seeded byte stream.

    The bytes come from random.Random(seed).randbytes in blocks of BLOCK
    bytes, so the digits depend on the seed alone, not on how take calls
    split them; between calls the buffer holds less than one block.
    """

    BLOCK = 4096

    def __init__(self, seed: int):
        self._rng = random.Random(seed)
        self.buffer = b""

    def take(self, count: int) -> str:
        """The next `count` digits of the stream."""
        parts, have = [self.buffer], len(self.buffer)
        while have < count:
            block = self._rng.randbytes(self.BLOCK)
            block = block.translate(_DIGIT_OF_BYTE, _REJECTED)
            parts.append(block)
            have += len(block)
        data = b"".join(parts)
        self.buffer = data[count:]
        return data[:count].decode()


def _check_additions(
    ports: dict[str, AdderPort], n: int, records: str
) -> tuple[int, str]:
    """Run a batch of additions at n digits as one lane batch through each
    port; returns (failures, text).

    `records` holds 2n+1 ASCII digits per vector: the n digits of a, the n
    digits of b, and a digit whose parity is the carry-in.  A vector fails
    when a port's sum or carry differs from native addition of those
    values or it changed a restored line.  `text` names the lowest failing
    vector, with what native addition gives and what the first port
    failing it gave (a non-BCD sum digit shows in hex); it is empty when
    nothing fails.
    """
    stride = 2 * n + 1
    a = [int(records[i : i + n]) for i in range(0, len(records), stride)]
    b = [int(records[i : i + n]) for i in range(n, len(records), stride)]
    cin = [digit & 1 for digit in records[2 * n :: stride].encode()]
    limit = 10**n
    totals = [x + y + c for x, y, c in zip(a, b, cin)]
    mask = (1 << len(totals)) - 1
    # Bit 0 of a digit is its parity: the carry-in lane.
    operands = (
        text_lanes(records, n, 0, stride),
        text_lanes(records, n, n, stride),
        text_lanes(records, 1, 2 * n, stride)[0],
    )
    want_sums = text_lanes("".join([str(t % limit).zfill(n) for t in totals]), n, 0, n)
    want_carry = bit_lane([t >= limit for t in totals])
    outcomes = {}
    bad = 0
    for name, port in ports.items():
        sums, carry, moved = port.add_lanes(*operands, mask)
        lane = moved | carry ^ want_carry
        for got, want in zip(sums, want_sums):
            lane |= got ^ want
        outcomes[name] = (lane, sums, carry, moved)
        bad |= lane
    if not bad:
        return 0, ""
    k = (bad & -bad).bit_length() - 1
    design = next(name for name, out in outcomes.items() if out[0] >> k & 1)
    _, sums, carry, moved = outcomes[design]
    nibbles = (
        sum((sums[4 * j + i] >> k & 1) << i for i in range(4))
        for j in reversed(range(n))
    )
    t = totals[k]
    text = (
        f"first failure: {design} N={n} a={a[k]} b={b[k]} cin={cin[k]}: "
        f"expected sum={str(t % limit).zfill(n)} carry={int(t >= limit)}, "
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
    records = "".join(f"{a}{b}{c}" for a in range(10) for b in range(10) for c in "01")
    port = AdderPort(_compiled_block("build_pdfa"))
    failures, first = _check_additions({"pdfa": port}, 1, records)
    detail = f"{200 - failures}/200 oracle matches"
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
    first failing vector.

    Each n-digit vector is the next 2n+1 digits of DigitStream(seed): a is
    the first n, b the next n, and the carry-in the parity of the last.
    The vectors depend on the seed (and the Python version's random
    module), not on BATCH_BITS.
    """
    if samples < 1:
        raise InvalidArgumentError(f"samples must be at least 1, got {samples}")
    stream = DigitStream(seed)
    failures = 0
    checked = 0
    first = ""
    for n in ADDER_SIZES:
        ports = {design: cached_adder(design, n) for design in ADDER_DESIGNS}
        for start in range(0, samples, 1 << BATCH_BITS):
            count = min(samples - start, 1 << BATCH_BITS)
            bad, text = _check_additions(ports, n, stream.take(count * (2 * n + 1)))
            checked += count
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
    """The structural figures (costs.structural_figures) against the
    published formulas in costs.MODELS: every ripple metric at N=1..8 (and
    gc=10N, which the comparison does not publish), and the carry-skip
    delay slope over N=2..8."""
    problems = []
    fit = structural_figures("dec-rca")
    for n in range(1, 9):
        m = fit[f"N={n}"]
        want = (10 * n, *(metric_value("Dec-RCA", k, n) for k in METRICS))
        if (m.gc, m.ci, m.go, m.qc, m.delay) != want:
            problems.append(f"ripple N={n}: {m}")
    slope = MODELS["Dec-CSK"]["delay"][0]
    fit = structural_figures("dec-csk")
    slopes = {fit[f"N={n + 1}"].delay - fit[f"N={n}"].delay for n in range(2, 8)}
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
