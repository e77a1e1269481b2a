"""Reusable verification suites: gate laws, adder oracles, metric fidelity.

Each check returns a VerifyResult; run_scope drives the named scope with a
fixed seed so every randomized pass is reproducible bit-for-bit.  The
sampled adder vectors are drawn as decimal digit text from one seeded
byte stream (DigitStream), and their operand lanes are built straight
from that text (ledger.text_lanes: vector k at bit 4k, so one base-16
parse of a digit column gives its four bit lanes).  Adder vectors are
checked in lane batches (one simulator pass per design and batch of up
to 2^14 vectors) against native integer addition, and a failing check
names its first failing vector.  The oracle adds a whole batch at once:
every vector's operands sit in BCD fields behind a zero guard digit,
read as hexadecimal, so one binary addition covers every vector and no
carry crosses a field (Lamport's guarded field packing); no Python step
of the check runs per vector.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

from .costs import METRICS, MODELS, metric_value, structural_figures
from .designs import (
    ADDER_DESIGNS,
    build_skip_block,
    build_skip_generator,
    decimal_propagate,
    skip_carry,
)
from .errors import InvalidArgumentError
from .gates import ALL_KINDS, is_bijective
from .ledger import AdderPort, cached_adder, decode, encode, lane_mask, text_lanes
from .simulator import BATCH_BITS, CompiledNetlist, compile_netlist, counting_lanes


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
    this name (build_skip_generator, build_skip_block), built once.  The
    name is looked up at the first call, so a builder replaced before then
    is the one that runs."""
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


# A carry-in digit's parity as an ASCII digit: 0 for an even digit, 1 for odd.
_PARITY = bytes.maketrans(b"0123456789", b"0101010101")

def _native_sums(records: str, n: int) -> str:
    """Native addition of a batch of digit records, as one decimal text.

    `records` holds 2n+1 ASCII digits per vector: a, b, and a digit whose
    parity is the carry-in.  The result holds one field of n+1 digits per
    vector, in vector order: the carry digit, then the n-digit sum, so
    field k is str(a + b + cin).zfill(n + 1).

    Each operand is written into an (n+1)-digit field behind a zero guard
    digit, and the fields are read as hexadecimal, one nibble a digit, and
    added as three ints: BCD addition in binary.  Every nibble of a is
    biased by 6 first, so a digit sum of ten or more carries out of its
    nibble; each nibble that sent no carry has the 6 taken back.  The
    guard nibble never carries, so no carry crosses into the next field.
    Every step is linear in the batch size.
    """
    stride, field = 2 * n + 1, n + 1
    raw = records.encode()
    size = len(raw) // stride * field
    if not size:
        return ""
    a, b, c = (bytearray(b"0" * size) for _ in range(3))
    for j in range(n):
        a[1 + j :: field] = raw[j::stride]
        b[1 + j :: field] = raw[n + j :: stride]
    c[n::field] = raw[2 * n :: stride].translate(_PARITY)
    nibbles = lane_mask(size)  # 1 in every nibble
    biased, addend = int(a, 16) + 6 * nibbles, int(b, 16) + int(c, 16)
    total = biased + addend
    # The carries into each bit; bit 4j+4 is the carry out of nibble j.
    carried = (total ^ biased ^ addend) >> 4 & nibbles
    return format(total - 6 * (nibbles ^ carried), "x").zfill(size)


def _check_additions(
    ports: dict[str, AdderPort], n: int, records: str
) -> tuple[int, str]:
    """Run a batch of additions at n digits as one lane batch through each
    port; returns (failures, text).

    `records` holds 2n+1 ASCII digits per vector: the n digits of a, the n
    digits of b, and a digit whose parity is the carry-in.  A vector fails
    when a port's sum or carry differs from native addition of those
    values (_native_sums, read into lanes) or it changed a restored line.
    No Python step runs per vector: only the failure text reads one
    vector's operands.  `text` names the lowest failing vector, with what
    native addition gives and what the first port failing it gave (a
    non-BCD sum digit shows in hex); it is empty when nothing fails.
    """
    stride, field = 2 * n + 1, n + 1
    # Each record read whole as one number, least significant digit first:
    # the carry-in digit (its bit 0, the parity, is the carry-in lane),
    # then b, then a.
    lanes = text_lanes(records, stride)
    operands = (lanes[4 * field :], lanes[4 : 4 * field], lanes[0])
    totals = _native_sums(records, n)
    expected = text_lanes(totals, field)
    want_sums, want_carry = expected[: 4 * n], expected[4 * n]
    mask = lane_mask(len(records) // stride)
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
    bit = (bad & -bad).bit_length() - 1
    k = bit // 4
    design = next(name for name, out in outcomes.items() if out[0] >> bit & 1)
    _, sums, carry, moved = outcomes[design]
    nibbles = (
        sum((sums[4 * j + i] >> bit & 1) << i for i in range(4))
        for j in reversed(range(n))
    )
    record = records[k * stride : (k + 1) * stride]
    want = totals[k * field : (k + 1) * field]
    text = (
        f"first failure: {design} N={n} a={int(record[:n])} "
        f"b={int(record[n:-1])} cin={int(record[-1]) & 1}: "
        f"expected sum={want[1:]} carry={want[0]}, "
        f"got sum={''.join('0123456789abcdef'[d] for d in nibbles)} "
        f"carry={carry >> bit & 1}"
    )
    if moved >> bit & 1:
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
    failures, first = _check_additions({"pdfa": cached_adder("pdfa", 1)}, 1, records)
    detail = f"{200 - failures}/200 oracle matches"
    if first:
        detail += f"; {first}"
    return VerifyResult("pdfa", failures == 0, detail)


def verify_propagate() -> VerifyResult:
    """The skip generator's P on every digit pair, and the skip block's
    selected carry dC on every (P, dC_in, G) row, against the models.

    Each block runs once, as one lane batch: the generator over the 100
    digit pairs written as digit text, the skip block over its 8 rows."""
    pairs = [(x, y) for x in range(10) for y in range(10)]
    digits = text_lanes("".join(f"{x}{y}" for x, y in pairs), 2)
    flags = text_lanes(
        "".join(f"{int(x + y == 9)}{decimal_propagate(x, y)}" for x, y in pairs), 2
    )
    want, model = flags[4], flags[0]
    inputs = dict(zip([f"{stem}{i}" for stem in "ba" for i in range(4)], digits))
    generator = _compiled_block("build_skip_generator")
    got = generator.run_labels(inputs, lane_mask(len(pairs))).named["P"]
    failures = (got ^ want | model ^ want).bit_count()
    rows = dict(zip(("P", "dC_in", "G"), counting_lanes(3)))
    dc = _compiled_block("build_skip_block").run_labels(rows, 0xFF).named["dC"]
    rows_bad = sum(
        dc >> k & 1 != skip_carry(k & 1, k >> 1 & 1, k >> 2 & 1) for k in range(8)
    )
    passed = failures == 0 and rows_bad == 0
    return VerifyResult(
        "propagate",
        passed,
        f"{100 - failures}/100 digit pairs sound; carry-select rows {8 - rows_bad}/8",
    )


ADDER_SIZES = (2, 4, 8, 16)  # digit counts verify_adders samples


def verify_adders(seed: int = 0, samples: int = 1000) -> VerifyResult:
    """Add `samples` seeded vectors per size of ADDER_SIZES on both designs,
    in lane batches of at most 2^BATCH_BITS vectors; a failure names the
    first failing vector.

    Each n-digit vector is the next 2n+1 digits of DigitStream(seed): a is
    the first n, b the next n, and the carry-in the parity of the last.
    A batch's lanes hold vector k at bit 4k (ledger.text_lanes), under
    ledger.lane_mask.
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
