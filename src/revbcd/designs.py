"""Builders for the BCD adder circuits and their boolean evaluators.

Two adder families are produced:

* the ripple design (``build_dec_rca``): one decimal full-adder block per
  digit (``build_pdfa`` is the single-digit block), carry threaded from
  digit to digit through a Feynman copy, and

* the carry-skip design (``build_dec_csk``): per digit, a carry-free
  4-bit addition of the two operand digits, a propagate signal (high
  exactly when the operand digits sum to 9), a carry-independent decimal
  generate signal, a multiplexer selecting incoming carry versus
  generated carry, a double-Feynman fan of the selected carry, a small
  increment chain folding the incoming carry into the raw sum, and the
  shared six-correction block.

The carry-skip digit computes everything that feeds the carry select from
the operand digits alone, so the selected carry hops digit to digit
through just the multiplexer and the copy gate.  The outputs are equal to
the ripple design's on every input: when the digits sum to 9 the mux
forwards the incoming carry, and in every other case the digit's carry
out does not depend on the incoming carry at all, so the locally
generated signal is already correct.

Both adders are one frame (``_adder``): the operand lines, then N copies
of the design's digit cell (``_ripple_digit`` or ``_csk_digit``) with the
cell's carry lines threaded digit to digit.  The cell is recorded once
(``_cell``) on local lines and stamped N times: local line l lands on
first[l] in digit 0 and on later[l] + j*stride[l] in digit j >= 1, so the
pins of one cell gate over all digits are ranges.  Each circuit fragment
(the HNG raw-sum chain, the BJN+PG detection, the six-correction, the
MF+DFG carry select and the propagate network) is emitted by one
function; the digit cells call them, and so do the fragment's standalone blocks
(``build_scl``, ``build_correction``, ``build_skip_block``,
``build_skip_generator``), which add only their input lines and names.

Each emitter tags its gates with one of the STAGE_* labels so the metric
engine can report the three-stage split.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from typing import Iterator

from .errors import InvalidArgumentError, InvalidBCDError, positive, shown
from .gates import GateKind
from .netlist import (
    ROLE_INPUT,
    GateColumns,
    GateInstance,
    LineRole,
    Netlist,
    OutputColumns,
    RoleColumns,
    const_role,
    input_role,
)

STAGE_ADDITION = "addition"
STAGE_DETECTION = "detection"
STAGE_CORRECTION = "correction"


# -- direct boolean evaluators ----------------------------------------------


def scl_function(s1: int, s2: int, s3: int, c4: int) -> int:
    """Decimal carry out of one digit: c4 XOR s3.(s2 OR s1)."""
    return c4 ^ (s3 & (s2 | s1))


def decimal_propagate(da: int, db: int) -> int:
    """1 exactly when the two BCD digits sum to 9 (carry bypass condition).

    Computed from the per-bit propagate p_i = a_i^b_i and generate
    g_i = a_i.b_i signals.  With t1 = g1^p1 (bit 1 occupied in either
    operand) and t2 = g2^p2 (bit 2 occupied):

        p0 . (p3.!t1.!t2 ^ g1.p2 ^ g2.!t1)

    The three terms are disjoint, covering the 9-decompositions 8+1,
    {2,3}+{7,6}, and {4,5}+{5,4}.  A widely reproduced variant of this
    function drops the !t1.!t2 guard on the p3 term; that variant also
    fires on digit pairs summing to 11, 13, or 15 and would mis-select
    the incoming carry there, so the guarded form is used throughout
    (see the published-value deltas in the comparison report).
    """
    for d in (da, db):
        if not 0 <= d <= 9:
            raise InvalidBCDError(f"digit {shown(d)} outside 0..9")
    p = da ^ db
    g = da & db
    p0 = p & 1
    p1 = (p >> 1) & 1
    p2 = (p >> 2) & 1
    p3 = (p >> 3) & 1
    g1 = (g >> 1) & 1
    g2 = (g >> 2) & 1
    t1 = g1 ^ p1
    t2 = g2 ^ p2
    return p0 & ((p3 & (t1 ^ 1) & (t2 ^ 1)) ^ (g1 & p2) ^ (g2 & (t1 ^ 1)))


def skip_carry(p: int, dc_in: int, g: int) -> int:
    """Selected digit carry out: incoming carry when p, generate otherwise."""
    return dc_in if p else g


# -- small construction helper ----------------------------------------------


class _Builder:
    """Single-phase netlist assembly (kept internal; the public surface is
    `Netlist` itself plus the build_* entry points).  Lines and gates are
    collected as plain records; `build` makes the `Netlist`, which
    validates them all in one pass."""

    def __init__(self):
        self.roles: list[LineRole] = []
        self.gates: list[GateInstance] = []
        self.outputs: list[tuple[str, int]] = []
        self.restored: set[int] = set()

    def input(self, label: str) -> int:
        self.roles.append(input_role(label))
        return len(self.roles) - 1

    def const(self, label: str) -> int:
        self.roles.append(const_role(0, label))
        return len(self.roles) - 1

    def gate(self, kind: GateKind, *pins: int, stage: str) -> None:
        self.gates.append(GateInstance(kind, pins, stage))

    def name(self, name: str, line: int) -> None:
        self.outputs.append((name, line))

    def restore(self, *lines: int) -> None:
        self.restored.update(lines)

    def build(self) -> Netlist:
        return Netlist(
            width=len(self.roles),
            roles=tuple(self.roles),
            gates=tuple(self.gates),
            outputs=tuple(self.outputs),
            restored=frozenset(self.restored),
        )


# -- fragment emitters ------------------------------------------------------
#
# Each fragment of the two adders is emitted by exactly one function below;
# the digit cells and the standalone blocks call these.
# An emitter allocates its own constants, each 0 and labelled, and appends
# its gates, each tagged with the fragment's stage.


def _raw_sum(b: _Builder, a: list[int], bb: list[int], carry: int) -> list[int]:
    """Four HNG full adders over the operand bits, carry threaded from
    `carry` through k0..k3.  Returns k0..k3: the sum bit S0 lands on
    `carry`, S1..S3 on k0..k2 and the binary carry C4 on k3."""
    k = [b.const(f"k{i}") for i in range(4)]
    chain = [carry] + k
    for i in range(4):
        b.gate(GateKind.HNG, a[i], bb[i], chain[i], k[i], stage=STAGE_ADDITION)
    return k


def _detection(b: _Builder, s1: int, s2: int, s3: int, c4: int) -> None:
    """Decimal carry onto the C4 line: s1|s2 onto a fresh ancilla, then a
    Peres gate folds it with s3 into C4 (c4 ^ s3.(s1|s2))."""
    m0 = b.const("or")
    b.gate(GateKind.BJN, s1, s2, m0, stage=STAGE_DETECTION)
    b.gate(GateKind.PG, s3, m0, c4, stage=STAGE_DETECTION)


def _correction(b: _Builder, dc: int, s1: int, s2: int, s3: int) -> int:
    """Add 6*dC to the upper three sum bits.  s1 and s3 are corrected in
    place; the corrected S2 lands on a fresh line, which is returned."""
    n0 = b.const("c2")
    n1 = b.const("c3")
    b.gate(GateKind.PG, dc, s1, n0, stage=STAGE_CORRECTION)
    b.gate(GateKind.HNG, s2, dc, n0, n1, stage=STAGE_CORRECTION)
    b.gate(GateKind.FG, n1, s3, stage=STAGE_CORRECTION)
    return n0


def _carry_select(
    b: _Builder, p: int, dc_in: int, g: int, labels: tuple[str, str]
) -> tuple[int, int]:
    """Multiplexer leaving `dc_in` if p else the generate signal on `g`,
    then a double-Feynman fan of it onto two fresh lines, returned."""
    b.gate(GateKind.MF, p, dc_in, g, stage=STAGE_DETECTION)
    z0 = b.const(labels[0])
    z1 = b.const(labels[1])
    b.gate(GateKind.DFG, g, z0, z1, stage=STAGE_DETECTION)
    return z0, z1


def _propagate(b: _Builder, a: list[int], bb: list[int]) -> int:
    """Emit the propagate-signal gates; returns the P line.

    Reads the operand digit off the a/b pass-through lines, accumulates
    the sum-to-9 detector of decimal_propagate onto the P line, and
    restores every b line before returning (a lines are only ever read
    through pass-through pins).  The p3.!t1.!t2 term is built as a
    mux cascade, mux(p3: !t2, g2) then masked by !t1, which equals
    p3.!t1.!t2 ^ g2.!t1 on valid BCD inputs because p3 and g2 cannot
    both be set when both digits are at most 9.
    """
    u1, u2, x, y, v0, pline = map(b.const, ("g1", "g2", "x", "y", "scratch", "P"))
    g = lambda kind, *pins: b.gate(kind, *pins, stage=STAGE_DETECTION)
    g(GateKind.FG, a[0], bb[0])          # b0 <- p0
    g(GateKind.PG, a[1], bb[1], u1)      # b1 <- p1, u1 <- g1
    g(GateKind.PG, a[2], bb[2], u2)      # b2 <- p2, u2 <- g2
    g(GateKind.FG, a[3], bb[3])          # b3 <- p3
    g(GateKind.PG, u1, bb[2], x)         # x <- g1.p2 (b2 smeared, fixed next)
    g(GateKind.FG, u1, bb[2])            # b2 <- p2 again
    g(GateKind.FG, bb[1], u1)            # u1 <- t1 = g1^p1
    g(GateKind.FG, u2, y)                # y <- g2
    g(GateKind.FG, bb[2], u2)            # u2 <- t2 = g2^p2
    g(GateKind.MF, bb[3], y, u2)         # y <- p3 ? !t2 : g2
    g(GateKind.MF, u1, v0, y)            # y <- !t1 . y  (R output, B = 0)
    g(GateKind.FG, y, x)                 # x <- g1p2 ^ p3.!t1.!t2 ^ g2.!t1
    g(GateKind.PG, bb[0], x, pline)      # P <- p0.x
    for i in range(4):
        g(GateKind.FG, a[i], bb[i])      # b_i <- a_i ^ p_i = b_i
    return pline


# -- standalone blocks --------------------------------------------------------


def build_scl() -> Netlist:
    """Standalone detection block: raw-sum bits in, decimal carry out.

    A Feynman copy peels the decimal carry off so one copy can keep
    threading (dC_chain) while the named dC feeds the next consumer.
    """
    b = _Builder()
    s1, s2, s3, c4 = (b.input(label) for label in ("S1", "S2", "S3", "C4"))
    _detection(b, s1, s2, s3, c4)
    copy = b.const("carry_copy")
    b.gate(GateKind.FG, c4, copy, stage=STAGE_DETECTION)
    b.name("dC", copy)
    b.name("dC_chain", c4)
    b.restore(s1, s2, s3)
    return b.build()


def build_correction() -> Netlist:
    """Standalone six-correction block for the upper three sum bits.

    Functional contract: with raw sum S (bit 0 untouched by adding six)
    the outputs are the matching bits of (S + 6*dC) mod 16.
    """
    b = _Builder()
    dc, s1, s2, s3 = (b.input(label) for label in ("dC", "S1", "S2", "S3"))
    s2c = _correction(b, dc, s1, s2, s3)
    b.name("S1c", s1)
    b.name("S2c", s2c)
    b.name("S3c", s3)
    b.restore(dc, s2)
    return b.build()


def build_skip_generator() -> Netlist:
    """Standalone propagate-signal netlist over one digit pair.

    Simulated output equals decimal_propagate on every valid digit pair;
    all operand lines are restored.
    """
    b = _Builder()
    a = [b.input(f"a{i}") for i in range(4)]
    bb = [b.input(f"b{i}") for i in range(4)]
    b.name("P", _propagate(b, a, bb))
    b.restore(*a, *bb)
    return b.build()


def build_skip_block() -> Netlist:
    """Standalone carry-select stage: mux then double-Feynman carry fan.

    The multiplexer leaves the selected carry on the generate line and
    the copy gate peels off the two copies that travel to the next digit
    and the next skip stage, while the original drives the correction.
    """
    b = _Builder()
    p, dc_in, g = (b.input(label) for label in ("P", "dC_in", "G"))
    z0, z1 = _carry_select(b, p, dc_in, g, ("copy0", "copy1"))
    b.name("dC", g)
    b.name("copy0", z0)
    b.name("copy1", z1)
    b.restore(p)
    return b.build()


# -- digit cells and the adder frame ------------------------------------------
#
# A digit cell appends one digit's lines and gates.  It takes the digit's
# operand lines and the tuple of carry lines threaded in from the previous
# digit, and returns the four sum lines S0..S3 and the tuple of carry
# lines it threads out; the first of those is the digit's decimal carry.


def _ripple_digit(
    b: _Builder, a: list[int], bb: list[int], carries: tuple[int]
) -> tuple[list[int], tuple[int]]:
    """One decimal full-adder digit; one carry line in and out."""
    (carry_in,) = carries
    k = _raw_sum(b, a, bb, carry_in)
    _detection(b, k[0], k[1], k[2], k[3])
    copy = b.const("dCcopy")
    b.gate(GateKind.FG, k[3], copy, stage=STAGE_DETECTION)
    s2 = _correction(b, k[3], k[0], k[1], k[2])
    return [carry_in, k[0], s2, k[2]], (copy,)


def _csk_digit(
    b: _Builder, a: list[int], bb: list[int], carries: tuple[int, int]
) -> tuple[list[int], tuple[int, int]]:
    """One carry-skip digit.  Two carry lines in and out: the first feeds
    the increment chain, the second the carry mux (in digit 0 both are
    the carry-in line)."""
    rca_in, mux_in = carries
    zc = b.const("zc")
    k = _raw_sum(b, a, bb, zc)
    # carry-free raw sum: S0' zc, S1' k0, S2' k1, S3' k2, C4' k3
    p = _propagate(b, a, bb)
    _detection(b, k[0], k[1], k[2], k[3])
    # k3 now holds the carry-independent generate signal
    w = [b.const(f"w{i}") for i in (1, 2, 3)]
    b.gate(GateKind.PG, rca_in, zc, w[0], stage=STAGE_DETECTION)
    b.gate(GateKind.PG, w[0], k[0], w[1], stage=STAGE_DETECTION)
    b.gate(GateKind.PG, w[1], k[1], w[2], stage=STAGE_DETECTION)
    b.gate(GateKind.FG, w[2], k[2], stage=STAGE_DETECTION)
    # zc/k0/k1/k2 now hold the true sum bits (raw sum + incoming carry)
    carries_out = _carry_select(b, p, mux_in, k[3], ("dCnext", "dCskip"))
    s2 = _correction(b, k[3], k[0], k[1], k[2])
    return [zc, k[0], s2, k[2]], carries_out


def _digit_major(columns):
    """Interleave per-cell-record columns (each over digits 0..n-1) into
    digit order: digit 0's records, then digit 1's, and so on."""
    return chain.from_iterable(zip(*columns))


@lru_cache(maxsize=None)
def _cell(digit, threads: int):
    """The digit cell recorded once, on local lines: 0..7 are the operand
    digit (a0..a3, b0..b3), then the `threads` carry lines threaded in,
    then the cell's own constants.  Returns the constants' roles (their
    labels are prefixes, to which each digit adds ``.j``), the gates on
    local lines, and the local sum lines and carry lines threaded out."""
    b = _Builder()
    a = [b.input(f"a{i}") for i in range(4)]
    bb = [b.input(f"b{i}") for i in range(4)]
    carries = tuple(b.input(f"c{t}") for t in range(threads))
    sums, carries_out = digit(b, a, bb, carries)
    return tuple(b.roles[8 + threads :]), tuple(b.gates), tuple(sums), carries_out


def adder_labels(n: int | None) -> tuple[Iterator[str], Iterator[str]]:
    """The label scheme of an n-digit adder: its input labels in line
    order (``a0..a3`` then ``b0..b3`` of each digit, then ``cin``) and its
    sum names in lane order (``S0..S3`` of each digit, bit i of digit j
    at 4j+i), each with the digit suffix ``.j``; n None is the pdfa's
    single digit, with no suffix.  Both are made as they are read, not
    held: `_adder` names its lines from them and `ledger.AdderPort`
    checks a netlist against them."""
    digits = [""] if n is None else [f".{j}" for j in range(n)]
    operands = ("a0", "a1", "a2", "a3", "b0", "b1", "b2", "b3")
    inputs = (label + d for d in digits for label in operands)
    sums = (name + d for d in digits for name in ("S0", "S1", "S2", "S3"))
    return chain(inputs, ["cin"]), sums


def _adder(n: int, digit, threads: int, suffixed: bool = True) -> Netlist:
    """An n-digit adder: the operand lines (per digit a0..a3 then b0..b3,
    then the single carry-in line last), then n copies of `digit` with
    its `threads` carry lines threaded digit to digit from the carry-in.

    The cell is recorded once (`_cell`) and stamped n times.  Local line
    l is digit 0's line first[l] and digit j's line later[l] + j*stride[l]
    for j >= 1: the stride is 8 for an operand line and C, the cell's
    constant count, for a constant or a threaded carry.  A threaded carry
    is the carry-in in digit 0 (both csk carry slots) and the previous
    digit's carry-out constant after it.  So each gate's pins over all
    digits are ranges, zipped; gates and roles are laid out digit-major,
    and each goes into the netlist as its columns.

    Input labels and sum names come from `adder_labels`: `adder_labels(n)`,
    or `adder_labels(None)` (no digit suffix) when `suffixed` is false (the
    single-digit pdfa).  Constant labels always carry the suffix ``.j``.

    The operand layout is `ledger.AdderPort`'s contract: a0..a3 then
    b0..b3 of digit j on lines 8j..8j+7, the carry-in on line 8n, and the
    restored lines exactly 0..8n-1.  The port checks it once and then
    writes and checks the operands as one slice of the line state.
    """
    positive(n, "digit count")
    consts, cell_gates, sums, carries = _cell(digit, threads)
    c = len(consts)
    base = 8 * n + 1  # digit 0's first constant; the carry-in is base - 1
    lead = 8 + threads
    first = [*range(8), *[base - 1] * threads, *range(base, base + c)]
    # A threaded carry in digit j >= 1 is digit j-1's carry-out constant.
    carried = (base - c + l - lead for l in carries)
    later = [*range(8), *carried, *range(base, base + c)]
    stride = [8] * 8 + [c] * (threads + c)
    # lines[l][j]: local line l's line in digit j.  The ints are sliced
    # from one list made in line order, so one digit's ints lie close
    # together in memory: the compiled gates read them on every run.
    line = list(range(base + n * c))
    lines = [
        [line[first[l]], *line[later[l] + step : later[l] + n * step : step]]
        for l, step in enumerate(stride)
    ]
    inputs, names = adder_labels(n if suffixed else None)
    tags = [f".{j}" for j in range(n)]
    const_kinds, prefixes = zip(*consts)
    roles = RoleColumns(
        (ROLE_INPUT,) * base + const_kinds * n,
        [*inputs, *(prefix + tag for tag in tags for prefix in prefixes)],
    )
    kinds, cell_pins, stages = zip(*cell_gates)
    pins = _digit_major(zip(*map(lines.__getitem__, p)) for p in cell_pins)
    ends = list(_digit_major(lines[sums[i]] for i in range(4)))
    return Netlist(
        width=base + n * c,
        roles=roles,
        gates=GateColumns(kinds * n, pins, stages * n),
        outputs=OutputColumns([*names, "dC"], [*ends, lines[carries[0]][-1]]),
        restored=frozenset(range(8 * n)),
    )


def build_pdfa() -> Netlist:
    """Single-digit decimal full adder (17 lines, 10 gates)."""
    return _adder(1, _ripple_digit, 1, suffixed=False)


def build_dec_rca(n: int) -> Netlist:
    """n-digit ripple BCD adder built from decimal full-adder digits."""
    return _adder(n, _ripple_digit, 1)


def build_dec_csk(n: int) -> Netlist:
    """n-digit carry-skip BCD adder; outputs equal build_dec_rca(n)'s."""
    return _adder(n, _csk_digit, 2)


# -- design registry ---------------------------------------------------------

DESIGN_BUILDERS = {
    "scl": build_scl,
    "pdfa": build_pdfa,
    "dec-rca": build_dec_rca,
    "dec-csk": build_dec_csk,
}

# The multi-digit designs; every other builder takes no digit count.
ADDER_DESIGNS = ("dec-rca", "dec-csk")


def build_design(name: str, digits: int = 1) -> Netlist:
    """Build any registered design by its registry name."""
    try:
        builder = DESIGN_BUILDERS[name]
    except KeyError:
        raise InvalidArgumentError(
            f"unknown design {shown(name)}; known: {', '.join(sorted(DESIGN_BUILDERS))}"
        )
    if name in ADDER_DESIGNS:
        return builder(digits)
    if positive(digits, "digit count") != 1:
        raise InvalidArgumentError(f"design {shown(name)} is single-digit only")
    return builder()
