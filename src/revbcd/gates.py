"""Reversible primitive gates: semantics, arity, and quantum metrics.

Seven gates are supported.  Each maps an input bit tuple to an output bit
tuple of the same length, and every map is a bijection on {0,1}^arity:

    NOT  (1 line)   P = !A
    FG   (2 lines)  P = A,  Q = A^B                       (Feynman / CNOT)
    PG   (3 lines)  P = A,  Q = A^B,  R = AB^C            (Peres)
    MF   (3 lines)  P = A,  Q = !A.B ^ A.!C,  R = AB ^ !A.C
                    (modified Fredkin; R is a 2:1 mux with select A)
    HNG  (4 lines)  P = A,  Q = B,  R = A^B^C,
                    S = (A^B)C ^ AB ^ D                   (full adder core)
    BJN  (3 lines)  P = A,  Q = B,  R = (A|B) ^ C
    DFG  (3 lines)  P = A,  Q = A^B,  R = A^C             (double Feynman)

Each gate's semantics are written once, as the statement template in its
`_GATES` entry: in-place Python statements on the named operands {a}, {b},
... (pins A, B, ... in order).  Each entry also holds its undo steps
(`undo_steps`): the gates, each of the undone gate's own kind, that undo
it.  NOT, FG, BJN and DFG undo themselves, MF is undone by MF(A, C, B),
and PG and HNG, both of order 4, by three copies of themselves.  `block`
turns a run of gates into one fused applier, and the simulator,
`gate_semantics` (a block of one gate on one vector) and
`gate_truth_table` (a block of one gate on all 2^arity vectors at once,
`counting_lanes`) all run such appliers; no per-gate engine exists
beside them.

A block's shape is its (kind, slots) list, with its lines renamed to slots
in first-use order, so every copy of a repeated digit cell has the same
shape.  `block` generates and compiles one factory per shape and keeps it
in a bounded cache shared by every netlist and size.  The generated source
holds only template text and slot numbers: line indices are the factory's
arguments, so no text from a netlist reaches `compile`.

Appliers work on lanes: a line value is a Python int whose bit k holds
vector k's value on that line, so one call updates every vector at once
with whole-word ``^ & |`` operations.  The state list carries one slot
past the lines, the lane mask (bit k set for every vector in the batch;
digit-text batches put vector k at bit 4k, and the mask says so).
NOT complements against it (``v[-1]``), the one template that reads the
mask.  MF needs no complement: where A is set it swaps B and C, through
t = A(B^C), and flips the new B by XOR with A itself, so every value
stays within the lanes.  A mask of 1 is the scalar case, where every
value is a single bit.

Cost constants are per-gate elementary-operation counts (qc) and delay in
delta units.  1x1 gates carry no quantum cost.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from typing import Callable

from .errors import ArityError, shown


class GateKind(str, Enum):
    """The reversible gate vocabulary used by every circuit in the toolkit."""

    NOT = "NOT"
    FG = "FG"
    PG = "PG"
    MF = "MF"
    HNG = "HNG"
    BJN = "BJN"
    DFG = "DFG"

    def __str__(self) -> str:  # serialize by bare name
        return self.value


# Statement templates, one statement a line.  A template may use the scratch
# names t and u and reads the lane mask as v[-1].  Each statement that writes
# an operand starts with it and a space ("{b} ^= ..."): that is how `block`
# knows which lines to store back.
_NOT = "{a} ^= v[-1]"
_FG = "{b} ^= {a}"
_PG = "{c} ^= {a} & {b}\n{b} ^= {a}"
_MF = "t = {a} & ({b} ^ {c})\n{b} ^= {a} ^ t\n{c} ^= t"
_HNG = "t = {a} ^ {b}\n{d} ^= (t & {c}) ^ ({a} & {b})\n{c} ^= t"
_BJN = "{c} ^= {a} | {b}"
_DFG = "{b} ^= {a}\n{c} ^= {a}"

# kind -> (arity, qc, delay, statement template, undo steps)
_GATES = {
    GateKind.NOT: (1, 0, 1, _NOT, ((GateKind.NOT, (0,)),)),
    GateKind.FG: (2, 1, 1, _FG, ((GateKind.FG, (0, 1)),)),
    GateKind.PG: (3, 4, 4, _PG, ((GateKind.PG, (0, 1, 2)),) * 3),
    GateKind.MF: (3, 4, 3, _MF, ((GateKind.MF, (0, 2, 1)),)),
    GateKind.HNG: (4, 6, 5, _HNG, ((GateKind.HNG, (0, 1, 2, 3)),) * 3),
    GateKind.BJN: (3, 5, 4, _BJN, ((GateKind.BJN, (0, 1, 2)),)),
    GateKind.DFG: (3, 2, 2, _DFG, ((GateKind.DFG, (0, 1, 2)),)),
}

ALL_KINDS = tuple(_GATES)


def arity(kind: GateKind) -> int:
    """Number of lines the gate acts on."""
    return _GATES[kind][0]


def gate_cost(kind: GateKind) -> tuple[int, int]:
    """Return (qc, delay) for one gate instance."""
    return _GATES[kind][1:3]


def undo_steps(kind: GateKind) -> tuple[tuple[GateKind, tuple[int, ...]], ...]:
    """The gates that undo one `kind` gate, in order, as (kind, pin
    positions) steps: position p stands for the undone gate's pin p."""
    return _GATES[kind][4]


@lru_cache(maxsize=512)
def block(
    shape: tuple[tuple[GateKind, tuple[int, ...]], ...],
) -> Callable[..., Callable[[list[int]], None]]:
    """The factory of the fused applier for one block shape.

    `shape` holds (kind, slots) per gate, in order, with the block's lines
    renamed to slots 0, 1, ... in first-use order.  The factory takes the
    line of each slot as its arguments and returns one in-place update of
    a state list: it loads those lines into locals, runs every gate's
    template inline and stores back only the lines a gate wrote.  The
    generated source holds template text and slot numbers only; line
    indices arrive as arguments, so no netlist text reaches `compile`.
    """
    count = 1 + max(s for _, slots in shape for s in slots)
    body, written = [], set()
    for kind, slots in shape:
        names = dict(zip("abcd", (f"x{s:d}" for s in slots)))
        lines = _GATES[kind][3].format(**names).splitlines()
        body += lines
        written.update(line.split()[0] for line in lines if line.startswith("x"))
    loads = [f"x{s} = v[i{s}]" for s in range(count)]
    stores = [f"v[i{s}] = x{s}" for s in range(count) if f"x{s}" in written]
    source = "\n".join(
        [f"def make({', '.join(f'i{s}' for s in range(count))}):", "    def run(v):"]
        + [f"        {line}" for line in loads + body + stores]
        + ["    return run"]
    )
    scope: dict = {}
    exec(compile(source, "<gate block>", "exec"), scope)
    return scope["make"]


def gate_semantics(kind: GateKind, bits: tuple[int, ...]) -> tuple[int, ...]:
    """Apply one gate to an input tuple and return the output tuple.

    Raises ArityError when the tuple length does not match the gate's
    arity or a value is not a bit: an int (or bool) 0 or 1.
    """
    want = arity(kind)
    if len(bits) != want:
        raise ArityError(f"{kind} expects {want} bits, got {len(bits)}")
    if any(not isinstance(b, int) or b not in (0, 1) for b in bits):
        raise ArityError(f"{kind} input must be 0/1 bits: {shown(bits)}")
    state = [*bits, 1]  # mask 1: one vector
    pins = tuple(range(want))
    block(((kind, pins),))(*pins)(state)
    return tuple(state[:-1])


def counting_lanes(count: int) -> list[int]:
    """Lanes of `count` lines that hold all 2^count assignments.

    Bit k of lane i is bit i of k, so vector k is the assignment whose
    little-endian value is k.
    """
    total = 1 << count
    lanes = []
    for i in range(count):
        span = 1 << i
        lane = ((1 << span) - 1) << span  # one period: span zeros, span ones
        period = span << 1
        while period < total:
            lane |= lane << period
            period <<= 1
        lanes.append(lane)
    return lanes


def gate_truth_table(kind: GateKind) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Exhaustive (input, output) rows, inputs enumerated little-endian.

    The gate runs once, as a one-gate block over counting lanes under the
    mask of all 2^arity vectors; row k is read off bit k of its lanes.
    """
    n = arity(kind)
    pins, inputs = tuple(range(n)), counting_lanes(n)
    state = [*inputs, (1 << (1 << n)) - 1]
    block(((kind, pins),))(*pins)(state)
    outputs = state[:-1]
    return [
        (tuple(a >> k & 1 for a in inputs), tuple(z >> k & 1 for z in outputs))
        for k in range(1 << n)
    ]


def is_bijective(kind: GateKind) -> bool:
    """True when the gate's truth-table outputs are pairwise distinct."""
    outputs = {out for _, out in gate_truth_table(kind)}
    return len(outputs) == 1 << arity(kind)
