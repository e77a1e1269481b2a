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

Each gate's semantics are written once, as the in-place applier factory in
its `_GATES` entry.  `applier` binds one to the lines of a gate instance;
the compiled simulator runs those, and `gate_semantics` runs the same
applier on a copy of its input tuple.

Appliers work on lanes: a line value is a Python int whose bit k holds
vector k's value on that line, so one call updates every vector at once
with whole-word ``^ & | ~`` operations.  The state list carries one slot
past the lines, the lane mask (bit k set for every vector in the batch).
NOT complements against it; MF complements with ``~`` under an AND with a
non-negative lane, which needs no mask.  A mask of 1 is the scalar case,
where every value is a single bit.

Cost constants are per-gate elementary-operation counts (qc) and delay in
delta units.  1x1 gates carry no quantum cost.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, Sequence

from .errors import ArityError


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


# Applier factories: each takes the gate's pins (A, B, ... in order) and
# returns an allocation-free in-place update of a line-state list, because
# the simulator runs these once per gate per batch.  v[-1] is the lane mask.


def _not(p):
    (i,) = p

    def f(v):
        v[i] ^= v[-1]

    return f


def _fg(p):
    i, j = p

    def f(v):
        v[j] ^= v[i]

    return f


def _pg(p):
    i, j, k = p

    def f(v):
        a = v[i]
        b = v[j]
        v[j] = a ^ b
        v[k] ^= a & b

    return f


def _mf(p):
    i, j, k = p

    def f(v):
        a = v[i]
        b = v[j]
        c = v[k]
        na = ~a
        v[j] = (na & b) ^ (a & ~c)
        v[k] = (a & b) ^ (na & c)

    return f


def _hng(p):
    i, j, k, l = p

    def f(v):
        a = v[i]
        b = v[j]
        c = v[k]
        ab = a ^ b
        v[k] = ab ^ c
        v[l] ^= (ab & c) ^ (a & b)

    return f


def _bjn(p):
    i, j, k = p

    def f(v):
        v[k] ^= v[i] | v[j]

    return f


def _dfg(p):
    i, j, k = p

    def f(v):
        a = v[i]
        v[j] ^= a
        v[k] ^= a

    return f


# kind -> (arity, qc, delay, applier factory)
_GATES = {
    GateKind.NOT: (1, 0, 1, _not),
    GateKind.FG: (2, 1, 1, _fg),
    GateKind.PG: (3, 4, 4, _pg),
    GateKind.MF: (3, 4, 3, _mf),
    GateKind.HNG: (4, 6, 5, _hng),
    GateKind.BJN: (3, 5, 4, _bjn),
    GateKind.DFG: (3, 2, 2, _dfg),
}

ALL_KINDS = tuple(_GATES)


def arity(kind: GateKind) -> int:
    """Number of lines the gate acts on."""
    return _GATES[kind][0]


def gate_cost(kind: GateKind) -> tuple[int, int]:
    """Return (qc, delay) for one gate instance."""
    _, qc, delay, _ = _GATES[kind]
    return qc, delay


def applier(kind: GateKind, pins: Sequence[int]) -> Callable[[list[int]], None]:
    """Return the gate's in-place update of a state list, bound to `pins`.

    The state's last slot holds the lane mask.  Pins are in A, B, ... order
    and unchecked here; `Netlist.validate` checks them.
    """
    return _GATES[kind][3](pins)


def gate_semantics(kind: GateKind, bits: tuple[int, ...]) -> tuple[int, ...]:
    """Apply one gate to an input tuple and return the output tuple.

    Raises ArityError when the tuple length does not match the gate's
    arity or a value is not a bit.
    """
    want = arity(kind)
    if len(bits) != want:
        raise ArityError(f"{kind} expects {want} bits, got {len(bits)}")
    if any(b not in (0, 1) for b in bits):
        raise ArityError(f"{kind} input must be 0/1 bits: {bits!r}")
    state = [*bits, 1]  # mask 1: one vector
    applier(kind, range(want))(state)
    return tuple(state[:-1])


def gate_truth_table(kind: GateKind) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Exhaustive (input, output) rows, inputs enumerated little-endian."""
    n = arity(kind)
    rows = []
    for value in range(1 << n):
        inp = tuple((value >> i) & 1 for i in range(n))
        rows.append((inp, gate_semantics(kind, inp)))
    return rows


def is_bijective(kind: GateKind) -> bool:
    """True when the gate's truth-table outputs are pairwise distinct."""
    outputs = {out for _, out in gate_truth_table(kind)}
    return len(outputs) == 1 << arity(kind)
