"""Bit-exact netlist evaluation, truth tables, and bijectivity checking.

A compiled netlist is a list of fused appliers, one per block of
consecutive gates; the gate semantics live in `gates._GATES` only.  A block
holds at least BLOCK_MIN gates and at most BLOCK_MAX; between the two it
ends where its first gate's stage run starts again, so in the adders a cut
falls on a digit-cell boundary and every repeated cell (or pair of ripple
cells) has one shape.  `gates.block` compiles each shape once, into a
cache that every netlist and size shares, so the cost of compiling does
not grow with the number of digits; only template text and slot numbers
enter the generated source, never text from the netlist.

`CompiledNetlist.run_state` is the one engine, for one vector or many.
Each line holds a lane: an int whose bit k is vector k's value, with the
lane mask (bit k set for every vector) riding in the state's last slot
while the gates run.  The scalar case is mask 1.  Batches made from
digit text (`ledger.text_lanes`) put vector k at bit 4k instead, under
`ledger.lane_mask`; every gate is bitwise, so the engine runs either
layout, and one batch never mixes the two.  `truth_table` and
`check_permutation` share one sweep: the varied lines start from the
counting pattern over all 2^n assignments (`counting_lanes`), 2^14 vectors
per `run_state` call so memory stays small.  `truth_table` unpacks the
rows through byte planes (`byte_plane`) rather than one int per vector;
`check_permutation` never unpacks: it runs each chunk's terminal lanes
through the compiled inverse netlist (`netlist.inverse`, compiled once
per compiled netlist) with the same `run_state` and compares whole lanes.

Evaluation is deterministic and side-effect free with respect to the
netlist, so compiled netlists can be shared across threads.  Exhaustive
operations (truth_table, check_permutation) are bounded at
EXHAUSTIVE_WIDTH_LIMIT lines.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Mapping, Sequence

from .errors import AssignmentError, CapacityError
from .gates import block
from .netlist import ROLE_CONST1, GateColumns, Netlist, inverse

EXHAUSTIVE_WIDTH_LIMIT = 20

# Gates per block: enough that one call does real work, few enough that
# the repeated digit cells, not whole netlists, make the shapes.
BLOCK_MIN = 16
BLOCK_MAX = 64


@dataclass(frozen=True)
class SimulationResult:
    """The designated outputs of one run, as lanes under its mask (bits in
    a scalar run), and whether every restored line held in every lane."""

    named: dict[str, int]
    restored_ok: bool


def _block_end(gates: GateColumns, start: int) -> int:
    """Where the block that starts at gate `start` ends (exclusive)."""
    stages = gates.stages
    first = stages[start]
    stop = min(start + BLOCK_MAX, len(stages))
    for i in range(start + BLOCK_MIN, stop):
        if stages[i] == first and stages[i - 1] != first:
            return i
    return stop


def _appliers(gates: GateColumns) -> list[Callable[[list[int]], None]]:
    """One fused applier per block of `gates`, in order."""
    fns = []
    start = 0
    kinds, pins = gates.kinds, gates.pins
    while start < len(kinds):
        end = _block_end(gates, start)
        slot: dict[int, int] = {}
        shape = tuple(
            (kind, tuple([slot.setdefault(p, len(slot)) for p in lines]))
            for kind, lines in zip(kinds[start:end], pins[start:end])
        )
        fns.append(block(shape)(*slot))
        start = end
    return fns


class CompiledNetlist:
    """A netlist lowered to a list of fused in-place bit operations."""

    def __init__(self, netlist: Netlist):
        self.netlist = netlist
        self._fns = _appliers(netlist.gates)
        self.base_state = [int(kind == ROLE_CONST1) for kind in netlist.roles.kinds]
        self.label_to_line = netlist.label_map()
        self.named = tuple(zip(netlist.outputs.names, netlist.outputs.lines))
        self.restored = tuple(sorted(netlist.restored))
        self.inputs = tuple(netlist.input_lines())

    @cached_property
    def inverse(self) -> CompiledNetlist:
        """The compiled inverse netlist (`netlist.inverse`), made at the
        first use and kept for the life of this compiled netlist."""
        return CompiledNetlist(inverse(self.netlist))

    def run_state(self, state: list[int], mask: int = 1) -> None:
        """Apply every gate to `state` in place.

        Each entry is a lane of vectors under `mask` (bit k set for each
        vector k); the default mask 1 makes every entry a single bit.
        """
        state.append(mask)
        for f in self._fns:
            f(state)
        state.pop()

    def fresh_state(self, mask: int = 1) -> list[int]:
        """Inputs 0 and constants at their value in every lane of `mask`."""
        if mask == 1:
            return self.base_state.copy()
        return [mask * bit for bit in self.base_state]

    def run_labels(self, inputs: Mapping[str, int], mask: int = 1) -> SimulationResult:
        """Run one lane batch, its inputs given by label.

        Every primary input needs a lane: an int with no bit outside
        `mask` (the default mask 1 makes each lane a single bit).
        """
        unknown = set(inputs) - set(self.label_to_line)
        if unknown:
            raise AssignmentError(f"unknown input label(s): {sorted(unknown)}")
        missing = set(self.label_to_line) - set(inputs)
        if missing:
            raise AssignmentError(f"unassigned input label(s): {sorted(missing)}")
        state = self.fresh_state(mask)
        for label, lane in inputs.items():
            if not isinstance(lane, int) or lane & ~mask:
                raise AssignmentError(f"input {label!r} must be an int inside the mask")
            state[self.label_to_line[label]] = lane
        initial = state.copy()
        self.run_state(state, mask)
        named = {name: state[line] for name, line in self.named}
        ok = all(state[l] == initial[l] for l in self.restored)
        return SimulationResult(named, ok)


@lru_cache(maxsize=256)
def compile_netlist(netlist: Netlist) -> CompiledNetlist:
    return CompiledNetlist(netlist)


def run(netlist: Netlist, inputs: Mapping[str, int]) -> SimulationResult:
    """Evaluate the netlist on one assignment of the primary inputs."""
    return compile_netlist(netlist).run_labels(inputs)


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


_BYTE_OF_BIT = bytes.maketrans(b"01", b"\0\1")


def byte_plane(lane: int, count: int) -> int:
    """An int whose byte k is bit k of `lane`, over `count` vectors."""
    text = bin(lane)[2:].zfill(count).encode().translate(_BYTE_OF_BIT)
    return int.from_bytes(text, "big")


# Multi-vector callers run at most 2^BATCH_BITS vectors per run_state call,
# so each lane stays at 2 kB (8 kB in a digit-text batch, whose vectors sit
# four bits apart) and each unpack buffer near 16 kB however many vectors
# there are: one batch over all 2^20 states would hold megabytes.
BATCH_BITS = 14


def _sweep(compiled: CompiledNetlist, lines: Sequence[int]):
    """Run every assignment of `lines`, one chunk of vectors at a time.

    Yields (initial, terminal, count) per chunk, in order: vector k of
    chunk c is the assignment whose little-endian value is c * count + k.
    Lines not varied keep their constant (inputs 0) in every lane.
    """
    low = min(len(lines), BATCH_BITS)
    count = 1 << low
    mask = (1 << count) - 1
    pattern = counting_lanes(low)
    for chunk in range(1 << (len(lines) - low)):
        state = compiled.fresh_state(mask)
        for line, lane in zip(lines, pattern):
            state[line] = lane
        for pos, line in enumerate(lines[low:]):
            state[line] = mask if chunk >> pos & 1 else 0
        initial = state.copy()
        compiled.run_state(state, mask)
        yield initial, state, count


def _check_exhaustive(netlist: Netlist) -> None:
    if netlist.width > EXHAUSTIVE_WIDTH_LIMIT:
        raise CapacityError(
            f"width {netlist.width} exceeds the exhaustive bound "
            f"of {EXHAUSTIVE_WIDTH_LIMIT} lines"
        )


def truth_table(
    netlist: Netlist,
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All (initial, terminal) state rows, varying the primary inputs.

    Constants stay at their declared values; 2^(input count) rows, inputs
    enumerated little-endian in line order.
    """
    _check_exhaustive(netlist)
    compiled = compile_netlist(netlist)
    rows: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    for initial, terminal, count in _sweep(compiled, compiled.inputs):
        columns = [
            [byte_plane(lane, count).to_bytes(count, "little") for lane in state]
            for state in (initial, terminal)
        ]
        rows += zip(zip(*columns[0]), zip(*columns[1]))
    return rows


def check_permutation(netlist: Netlist) -> bool:
    """Whether the inverse run gives back every one of the 2^width states.

    Constants are varied too: this checks the circuit as a function of
    every line, not just the used inputs.  Each chunk's terminal lanes
    run through the inverse netlist G (`netlist.inverse`) and must give
    its initial lanes again.

    True proves the raw circuit map F a bijection: G(F(x)) = x on every
    state makes F injective, so on a finite set a bijection, whatever G
    is.  False means that the inverse run did not give back every
    state.  With the shipped step lists, each checked on every input,
    that means F is not a bijection; a gate whose undo steps do not undo
    it gives False even for a bijection.
    """
    _check_exhaustive(netlist)
    compiled = compile_netlist(netlist)
    undo = compiled.inverse
    for initial, terminal, count in _sweep(compiled, range(netlist.width)):
        undo.run_state(terminal, (1 << count) - 1)
        if terminal != initial:
            return False
    return True
