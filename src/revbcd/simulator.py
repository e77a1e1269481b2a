"""Bit-exact netlist evaluation, truth tables, and bijectivity checking.

A compiled netlist is the list of in-place appliers that `gates.applier`
binds to each gate's pins; the gate semantics live in `gates._GATES` only.

Evaluation is deterministic and side-effect free with respect to the
netlist, so compiled netlists can be shared across threads.  Exhaustive
operations (truth_table, check_permutation) are bounded at
EXHAUSTIVE_WIDTH_LIMIT lines; beyond that callers should fall back to
seeded sampling (see sample_injectivity).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping

from .errors import AssignmentError, CapacityError
from .gates import applier
from .netlist import Netlist

EXHAUSTIVE_WIDTH_LIMIT = 20


@dataclass(frozen=True)
class SimulationResult:
    """Terminal line values plus the designated-output view of them."""

    terminal: tuple[int, ...]
    named: dict[str, int]
    restored_ok: bool


class CompiledNetlist:
    """A netlist lowered to a list of in-place bit operations."""

    def __init__(self, netlist: Netlist):
        self.netlist = netlist
        self._fns = [applier(g.kind, g.pins) for g in netlist.gates]
        base = []
        for role in netlist.roles:
            base.append(0 if role.is_input else role.const_value)
        self.base_state = base
        self.label_to_line = netlist.label_map()
        self.named = tuple(netlist.outputs)
        self.restored = tuple(sorted(netlist.restored))
        self.inputs = tuple(netlist.input_lines())

    def run_state(self, state: list[int]) -> None:
        """Apply every gate to `state` in place."""
        for f in self._fns:
            f(state)

    def fresh_state(self) -> list[int]:
        return self.base_state.copy()

    def result(self, initial: list[int], terminal: list[int]) -> SimulationResult:
        named = {name: terminal[line] for name, line in self.named}
        ok = all(terminal[l] == initial[l] for l in self.restored)
        return SimulationResult(tuple(terminal), named, ok)

    def run_labels(self, inputs: Mapping[str, int]) -> SimulationResult:
        state = self.fresh_state()
        unknown = set(inputs) - set(self.label_to_line)
        if unknown:
            raise AssignmentError(f"unknown input label(s): {sorted(unknown)}")
        missing = set(self.label_to_line) - set(inputs)
        if missing:
            raise AssignmentError(f"unassigned input label(s): {sorted(missing)}")
        for label, bit in inputs.items():
            if bit not in (0, 1):
                raise AssignmentError(f"input {label!r} must be 0 or 1, got {bit!r}")
            state[self.label_to_line[label]] = bit
        initial = state.copy()
        self.run_state(state)
        return self.result(initial, state)


@lru_cache(maxsize=256)
def compile_netlist(netlist: Netlist) -> CompiledNetlist:
    return CompiledNetlist(netlist)


def run(netlist: Netlist, inputs: Mapping[str, int]) -> SimulationResult:
    """Evaluate the netlist on one assignment of the primary inputs."""
    return compile_netlist(netlist).run_labels(inputs)


def run_batch(
    netlist: Netlist, inputs: Iterable[Mapping[str, int]]
) -> list[SimulationResult]:
    """Element-wise run(); order preserved, per-element errors indexed."""
    compiled = compile_netlist(netlist)
    results = []
    for pos, assignment in enumerate(inputs):
        try:
            results.append(compiled.run_labels(assignment))
        except AssignmentError as exc:
            raise AssignmentError(f"batch item {pos}: {exc}") from exc
    return results


def truth_table(
    netlist: Netlist,
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All (initial, terminal) state rows, varying the primary inputs.

    Constants stay at their declared values; 2^(input count) rows, inputs
    enumerated little-endian in line order.
    """
    if netlist.width > EXHAUSTIVE_WIDTH_LIMIT:
        raise CapacityError(
            f"width {netlist.width} exceeds the exhaustive bound "
            f"{EXHAUSTIVE_WIDTH_LIMIT}; use sampled verification"
        )
    compiled = compile_netlist(netlist)
    inputs = compiled.inputs
    rows = []
    for value in range(1 << len(inputs)):
        state = compiled.fresh_state()
        for pos, line in enumerate(inputs):
            state[line] = (value >> pos) & 1
        initial = tuple(state)
        compiled.run_state(state)
        rows.append((initial, tuple(state)))
    return rows


def check_permutation(netlist: Netlist) -> bool:
    """True iff the raw circuit map on all 2^width states is a bijection.

    Constants are varied too: this checks the circuit as a function of
    every line, not just the used inputs.
    """
    if netlist.width > EXHAUSTIVE_WIDTH_LIMIT:
        raise CapacityError(
            f"width {netlist.width} exceeds the exhaustive bound "
            f"{EXHAUSTIVE_WIDTH_LIMIT}; use sample_injectivity"
        )
    compiled = compile_netlist(netlist)
    width = netlist.width
    seen = bytearray(1 << width)
    for value in range(1 << width):
        state = [(value >> i) & 1 for i in range(width)]
        compiled.run_state(state)
        packed = 0
        for i, bit in enumerate(state):
            packed |= bit << i
        if seen[packed]:
            return False
        seen[packed] = 1
    return True


def sample_injectivity(netlist: Netlist, samples: int = 4096, seed: int = 0) -> bool:
    """Seeded spot check that distinct states map to distinct states.

    For netlists past the exhaustive bound; composition of bijective gates
    is a bijection by construction, so this is a regression tripwire.
    """
    import random

    rng = random.Random(seed)
    compiled = compile_netlist(netlist)
    width = netlist.width
    seen_in = set()
    seen_out = {}
    for _ in range(samples):
        value = rng.getrandbits(width)
        if value in seen_in:
            continue
        seen_in.add(value)
        state = [(value >> i) & 1 for i in range(width)]
        compiled.run_state(state)
        packed = 0
        for i, bit in enumerate(state):
            packed |= bit << i
        if packed in seen_out and seen_out[packed] != value:
            return False
        seen_out[packed] = value
    return True


def verify_restored(
    netlist: Netlist, samples: int = 2048, seed: int = 0
) -> bool:
    """Check the restored-input designation over the input domain.

    Exhaustive over the primary inputs when the netlist fits the
    exhaustive bound, seeded random sampling otherwise.
    """
    compiled = compile_netlist(netlist)
    inputs = compiled.inputs
    if not compiled.restored:
        return True
    if len(inputs) <= EXHAUSTIVE_WIDTH_LIMIT:
        space: Iterable[int] = range(1 << len(inputs))
    else:
        import random

        rng = random.Random(seed)
        space = (rng.getrandbits(len(inputs)) for _ in range(samples))
    for value in space:
        state = compiled.fresh_state()
        for pos, line in enumerate(inputs):
            state[line] = (value >> pos) & 1
        initial = state.copy()
        compiled.run_state(state)
        if any(state[l] != initial[l] for l in compiled.restored):
            return False
    return True

