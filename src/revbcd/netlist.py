"""Line-based reversible netlists: structure, validation, serialization.

A netlist is a fixed set of indexed lines, each either a labelled primary
input or a constant (ancilla) fixed to 0 or 1, plus an ordered gate list.
Gates apply strictly in list order, so there is no feedback, and because a
gate rewrites the lines it touches, every value has exactly one consumer:
the next gate on that line.  Fan-out is therefore impossible by
construction.

Terminal lines fall into three classes:
  * named outputs, designated by name -> line,
  * restored inputs, primary-input lines whose terminal value provably
    equals their initial value (pass-through), and
  * garbage, everything else.

Netlists are immutable; the building operations return new values.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping

from .errors import (
    ArityError,
    DesignationError,
    FanInError,
    InvalidArgumentError,
    LineIndexError,
    NetlistFormatError,
)
from .gates import GateKind, arity

ROLE_INPUT = "input"
ROLE_CONST0 = "const0"
ROLE_CONST1 = "const1"
_ROLES = (ROLE_INPUT, ROLE_CONST0, ROLE_CONST1)


@dataclass(frozen=True)
class LineRole:
    """Role of one line: labelled primary input, or constant 0/1.

    Constants may carry an informational label for debugging; only input
    labels participate in input assignment.
    """

    kind: str
    label: str | None = None

    def __post_init__(self):
        if self.kind not in _ROLES:
            raise InvalidArgumentError(f"unknown line role {self.kind!r}")
        if self.kind == ROLE_INPUT and not self.label:
            raise InvalidArgumentError("primary input lines need a label")

    @property
    def is_input(self) -> bool:
        return self.kind == ROLE_INPUT

    @property
    def const_value(self) -> int:
        if self.kind == ROLE_CONST0:
            return 0
        if self.kind == ROLE_CONST1:
            return 1
        raise InvalidArgumentError(f"line role {self.kind!r} is not a constant")


def input_role(label: str) -> LineRole:
    return LineRole(ROLE_INPUT, label)


def const_role(bit: int, label: str | None = None) -> LineRole:
    if bit not in (0, 1):
        raise InvalidArgumentError(f"constant must be 0 or 1, got {bit!r}")
    return LineRole(ROLE_CONST0 if bit == 0 else ROLE_CONST1, label)


@dataclass(frozen=True)
class GateInstance:
    """One placed gate: a kind plus the ordered lines it acts on.

    The optional stage tag groups gates for per-stage metric reporting.
    """

    kind: GateKind
    pins: tuple[int, ...]
    stage: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "pins", tuple(self.pins))
        want = arity(self.kind)
        if len(self.pins) != want:
            raise ArityError(f"{self.kind} takes {want} pins, got {len(self.pins)}")
        if len(set(self.pins)) != len(self.pins):
            raise FanInError(f"{self.kind} pins {self.pins} repeat a line")


@dataclass(frozen=True)
class Netlist:
    """Immutable reversible netlist over `width` indexed lines."""

    width: int
    roles: tuple[LineRole, ...]
    gates: tuple[GateInstance, ...] = ()
    outputs: tuple[tuple[str, int], ...] = ()
    restored: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self):
        object.__setattr__(self, "roles", tuple(self.roles))
        object.__setattr__(self, "gates", tuple(self.gates))
        object.__setattr__(self, "outputs", tuple(tuple(o) for o in self.outputs))
        object.__setattr__(self, "restored", frozenset(self.restored))
        self.validate()

    # -- validation -----------------------------------------------------

    def validate(self) -> None:
        """Full structural re-validation; raises on any violation."""
        if self.width < 1:
            raise InvalidArgumentError("netlist width must be positive")
        if len(self.roles) != self.width:
            raise InvalidArgumentError(
                f"{len(self.roles)} roles for width {self.width}"
            )
        labels = [r.label for r in self.roles if r.is_input]
        if len(labels) != len(set(labels)):
            raise InvalidArgumentError("duplicate input labels")
        const_labels = [r.label for r in self.roles if not r.is_input and r.label]
        if len(const_labels) != len(set(const_labels)):
            raise InvalidArgumentError("duplicate constant labels")
        for g in self.gates:
            for p in g.pins:
                if not 0 <= p < self.width:
                    raise LineIndexError(f"pin {p} outside 0..{self.width - 1}")
        names = [n for n, _ in self.outputs]
        if len(names) != len(set(names)):
            raise DesignationError("output names must be unique")
        named_lines = set()
        for name, line in self.outputs:
            if not 0 <= line < self.width:
                raise LineIndexError(f"output {name!r} on missing line {line}")
            if line in named_lines:
                raise DesignationError(f"line {line} designated twice")
            named_lines.add(line)
        for line in self.restored:
            if not 0 <= line < self.width:
                raise LineIndexError(f"restored line {line} out of range")
            if not self.roles[line].is_input:
                raise DesignationError(
                    f"restored line {line} is not a primary input"
                )
            if line in named_lines:
                raise DesignationError(
                    f"line {line} cannot be both a named output and restored"
                )

    # -- derived views ---------------------------------------------------

    @property
    def output_map(self) -> dict[str, int]:
        return dict(self.outputs)

    def input_lines(self) -> list[int]:
        return [i for i, r in enumerate(self.roles) if r.is_input]

    def const_lines(self) -> list[int]:
        return [i for i, r in enumerate(self.roles) if not r.is_input]

    def label_map(self) -> dict[str, int]:
        """Input label -> line index."""
        return {r.label: i for i, r in enumerate(self.roles) if r.is_input}

    def garbage_lines(self) -> list[int]:
        """Terminal lines that are neither named outputs nor restored inputs."""
        named = {line for _, line in self.outputs}
        return [
            i
            for i in range(self.width)
            if i not in named and i not in self.restored
        ]

    def line_by_const_label(self, label: str) -> int:
        for i, r in enumerate(self.roles):
            if not r.is_input and r.label == label:
                return i
        raise LineIndexError(f"no constant line labelled {label!r}")


# -- building operations ---------------------------------------------------


def new_netlist(width: int, roles: Iterable[LineRole]) -> Netlist:
    """Create an empty netlist; `roles` must supply one role per line."""
    return Netlist(width=width, roles=tuple(roles))


def append_gate(
    netlist: Netlist,
    kind: GateKind,
    pins: Iterable[int],
    stage: str | None = None,
) -> Netlist:
    """Return a new netlist with one gate appended at the end."""
    g = GateInstance(kind, tuple(pins), stage)
    return replace(netlist, gates=netlist.gates + (g,))


def designate_outputs(
    netlist: Netlist,
    names: Mapping[str, int],
    restored: Iterable[int] = (),
) -> Netlist:
    """Return a new netlist with named outputs and restored inputs recorded.

    Terminal lines that end up in neither set are garbage.  Restored
    designations are structural claims here; the simulator verifies them
    on every run (SimulationResult.restored_ok) and the verify suite
    checks them over the input domain.
    """
    return replace(
        netlist,
        outputs=tuple((str(k), int(v)) for k, v in names.items()),
        restored=frozenset(int(x) for x in restored),
    )


# -- serialization ----------------------------------------------------------
#
# Text format (UTF-8 JSON).  Normative fields:
#   width     integer line count
#   lines     array of {index, role: "input"|"const0"|"const1", label}
#   gates     array of {kind, pins: [int,...]} applied in array order;
#             optional "stage" tag per gate
#   outputs   array of {name, line}
#   restored  array of line indices
# Serialization is deterministic: same netlist, byte-identical output.


def serialize(netlist: Netlist) -> str:
    doc = {
        "width": netlist.width,
        "lines": [
            {"index": i, "role": r.kind, "label": r.label}
            for i, r in enumerate(netlist.roles)
        ],
        "gates": [
            {"kind": g.kind.value, "pins": list(g.pins), "stage": g.stage}
            for g in netlist.gates
        ],
        "outputs": [{"name": n, "line": l} for n, l in netlist.outputs],
        "restored": sorted(netlist.restored),
    }
    return json.dumps(doc, indent=2) + "\n"


def _require(doc, key: str, where: str):
    if not isinstance(doc, dict):
        raise NetlistFormatError(f"{where}: must be an object")
    if key not in doc:
        raise NetlistFormatError(f"{where}: missing field {key!r}")
    return doc[key]


def _require_list(doc: Mapping, key: str) -> list:
    value = _require(doc, key, "document")
    if not isinstance(value, list):
        raise NetlistFormatError(f"{key} must be an array")
    return value


def deserialize(text: str) -> Netlist:
    """Parse the text format back into a netlist; inverse of serialize."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise NetlistFormatError(
            f"not valid JSON (line {exc.lineno}, column {exc.colno}): {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise NetlistFormatError("document root must be an object")

    width = _require(doc, "width", "document")
    if type(width) is not int or width < 1:
        raise NetlistFormatError(f"width must be a positive integer, got {width!r}")

    entries = _require_list(doc, "lines")
    # Every line needs an entry, so the document's own size bounds the
    # allocation below.
    if len(entries) != width:
        raise NetlistFormatError(f"lines: {len(entries)} entries for width {width}")
    roles: list[tuple | None] = [None] * width
    for pos, entry in enumerate(entries):
        where = f"lines[{pos}]"
        idx = _require(entry, "index", where)
        role = _require(entry, "role", where)
        label = entry.get("label")
        if type(idx) is not int or not 0 <= idx < width:
            raise NetlistFormatError(f"{where}: index {idx!r} outside 0..{width - 1}")
        if roles[idx] is not None:
            raise NetlistFormatError(f"{where}: line {idx} defined twice")
        if role not in _ROLES:
            raise NetlistFormatError(f"{where}: unknown role {role!r}")
        if label is not None and not isinstance(label, str):
            raise NetlistFormatError(f"{where}: label must be a string")
        roles[idx] = (role, label)

    gates = []
    for pos, entry in enumerate(_require_list(doc, "gates")):
        where = f"gates[{pos}]"
        kind_name = _require(entry, "kind", where)
        pins = _require(entry, "pins", where)
        stage = entry.get("stage")
        try:
            kind = GateKind(kind_name)
        except ValueError:
            raise NetlistFormatError(f"{where}: unknown gate kind {kind_name!r}")
        if not isinstance(pins, list) or not all(type(p) is int for p in pins):
            raise NetlistFormatError(f"{where}: pins must be a list of integers")
        for p in pins:
            if not 0 <= p < width:
                raise NetlistFormatError(
                    f"{where}: pin {p} outside 0..{width - 1}"
                )
        if stage is not None and not isinstance(stage, str):
            raise NetlistFormatError(f"{where}: stage must be a string")
        try:
            gates.append(GateInstance(kind, tuple(pins), stage))
        except (FanInError, ValueError) as exc:
            raise NetlistFormatError(f"{where}: {exc}") from exc

    outputs = []
    for pos, entry in enumerate(_require_list(doc, "outputs")):
        where = f"outputs[{pos}]"
        name = _require(entry, "name", where)
        line = _require(entry, "line", where)
        if not isinstance(name, str):
            raise NetlistFormatError(f"{where}: name must be a string")
        if type(line) is not int or not 0 <= line < width:
            raise NetlistFormatError(f"{where}: line {line!r} outside 0..{width - 1}")
        outputs.append((name, line))

    restored = _require_list(doc, "restored")
    if not all(type(x) is int for x in restored):
        raise NetlistFormatError("restored must be a list of line indices")

    try:
        return Netlist(
            width=width,
            roles=tuple(LineRole(kind, label) for kind, label in roles),
            gates=tuple(gates),
            outputs=tuple(outputs),
            restored=frozenset(restored),
        )
    except (DesignationError, InvalidArgumentError, LineIndexError) as exc:
        raise NetlistFormatError(str(exc)) from exc
