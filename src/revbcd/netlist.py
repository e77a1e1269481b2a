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

Netlists are immutable.  Lines and gates are plain records; every
structural rule is checked once, in one pass of `Netlist.validate`, when a
netlist is made.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import Mapping, NamedTuple

from .errors import (
    ArityError,
    DesignationError,
    FanInError,
    InvalidArgumentError,
    LineIndexError,
    NetlistFormatError,
)
from .gates import ALL_KINDS, GateKind, arity

ROLE_INPUT = "input"
ROLE_CONST0 = "const0"
ROLE_CONST1 = "const1"
_ROLES = (ROLE_INPUT, ROLE_CONST0, ROLE_CONST1)
_ARITY = {kind: arity(kind) for kind in ALL_KINDS}


class LineRole(NamedTuple):
    """Role of one line: labelled primary input, or constant 0/1.

    Constants may carry an informational label for debugging; only input
    labels participate in input assignment.
    """

    kind: str
    label: str | None = None

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


class GateInstance(NamedTuple):
    """One placed gate: a kind plus the ordered lines (a tuple) it acts on.

    The optional stage tag groups gates for per-stage metric reporting.
    """

    kind: GateKind
    pins: tuple[int, ...]
    stage: str | None = None


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
        """Check every structural rule once; raises on the first violation.

        Lines: a known role, a non-empty unique label on every input, unique
        constant labels.  Gates: a known kind whose pins are a tuple of as
        many distinct existing lines as its arity.  Outputs and restored
        lines: on existing lines, each line designated once, restored
        lines primary inputs that are not also named outputs.
        """
        width = self.width
        if width < 1:
            raise InvalidArgumentError("netlist width must be positive")
        if len(self.roles) != width:
            raise InvalidArgumentError(f"{len(self.roles)} roles for width {width}")
        input_labels: set[str] = set()
        const_labels: set[str] = set()
        for kind, label in self.roles:
            if kind == ROLE_INPUT:
                if not label:
                    raise InvalidArgumentError("primary input lines need a label")
                if label in input_labels:
                    raise InvalidArgumentError("duplicate input labels")
                input_labels.add(label)
            elif kind == ROLE_CONST0 or kind == ROLE_CONST1:
                if label:
                    if label in const_labels:
                        raise InvalidArgumentError("duplicate constant labels")
                    const_labels.add(label)
            else:
                raise InvalidArgumentError(f"unknown line role {kind!r}")
        lines = frozenset(range(width))
        for i, (kind, pins, _) in enumerate(self.gates):
            want = _ARITY.get(kind)
            if want is None:
                raise InvalidArgumentError(f"gates[{i}]: unknown gate kind {kind!r}")
            if type(pins) is not tuple:
                raise InvalidArgumentError(f"gates[{i}]: pins must be a tuple")
            if len(pins) != want:
                raise ArityError(
                    f"gates[{i}]: {kind} takes {want} pins, got {len(pins)}"
                )
            used = set(pins)
            if len(used) != want:
                raise FanInError(f"gates[{i}]: {kind} pins {pins} repeat a line")
            if not used <= lines:
                bad = next(p for p in pins if p not in lines)
                raise LineIndexError(f"gates[{i}]: pin {bad} outside 0..{width - 1}")
        names = [n for n, _ in self.outputs]
        if len(names) != len(set(names)):
            raise DesignationError("output names must be unique")
        named_lines = set()
        for name, line in self.outputs:
            if not 0 <= line < width:
                raise LineIndexError(f"output {name!r} on missing line {line}")
            if line in named_lines:
                raise DesignationError(f"line {line} designated twice")
            named_lines.add(line)
        for line in self.restored:
            if not 0 <= line < width:
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
        return [i for i, r in enumerate(self.roles) if r.kind == ROLE_INPUT]

    def const_lines(self) -> list[int]:
        return [i for i, r in enumerate(self.roles) if r.kind != ROLE_INPUT]

    def label_map(self) -> dict[str, int]:
        """Input label -> line index."""
        return {r.label: i for i, r in enumerate(self.roles) if r.kind == ROLE_INPUT}

    def garbage_lines(self) -> list[int]:
        """Terminal lines that are neither named outputs nor restored inputs."""
        named = {line for _, line in self.outputs}
        return [
            i
            for i in range(self.width)
            if i not in named and i not in self.restored
        ]


# -- serialization ----------------------------------------------------------
#
# Text format (UTF-8 JSON).  Normative fields:
#   width     integer line count
#   lines     array of {index, role: "input"|"const0"|"const1", label}
#   gates     array of {kind, pins: [int,...]} applied in array order;
#             optional "stage" tag per gate
#   outputs   array of {name, line}
#   restored  array of line indices
# Serialization is deterministic: same netlist, byte-identical output.  The
# layout is exactly json.dumps(document, indent=2) plus a newline, with the
# keys in the order above; serialize writes that text directly, because
# json's indent mode always runs its pure-Python encoder.


def _scalar(value) -> str:
    """JSON text of a label, stage or name, as json.dumps writes it."""
    if value is None:
        return "null"
    if type(value) is str:
        return encode_basestring_ascii(value)
    return json.dumps(value)


_KIND_TEXT = {kind: _scalar(kind.value) for kind in GateKind}
_ROLE_TEXT = {role: _scalar(role) for role in _ROLES}


def _array(key: str, items: list[str]) -> str:
    """One top-level array member; `items` are its indented elements."""
    if not items:
        return f'  "{key}": []'
    body = ",\n".join(items)
    return f'  "{key}": [\n{body}\n  ]'


def serialize(netlist: Netlist) -> str:
    lines = [
        f'    {{\n      "index": {i},\n      "role": {_ROLE_TEXT[kind]},'
        f'\n      "label": {_scalar(label)}\n    }}'
        for i, (kind, label) in enumerate(netlist.roles)
    ]
    stages = {None: "null"}
    gates = []
    for kind, pins, stage in netlist.gates:
        stage_text = stages.get(stage) or stages.setdefault(stage, _scalar(stage))
        pin_text = ",\n        ".join(map(str, pins))
        gates.append(
            f'    {{\n      "kind": {_KIND_TEXT[kind]},\n      "pins": [\n'
            f"        {pin_text}\n      ],\n      \"stage\": {stage_text}\n    }}"
        )
    outputs = [
        f'    {{\n      "name": {_scalar(name)},\n      "line": {line}\n    }}'
        for name, line in netlist.outputs
    ]
    restored = [f"    {line}" for line in sorted(netlist.restored)]
    members = (
        f'  "width": {netlist.width}',
        _array("lines", lines),
        _array("gates", gates),
        _array("outputs", outputs),
        _array("restored", restored),
    )
    return "{\n" + ",\n".join(members) + "\n}\n"


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


def _records(entries: list, key: str, fields: tuple[str, ...]):
    """Yield (position, entry, its required `fields`) for the array `key`.

    A non-object entry or a missing field is a NetlistFormatError that
    names the entry.
    """
    get = itemgetter(*fields)
    for pos, entry in enumerate(entries):
        try:
            values = get(entry)
        except (KeyError, TypeError):
            values = tuple(_require(entry, f, f"{key}[{pos}]") for f in fields)
        yield pos, entry, values


_KIND_BY_NAME = {kind.value: kind for kind in GateKind}
# `_INT.issuperset(map(type, xs))`: every x is an int, and none a bool.
_INT = frozenset((int,))


def deserialize(text: str) -> Netlist:
    """Parse the text format back into a netlist; inverse of serialize.

    Checks the JSON types and the role and gate kind names here; every
    structural rule is left to `Netlist.validate`, whose errors come back
    as NetlistFormatError.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise NetlistFormatError(
            f"not valid JSON (line {exc.lineno}, column {exc.colno}): {exc.msg}"
        ) from exc
    except ValueError as exc:  # CPython's int<->str digit limit
        raise NetlistFormatError(
            f"JSON integer longer than {sys.get_int_max_str_digits()} digits"
        ) from exc
    except RecursionError as exc:
        raise NetlistFormatError("JSON nested too deeply to parse") from exc
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
    roles: list[LineRole | None] = [None] * width
    for pos, entry, (idx, role) in _records(entries, "lines", ("index", "role")):
        label = entry.get("label")
        if type(idx) is not int or not 0 <= idx < width:
            raise NetlistFormatError(
                f"lines[{pos}]: index {idx!r} outside 0..{width - 1}"
            )
        if roles[idx] is not None:
            raise NetlistFormatError(f"lines[{pos}]: line {idx} defined twice")
        if role not in _ROLES:
            raise NetlistFormatError(f"lines[{pos}]: unknown role {role!r}")
        if label is not None and type(label) is not str:
            raise NetlistFormatError(f"lines[{pos}]: label must be a string")
        roles[idx] = LineRole(role, label)

    gates = []
    gate_entries = _require_list(doc, "gates")
    for pos, entry, (kind_name, pins) in _records(
        gate_entries, "gates", ("kind", "pins")
    ):
        stage = entry.get("stage")
        kind = _KIND_BY_NAME.get(kind_name) if type(kind_name) is str else None
        if kind is None:
            raise NetlistFormatError(f"gates[{pos}]: unknown gate kind {kind_name!r}")
        if type(pins) is not list or not _INT.issuperset(map(type, pins)):
            raise NetlistFormatError(f"gates[{pos}]: pins must be a list of integers")
        if stage is not None and type(stage) is not str:
            raise NetlistFormatError(f"gates[{pos}]: stage must be a string")
        gates.append(GateInstance(kind, tuple(pins), stage))

    outputs = []
    output_entries = _require_list(doc, "outputs")
    for pos, _, (name, line) in _records(output_entries, "outputs", ("name", "line")):
        if type(name) is not str:
            raise NetlistFormatError(f"outputs[{pos}]: name must be a string")
        if type(line) is not int:
            raise NetlistFormatError(f"outputs[{pos}]: line {line!r} is not an integer")
        outputs.append((name, line))

    restored = _require_list(doc, "restored")
    if not _INT.issuperset(map(type, restored)):
        raise NetlistFormatError("restored must be a list of line indices")

    try:
        return Netlist(
            width=width,
            roles=tuple(roles),
            gates=tuple(gates),
            outputs=tuple(outputs),
            restored=frozenset(restored),
        )
    except (
        ArityError,
        DesignationError,
        FanInError,
        InvalidArgumentError,
        LineIndexError,
    ) as exc:
        raise NetlistFormatError(str(exc)) from exc
