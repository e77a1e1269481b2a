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

Netlists are immutable.  Lines and gates are plain records; every rule of
a netlist, value types included, is written once, in `Netlist.validate`,
which runs when a netlist is made.  So every netlist serializes to a
document that `deserialize` reads back equal.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, repeat
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
    RevbcdError,
)
from .gates import ALL_KINDS, GateKind, arity

ROLE_INPUT = "input"
ROLE_CONST0 = "const0"
ROLE_CONST1 = "const1"
_ROLES = (ROLE_INPUT, ROLE_CONST0, ROLE_CONST1)
_ARITY = {kind: arity(kind) for kind in ALL_KINDS}
# `_INT.issuperset(map(type, xs))`: every x is an int, and none a bool.
_INT = frozenset((int,))
_TUPLE = frozenset((tuple,))
_STR_OR_NONE = frozenset((str, type(None)))
_FIRST, _SECOND, _THIRD = itemgetter(0), itemgetter(1), itemgetter(2)


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


# Gates of exactly this type are checked column by column.
_GATE = frozenset((GateInstance,))
# A record made in C from one ready (kind, pins, stage) or (kind, label)
# tuple, without the NamedTuple constructor's Python frame: for code that
# makes records in bulk.
gate_record = partial(tuple.__new__, GateInstance)
role_record = partial(tuple.__new__, LineRole)


@dataclass(frozen=True)
class Netlist:
    """Immutable reversible netlist over `width` indexed lines."""

    width: int
    roles: tuple[LineRole, ...]
    gates: tuple[GateInstance, ...] = ()
    outputs: tuple[tuple[str, int], ...] = ()
    restored: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self):
        roles = _records_of(LineRole, _collection(self.roles, "roles"))
        object.__setattr__(self, "roles", roles)
        gates = _records_of(GateInstance, _collection(self.gates, "gates"))
        object.__setattr__(self, "gates", gates)
        outputs = tuple(map(_pair, _collection(self.outputs, "outputs")))
        object.__setattr__(self, "outputs", outputs)
        object.__setattr__(self, "restored", _collection(self.restored, "restored"))
        self.validate()
        object.__setattr__(self, "restored", frozenset(self.restored))

    # -- validation -----------------------------------------------------

    def validate(self) -> None:
        """Check every netlist rule, value types included; raises a
        RevbcdError subclass naming the first violation.

        Width: an int (not a bool) of at least 1, with one role per line.
        Lines: a (kind, label) record with a known role and a label that
        is a str or None; a non-empty unique label on every input, unique
        constant labels.  Gates: a (kind, pins, stage) record of a known
        kind whose pins are a tuple of as many distinct existing lines as
        its arity, each an int (not a bool); a stage that is a str or
        None.  Outputs: (name, line) pairs, unique str names on int
        lines.  Restored lines: ints.  Both on existing lines, each line
        designated once, restored lines primary inputs that are not also
        named outputs.

        Gates are checked column by column: each rule over all gates at
        once.  Only when a column check fails does a loop over the gates
        run, to name the gate at fault.
        """
        width = self.width
        if type(width) is not int or width < 1:
            raise InvalidArgumentError(f"width must be a positive int, got {width!r}")
        if len(self.roles) != width:
            raise InvalidArgumentError(f"{len(self.roles)} lines for width {width}")
        input_labels: set[str] = set()
        const_labels: set[str] = set()
        for i, role in enumerate(self.roles):
            try:
                kind, label = role
            except (TypeError, ValueError):
                raise InvalidArgumentError(
                    f"line {i}: {role!r} is not a (kind, label) record"
                ) from None
            if label is not None and type(label) is not str:
                raise InvalidArgumentError(f"line {i}: label {label!r} must be a str")
            if kind == ROLE_INPUT:
                if not label:
                    raise InvalidArgumentError(f"line {i}: an input needs a label")
                if label in input_labels:
                    raise InvalidArgumentError(f"line {i}: duplicate input label")
                input_labels.add(label)
            elif kind == ROLE_CONST0 or kind == ROLE_CONST1:
                if label and label in const_labels:
                    raise InvalidArgumentError(f"line {i}: duplicate constant label")
                const_labels.add(label)
            else:
                raise InvalidArgumentError(f"line {i}: unknown role {kind!r}")
        if not _gates_hold(self.gates, width):
            _name_bad_gate(self.gates, width)
        names: set[str] = set()
        named_lines: set[int] = set()
        for i, output in enumerate(self.outputs):
            try:
                name, line = output
            except (TypeError, ValueError):
                raise InvalidArgumentError(
                    f"outputs[{i}]: {output!r} is not a (name, line) pair"
                ) from None
            if type(name) is not str or type(line) is not int:
                raise InvalidArgumentError(
                    f"output {name!r} on line {line!r}: need a str name, an int line"
                )
            if name in names:
                raise DesignationError(f"output name {name!r} used twice")
            if not 0 <= line < width:
                raise LineIndexError(f"output {name!r} on missing line {line}")
            if line in named_lines:
                raise DesignationError(f"line {line} designated twice")
            names.add(name)
            named_lines.add(line)
        for line in self.restored:
            if type(line) is not int:
                raise InvalidArgumentError(f"restored line {line!r} must be an int")
            if not 0 <= line < width:
                raise LineIndexError(f"restored line {line} out of range")
            if self.roles[line][0] != ROLE_INPUT:
                raise DesignationError(f"restored line {line} is not a primary input")
            if line in named_lines:
                raise DesignationError(f"restored line {line} is also a named output")

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


def _collection(value, what: str) -> tuple:
    """`value` as a tuple; a value that is not iterable is a typed error."""
    try:
        return tuple(value)
    except TypeError:
        raise InvalidArgumentError(f"{what} must be iterable, got {value!r}") from None


def _records_of(cls, items: tuple) -> tuple:
    """`items` with each entry that unpacks into a `cls` record made one.

    Built and parsed netlists hold only records and pass unchanged; an
    entry that is no record of the right length stays as it is, so
    `Netlist.validate` names it.
    """
    if frozenset((cls,)).issuperset(map(type, items)):
        return items
    records = []
    for item in items:
        try:
            records.append(item if type(item) is cls else cls._make(item))
        except TypeError:
            records.append(item)
    return tuple(records)


def _pair(output):
    """An output entry as a tuple, or as is when it is not iterable, so
    `Netlist.validate` names it."""
    try:
        return tuple(output)
    except TypeError:
        return output


def _gates_hold(gates: tuple, width: int) -> bool:
    """Every gate rule of `Netlist.validate`, over whole columns: arity,
    pin-tuple type, distinct pins, int pins, pin range and stage type."""
    if not _GATE.issuperset(map(type, gates)):
        return False
    pins = list(map(_SECOND, gates))
    try:
        wants = list(map(_ARITY.__getitem__, map(_FIRST, gates)))
        distinct = list(map(len, map(set, pins)))
    except (KeyError, TypeError):
        return False
    if not _TUPLE.issuperset(map(type, pins)) or distinct != wants:
        return False
    if list(map(len, pins)) != wants:
        return False
    flat = list(chain.from_iterable(pins))
    if not _INT.issuperset(map(type, flat)):
        return False
    if flat and (min(flat) < 0 or max(flat) >= width):
        return False
    return _STR_OR_NONE.issuperset(map(type, map(_THIRD, gates)))


def _name_bad_gate(gates: tuple, width: int) -> None:
    """Raise the error of the first gate that breaks a rule: the
    structural rules gate by gate, then the pin types, then the stages."""
    lines = frozenset(range(width))
    for i, gate in enumerate(gates):
        try:
            kind, pins, _ = gate
        except (TypeError, ValueError):
            raise InvalidArgumentError(
                f"gates[{i}]: {gate!r} is not a (kind, pins, stage) record"
            ) from None
        try:
            want = _ARITY.get(kind)
            if want is None:
                raise InvalidArgumentError(f"gates[{i}]: unknown kind {kind!r}")
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
        except TypeError:
            raise InvalidArgumentError(f"gates[{i}]: unhashable kind or pin") from None
    for i, (_, pins, _) in enumerate(gates):
        if {*map(type, pins)} - _INT:
            raise InvalidArgumentError(f"gates[{i}]: pins {pins} must be ints")
    for i, (_, _, stage) in enumerate(gates):
        if type(stage) not in _STR_OR_NONE:
            raise InvalidArgumentError(f"gates[{i}]: stage {stage!r} not a str")


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


def _scalar(value: str | None) -> str:
    """JSON text of a label, stage or name, as json.dumps writes it."""
    return "null" if value is None else encode_basestring_ascii(value)


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
_INDEX, _ROLE, _KIND, _PINS = map(itemgetter, ("index", "role", "kind", "pins"))
_LIST = frozenset((list,))


def _lines(entries: list) -> list[LineRole]:
    """Each entry's role, placed by its index.  The indices must be ints
    equal to range(count) once sorted; a loop over the entries runs only
    when that or a field lookup fails, to name the first bad entry."""
    count = len(entries)
    try:
        indices = list(map(_INDEX, entries))
        if _INT.issuperset(map(type, indices)) and sorted(indices) == [*range(count)]:
            placed = sorted(entries, key=_INDEX)
            labels = map(dict.get, placed, repeat("label"))
            return list(map(role_record, zip(map(_ROLE, placed), labels)))
    except (KeyError, TypeError):
        pass
    # Sized by the entries, so the document's own size bounds the
    # allocation; validate compares their count with `width`.
    roles: list[LineRole | None] = [None] * count
    for pos, entry, (idx, role) in _records(entries, "lines", ("index", "role")):
        if type(idx) is not int or not 0 <= idx < count:
            raise NetlistFormatError(
                f"lines[{pos}]: index {idx!r} outside 0..{count - 1}"
            )
        if roles[idx] is not None:
            raise NetlistFormatError(f"lines[{pos}]: line {idx} defined twice")
        roles[idx] = LineRole(role, entry.get("label"))
    return roles


def _gates(entries: list) -> list[GateInstance]:
    """Each entry as a gate, made column by column; a loop over the
    entries runs only when a column fails, to name the first bad entry."""
    try:
        kinds = list(map(_KIND_BY_NAME.get, map(_KIND, entries)))
        pins = list(map(_PINS, entries))
    except (KeyError, TypeError):
        pass
    else:
        if None not in kinds and _LIST.issuperset(map(type, pins)):
            stages = map(dict.get, entries, repeat("stage"))
            return list(map(gate_record, zip(kinds, map(tuple, pins), stages)))
    gates = []
    for pos, entry, (kind_name, pins) in _records(entries, "gates", ("kind", "pins")):
        kind = _KIND_BY_NAME.get(kind_name) if type(kind_name) is str else None
        if kind is None:
            raise NetlistFormatError(f"gates[{pos}]: unknown gate kind {kind_name!r}")
        if type(pins) is not list:
            raise NetlistFormatError(f"gates[{pos}]: pins must be an array")
        gates.append(GateInstance(kind, tuple(pins), entry.get("stage")))
    return gates


def deserialize(text: str) -> Netlist:
    """Parse the text format back into a netlist; inverse of serialize.

    Maps the document to records and checks only what a record cannot
    hold: the JSON syntax, the shape of each object, each line placed once
    by its `index`, and gate kind names.  The lines and gates are mapped
    column by column; only when a column fails does a loop over the
    entries run, to name the first bad entry.  Every netlist rule, value types included,
    is left to `Netlist.validate`, whose errors come back as
    NetlistFormatError.
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
    roles = _lines(_require_list(doc, "lines"))
    gates = _gates(_require_list(doc, "gates"))
    output_entries = _require_list(doc, "outputs")
    outputs = [o for _, _, o in _records(output_entries, "outputs", ("name", "line"))]
    restored = _require_list(doc, "restored")

    try:
        return Netlist(width, tuple(roles), tuple(gates), tuple(outputs), restored)
    except RevbcdError as exc:
        raise NetlistFormatError(str(exc)) from exc
