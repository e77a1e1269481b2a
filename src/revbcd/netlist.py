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

Netlists are immutable.  Lines, gates and outputs are plain records.
Making a netlist first makes each entry its record, in one step that
names an entry of the wrong shape; then `Netlist.validate` checks every
rule of a netlist, value types included, on the records.  Each rule is
written there only.  So every netlist serializes to a document that
`deserialize` reads back equal.
"""

from __future__ import annotations

import json
import sys
from contextlib import suppress
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import Iterable, Mapping, NamedTuple

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


# A record made in C from one ready (kind, pins, stage) or (kind, label)
# tuple, without the NamedTuple constructor's Python frame: for code that
# makes records in bulk.
gate_record = partial(tuple.__new__, GateInstance)
role_record = partial(tuple.__new__, LineRole)


class _Output(NamedTuple):
    """One named output: a (name, line) pair."""

    name: str
    line: int


# The error for an entry that is no record, given its position and itself.
_BAD_ROLE = "line {}: {!r} is not a (kind, label) record".format
_BAD_GATE = "gates[{}]: {!r} is not a (kind, pins, stage) record".format


def _bad_output(i: int, output) -> str:
    """The error for an output entry that is no pair; an entry that
    iterates is shown as the tuple it was read as."""
    with suppress(TypeError):
        output = tuple(output)
    return f"outputs[{i}]: {output!r} is not a (name, line) pair"


@dataclass(frozen=True)
class Netlist:
    """Immutable reversible netlist over `width` indexed lines."""

    width: int
    roles: tuple[LineRole, ...]
    gates: tuple[GateInstance, ...] = ()
    outputs: tuple[tuple[str, int], ...] = ()
    restored: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self):
        put = partial(object.__setattr__, self)
        put("roles", _as_records(self.roles, "roles", LineRole, _BAD_ROLE))
        put("gates", _as_records(self.gates, "gates", GateInstance, _BAD_GATE))
        put("outputs", _as_records(self.outputs, "outputs", _Output, _bad_output))
        put("restored", _as_records(self.restored, "restored"))
        self.validate()
        put("restored", frozenset(self.restored))

    # -- validation -----------------------------------------------------

    def validate(self) -> None:
        """Check every netlist rule on the records, value types included;
        raises a RevbcdError subclass naming the first violation.

        The constructor has made every line, gate and output its record
        by then, and named any entry of the wrong shape.  Width: an int
        (not a bool) of at least 1, with one role per line.  Lines: a
        known role and a label that is a str or None; a non-empty unique
        label on every input, unique constant labels.  Gates: a known
        kind whose pins are a tuple of as many distinct existing lines as
        its arity, each an int (not a bool); a stage that is a str or
        None.  Outputs: unique str names on int lines.  Restored lines:
        ints.  Both on existing lines, each line designated once,
        restored lines primary inputs that are not also named outputs.

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
        for i, (kind, label) in enumerate(self.roles):
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
        for name, line in self.outputs:
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


def _as_records(value, field: str, record=None, bad=None) -> tuple:
    """`value` as a tuple, each entry made a `record` when one is given.

    A value that is not iterable, or an entry that does not unpack into
    the record's fields, is a typed error: `bad(position, entry)` is its
    message.  A tuple of records passes unchanged.
    """
    try:
        items = tuple(value)
    except TypeError:
        raise InvalidArgumentError(f"{field} must be iterable, got {value!r}") from None
    if record is None or frozenset((record,)).issuperset(map(type, items)):
        return items
    records = []
    for i, item in enumerate(items):
        try:
            records.append(item if type(item) is record else record._make(item))
        except TypeError:
            raise InvalidArgumentError(bad(i, item)) from None
    return tuple(records)


def _gates_hold(gates: tuple, width: int) -> bool:
    """Every gate rule of `Netlist.validate`, over whole columns: arity,
    pin-tuple type, distinct pins, int pins, pin range and stage type."""
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
    for i, (kind, pins, _) in enumerate(gates):
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


_ROLE_TEXT = {role: _scalar(role) for role in _ROLES}
# A gate's text is three pieces: this head, shared by every gate of its
# kind, its pin numbers, and a tail shared by every gate of its stage.
_GATE_HEAD = {
    kind: f',\n    {{\n      "kind": {_scalar(kind.value)},\n      "pins": [\n        '
    for kind in GateKind
}


def _array(parts: list[str], key: str, pieces: Iterable[str]) -> None:
    """Append the top-level array member `key` to `parts`.  `pieces` is
    its elements' text, each element starting with a ",\n" piece, so the
    first loses its comma."""
    parts.append(f',\n  "{key}": [')
    start = len(parts)
    parts.extend(pieces)
    if len(parts) == start:
        parts.append("]")
    else:
        parts[start] = parts[start][1:]
        parts.append("\n  ]")


def serialize(netlist: Netlist) -> str:
    # One join over all the pieces, so the text is copied once, and the
    # pieces shared between gates keep the list well below the text's size.
    lines = [
        f',\n    {{\n      "index": {i},\n      "role": {_ROLE_TEXT[kind]},'
        f'\n      "label": {_scalar(label)}\n    }}'
        for i, (kind, label) in enumerate(netlist.roles)
    ]
    tails: dict[str | None, str] = {}
    gates = chain.from_iterable(
        (
            _GATE_HEAD[kind],
            ",\n        ".join(map(str, pins)),
            tails.get(stage)
            or tails.setdefault(
                stage, f'\n      ],\n      "stage": {_scalar(stage)}\n    }}'
            ),
        )
        for kind, pins, stage in netlist.gates
    )
    outputs = [
        f',\n    {{\n      "name": {_scalar(name)},\n      "line": {line}\n    }}'
        for name, line in netlist.outputs
    ]
    restored = [f",\n    {line}" for line in sorted(netlist.restored)]
    parts = ["{\n", f'  "width": {netlist.width}']
    _array(parts, "lines", lines)
    _array(parts, "gates", gates)
    _array(parts, "outputs", outputs)
    _array(parts, "restored", restored)
    parts.append("\n}\n")
    return "".join(parts)


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
