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

Netlists are immutable, and hold columns: the lines' role kinds and
labels, the gates' kinds, pins (each gate's a tuple of ints) and stages,
the outputs' names and lines, and the restored lines.  `roles`, `gates`
and `outputs` are read-only sequence views over those columns, which
make each line, gate or output record on access and cache nothing.  The
adder builders and `deserialize` hand their columns straight in; lines,
gates and outputs given as records are transposed into the same columns,
in one step that names an entry of the wrong shape.  Then
`Netlist.validate` checks every rule of a netlist, value types included,
on the columns.  Each rule is written once, there, as a column over the
entries that also names the first entry at fault (`_check`).  So every
netlist serializes to a document that `deserialize` reads back equal.
"""

from __future__ import annotations

import json
import sys
from collections.abc import Iterable, Mapping, Sequence
from contextlib import suppress
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, count, filterfalse, repeat
from json.encoder import encode_basestring_ascii
from operator import and_, eq, itemgetter, not_, or_
from typing import NamedTuple

from .errors import (
    ArityError,
    DesignationError,
    FanInError,
    InvalidArgumentError,
    LineIndexError,
    NetlistFormatError,
    RevbcdError,
)
from .gates import ALL_KINDS, GateKind, arity, undo_steps

ROLE_INPUT = "input"
ROLE_CONST0 = "const0"
ROLE_CONST1 = "const1"
_ROLES = (ROLE_INPUT, ROLE_CONST0, ROLE_CONST1)
_ROLE_SET = frozenset(_ROLES)
_INPUT = frozenset((ROLE_INPUT,))
_ARITY = {kind: arity(kind) for kind in ALL_KINDS}
# `_INT.issuperset(map(type, xs))`: every x is an int, and none a bool.
_INT = frozenset((int,))
_TUPLE = frozenset((tuple,))
_STR = frozenset((str,))
_STR_OR_NONE = frozenset((str, type(None)))
# True when every item of an iterable is hashable; a TypeError otherwise.
_HASHABLE = frozenset().isdisjoint


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


class _Output(NamedTuple):
    """One named output: a (name, line) pair."""

    name: str
    line: int


class _Records(Sequence):
    """A read-only sequence of records kept as columns: one tuple per
    record field, all of one length, in the slots a subclass names.
    Indexing or iterating makes each record on access, in C from its
    fields (`_make`, `tuple.__new__` of the record type), and nothing is
    cached.  A view equals a view or tuple of equal records, as a tuple
    of its records would."""

    __slots__ = ()

    def __init__(self, *columns):
        columns = tuple(map(tuple, columns))
        if len(columns) != len(self.__slots__) or len(set(map(len, columns))) > 1:
            raise InvalidArgumentError(
                f"{type(self).__name__} takes {len(self.__slots__)} columns "
                "of one length"
            )
        for name, column in zip(self.__slots__, columns):
            object.__setattr__(self, name, column)

    @property
    def columns(self) -> tuple[tuple, ...]:
        return tuple(map(self.__getattribute__, self.__slots__))

    def __len__(self) -> int:
        return len(getattr(self, self.__slots__[0]))

    def __getitem__(self, at):
        fields = [column[at] for column in self.columns]
        if isinstance(at, slice):
            return tuple(map(self._make, zip(*fields)))
        return self._make(fields)

    def __iter__(self):
        return map(self._make, zip(*self.columns))

    def __eq__(self, other):
        if type(other) is type(self):
            return self.columns == other.columns
        if isinstance(other, (_Records, tuple)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __repr__(self) -> str:
        return repr(tuple(self))

    def __reduce__(self):
        return type(self), self.columns

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is read-only")

    __delattr__ = __setattr__


class RoleColumns(_Records):
    """A netlist's lines, in line order: role kinds and labels."""

    __slots__ = ("kinds", "labels")
    _make = partial(tuple.__new__, LineRole)


class GateColumns(_Records):
    """A netlist's gates, in order: kinds, pins (each gate's a tuple of
    lines) and stages."""

    __slots__ = ("kinds", "pins", "stages")
    _make = partial(tuple.__new__, GateInstance)


class OutputColumns(_Records):
    """A netlist's named outputs: names and lines."""

    __slots__ = ("names", "lines")
    _make = partial(tuple.__new__, _Output)


# The error for an entry that is no record, given its position and itself.
_BAD_ROLE = "line {}: {!r} is not a (kind, label) record".format
_BAD_GATE = "gates[{}]: {!r} is not a (kind, pins, stage) record".format


def _bad_output(i: int, output) -> str:
    """The error for an output entry that is no pair; an entry that
    iterates is shown as the tuple it was read as."""
    with suppress(TypeError):
        output = tuple(output)
    return f"outputs[{i}]: {output!r} is not a (name, line) pair"


@dataclass(frozen=True, eq=False)
class Netlist:
    """Immutable reversible netlist over `width` indexed lines.

    `roles`, `gates` and `outputs` are column views (`RoleColumns`,
    `GateColumns`, `OutputColumns`).  Each may be given as such a view,
    which is kept as it is, or as records, plain tuples or lists, which
    are transposed into one.  Equality and the hash go by value.
    """

    width: int
    roles: RoleColumns
    gates: GateColumns = ()
    outputs: OutputColumns = ()
    restored: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self):
        put = partial(object.__setattr__, self)
        put("roles", _columns(self.roles, "roles", RoleColumns, _BAD_ROLE))
        put("gates", _columns(self.gates, "gates", GateColumns, _BAD_GATE))
        put("outputs", _columns(self.outputs, "outputs", OutputColumns, _bad_output))
        put("restored", _entries(self.restored, "restored"))
        self.validate()
        put("restored", frozenset(self.restored))

    def _key(self) -> tuple:
        return (
            self.width,
            self.roles.columns,
            self.gates.columns,
            self.outputs.columns,
            self.restored,
        )

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    # -- validation -----------------------------------------------------

    def validate(self) -> None:
        """Check every netlist rule on the columns, value types included;
        raises a RevbcdError subclass naming the first violation.

        The constructor has made every field its columns by then, and
        named any entry of the wrong shape.  Width: an int (not a bool)
        of at least 1, with one role per line.  Lines: a known role and a
        label that is a str or None; a non-empty unique label on every
        input, unique constant labels.  Gates: a known kind whose pins are
        a tuple of as many distinct existing lines as its arity, each an
        int (not a bool); a stage that is a str or None.  Outputs: unique
        str names on int lines.  Restored lines: ints.  Both on existing
        lines, each line designated once, restored lines primary inputs
        that are not also named outputs.

        Each rule is one column over the entries (`_check`), and its fault
        is read from that same column: the first line, gate, output or
        restored line at fault is named, and within it the first rule it
        breaks.
        """
        width = self.width
        if type(width) is not int or width < 1:
            raise InvalidArgumentError(f"width must be a positive int, got {width!r}")
        roles, gates, outputs = self.roles, self.gates, self.outputs
        if len(roles) != width:
            raise InvalidArgumentError(f"{len(roles)} lines for width {width}")
        _check(roles, _line_rules(roles.kinds, roles.labels))
        for rules in _gate_rules(gates.kinds, gates.pins, gates.stages, width):
            _check(gates, rules)
        _check(outputs, _output_rules(outputs.names, outputs.lines, width))
        restored = tuple(self.restored)
        _check(restored, _restored_rules(restored, roles.kinds, outputs.lines, width))

    # -- derived views ---------------------------------------------------

    @property
    def output_map(self) -> dict[str, int]:
        return dict(zip(self.outputs.names, self.outputs.lines))

    def input_lines(self) -> list[int]:
        return [i for i, kind in enumerate(self.roles.kinds) if kind == ROLE_INPUT]

    def const_lines(self) -> list[int]:
        # A comprehension: under CPython 3.11 it runs faster here than
        # compress over a map of str comparisons.
        return [i for i, kind in enumerate(self.roles.kinds) if kind != ROLE_INPUT]

    def label_map(self) -> dict[str, int]:
        """Input label -> line index."""
        roles = enumerate(zip(self.roles.kinds, self.roles.labels))
        return {label: i for i, (kind, label) in roles if kind == ROLE_INPUT}

    def garbage_lines(self) -> list[int]:
        """Terminal lines that are neither named outputs nor restored inputs."""
        taken = {*self.outputs.lines, *self.restored}
        return list(filterfalse(taken.__contains__, range(self.width)))


def inverse(netlist: Netlist) -> Netlist:
    """The netlist that undoes `netlist`: the same width and roles, and
    its gates in reverse order, each replaced by the gates that undo it
    (`gates.undo_steps`) under its own stage.  A state run through
    `netlist` and then through this comes back unchanged.
    """
    steps = [
        (kind, tuple([pins[p] for p in positions]), stage)
        for own, pins, stage in zip(*map(reversed, netlist.gates.columns))
        for kind, positions in undo_steps(own)
    ]
    return Netlist(netlist.width, netlist.roles, steps)


def _entries(value, field: str) -> tuple:
    """`value` as a tuple; a value that is not iterable is a typed error."""
    try:
        return tuple(value)
    except TypeError:
        raise InvalidArgumentError(f"{field} must be iterable, got {value!r}") from None


def _columns(value, field: str, view: type, bad) -> _Records:
    """`value` as a column `view`: a view of that type as it is, and
    otherwise its entries, each read as a record of the view's fields,
    transposed into the view's columns.

    An entry that is no iterable of as many fields is a typed error:
    `bad(position, entry)` is its message.  An entry is read as
    `tuple(entry)` reads it, so an exact tuple is not copied.
    """
    if type(value) is view:
        return value
    items = _entries(value, field)
    size = len(view.__slots__)
    fits = size.__eq__
    rows = []
    with suppress(TypeError):  # an entry that does not iterate
        rows.extend(map(tuple, items))
    if len(rows) < len(items) or not all(map(fits, map(len, rows))):
        rule = lambda end: map(fits, map(len, map(tuple, items[:end])))
        _check(items, [(False, rule, InvalidArgumentError, bad)])
    return view(*zip(*rows)) if rows else view(*[()] * size)


def _check(entries, rules: list) -> None:
    """Raise the error of the first entry that breaks a rule, for the
    first rule it breaks.  `rules` are (settled, holds, error, message)
    in an entry's rule order.  `holds(end)` makes the rule's column over
    entries[:end] lazily, whether each entry keeps it, and stops with a
    TypeError at an entry it cannot evaluate, which breaks the rule.  A
    rule `settled` by a cheaper fact about every entry makes no column.
    Each rule's first fault becomes the new `end`, so the entries below
    it keep all earlier rules, which a later column may assume.  The
    error is `error(message(position, entry))`."""
    end, fault = len(entries), None
    for settled, holds, error, message in rules:
        column = []
        try:
            column.extend(() if settled else holds(end))
        except TypeError:
            column.append(False)
        if False in column:
            end, fault = column.index(False), (error, message)
    if fault:
        error, message = fault
        raise error(message(end, entries[end]))


def _first_use(column: tuple):
    """A rule column: whether each entry's value is its first use."""
    return lambda end: map(eq, map({}.setdefault, column[:end], count()), count())


def _line_rules(kinds: tuple, labels: tuple) -> list:
    """The line rules of `Netlist.validate`, in a line's rule order."""
    known = plain = False
    with suppress(TypeError):  # an unhashable kind or label
        known = _ROLE_SET.issuperset(kinds)
        seen = set(labels)
        plain = len(seen) == len(labels) and "" not in seen and (
            _STR.issuperset(map(type, seen))
        )
    inputs = lambda end: map(eq, kinds[:end], repeat(ROLE_INPUT))

    def first_use(end):  # no label, or its first use among inputs or among constants
        firsts = map({}.setdefault, zip(inputs(end), labels[:end]), count())
        return map(or_, map(not_, labels[:end]), map(eq, firsts, count()))

    return [
        (plain, lambda end: map(_STR_OR_NONE.__contains__, map(type, labels[:end])),
         InvalidArgumentError, "line {0}: label {1[1]!r} must be a str".format),
        (known, lambda end: map(_ROLE_SET.__contains__, kinds[:end]),
         InvalidArgumentError, "line {0}: unknown role {1[0]!r}".format),
        (plain, lambda end: map(or_, map(not_, inputs(end)), map(bool, labels[:end])),
         InvalidArgumentError, "line {0}: an input needs a label".format),
        (plain, first_use, InvalidArgumentError, lambda i, role: f"line {i}: duplicate "
         f"{'input' if role[0] == ROLE_INPUT else 'constant'} label"),
    ]


def _gate_rules(kinds: tuple, pins: tuple, stages: tuple, width: int) -> list:
    """The gate rules of `Netlist.validate`, as three passes over the
    gates, each in a gate's rule order: structure, int pins, stages."""
    known = shaped = placed = False
    with suppress(TypeError):  # an unhashable kind or pin, or pins that do not iterate
        wants = list(map(_ARITY.get, kinds))
        known = all(wants)
        shaped = known and _TUPLE.issuperset(map(type, pins)) and (
            wants == list(map(len, pins)) == list(map(len, map(set, pins)))
        )
        flat = list(chain.from_iterable(pins))
        placed = _INT.issuperset(map(type, flat)) and (
            0 <= min(flat, default=0) and max(flat, default=0) < width
        )
    sizes = lambda end: map(len, pins[:end])
    lines = lambda: frozenset(range(width))

    def arity(i, gate):
        return f"gates[{i}]: {gate[0]} takes {_ARITY[gate[0]]} pins, got {len(gate[1])}"

    def outside(i, gate):
        pin = next(filterfalse(lines().__contains__, gate[1]))
        return f"gates[{i}]: pin {pin} outside 0..{width - 1}"

    unhashable = InvalidArgumentError, "gates[{0}]: unhashable kind or pin".format
    return [
        [
            (known, lambda end: map(_HASHABLE, zip(kinds[:end])), *unhashable),
            (known, lambda end: map(_ARITY.__contains__, kinds[:end]),
             InvalidArgumentError, "gates[{0}]: unknown kind {1[0]!r}".format),
            (shaped, lambda end: map(_TUPLE.__contains__, map(type, pins[:end])),
             InvalidArgumentError, "gates[{0}]: pins must be a tuple".format),
            (shaped, lambda end: map(eq, sizes(end), map(_ARITY.get, kinds[:end])),
             ArityError, arity),
            (placed, lambda end: map(_HASHABLE, pins[:end]), *unhashable),
            (shaped, lambda end: map(eq, map(len, map(set, pins[:end])), sizes(end)),
             FanInError, "gates[{0}]: {1[0]} pins {1[1]} repeat a line".format),
            (placed, lambda end: map(lines().issuperset, pins[:end]),
             LineIndexError, outside),
        ],
        [(placed, lambda end: map(_INT.issuperset, map(map, repeat(type), pins[:end])),
          InvalidArgumentError, "gates[{0}]: pins {1[1]} must be ints".format)],
        [(_STR_OR_NONE.issuperset(map(type, stages)),
          lambda end: map(_STR_OR_NONE.__contains__, map(type, stages[:end])),
          InvalidArgumentError, "gates[{0}]: stage {1[2]!r} not a str".format)],
    ]


def _output_rules(names: tuple, lines: tuple, width: int) -> list:
    """The output rules of `Netlist.validate`, in an output's rule order."""
    typed = _STR.issuperset(map(type, names)) and _INT.issuperset(map(type, lines))
    placed = typed and 0 <= min(lines, default=0) and max(lines, default=0) < width
    return [
        (typed, lambda end: map(and_, map(_STR.__contains__, map(type, names[:end])),
                                map(_INT.__contains__, map(type, lines[:end]))),
         InvalidArgumentError,
         "output {1[0]!r} on line {1[1]!r}: need a str name, an int line".format),
        (typed and len(set(names)) == len(names), _first_use(names),
         DesignationError, "output name {1[0]!r} used twice".format),
        (placed, lambda end: map(range(width).__contains__, lines[:end]),
         LineIndexError, "output {1[0]!r} on missing line {1[1]}".format),
        (typed and len(set(lines)) == len(lines), _first_use(lines),
         DesignationError, "line {1[1]} designated twice".format),
    ]


def _restored_rules(restored: tuple, kinds: tuple, named: tuple, width: int) -> list:
    """The restored-line rules of `Netlist.validate`, in a line's rule
    order, for valid line kinds and named output lines."""
    ints = _INT.issuperset(map(type, restored))
    placed = ints and 0 <= min(restored, default=0) and max(restored, default=0) < width
    role = lambda end: map(kinds.__getitem__, restored[:end])
    taken = frozenset(named)
    return [
        (ints, lambda end: map(_INT.__contains__, map(type, restored[:end])),
         InvalidArgumentError, "restored line {1!r} must be an int".format),
        (placed, lambda end: map(range(width).__contains__, restored[:end]),
         LineIndexError, "restored line {1} out of range".format),
        (placed and _INPUT.issuperset(role(len(restored))),
         lambda end: map(eq, role(end), repeat(ROLE_INPUT)),
         DesignationError, "restored line {1} is not a primary input".format),
        (placed and taken.isdisjoint(restored),
         lambda end: map(not_, map(taken.__contains__, restored[:end])),
         DesignationError, "restored line {1} is also a named output".format),
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
        for i, (kind, label) in enumerate(zip(*netlist.roles.columns))
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
        for kind, pins, stage in zip(*netlist.gates.columns)
    )
    outputs = [
        f',\n    {{\n      "name": {_scalar(name)},\n      "line": {line}\n    }}'
        for name, line in zip(*netlist.outputs.columns)
    ]
    restored = [f",\n    {line}" for line in sorted(netlist.restored)]
    parts = ["{\n", f'  "width": {netlist.width}']
    _array(parts, "lines", lines)
    _array(parts, "gates", gates)
    _array(parts, "outputs", outputs)
    _array(parts, "restored", restored)
    parts.append("\n}\n")
    return "".join(parts)


def _require(doc: Mapping, key: str):
    if key not in doc:
        raise NetlistFormatError(f"document: missing field {key!r}")
    return doc[key]


def _require_list(doc: Mapping, key: str) -> list:
    value = _require(doc, key)
    if not isinstance(value, list):
        raise NetlistFormatError(f"{key} must be an array")
    return value


_KIND_BY_NAME = {kind.value: kind for kind in GateKind}
_INDEX, _ROLE, _KIND, _PINS = map(itemgetter, ("index", "role", "kind", "pins"))
_DICT = frozenset((dict,))
_LIST = frozenset((list,))


def _fields(entries: list, key: str, fields: tuple[str, ...]):
    """A list of each of `fields` over the entries of the array `key`, or
    None where an entry is not an object that has them all; and the rules
    for `_check` that name that entry."""
    columns = None
    with suppress(KeyError, TypeError):  # an entry that breaks a rule
        columns = [list(map(itemgetter(field), entries)) for field in fields]

    def has(field):
        return lambda end: map(dict.__contains__, entries[:end], repeat(field))

    def fault(text):
        return NetlistFormatError, lambda i, entry: f"{key}[{i}]: {text}"

    shaped = columns is not None
    objects = lambda end: map(_DICT.__contains__, map(type, entries[:end]))
    rules = [(shaped, has(f), *fault(f"missing field {f!r}")) for f in fields]
    return columns, [(shaped, objects, *fault("must be an object")), *rules]


def _lines(entries: list) -> RoleColumns:
    """Each entry's role and label, placed by its index: an int in
    0..len(entries) - 1 that no other entry has.  Entries already in
    index order, as `serialize` writes them, are not sorted."""
    size = len(entries)
    columns, rules = _fields(entries, "lines", ("index", "role"))
    indices, kinds = columns or ((), ())
    span = [*range(size)]
    placed = _INT.issuperset(map(type, indices)) and (
        indices == span or sorted(indices) == span
    )
    index = lambda end: map(_INDEX, entries[:end])

    def outside(i, line):
        return f"lines[{i}]: index {line['index']!r} outside 0..{size - 1}"

    _check(entries, [
        *rules,
        (placed, lambda end: map(_INT.__contains__, map(type, index(end))),
         NetlistFormatError, outside),
        (placed, lambda end: map(range(size).__contains__, index(end)),
         NetlistFormatError, outside),
        (placed, lambda end: map(eq, map({}.setdefault, index(end), count()), count()),
         NetlistFormatError, "lines[{0}]: line {1[index]} defined twice".format),
    ])
    if indices != span:
        entries = sorted(entries, key=_INDEX)
        kinds = map(_ROLE, entries)
    return RoleColumns(kinds, map(dict.get, entries, repeat("label")))


def _gates(entries: list) -> GateColumns:
    """Each entry as a gate: a known kind name, and an array of pins."""
    columns, rules = _fields(entries, "gates", ("kind", "pins"))
    names, pins = columns or ((), ())
    kinds, known = [], False
    with suppress(TypeError):  # an unhashable kind name
        kinds = list(map(_KIND_BY_NAME.get, names))
        known = columns is not None and None not in kinds
    arrays = columns is not None and _LIST.issuperset(map(type, pins))
    pins_of = lambda end: map(_PINS, entries[:end])
    _check(entries, [
        *rules,
        (known, lambda end: map(_KIND_BY_NAME.__contains__, map(_KIND, entries[:end])),
         NetlistFormatError, "gates[{0}]: unknown gate kind {1[kind]!r}".format),
        (arrays, lambda end: map(_LIST.__contains__, map(type, pins_of(end))),
         NetlistFormatError, "gates[{0}]: pins must be an array".format),
    ])
    stages = map(dict.get, entries, repeat("stage"))
    return GateColumns(kinds, map(tuple, pins), stages)


def deserialize(text: str) -> Netlist:
    """Parse the text format back into a netlist; inverse of serialize.

    Maps each array of the document to columns, with no record per
    entry, and checks only what the columns cannot hold: the JSON syntax,
    the shape of each object, each line placed once by its `index`, and
    gate kind names.  Each rule on the entries is a
    column over an array that also names the first entry at fault
    (`_check`).  Every netlist rule, value types included, is left to
    `Netlist.validate`, whose errors come back as NetlistFormatError.
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

    width = _require(doc, "width")
    roles = _lines(_require_list(doc, "lines"))
    gates = _gates(_require_list(doc, "gates"))
    entries = _require_list(doc, "outputs")
    outputs, rules = _fields(entries, "outputs", ("name", "line"))
    _check(entries, rules)
    outputs = OutputColumns(*outputs)
    restored = _require_list(doc, "restored")
    try:
        return Netlist(width, roles, gates, outputs, restored)
    except RevbcdError as exc:
        raise NetlistFormatError(str(exc)) from exc
