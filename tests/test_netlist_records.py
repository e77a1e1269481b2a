"""Property tests for the netlist constructor and loader (needs hypothesis).

Any records, each field a valid value or junk, either fail with a
RevbcdError or make a netlist whose document is the one serialize has
always written and reloads to the same netlist.  The constructor's rule
columns and the loader's entry columns raise the error type and message
that the entry-by-entry loops below, the reference, raise: the first
entry at fault, and within it the first rule it breaks.  The line and
gate columns alone agree with the line and gate loops.  A netlist made
from columns (an adder's stamp, a loaded document) is the netlist made
from the same records.
"""

import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from revbcd.designs import build_design
from revbcd.errors import (
    ArityError,
    DesignationError,
    FanInError,
    InvalidArgumentError,
    LineIndexError,
    NetlistFormatError,
    RevbcdError,
)
from revbcd.gates import GateKind, arity
from revbcd.netlist import (
    GateInstance,
    LineRole,
    Netlist,
    _check,
    _gate_rules,
    _line_rules,
    deserialize,
    serialize,
)

from test_netlist import old_document

# Values of every type a record field must not hold, plus in-range ints
# that break a rule other than a type: bools, floats (1.0 equals a line),
# unhashables, hashable non-ints.
_JUNK = (
    st.none()
    | st.booleans()
    | st.integers(-2, 8)
    | st.floats()
    | st.text(max_size=2)
    | st.lists(st.integers(0, 3), max_size=2)
    | st.tuples(st.integers(0, 3))
)
# A str kind that names a gate is a GateKind by equality; keep kinds
# to GateKind members or values that are no str at all.
_KIND_JUNK = _JUNK.filter(lambda value: not isinstance(value, str))
_ROLES = ("input", "const0", "const1")


@st.composite
def valid_records(draw):
    """The fields of a well-formed netlist, as mutable lists."""
    width = draw(st.integers(1, 6))
    roles = []
    for line in range(width):
        kind = draw(st.sampled_from(_ROLES))
        labels = [f"x{line}"] if kind == "input" else [None, f"k{line}"]
        label = draw(st.sampled_from(labels))
        roles.append([kind, label])
    gates = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from([k for k in GateKind if arity(k) <= width]))
        pins = tuple(draw(st.permutations(range(width)))[: arity(kind)])
        gates.append([kind, pins, draw(st.none() | st.text(max_size=2))])
    inputs = [line for line in range(width) if roles[line][0] == "input"]
    restored = draw(st.lists(st.sampled_from(inputs), unique=True)) if inputs else []
    free = [line for line in range(width) if line not in restored]
    named = draw(st.lists(st.sampled_from(free), unique=True)) if free else []
    outputs = [[f"o{n}", line] for n, line in enumerate(named)]
    return {"width": width, "roles": roles, "gates": gates, "outputs": outputs,
            "restored": restored}


@st.composite
def near_valid_netlist_args(draw):
    """Constructor arguments of a well-formed netlist with up to two fields
    replaced by junk: a width, a role's kind or label, a gate's kind, stage,
    whole pin tuple or one pin, an output's name or line, a restored line."""
    fields = draw(valid_records())
    for _ in range(draw(st.sampled_from([0, 1, 1, 2]))):
        key = draw(st.sampled_from(sorted(fields)))
        if key == "width":
            fields["width"] = draw(_JUNK)
            continue
        entries = fields[key]
        if not entries:
            continue
        pos = draw(st.integers(0, len(entries) - 1))
        if key == "restored":
            entries[pos] = draw(_JUNK)
            continue
        entry = entries[pos]
        at = draw(st.integers(0, len(entry) - 1))
        if key == "gates" and at == 0:
            entry[0] = draw(_KIND_JUNK)
        elif key == "gates" and at == 1 and type(entry[1]) is tuple and draw(
            st.booleans()
        ):
            pins = list(entry[1])
            pins[draw(st.integers(0, len(pins) - 1))] = draw(_JUNK)
            entry[1] = tuple(pins)
        else:
            entry[at] = draw(_JUNK)
    return dict(
        width=fields["width"],
        roles=tuple(LineRole(*role) for role in fields["roles"]),
        gates=tuple(GateInstance(*gate) for gate in fields["gates"]),
        outputs=tuple(map(tuple, fields["outputs"])),
        restored=fields["restored"],
    )


def _check_records(args) -> bool:
    """The property; True when the netlist was made."""
    try:
        nl = Netlist(**args)
    except RevbcdError:
        return False
    text = serialize(nl)
    assert text == json.dumps(old_document(nl), indent=2) + "\n"
    assert deserialize(text) == nl
    return True


@settings(max_examples=150, deadline=None)
@given(near_valid_netlist_args())
def test_records_make_a_netlist_that_reloads_or_fail_typed(args):
    _check_records(args)


# -- one netlist, whichever path made it ---------------------------------------


@st.composite
def adders(draw):
    design = draw(st.sampled_from(("pdfa", "dec-rca", "dec-csk")))
    return build_design(design, 1 if design == "pdfa" else draw(st.integers(1, 6)))


def _assert_one_netlist(columns, records):
    """A netlist made from columns and one made from records are the same
    netlist: equal, hashed equal, with the same records of the same types
    in `roles`, `gates` and `outputs`, and the same serialized bytes."""
    assert columns == records and hash(columns) == hash(records)
    for field in ("roles", "gates", "outputs"):
        made, given = [*getattr(columns, field)], [*getattr(records, field)]
        assert made == given and [*map(type, made)] == [*map(type, given)]
    assert serialize(columns) == serialize(records)


@settings(max_examples=40, deadline=None)
@given(adders())
def test_built_columns_make_the_records_netlist(built):
    """An adder's stamped columns (`designs._adder`) against its records
    handed to the constructor as lists."""
    records = Netlist(
        built.width, [*built.roles], [*built.gates], [*built.outputs],
        [*built.restored],
    )
    _assert_one_netlist(built, records)


@settings(max_examples=150, deadline=None)
@given(valid_records(), st.randoms(use_true_random=False))
def test_loaded_columns_make_the_records_netlist(fields, rng):
    """A document's columns (`deserialize`), its lines shuffled or not,
    against the records the document was written from."""
    records = Netlist(**fields)
    doc = json.loads(serialize(records))
    if rng.random() < 0.5:
        rng.shuffle(doc["lines"])
    _assert_one_netlist(deserialize(json.dumps(doc)), records)


# -- the reference: the rules as entry-by-entry loops -------------------------


def reference_validate(width, roles, gates, outputs, restored):
    """The netlist rules, one entry at a time, on records: raise the error
    of the first entry at fault, for the first rule it breaks."""
    if type(width) is not int or width < 1:
        raise InvalidArgumentError(f"width must be a positive int, got {width!r}")
    if len(roles) != width:
        raise InvalidArgumentError(f"{len(roles)} lines for width {width}")
    reference_lines(roles)
    reference_gates(gates, width)
    names, named = set(), set()
    for name, line in outputs:
        if type(name) is not str or type(line) is not int:
            raise InvalidArgumentError(
                f"output {name!r} on line {line!r}: need a str name, an int line"
            )
        if name in names:
            raise DesignationError(f"output name {name!r} used twice")
        if not 0 <= line < width:
            raise LineIndexError(f"output {name!r} on missing line {line}")
        if line in named:
            raise DesignationError(f"line {line} designated twice")
        names.add(name)
        named.add(line)
    for line in restored:
        if type(line) is not int:
            raise InvalidArgumentError(f"restored line {line!r} must be an int")
        if not 0 <= line < width:
            raise LineIndexError(f"restored line {line} out of range")
        if roles[line][0] != "input":
            raise DesignationError(f"restored line {line} is not a primary input")
        if line in named:
            raise DesignationError(f"restored line {line} is also a named output")


def reference_lines(roles):
    """The line rules, one line at a time."""
    input_labels, const_labels = set(), set()
    for i, (kind, label) in enumerate(roles):
        if label is not None and type(label) is not str:
            raise InvalidArgumentError(f"line {i}: label {label!r} must be a str")
        if kind == "input":
            if not label:
                raise InvalidArgumentError(f"line {i}: an input needs a label")
            if label in input_labels:
                raise InvalidArgumentError(f"line {i}: duplicate input label")
            input_labels.add(label)
        elif kind == "const0" or kind == "const1":
            if label and label in const_labels:
                raise InvalidArgumentError(f"line {i}: duplicate constant label")
            const_labels.add(label)
        else:
            raise InvalidArgumentError(f"line {i}: unknown role {kind!r}")


def reference_gates(gates, width):
    """The gate rules, one gate at a time, for a positive int width."""
    arities = {kind: arity(kind) for kind in GateKind}
    lines = frozenset(range(width))
    for i, (kind, pins, _) in enumerate(gates):
        try:
            want = arities.get(kind)
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
        if {*map(type, pins)} - {int}:
            raise InvalidArgumentError(f"gates[{i}]: pins {pins} must be ints")
    for i, (_, _, stage) in enumerate(gates):
        if stage is not None and type(stage) is not str:
            raise InvalidArgumentError(f"gates[{i}]: stage {stage!r} not a str")


def reference_deserialize(text):
    """The loader, one entry at a time: each entry an object with its
    fields, each line placed once by an int index in range, each gate a
    known kind name with an array of pins; then the constructor, whose
    errors come back as NetlistFormatError."""
    doc = json.loads(text)

    def require(entry, key, where):
        if not isinstance(entry, dict):
            raise NetlistFormatError(f"{where}: must be an object")
        if key not in entry:
            raise NetlistFormatError(f"{where}: missing field {key!r}")
        return entry[key]

    def array(key):
        value = require(doc, key, "document")
        if not isinstance(value, list):
            raise NetlistFormatError(f"{key} must be an array")
        return value

    def records(key, fields):
        for pos, entry in enumerate(array(key)):
            yield pos, entry, [require(entry, f, f"{key}[{pos}]") for f in fields]

    width = require(doc, "width", "document")
    count = len(array("lines"))
    roles = [None] * count
    for pos, entry, (index, role) in records("lines", ("index", "role")):
        if type(index) is not int or not 0 <= index < count:
            raise NetlistFormatError(
                f"lines[{pos}]: index {index!r} outside 0..{count - 1}"
            )
        if roles[index] is not None:
            raise NetlistFormatError(f"lines[{pos}]: line {index} defined twice")
        roles[index] = LineRole(role, entry.get("label"))
    kinds = {kind.value: kind for kind in GateKind}
    gates = []
    for pos, entry, (name, pins) in records("gates", ("kind", "pins")):
        kind = kinds.get(name) if type(name) is str else None
        if kind is None:
            raise NetlistFormatError(f"gates[{pos}]: unknown gate kind {name!r}")
        if type(pins) is not list:
            raise NetlistFormatError(f"gates[{pos}]: pins must be an array")
        gates.append(GateInstance(kind, tuple(pins), entry.get("stage")))
    outputs = tuple(tuple(pair) for _, _, pair in records("outputs", ("name", "line")))
    restored = array("restored")
    try:
        return Netlist(width, tuple(roles), tuple(gates), outputs, restored)
    except RevbcdError as exc:
        raise NetlistFormatError(str(exc)) from exc


def _outcome(make):
    """("made", the netlist), or the error type and message."""
    try:
        return "made", make()
    except RevbcdError as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@example(dict(width=2, roles=(LineRole("input", "a"), LineRole("const0", None))))
@example(dict(width=2, roles=(LineRole("input", "a"), LineRole("const1", "a"))))
@example(dict(width=3, roles=(LineRole("const0", None),) * 3))
@given(near_valid_netlist_args())
def test_constructor_errors_match_the_reference_loops(args):
    """Unlabelled constants and a constant reusing an input's label are
    valid; every other case is drawn."""
    made = _outcome(lambda: Netlist(**args))
    fields = {"gates": (), "outputs": (), "restored": (), **args}
    want = _outcome(lambda: reference_validate(**fields))
    if want[0] == "made":
        assert made[0] == "made"
    else:
        assert made == want


def _columns(records, fields):
    """The records' columns, as `Netlist` holds them."""
    return tuple(zip(*records)) or ((),) * fields


def _check_gates(gates, width):
    for rules in _gate_rules(*_columns(gates, 3), width):
        _check(gates, rules)


@settings(max_examples=150, deadline=None)
@example(dict(width=2, gates=(GateInstance(GateKind.FG, (0, 2)),)))
@example(dict(width=2, gates=(GateInstance(GateKind.FG, (1, -1)),)))
@given(near_valid_netlist_args())
def test_gate_columns_agree_with_the_gate_loop(args):
    """The gate columns raise exactly what the per-gate loop, the
    reference, raises, and pass exactly where it passes; a pin one past
    either end of the lines is every case's edge."""
    width = args["width"]
    hypothesis.assume(type(width) is int and width >= 1)
    gates = args["gates"]
    assert _outcome(lambda: _check_gates(gates, width)) == _outcome(
        lambda: reference_gates(gates, width)
    )


@settings(max_examples=150, deadline=None)
@given(near_valid_netlist_args())
def test_line_columns_imply_the_line_loop(args):
    """Where the line columns pass, the per-line loop, the reference,
    finds no fault; where they fail, it raises the same error."""
    roles = args["roles"]
    assert _outcome(lambda: _check(roles, _line_rules(*_columns(roles, 2)))) == _outcome(
        lambda: reference_lines(roles)
    )


def test_line_columns_reject_what_the_loop_accepts():
    """The whole-column facts that settle the line rules are stricter than
    the rules: unlabelled constants and an input label reused by a
    constant leave the rules to their columns, which accept them, as the
    loop does."""
    for roles in (
        (LineRole("input", "a"), LineRole("const0", None)),
        (LineRole("input", "a"), LineRole("const1", "a")),
    ):
        rules = _line_rules(*_columns(roles, 2))
        assert not all(settled for settled, *_ in rules)
        _check(roles, rules)
        reference_lines(roles)
        Netlist(len(roles), roles)


# JSON values that are no object.
_NOT_OBJECTS = (
    st.none()
    | st.booleans()
    | st.integers(-2, 9)
    | st.text(max_size=2)
    | st.lists(st.integers(0, 3), max_size=2)
)
_ENTRY_FAULTS = (
    "not an object",
    "missing field",
    "bad index",
    "duplicate index",
    "unknown kind",
    "pins not an array",
)


@st.composite
def near_valid_documents(draw):
    """The text of a well-formed netlist document with up to two entry
    faults at random positions: an entry that is no object, a missing
    field, a bad or duplicate line index, an unknown gate kind, pins that
    are no array."""
    fields = draw(valid_records())
    doc = json.loads(serialize(Netlist(**fields)))
    for _ in range(draw(st.integers(0, 2))):
        fault = draw(st.sampled_from(_ENTRY_FAULTS))
        if "index" in fault:
            key = "lines"
        elif "kind" in fault or "pins" in fault:
            key = "gates"
        else:
            key = draw(st.sampled_from(("lines", "gates", "outputs")))
        entries = doc[key]
        if not entries:
            continue
        pos = draw(st.integers(0, len(entries) - 1))
        entry = entries[pos]
        if fault == "not an object":
            entries[pos] = draw(_NOT_OBJECTS)
        elif not isinstance(entry, dict):
            continue
        elif fault == "missing field":
            del entry[draw(st.sampled_from(sorted(entry)))]
        elif fault == "bad index":
            entry["index"] = draw(
                st.sampled_from((-1, len(entries), 0.5, 1.0, True, "0", None, [0]))
            )
        elif fault == "duplicate index":
            other = entries[draw(st.integers(0, len(entries) - 1))]
            if isinstance(other, dict) and "index" in other:
                entry["index"] = other["index"]
        elif fault == "unknown kind":
            kinds = ("", "fg", "nope", None, 1, ["FG"], {})
            entry["kind"] = draw(st.sampled_from(kinds))
        else:
            entry["pins"] = draw(st.sampled_from((None, 0, "01", {"0": 1}, True)))
    return json.dumps(doc)


@settings(max_examples=300, deadline=None)
@given(near_valid_documents())
def test_loader_errors_match_the_reference_loops(text):
    assert _outcome(lambda: deserialize(text)) == _outcome(
        lambda: reference_deserialize(text)
    )


def test_record_strategy_reaches_valid_netlists():
    """Guard against a strategy that only ever exercises the error paths."""
    made = []

    @settings(max_examples=100, deadline=None, database=None)
    @given(near_valid_netlist_args())
    def collect(args):
        made.append(_check_records(args))

    collect()
    assert 10 <= sum(made) < len(made)
