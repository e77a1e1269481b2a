"""Property tests for the netlist constructor (needs hypothesis).

Any records, each field a valid value or junk, either fail with a
RevbcdError or make a netlist whose document is the one serialize has
always written and reloads to the same netlist.  The column check of the
gates accepts exactly what the per-gate loop accepts.
"""

import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from revbcd.errors import RevbcdError
from revbcd.gates import GateKind, arity
from revbcd.netlist import (
    GateInstance,
    LineRole,
    Netlist,
    _gates_hold,
    _name_bad_gate,
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


@settings(max_examples=150, deadline=None)
@given(near_valid_netlist_args())
def test_gate_columns_agree_with_the_gate_loop(args):
    """The column check accepts exactly the gates that the per-gate loop,
    the reference, accepts."""
    width = args["width"]
    hypothesis.assume(type(width) is int and width >= 1)
    try:
        _name_bad_gate(args["gates"], width)
    except RevbcdError:
        assert not _gates_hold(args["gates"], width)
    else:
        assert _gates_hold(args["gates"], width)


def test_record_strategy_reaches_valid_netlists():
    """Guard against a strategy that only ever exercises the error paths."""
    made = []

    @settings(max_examples=100, deadline=None, database=None)
    @given(near_valid_netlist_args())
    def collect(args):
        made.append(_check_records(args))

    collect()
    assert 10 <= sum(made) < len(made)
