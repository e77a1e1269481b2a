"""Property tests for the netlist document boundary (needs hypothesis).

Any JSON document either fails with NetlistFormatError or loads as a
netlist whose serialization reloads to the same netlist and the same bytes.
"""

import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from revbcd.errors import NetlistFormatError
from revbcd.gates import GateKind, arity
from revbcd.netlist import deserialize, serialize

from test_netlist import old_document

_JUNK = (
    st.none()
    | st.booleans()
    | st.integers(-2, 8)
    | st.floats(allow_nan=False)
    | st.text(max_size=3)
    | st.lists(st.integers(-1, 4), max_size=3)
)


_ROLES = ("input", "const0", "const1")
_KIND_NAMES = [k.value for k in GateKind]
_TEXT = st.text(max_size=3)


def _subsets(items):
    return st.lists(st.sampled_from(items), unique=True) if items else st.just([])


@st.composite
def valid_documents(draw):
    """Documents of well-formed netlists, lines listed in any order."""
    width = draw(st.integers(1, 6))
    roles = draw(st.lists(st.sampled_from(_ROLES), min_size=width, max_size=width))
    lines = []
    for index in draw(st.permutations(range(width))):
        if roles[index] == "input":
            label = draw(st.sampled_from([f"x{index}", f'"{index}\n', f"é{index}"]))
        else:
            label = draw(st.sampled_from([None, f"k{index}", f"✓{index}"]))
        lines.append({"index": index, "role": roles[index], "label": label})
    gates = []
    for _ in range(draw(st.integers(0, 6))):
        fitting = [k for k in _KIND_NAMES if arity(GateKind(k)) <= width]
        kind = draw(st.sampled_from(fitting))
        pins = draw(st.permutations(range(width)))[: arity(GateKind(kind))]
        gates.append({"kind": kind, "pins": pins, "stage": draw(st.none() | _TEXT)})
    inputs = [i for i in range(width) if roles[i] == "input"]
    restored = draw(_subsets(inputs))
    free = [i for i in range(width) if i not in restored]
    named = draw(_subsets(free))
    outputs = [
        {"name": f"o{n}{draw(_TEXT)}", "line": line} for n, line in enumerate(named)
    ]
    return {"width": width, "lines": lines, "gates": gates, "outputs": outputs,
            "restored": restored}


@st.composite
def near_valid_documents(draw):
    """Well-formed documents with up to two values replaced."""
    doc = draw(valid_documents())
    for _ in range(draw(st.sampled_from([0, 0, 1, 1, 2]))):
        key = draw(st.sampled_from(sorted(doc)))
        entries = doc[key]
        if isinstance(entries, list) and entries and draw(st.booleans()):
            pos = draw(st.integers(0, len(entries) - 1))
            if isinstance(entries[pos], dict):
                field = draw(st.sampled_from(sorted(entries[pos])))
                names = st.sampled_from(_KIND_NAMES + list(_ROLES))
                entries[pos][field] = draw(_JUNK | names)
            else:
                entries[pos] = draw(_JUNK)
        else:
            doc[key] = draw(_JUNK)
    return doc


_ANY_JSON = st.recursive(
    _JUNK,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["width", "lines", "gates", "outputs",
                                       "restored", "index", "role", "label",
                                       "kind", "pins", "stage", "name", "line"]),
                      inner, max_size=6),
    max_leaves=20,
)


def _check_document(doc) -> bool:
    """The property; True when the document loaded."""
    try:
        nl = deserialize(json.dumps(doc))
    except NetlistFormatError:
        return False
    text = serialize(nl)
    assert text == json.dumps(old_document(nl), indent=2) + "\n"
    again = deserialize(text)
    assert again == nl
    assert serialize(again) == text
    return True


@settings(max_examples=150, deadline=None)
@given(near_valid_documents())
def test_near_valid_documents_load_or_fail_typed(doc):
    _check_document(doc)


@settings(max_examples=150, deadline=None)
@given(_ANY_JSON)
def test_any_json_loads_or_fails_typed(doc):
    _check_document(doc)


def test_near_valid_strategy_reaches_valid_documents():
    """Guard against a strategy that only ever exercises the error paths."""
    loaded = []

    @settings(max_examples=100, deadline=None, database=None)
    @given(near_valid_documents())
    def collect(doc):
        loaded.append(_check_document(doc))

    collect()
    assert 10 <= sum(loaded) < len(loaded)
