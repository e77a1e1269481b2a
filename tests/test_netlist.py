"""Netlist construction, validation, and serialization round-trips."""

import pytest

from revbcd.designs import (
    build_correction,
    build_dec_csk,
    build_dec_rca,
    build_pdfa,
    build_scl,
    build_skip_block,
    build_skip_generator,
)
from revbcd.errors import (
    DesignationError,
    FanInError,
    InvalidArgumentError,
    LineIndexError,
    NetlistFormatError,
)
from revbcd.gates import GateKind
from revbcd.netlist import (
    append_gate,
    const_role,
    deserialize,
    designate_outputs,
    input_role,
    new_netlist,
    serialize,
)


def two_line():
    return new_netlist(2, [input_role("a"), const_role(0)])


class TestConstruction:
    def test_new_netlist(self):
        nl = two_line()
        assert nl.width == 2 and nl.gates == ()

    def test_zero_width_rejected(self):
        with pytest.raises(InvalidArgumentError):
            new_netlist(0, [])

    def test_role_count_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            new_netlist(3, [input_role("a")])

    def test_pdfa_layout(self):
        nl = build_pdfa()
        assert nl.width == 17
        assert len(nl.input_lines()) == 9
        assert len(nl.const_lines()) == 8

    def test_append_gate(self):
        nl = append_gate(two_line(), GateKind.FG, (0, 1))
        assert len(nl.gates) == 1
        nl.validate()

    def test_duplicate_pin_rejected(self):
        nl = new_netlist(3, [input_role("a"), input_role("b"), const_role(0)])
        with pytest.raises(FanInError):
            append_gate(nl, GateKind.HNG, (0, 0, 1, 2))

    def test_out_of_range_pin(self):
        with pytest.raises(LineIndexError):
            append_gate(two_line(), GateKind.FG, (0, 5))

    def test_pdfa_gate_sequence_validates(self):
        nl = build_pdfa()
        rebuilt = new_netlist(nl.width, nl.roles)
        for g in nl.gates:
            rebuilt = append_gate(rebuilt, g.kind, g.pins, g.stage)
        rebuilt.validate()
        assert rebuilt.gates == nl.gates


class TestDesignation:
    def test_pdfa_garbage_count(self):
        assert len(build_pdfa().garbage_lines()) == 4

    def test_no_designation_all_garbage(self):
        nl = append_gate(two_line(), GateKind.FG, (0, 1))
        assert nl.garbage_lines() == [0, 1]

    def test_restored_const_rejected(self):
        nl = two_line()
        with pytest.raises(DesignationError):
            designate_outputs(nl, {"q": 0}, restored={1})

    def test_named_and_restored_conflict(self):
        nl = two_line()
        with pytest.raises(DesignationError):
            designate_outputs(nl, {"q": 0}, restored={0})

    def test_duplicate_names_rejected(self):
        nl = new_netlist(2, [input_role("a"), input_role("b")])
        with pytest.raises(DesignationError):
            designate_outputs(nl, {"q": 0, "q ": 0})


ALL_BUILDERS = [
    ("scl", build_scl),
    ("correction", build_correction),
    ("skip-generator", build_skip_generator),
    ("skip-block", build_skip_block),
    ("pdfa", build_pdfa),
    ("dec-rca-1", lambda: build_dec_rca(1)),
    ("dec-rca-8", lambda: build_dec_rca(8)),
    ("dec-csk-1", lambda: build_dec_csk(1)),
    ("dec-csk-8", lambda: build_dec_csk(8)),
]


class TestSerialization:
    @pytest.mark.parametrize("name,builder", ALL_BUILDERS)
    def test_round_trip(self, name, builder):
        nl = builder()
        assert deserialize(serialize(nl)) == nl

    def test_empty_netlist_round_trips(self):
        nl = designate_outputs(two_line(), {"a_out": 0})
        assert deserialize(serialize(nl)) == nl

    def test_deterministic_bytes(self, pdfa):
        assert serialize(pdfa) == serialize(pdfa)

    def test_unknown_gate_name(self, pdfa):
        text = serialize(pdfa).replace('"HNG"', '"XYZ"', 1)
        with pytest.raises(NetlistFormatError, match="unknown gate kind"):
            deserialize(text)

    def test_malformed_document(self):
        with pytest.raises(NetlistFormatError, match="not valid JSON"):
            deserialize("{nope")

    def test_pin_out_of_range(self, pdfa):
        import json

        doc = json.loads(serialize(pdfa))
        doc["gates"][0]["pins"][0] = 99
        with pytest.raises(NetlistFormatError):
            deserialize(json.dumps(doc))

    def test_missing_field(self):
        with pytest.raises(NetlistFormatError, match="missing field"):
            deserialize('{"width": 1}')

    def test_stage_tags_survive(self, pdfa):
        back = deserialize(serialize(pdfa))
        assert [g.stage for g in back.gates] == [g.stage for g in pdfa.gates]


_LINE_A = {"index": 0, "role": "input", "label": "a"}
_LINE_K = {"index": 1, "role": "const0", "label": None}


def _doc(**fields) -> str:
    """A valid two-line netlist document with some top-level fields replaced."""
    import json

    doc = {
        "width": 2,
        "lines": [_LINE_A, _LINE_K],
        "gates": [{"kind": "FG", "pins": [0, 1], "stage": None}],
        "outputs": [{"name": "out", "line": 1}],
        "restored": [0],
    }
    doc.update(fields)
    return json.dumps(doc)


class TestDeserializeBoundary:
    """Every malformed document fails with NetlistFormatError, nothing else."""

    def test_base_document_loads(self):
        nl = deserialize(_doc())
        assert nl.width == 2 and nl.outputs == (("out", 1),)

    @pytest.mark.parametrize(
        "fields",
        [
            {"lines": [1]},
            {"lines": 5},
            {"gates": 5},
            {"gates": [7]},
            {"outputs": 5},
            {"outputs": [7]},
            {"width": True, "lines": [_LINE_A], "gates": [], "outputs": [],
             "restored": []},
            {"width": 2**62, "lines": [_LINE_A]},
            {"lines": [dict(_LINE_A, index=False), _LINE_K]},
            {"lines": [_LINE_A, dict(_LINE_K, label=7)]},
            {"lines": [dict(_LINE_A, label=None), _LINE_K]},
            {"gates": [{"kind": "FG", "pins": [False, 1]}]},
            {"gates": [{"kind": "FG", "pins": [0, 1], "stage": 3}]},
            {"outputs": [{"name": "out", "line": True}]},
            {"outputs": [{"name": 7, "line": 1}]},
            {"restored": [False]},
        ],
        ids=[
            "lines-entry-int", "lines-int", "gates-int", "gates-entry-int",
            "outputs-int", "outputs-entry-int", "width-bool", "width-huge",
            "index-bool", "label-int", "input-label-null", "pin-bool",
            "stage-int", "output-line-bool", "output-name-int", "restored-bool",
        ],
    )
    def test_rejected(self, fields):
        with pytest.raises(NetlistFormatError):
            deserialize(_doc(**fields))
