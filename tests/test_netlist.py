"""Netlist construction, validation, and serialization round-trips."""

import copy
import pickle

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
    ArityError,
    DesignationError,
    FanInError,
    InvalidArgumentError,
    LineIndexError,
    NetlistFormatError,
    RevbcdError,
)
from revbcd.gates import GateKind
from revbcd.netlist import (
    GateInstance,
    LineRole,
    Netlist,
    _Output,
    const_role,
    deserialize,
    input_role,
    serialize,
)
from revbcd.simulator import check_permutation, compile_netlist

_TWO_LINES = (input_role("a"), const_role(0))


def two_line(**fields):
    return Netlist(width=2, roles=_TWO_LINES, **fields)


_FG01 = (GateInstance(GateKind.FG, (0, 1)),)


class TestConstruction:
    def test_new_netlist(self):
        nl = two_line()
        assert nl.width == 2 and nl.gates == ()

    def test_zero_width_rejected(self):
        with pytest.raises(InvalidArgumentError):
            Netlist(width=0, roles=())

    def test_role_count_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            Netlist(width=3, roles=(input_role("a"),))

    def test_pdfa_layout(self):
        nl = build_pdfa()
        assert nl.width == 17
        assert len(nl.input_lines()) == 9
        assert len(nl.const_lines()) == 8

    def test_append_gate(self):
        nl = two_line(gates=_FG01)
        assert len(nl.gates) == 1
        nl.validate()

    def test_duplicate_pin_rejected(self):
        roles = (input_role("a"), input_role("b"), const_role(0))
        with pytest.raises(FanInError):
            gates = (GateInstance(GateKind.HNG, (0, 0, 1, 2)),)
            Netlist(width=3, roles=roles, gates=gates)

    def test_out_of_range_pin(self):
        with pytest.raises(LineIndexError):
            two_line(gates=(GateInstance(GateKind.FG, (0, 5)),))

    def test_pdfa_gate_sequence_validates(self):
        nl = build_pdfa()
        rebuilt = Netlist(
            width=nl.width,
            roles=nl.roles,
            gates=tuple(GateInstance(g.kind, g.pins, g.stage) for g in nl.gates),
        )
        rebuilt.validate()
        assert rebuilt.gates == nl.gates

    def test_plain_tuple_records_become_records(self):
        nl = Netlist(
            2, (("input", "a"), ("const0", None)), gates=((GateKind.FG, (0, 1), None),)
        )
        assert nl == two_line(gates=_FG01)
        assert [type(r) for r in nl.roles] == [LineRole, LineRole]
        assert type(nl.gates[0]) is GateInstance
        assert nl.input_lines() == [0]
        assert compile_netlist(nl).inputs == (0,)
        assert check_permutation(nl)
        assert deserialize(serialize(nl)) == nl

    @pytest.mark.parametrize(
        "roles,gates,outputs",
        [
            ([["input", "a"], ["const0", None]], [[GateKind.FG, (0, 1), None]],
             [["q", 1]]),
            (iter([("input", "a"), ["const0", None]]),
             [(GateKind.FG, (0, 1), None)], (["q", 1],)),
        ],
        ids=["lists", "mixed"],
    )
    def test_lists_and_tuples_make_the_record_netlist(self, roles, gates, outputs):
        nl = Netlist(2, roles, gates, outputs)
        records = two_line(gates=_FG01, outputs=(("q", 1),))
        assert nl == records
        assert serialize(nl) == serialize(records)
        assert (nl.outputs.names, nl.outputs.lines) == (("q",), (1,))

    def test_records_kept_as_they_are(self):
        nl = build_pdfa()
        rebuilt = Netlist(nl.width, nl.roles, nl.gates, nl.outputs, nl.restored)
        assert rebuilt.roles is nl.roles and rebuilt.gates is nl.gates


class TestDesignation:
    def test_pdfa_garbage_count(self):
        assert len(build_pdfa().garbage_lines()) == 4

    def test_no_designation_all_garbage(self):
        nl = two_line(gates=_FG01)
        assert nl.garbage_lines() == [0, 1]

    def test_restored_const_rejected(self):
        with pytest.raises(DesignationError):
            two_line(outputs=(("q", 0),), restored={1})

    def test_named_and_restored_conflict(self):
        with pytest.raises(DesignationError):
            two_line(outputs=(("q", 0),), restored={0})

    def test_duplicate_names_rejected(self):
        roles = (input_role("a"), input_role("b"))
        with pytest.raises(DesignationError):
            Netlist(width=2, roles=roles, outputs=(("q", 0), ("q ", 0)))


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
        nl = two_line(outputs=(("a_out", 0),))
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

    @pytest.mark.parametrize(
        "copy_of",
        (lambda nl: pickle.loads(pickle.dumps(nl)), copy.deepcopy),
        ids=("pickle", "deepcopy"),
    )
    @pytest.mark.parametrize(
        "make",
        (
            build_pdfa,
            lambda: build_dec_rca(4),
            lambda: build_dec_csk(4),
            lambda: two_line(
                gates=_FG01,
                outputs=(_Output("y", 1),),
                restored=frozenset({0}),
            ),
        ),
        ids=("pdfa", "dec-rca-4", "dec-csk-4", "records"),
    )
    def test_copies_equal_the_original(self, make, copy_of):
        """A pickled or deep-copied netlist equals its original, hashes
        alike and keeps its column views."""
        nl = make()
        back = copy_of(nl)
        assert back == nl and hash(back) == hash(nl)
        for field in ("roles", "gates", "outputs"):
            assert type(getattr(back, field)) is type(getattr(nl, field))
        assert serialize(back) == serialize(nl)

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

    @pytest.mark.parametrize("opener", ("[", '{"a": '))
    def test_nesting_past_the_recursion_limit(self, opener):
        with pytest.raises(NetlistFormatError, match="nested too deeply"):
            deserialize(opener * 100_000)

    @pytest.mark.parametrize(
        "text",
        [
            '{"width": 1' + "0" * 5000 + "}",
            '{"width": 2, "gates": [{"kind": "FG", "pins": [0, 1' + "0" * 5000 + "]}]}",
        ],
        ids=["width", "pin"],
    )
    def test_integer_past_the_int_str_limit(self, text):
        """A 5,001-digit JSON integer is a format error that does not
        suggest raising the interpreter's digit limit."""
        with pytest.raises(NetlistFormatError, match="JSON integer longer than") as exc:
            deserialize(text)
        assert "set_int_max_str_digits" not in str(exc.value)

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
            {"lines": [dict(_LINE_A, label=""), _LINE_K]},
            {"gates": [{"kind": "FG", "pins": [False, 1]}]},
            {"gates": [{"kind": "FG", "pins": [0, 1], "stage": 3}]},
            {"outputs": [{"name": "out", "line": True}]},
            {"outputs": [{"name": 7, "line": 1}]},
            {"restored": [False]},
        ],
        ids=[
            "lines-entry-int", "lines-int", "gates-int", "gates-entry-int",
            "outputs-int", "outputs-entry-int", "width-bool", "width-huge",
            "index-bool", "label-int", "input-label-null", "input-label-empty",
            "pin-bool",
            "stage-int", "output-line-bool", "output-name-int", "restored-bool",
        ],
    )
    def test_rejected(self, fields):
        with pytest.raises(NetlistFormatError):
            deserialize(_doc(**fields))

    @pytest.mark.parametrize(
        "lines",
        [
            [_LINE_A, dict(_LINE_K, index=0)],
            [_LINE_A, dict(_LINE_K, index=2)],
            [_LINE_A, dict(_LINE_K, index="1")],
            [_LINE_A, {"index": 1, "label": None}],
            [_LINE_A, 7],
        ],
        ids=["index-twice", "index-past-count", "index-str", "role-missing",
             "entry-int"],
    )
    def test_bad_line_named(self, lines):
        """The column mapping names the entry at fault, as a loop would."""
        with pytest.raises(NetlistFormatError, match=r"^lines\[1\]: "):
            deserialize(_doc(lines=lines))

    @pytest.mark.parametrize(
        "gate",
        [
            {"kind": "XYZ", "pins": [0, 1]},
            {"kind": "FG", "pins": 5},
            {"kind": "FG"},
            7,
        ],
        ids=["unknown-kind", "pins-int", "pins-missing", "entry-int"],
    )
    def test_bad_gate_named(self, gate):
        fg = {"kind": "FG", "pins": [0, 1], "stage": None}
        with pytest.raises(NetlistFormatError, match=r"^gates\[2\]: "):
            deserialize(_doc(gates=[fg, fg, gate]))

    def test_reversed_lines_read_back_equal(self):
        import json

        nl = build_dec_csk(2)
        doc = json.loads(serialize(nl))
        doc["lines"].reverse()
        assert deserialize(json.dumps(doc)) == nl

    @pytest.mark.parametrize(
        "gate",
        [
            {"kind": "FG", "pins": [1, 1]},
            {"kind": "HNG", "pins": [0, 1, 0, 1]},
            {"kind": "PG", "pins": [0, 1]},
            {"kind": "NOT", "pins": [0, 1]},
            {"kind": "FG", "pins": []},
            {"kind": "XYZ", "pins": [0, 1]},
            {"kind": None, "pins": [0, 1]},
            {"kind": ["FG"], "pins": [0, 1]},
            {"kind": "fg", "pins": [0, 1]},
        ],
        ids=[
            "repeated-pin", "repeated-pin-hng", "too-few-pins", "too-many-pins",
            "no-pins", "unknown-kind", "kind-null", "kind-list", "kind-lowercase",
        ],
    )
    def test_gate_structure_rejected(self, gate):
        with pytest.raises(NetlistFormatError):
            deserialize(_doc(gates=[gate]))


# Documents with one 4,000-digit int or 5,000-character text where a value
# goes, and how the error names that value.
_BIG = 10**3999
HOSTILE_DOCUMENTS = {
    "width": (_doc(width=_BIG), "a 4000-digit value"),
    "pin": (_doc(gates=[{"kind": "FG", "pins": [0, _BIG]}]), "a 4000-digit value"),
    "label": (_doc(lines=[dict(_LINE_A, label=_BIG), _LINE_K]), "a 4000-digit value"),
    "index": (_doc(lines=[_LINE_A, dict(_LINE_K, index=_BIG)]), "a 4000-digit value"),
    "restored": (_doc(restored=[_BIG]), "a 4000-digit value"),
    "output-line": (
        _doc(outputs=[{"name": "out", "line": _BIG}]), "a 4000-digit value"
    ),
    "gate-kind": (
        _doc(gates=[{"kind": "K" * 5000, "pins": [0, 1]}]), "a 5000-character value"
    ),
    "role": (
        _doc(lines=[dict(_LINE_A, role="r" * 5000), _LINE_K]), "a 5000-character value"
    ),
}


class TestHostileValues:
    """A huge value is named by its length, in a short typed error."""

    @pytest.mark.parametrize("name", HOSTILE_DOCUMENTS)
    def test_document_value_named_by_its_length(self, name):
        text, named = HOSTILE_DOCUMENTS[name]
        with pytest.raises(NetlistFormatError) as info:
            deserialize(text)
        assert named in str(info.value) and len(str(info.value)) <= 120

    @pytest.mark.parametrize(
        "fields",
        [
            dict(width=10**5000, roles=[]),
            dict(width=2, roles=_TWO_LINES, gates=[(GateKind.FG, (0, 10**5000))]),
            dict(width=2, roles=_TWO_LINES,
                 gates=[(GateKind.FG, (10**5000, 10**5000))]),
        ],
        ids=["width", "pin", "repeated-pin"],
    )
    def test_huge_int_is_a_typed_error(self, fields):
        with pytest.raises(RevbcdError) as info:
            Netlist(**fields)
        assert len(str(info.value)) <= 120


_THREE_LINES = (input_role("a"), input_role("b"), const_role(0))


class TestValidateGates:
    """Netlist(...) rejects a bad gate wherever it sits in the list."""

    @pytest.mark.parametrize(
        "kind,pins,stage,error",
        [
            (GateKind.FG, (0,), None, ArityError),
            (GateKind.HNG, (0, 1, 2), None, ArityError),
            (GateKind.NOT, (0, 1), None, ArityError),
            (GateKind.FG, (1, 1), None, FanInError),
            (GateKind.PG, (0, 2, 0), None, FanInError),
            (GateKind.FG, (0, 3), None, LineIndexError),
            (GateKind.NOT, (-1,), None, LineIndexError),
            (GateKind.FG, (0, 1.0), None, InvalidArgumentError),
            (GateKind.FG, (False, True), None, InvalidArgumentError),
            (GateKind.FG, (0, 1), 3, InvalidArgumentError),
            (GateKind.FG, (0, [1]), None, InvalidArgumentError),
            (GateKind.FG, [0, 1], None, InvalidArgumentError),
            (["FG"], (0, 1), None, InvalidArgumentError),
            ("XYZ", (0, 1), None, InvalidArgumentError),
        ],
        ids=[
            "fg-one-pin", "hng-three-pins", "not-two-pins", "fg-repeat",
            "pg-repeat", "pin-past-width", "pin-negative", "pin-float",
            "pins-bool", "stage-int", "pin-unhashable", "pins-list",
            "kind-unhashable", "kind-unknown",
        ],
    )
    def test_bad_gate_rejected(self, kind, pins, stage, error):
        """Each error names the gate's position."""
        good = GateInstance(GateKind.FG, (0, 1))
        with pytest.raises(error, match=r"^gates\[1\]: "):
            Netlist(
                width=3,
                roles=_THREE_LINES,
                gates=(good, GateInstance(kind, pins, stage), good),
            )

    @pytest.mark.parametrize(
        "record",
        [(GateKind.FG, (0, 1)), 5, (GateKind.FG, (0, 1), None, "x")],
        ids=["two-fields", "int", "four-fields"],
    )
    def test_malformed_record_rejected(self, record):
        good = GateInstance(GateKind.FG, (0, 1))
        with pytest.raises(InvalidArgumentError, match=r"^gates\[1\]: .* record$"):
            Netlist(width=3, roles=_THREE_LINES, gates=(good, record, good))

    def test_good_gates_accepted(self):
        gates = (
            GateInstance(GateKind.PG, (0, 1, 2), "s"),
            GateInstance(GateKind.NOT, (2,)),
        )
        nl = Netlist(width=3, roles=_THREE_LINES, gates=gates)
        assert nl.gates == gates


class TestValidateLines:
    """Netlist(...) checks every line role; the role records check nothing."""

    @pytest.mark.parametrize(
        "roles",
        [
            [("input", None), ("const0", None)],
            [("input", ""), ("const0", None)],
            [("wire", "a"), ("const0", None)],
            [("input", "a"), ("input", "a")],
            [("const0", "k"), ("const1", "k")],
            [("input", "a"), ("input", 7)],
            [("input", "a"), ("const0", 7)],
            [("input", "a"), ("const1", ["k"])],
        ],
        ids=["input-label-none", "input-label-empty", "unknown-role",
             "duplicate-input-label", "duplicate-const-label", "input-label-int",
             "const-label-int", "const-label-unhashable"],
    )
    def test_bad_roles_rejected(self, roles):
        with pytest.raises(InvalidArgumentError, match=r"^line \d: "):
            Netlist(width=2, roles=tuple(LineRole(*r) for r in roles))

    @pytest.mark.parametrize(
        "role",
        [5, ("input",), ("const0", "k", "x")],
        ids=["int", "one-field", "three-fields"],
    )
    def test_malformed_role_rejected(self, role):
        with pytest.raises(InvalidArgumentError, match=r"^line 1: .* record$"):
            Netlist(width=2, roles=(input_role("a"), role))

    def test_malformed_role_named_before_the_width(self):
        """Records are made before any rule is checked."""
        with pytest.raises(InvalidArgumentError, match=r"^line 0: 5 is not a"):
            Netlist(width=True, roles=(5,))

    @pytest.mark.parametrize(
        "width", (True, False, -1, 2.0, "2", None), ids=repr
    )
    def test_bad_width_rejected(self, width):
        roles = (input_role("a"), const_role(0))[: 1 if width is True else 2]
        with pytest.raises(InvalidArgumentError, match="^width must be"):
            Netlist(width=width, roles=roles)

    def test_unlabelled_constants_accepted(self):
        nl = Netlist(width=3, roles=(input_role("a"), const_role(0), const_role(1)))
        assert nl.const_lines() == [1, 2]


class TestValidateDesignations:
    """Netlist(...) checks every output and restored entry, types included."""

    @pytest.mark.parametrize(
        "outputs,restored,error",
        [
            ((("q", 1), ("q", 0)), (), DesignationError),
            ((("q", 2),), (), LineIndexError),
            ((), (2,), LineIndexError),
            (((7, 1),), (), InvalidArgumentError),
            ((("q", True),), (), InvalidArgumentError),
            ((("q", 1.0),), (), InvalidArgumentError),
            ((([1], 1),), (), InvalidArgumentError),
            ((("q", [1]),), (), InvalidArgumentError),
            ((), [False], InvalidArgumentError),
            ((), [0.0], InvalidArgumentError),
            ((), [[0]], InvalidArgumentError),
        ],
        ids=[
            "name-twice", "output-past-width", "restored-past-width", "name-int",
            "line-bool", "line-float", "name-unhashable", "line-unhashable",
            "restored-bool", "restored-float", "restored-unhashable",
        ],
    )
    def test_bad_designation_rejected(self, outputs, restored, error):
        with pytest.raises(error):
            two_line(outputs=outputs, restored=restored)

    @pytest.mark.parametrize(
        "outputs,match",
        [
            ((("x",),), r"^outputs\[0\]: "),
            ((5,), r"^outputs\[0\]: "),
            ((("q", 1), ("r", 0, "x")), r"^outputs\[1\]: "),
            (5, r"^outputs must be iterable"),
        ],
        ids=["one-field", "entry-int", "three-fields", "outputs-int"],
    )
    def test_malformed_output_rejected(self, outputs, match):
        with pytest.raises(InvalidArgumentError, match=match):
            two_line(outputs=outputs)

    @pytest.mark.parametrize("field", ["roles", "gates", "restored"])
    def test_non_iterable_field_rejected(self, field):
        fields = {"width": 2, "roles": _TWO_LINES, field: 5}
        with pytest.raises(InvalidArgumentError, match=f"^{field} must be iterable"):
            Netlist(**fields)

    def test_restored_iterable_is_frozen(self):
        nl = two_line(outputs=(("q", 1),), restored=(line for line in [0]))
        assert nl.restored == frozenset({0})


class TestRecordColumns:
    """Entries that are not records yet are made records a whole column
    at once, as `_make` makes each one; a loop names a bad entry."""

    WIDTH = 6
    ROLES = tuple(input_role(f"x{i}") for i in range(WIDTH))
    PAIRS = tuple((f"o{i}", i) for i in range(WIDTH))
    GATES = tuple((GateKind.FG, (i, i + 1), "s") for i in range(WIDTH - 1))

    def make(self, **fields):
        return Netlist(**{"width": self.WIDTH, "roles": self.ROLES, **fields})

    def test_plain_pairs_equal_output_records(self):
        plain = self.make(outputs=self.PAIRS, gates=self.GATES)
        lists = self.make(outputs=[list(p) for p in self.PAIRS], gates=self.GATES)
        records = self.make(
            outputs=tuple(_Output(*p) for p in self.PAIRS),
            gates=tuple(GateInstance(*g) for g in self.GATES),
        )
        assert plain == lists == records
        for nl in (plain, lists):
            assert all(type(o) is _Output for o in nl.outputs)
            assert all(type(g) is GateInstance for g in nl.gates)
        assert serialize(plain) == serialize(records)

    def test_plain_roles_equal_line_records(self):
        plain = Netlist(self.WIDTH, tuple(map(tuple, self.ROLES)))
        assert plain == self.make()
        assert all(type(r) is LineRole for r in plain.roles)

    @pytest.mark.parametrize(
        "bad,shown",
        [(("x",), "('x',)"), (5, "5"), (("q", 1, 2), "('q', 1, 2)"), ([], "()")],
        ids=["one-field", "entry-int", "three-fields", "empty-list"],
    )
    @pytest.mark.parametrize("at", [0, 3, 5])
    def test_one_malformed_output_is_named(self, bad, shown, at):
        outputs = list(self.PAIRS)
        outputs[at] = bad
        with pytest.raises(InvalidArgumentError) as err:
            self.make(outputs=outputs)
        assert str(err.value) == f"outputs[{at}]: {shown} is not a (name, line) pair"

    @pytest.mark.parametrize(
        "bad", [(GateKind.FG, (0, 1)), 7, (GateKind.FG, (0, 1), "s", "t")],
        ids=["two-fields", "entry-int", "four-fields"],
    )
    @pytest.mark.parametrize("at", [0, 2, 4])
    def test_one_malformed_gate_is_named(self, bad, at):
        gates = list(self.GATES)
        gates[at] = bad
        with pytest.raises(InvalidArgumentError) as err:
            self.make(gates=gates)
        assert str(err.value) == f"gates[{at}]: {bad!r} is not a (kind, pins, stage) record"

    def test_first_malformed_entry_is_named(self):
        outputs = list(self.PAIRS)
        outputs[2], outputs[4] = ("x",), 5
        with pytest.raises(InvalidArgumentError, match=r"^outputs\[2\]: \('x',\) "):
            self.make(outputs=outputs)


def old_document(nl) -> dict:
    """The document serialize has always written, as a plain dict."""
    return {
        "width": nl.width,
        "lines": [
            {"index": i, "role": r.kind, "label": r.label}
            for i, r in enumerate(nl.roles)
        ],
        "gates": [
            {"kind": g.kind.value, "pins": list(g.pins), "stage": g.stage}
            for g in nl.gates
        ],
        "outputs": [{"name": n, "line": l} for n, l in nl.outputs],
        "restored": sorted(nl.restored),
    }


_ODD_LABELS = ('say "hi"', "two\nlines", "naïve ✓ 𝄞", "back\\slash\t", "\x00")


def edge_empty():
    """No gates, no outputs, nothing restored; labels that need escaping."""
    roles = [input_role(label) for label in _ODD_LABELS]
    roles += [const_role(0), const_role(1, '"quoted"\n'), const_role(0, "é")]
    return Netlist(width=len(roles), roles=tuple(roles))


def edge_stages():
    """Gates with and without stage tags, escaped stage and output names,
    and a restored set that a set iterates out of order."""
    roles = (input_role("x"), input_role('y"'), const_role(0), const_role(1, None))
    roles += tuple(input_role(f"i{k}") for k in range(4, 10))
    gates = (
        GateInstance(GateKind.FG, (0, 2), None),
        GateInstance(GateKind.PG, (0, 1, 3), 'st"age\n'),
        GateInstance(GateKind.NOT, (2,), "ünï"),
        GateInstance(GateKind.DFG, (1, 2, 3), None),
    )
    return Netlist(
        width=10,
        roles=roles,
        gates=gates,
        outputs=(("ø\"ut", 2), ("o\n2", 3)),
        restored=frozenset({8, 1, 0}),
    )


BYTE_FORMAT_CASES = ALL_BUILDERS + [
    ("dec-rca-64", lambda: build_dec_rca(64)),
    ("dec-csk-64", lambda: build_dec_csk(64)),
    ("edge-empty", edge_empty),
    ("edge-stages", edge_stages),
]


class TestByteFormat:
    """serialize writes exactly json.dumps(document, indent=2) plus a newline."""

    @pytest.mark.parametrize(
        "name,builder", BYTE_FORMAT_CASES, ids=[n for n, _ in BYTE_FORMAT_CASES]
    )
    def test_layout_is_json_dumps_indent_2(self, name, builder):
        import json

        nl = builder()
        text = serialize(nl)
        assert text == json.dumps(old_document(nl), indent=2) + "\n"
        assert text.isascii()
        assert deserialize(text) == nl

    def test_text_is_copied_once(self):
        """serialize joins its pieces once: its peak memory stays below
        three times the text (nested joins copied it several times)."""
        import tracemalloc

        nl = build_dec_csk(64)
        tracemalloc.start()
        try:
            text = serialize(nl)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * len(text)
