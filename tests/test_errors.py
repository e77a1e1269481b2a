"""The one count rule (`errors.positive`) at every entry point that takes a
digit count, width or sample count, and how an error names a value
(`errors.shown`)."""

import random

import pytest

from revbcd.costs import improvement, metric_value
from revbcd.designs import build_dec_csk, build_dec_rca, build_design, decimal_propagate
from revbcd.errors import InvalidArgumentError, RevbcdError, shown
from revbcd.gates import GateKind, gate_semantics
from revbcd.ledger import cached_adder, decimal_text, encode, sum_ledger, text_lanes
from revbcd.netlist import Netlist, input_role
from revbcd.simulator import run
from revbcd.verify import run_scope, verify_adders

# Each entry point, with the name its count goes by in the error.
COUNTED = {
    "build_design-adder": (lambda v: build_design("dec-rca", v), "digit count"),
    "build_design-pdfa": (lambda v: build_design("pdfa", v), "digit count"),
    "build_dec_rca": (build_dec_rca, "digit count"),
    "build_dec_csk": (build_dec_csk, "digit count"),
    "cached_adder": (lambda v: cached_adder("dec-rca", v), "digit count"),
    "encode": (lambda v: encode(5, v), "width"),
    "text_lanes": (lambda v: text_lanes("12", v), "width"),
    "sum_ledger": (lambda v: sum_ledger([], width=v), "width"),
    "metric_value": (lambda v: metric_value("Dec-RCA", "qc", v), "digit count"),
    "verify_adders": (lambda v: verify_adders(samples=v), "samples"),
}


@pytest.mark.parametrize("value", (2.5, True, "3", None), ids=repr)
@pytest.mark.parametrize("site", COUNTED)
def test_a_count_that_is_no_int_is_refused(site, value):
    call, what = COUNTED[site]
    with pytest.raises(InvalidArgumentError) as info:
        call(value)
    assert str(info.value) == f"{what} must be an int, got {value!r}"


@pytest.mark.parametrize("value", (0, -1))
@pytest.mark.parametrize("site", COUNTED)
def test_a_count_below_one_is_refused(site, value):
    call, what = COUNTED[site]
    with pytest.raises(InvalidArgumentError) as info:
        call(value)
    assert str(info.value) == f"{what} must be at least 1"


def test_cached_adder_keys_by_type():
    """A port already made for an int width does not stand in for an
    equal float or bool."""
    cached_adder("dec-rca", 2)
    cached_adder("pdfa", 1)
    for design, width in (("dec-rca", 2.0), ("pdfa", True)):
        with pytest.raises(InvalidArgumentError, match="must be an int, got"):
            cached_adder(design, width)


def test_pack_names_a_huge_carry_in_by_its_digits():
    with pytest.raises(InvalidArgumentError) as info:
        cached_adder("pdfa", 1).pack("1", "2", 10**5000)
    assert str(info.value) == "carry-in must be 0 or 1, got a 5001-digit value"


def _ints():
    """Ints of up to 6,000 digits, both signs: powers of ten and their
    neighbours around the 40-character boundary and str()'s 4,300-digit
    limit, and random ints of every size class."""
    rng = random.Random(30)
    sizes = [*range(1, 46), 100, 999, 1000, 4299, 4300, 4301, 5999, 6000]
    for digits in sizes:
        power = 10 ** (digits - 1)
        yield from (power, 10 * power - 1, power + rng.randrange(9 * power))
    yield 0


@pytest.mark.parametrize("sign", (1, -1), ids=("positive", "negative"))
def test_shown_names_an_int_as_the_reference_does(sign):
    for magnitude in _ints():
        value = sign * magnitude
        text = decimal_text(value)
        want = repr(value) if len(text) <= 40 else f"a {len(text)}-digit value"
        assert shown(value) == want, len(text)


def test_shown_returns_for_a_value_str_refuses():
    named = shown((10**5000,))
    assert isinstance(named, str) and len(named) <= 40


@pytest.mark.parametrize(
    "value,want",
    [(True, "True"), ("x" * 40, repr("x" * 40)), ("x" * 41, "a 41-character value"),
     (2.5, "2.5"), ([1] * 20, "a 60-character value")],
    ids=["bool", "text-40", "text-41", "float", "list-60"],
)
def test_shown_keeps_the_character_rule_for_other_values(value, want):
    assert shown(value) == want


_LONG = "x" * 50_000
_HUGE = 10**5000
# Library calls handed a 50,000-character name or a 5,001-digit int.
HOSTILE_CALLS = {
    "build_design": lambda: build_design(_LONG),
    "metric_value-design": lambda: metric_value(_LONG, "qc", 1),
    "metric_value-metric": lambda: metric_value("Dec-RCA", _LONG, 1),
    "improvement-ns": lambda: improvement("Dec-RCA", (8,) * 20_000),
    "run_scope": lambda: run_scope(_LONG),
    "run-label": lambda: run(build_design("pdfa"), {_LONG: 1}),
    "run-missing": lambda: run(Netlist(1, [input_role(_LONG)]), {}),
    "decimal_propagate": lambda: decimal_propagate(_HUGE, 1),
    "gate_semantics": lambda: gate_semantics(GateKind.FG, (_HUGE, 0)),
}


@pytest.mark.parametrize("call", HOSTILE_CALLS)
def test_library_errors_quote_no_long_value(call):
    with pytest.raises(RevbcdError) as info:
        HOSTILE_CALLS[call]()
    assert len(str(info.value)) <= 120
