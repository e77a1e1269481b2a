"""Exception types shared across the toolkit, how an error names a value,
and the one rule for a count."""


def shown(value: object, form=repr) -> str:
    """`value` as an error names it: `form(value)` (repr: a text quoted),
    or past 40 characters by that length, an int by its digits (counted
    without str()), so a huge value cannot flood stderr."""
    if isinstance(value, int) and not -(10**39) < value < 10**40:
        size = abs(value)
        digits = size.bit_length() * 30103 // 100000 + 1  # log10(2) < 0.30103
        while size < 10 ** (digits - 1):
            digits -= 1
        return f"a {digits + (value < 0)}-digit value"
    try:
        text = str(value)
    except ValueError:  # say, a tuple that holds an int past str()'s limit
        return "a value too large to show"
    return form(value) if len(text) <= 40 else f"a {len(text)}-character value"


def positive(value: object, what: str) -> int:
    """`value` as a count: an int, not a bool, of at least 1."""
    if type(value) is not int:
        raise InvalidArgumentError(f"{what} must be an int, got {shown(value)}")
    if value < 1:
        raise InvalidArgumentError(f"{what} must be at least 1")
    return value


class RevbcdError(Exception):
    """Base class for all toolkit errors."""


class ArityError(RevbcdError, ValueError):
    """Gate input width does not match the gate's arity."""


class FanInError(RevbcdError, ValueError):
    """A gate instance names the same line on two pins."""


class LineIndexError(RevbcdError, IndexError):
    """A pin or designation refers to a line outside the netlist."""


class InvalidArgumentError(RevbcdError, ValueError):
    """Structurally invalid argument (zero width, zero digits, ...)."""


class DesignationError(RevbcdError, ValueError):
    """Invalid output/restored designation."""


class NetlistFormatError(RevbcdError, ValueError):
    """Malformed netlist document."""


class AssignmentError(RevbcdError, ValueError):
    """Missing or unknown primary-input assignment."""


class CapacityError(RevbcdError, ValueError):
    """Exhaustive bound or numeric width exceeded."""


class MetricsUndefinedError(RevbcdError, ValueError):
    """Metrics requested on a netlist without designated outputs."""


class DecompositionError(RevbcdError, ValueError):
    """Per-stage metrics requested but the stage tagging is incomplete."""


class InvalidBCDError(RevbcdError, ValueError):
    """A digit outside 0..9 where a BCD digit is required."""


class LedgerFormatError(RevbcdError, ValueError):
    """Malformed ledger CSV content."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message if row is None else f"row {row}: {message}")
        self.row = row
