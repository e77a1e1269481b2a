"""Exception types shared across the toolkit, and how an error names a value."""


def shown(text: str) -> str:
    """`text` as an error names it: quoted, or past 40 characters by its
    length, so a huge value cannot flood stderr."""
    return repr(text) if len(text) <= 40 else f"a {len(text)}-character value"


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
