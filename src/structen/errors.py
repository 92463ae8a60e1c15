"""Exception types shared across the package.

Each class carries the CLI exit code it maps to, `exit_code`: parse errors
(`GraphParseError`, 1), invariant violations (`InvariantViolation`, 2) and
size guards (`SizeGuardExceeded`, 3).  The CLI reads the code from the
error it catches; an unreadable file (`OSError`) also exits 1.
"""


class StructenError(ValueError):
    """An input the contract does not allow; `exit_code` is the CLI's."""


class GraphParseError(StructenError):
    """An input document (edge list, CSV, JSON) is malformed."""

    exit_code = 1


class InvariantViolation(StructenError):
    """A structural invariant or operation precondition is violated."""

    exit_code = 2


class SizeGuardExceeded(StructenError):
    """An exact enumeration was refused because the input is too large."""

    exit_code = 3
