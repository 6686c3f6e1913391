"""Error taxonomy shared across the package.

Every failure is one of three kinds: the caller passed something
malformed (ArgumentError), the inputs are well formed but violate a
documented hypothesis (PreconditionError), or the library caught itself
producing inconsistent results (ConsistencyError).  The command line
maps these to exit codes 2, 3 and 4.
"""

__all__ = ["ArgumentError", "PreconditionError", "ConsistencyError"]


class ArgumentError(ValueError):
    """Malformed or out-of-domain argument.  CLI exit code 2."""

    exit_code = 2


class PreconditionError(ValueError):
    """Well-formed input outside a documented hypothesis.  CLI exit code 3."""

    exit_code = 3


class ConsistencyError(RuntimeError):
    """Two routes to the same value disagreed, or an exact division failed.

    Always a bug in the library (or a falsified identity), never a user
    mistake.  CLI exit code 4.
    """

    exit_code = 4


def exact_div(numerator: int, denominator: int) -> int:
    """Integer division that refuses to round."""
    quotient, remainder = divmod(numerator, denominator)
    if remainder != 0:
        raise ConsistencyError(
            f"inexact division: {numerator} / {denominator} leaves remainder {remainder}"
        )
    return quotient


_INTEGER_KINDS = {None: "an integer", 0: "a nonnegative integer", 1: "a positive integer"}


def decimal_int(text: str) -> int:
    """``int(text)`` for an optional ``-`` and ASCII digits only; ValueError otherwise.

    Unlike ``int``, it refuses underscores, a ``+``, whitespace and non-ASCII
    digits, so input means what the documented notation says.
    """
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not a decimal integer: {text!r}")
    return int(text)


def check_int(value: object, what: str, least: int | None = None) -> None:
    """Refuse anything but an int (a bool is not one) that is at least ``least``, if given."""
    if not isinstance(value, int) or isinstance(value, bool) or least is not None and value < least:
        raise ArgumentError(f"{what} must be {_INTEGER_KINDS[least]}, got {value!r}")
