"""Error taxonomy shared across the package.

Every failure is one of three kinds: the caller passed something
malformed (ArgumentError), the inputs are well formed but violate a
documented hypothesis (PreconditionError), or the library caught itself
producing inconsistent results (ConsistencyError).  The command line
maps these to exit codes 2, 3 and 4.
"""


class ArgumentError(ValueError):
    """Malformed or out-of-domain argument.  CLI exit code 2."""


class PreconditionError(ValueError):
    """Well-formed input outside a documented hypothesis.  CLI exit code 3."""


class ConsistencyError(RuntimeError):
    """Two routes to the same value disagreed, or an exact division failed.

    Always a bug in the library (or a falsified identity), never a user
    mistake.  CLI exit code 4.
    """


EXIT_ARGUMENT = 2
EXIT_PRECONDITION = 3
EXIT_CONSISTENCY = 4


def exact_div(numerator: int, denominator: int) -> int:
    """Integer division that refuses to round."""
    quotient, remainder = divmod(numerator, denominator)
    if remainder != 0:
        raise ConsistencyError(
            f"inexact division: {numerator} / {denominator} leaves remainder {remainder}"
        )
    return quotient
