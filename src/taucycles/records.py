"""Immutable records, and the tame sheaf descriptor built on them.

The descriptor is all the curve-side numerology in ``geometry`` needs, so
it lives apart from the series machinery of ``sheaves``: a run that only
asks about acyclicity loads neither ``sheaves`` nor ``cycle_algebra``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .divisors import Divisor
from .errors import ArgumentError, PreconditionError, check_int

if TYPE_CHECKING:
    from .series import CycleSeries

__all__ = ["SheafDescriptor"]


class _FrozenRecord:
    """Immutable record over ``__slots__``, read as its fields in order.

    Equality, hash and repr follow the fields the way a frozen dataclass
    does, and assignment raises AttributeError.  ``geometry`` builds its
    reports on it.
    """

    __slots__ = ()

    def _fill(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


class SheafDescriptor(_FrozenRecord):
    """Tame sheaf datum: generic rank and the drop of invariants at each bad point.

    The drop at a point counts the vanishing cycles there and can never
    exceed the generic rank.
    """

    __slots__ = ("rank", "drops")

    def __init__(self, rank: int, drops: Divisor) -> None:
        check_int(rank, "rank", 1)
        if not isinstance(drops, Divisor):
            raise ArgumentError("drops must be a Divisor")
        for name, a in drops.items():
            if a > rank:
                raise PreconditionError(f"drop {a} at point {name!r} exceeds the rank {rank}")
        self._fill(rank, drops)

    def direct_sum(self, other: "SheafDescriptor") -> "SheafDescriptor":
        return SheafDescriptor(self.rank + other.rank, self.drops + other.drops)

    def series(self, max_degree: int) -> CycleSeries:
        from .sheaves import s_tame  # here, so that geometry loads no series code

        return s_tame(self.rank, self.drops, max_degree)
