"""Effective divisors on a curve with named points.

A divisor is a finitely supported map from point names to nonnegative
integer coefficients.  Point names are short identifiers such as ``s``
or ``p1``; the parser for the ``2*s + t`` notation lives here too.
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterable, Iterator, Mapping

from .errors import ArgumentError

__all__ = ["Divisor", "subdivisors", "divisor_binomial"]

_NAME_RE = re.compile(r"[^\s:*+-][^\s:*+]*\Z")
# a name may not start with a digit either, or 2*s would be ambiguous
_LEADING_DIGIT = re.compile(r"[0-9]")


def _check_point(name: object) -> str:
    if not isinstance(name, str) or not name:
        raise ArgumentError(f"point names must be nonempty strings, got {name!r}")
    if _LEADING_DIGIT.match(name) or not _NAME_RE.match(name):
        raise ArgumentError(
            f"bad point name {name!r}: names may not start with a digit or a sign "
            "and may not contain whitespace, ':', '*' or '+'"
        )
    return name


class Divisor:
    """Immutable effective divisor.

    >>> d = Divisor({"s": 2, "t": 1})
    >>> d.degree
    3
    >>> d.pretty()
    '2*s + t'
    >>> Divisor.parse("2*s + t") == d
    True
    """

    __slots__ = ("_items", "_hash")

    def __init__(self, coeffs: Mapping[str, int] | Iterable[tuple[str, int]] = ()):
        pairs = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        merged: dict[str, int] = {}
        for name, c in pairs:
            _check_point(name)
            if not isinstance(c, int) or isinstance(c, bool) or c < 0:
                raise ArgumentError(f"coefficient of {name!r} must be a nonnegative integer, got {c!r}")
            if c:
                merged[name] = merged.get(name, 0) + c
        self._items: tuple[tuple[str, int], ...] = tuple(sorted(merged.items()))
        self._hash = hash(self._items)

    @classmethod
    def _trusted(cls, items: tuple[tuple[str, int], ...]) -> "Divisor":
        # items: sorted (valid name, positive int) pairs, as internal arithmetic produces
        self = object.__new__(cls)
        self._items = items
        self._hash = hash(items)
        return self

    @classmethod
    def zero(cls) -> "Divisor":
        return cls()

    @classmethod
    def point(cls, name: str, coeff: int = 1) -> "Divisor":
        return cls({name: coeff})

    @classmethod
    def parse(cls, text: str) -> "Divisor":
        """Parse ``2*s + t`` style input; ``0`` and the empty string mean zero."""
        stripped = text.strip()
        if stripped in ("", "0"):
            return cls()
        out: dict[str, int] = {}
        for term in stripped.split("+"):
            term = term.strip()
            if not term:
                raise ArgumentError(f"empty term in divisor {text!r}")
            coeff_text, star, name = term.partition("*")
            if star:
                try:
                    coeff = int(coeff_text.strip())
                except ValueError:
                    raise ArgumentError(f"bad coefficient in term {term!r}") from None
                name = name.strip()
            else:
                coeff = 1
                name = term
            _check_point(name)
            if coeff < 0:
                raise ArgumentError(f"divisors are effective, negative term {term!r}")
            if name in out:
                raise ArgumentError(f"point {name!r} appears twice in {text!r}")
            if coeff:
                out[name] = coeff
        return cls(out)

    def items(self) -> tuple[tuple[str, int], ...]:
        return self._items

    def coeff(self, name: str) -> int:
        for n, c in self._items:
            if n == name:
                return c
        return 0

    @property
    def support(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self._items)

    @property
    def degree(self) -> int:
        return sum(c for _, c in self._items)

    def factorial_product(self) -> int:
        """Product of factorials of the coefficients."""
        out = 1
        for _, c in self._items:
            out *= math.factorial(c)
        return out

    def __add__(self, other: "Divisor") -> "Divisor":
        if not isinstance(other, Divisor):
            return NotImplemented
        if not other._items:
            return self
        if not self._items:
            return other
        return Divisor._trusted(_sum_items(self._items, other._items))

    def __sub__(self, other: "Divisor") -> "Divisor":
        """Difference, defined only when ``other <= self`` pointwise."""
        if not isinstance(other, Divisor):
            return NotImplemented
        merged = dict(self._items)
        for n, c in other._items:
            merged[n] = merged.get(n, 0) - c
            if merged[n] < 0:
                raise ArgumentError(f"difference is not effective at point {n!r}")
        return Divisor(merged)

    def scale(self, k: int) -> "Divisor":
        if not isinstance(k, int) or isinstance(k, bool) or k < 0:
            raise ArgumentError(f"scale factor must be a nonnegative integer, got {k!r}")
        return Divisor({n: k * c for n, c in self._items})

    def leq(self, other: "Divisor") -> bool:
        """Pointwise comparison of coefficients."""
        return all(c <= other.coeff(n) for n, c in self._items)

    def canonical_text(self) -> str:
        """Uniform machine form with every coefficient explicit, e.g. ``2*s + 1*t``."""
        if not self._items:
            return "0"
        return " + ".join(f"{c}*{n}" for n, c in self._items)

    def pretty(self) -> str:
        """Human form: unit coefficients are implicit, zero divisor is ``0``."""
        if not self._items:
            return "0"
        return " + ".join(n if c == 1 else f"{c}*{n}" for n, c in self._items)

    def latex(self) -> str:
        if not self._items:
            return "0"
        return "+".join(n if c == 1 else f"{c}{n}" for n, c in self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Divisor) and self._items == other._items

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Divisor({dict(self._items)!r})"


def _sum_items(x: tuple[tuple[str, int], ...], y: tuple[tuple[str, int], ...]) -> tuple:
    """Pointwise sum of two divisors given by their sorted items."""
    if not y:
        return x
    if not x:
        return y
    merged = dict(x)
    for n, c in y:
        merged[n] = merged.get(n, 0) + c
    return tuple(sorted(merged.items()))


def subdivisors(d: Divisor) -> Iterator[Divisor]:
    """All divisors bounded by ``d`` pointwise, zero included.

    Emitted in a deterministic order graded only by the construction,
    not by degree.
    """
    names = d.support
    caps = [d.coeff(n) for n in names]

    def walk(i: int, chosen: dict[str, int]) -> Iterator[Divisor]:
        if i == len(names):
            yield Divisor(chosen)
            return
        for c in range(caps[i] + 1):
            if c:
                chosen[names[i]] = c
            yield from walk(i + 1, chosen)
            chosen.pop(names[i], None)

    yield from walk(0, {})


def divisor_binomial(top: Divisor, bottom: Divisor) -> int:
    """Product over points of binomial(top coefficient, bottom coefficient).

    Zero when ``bottom`` is not bounded by ``top``.
    """
    out = 1
    for name, c in bottom.items():
        out *= math.comb(top.coeff(name), c) if c <= top.coeff(name) else 0
    return out
