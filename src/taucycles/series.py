"""Truncated generating series with cycle-sum coefficients.

A series of order ``N`` stores one homogeneous cycle sum per degree
``0..N``.  The degree-``n`` coefficient may only contain basis cycles of
grade ``n``; mixing grades inside one coefficient is rejected outright.
Multiplication is the Cauchy product truncated at ``N``.  The inverse of
a series ``A`` with ``A_0 = 1`` is the power-series reciprocal, one pass
of the recurrence ``B_0 = 1``, ``B_k = -sum_{i=1..k} A_i B_{k-i}`` (Knuth,
TAOCP vol. 2, 4.7): about the work of one Cauchy product.
"""

from __future__ import annotations

from collections.abc import Sequence

from .cycle_algebra import CycleSum, _accumulate_product, _from_raw, _grouped, unit
from .errors import ArgumentError

__all__ = ["CycleSeries", "series_one", "series_inverse"]


class CycleSeries:
    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Sequence[CycleSum]):
        sums = tuple(coeffs)
        if not sums:
            raise ArgumentError("a series needs at least the degree-zero coefficient")
        for n, s in enumerate(sums):
            if not isinstance(s, CycleSum):
                raise ArgumentError(f"coefficient {n} must be a CycleSum, got {type(s).__name__}")
            bad = [g for g in s.grades() if g != n]
            if bad:
                raise ArgumentError(
                    f"degree-{n} coefficient contains grade-{bad[0]} terms"
                )
        self._coeffs = sums

    @classmethod
    def _trusted(cls, sums: tuple[CycleSum, ...]) -> "CycleSeries":
        # sums: nonempty, the degree-n entry homogeneous of grade n
        self = object.__new__(cls)
        self._coeffs = sums
        return self

    @property
    def max_degree(self) -> int:
        return len(self._coeffs) - 1

    def coefficient(self, n: int) -> CycleSum:
        if not 0 <= n <= self.max_degree:
            raise ArgumentError(
                f"degree {n} outside the stored range 0..{self.max_degree}"
            )
        return self._coeffs[n]

    def coefficients(self) -> tuple[CycleSum, ...]:
        return self._coeffs

    def truncate(self, n: int) -> "CycleSeries":
        if not 0 <= n <= self.max_degree:
            raise ArgumentError(
                f"cannot truncate to degree {n}, stored range is 0..{self.max_degree}"
            )
        return CycleSeries._trusted(self._coeffs[: n + 1])

    def _check_same_order(self, other: "CycleSeries") -> None:
        if self.max_degree != other.max_degree:
            raise ArgumentError(
                f"series orders differ: {self.max_degree} vs {other.max_degree}"
            )

    def __add__(self, other: "CycleSeries") -> "CycleSeries":
        if not isinstance(other, CycleSeries):
            return NotImplemented
        self._check_same_order(other)
        return CycleSeries._trusted(tuple(a + b for a, b in zip(self._coeffs, other._coeffs)))

    def __sub__(self, other: "CycleSeries") -> "CycleSeries":
        if not isinstance(other, CycleSeries):
            return NotImplemented
        self._check_same_order(other)
        return CycleSeries._trusted(tuple(a - b for a, b in zip(self._coeffs, other._coeffs)))

    def __neg__(self) -> "CycleSeries":
        return CycleSeries._trusted(tuple(-a for a in self._coeffs))

    def __mul__(self, other: "CycleSeries") -> "CycleSeries":
        if not isinstance(other, CycleSeries):
            return NotImplemented
        self._check_same_order(other)
        left = [_grouped(c.terms()) for c in self._coeffs]
        right = left if other is self else [_grouped(c.terms()) for c in other._coeffs]
        out = []
        for k in range(self.max_degree + 1):
            acc: dict = {}
            for i in range(k + 1):
                if left[i] and right[k - i]:
                    _accumulate_product(acc, left[i], right[k - i])
            out.append(_from_raw(acc))
        return CycleSeries._trusted(tuple(out))

    def __pow__(self, k: int) -> "CycleSeries":
        if not isinstance(k, int) or isinstance(k, bool) or k < 0:
            raise ArgumentError(f"exponent must be a nonnegative integer, got {k!r}")
        out = series_one(self.max_degree)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def inverse(self) -> "CycleSeries":
        return series_inverse(self)

    def render(self) -> str:
        """One line per degree, bottom degree first."""
        return "\n".join(c.render() for c in self._coeffs)

    def latex(self) -> str:
        lines = [r"\begin{align*}"]
        for n, c in enumerate(self._coeffs):
            lines.append(f"S_{{{n}}} &= {c.latex()} \\\\")
        lines.append(r"\end{align*}")
        return "\n".join(lines)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CycleSeries) and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __repr__(self) -> str:
        inner = "; ".join(c.render() for c in self._coeffs)
        return f"CycleSeries[{inner}]"


def series_one(max_degree: int) -> CycleSeries:
    """The multiplicative identity up to ``max_degree``."""
    if not isinstance(max_degree, int) or isinstance(max_degree, bool) or max_degree < 0:
        raise ArgumentError(f"max_degree must be a nonnegative integer, got {max_degree!r}")
    return CycleSeries._trusted((unit(),) + (CycleSum.zero(),) * max_degree)


def series_inverse(series: CycleSeries) -> CycleSeries:
    """Inverse of a series with constant coefficient one, truncated at its order."""
    if series.coefficient(0) != unit():
        raise ArgumentError("only series with constant coefficient 1 are invertible here")
    a = [_grouped(c.terms()) for c in series.coefficients()]
    b = [a[0]]
    out = [unit()]
    for k in range(1, len(a)):
        acc: dict = {}
        for i in range(1, k + 1):
            if a[i] and b[k - i]:
                _accumulate_product(acc, a[i], b[k - i])
        out.append(-_from_raw(acc))
        b.append(_grouped(out[k].terms()))
    return CycleSeries._trusted(tuple(out))
