"""Truncated generating series with cycle-sum coefficients.

A series of order ``N`` stores one homogeneous cycle sum per degree
``0..N``.  The degree-``n`` coefficient may only contain basis cycles of
grade ``n``; mixing grades inside one coefficient is rejected outright.
Multiplication is the Cauchy product truncated at ``N``.  A power ``A^k``
is a fold of products by ``A`` for ``k <= 2(N + 1)``; above that it is the
square of ``A^(k//2)``, times ``A`` if ``k`` is odd, so a power takes
``O(N + log k)`` products.  The inverse of a series ``A`` with ``A_0 = 1``
is the power-series reciprocal, one pass of the recurrence ``B_0 = 1``,
``B_k = -sum_{i=1..k} A_i B_{k-i}`` (Knuth, TAOCP vol. 2, 4.7): about the
work of one Cauchy product.  Products and the inverse read and build the
raw stores of the cycle sums directly, so no basis object is made.
"""

from __future__ import annotations

from collections.abc import Sequence

from .cycle_algebra import CycleSum, _accumulate_product, _from_raw, unit
from .errors import ArgumentError, check_int

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
        left = [c._raw for c in self._coeffs]
        right = [c._raw for c in other._coeffs]
        out = []
        for k in range(self.max_degree + 1):
            acc: dict = {}
            for i in range(k + 1):
                if left[i] and right[k - i]:
                    _accumulate_product(acc, left[i], right[k - i])
            out.append(CycleSum._trusted(_from_raw(acc)))
        return CycleSeries._trusted(tuple(out))

    def __pow__(self, k: int) -> "CycleSeries":
        check_int(k, "exponent", 0)
        if not k:
            return series_one(self.max_degree)
        if k > 2 * (self.max_degree + 1):
            # a fold would take k - 1 products; past about twice the order a
            # dense square costs less than the fold steps it saves
            half = self ** (k // 2)
            out = half * half
            return out * self if k % 2 else out
        out = self
        for _ in range(k - 1):
            out = out * self
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
    check_int(max_degree, "max_degree", 0)
    return CycleSeries._trusted((unit(),) + (CycleSum.zero(),) * max_degree)


def series_inverse(series: CycleSeries) -> CycleSeries:
    """Inverse of a series with constant coefficient one, truncated at its order."""
    if series.coefficient(0) != unit():
        raise ArgumentError("only series with constant coefficient 1 are invertible here")
    a = [c._raw for c in series.coefficients()]
    out = [unit()]
    for k in range(1, len(a)):
        acc: dict = {}
        for i in range(1, k + 1):
            if a[i] and out[k - i]._raw:
                _accumulate_product(acc, a[i], out[k - i]._raw)
        out.append(-CycleSum._trusted(_from_raw(acc)))
    return CycleSeries._trusted(tuple(out))
