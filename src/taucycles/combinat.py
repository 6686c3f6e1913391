"""Partitions, multiplicity vectors, set partitions and the exact counts built on them.

A multiplicity vector records, for each part size i >= 1, how many parts
of that size occur.  It carries the same data as an integer partition,
and both coordinates are used throughout: partitions for tables and
labels, multiplicity vectors for the cycle algebra.

``count_m`` counts 0-1 matrices with given row and column sums, the
transition matrix from the elementary to the monomial symmetric
functions (Macdonald, I (6.6)).  Its memoised recursion fills one column
at a time.  Rows of equal sum are picked as a group, one binomial per
group, and the rows left over come out already in descending order, so
no state is sorted.  Exhaustive oracles for these counts live with the
tests.  The public functions check their arguments; the underscored
helpers take values valid by construction and check nothing.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Iterator, Mapping
from functools import lru_cache
from typing import TypeVar

from .errors import ArgumentError, check_int, decimal_int, exact_div

__all__ = [
    "MultVec",
    "conjugate",
    "partitions",
    "compositions",
    "compositions_fixed_length",
    "count_m",
    "gen_binomial",
    "set_partitions",
    "validate_partition",
]


def _check_count(size: object, count: object) -> None:
    check_int(size, "part size", 1)
    check_int(count, f"count for size {size}", 0)


class _Items:
    """A finitely supported map to positive integers, stored as sorted items.

    The one representation of ``Divisor`` and ``MultVec``.  Zero values are
    dropped on construction, so equal maps always compare equal, but a
    value equals only a value of its own class.  Instances are immutable
    and hashable, and hash as their items do.
    """

    __slots__ = ("_items", "_hash")

    def _merge(self, pairs: Mapping | Iterable[tuple], check: Callable) -> None:
        # check each pair, add up repeated keys and drop zero values
        merged: dict = {}
        for key, value in pairs.items() if isinstance(pairs, Mapping) else pairs:
            check(key, value)
            if value:
                merged[key] = merged.get(key, 0) + value
        self._items = tuple(sorted(merged.items()))
        self._hash = hash(self._items)

    @classmethod
    def _trusted(cls: type[_Self], items: tuple) -> _Self:
        # items: sorted (valid key, positive int) pairs, as internal arithmetic produces
        self = object.__new__(cls)
        self._items = items
        self._hash = hash(items)
        return self

    def items(self) -> tuple:
        return self._items

    @property
    def support(self) -> tuple:
        return tuple(k for k, _ in self._items)

    def factorial_product(self) -> int:
        """Product of the factorials of the values."""
        return _factorial_product(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self._items == other._items

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self._items)!r})"


_Self = TypeVar("_Self", bound=_Items)


class MultVec(_Items):
    """Finitely supported map {part size i >= 1} -> {count >= 1}.

    Zero counts are dropped on construction, so equal vectors always
    compare equal.  Instances are immutable and hashable.

    >>> e = MultVec({1: 2, 2: 1})
    >>> (e.length, e.weight)
    (3, 4)
    >>> e.to_partition()
    (2, 1, 1)
    >>> e.render()
    '1^2 2^1'
    """

    __slots__ = ()

    def __init__(self, counts: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        self._merge(counts, _check_count)

    @classmethod
    def from_partition(cls, parts: Iterable[int]) -> "MultVec":
        return cls._trusted(_partition_items(validate_partition(parts)))

    @classmethod
    def parse(cls, text: str) -> "MultVec":
        """Parse the ``1^2 3^1`` notation; ``""`` and ``"0"`` mean empty."""
        stripped = text.strip()
        if stripped in ("", "0"):
            return cls()
        seen: dict[int, int] = {}
        for token in stripped.split():
            base, sep, exp = token.partition("^")
            try:
                size = decimal_int(base)
                count = decimal_int(exp) if sep else 1
            except ValueError:
                raise ArgumentError(f"bad multiplicity token {token!r}, expected i^count") from None
            _check_count(size, count)
            if size in seen:
                raise ArgumentError(f"duplicate size {size} in {text!r}")
            seen[size] = count
        return cls(seen)

    @property
    def length(self) -> int:
        """Number of parts of the underlying partition."""
        return sum(c for _, c in self._items)

    @property
    def weight(self) -> int:
        """Sum of all parts, i.e. the integer being partitioned."""
        return sum(s * c for s, c in self._items)

    def to_partition(self) -> tuple[int, ...]:
        parts: list[int] = []
        for size, count in reversed(self._items):
            parts.extend([size] * count)
        return tuple(parts)

    def render(self) -> str:
        return " ".join(f"{s}^{c}" for s, c in self._items)

    def __lt__(self, other: "MultVec") -> bool:
        return self._items < other._items

    def __le__(self, other: "MultVec") -> bool:
        return self._items <= other._items


def validate_partition(parts: Iterable[int]) -> tuple[int, ...]:
    """Return the parts as a tuple after checking they form a partition."""
    out = tuple(parts)
    for p in out:
        if not isinstance(p, int) or isinstance(p, bool) or p < 1:
            raise ArgumentError(f"partition parts must be positive integers, got {p!r}")
    if any(out[i] < out[i + 1] for i in range(len(out) - 1)):
        raise ArgumentError(f"partition parts must be weakly decreasing, got {out}")
    return out


def conjugate(parts: Iterable[int]) -> tuple[int, ...]:
    """Transpose of the Young diagram.

    >>> conjugate((3, 1))
    (2, 1, 1)
    """
    return _conjugate(validate_partition(parts))


def _partition_items(parts: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    out: dict[int, int] = {}  # the items of weakly decreasing positive parts, unchecked
    for p in reversed(parts):  # ascending, so the items come out sorted
        out[p] = out.get(p, 0) + 1
    return tuple(out.items())


def _factorial_product(items: tuple[tuple[int, int], ...]) -> int:
    out = 1
    for _, c in items:
        out *= math.factorial(c)
    return out


def _conjugate(lam: tuple[int, ...]) -> tuple[int, ...]:
    # the transpose of weakly decreasing positive parts, unchecked: columns
    # lam[j] + 1 to lam[j - 1] (counting from 1) are exactly j rows long
    out: list[int] = []
    below = 0
    for j in range(len(lam), 0, -1):
        out.extend([j] * (lam[j - 1] - below))
        below = lam[j - 1]
    return tuple(out)


def partitions(n: int, max_part: int | None = None) -> Iterator[tuple[int, ...]]:
    """Partitions of ``n`` in descending lexicographic order, ``(n)`` first.

    ``max_part`` bounds every part.  This ordering is the canonical one
    for all tabular output.
    """
    if n < 0:
        raise ArgumentError(f"cannot partition a negative integer {n}")
    if n == 0:
        yield ()
        return
    top = n if max_part is None or max_part > n else max_part
    if top < 1:
        return
    # the largest partition with parts at most top, then successors: the
    # rightmost part above 1 drops by one and the parts after it are
    # refilled greedily with parts no larger than the lowered one
    q, r = divmod(n, top)
    parts = [top] * q + ([r] if r else [])
    while True:
        yield tuple(parts)
        ones = 0
        while parts and parts[-1] == 1:
            parts.pop()
            ones += 1
        if not parts:
            return
        k = parts.pop() - 1
        q, r = divmod(ones + 1, k)
        parts.extend([k] * (q + 1))
        if r:
            parts.append(r)


def compositions(n: int) -> Iterator[tuple[int, ...]]:
    """Ordered sequences of positive integers summing to ``n``."""
    if n < 0:
        raise ArgumentError(f"cannot compose a negative integer {n}")
    # lexicographic successors from (1, ..., 1), with no frame per part: the
    # last part gives one to the part before and comes back as ones
    parts = [1] * n
    yield tuple(parts)
    while len(parts) > 1:
        last = parts.pop()
        parts[-1] += 1
        parts.extend([1] * (last - 1))
        yield tuple(parts)


def compositions_fixed_length(n: int, length: int) -> Iterator[tuple[int, ...]]:
    """Length-``length`` tuples of nonnegative integers summing to ``n``."""
    if n < 0 or length < 0:
        raise ArgumentError("both the total and the length must be nonnegative")
    if length == 0:
        if n == 0:
            yield ()
        return
    # lexicographic successors from (0, ..., 0, n): the last nonzero entry
    # j > 0 gives one to entry j - 1 and moves the rest to the end
    parts = [0] * (length - 1) + [n]
    while True:
        yield tuple(parts)
        j = length - 1
        while j and not parts[j]:
            j -= 1
        if not j:
            return
        parts[j - 1], parts[j], parts[-1] = parts[j - 1] + 1, 0, parts[j] - 1


def count_m(lam: Iterable[int], mu: Iterable[int]) -> int:
    """Number of 0-1 matrices with row sums ``lam`` and column sums ``mu``.

    ``mu`` may contain zeros (a zero column sum forces an empty column).
    The count is symmetric in the order of the columns.

    >>> count_m((1, 1), (1, 1))
    2
    >>> count_m((2,), (1, 1))
    1
    """
    rows = validate_partition(lam)
    cols = tuple(mu)
    for c in cols:
        if not isinstance(c, int) or isinstance(c, bool) or c < 0:
            raise ArgumentError(f"column sums must be nonnegative integers, got {c!r}")
    if sum(rows) != sum(cols):
        raise ArgumentError(f"row total {sum(rows)} and column total {sum(cols)} disagree")
    return _count_binary_matrices(rows, tuple(sorted((c for c in cols if c), reverse=True)))


@lru_cache(maxsize=None)
def _count_binary_matrices(rows: tuple[int, ...], cols: tuple[int, ...]) -> int:
    # rows and cols are descending tuples with zeros stripped
    if not cols:
        return 1 if not rows else 0
    col = cols[0]
    if col > len(rows) or rows[0] > len(cols):
        return 0  # a column has at most one entry per row, a row one per column
    groups: list[tuple[int, int]] = []
    for value in rows:
        if groups and groups[-1][0] == value:
            groups[-1] = (value, groups[-1][1] + 1)
        else:
            groups.append((value, 1))
    # The picks for the first column, group by group, as partial
    # (taken, residual, ways) states.  A group of value v leaves v on its
    # rows not taken and v - 1 on its rows taken, and every later group has
    # a smaller value, so each residual is built already descending.  A
    # pick leaves at most `after` entries of the column to later groups,
    # so at the last group exactly the picks completing the column remain.
    comb = math.comb
    states = [(0, (), 1)]
    after = len(rows)
    for value, avail in groups[:-1]:
        after -= avail
        grown = []
        for taken, residual, ways in states:
            room = col - taken
            for k in range(room - after if room > after else 0, min(avail, room) + 1):
                grown.append((
                    taken + k,
                    residual + (value,) * (avail - k) + (value - 1,) * k,
                    ways * comb(avail, k),
                ))
        states = grown
    value, avail = groups[-1]
    rest = cols[1:]
    total = 0
    for taken, residual, ways in states:
        k = col - taken
        tail = (value,) * (avail - k) + ((value - 1,) * k if value > 1 else ())
        total += ways * comb(avail, k) * _count_binary_matrices(residual + tail, rest)
    return total


def gen_binomial(a: int, m: int) -> int:
    """Binomial coefficient with arbitrary integer upper index.

    Computed as a(a-1)...(a-m+1)/m!, always an exact integer.  With a
    negative upper index it satisfies
    ``gen_binomial(-a, m) == (-1)**m * gen_binomial(a + m - 1, m)``.

    >>> gen_binomial(3, 2)
    3
    >>> gen_binomial(-2, 2)
    3
    """
    check_int(m, "lower index", 0)
    check_int(a, "upper index")
    numerator = 1
    for i in range(m):
        numerator *= a - i
    return exact_div(numerator, math.factorial(m))


def set_partitions(labels: Iterable[object]) -> Iterator[tuple[tuple[object, ...], ...]]:
    """All partitions of a sequence of distinct labels into nonempty blocks.

    Blocks appear in order of first occurrence, so the output order is a
    deterministic function of the input order.  No package code calls it;
    the test oracles do, and the benchmark tracer counts what it yields.

    >>> sum(1 for _ in set_partitions(range(4)))
    15
    """
    items = list(labels)
    if len(set(items)) != len(items):
        raise ArgumentError("labels must be pairwise distinct")

    def grow(idx: int, blocks: list[list[object]]) -> Iterator[tuple[tuple[object, ...], ...]]:
        if idx == len(items):
            yield tuple(tuple(b) for b in blocks)
            return
        x = items[idx]
        for b in blocks:
            b.append(x)
            yield from grow(idx + 1, blocks)
            b.pop()
        blocks.append([x])
        yield from grow(idx + 1, blocks)
        blocks.pop()

    yield from grow(0, [])
