"""Partitions, multiplicity vectors, set partitions and the exact counts built on them.

A multiplicity vector records, for each part size i >= 1, how many parts
of that size occur.  It carries the same data as an integer partition,
and both coordinates are used throughout: partitions for tables and
labels, multiplicity vectors for the cycle algebra.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Iterator, Mapping
from functools import lru_cache

from .errors import ArgumentError, exact_div

__all__ = [
    "MultVec",
    "conjugate",
    "partitions",
    "compositions",
    "compositions_fixed_length",
    "count_m",
    "count_m_oracle",
    "gen_binomial",
    "merge_closure_leq",
    "set_partitions",
    "coarsenings",
    "validate_partition",
]


def _check_count(size: object, count: object) -> None:
    if not isinstance(size, int) or isinstance(size, bool) or size < 1:
        raise ArgumentError(f"part size must be a positive integer, got {size!r}")
    if not isinstance(count, int) or isinstance(count, bool) or count < 0:
        raise ArgumentError(f"count for size {size} must be a nonnegative integer, got {count!r}")


class MultVec:
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

    __slots__ = ("_items", "_hash")

    def __init__(self, counts: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        pairs = counts.items() if isinstance(counts, Mapping) else counts
        merged: dict[int, int] = {}
        for size, count in pairs:
            _check_count(size, count)
            if count:
                merged[size] = merged.get(size, 0) + count
        self._items: tuple[tuple[int, int], ...] = tuple(sorted(merged.items()))
        self._hash = hash(self._items)

    @classmethod
    def _trusted(cls, items: tuple[tuple[int, int], ...]) -> "MultVec":
        # items: (size >= 1, count >= 1) pairs sorted by size, as internal arithmetic produces
        self = object.__new__(cls)
        self._items = items
        self._hash = hash(items)
        return self

    @classmethod
    def from_partition(cls, parts: Iterable[int]) -> "MultVec":
        out: dict[int, int] = {}
        for p in validate_partition(parts):
            out[p] = out.get(p, 0) + 1
        return cls._trusted(tuple(sorted(out.items())))

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
                size = int(base)
                count = int(exp) if sep else 1
            except ValueError:
                raise ArgumentError(f"bad multiplicity token {token!r}, expected i^count") from None
            _check_count(size, count)
            if size in seen:
                raise ArgumentError(f"duplicate size {size} in {text!r}")
            seen[size] = count
        return cls(seen)

    def items(self) -> tuple[tuple[int, int], ...]:
        return self._items

    def count(self, size: int) -> int:
        for s, c in self._items:
            if s == size:
                return c
        return 0

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(s for s, _ in self._items)

    @property
    def length(self) -> int:
        """Number of parts of the underlying partition."""
        return sum(c for _, c in self._items)

    @property
    def weight(self) -> int:
        """Sum of all parts, i.e. the integer being partitioned."""
        return sum(s * c for s, c in self._items)

    def factorial_product(self) -> int:
        """Product of the factorials of the counts."""
        out = 1
        for _, c in self._items:
            out *= math.factorial(c)
        return out

    def to_partition(self) -> tuple[int, ...]:
        parts: list[int] = []
        for size, count in reversed(self._items):
            parts.extend([size] * count)
        return tuple(parts)

    def render(self) -> str:
        return " ".join(f"{s}^{c}" for s, c in self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MultVec) and self._items == other._items

    def __lt__(self, other: "MultVec") -> bool:
        return self._items < other._items

    def __le__(self, other: "MultVec") -> bool:
        return self._items <= other._items

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"MultVec({dict(self._items)!r})"


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
    lam = validate_partition(parts)
    if not lam:
        return ()
    out = [0] * lam[0]
    for p in lam:
        for i in range(p):
            out[i] += 1
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
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            yield (first,) + rest


def compositions_fixed_length(n: int, length: int) -> Iterator[tuple[int, ...]]:
    """Length-``length`` tuples of nonnegative integers summing to ``n``."""
    if n < 0 or length < 0:
        raise ArgumentError("both the total and the length must be nonnegative")
    if length == 0:
        if n == 0:
            yield ()
        return
    for first in range(n + 1):
        for rest in compositions_fixed_length(n - first, length - 1):
            yield (first,) + rest


def _capped_compositions(caps: tuple[int, ...], total: int) -> Iterator[tuple[int, ...]]:
    if not caps:
        if total == 0:
            yield ()
        return
    for k in range(min(caps[0], total) + 1):
        for rest in _capped_compositions(caps[1:], total - k):
            yield (k,) + rest


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
    if rows and rows[0] > len(cols):
        return 0  # each row places at most one entry per column
    col = cols[0]
    groups: list[tuple[int, int]] = []
    for value in rows:
        if groups and groups[-1][0] == value:
            groups[-1] = (value, groups[-1][1] + 1)
        else:
            groups.append((value, 1))
    total = 0
    caps = tuple(g[1] for g in groups)
    for picks in _capped_compositions(caps, col):
        ways = 1
        residual: list[int] = []
        for (value, avail), taken in zip(groups, picks):
            ways *= math.comb(avail, taken)
            residual.extend([value] * (avail - taken))
            if value > 1:
                residual.extend([value - 1] * taken)
        total += ways * _count_binary_matrices(tuple(sorted(residual, reverse=True)), cols[1:])
    return total


def count_m_oracle(lam: Iterable[int], mu: Iterable[int]) -> int:
    """Same count by exhaustive enumeration of row supports.

    Kept as a correctness oracle for the recursion; refuses grids with
    more than 20 cells.
    """
    rows = validate_partition(lam)
    cols = tuple(mu)
    for c in cols:
        if not isinstance(c, int) or isinstance(c, bool) or c < 0:
            raise ArgumentError(f"column sums must be nonnegative integers, got {c!r}")
    if sum(rows) != sum(cols):
        raise ArgumentError(f"row total {sum(rows)} and column total {sum(cols)} disagree")
    if len(rows) * len(cols) > 20:
        raise ArgumentError(
            f"enumeration oracle is limited to 20 cells, got {len(rows)}x{len(cols)}"
        )
    m = len(cols)
    count = 0
    for supports in itertools.product(*(itertools.combinations(range(m), r) for r in rows)):
        sums = [0] * m
        for support in supports:
            for j in support:
                sums[j] += 1
        if tuple(sums) == cols:
            count += 1
    return count


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
    if not isinstance(m, int) or isinstance(m, bool) or m < 0:
        raise ArgumentError(f"lower index must be a nonnegative integer, got {m!r}")
    if not isinstance(a, int) or isinstance(a, bool):
        raise ArgumentError(f"upper index must be an integer, got {a!r}")
    numerator = 1
    for i in range(m):
        numerator *= a - i
    return exact_div(numerator, math.factorial(m))


def merge_closure_leq(finer: Iterable[int], coarser: Iterable[int]) -> bool:
    """True when ``coarser`` arises from ``finer`` by repeatedly merging two parts.

    Reflexive.  Both arguments must partition the same integer.
    """
    a = validate_partition(finer)
    b = tuple(sorted(validate_partition(coarser), reverse=True))
    if sum(a) != sum(b):
        raise ArgumentError(f"partitions of different integers: {sum(a)} vs {sum(b)}")
    start = tuple(sorted(a, reverse=True))
    seen = {start}
    stack = [start]
    while stack:
        cur = stack.pop()
        if cur == b:
            return True
        if len(cur) <= len(b):
            continue  # merging only shortens, equality was checked above
        for i in range(len(cur)):
            for j in range(i + 1, len(cur)):
                merged = tuple(
                    sorted(cur[:i] + cur[i + 1 : j] + cur[j + 1 :] + (cur[i] + cur[j],), reverse=True)
                )
                if merged not in seen:
                    seen.add(merged)
                    stack.append(merged)
    return False


def set_partitions(labels: Iterable[object]) -> Iterator[tuple[tuple[object, ...], ...]]:
    """All partitions of a sequence of distinct labels into nonempty blocks.

    Blocks appear in order of first occurrence, so the output order is a
    deterministic function of the input order.

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


def coarsenings(blocks: Iterable[Iterable[object]]) -> list[tuple[tuple[object, ...], ...]]:
    """Every partition of the same ground set whose blocks are unions of the given blocks.

    Includes the input itself.  The result is sorted for determinism.
    """
    base = [tuple(b) for b in blocks]
    flat: list[object] = [x for b in base for x in b]
    if any(not b for b in base):
        raise ArgumentError("blocks must be nonempty")
    if len(set(flat)) != len(flat):
        raise ArgumentError("blocks must be pairwise disjoint")
    out = []
    for grouping in set_partitions(range(len(base))):
        merged = tuple(
            sorted(tuple(sorted(x for i in group for x in base[i])) for group in grouping)
        )
        out.append(merged)
    out.sort()
    return out
