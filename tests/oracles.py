"""Exhaustive oracles that the tests compare the package's fast kernels with.

None of these is reached from ``taucycles`` itself.  Each computes its
answer the slow, obvious way, sharing no code with the kernel it checks:

* ``count_binary_matrices_recursion`` is the column recursion of
  ``combinat._count_binary_matrices`` with one capped composition per
  pick and a sort of every residual, where the kernel builds its picks
  group by group and never sorts;
* ``count_m_oracle`` enumerates row supports outright;
* ``structure_constants_set_partitions`` is the definition of the
  structure constants: it walks every set partition of a concrete label
  model, where ``selftest.structure_constants_oracle`` lists the cluster
  matchings directly;
* ``merge_enumeration`` walks every set partition of the parts, the sum
  that ``sheaves._merge_enumeration`` counts over block sums;
* ``merge_closure_leq`` and ``coarsenings`` describe the merge order on
  partitions and on set partitions;
* ``singularity_certificate_search`` tries every subdivisor of the drops
  with a shortest partition found by enumeration, where
  ``geometry.singularity_certificate`` picks the winner in closed form;
* ``compositions_recursive`` and ``compositions_fixed_length_recursive``
  recurse once per part, where the walks in ``combinat`` step from one
  composition to the next in a list.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Iterator
from functools import lru_cache

from taucycles.combinat import MultVec, partitions, set_partitions, validate_partition
from taucycles.cycle_algebra import CycleSum, TauBasis
from taucycles.divisors import Divisor
from taucycles.errors import ArgumentError, exact_div
from taucycles.records import SheafDescriptor


def _capped_compositions(caps: tuple[int, ...], total: int) -> Iterator[tuple[int, ...]]:
    if not caps:
        if total == 0:
            yield ()
        return
    for k in range(min(caps[0], total) + 1):
        for rest in _capped_compositions(caps[1:], total - k):
            yield (k,) + rest


@lru_cache(maxsize=None)
def count_binary_matrices_recursion(rows: tuple[int, ...], cols: tuple[int, ...]) -> int:
    """0-1 matrices with row sums ``rows`` and column sums ``cols``, both descending."""
    if not cols:
        return 1 if not rows else 0
    if rows and rows[0] > len(cols):
        return 0
    col = cols[0]
    groups: list[tuple[int, int]] = []
    for value in rows:
        if groups and groups[-1][0] == value:
            groups[-1] = (value, groups[-1][1] + 1)
        else:
            groups.append((value, 1))
    total = 0
    for picks in _capped_compositions(tuple(g[1] for g in groups), col):
        ways = 1
        residual: list[int] = []
        for (value, avail), taken in zip(groups, picks):
            ways *= math.comb(avail, taken)
            residual.extend([value] * (avail - taken))
            if value > 1:
                residual.extend([value - 1] * taken)
        total += ways * count_binary_matrices_recursion(
            tuple(sorted(residual, reverse=True)), cols[1:]
        )
    return total


def count_m_oracle(lam: Iterable[int], mu: Iterable[int]) -> int:
    """Same count by exhaustive enumeration of row supports.

    A correctness oracle for the recursion; refuses grids with more than
    20 cells.
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


def structure_constants_set_partitions(e: MultVec, e_prime: MultVec) -> dict[MultVec, int]:
    """The constants of ``e * e'`` by filtering every set partition of a concrete model.

    Realizes ``e`` and ``e'`` as clusters of consecutive integers on two
    disjoint label ranges, then keeps the partitions whose every block is
    a cluster, a primed cluster, or a union of one of each.  Lists Bell(w)
    set partitions of the ``w`` labels.
    """

    def clusters(vec: MultVec, offset: int) -> list[frozenset[int]]:
        out = []
        pos = offset
        for size, count in vec.items():
            for _ in range(count):
                out.append(frozenset(range(pos, pos + size)))
                pos += size
        return out

    left_ok = set(clusters(e, 0))
    right_ok = set(clusters(e_prime, e.weight))
    left_labels = frozenset(range(e.weight))
    counts: dict[MultVec, int] = {}
    for partition in set_partitions(range(e.weight + e_prime.weight)):
        sizes: dict[int, int] = {}
        for block in partition:
            bs = frozenset(block)
            left_part = bs & left_labels
            right_part = bs - left_part
            if left_part and left_part not in left_ok:
                break
            if right_part and right_part not in right_ok:
                break
            sizes[len(bs)] = sizes.get(len(bs), 0) + 1
        else:
            f = MultVec(sizes)
            counts[f] = counts.get(f, 0) + 1
    scale = e.factorial_product() * e_prime.factorial_product()
    return {f: exact_div(f.factorial_product() * c, scale) for f, c in sorted(counts.items())}


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


def merge_enumeration(parts: tuple[int, ...]) -> CycleSum:
    """``(-1)^l`` times the sum, over set partitions of the ``l`` parts, of
    the merged shape weighted by the factorials of its multiplicities."""
    sign = -1 if len(parts) % 2 else 1
    acc: dict[TauBasis, int] = {}
    for grouping in set_partitions(range(len(parts))):
        merged = sorted((sum(parts[i] for i in block) for block in grouping), reverse=True)
        f = MultVec.from_partition(merged)
        key = TauBasis(Divisor(), f)
        acc[key] = acc.get(key, 0) + sign * f.factorial_product()
    return CycleSum(acc)


@lru_cache(maxsize=None)
def shortest_partition_oracle(m: int, max_part: int) -> MultVec:
    """The lexicographically largest of the shortest partitions of ``m``
    with parts at most ``max_part``, found by listing them all."""
    lams = list(partitions(m, max_part=max_part))
    shortest = min(len(lam) for lam in lams)
    return MultVec.from_partition(max(lam for lam in lams if len(lam) == shortest))


@lru_cache(maxsize=None)
def _all_below(drops: Divisor) -> tuple[tuple[Divisor, int, str], ...]:
    # every divisor bounded by the drops, with its degree and text
    out = []
    for coeffs in itertools.product(*(range(c + 1) for _, c in drops.items())):
        delta = Divisor(dict(zip(drops.support, coeffs)))
        out.append((delta, delta.degree, delta.canonical_text()))
    return tuple(out)


def singularity_certificate_search(
    genus: int, sheaf: SheafDescriptor, n: int
) -> tuple[Divisor, MultVec] | None:
    """The witness (delta, e) that minimises (length of e, -deg(delta), text of delta).

    Every delta bounded by the drops is tried, with e the shortest
    partition of n - deg(delta) into parts at most the rank; the winner
    counts only if e has at most 2g-2 parts.
    """
    best = None
    for delta, degree, text in _all_below(sheaf.drops):
        m = n - degree
        if m < 0:
            continue
        e = shortest_partition_oracle(m, sheaf.rank)
        key = (e.length, -degree, text)
        if best is None or key < best[0]:
            best = (key, delta, e)
    if best is None or best[0][0] > 2 * genus - 2:
        return None
    return (best[1], best[2])


def compositions_recursive(n: int) -> Iterator[tuple[int, ...]]:
    """Compositions of ``n``, the first part ascending and then the rest in the same order."""
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in compositions_recursive(n - first):
            yield (first,) + rest


def compositions_fixed_length_recursive(n: int, length: int) -> Iterator[tuple[int, ...]]:
    """Length-``length`` tuples of nonnegative integers summing to ``n``, in the same order."""
    if length == 0:
        if n == 0:
            yield ()
        return
    for first in range(n + 1):
        for rest in compositions_fixed_length_recursive(n - first, length - 1):
            yield (first,) + rest
