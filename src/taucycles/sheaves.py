"""Characteristic-cycle series of tame constructible sheaves on a curve.

Every constructor here computes its answer twice, through a product
expansion and through a closed formula, and refuses to return unless the
two agree.  A disagreement raises ConsistencyError and means a falsified
identity, so the check is deliberately not optional.

The pushforwards along addition maps are checked the same way.  A
composition class is a count of 0-1 matrices against a product of
one-part classes.  A partition class is a product of one-part classes
against the sum over set partitions of its parts, which is counted on
aggregated states (the multiset of block sums) rather than partition by
partition.

Both routes build the raw stores of their cycle sums (see
``cycle_algebra``): the closed forms emit the canonical store directly,
and the two routes are compared store against store, so a check makes
no basis object.
"""

from __future__ import annotations

import math
from functools import lru_cache

from . import combinat
from .combinat import (
    _factorial_product,
    _partition_items,
    compositions_fixed_length,
    gen_binomial,
    partitions,
    validate_partition,
)
from .divisors import Divisor, divisor_binomial, subdivisors
from .errors import ArgumentError, ConsistencyError, PreconditionError, check_int
from .cycle_algebra import CycleSum, _from_raw, _monomial, unit
from .records import SheafDescriptor
from .series import CycleSeries, series_one

__all__ = [
    "SheafDescriptor",
    "s_constant_rank",
    "s_skyscraper",
    "s_tame",
    "pushforward_composition",
    "pushforward_partition",
]


def _assert_match(product_route: CycleSeries, closed_route: CycleSeries, label: str) -> CycleSeries:
    for n in range(closed_route.max_degree + 1):
        # the raw stores are canonical, so they are equal exactly when the sums are
        if product_route.coefficient(n)._raw != closed_route.coefficient(n)._raw:
            raise ConsistencyError(
                f"{label}: product expansion and closed form disagree at degree {n}: "
                f"{product_route.coefficient(n).render()} vs {closed_route.coefficient(n).render()}"
            )
    return closed_route


def _point_linear_factor(name: str, max_degree: int) -> CycleSeries:
    # 1 - tau[s;], the building block of every local factor
    coeffs = [unit()] + [CycleSum.zero()] * max_degree
    if max_degree >= 1:
        coeffs[1] = _monomial(((name, 1),), (), -1)
    return CycleSeries._trusted(tuple(coeffs))


def _local_factors(points: Divisor, max_degree: int) -> CycleSeries:
    # prod_s (1 - tau[s;])^{m_s}, the product route of the divisor part
    out = None
    for name, m in points.items():
        factor = _point_linear_factor(name, max_degree) ** m
        out = factor if out is None else out * factor
    return series_one(max_degree) if out is None else out


@lru_cache(maxsize=64)
def _shape_weights(rank: int, max_degree: int) -> tuple[tuple[tuple[tuple, int], ...], ...]:
    # by weight n <= max_degree, the items of every e with parts at most the
    # rank, sorted, and its weight prod_i binom(rank, i)^{e_i}
    out = []
    for n in range(max_degree + 1):
        shapes = []
        for lam in partitions(n, max_part=rank):
            e = _partition_items(lam)
            weight = 1
            for size, count in e:
                weight *= math.comb(rank, size) ** count
            shapes.append((e, weight))
        out.append(tuple(sorted(shapes)))
    return tuple(out)


def _constant_rank_closed(rank: int, max_degree: int) -> CycleSeries:
    # the tame closed form without drops
    return _tame_closed(rank, Divisor(), max_degree)


@lru_cache(maxsize=256)
def _constant_rank_verified(rank: int, max_degree: int) -> CycleSeries:
    closed = _constant_rank_closed(rank, max_degree)
    power_route = _constant_rank_closed(1, max_degree) ** rank
    return _assert_match(power_route, closed, f"constant rank {rank}")


def s_constant_rank(rank: int, max_degree: int) -> CycleSeries:
    """Series of a locally constant sheaf of the given rank.

    Closed form: the degree-n coefficient is (-1)^n times the sum of
    prod_i binom(rank, i)^{e_i} tau[0; e] over all e of weight n with
    parts at most the rank.  Independently recomputed as the rank-th
    power of the rank-one series and cross-checked.
    """
    check_int(rank, "rank", 1)
    check_int(max_degree, "max_degree", 0)
    return _constant_rank_verified(rank, max_degree)


def _skyscraper_closed(multiplicities: Divisor, shifted: bool, max_degree: int) -> CycleSeries:
    # the unshifted series is an inverse, so it is supported on divisors of
    # arbitrarily large coefficient; the shifted binomials vanish past the caps
    names = multiplicities.support
    factors = [
        [math.comb(m, k) if shifted else gen_binomial(-m, k) for k in range(max_degree + 1)]
        for _, m in multiplicities.items()
    ]
    coeffs = []
    for n in range(max_degree + 1):
        acc: dict[tuple, dict] = {}
        sign = -1 if n % 2 else 1
        for comp in compositions_fixed_length(n, len(names)):
            c = sign
            for row, k in zip(factors, comp):
                c *= row[k]
            acc[tuple((name, k) for name, k in zip(names, comp) if k)] = {(): c}
        coeffs.append(CycleSum._trusted(_from_raw(acc)))
    return CycleSeries._trusted(tuple(coeffs))


def s_skyscraper(multiplicities: Divisor, shifted: bool, max_degree: int) -> CycleSeries:
    """Series of a skyscraper sheaf with the given stalk multiplicities.

    With ``shifted`` the product form is prod_s (1 - tau[s;])^{m_s};
    without the shift it is the inverse of that product.  Either way the
    closed binomial formula is recomputed and compared term by term.
    """
    if not isinstance(multiplicities, Divisor):
        raise ArgumentError("multiplicities must be a Divisor")
    check_int(max_degree, "max_degree", 0)
    product_route = _local_factors(multiplicities, max_degree)
    if not shifted:
        product_route = product_route.inverse()
    closed = _skyscraper_closed(multiplicities, shifted, max_degree)
    kind = "shifted" if shifted else "unshifted"
    return _assert_match(product_route, closed, f"{kind} skyscraper at {multiplicities.pretty()}")


def _tame_closed(rank: int, drops: Divisor, max_degree: int) -> CycleSeries:
    shapes = _shape_weights(rank, max_degree)
    # divisors in text order and shapes in item order give the canonical store
    bounded = sorted(subdivisors(drops, max_degree), key=Divisor.canonical_text)
    divisors = [(d.items(), d.degree, divisor_binomial(drops, d)) for d in bounded]
    coeffs = []
    for n in range(max_degree + 1):
        sign = -1 if n % 2 else 1
        coeffs.append(CycleSum._trusted(tuple(
            (d, tuple((e, sign * base * weight) for e, weight in shapes[n - degree]))
            for d, degree, base in divisors if degree <= n
        )))
    return CycleSeries._trusted(tuple(coeffs))


def s_tame(rank: int, drops: Divisor, max_degree: int) -> CycleSeries:
    """Series of a tame sheaf of the given generic rank and local drops.

    Product form: the constant-rank series times one shifted linear
    factor (1 - tau[s;])^{a_s} per bad point.  Closed form: degree-n
    coefficient (-1)^n sum over pairs (delta <= drops, e with parts at
    most the rank, |delta| + weight(e) = n) of
    binom(drops, delta) prod_i binom(rank, i)^{e_i} tau[delta; e].
    The two are compared on every invocation.
    """
    descriptor = SheafDescriptor(rank, drops)  # validates rank and drop bounds
    check_int(max_degree, "max_degree", 0)
    product_route = s_constant_rank(descriptor.rank, max_degree)
    if descriptor.drops:
        # the sparse local factors first, then one product with the dense series
        product_route = product_route * _local_factors(descriptor.drops, max_degree)
    closed = _tame_closed(descriptor.rank, descriptor.drops, max_degree)
    return _assert_match(
        product_route, closed, f"tame rank {rank} with drops {drops.pretty()}"
    )


# ---------------------------------------------------------------------------
# pushforwards along addition maps


def pushforward_composition(mu: tuple[int, ...]) -> CycleSum:
    """Cycle class pushed forward along the addition map of a composition.

    Two routes, both computed: a matrix count
    ``(-1)^n sum_lam count_m(lam, mu) tau[0; lam]`` and the product of
    the one-part classes ``prod_j (-1)^{mu_j} tau[0; 1^{mu_j}]``.  They
    must agree exactly.

    >>> pushforward_composition((1, 1)).render()
    '2*tau[0; 1^2] + tau[0; 2^1]'
    """
    parts = tuple(mu)
    for p in parts:
        if not isinstance(p, int) or isinstance(p, bool) or p < 1:
            raise ArgumentError(f"composition entries must be positive integers, got {p!r}")
    n = sum(parts)
    sign = -1 if n % 2 else 1
    # the checks of count_m are made above; the kernel is read at call time, so a patch reaches it
    count, cols = combinat._count_binary_matrices, tuple(sorted(parts, reverse=True))
    counts = {_partition_items(lam): sign * count(lam, cols) for lam in partitions(n)}
    matrix_route = CycleSum._trusted(_from_raw({(): counts}))
    fold_route = unit()
    for p in parts:
        fold_route = fold_route * _monomial((), ((1, p),), -1 if p % 2 else 1)
    if matrix_route != fold_route:
        raise ConsistencyError(
            f"composition pushforward of {parts}: matrix count and factor product disagree: "
            f"{matrix_route.render()} vs {fold_route.render()}"
        )
    return matrix_route


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _block_sum_counts(parts: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    # descending block sums -> the number of set partitions of the parts
    # with those block sums; part x opens a block or joins one of the c
    # blocks of some sum b, which makes c partitions from each counted one.
    # Parts must come largest first, so a block that x opens is the least.
    states = {(): 1}
    for x in parts:
        grown: dict[tuple[int, ...], int] = {}
        for sums, count in states.items():
            opened = sums + (x,)
            grown[opened] = grown.get(opened, 0) + count
            for i, b in enumerate(sums):
                if i and sums[i - 1] == b:
                    continue  # each distinct block sum once, weighted by its c
                k = i  # b + x goes after the sums at least as large, all before b
                while k and sums[k - 1] < b + x:
                    k -= 1
                joined = sums[:k] + (b + x,) + sums[k:i] + sums[i + 1 :]
                grown[joined] = grown.get(joined, 0) + count * sums.count(b)
        states = grown
    return states


def _merge_enumeration(parts: tuple[int, ...]) -> CycleSum:
    sign = -1 if len(parts) % 2 else 1
    merged: dict[tuple, int] = {}
    for sums, count in _block_sum_counts(parts).items():
        f = _partition_items(sums)
        merged[f] = sign * _factorial_product(f) * count
    return CycleSum._trusted(_from_raw({(): merged}))


def pushforward_partition(lam: tuple[int, ...], base_char: int = 0) -> CycleSum:
    """Cycle class pushed forward along the addition map of a partition.

    Two routes.  The fold ``prod_j (-tau[0; lam_j^1])`` is returned.  It
    is compared exactly with ``(-1)^l`` times the sum over all ways of
    merging the ``l`` parts, each merged shape weighted by the product of
    the factorials of its multiplicities; a disagreement raises
    ConsistencyError.  That sum over set partitions is counted by a
    dynamic programme over their block sums, so the Bell(l) partitions
    are never listed.  Every part must be invertible in the base field.
    """
    parts = validate_partition(lam)
    if not isinstance(base_char, int) or isinstance(base_char, bool) or (
        base_char != 0 and not _is_prime(base_char)
    ):
        raise ArgumentError(f"base characteristic must be 0 or a prime, got {base_char!r}")
    if base_char:
        for p in parts:
            if p % base_char == 0:
                raise PreconditionError(
                    f"part {p} is not invertible in characteristic {base_char}"
                )
    fold_route = unit()
    for p in parts:
        fold_route = fold_route * _monomial((), ((p, 1),), -1)
    merge_route = _merge_enumeration(parts)
    if merge_route != fold_route:
        raise ConsistencyError(
            f"partition pushforward of {parts}: set-partition enumeration and factor "
            f"product disagree: {merge_route.render()} vs {fold_route.render()}"
        )
    return fold_route
