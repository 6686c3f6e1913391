"""Characteristic-cycle series of tame constructible sheaves on a curve.

Every constructor here computes its answer twice, through a product
expansion and through a closed formula, and refuses to return unless the
two agree.  A disagreement raises ConsistencyError and means a falsified
identity, so the check is deliberately not optional.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .combinat import (
    MultVec,
    compositions_fixed_length,
    count_m,
    gen_binomial,
    partitions,
    set_partitions,
    validate_partition,
)
from .divisors import Divisor, divisor_binomial, subdivisors
from .errors import ArgumentError, ConsistencyError, PreconditionError
from .cycle_algebra import CycleSum, TauBasis, _sorted_terms, tau
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


def _check_order(max_degree: int) -> None:
    if not isinstance(max_degree, int) or isinstance(max_degree, bool) or max_degree < 0:
        raise ArgumentError(f"max_degree must be a nonnegative integer, got {max_degree!r}")


def _assert_match(product_route: CycleSeries, closed_route: CycleSeries, label: str) -> CycleSeries:
    for n in range(closed_route.max_degree + 1):
        if product_route.coefficient(n) != closed_route.coefficient(n):
            raise ConsistencyError(
                f"{label}: product expansion and closed form disagree at degree {n}: "
                f"{product_route.coefficient(n).render()} vs {closed_route.coefficient(n).render()}"
            )
    return closed_route


def _point_linear_factor(name: str, max_degree: int) -> CycleSeries:
    # 1 - tau[s;], the building block of every local factor
    coeffs = [CycleSum.zero() for _ in range(max_degree + 1)]
    coeffs[0] = tau()
    if max_degree >= 1:
        coeffs[1] = tau(Divisor.point(name), coeff=-1)
    return CycleSeries(coeffs)


def _shape_weights(rank: int, max_degree: int) -> list[list[tuple[MultVec, int]]]:
    # by weight n <= max_degree, every e with parts at most the rank, sorted,
    # and its weight prod_i binom(rank, i)^{e_i}
    out = []
    for n in range(max_degree + 1):
        shapes = []
        for lam in partitions(n, max_part=rank):
            e = MultVec.from_partition(lam)
            weight = 1
            for size, count in e.items():
                weight *= math.comb(rank, size) ** count
            shapes.append((e, weight))
        out.append(sorted(shapes, key=lambda pair: pair[0].items()))
    return out


def _constant_rank_closed(rank: int, max_degree: int) -> CycleSeries:
    # the tame closed form without drops
    return _tame_closed(rank, Divisor(), max_degree)


@lru_cache(maxsize=None)
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
    if not isinstance(rank, int) or isinstance(rank, bool) or rank < 1:
        raise ArgumentError(f"rank must be a positive integer, got {rank!r}")
    _check_order(max_degree)
    return _constant_rank_verified(rank, max_degree)


def _skyscraper_closed(multiplicities: Divisor, shifted: bool, max_degree: int) -> CycleSeries:
    # the unshifted series is an inverse, so it is supported on divisors of
    # arbitrarily large coefficient; the shifted binomials vanish past the caps
    names = multiplicities.support
    factors = [
        [math.comb(m, k) if shifted else gen_binomial(-m, k) for k in range(max_degree + 1)]
        for _, m in multiplicities.items()
    ]
    empty = MultVec()
    coeffs = []
    for n in range(max_degree + 1):
        acc: dict[TauBasis, int] = {}
        sign = -1 if n % 2 else 1
        for comp in compositions_fixed_length(n, len(names)):
            c = sign
            for row, k in zip(factors, comp):
                c *= row[k]
            if c:
                d = Divisor._trusted(tuple((name, k) for name, k in zip(names, comp) if k))
                acc[TauBasis._trusted(d, empty)] = c
        coeffs.append(CycleSum._trusted(_sorted_terms(acc)))
    return CycleSeries._trusted(tuple(coeffs))


def s_skyscraper(multiplicities: Divisor, shifted: bool, max_degree: int) -> CycleSeries:
    """Series of a skyscraper sheaf with the given stalk multiplicities.

    With ``shifted`` the product form is prod_s (1 - tau[s;])^{m_s};
    without the shift it is the inverse of that product.  Either way the
    closed binomial formula is recomputed and compared term by term.
    """
    if not isinstance(multiplicities, Divisor):
        raise ArgumentError("multiplicities must be a Divisor")
    _check_order(max_degree)
    product_route = series_one(max_degree)
    for name, m in multiplicities.items():
        product_route = product_route * (_point_linear_factor(name, max_degree) ** m)
    if not shifted:
        product_route = product_route.inverse()
    closed = _skyscraper_closed(multiplicities, shifted, max_degree)
    kind = "shifted" if shifted else "unshifted"
    return _assert_match(product_route, closed, f"{kind} skyscraper at {multiplicities.pretty()}")


def _tame_closed(rank: int, drops: Divisor, max_degree: int) -> CycleSeries:
    shapes = _shape_weights(rank, max_degree)
    # divisors in text order and shapes in item order give the terms in CycleSum order
    bounded = sorted(subdivisors(drops), key=Divisor.canonical_text)
    divisors = [(d, d.degree, divisor_binomial(drops, d)) for d in bounded]
    new = TauBasis._trusted
    coeffs = []
    for n in range(max_degree + 1):
        sign = -1 if n % 2 else 1
        coeffs.append(CycleSum._trusted(tuple(
            (new(d, e), sign * base * weight)
            for d, degree, base in divisors if degree <= n
            for e, weight in shapes[n - degree]
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
    _check_order(max_degree)
    product_route = s_constant_rank(descriptor.rank, max_degree)
    for name, a in descriptor.drops.items():
        product_route = product_route * (_point_linear_factor(name, max_degree) ** a)
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
    acc: dict[TauBasis, int] = {}
    for lam in partitions(n):
        c = count_m(lam, parts)
        if c:
            acc[TauBasis(Divisor(), MultVec.from_partition(lam))] = sign * c
    matrix_route = CycleSum(acc)
    fold_route = tau()
    for p in parts:
        factor = tau(None, MultVec({1: p}), coeff=-1 if p % 2 else 1)
        fold_route = fold_route * factor
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


def _merge_enumeration(parts: tuple[int, ...]) -> CycleSum:
    sign = -1 if len(parts) % 2 else 1
    acc: dict[TauBasis, int] = {}
    for grouping in set_partitions(range(len(parts))):
        merged = sorted((sum(parts[i] for i in block) for block in grouping), reverse=True)
        f = MultVec.from_partition(merged)
        key = TauBasis(Divisor(), f)
        acc[key] = acc.get(key, 0) + sign * f.factorial_product()
    return CycleSum(acc)


_PARTITION_ENUM_CAP = 8  # Bell(8) = 4140 set partitions


def pushforward_partition(lam: tuple[int, ...], base_char: int = 0) -> CycleSum:
    """Cycle class pushed forward along the addition map of a partition.

    Two routes.  The fold ``prod_j (-tau[0; lam_j^1])`` is returned.  For
    at most eight parts it is compared exactly with ``(-1)^l`` times the
    sum over all ways of merging the ``l`` parts, each merged shape
    weighted by the product of the factorials of its multiplicities; a
    disagreement raises ConsistencyError.  Every part must be invertible
    in the base field.
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
    fold_route = tau()
    for p in parts:
        fold_route = fold_route * tau(None, MultVec({p: 1}), coeff=-1)
    if len(parts) <= _PARTITION_ENUM_CAP:
        merge_route = _merge_enumeration(parts)
        if merge_route != fold_route:
            raise ConsistencyError(
                f"partition pushforward of {parts}: set-partition enumeration and factor "
                f"product disagree: {merge_route.render()} vs {fold_route.render()}"
            )
    return fold_route
