"""Exact oracle sweeps for the accumulating product paths, and the boundary checks they rely on.

Products of cycle sums and of series accumulate on raw ``(delta, f)`` keys
and build their results without re-validating them.  These sweeps compare
that path with answers assembled only from public, validating constructors.
"""

import itertools

import pytest

from taucycles.combinat import MultVec
from taucycles.cycle_algebra import (
    CycleSum,
    TauBasis,
    basis_of_grade,
    structure_constants,
    structure_constants_oracle,
    tau,
)
from taucycles.divisors import Divisor
from taucycles.errors import ArgumentError
from taucycles.series import CycleSeries
from taucycles.sheaves import s_skyscraper, s_tame


def test_basis_products_match_the_enumeration_oracle():
    bases = [b for k in range(5) for b in basis_of_grade(k, ["s", "t"])]
    oracle: dict[tuple[MultVec, MultVec], dict[MultVec, int]] = {}
    for b1, b2 in itertools.product(bases, repeat=2):
        pair = (b1.e, b2.e)
        if pair not in oracle:
            oracle[pair] = structure_constants_oracle(*pair)
        delta = b1.delta + b2.delta
        expected = CycleSum({TauBasis(delta, f): n for f, n in oracle[pair].items()})
        assert tau(b1.delta, b1.e) * tau(b2.delta, b2.e) == expected
    assert len(oracle) == 144


def _cauchy_product(x: CycleSeries, y: CycleSeries) -> list[CycleSum]:
    out = []
    for k in range(x.max_degree + 1):
        acc = CycleSum()
        for i in range(k + 1):
            acc = acc + x.coefficient(i) * y.coefficient(k - i)
        out.append(acc)
    return out


SERIES = [
    lambda: s_tame(1, Divisor({"s": 1}), 6),
    lambda: s_tame(2, Divisor({"s": 2, "t": 1}), 6),
    lambda: s_tame(3, Divisor({"t": 1}), 6),
    lambda: s_skyscraper(Divisor({"s": 2, "u": 1}), True, 6),
    lambda: s_skyscraper(Divisor({"t": 1}), False, 6),
]


@pytest.mark.parametrize("i, j", list(itertools.combinations_with_replacement(range(5), 2)))
def test_series_product_matches_cauchy_product(i, j):
    x, y = SERIES[i](), SERIES[j]()
    product = x * y
    assert list(product.coefficients()) == _cauchy_product(x, y)
    # the trusted result must pass the grade checks of the public constructor
    assert CycleSeries(product.coefficients()) == product


def test_public_constructors_still_validate():
    good = TauBasis(Divisor(), MultVec())
    with pytest.raises(ArgumentError):
        CycleSum({"x": 1})
    with pytest.raises(ArgumentError):
        CycleSum({good: True})
    with pytest.raises(ArgumentError):
        TauBasis(1, MultVec())
    with pytest.raises(ArgumentError):
        MultVec({0: 1})
    with pytest.raises(ArgumentError):
        Divisor({"2s": 1})
    with pytest.raises(ArgumentError):
        MultVec.from_partition((1, 2))


def test_equal_objects_hash_equal():
    built = TauBasis(Divisor({"s": 1, "t": 2}), MultVec({1: 2, 2: 1}))
    parsed = TauBasis(Divisor.parse("2*t + s"), MultVec.from_partition((2, 1, 1)))
    [(from_product, coeff)] = (
        tau(Divisor({"t": 2})) * tau(Divisor({"s": 1}), MultVec({1: 2, 2: 1}))
    ).terms()
    assert coeff == 1
    for other in (parsed, from_product):
        assert other == built
        assert hash(other) == hash(built)
        assert hash(other.delta) == hash(built.delta)
        assert hash(other.e) == hash(built.e)
    assert Divisor({"s": 1}) + Divisor() == Divisor({"s": 1})
    assert hash(Divisor() + Divisor({"s": 1})) == hash(Divisor({"s": 1}))


def test_structure_constants_returns_a_fresh_dict():
    e = MultVec({1: 1})
    first = structure_constants(e, e)
    first.clear()
    assert structure_constants(e, e) == {MultVec({1: 2}): 2, MultVec({2: 1}): 1}
