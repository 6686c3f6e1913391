"""Exact oracle sweeps for the accumulating product paths, and the boundary checks they rely on.

Products of cycle sums and of series accumulate on raw ``(delta, f)`` keys
and build their results without re-validating them.  These sweeps compare
that path with answers assembled only from public, validating constructors.
"""

import itertools
import math

import pytest

from taucycles import cli, cycle_algebra, sheaves
from taucycles.combinat import MultVec, partitions
from taucycles.cycle_algebra import (
    CycleSum,
    TauBasis,
    _structure_constants_items,
    basis_of_grade,
    structure_constants,
    structure_constants_oracle,
    tau,
)
from taucycles.divisors import Divisor
from taucycles.errors import ArgumentError, ConsistencyError
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


def _matrices(row_caps, col_caps):
    """Every nonnegative integer matrix with row sums and column sums bounded by the caps."""
    if not row_caps:
        yield ()
        return
    for row in itertools.product(*(range(c + 1) for c in col_caps)):
        if sum(row) <= row_caps[0]:
            rest_caps = tuple(c - r for c, r in zip(col_caps, row))
            for rest in _matrices(row_caps[1:], rest_caps):
                yield (row,) + rest


def _constants_by_whole_matrices(a, b):
    """The structure constants from each matching matrix as a whole, the pre-walk route."""
    sizes_a, caps_a = [s for s, _ in a], [c for _, c in a]
    sizes_b, caps_b = [s for s, _ in b], [c for _, c in b]
    numerators = {}
    for m in _matrices(tuple(caps_a), tuple(caps_b)):
        rows = [sum(row) for row in m]
        cols = [sum(col) for col in zip(*m)] if m else [0] * len(caps_b)
        out = {}
        for sizes, caps, used in ((sizes_a, caps_a, rows), (sizes_b, caps_b, cols)):
            for size, cap, u in zip(sizes, caps, used):
                out[size] = out.get(size, 0) + cap - u
        for i, j in itertools.product(range(len(sizes_a)), range(len(sizes_b))):
            out[sizes_a[i] + sizes_b[j]] = out.get(sizes_a[i] + sizes_b[j], 0) + m[i][j]
        ways = 1
        for cap, u in zip(caps_a + caps_b, rows + cols):
            ways *= math.perm(cap, u)
        for entry in itertools.chain.from_iterable(m):
            ways //= math.factorial(entry)
        f = tuple(sorted((s, c) for s, c in out.items() if c))
        numerators[f] = numerators.get(f, 0) + ways
    scale = math.prod(math.factorial(c) for _, c in a + b)
    return tuple(
        (f, math.prod(math.factorial(c) for _, c in f) * n // scale)
        for f, n in sorted(numerators.items())
    )


def test_cell_walk_matches_whole_matrices_through_weight_8():
    vecs = [MultVec.from_partition(lam).items() for w in range(9) for lam in partitions(w)]
    pairs = [(a, b) for a, b in itertools.product(vecs, repeat=2) if a <= b]
    for a, b in pairs:
        assert _structure_constants_items(a, b) == _constants_by_whole_matrices(a, b), (a, b)
    assert len(pairs) == 67 * 68 // 2


@pytest.fixture
def off_by_one(monkeypatch):
    """Structure constants with the first constant of every product one too large."""
    true = cycle_algebra._structure_constants_items

    def corrupted(a, b):
        (f, n), *rest = true(a, b)
        return ((f, n + 1), *rest)

    monkeypatch.setattr(cycle_algebra, "_structure_constants_items", corrupted)
    sheaves._constant_rank_verified.cache_clear()
    yield
    sheaves._constant_rank_verified.cache_clear()


def test_a_wrong_structure_constant_fails_the_tame_cross_check(off_by_one, capsys):
    with pytest.raises(ConsistencyError):
        s_tame(2, Divisor({"s": 1}), 4)
    assert cli.main(["series", "--rank", "2", "--sing", "s:1", "--max-degree", "4"]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: constant rank 2: product expansion and closed form disagree")
