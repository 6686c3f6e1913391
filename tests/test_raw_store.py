"""The raw store of cycle sums: exact oracle sweeps, canonical order and hashing, and guards.

A ``CycleSum`` keeps ``((delta items, ((e items, coeff), ...)), ...)``
sorted by divisor text, then by ``e`` items, and builds ``TauBasis``
objects only when its terms are read.  These tests compare that store with
answers assembled from validating objects, check that every route to a sum
gives the same store, and check that the products, series and both sheaf
routes run with basis construction switched off.
"""

import itertools
import random

import pytest

from taucycles import cli, cycle_algebra, index, sheaves
from taucycles.combinat import MultVec
from taucycles.cycle_algebra import (
    CycleSum,
    TauBasis,
    basis_of_grade,
    tau,
    unit,
)
from taucycles.divisors import Divisor
from taucycles.errors import ConsistencyError
from taucycles.selftest import structure_constants_oracle
from taucycles.series import CycleSeries, series_inverse
from taucycles.sheaves import s_skyscraper, s_tame


def _seeded_basis(seed: int) -> list[tuple[TauBasis, int]]:
    rng = random.Random(seed)
    bases = [b for k in range(5) for b in basis_of_grade(k, ["s", "t"])]
    return [(b, rng.choice((-3, -2, -1, 1, 2, 5))) for b in bases]


def _expansion(x: list[tuple[TauBasis, int]], y: list[tuple[TauBasis, int]]) -> CycleSum:
    """The product of two sums expanded term by term on objects, through the enumeration oracle."""
    oracle: dict = {}
    pairs = []
    for (b1, c1), (b2, c2) in itertools.product(x, y):
        key = (b1.e, b2.e)
        if key not in oracle:
            oracle[key] = structure_constants_oracle(*key)
        delta = b1.delta + b2.delta
        pairs += [(TauBasis(delta, f), c1 * c2 * n) for f, n in oracle[key].items()]
    return CycleSum(pairs)


def _assert_canonical(s: CycleSum) -> None:
    keys = [b.sort_key() for b, _ in s.terms()]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)
    assert all(c for _, c in s.terms())


def test_every_basis_product_matches_the_object_expansion():
    terms = _seeded_basis(19)
    assert len(terms) == 51
    for (b1, c1), (b2, c2) in itertools.product(terms, repeat=2):
        product = CycleSum({b1: c1}) * CycleSum({b2: c2})
        expected = _expansion([(b1, c1)], [(b2, c2)])
        assert product == expected, (b1, b2)
        assert hash(product) == hash(expected)
        _assert_canonical(product)


def test_whole_sum_products_and_squares_match_the_object_expansion():
    x, y = _seeded_basis(23), _seeded_basis(29)
    sx, sy = CycleSum(x), CycleSum(y)
    _assert_canonical(sx)
    assert sx * sy == _expansion(x, y)
    square = sx * sx
    assert square == _expansion(x, x)
    _assert_canonical(square)


def _routes_to(s: CycleSum) -> list[CycleSum]:
    terms = s.terms()
    half = len(terms) // 2
    return [
        CycleSum(dict(terms)),
        CycleSum(terms[half:]) + CycleSum(terms[:half]),
        s * unit(),
        unit() * s,
        -(-s),
    ]


@pytest.mark.parametrize(
    "series",
    [
        lambda: s_tame(2, Divisor({"s": 2, "t": 1}), 5),
        lambda: s_skyscraper(Divisor({"s": 2, "t": 1}), False, 5),
        lambda: s_skyscraper(Divisor({"t": 3}), True, 5),
    ],
)
def test_equal_sums_hash_equal_whatever_their_route(series):
    for closed in series().coefficients():
        _assert_canonical(closed)
        for other in _routes_to(closed):
            assert other == closed
            assert hash(other) == hash(closed)
            assert other._raw == closed._raw


def test_divisor_text_order_puts_ten_before_two():
    ten, two = Divisor({"s": 10}), Divisor({"s": 2})
    x = CycleSum({TauBasis(two, MultVec()): 1, TauBasis(ten, MultVec()): 1})
    assert x.render() == "tau[10*s;] + tau[2*s;]"
    assert [b.delta for b, _ in x.terms()] == [ten, two]
    five = tau(Divisor({"s": 5}))
    assert (five * five + tau(two)) == x
    assert [d for d, _ in (five * five + tau(two))._raw] == [(("s", 10),), (("s", 2),)]


def test_coeff_and_grade_parts_read_the_raw_store():
    x = CycleSum(_seeded_basis(31))
    for b, c in x.terms():
        assert x.coeff(b) == c
    assert x.coeff(TauBasis(Divisor({"u": 1}), MultVec())) == 0
    parts = [CycleSum((b, c) for b, c in x.terms() if b.grade == k) for k in x.grades()]
    assert sum(parts, CycleSum()) == x
    assert not any(p.is_zero() for p in parts)
    assert x.grades() == (0, 1, 2, 3, 4)


# ---------------------------------------------------------------------------
# the hot path makes no basis object


class _Built(Exception):
    pass


@pytest.fixture
def switch_off_bases(monkeypatch):
    """A call that makes every later construction of a basis object raise."""

    def refuse(*args, **kwargs):
        raise _Built("a basis object was built")

    def switch_off():
        sheaves._constant_rank_verified.cache_clear()
        monkeypatch.setattr(TauBasis, "_trusted", classmethod(refuse))
        monkeypatch.setattr(TauBasis, "__init__", refuse)

    yield switch_off
    monkeypatch.undo()
    sheaves._constant_rank_verified.cache_clear()


def test_products_series_and_sheaf_routes_stay_raw(switch_off_bases):
    drops = Divisor({"s": 1, "t": 2})
    sky = Divisor({"s": 2, "u": 1})
    x = CycleSum(_seeded_basis(37))
    expected = [s_tame(3, drops, 7), s_skyscraper(sky, False, 6), x * x]
    expected.append(series_inverse(expected[0]))
    switch_off_bases()
    tame = s_tame(3, drops, 7)
    got = [tame, s_skyscraper(sky, False, 6), x * x, series_inverse(tame)]
    assert got == expected
    assert tame * got[3] == CycleSeries([unit()] + [CycleSum()] * 7)
    # basis objects appear only once the terms are read
    with pytest.raises(_Built):
        got[2].render()
    with pytest.raises(_Built):
        tame.coefficient(3).terms()
    with pytest.raises(_Built):
        tau()


# ---------------------------------------------------------------------------
# a corrupted closed route is caught


def _bumped(closed):
    """The closed route with one more on the first raw coefficient of its top nonzero degree."""

    def corrupted(*args):
        coeffs = list(closed(*args).coefficients())
        n = max(k for k, s in enumerate(coeffs) if s._raw)
        (d, ((e, c), *rest)), *groups = coeffs[n]._raw
        coeffs[n] = CycleSum._trusted(((d, ((e, c + 1), *rest)), *groups))
        return CycleSeries._trusted(tuple(coeffs))

    return corrupted


@pytest.fixture
def fresh_constant_rank():
    sheaves._constant_rank_verified.cache_clear()
    yield
    sheaves._constant_rank_verified.cache_clear()


def test_a_bumped_tame_closed_route_fails_the_check(monkeypatch, capsys, fresh_constant_rank):
    monkeypatch.setattr(sheaves, "_tame_closed", _bumped(sheaves._tame_closed))
    with pytest.raises(ConsistencyError, match="disagree at degree 4"):
        s_tame(2, Divisor({"s": 1}), 4)
    assert cli.main(["series", "--rank", "2", "--sing", "s:1", "--max-degree", "4"]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert "product expansion and closed form disagree at degree 4" in err


def test_a_bumped_skyscraper_closed_route_fails_the_check(monkeypatch, capsys):
    monkeypatch.setattr(sheaves, "_skyscraper_closed", _bumped(sheaves._skyscraper_closed))
    for shifted, top in ((True, 2), (False, 4)):
        with pytest.raises(ConsistencyError, match=f"skyscraper at 2[*]s: .* at degree {top}"):
            s_skyscraper(Divisor({"s": 2}), shifted, 4)
    assert cli.main(["selftest"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: shifted skyscraper at 2*s: product expansion and closed form")


def test_the_caches_are_bounded():
    caches = (cycle_algebra._text, sheaves._constant_rank_verified, index._infer_degrees_cached)
    for cache in caches:
        maxsize = cache.cache_info().maxsize
        assert isinstance(maxsize, int) and maxsize > 0
