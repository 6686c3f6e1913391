import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taucycles import series as series_module
from taucycles.combinat import MultVec
from taucycles.cycle_algebra import CycleSum, tau, unit
from taucycles.divisors import Divisor
from taucycles.errors import ArgumentError, ConsistencyError
from taucycles.series import CycleSeries, series_inverse, series_one
from taucycles.sheaves import s_skyscraper, s_tame

N = 4


def tame(rank, drops):
    return s_tame(rank, Divisor(drops), N)


small_series = st.builds(
    tame,
    st.integers(1, 2),
    st.dictionaries(st.sampled_from(["s", "t"]), st.just(1), max_size=2),
)


def test_constructor_rejects_mixed_grades():
    bad = unit() + tau(None, MultVec({1: 1}))
    with pytest.raises(ArgumentError):
        CycleSeries([bad])


def test_constructor_rejects_wrong_grade():
    with pytest.raises(ArgumentError):
        CycleSeries([unit(), unit()])


def test_constructor_rejects_empty():
    with pytest.raises(ArgumentError):
        CycleSeries([])


def test_one():
    one = series_one(3)
    assert one.max_degree == 3
    assert one.coefficient(0) == unit()
    assert all(one.coefficient(k).is_zero() for k in (1, 2, 3))


def test_coefficient_range_check():
    one = series_one(2)
    with pytest.raises(ArgumentError):
        one.coefficient(3)
    with pytest.raises(ArgumentError):
        one.coefficient(-1)


def test_truncate():
    s = tame(1, {"s": 1})
    t = s.truncate(2)
    assert t.max_degree == 2
    assert all(t.coefficient(k) == s.coefficient(k) for k in range(3))
    with pytest.raises(ArgumentError):
        s.truncate(N + 1)


def test_order_mismatch():
    with pytest.raises(ArgumentError):
        series_one(2) * series_one(3)
    with pytest.raises(ArgumentError):
        series_one(2) + series_one(3)


@given(small_series)
@settings(max_examples=15, deadline=None)
def test_one_is_identity(s):
    assert s * series_one(N) == s
    assert series_one(N) * s == s


@given(small_series, small_series)
@settings(max_examples=15, deadline=None)
def test_mul_commutes(s1, s2):
    assert s1 * s2 == s2 * s1


@given(small_series, small_series, small_series)
@settings(max_examples=8, deadline=None)
def test_mul_associates(s1, s2, s3):
    assert (s1 * s2) * s3 == s1 * (s2 * s3)


@given(small_series)
@settings(max_examples=12, deadline=None)
def test_inverse(s):
    assert s * s.inverse() == series_one(N)
    assert s.inverse().inverse() == s


@given(small_series, st.integers(0, 3))
@settings(max_examples=12, deadline=None)
def test_pow_matches_repeated_mul(s, k):
    by_mul = series_one(N)
    for _ in range(k):
        by_mul = by_mul * s
    assert s**k == by_mul


def test_pow_rejects_negative():
    with pytest.raises(ArgumentError):
        series_one(2) ** -1


def test_add_sub_neg():
    s = tame(1, {"s": 1})
    zero = CycleSeries([CycleSum.zero() for _ in range(N + 1)])
    assert (s - s) == zero
    assert s + (-s) == zero
    assert -(-s) == s


def test_render_one_line_per_degree():
    s = tame(1, {"s": 1})
    lines = s.render().split("\n")
    assert len(lines) == N + 1
    assert lines[0] == "1"
    assert lines[1] == "-(tau[0; 1^1] + tau[s;])"


def test_latex_shape():
    text = series_one(1).latex()
    assert text.startswith(r"\begin{align*}")
    assert text.endswith(r"\end{align*}")
    assert "S_{0} &= 1" in text


def test_equality_requires_same_order():
    assert series_one(2) != series_one(3)


def geometric_inverse(s: CycleSeries) -> CycleSeries:
    """1 / (1 - T) as 1 + T + T^2 + ... + T^N, with T = 1 - s: N series products."""
    n = s.max_degree
    t = series_one(n) - s
    out = power = series_one(n)
    for _ in range(n):
        power = power * t
        out = out + power
    return out


INVERSE_SWEEP = [
    *(
        (f"tame rank {rank} drops {drops} N={n}", lambda r=rank, d=drops, n=n: s_tame(r, Divisor.parse(d), n))
        for rank in (1, 2, 3)
        for drops in ("0", "s", "t + u", "s + t + u")
        for n in (1, 4, 8)
    ),
    ("tame rank 3 drops 3*s + 2*t N=6", lambda: s_tame(3, Divisor.parse("3*s + 2*t"), 6)),
    *(
        (f"shifted skyscraper {m} N={n}", lambda m=m, n=n: s_skyscraper(Divisor.parse(m), True, n))
        for m in ("s", "2*s + t", "s + t + u", "3*u")
        for n in (0, 3, 8)
    ),
]


@pytest.mark.parametrize("label, build", INVERSE_SWEEP, ids=[label for label, _ in INVERSE_SWEEP])
def test_series_inverse_matches_the_geometric_series(label, build):
    s = build()
    inverse = series_inverse(s)
    assert inverse == geometric_inverse(s)
    assert s * inverse == series_one(s.max_degree)
    assert s.inverse() == inverse
    # the trusted result passes the checks of the public constructor
    assert CycleSeries(inverse.coefficients()) == inverse


def test_series_inverse_needs_constant_one():
    with pytest.raises(ArgumentError):
        series_inverse(series_one(2) + series_one(2))


def test_a_wrong_inverse_fails_the_unshifted_skyscraper(monkeypatch):
    def off_by_one(s):
        right = series_inverse(s).coefficients()
        return CycleSeries(right[:-1] + (right[-1] + right[-1],))

    monkeypatch.setattr(series_module, "series_inverse", off_by_one)
    with pytest.raises(ConsistencyError, match="unshifted skyscraper"):
        s_skyscraper(Divisor({"s": 2}), False, 3)
