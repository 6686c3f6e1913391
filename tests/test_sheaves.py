import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taucycles import sheaves
from taucycles.combinat import MultVec, partitions
from taucycles.cycle_algebra import CycleSum, TauBasis, tau, unit
from taucycles.divisors import Divisor
from taucycles.errors import ArgumentError, ConsistencyError, PreconditionError
from taucycles.series import CycleSeries, series_one
from taucycles.sheaves import (
    SheafDescriptor,
    _assert_match,
    _merge_enumeration,
    pushforward_composition,
    pushforward_partition,
    s_constant_rank,
    s_skyscraper,
    s_tame,
)

points = st.sampled_from(["s", "t"])
small_drops = st.dictionaries(points, st.just(1), max_size=2).map(Divisor)
small_mults = st.dictionaries(points, st.integers(1, 2), max_size=2).map(Divisor)


class TestDescriptor:
    def test_rank_validation(self):
        with pytest.raises(ArgumentError):
            SheafDescriptor(0, Divisor())
        with pytest.raises(ArgumentError):
            SheafDescriptor(-1, Divisor())

    def test_drop_bound(self):
        with pytest.raises(PreconditionError):
            SheafDescriptor(1, Divisor({"s": 2}))
        SheafDescriptor(2, Divisor({"s": 2}))

    def test_direct_sum(self):
        a = SheafDescriptor(1, Divisor({"s": 1}))
        b = SheafDescriptor(2, Divisor({"s": 2, "t": 1}))
        ab = a.direct_sum(b)
        assert ab.rank == 3
        assert ab.drops == Divisor({"s": 3, "t": 1})


class TestConstantRank:
    def test_rank_one_coefficients(self):
        s = s_constant_rank(1, 4)
        for n in range(5):
            sign = -1 if n % 2 else 1
            expected = tau(None, MultVec({1: n}) if n else MultVec(), sign)
            assert s.coefficient(n) == expected

    def test_rank_two_degree_two(self):
        s = s_constant_rank(2, 3)
        expected = tau(None, MultVec({1: 2}), 4) + tau(None, MultVec({2: 1}))
        assert s.coefficient(2) == expected
        expected3 = tau(None, MultVec({1: 3}), -8) + tau(None, MultVec({1: 1, 2: 1}), -2)
        assert s.coefficient(3) == expected3

    def test_parts_bounded_by_rank(self):
        s = s_constant_rank(2, 5)
        for n in range(6):
            for basis, _ in s.coefficient(n).terms():
                assert all(size <= 2 for size, _ in basis.e.items())

    def test_power_identity(self):
        assert s_constant_rank(3, 4) == s_constant_rank(1, 4) ** 3

    def test_validation(self):
        with pytest.raises(ArgumentError):
            s_constant_rank(0, 3)
        with pytest.raises(ArgumentError):
            s_constant_rank(1, -1)


class TestSkyscraper:
    def test_shifted_single_point(self):
        s = s_skyscraper(Divisor({"s": 2}), True, 4)
        assert s.coefficient(0) == unit()
        assert s.coefficient(1) == tau(Divisor({"s": 1}), None, -2)
        assert s.coefficient(2) == tau(Divisor({"s": 2}), None)
        assert s.coefficient(3).is_zero()
        assert s.coefficient(4).is_zero()

    def test_unshifted_single_point(self):
        s = s_skyscraper(Divisor({"s": 2}), False, 4)
        for n in range(5):
            expected = tau(Divisor({"s": n}) if n else Divisor(), None, n + 1)
            assert s.coefficient(n) == expected

    def test_two_points_shifted(self):
        s = s_skyscraper(Divisor({"s": 1, "t": 1}), True, 2)
        assert s.coefficient(1) == tau(Divisor({"s": 1}), None, -1) + tau(
            Divisor({"t": 1}), None, -1
        )
        assert s.coefficient(2) == tau(Divisor({"s": 1, "t": 1}), None)

    @given(small_mults)
    @settings(max_examples=20, deadline=None)
    def test_shift_inverts(self, mults):
        shifted = s_skyscraper(mults, True, 4)
        unshifted = s_skyscraper(mults, False, 4)
        assert shifted * unshifted == series_one(4)

    def test_empty_multiplicities(self):
        assert s_skyscraper(Divisor(), True, 3) == series_one(3)
        assert s_skyscraper(Divisor(), False, 3) == series_one(3)


class TestTame:
    def test_low_degree_coefficients(self):
        s = s_tame(1, Divisor({"s": 1}), 2)
        assert s.coefficient(1).render() == "-(tau[0; 1^1] + tau[s;])"
        expected2 = tau(None, MultVec({1: 2})) + tau(Divisor({"s": 1}), MultVec({1: 1}))
        assert s.coefficient(2) == expected2

    def test_no_drops_is_constant_rank(self):
        assert s_tame(2, Divisor(), 4) == s_constant_rank(2, 4)

    @given(small_drops, small_drops)
    @settings(max_examples=15, deadline=None)
    def test_direct_sum_multiplicative(self, d1, d2):
        lhs = s_tame(2, d1 + d2, 3)
        rhs = s_tame(1, d1, 3) * s_tame(1, d2, 3)
        assert lhs == rhs

    def test_drop_bound_enforced(self):
        with pytest.raises(PreconditionError):
            s_tame(1, Divisor({"s": 2}), 3)

    def test_divisor_coefficients_are_binomials(self):
        s = s_tame(2, Divisor({"s": 2}), 2)
        # degree 1: -(2 tau[0;1^1] + binom(2,1) tau[s;])
        assert s.coefficient(1).coeff(TauBasis(Divisor({"s": 1}), MultVec())) == -2


class TestCrossCheckMachinery:
    def test_mismatch_raises(self):
        good = series_one(2)
        bad = CycleSeries(
            [unit(), tau(Divisor({"s": 1}), None), CycleSum.zero()]
        )
        with pytest.raises(ConsistencyError, match="degree 1"):
            _assert_match(good, bad, "doctored")

    def test_match_returns_closed_route(self):
        one = series_one(2)
        assert _assert_match(one, one, "trivial") is one


def _rgs_set_partitions(n):
    # independent enumeration through restricted growth strings
    def grow(prefix, maxval):
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for v in range(maxval + 2):
            yield from grow(prefix + [v], max(maxval, v))

    if n == 0:
        yield ()
        return
    for rgs in grow([0], 0):
        blocks = {}
        for idx, v in enumerate(rgs):
            blocks.setdefault(v, []).append(idx)
        yield tuple(tuple(b) for b in blocks.values())


class TestPushforwards:
    def test_composition_frozen(self):
        assert pushforward_composition((1, 1)).render() == "2*tau[0; 1^2] + tau[0; 2^1]"
        assert pushforward_composition((2,)).render() == "tau[0; 1^2]"
        assert (
            pushforward_composition((2, 1)).render()
            == "-(tau[0; 1^1 2^1] + 3*tau[0; 1^3])"
        )

    def test_composition_empty(self):
        assert pushforward_composition(()) == unit()

    @given(st.permutations([1, 1, 2, 3]))
    @settings(max_examples=12, deadline=None)
    def test_composition_order_invariant(self, mu):
        assert pushforward_composition(tuple(mu)) == pushforward_composition((3, 2, 1, 1))

    @given(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    @settings(max_examples=20, deadline=None)
    def test_composition_is_product_of_columns(self, mu):
        # independent route: multiply the single-column classes directly
        expected = unit()
        for p in mu:
            expected = expected * tau(None, MultVec({1: p}), (-1) ** p)
        assert pushforward_composition(tuple(mu)) == expected

    def test_partition_frozen(self):
        assert pushforward_partition((1,)).render() == "-tau[0; 1^1]"
        assert pushforward_partition((2,)).render() == "-tau[0; 2^1]"
        assert (
            pushforward_partition((2, 1)).render() == "tau[0; 1^1 2^1] + tau[0; 3^1]"
        )
        got = pushforward_partition((1, 1, 1))
        expected = (
            tau(None, MultVec({1: 3}), -6)
            + tau(None, MultVec({1: 1, 2: 1}), -3)
            + tau(None, MultVec({3: 1}), -1)
        )
        assert got == expected

    @given(st.lists(st.integers(1, 3), min_size=0, max_size=4))
    @settings(max_examples=25, deadline=None)
    def test_partition_matches_rgs_oracle(self, raw):
        lam = tuple(sorted(raw, reverse=True))
        acc = {}
        for blocks in _rgs_set_partitions(len(lam)):
            merged = tuple(
                sorted((sum(lam[i] for i in b) for b in blocks), reverse=True)
            )
            f = MultVec.from_partition(merged)
            acc[f] = acc.get(f, 0) + f.factorial_product()
        sign = -1 if len(lam) % 2 else 1
        expected = CycleSum(
            {TauBasis(Divisor(), f): sign * c for f, c in acc.items()}
        )
        assert pushforward_partition(lam) == expected

    def test_all_ones_matches_composition(self):
        # 9 and 12 ones are past the enumeration cap, so only the fold runs
        for n in (*range(5), 9, 12):
            ones = (1,) * n
            assert pushforward_partition(ones) == pushforward_composition(ones)

    def test_fold_matches_merge_enumeration(self):
        for n in range(11):
            for lam in partitions(n):
                if len(lam) <= 8:
                    assert pushforward_partition(lam) == _merge_enumeration(lam)

    def test_route_mismatch_raises(self, monkeypatch):
        def off_by_one(parts):
            return _merge_enumeration(parts) + tau()

        monkeypatch.setattr(sheaves, "_merge_enumeration", off_by_one)
        with pytest.raises(ConsistencyError, match="enumeration and factor product disagree"):
            pushforward_partition((2, 1))
        pushforward_partition((1,) * 9)  # past the cap the enumeration is not consulted

    def test_characteristic_guard(self):
        with pytest.raises(PreconditionError, match="characteristic 2"):
            pushforward_partition((2, 1), base_char=2)
        pushforward_partition((3, 1), base_char=2)
        with pytest.raises(ArgumentError):
            pushforward_partition((1,), base_char=4)
        with pytest.raises(ArgumentError):
            pushforward_partition((1,), base_char=-3)

    def test_composition_validation(self):
        with pytest.raises(ArgumentError):
            pushforward_composition((0,))
        with pytest.raises(ArgumentError):
            pushforward_composition((1, -1))
