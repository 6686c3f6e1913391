import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import is_prime_trial_division, skyscraper_closed_compositions
from taucycles import sheaves
from taucycles.combinat import MultVec, compositions, count_m, partitions
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

PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _strong_probable_prime(n: int, a: int) -> bool:
    # n - 1 = d * 2^s with d odd: a^d is 1, or a^(d * 2^r) is -1 for some r < s
    s = ((n - 1) & (1 - n)).bit_length() - 1
    x = pow(a, (n - 1) >> s, n)
    return x == 1 or any(pow(x, 2**r, n) == n - 1 for r in range(s))


points = st.sampled_from(["s", "t"])
small_drops = st.dictionaries(points, st.just(1), max_size=2).map(Divisor)
small_mults = st.dictionaries(points, st.integers(1, 2), max_size=2).map(Divisor)


class TestDescriptor:
    def test_rank_validation(self):
        for rank in (0, -1, True, 1.0, "1"):
            with pytest.raises(ArgumentError, match="rank must be a positive integer"):
                SheafDescriptor(rank, Divisor())

    def test_drops_must_be_a_divisor(self):
        with pytest.raises(ArgumentError, match="drops must be a Divisor"):
            SheafDescriptor(1, {"s": 1})

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

    def test_more_points_than_the_recursion_limit(self):
        # the closed route walks the compositions of each degree over all the points
        names = [f"p{i:04d}" for i in range(1200)]
        s = s_skyscraper(Divisor(dict.fromkeys(names, 1)), False, 1)
        expected = CycleSum({TauBasis(Divisor({p: 1}), MultVec()): 1 for p in names})
        assert s.coefficient(1) == expected


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

    def test_composition_matches_count_m_expansion_through_8(self):
        for n in range(9):
            for mu in compositions(n):
                expected = CycleSum({
                    TauBasis(Divisor(), MultVec.from_partition(lam)): (-1) ** n * count_m(lam, mu)
                    for lam in partitions(n)
                })
                assert pushforward_composition(mu) == expected, mu

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
        for n in (*range(5), 9, 12):
            ones = (1,) * n
            assert pushforward_partition(ones) == pushforward_composition(ones)

    def test_fold_matches_merge_enumeration(self):
        for n in range(17):
            for lam in partitions(n):
                if n <= 10 or len(lam) >= 9:
                    assert pushforward_partition(lam) == _merge_enumeration(lam)

    def test_route_mismatch_raises(self, monkeypatch):
        def off_by_one(parts):
            return _merge_enumeration(parts) + tau()

        monkeypatch.setattr(sheaves, "_merge_enumeration", off_by_one)
        for parts in ((2, 1), (1,) * 9, (3, 2, 2) + (1,) * 13):
            with pytest.raises(ConsistencyError, match="enumeration and factor product disagree"):
                pushforward_partition(parts)

    def test_characteristic_guard(self):
        with pytest.raises(PreconditionError, match="characteristic 2"):
            pushforward_partition((2, 1), base_char=2)
        pushforward_partition((3, 1), base_char=2)
        with pytest.raises(ArgumentError):
            pushforward_partition((1,), base_char=4)
        with pytest.raises(ArgumentError):
            pushforward_partition((1,), base_char=-3)

    def test_primality_matches_trial_division_below_200000(self):
        assert [p for p in range(200_000) if sheaves._is_prime(p)] == [
            p for p in range(200_000) if is_prime_trial_division(p)
        ]

    def test_strong_pseudoprimes_to_the_smaller_bases_are_refused(self):
        # each passes the strong test to every prime base below the one that catches it
        for composite, catcher in (
            (3215031751, 11),
            (3825123056546413051, 37),
            (318665857834031151167461, 41),
        ):
            bases = [a for a in PRIME_BASES if a < catcher]
            assert all(_strong_probable_prime(composite, a) for a in bases), composite
            assert not _strong_probable_prime(composite, catcher)
            assert not sheaves._is_prime(composite)
            with pytest.raises(ArgumentError, match="must be 0 or a prime"):
                pushforward_partition((1,), base_char=composite)

    def test_large_primes_within_the_bound(self):
        # the last is the largest prime below the bound
        for p in (1000000000000000003, 2**61 - 1, 3317044064679887385961813):
            assert sheaves._is_prime(p)
        assert pushforward_partition((2, 1), base_char=1000000000000000003) == (
            pushforward_partition((2, 1))
        )

    def test_probable_prime_above_the_bound_is_a_precondition(self):
        # the bound itself is composite and passes every base, so no prime is claimed there
        bound = sheaves.MAX_PRIME_CHAR
        assert all(_strong_probable_prime(bound, a) for a in PRIME_BASES)
        for p in (bound, 2**127 - 1):
            with pytest.raises(PreconditionError, match="decided only below"):
                pushforward_partition((1,), base_char=p)
        # a composite above the bound still has a witness
        with pytest.raises(ArgumentError, match="must be 0 or a prime"):
            pushforward_partition((1,), base_char=(2**61 - 1) * (2**89 - 1))

    def test_composition_validation(self):
        with pytest.raises(ArgumentError):
            pushforward_composition((0,))
        with pytest.raises(ArgumentError):
            pushforward_composition((1, -1))


def test_skyscraper_closed_route_matches_the_composition_walk():
    # the rank-0 tame closed form against a walk over the compositions of each
    # degree, raw store against raw store: 341 divisors, both shifts, degree 0-8.
    # A coefficient does not depend on the truncation, so one walk serves all nine
    names = ("s", "p1", "t", "u")
    for k in range(5):
        for mults in itertools.product(range(1, 5), repeat=k):
            d = Divisor(dict(zip(names, mults)))
            for shifted in (True, False):
                expected = skyscraper_closed_compositions(d, shifted, 8)
                for max_degree in range(9):
                    closed = sheaves._skyscraper_closed(d, shifted, max_degree)
                    got = tuple(closed.coefficient(n)._raw for n in range(max_degree + 1))
                    assert got == expected[: max_degree + 1], (d, shifted, max_degree)
