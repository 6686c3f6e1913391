import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taucycles import index
from taucycles.combinat import (
    compositions,
    conjugate,
    count_m,
    count_m_oracle,
    gen_binomial,
    partitions,
)
from taucycles.cycle_algebra import tau
from taucycles.divisors import Divisor
from taucycles.errors import ArgumentError, ConsistencyError
from taucycles.index import (
    chi_sym_powers,
    index_check,
    index_matrix,
    infer_degrees,
    verify_series_index,
)
from taucycles.series import CycleSeries
from taucycles.sheaves import SheafDescriptor, s_skyscraper, s_tame


def coeff_one_minus_t(power, n):
    return (-1) ** n * gen_binomial(power, n)


class TestChiSymPowers:
    def test_frozen(self):
        assert chi_sym_powers(2, 5) == [1, 2, 3, 4, 5, 6]
        assert chi_sym_powers(1, 4) == [1, 1, 1, 1, 1]
        assert chi_sym_powers(0, 4) == [1, 0, 0, 0, 0]
        assert chi_sym_powers(-1, 4) == [1, -1, 0, 0, 0]
        assert chi_sym_powers(-2, 4) == [1, -2, 1, 0, 0]

    @given(st.integers(-4, 4), st.integers(0, 8))
    def test_binomial_series(self, chi, max_n):
        values = chi_sym_powers(chi, max_n)
        for n, v in enumerate(values):
            assert v == (-1) ** n * gen_binomial(-chi, n)

    def test_multiplicativity(self):
        # chi additive under direct sum means the series multiply
        a = chi_sym_powers(1, 6)
        b = chi_sym_powers(-3, 6)
        c = chi_sym_powers(-2, 6)
        for n in range(7):
            assert c[n] == sum(a[i] * b[n - i] for i in range(n + 1))

    def test_validation(self):
        with pytest.raises(ArgumentError):
            chi_sym_powers(1, -1)


class TestIndexMatrix:
    def test_frozen_n3(self):
        lams, matrix = index_matrix(3)
        assert lams == [(3,), (2, 1), (1, 1, 1)]
        assert matrix == [[1, 3, 6], [0, 1, 3], [0, 0, 1]]

    def test_trivial_cases(self):
        assert index_matrix(0) == ([()], [[1]])
        assert index_matrix(1) == ([(1,)], [[1]])

    def test_triangular_through_n7(self):
        for n in range(8):
            lams, matrix = index_matrix(n)
            for i in range(len(lams)):
                assert matrix[i][i] == 1
                for j in range(i):
                    assert matrix[i][j] == 0

    def test_last_column_counts_permutation_matrices(self):
        # column (1^n): count of 0-1 matrices with row sums conj(lam)
        # and n unit columns is the multinomial n!/prod(conj parts)!
        import math

        for n in range(1, 6):
            lams, matrix = index_matrix(n)
            for i, lam in enumerate(lams):
                conj = [0] * lam[0]
                for p in lam:
                    for k in range(p):
                        conj[k] += 1
                expected = math.factorial(n)
                for p in conj:
                    expected //= math.factorial(p)
                assert matrix[i][-1] == expected


class TestInferDegrees:
    def test_frozen_small(self):
        assert infer_degrees(0, 0) == {(): 1}
        assert infer_degrees(0, 1) == {(1,): -2}
        assert infer_degrees(2, 1) == {(1,): 2}
        assert infer_degrees(2, 2) == {(1, 1): 1, (2,): 2}
        assert infer_degrees(0, 3) == {(1, 1, 1): -4, (2, 1): 6, (3,): -2}

    def test_genus_one_vanishes(self):
        for n in range(1, 6):
            assert set(infer_degrees(1, n).values()) == {0}
        assert infer_degrees(1, 0) == {(): 1}

    @given(st.integers(0, 3), st.integers(0, 6))
    @settings(max_examples=40, deadline=None)
    def test_column_anchor(self, genus, n):
        degrees = infer_degrees(genus, n)
        ones = (1,) * n
        assert (-1) ** n * degrees[ones] == coeff_one_minus_t(2 * genus - 2, n)

    def test_genus_zero_anchor(self):
        for n in range(7):
            assert (-1) ** n * infer_degrees(0, n)[(1,) * n] == n + 1

    def test_covers_all_partitions(self):
        got = infer_degrees(3, 5)
        assert set(got) == set(partitions(5))


class TestIndexRoutes:
    def test_relations_hold_for_every_composition(self):
        # the full overdetermined system, through the public count_m; the
        # triangular solve only uses the sorted column sums
        for genus in range(5):
            for n in range(9):
                degrees = infer_degrees(genus, n)
                chi = chi_sym_powers(2 - 2 * genus, n)
                for mu in compositions(n):
                    lhs = sum(count_m(lam, mu) * d for lam, d in degrees.items())
                    assert lhs == (-1) ** n * math.prod(chi[p] for p in mu), (genus, mu)

    def test_matrix_matches_public_count_m(self):
        for n in range(10):
            lams, matrix = index_matrix(n)
            assert lams == list(partitions(n))
            for lam, row in zip(lams, matrix):
                rows = conjugate(lam)
                for mu, entry in zip(lams, row):
                    assert entry == count_m(rows, mu)
                    if len(rows) * len(mu) <= 20:
                        assert entry == count_m_oracle(rows, mu)

    def test_corrupted_solve_is_caught(self, monkeypatch):
        original = index._chi_product

        def off_by_one(chi_values, parts, n):
            return original(chi_values, parts, n) + (1 if parts == (2, 1) else 0)

        monkeypatch.setattr(index, "_chi_product", off_by_one)
        index._infer_degrees_cached.cache_clear()
        try:
            with pytest.raises(ConsistencyError, match="closed form"):
                infer_degrees(2, 3)
        finally:
            index._infer_degrees_cached.cache_clear()


class TestVerifySeriesIndex:
    def test_unshifted_skyscraper_has_unit_chi(self):
        series = s_skyscraper(Divisor({"s": 1}), False, 5)
        assert verify_series_index(series, chi_sym_powers(1, 5), 3)

    def test_shifted_skyscraper(self):
        series = s_skyscraper(Divisor({"s": 2}), True, 5)
        assert verify_series_index(series, chi_sym_powers(-2, 5), 0)

    def test_mismatch_raises(self):
        series = s_skyscraper(Divisor({"s": 1}), False, 3)
        with pytest.raises(ConsistencyError, match="degree 1"):
            verify_series_index(series, chi_sym_powers(-1, 3), 0)

    def test_needs_enough_values(self):
        series = s_skyscraper(Divisor({"s": 1}), False, 3)
        with pytest.raises(ArgumentError):
            verify_series_index(series, [1, 1], 0)

    def test_degree_zero_uses_empty_partition(self):
        series = CycleSeries([tau()])
        assert verify_series_index(series, [1], 2)


class TestIndexCheck:
    def test_rank_one_grid(self):
        for genus in (0, 1, 2):
            assert index_check(genus, SheafDescriptor(1, Divisor()), 4)
            assert index_check(genus, SheafDescriptor(1, Divisor({"s": 1})), 4)

    def test_higher_rank(self):
        assert index_check(2, SheafDescriptor(2, Divisor({"s": 2, "t": 1})), 4)
        assert index_check(3, SheafDescriptor(3, Divisor({"s": 3})), 4)

    @given(
        st.integers(0, 2),
        st.integers(1, 2),
        st.dictionaries(st.sampled_from(["s", "t"]), st.integers(1, 2), max_size=2),
    )
    @settings(max_examples=20, deadline=None)
    def test_random_grid(self, genus, rank, drops):
        drops = {k: min(v, rank) for k, v in drops.items()}
        assert index_check(genus, SheafDescriptor(rank, Divisor(drops)), 4)
