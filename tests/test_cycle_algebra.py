import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import basis_of_grade_sorted, structure_constants_set_partitions
from taucycles import cycle_algebra
from taucycles.combinat import MultVec, partitions
from taucycles.cycle_algebra import (
    CycleSum,
    TauBasis,
    basis_of_grade,
    structure_constants,
    tau,
    unit,
)
from taucycles.divisors import Divisor
from taucycles.errors import ArgumentError
from taucycles.selftest import structure_constants_oracle
from taucycles.sheaves import s_tame

small_e = st.lists(st.integers(1, 3), min_size=0, max_size=3).map(
    lambda xs: MultVec.from_partition(sorted(xs, reverse=True))
)
small_delta = st.dictionaries(st.sampled_from(["s", "t"]), st.integers(1, 2), max_size=2).map(
    Divisor
)
small_cycle = st.builds(lambda d, e, c: tau(d, e, c), small_delta, small_e, st.integers(-3, 3))


class TestStructureConstants:
    def test_two_points(self):
        e1 = MultVec({1: 1})
        got = structure_constants(e1, e1)
        assert got == {MultVec({1: 2}): 2, MultVec({2: 1}): 1}

    def test_pair_and_point(self):
        # recomputed by hand twice: matching-matrix route and the raw
        # enumeration below both give 1 for the mixed shape
        got = structure_constants(MultVec({1: 2}), MultVec({1: 1}))
        assert got == {MultVec({1: 3}): 3, MultVec({1: 1, 2: 1}): 1}

    def test_doubleton_and_point(self):
        got = structure_constants(MultVec({2: 1}), MultVec({1: 1}))
        assert got == {MultVec({1: 1, 2: 1}): 1, MultVec({3: 1}): 1}

    def test_empty_factor(self):
        e = MultVec({2: 1})
        assert structure_constants(MultVec(), e) == {e: 1}
        assert structure_constants(MultVec(), MultVec()) == {MultVec(): 1}

    @given(small_e, small_e)
    @settings(max_examples=50, deadline=None)
    def test_matches_oracle(self, a, b):
        if a.weight + b.weight > 7:
            return
        assert structure_constants(a, b) == structure_constants_oracle(a, b)

    @given(small_e, small_e)
    def test_symmetry_and_weight(self, a, b):
        got = structure_constants(a, b)
        assert got == structure_constants(b, a)
        assert all(f.weight == a.weight + b.weight for f in got)
        assert all(n > 0 for n in got.values())

    def test_matching_oracle_matches_the_set_partition_definition(self):
        vecs = [MultVec.from_partition(lam) for w in range(8) for lam in partitions(w)]
        pairs = [(a, b) for a in vecs for b in vecs if a.weight + b.weight <= 7]
        assert len(pairs) == 249
        for a, b in pairs:
            assert structure_constants_oracle(a, b) == structure_constants_set_partitions(a, b)

    def test_oracle_weight_guard(self):
        big = MultVec({6: 1})
        with pytest.raises(ArgumentError):
            structure_constants_oracle(big, big)

    @given(small_e, small_e)
    @settings(max_examples=30, deadline=None)
    def test_multiset_normalization_counts(self, a, b):
        # in the multiset normalization the constants are the raw numbers
        # of admissible merges, so they are nonnegative integers
        if a.weight + b.weight > 6:
            return
        for f, n in structure_constants(a, b).items():
            raw = n * a.factorial_product() * b.factorial_product()
            assert raw % f.factorial_product() == 0

    def test_cache_stays_bounded_over_a_long_series(self):
        # unbounded, this series left 4,065 entries; each product still checks its two routes
        cache = cycle_algebra._structure_constants_items
        cache.cache_clear()
        s_tame(3, Divisor(), 35)
        info = cache.cache_info()
        assert info.maxsize == 2048
        assert info.misses > info.maxsize
        assert info.currsize <= info.maxsize


class TestRingAxioms:
    @given(small_cycle, small_cycle)
    @settings(max_examples=40, deadline=None)
    def test_commutativity(self, x, y):
        assert x * y == y * x

    @given(small_cycle, small_cycle, small_cycle)
    @settings(max_examples=25, deadline=None)
    def test_associativity(self, x, y, z):
        assert (x * y) * z == x * (y * z)

    @given(small_cycle, small_cycle, small_cycle)
    @settings(max_examples=25, deadline=None)
    def test_distributivity(self, x, y, z):
        assert x * (y + z) == x * y + x * z

    @given(small_cycle)
    def test_unit_law(self, x):
        assert unit() * x == x
        assert x * unit() == x

    @given(small_cycle, small_cycle)
    @settings(max_examples=30, deadline=None)
    def test_grading(self, x, y):
        grades_x = x.grades()
        grades_y = y.grades()
        if len(grades_x) != 1 or len(grades_y) != 1:
            return
        product = x * y
        assert product.is_zero() or product.grades() == (grades_x[0] + grades_y[0],)

    def test_pow(self):
        t1 = tau(None, MultVec({1: 1}))
        x = t1.scale(2) - tau(Divisor({"s": 1}))
        for base in (t1, x):
            by_mul = unit()
            for k in range(5):
                assert base**k == by_mul, (base, k)
                by_mul = by_mul * base

    def test_divisor_translation(self):
        left = tau(Divisor({"s": 1}), MultVec({1: 1}))
        right = tau(Divisor({"t": 2}), MultVec({1: 1}))
        product = left * right
        assert all(b.delta == Divisor({"s": 1, "t": 2}) for b, _ in product.terms())


class TestCycleSumBehavior:
    def test_cancellation(self):
        x = tau(None, MultVec({1: 1}))
        assert (x - x).is_zero()
        assert (x - x).render() == "0"

    def test_scalar_ops(self):
        x = tau(None, MultVec({1: 1}))
        assert 3 * x == x + x + x
        assert x * 3 == 3 * x
        assert (-x).terms()[0][1] == -1

    def test_coeff_lookup(self):
        x = tau(Divisor({"s": 1}), MultVec({2: 1}), 5)
        basis = TauBasis(Divisor({"s": 1}), MultVec({2: 1}))
        assert x.coeff(basis) == 5
        assert x.coeff(TauBasis(Divisor(), MultVec())) == 0

    def test_basis_immutable(self):
        b = TauBasis(Divisor(), MultVec())
        with pytest.raises(AttributeError):
            b.delta = Divisor({"s": 1})


class TestRendering:
    def test_positive_sum(self):
        x = tau(None, MultVec({1: 2}), 2) + tau(None, MultVec({2: 1}))
        assert x.render() == "2*tau[0; 1^2] + tau[0; 2^1]"

    def test_single_negative(self):
        assert tau(None, MultVec({1: 1}), -1).render() == "-tau[0; 1^1]"
        assert tau(None, MultVec({1: 1}), -3).render() == "-3*tau[0; 1^1]"

    def test_all_negative_grouped(self):
        x = tau(None, MultVec({1: 1}), -1) + tau(Divisor({"s": 1}), None, -1)
        assert x.render() == "-(tau[0; 1^1] + tau[s;])"

    def test_mixed_signs(self):
        x = tau(None, MultVec({1: 1})) + tau(None, MultVec({2: 1}), -2)
        assert x.render() == "tau[0; 1^1] - 2*tau[0; 2^1]"

    def test_unit_rendering(self):
        assert unit().render() == "1"
        assert tau(None, None, -1).render() == "-1"
        assert (unit() + tau(None, MultVec({1: 1}))).render() == "1 + tau[0; 1^1]"

    def test_empty_e_no_space(self):
        assert tau(Divisor({"s": 1}), None).render() == "tau[s;]"

    def test_divisor_rendering_in_terms(self):
        assert tau(Divisor({"s": 2, "t": 1}), MultVec({1: 1})).render() == "tau[2*s + t; 1^1]"

    def test_term_order_is_stable(self):
        x = tau(Divisor({"t": 1}), None) + tau(Divisor({"s": 1}), None) + tau(None, MultVec({1: 1}))
        assert x.render() == "tau[0; 1^1] + tau[s;] + tau[t;]"

    def test_latex_samples(self):
        assert unit().latex() == "1"
        assert tau(None, MultVec({1: 2, 2: 1})).latex() == r"\tau^*_{4=2+1+1}"
        assert tau(None, MultVec({3: 1})).latex() == r"\tau^*_{3}"
        assert tau(Divisor({"s": 2, "t": 1}), None).latex() == r"\tau^*_{2s+t}"
        mixed = tau(Divisor({"s": 2, "t": 1}), MultVec({1: 2, 2: 1}))
        assert mixed.latex() == r"\tau^*_{2s+t,\,4=2+1+1}"
        assert tau(None, MultVec({1: 1}), -1).latex() == r"-\tau^*_{1}"


class TestBasisOfGrade:
    def test_counts_two_points(self):
        counts = [len(basis_of_grade(k, ["s", "t"])) for k in range(7)]
        assert counts == [1, 3, 7, 14, 26, 45, 75]

    def test_counts_no_points(self):
        # no divisor part: partitions only
        counts = [len(basis_of_grade(k, [])) for k in range(8)]
        assert counts == [1, 1, 2, 3, 5, 7, 11, 15]

    def test_grades_and_support(self):
        for b in basis_of_grade(4, ["s"]):
            assert b.grade == 4
            assert set(b.delta.support) <= {"s"}

    def test_negative_grade(self):
        with pytest.raises(ArgumentError):
            basis_of_grade(-1, [])

    @pytest.mark.parametrize("grade", ["3", 2.5, True, None])
    def test_grade_that_is_not_an_integer(self, grade):
        with pytest.raises(ArgumentError, match=r"^grade must be an integer, got "):
            basis_of_grade(grade, ["s"])

    @pytest.mark.parametrize("points", [[], ["s"], ["t", "s"], ["u", "s", "p1", "s"]])
    def test_matches_the_sorted_build(self, points):
        # generated in output order, the list equals the build-then-sort reference
        for k in range(13):
            assert basis_of_grade(k, points) == basis_of_grade_sorted(k, points), (k, points)

    def test_calls_no_validating_constructor(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a validating constructor ran")

        monkeypatch.setattr(TauBasis, "__init__", refuse)
        monkeypatch.setattr(MultVec, "from_partition", refuse)
        assert len(basis_of_grade(6, ["s", "t"])) == 75
