import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    coarsenings,
    compositions_fixed_length_recursive,
    compositions_recursive,
    count_m_oracle,
    merge_closure_leq,
)
from taucycles.combinat import (
    MultVec,
    _conjugate,
    _partition_items,
    compositions,
    compositions_fixed_length,
    conjugate,
    count_m,
    gen_binomial,
    partitions,
    set_partitions,
    validate_partition,
)
from taucycles.errors import ArgumentError

BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140]

small_partition = st.lists(st.integers(1, 4), min_size=0, max_size=4).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)


def test_partition_counts():
    expected = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]
    assert [sum(1 for _ in partitions(n)) for n in range(10)] == expected


def test_partitions_descending_lex():
    lams = list(partitions(6))
    assert lams[0] == (6,)
    assert lams[-1] == (1,) * 6
    assert all(lams[i] > lams[i + 1] for i in range(len(lams) - 1))


def test_partitions_max_part():
    assert list(partitions(4, max_part=2)) == [(2, 2), (2, 1, 1), (1, 1, 1, 1)]


def _recursive_partitions(n, top):
    if n == 0:
        yield ()
        return
    for first in range(min(n, top), 0, -1):
        for rest in _recursive_partitions(n - first, first):
            yield (first,) + rest


def test_partitions_order_matches_recursive_reference():
    for n in range(15):
        assert list(partitions(n)) == list(_recursive_partitions(n, n))
        for top in range(-1, n + 2):
            assert list(partitions(n, max_part=top)) == list(_recursive_partitions(n, top))


def test_partitions_deeper_than_the_recursion_limit():
    assert list(partitions(990, max_part=1)) == [(1,) * 990]
    assert sum(1 for _ in partitions(990, max_part=2)) == 496


def test_partition_validation():
    with pytest.raises(ArgumentError):
        validate_partition((1, 2))
    with pytest.raises(ArgumentError):
        validate_partition((2, 0))
    with pytest.raises(ArgumentError):
        list(partitions(-1))
    # the public entry points keep their checks in front of the unchecked helpers
    with pytest.raises(ArgumentError, match="weakly decreasing"):
        conjugate((1, 2))
    with pytest.raises(ArgumentError, match="positive integers"):
        MultVec.from_partition((2, 0))
    with pytest.raises(ArgumentError, match="weakly decreasing"):
        count_m((1, 2), (3,))


def test_unchecked_helpers_match_the_checked_ones_through_16():
    for n in range(17):
        for lam in partitions(n):
            items = tuple(sorted(Counter(lam).items()))
            assert _partition_items(lam) == MultVec.from_partition(lam).items() == items, lam
            columns = tuple(sum(p > k for p in lam) for k in range(lam[0] if lam else 0))
            assert _conjugate(lam) == conjugate(lam) == columns, lam


def test_compositions_count():
    # 2^(n-1) compositions of n
    for n in range(1, 8):
        assert sum(1 for _ in compositions(n)) == 2 ** (n - 1)


def test_composition_walks_match_the_recursive_ones():
    for n in range(11):
        assert list(compositions(n)) == list(compositions_recursive(n)), n
        for length in range(7):
            got = list(compositions_fixed_length(n, length))
            assert got == list(compositions_fixed_length_recursive(n, length)), (n, length)


def test_composition_walks_deeper_than_the_recursion_limit():
    walk = compositions(1200)
    assert next(walk) == (1,) * 1200
    assert next(walk) == (1,) * 1198 + (2,)
    walk = compositions_fixed_length(1, 1200)
    assert next(walk) == (0,) * 1199 + (1,)
    assert next(walk) == (0,) * 1198 + (1, 0)


def test_compositions_fixed_length_count():
    for n in range(6):
        assert sum(1 for _ in compositions_fixed_length(n, 0)) == (1 if n == 0 else 0)
        for r in range(1, 5):
            got = sum(1 for _ in compositions_fixed_length(n, r))
            assert got == math.comb(n + r - 1, r - 1)


@given(small_partition)
def test_conjugate_involution(lam):
    assert conjugate(conjugate(lam)) == lam


@given(small_partition)
def test_conjugate_preserves_weight(lam):
    assert sum(conjugate(lam)) == sum(lam)


class TestMultVec:
    def test_round_trip_frozen(self):
        e = MultVec({1: 2, 3: 1})
        assert e.to_partition() == (3, 1, 1)
        assert MultVec.from_partition((3, 1, 1)) == e
        assert e.length == 3
        assert e.weight == 5
        assert e.factorial_product() == 2

    @given(small_partition)
    def test_round_trip(self, lam):
        assert MultVec.from_partition(lam).to_partition() == lam

    def test_render_parse(self):
        e = MultVec({1: 2, 2: 1})
        assert e.render() == "1^2 2^1"
        assert MultVec.parse("1^2 2^1") == e
        assert MultVec.parse("") == MultVec()
        assert MultVec.parse("0") == MultVec()
        assert MultVec.parse("3") == MultVec({3: 1})

    @given(small_partition)
    def test_parse_render_round_trip(self, lam):
        e = MultVec.from_partition(lam)
        assert MultVec.parse(e.render()) == e

    def test_parse_rejects_garbage(self):
        for bad in ("x", "1^", "0^2", "2^-1", "1^1 1^2"):
            with pytest.raises(ArgumentError):
                MultVec.parse(bad)

    def test_zero_counts_dropped(self):
        assert MultVec({2: 0}) == MultVec()
        assert not MultVec({2: 0})


class TestCountM:
    def test_frozen_values(self):
        assert count_m((1, 1), (1, 1)) == 2
        assert count_m((2,), (1, 1)) == 1
        assert count_m((2,), (2,)) == 0
        assert count_m((1, 1, 1), (2, 1)) == 3
        assert count_m((2, 1), (1, 1, 1)) == 3
        assert count_m((), ()) == 1

    def test_zero_columns_ignored(self):
        assert count_m((2, 1), (1, 1, 1, 0, 0)) == count_m((2, 1), (1, 1, 1))

    def test_degree_mismatch(self):
        with pytest.raises(ArgumentError):
            count_m((2,), (1,))

    @given(
        st.lists(st.integers(1, 3), min_size=0, max_size=3).map(
            lambda xs: tuple(sorted(xs, reverse=True))
        ),
        st.data(),
    )
    @settings(max_examples=60)
    def test_matches_oracle(self, lam, data):
        n = sum(lam)
        # cut points give a uniform-ish composition of n without filtering
        r = data.draw(st.integers(1, 4))
        cuts = sorted(data.draw(st.lists(st.integers(0, n), min_size=r - 1, max_size=r - 1)))
        bounds = [0] + cuts + [n]
        cols = tuple(bounds[i + 1] - bounds[i] for i in range(r))
        assert count_m(lam, cols) == count_m_oracle(lam, cols)

    @given(small_partition)
    def test_row_sum_identity(self, lam):
        # grouping the 0-1 matrices with r columns by their column sums
        n = sum(lam)
        for r in (1, 2, 3):
            total = sum(count_m(lam, mu) for mu in compositions_fixed_length(n, r))
            assert total == math.prod(math.comb(r, p) for p in lam)

    def test_column_order_invariance(self):
        assert count_m((2, 1, 1), (2, 1, 1)) == count_m((2, 1, 1), (1, 2, 1))

    def test_oracle_size_guard(self):
        with pytest.raises(ArgumentError):
            count_m_oracle((2, 2, 2, 2, 2), (2, 2, 2, 2, 2))


class TestGenBinomial:
    def test_frozen(self):
        assert gen_binomial(5, 2) == 10
        assert gen_binomial(-1, 3) == -1
        assert gen_binomial(-2, 2) == 3
        assert gen_binomial(0, 0) == 1
        assert gen_binomial(2, 5) == 0

    @given(st.integers(0, 12), st.integers(0, 8))
    def test_matches_comb(self, a, m):
        assert gen_binomial(a, m) == math.comb(a, m)

    @given(st.integers(1, 10), st.integers(0, 8))
    def test_negation_rule(self, a, m):
        assert gen_binomial(-a, m) == (-1) ** m * math.comb(a + m - 1, m)

    def test_rejects_negative_lower(self):
        with pytest.raises(ArgumentError):
            gen_binomial(3, -1)


class TestSetPartitions:
    def test_bell_counts(self):
        for n in range(8):
            assert sum(1 for _ in set_partitions(range(n))) == BELL[n]

    def test_blocks_partition_the_set(self):
        for p in set_partitions("abcd"):
            flat = [x for b in p for x in b]
            assert sorted(flat) == list("abcd")
            assert all(b for b in p)

    def test_distinctness_required(self):
        with pytest.raises(ArgumentError):
            list(set_partitions("aa"))


class TestCoarsenings:
    def test_count_is_bell_in_block_number(self):
        base = [(0,), (1,), (2, 3), (4,)]
        assert len(coarsenings(base)) == BELL[4]

    def test_contains_input_and_total_merge(self):
        base = [(0, 1), (2,)]
        results = coarsenings(base)
        assert tuple(sorted(((0, 1), (2,)))) in results
        assert ((0, 1, 2),) in results

    def test_rejects_overlap(self):
        with pytest.raises(ArgumentError):
            coarsenings([(0, 1), (1, 2)])


class TestMergeClosure:
    def test_reflexive(self):
        assert merge_closure_leq((2, 1), (2, 1))

    def test_simple_merges(self):
        assert merge_closure_leq((1, 1, 1), (3,))
        assert merge_closure_leq((1, 1, 1), (2, 1))
        assert merge_closure_leq((2, 1), (3,))
        assert not merge_closure_leq((2, 2), (3, 1))

    def test_weight_mismatch(self):
        with pytest.raises(ArgumentError):
            merge_closure_leq((2,), (3,))

    @given(small_partition, st.data())
    @settings(max_examples=40)
    def test_merging_two_parts_is_reachable(self, lam, data):
        if len(lam) < 2:
            return
        i = data.draw(st.integers(0, len(lam) - 2))
        merged = tuple(
            sorted(lam[:i] + lam[i + 2 :] + (lam[i] + lam[i + 1],), reverse=True)
        )
        assert merge_closure_leq(lam, merged)
