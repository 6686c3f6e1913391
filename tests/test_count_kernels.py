"""The two exponential kernels of the counting path against their oracles.

``combinat._count_binary_matrices`` (the 0-1 matrix count) and
``sheaves._merge_enumeration`` (the set-partition sum behind partition
pushforwards) both work on aggregated states.  These tests compare them
exactly with the slow routes in ``oracles``, check that an off-by-one in
either is caught by the cross-check that consumes it, and pin the work
they do in counts that do not depend on timing.
"""

import sys
from collections import Counter

import pytest

from oracles import count_binary_matrices_recursion, count_m_oracle, merge_enumeration
from taucycles import combinat, cycle_algebra, geometry, index, sheaves
from taucycles.combinat import MultVec, conjugate, partitions
from taucycles.divisors import Divisor
from taucycles.errors import ConsistencyError
from taucycles.records import SheafDescriptor
from taucycles.sheaves import _merge_enumeration, pushforward_composition, pushforward_partition

COUNT = combinat._count_binary_matrices  # the memoised kernel, kept past any monkeypatch


@pytest.fixture
def cold_caches():
    # start from an empty count cache, and leave none filled through a patch
    _clear_count_caches()
    yield
    _clear_count_caches()


def _clear_count_caches():
    COUNT.cache_clear()
    index._verified_matrix.cache_clear()
    index._infer_degrees_cached.cache_clear()


def _corrupt_count(monkeypatch, key):
    def off_by_one(rows, cols):
        return COUNT(rows, cols) + (1 if (rows, cols) == key else 0)

    # index imports the kernel by name, and the recursion looks itself up in combinat
    monkeypatch.setattr(combinat, "_count_binary_matrices", off_by_one)
    monkeypatch.setattr(index, "_count_binary_matrices", off_by_one)


def test_count_matches_recursion_and_enumeration_through_13(cold_caches):
    for n in range(14):
        lams = list(partitions(n))
        for rows in map(conjugate, lams):
            for mu in lams:
                got = COUNT(rows, mu)
                assert got == count_binary_matrices_recursion(rows, mu), (rows, mu)
                if len(rows) * len(mu) <= 20:
                    assert got == count_m_oracle(rows, mu), (rows, mu)


def test_merge_dp_matches_set_partition_enumeration_through_12():
    for n in range(13):
        for lam in partitions(n):
            if len(lam) <= 8:
                assert _merge_enumeration(lam) == merge_enumeration(lam), lam


def test_off_by_one_in_a_dp_state_is_caught(monkeypatch):
    real = sheaves._block_sum_counts
    # Bell(l) set partitions of the l parts in all; the second input has more than eight
    for parts, bell in (((3, 2, 1, 1), 15), ((2, 2) + (1,) * 7, 21147)):
        states = real(parts)
        assert sum(states.values()) == bell
        for target in states:
            for delta in (1, -1):

                def off_by_one(p, target=target, delta=delta):
                    counts = real(p)
                    counts[target] += delta
                    return counts

                monkeypatch.setattr(sheaves, "_block_sum_counts", off_by_one)
                with pytest.raises(ConsistencyError, match="enumeration and factor product disagree"):
                    pushforward_partition(parts)


def test_off_by_one_count_is_caught_by_composition_pushforward(monkeypatch, cold_caches):
    mu = (2, 1, 1)
    for lam in partitions(4):
        _corrupt_count(monkeypatch, (lam, mu))
        with pytest.raises(ConsistencyError, match="matrix count and factor product disagree"):
            pushforward_composition(mu)
        COUNT.cache_clear()


def test_off_by_one_count_is_caught_by_infer_degrees(monkeypatch, cold_caches):
    # at genus 0 no stratum degree vanishes, so every entry feeds the solve
    lams = list(partitions(4))
    for rows in map(conjugate, lams):
        for mu in lams:
            _corrupt_count(monkeypatch, (rows, mu))
            with pytest.raises(ConsistencyError):
                index.infer_degrees(0, 4)
            _clear_count_caches()


def test_off_by_one_count_above_the_diagonal_makes_mtable_exit_4(monkeypatch, capsys, cold_caches):
    # triangularity cannot see these entries; the principal specialization of each row does
    from taucycles.cli import main

    lams = list(partitions(4))
    for i, rows in enumerate(map(conjugate, lams)):
        for mu in lams[i + 1:]:
            _corrupt_count(monkeypatch, (rows, mu))
            assert main(["mtable", "--n", "4"]) == 4
            out, err = capsys.readouterr()
            assert out == ""
            assert err.startswith(f"error: count matrix row for {lams[i]} at n = 4: ")
            _clear_count_caches()


@pytest.mark.parametrize("n, entries", [(12, 7137), (14, 21677)])
def test_count_cache_holds_the_same_memo_states(cold_caches, n, entries):
    index.index_matrix(n)
    assert COUNT.cache_info().currsize == entries


def test_partition_pushforward_lists_no_set_partitions(monkeypatch):
    def refuse(labels):
        raise AssertionError("set partitions were enumerated")

    for module in (combinat, cycle_algebra, sheaves):
        monkeypatch.setattr(module, "set_partitions", refuse, raising=False)
    for n in range(13):
        for lam in partitions(n):
            pushforward_partition(lam)


def test_internal_calls_make_no_check_beyond_the_entry(monkeypatch, cold_caches):
    # validate_partition and count_m wrapped wherever they are imported, and MultVec's
    # constructor on the class: past the entry point, values are valid by construction
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("validate_partition", "count_m"):
        original = getattr(combinat, name)
        for module in list(sys.modules.values()):
            if module.__name__.startswith("taucycles") and vars(module).get(name) is original:
                monkeypatch.setattr(module, name, counted(name, original))
    monkeypatch.setattr(MultVec, "__init__", counted("MultVec", MultVec.__init__))
    drops = SheafDescriptor(2, Divisor({"s": 2, "t": 1, "u": 2}))
    for call, entry_checks in (
        (lambda: index.infer_degrees(2, 9), 0),
        (lambda: index.index_matrix(10), 0),
        (lambda: pushforward_partition((3, 2, 2, 1, 1)), 1),
        (lambda: pushforward_composition((2, 1, 3, 1)), 0),
        (lambda: [geometry.singularity_certificate(3, drops, n) for n in range(12)], 0),
    ):
        calls.clear()
        call()
        assert calls == Counter(validate_partition=entry_checks), calls
