import copy
import itertools
import pickle
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import shortest_partition_oracle, singularity_certificate_search

from taucycles import geometry
from taucycles.combinat import MultVec
from taucycles.divisors import Divisor
from taucycles.errors import ArgumentError, ConsistencyError, PreconditionError
from taucycles.geometry import (
    AcyclicityReport,
    EpsilonReport,
    acyclicity,
    critical_point,
    epsilon_report,
    k_f_label,
    n_f,
    sheaf_euler_characteristic,
    singularity_certificate,
)
from taucycles.sheaves import SheafDescriptor


def sheaf(rank, drops=None):
    return SheafDescriptor(rank, Divisor(drops or {}))


class TestBounds:
    def test_n_f_values(self):
        assert n_f(0, sheaf(1)) == -2
        assert n_f(1, sheaf(1)) == 0
        assert n_f(1, sheaf(1, {"s": 1})) == 1
        assert n_f(2, sheaf(2, {"s": 1})) == 5
        assert n_f(3, sheaf(3, {"s": 3, "t": 1})) == 16

    def test_euler_characteristic_is_negative_bound(self):
        for genus in range(4):
            for rank in (1, 2):
                s = sheaf(rank, {"s": rank})
                assert sheaf_euler_characteristic(genus, s) == -n_f(genus, s)
                assert sheaf_euler_characteristic(genus, s) == rank * (2 - 2 * genus) - rank

    def test_genus_validation(self):
        with pytest.raises(ArgumentError):
            n_f(-1, sheaf(1))

    def test_label(self):
        assert k_f_label(sheaf(1, {"s": 1})) == "1·K_X + [s]"
        assert k_f_label(sheaf(2)) == "2·K_X + [0]"
        assert k_f_label(sheaf(3, {"s": 2, "t": 1})) == "3·K_X + [2*s + t]"


class TestAcyclicity:
    def test_verdict_above(self):
        rep = acyclicity(1, sheaf(1, {"s": 1}), 2)
        assert rep.verdict == "acyclic_everywhere"
        assert rep.n_f == 1

    def test_verdict_on_boundary(self):
        rep = acyclicity(1, sheaf(1, {"s": 1}), 1)
        assert rep.verdict == "acyclic_off_KF"

    def test_verdict_below(self):
        rep = acyclicity(2, sheaf(1, {"s": 1}), 1)
        assert rep.verdict == "not_covered"
        assert rep.n_f == 3

    def test_boundary_needs_positive_bound(self):
        with pytest.raises(PreconditionError):
            acyclicity(1, sheaf(1), 0)

    def test_zero_degree_allowed_off_boundary(self):
        rep = acyclicity(0, sheaf(1), 0)
        assert rep.verdict == "acyclic_everywhere"

    def test_negative_degree_rejected(self):
        with pytest.raises(ArgumentError):
            acyclicity(1, sheaf(1), -1)

    def test_critical_divisor_attached(self):
        rep = acyclicity(1, sheaf(2, {"s": 1}), 2, omega=Divisor())
        assert rep.critical_divisor == Divisor({"s": 1})
        rep = acyclicity(2, sheaf(2, {"s": 1}), 9, omega=Divisor({"t": 2}))
        assert rep.critical_divisor == Divisor({"s": 1, "t": 4})

    def test_omega_validated_whenever_given(self):
        with pytest.raises(ArgumentError):
            acyclicity(1, sheaf(1, {"s": 1}), 5, omega=Divisor({"t": 1}))


class TestCertificates:
    def test_unique_on_boundary(self):
        s = sheaf(2, {"s": 1})
        bound = n_f(2, s)
        cert = singularity_certificate(2, s, bound)
        assert cert == (Divisor({"s": 1}), MultVec({2: 2}))

    def test_empty_e_in_genus_one(self):
        s = sheaf(1, {"s": 1})
        cert = singularity_certificate(1, s, 1)
        assert cert == (Divisor({"s": 1}), MultVec())

    def test_none_above_boundary(self):
        s = sheaf(2, {"s": 1})
        for n in range(n_f(2, s) + 1, n_f(2, s) + 4):
            assert singularity_certificate(2, s, n) is None

    def test_none_in_genus_zero(self):
        for rank in (1, 2, 3):
            s = sheaf(rank, {"s": rank})
            for n in range(0, 8):
                assert singularity_certificate(0, s, n) is None

    @given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_boundary_window(self, genus, rank, extra):
        s = sheaf(rank, {"s": rank, "t": 1})
        bound = n_f(genus, s)
        n = max(1, bound) + extra
        cert = singularity_certificate(genus, s, n)
        expect = n == bound and n > 0 and 2 * genus - 2 >= 0
        assert (cert is not None) == expect
        if cert is not None:
            assert cert == (s.drops, MultVec({rank: 2 * genus - 2}))

    def test_negative_degree_rejected(self):
        with pytest.raises(ArgumentError):
            singularity_certificate(1, sheaf(1), -1)

    def test_least_text_below_the_drops(self):
        # degree 2 below drops of degree 4: 1*s + 1*t sorts before 2*s and 2*t
        s = sheaf(2, {"s": 2, "t": 2})
        assert singularity_certificate(1, s, 2) == (Divisor({"s": 1, "t": 1}), MultVec())
        # as text "1*s + 9*t" sorts before "10*s" and "10*t"
        s = sheaf(10, {"s": 10, "t": 10})
        assert singularity_certificate(1, s, 10) == (Divisor({"s": 1, "t": 9}), MultVec())
        # s must take at least 8: "10*s + 1*t" sorts before "8*s + 3*t" and "11*s"
        s = sheaf(20, {"s": 20, "t": 3})
        assert singularity_certificate(1, s, 11) == (Divisor({"s": 10, "t": 1}), MultVec())
        assert singularity_certificate(1, s, 11) == singularity_certificate_search(1, s, 11)
        # "1*s\x01\x01 + 1*t" sorts before "1*s\x01 + ..." and "1*s + ...": the
        # control character sorts below the space that follows a whole name
        s = sheaf(1, {"s": 1, "s\x01": 1, "s\x01\x01": 1, "t": 1})
        assert singularity_certificate(1, s, 2) == (Divisor({"s\x01\x01": 1, "t": 1}), MultVec())
        assert singularity_certificate(1, s, 2) == singularity_certificate_search(1, s, 2)

    def test_matches_search_on_grid(self):
        for genus, s, n in certificate_grid():
            assert singularity_certificate(genus, s, n) == singularity_certificate_search(
                genus, s, n
            ), (genus, s, n)

    def test_twelve_hundred_points(self):
        # below deg(drops) the walk over every subdivisor took seconds at 12 points
        names = [f"p{i:04d}" for i in range(1200)]
        s = sheaf(2, dict.fromkeys(names, 2))
        start = time.perf_counter()
        every_one = singularity_certificate(3, s, 1200)
        ones_then_twos = singularity_certificate(3, s, 2000)
        assert time.perf_counter() - start < 2.0
        assert every_one == (Divisor(dict.fromkeys(names, 1)), MultVec())
        # the first 400 points take 1; from there the rest must take 2 each
        expected = Divisor({p: 1 if i < 400 else 2 for i, p in enumerate(names)})
        assert ones_then_twos == (expected, MultVec())

    def test_no_partition_enumeration(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("partitions enumerated at run time")

        monkeypatch.setattr(geometry, "partitions", refuse)
        for genus, s, n in certificate_grid():
            singularity_certificate(genus, s, n)

    def test_shortest_partition_sweep(self):
        for rank in range(1, 7):
            for m in range(33):
                assert geometry._shortest_partition(m, rank) == shortest_partition_oracle(
                    m, rank
                ), (m, rank)


def certificate_grid():
    """Genus 0-5, rank 1-5, drops on at most three points with coefficients
    up to min(rank, 3), and every degree from 0 to n_F + 4: 27,575 cases on
    s, t, u, and as many on s, s\x01, st, names that extend "s" by a
    character below and above the space, so that the texts "1*s + ...",
    "1*s\x01 + ..." and "1*st + ..." order differently from the names."""
    for names in (("s", "t", "u"), ("s", "s\x01", "st")):
        for genus in range(6):
            for rank in range(1, 6):
                cap = min(rank, 3)
                for coeffs in itertools.product(range(cap + 1), repeat=3):
                    s = sheaf(rank, dict(zip(names, coeffs)))
                    for n in range(n_f(genus, s) + 5):
                        yield genus, s, n


class TestCriticalPoint:
    def test_formula(self):
        got = critical_point(2, sheaf(2, {"s": 1}), Divisor({"t": 2}))
        assert got == Divisor({"s": 1, "t": 4})

    def test_degree_must_match(self):
        with pytest.raises(ArgumentError, match="degree 2"):
            critical_point(2, sheaf(1), Divisor({"t": 1}))

    def test_genus_zero_always_fails(self):
        with pytest.raises(ArgumentError, match="degree -2"):
            critical_point(0, sheaf(1), Divisor())

    def test_genus_one_takes_zero_omega(self):
        assert critical_point(1, sheaf(1, {"s": 1}), Divisor()) == Divisor({"s": 1})


class TestEpsilonReport:
    def test_fields(self):
        rep = epsilon_report(2, sheaf(2, {"s": 1}), Divisor({"t": 2}))
        assert rep.n == n_f(2, sheaf(2, {"s": 1})) == 5
        assert rep.sign == -1
        assert rep.critical_divisor == Divisor({"s": 1, "t": 4})
        assert rep.k_f_label == "2·K_X + [s]"
        assert rep.sigma == ("s", "t")

    def test_sign_parity(self):
        rep = epsilon_report(1, sheaf(2, {"s": 1, "t": 1}), Divisor())
        assert rep.n == 2
        assert rep.sign == 1

    def test_needs_positive_bound(self):
        with pytest.raises(PreconditionError):
            epsilon_report(1, sheaf(1), Divisor())

    def test_sigma_merges_supports(self):
        rep = epsilon_report(2, sheaf(1, {"u": 1}), Divisor({"s": 1, "u": 1}))
        assert rep.sigma == ("s", "u")


def records():
    """One instance of each frozen record, built by keyword, by position and by the library."""
    return [
        SheafDescriptor(rank=2, drops=Divisor({"s": 1, "t": 2})),
        AcyclicityReport(2, 3, 4, "not_covered", "1·K_X + [s]"),
        acyclicity(2, sheaf(1, {"s": 1}), 3, Divisor({"s": 2})),
        epsilon_report(2, sheaf(1, {"s": 1}), Divisor({"s": 1, "t": 1})),
        EpsilonReport(n=1, sign=1, critical_divisor=Divisor(), k_f_label="x"),
    ]


class TestFrozenRecords:
    # the repr text the frozen dataclasses printed, so the records keep it
    REPRS = [
        "SheafDescriptor(rank=2, drops=Divisor({'s': 1, 't': 2}))",
        "AcyclicityReport(genus=2, n=3, n_f=4, verdict='not_covered', "
        "k_f_label='1·K_X + [s]', critical_divisor=None)",
        "AcyclicityReport(genus=2, n=3, n_f=3, verdict='acyclic_off_KF', "
        "k_f_label='1·K_X + [s]', critical_divisor=Divisor({'s': 3}))",
        "EpsilonReport(n=3, sign=-1, critical_divisor=Divisor({'s': 2, 't': 1}), "
        "k_f_label='1·K_X + [s]', sigma=('s', 't'))",
        "EpsilonReport(n=1, sign=1, critical_divisor=Divisor({}), k_f_label='x', sigma=())",
    ]

    def test_repr(self):
        assert [repr(r) for r in records()] == self.REPRS

    def test_equal_records_hash_alike(self):
        for a, b in zip(records(), records()):
            assert a is not b
            assert a == b and not a != b
            assert hash(a) == hash(b)
            assert len({a, b}) == 1

    def test_fields_decide_equality(self):
        assert AcyclicityReport(2, 3, 4, "v", "k") != AcyclicityReport(2, 3, 4, "v", "k", Divisor())
        assert EpsilonReport(1, 1, Divisor(), "k") != EpsilonReport(1, -1, Divisor(), "k")
        assert sheaf(1, {"s": 1}) != sheaf(2, {"s": 1})

    def test_classes_never_compare_equal(self):
        items = records()
        for i, a in enumerate(items):
            for b in items[i + 1:]:
                if type(a) is not type(b):
                    assert a != b
        assert sheaf(1) != (1, Divisor())

    def test_defaults(self):
        assert AcyclicityReport(0, 1, 2, "v", "k").critical_divisor is None
        assert EpsilonReport(1, 1, Divisor(), "k").sigma == ()

    FIELDS = {
        SheafDescriptor: ("rank", "drops"),
        AcyclicityReport: ("genus", "n", "n_f", "verdict", "k_f_label", "critical_divisor"),
        EpsilonReport: ("n", "sign", "critical_divisor", "k_f_label", "sigma"),
    }

    def test_assignment_raises(self):
        for record in records():
            for name in self.FIELDS[type(record)]:
                with pytest.raises(AttributeError):
                    setattr(record, name, 0)
                with pytest.raises(AttributeError):
                    delattr(record, name)
            with pytest.raises(AttributeError):
                record.extra = 0

    def test_copy_and_pickle(self):
        for record in records():
            assert copy.copy(record) == record
            assert pickle.loads(pickle.dumps(record)) == record
