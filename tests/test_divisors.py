import pytest
from hypothesis import given
from hypothesis import strategies as st

from taucycles.combinat import MultVec
from taucycles.divisors import Divisor, divisor_binomial, subdivisors
from taucycles.errors import ArgumentError

names = st.sampled_from(["s", "t", "u", "p1"])
divisors = st.dictionaries(names, st.integers(1, 3), max_size=3).map(Divisor)


def test_basics():
    d = Divisor({"s": 2, "t": 1})
    assert d.degree == 3
    assert d.coeff("s") == 2
    assert d.coeff("zz") == 0
    assert d.support == ("s", "t")
    assert d.factorial_product() == 2


def test_zero_coefficients_dropped():
    assert Divisor({"s": 0}) == Divisor()
    assert not Divisor({"s": 0})
    assert Divisor({"s": 0}).pretty() == "0"


def test_pretty_and_canonical():
    d = Divisor({"s": 2, "t": 1})
    assert d.pretty() == "2*s + t"
    assert d.canonical_text() == "2*s + 1*t"
    assert Divisor().canonical_text() == "0"
    assert Divisor({"t": 1}).pretty() == "t"


def test_parse_examples():
    assert Divisor.parse("2*s + t") == Divisor({"s": 2, "t": 1})
    assert Divisor.parse("0") == Divisor()
    assert Divisor.parse("") == Divisor()
    assert Divisor.parse("s") == Divisor({"s": 1})
    assert Divisor.parse(" 3*p1 ") == Divisor({"p1": 3})
    assert Divisor.parse("0*s") == Divisor()


@given(divisors)
def test_parse_pretty_round_trip(d):
    assert Divisor.parse(d.pretty()) == d
    assert Divisor.parse(d.canonical_text()) == d


def test_parse_rejects_garbage():
    for bad in ("2s", "s + s", "-1*s", "s +", "*s", "2*", "s:1", "a b"):
        with pytest.raises(ArgumentError):
            Divisor.parse(bad)


def test_point_name_rules():
    with pytest.raises(ArgumentError):
        Divisor({"1s": 1})
    with pytest.raises(ArgumentError):
        Divisor({"": 1})
    with pytest.raises(ArgumentError):
        Divisor({"a b": 1})
    with pytest.raises(ArgumentError):
        Divisor({"a:b": 1})
    Divisor({"p_1": 1})
    Divisor({"x'": 1})


@given(divisors, divisors)
def test_addition_degree(d1, d2):
    assert (d1 + d2).degree == d1.degree + d2.degree


@given(divisors, divisors)
def test_partial_order(d1, d2):
    total = d1 + d2
    assert d1.leq(total)
    assert d2.leq(total)
    assert (total - d1) == d2


def test_subtraction_guard():
    with pytest.raises(ArgumentError):
        Divisor({"s": 1}) - Divisor({"t": 1})


def test_scale():
    assert Divisor({"s": 2}).scale(3) == Divisor({"s": 6})
    assert Divisor({"s": 2}).scale(0) == Divisor()
    with pytest.raises(ArgumentError):
        Divisor({"s": 1}).scale(-1)


@given(divisors)
def test_subdivisor_count(d):
    count = 1
    for _, c in d.items():
        count *= c + 1
    subs = list(subdivisors(d))
    assert len(subs) == count
    assert len(set(subs)) == count
    assert all(sub.leq(d) for sub in subs)


@given(divisors, st.integers(-1, 10))
def test_capped_walk_is_the_filtered_walk(d, k):
    assert list(subdivisors(d, k)) == [x for x in subdivisors(d) if x.degree <= k]


@pytest.mark.parametrize("cap", [1.5, "2", True])
def test_capped_walk_rejects_a_non_integer_cap(cap):
    with pytest.raises(ArgumentError):
        list(subdivisors(Divisor({"s": 2}), cap))


def test_divisor_binomial():
    top = Divisor({"s": 3, "t": 1})
    assert divisor_binomial(top, Divisor({"s": 2})) == 3
    assert divisor_binomial(top, Divisor({"s": 2, "t": 1})) == 3
    assert divisor_binomial(top, Divisor({"s": 4})) == 0
    assert divisor_binomial(top, Divisor({"u": 1})) == 0
    assert divisor_binomial(top, Divisor()) == 1


@given(divisors)
def test_binomial_sums_to_product(d):
    # sum over subdivisors of the binomials = prod (2^coeff)
    total = sum(divisor_binomial(d, sub) for sub in subdivisors(d))
    expected = 1
    for _, c in d.items():
        expected *= 2**c
    assert total == expected


def test_divisor_and_multvec_share_one_representation_but_never_compare_equal():
    # both store sorted (key, value) items; the empty ones have equal items
    assert Divisor().items() == MultVec().items() == ()
    assert Divisor() != MultVec() and MultVec() != Divisor()
    assert len({Divisor(), MultVec()}) == 2


def test_repr_and_hash_of_the_item_vectors():
    d = Divisor([("t", 1), ("s", 2)])
    e = MultVec([(2, 1), (1, 2)])
    assert repr(d) == "Divisor({'s': 2, 't': 1})"
    assert repr(e) == "MultVec({1: 2, 2: 1})"
    assert repr(Divisor()) == "Divisor({})"
    for x in (d, e, Divisor(), MultVec(), Divisor._trusted(d.items()), MultVec.from_partition((3, 1))):
        assert hash(x) == hash(x.items())
