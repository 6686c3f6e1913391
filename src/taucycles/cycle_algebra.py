"""The graded commutative algebra spanned by the basic cycle classes.

A basis element ``TauBasis(delta, e)`` is indexed by an effective divisor
``delta`` and a multiplicity vector ``e``; its grade is the divisor degree
plus the weight of ``e``.  Products expand through exact integer structure
constants that count admissible ways of merging point clusters.  Two
independent routes to those constants are kept side by side:

* a count over matching matrices, used everywhere: a walk that fills the
  matrix cell by cell and updates the number of ways and the merged part
  sizes as each entry is chosen, and
* a brute-force enumeration of set partitions, kept as an oracle.

Products work on plain tuples: the terms of each factor are grouped by
divisor, and the result accumulates on divisor items, then on the items of
each output vector, before its objects are built once per term.  A square
visits each unordered pair of terms once, and a power is a fold of
products by its base.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Mapping
from functools import lru_cache

from .combinat import MultVec, partitions, set_partitions
from .divisors import Divisor, _sum_items
from .errors import ArgumentError, exact_div

__all__ = [
    "TauBasis",
    "CycleSum",
    "tau",
    "tau_multiset",
    "unit",
    "structure_constants",
    "structure_constants_oracle",
    "basis_of_grade",
]


class TauBasis:
    """One basis cycle, written ``tau[delta; e]``."""

    __slots__ = ("delta", "e", "_hash")

    def __init__(self, delta: Divisor, e: MultVec):
        if not isinstance(delta, Divisor):
            raise ArgumentError(f"delta must be a Divisor, got {type(delta).__name__}")
        if not isinstance(e, MultVec):
            raise ArgumentError(f"e must be a MultVec, got {type(e).__name__}")
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "_hash", hash((delta._hash, e._hash)))

    @classmethod
    def _trusted(cls, delta: Divisor, e: MultVec) -> "TauBasis":
        self = object.__new__(cls)
        _set_delta(self, delta)
        _set_e(self, e)
        _set_hash(self, hash((delta._hash, e._hash)))
        return self

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("TauBasis is immutable")

    @property
    def grade(self) -> int:
        return self.delta.degree + self.e.weight

    def sort_key(self) -> tuple:
        return (self.delta.canonical_text(), self.e.items())

    def render(self) -> str:
        if self.e:
            return f"tau[{self.delta.pretty()}; {self.e.render()}]"
        return f"tau[{self.delta.pretty()};]"

    def latex(self) -> str:
        parts = self.e.to_partition()
        if parts and len(parts) > 1:
            e_text = f"{self.e.weight}=" + "+".join(str(p) for p in parts)
        elif parts:
            e_text = str(parts[0])
        else:
            e_text = ""
        if self.delta and e_text:
            return r"\tau^*_{" + self.delta.latex() + r",\," + e_text + "}"
        if self.delta:
            return r"\tau^*_{" + self.delta.latex() + "}"
        if e_text:
            return r"\tau^*_{" + e_text + "}"
        return "1"

    def is_unit(self) -> bool:
        return not self.delta and not self.e

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TauBasis) and self.delta == other.delta and self.e == other.e

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"TauBasis({self.delta!r}, {self.e!r})"


# the slot descriptors' setters, bound once: _trusted runs once per output
# term of a product, and these bypass the __setattr__ that keeps bases immutable
_set_delta = TauBasis.delta.__set__
_set_e = TauBasis.e.__set__
_set_hash = TauBasis._hash.__set__


def _format_term(coeff: int, basis: TauBasis) -> str:
    # caller guarantees coeff > 0
    if basis.is_unit():
        return str(coeff)
    if coeff == 1:
        return basis.render()
    return f"{coeff}*{basis.render()}"


class CycleSum:
    """Finite integer combination of basis cycles.

    Supports ring arithmetic and renders deterministically; terms are
    kept sorted by divisor text, then by multiplicity vector.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[TauBasis, int] | Iterable[tuple[TauBasis, int]] = ()):
        pairs = terms.items() if isinstance(terms, Mapping) else terms
        merged: dict[TauBasis, int] = {}
        for basis, coeff in pairs:
            if not isinstance(basis, TauBasis):
                raise ArgumentError(f"expected TauBasis keys, got {type(basis).__name__}")
            if not isinstance(coeff, int) or isinstance(coeff, bool):
                raise ArgumentError(f"coefficients must be integers, got {coeff!r}")
            total = merged.get(basis, 0) + coeff
            if total:
                merged[basis] = total
            else:
                merged.pop(basis, None)
        self._terms: tuple[tuple[TauBasis, int], ...] = _sorted_terms(merged)

    @classmethod
    def _trusted(cls, terms: tuple[tuple[TauBasis, int], ...]) -> "CycleSum":
        # terms: sorted, distinct bases, nonzero integer coefficients
        self = object.__new__(cls)
        self._terms = terms
        return self

    @classmethod
    def zero(cls) -> "CycleSum":
        return cls()

    def terms(self) -> tuple[tuple[TauBasis, int], ...]:
        return self._terms

    def coeff(self, basis: TauBasis) -> int:
        for b, c in self._terms:
            if b == basis:
                return c
        return 0

    def is_zero(self) -> bool:
        return not self._terms

    def grades(self) -> tuple[int, ...]:
        return tuple(sorted({b.grade for b, _ in self._terms}))

    def grade_part(self, k: int) -> "CycleSum":
        return CycleSum._trusted(tuple((b, c) for b, c in self._terms if b.grade == k))

    def is_homogeneous(self) -> bool:
        return len(self.grades()) <= 1

    def __add__(self, other: "CycleSum") -> "CycleSum":
        if not isinstance(other, CycleSum):
            return NotImplemented
        if not other._terms:
            return self
        if not self._terms:
            return other
        merged = dict(self._terms)
        for b, c in other._terms:
            merged[b] = merged.get(b, 0) + c
        return CycleSum._trusted(_sorted_terms({b: c for b, c in merged.items() if c}))

    def __sub__(self, other: "CycleSum") -> "CycleSum":
        if not isinstance(other, CycleSum):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "CycleSum":
        return CycleSum._trusted(tuple((b, -c) for b, c in self._terms))

    def scale(self, k: int) -> "CycleSum":
        if not isinstance(k, int) or isinstance(k, bool):
            raise ArgumentError(f"scalars are integers, got {k!r}")
        if not k:
            return CycleSum()
        return CycleSum._trusted(tuple((b, k * c) for b, c in self._terms))

    def __rmul__(self, k: int) -> "CycleSum":
        if isinstance(k, int) and not isinstance(k, bool):
            return self.scale(k)
        return NotImplemented

    def __mul__(self, other: "CycleSum") -> "CycleSum":
        if isinstance(other, int) and not isinstance(other, bool):
            return self.scale(other)
        if not isinstance(other, CycleSum):
            return NotImplemented
        acc: dict = {}
        if other is self:
            _accumulate_square(acc, _grouped(self._terms))
        else:
            _accumulate_product(acc, _grouped(self._terms), _grouped(other._terms))
        return _from_raw(acc)

    def __pow__(self, k: int) -> "CycleSum":
        if not isinstance(k, int) or isinstance(k, bool) or k < 0:
            raise ArgumentError(f"exponent must be a nonnegative integer, got {k!r}")
        if not k:
            return unit()
        out = self
        for _ in range(k - 1):
            out = out * self
        return out

    def render(self) -> str:
        if not self._terms:
            return "0"
        if all(c < 0 for _, c in self._terms):
            inner = " + ".join(_format_term(-c, b) for b, c in self._terms)
            if len(self._terms) == 1:
                return "-" + inner
            return f"-({inner})"
        pieces: list[str] = []
        for i, (b, c) in enumerate(self._terms):
            body = _format_term(abs(c), b)
            if i == 0:
                pieces.append(body if c > 0 else "-" + body)
            else:
                pieces.append((" + " if c > 0 else " - ") + body)
        return "".join(pieces)

    def latex(self) -> str:
        if not self._terms:
            return "0"
        pieces: list[str] = []
        for i, (b, c) in enumerate(self._terms):
            mag = abs(c)
            body = b.latex()
            if body == "1":
                term = str(mag)
            elif mag == 1:
                term = body
            else:
                term = f"{mag}\\,{body}"
            if i == 0:
                pieces.append(term if c > 0 else "-" + term)
            else:
                pieces.append((" + " if c > 0 else " - ") + term)
        return "".join(pieces)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CycleSum) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(self._terms)

    def __repr__(self) -> str:
        return f"CycleSum<{self.render()}>"


def _sorted_terms(merged: dict[TauBasis, int]) -> tuple[tuple[TauBasis, int], ...]:
    return tuple(sorted(merged.items(), key=lambda kv: kv[0].sort_key()))


def _grouped(terms: tuple[tuple[TauBasis, int], ...]) -> list:
    """Sorted terms as ``(delta items, [(e items, coeff), ...])`` runs, one per divisor."""
    out: list = []
    last = None
    for b, c in terms:
        delta = b.delta.items()
        if delta != last:
            group: list = []
            out.append((delta, group))
            last = delta
        group.append((b.e.items(), c))
    return out


def _accumulate_product(acc: dict, left: list, right: list) -> None:
    """Add the product of two grouped term lists into ``acc``: delta items -> f items -> coeff."""
    constants = _structure_constants_items
    for d1, group1 in left:
        for d2, group2 in right:
            delta = _sum_items(d1, d2)
            sub = acc.get(delta)
            if sub is None:
                sub = acc[delta] = {}
            get = sub.get
            for a, c1 in group1:
                for b, c2 in group2:
                    c = c1 * c2
                    for f, n in constants(a, b) if a <= b else constants(b, a):
                        sub[f] = get(f, 0) + c * n


def _accumulate_square(acc: dict, terms: list) -> None:
    """Add the square of a grouped term list into ``acc``, as ``_accumulate_product`` does.

    The product is commutative, so each unordered pair of terms is visited
    once: a term times itself with its own coefficient, two distinct terms
    with twice theirs.
    """
    constants = _structure_constants_items
    for i, (d1, group1) in enumerate(terms):
        for j in range(i, len(terms)):
            d2, group2 = terms[j]
            delta = _sum_items(d1, d2)
            sub = acc.get(delta)
            if sub is None:
                sub = acc[delta] = {}
            get = sub.get
            for p, (a, c1) in enumerate(group1):
                if i == j:
                    c = c1 * c1
                    for f, n in constants(a, a):
                        sub[f] = get(f, 0) + c * n
                    rest = group2[p + 1 :]
                else:
                    rest = group2
                c1 *= 2
                for b, c2 in rest:
                    c = c1 * c2
                    for f, n in constants(a, b) if a <= b else constants(b, a):
                        sub[f] = get(f, 0) + c * n


def _from_raw(acc: dict) -> CycleSum:
    """The sum of ``c * tau[delta; f]`` over ``acc``, one Divisor per distinct delta."""
    terms = []
    new = TauBasis._trusted
    for delta in sorted(map(Divisor._trusted, acc), key=Divisor.canonical_text):
        for f, c in sorted(acc[delta.items()].items()):
            if c:
                terms.append((new(delta, MultVec._trusted(f)), c))
    return CycleSum._trusted(tuple(terms))


def tau(delta: Divisor | None = None, e: MultVec | None = None, coeff: int = 1) -> CycleSum:
    """Single basis cycle as a sum, scaled by ``coeff``."""
    basis = TauBasis(delta if delta is not None else Divisor(), e if e is not None else MultVec())
    return CycleSum({basis: coeff})


def tau_multiset(delta: Divisor | None = None, e: MultVec | None = None) -> CycleSum:
    """Basis cycle in the multiset normalization, scaled by the count factorials."""
    ee = e if e is not None else MultVec()
    return tau(delta, ee, ee.factorial_product())


def unit() -> CycleSum:
    return tau()


# ---------------------------------------------------------------------------
# structure constants, closed route


@lru_cache(maxsize=None)
def _structure_constants_items(
    e_items: tuple[tuple[int, int], ...], f_items: tuple[tuple[int, int], ...]
) -> tuple:
    # the (f items, N) pairs, keyed on the items of both vectors, smaller first: the
    # product is symmetric.  Entry k at cell (i, j) of a matching matrix merges k
    # of the r clusters still free in row i with k of the c still free in column
    # j, in binom(r, k) * c!/(c-k)! ways, and adds k parts of size s_i + s_j
    rows = [s for s, _ in e_items]
    caps = [c for _, c in e_items] + [0]
    cols = [s for s, _ in f_items]
    free = [c for _, c in f_items]
    counts = [0] * (max(rows, default=0) + max(cols, default=0) + 1)  # output parts by size
    na, nb = len(rows), len(cols)
    numerators: dict[tuple[tuple[int, int], ...], int] = {}

    def walk(i: int, j: int, r: int, w: int) -> None:
        if i == na:  # the clusters of f left in each column stay as they are
            for s, c in zip(cols, free):
                counts[s] += c
            f = tuple((s, c) for s, c in enumerate(counts) if c)
            numerators[f] = numerators.get(f, 0) + w
            for s, c in zip(cols, free):
                counts[s] -= c
        elif j == nb or not r:  # so do the r clusters of e left in row i
            counts[rows[i]] += r
            walk(i + 1, 0, caps[i + 1], w)
            counts[rows[i]] -= r
        else:
            c, size = free[j], rows[i] + cols[j]
            base = counts[size]
            for k in range(min(r, c) + 1):
                if k:
                    w = w * (r - k + 1) * (c - k + 1) // k
                free[j], counts[size] = c - k, base + k
                walk(i, j + 1, r - k, w)
            free[j], counts[size] = c, base

    walk(0, 0, caps[0], 1)
    scale = _factorial_product(e_items) * _factorial_product(f_items)
    return tuple(
        (f, exact_div(_factorial_product(f) * raw, scale)) for f, raw in sorted(numerators.items())
    )


def _factorial_product(items: tuple[tuple[int, int], ...]) -> int:
    out = 1
    for _, c in items:
        out *= math.factorial(c)
    return out


def structure_constants(e: MultVec, e_prime: MultVec) -> dict[MultVec, int]:
    """Expansion of the product of two divisor-free basis cycles.

    Returns the map ``f -> N`` with
    ``tau[0; e] * tau[0; e'] = sum_f N(e, e'; f) tau[0; f]``.
    All constants are positive integers; the weight of every ``f`` equals
    the sum of the weights of ``e`` and ``e'``.
    """
    if not isinstance(e, MultVec) or not isinstance(e_prime, MultVec):
        raise ArgumentError("structure constants take two MultVec arguments")
    a, b = e.items(), e_prime.items()
    if a > b:
        a, b = b, a
    return {MultVec._trusted(f): n for f, n in _structure_constants_items(a, b)}


# ---------------------------------------------------------------------------
# structure constants, enumeration oracle

_ORACLE_WEIGHT_CAP = 10


def structure_constants_oracle(e: MultVec, e_prime: MultVec) -> dict[MultVec, int]:
    """Same constants by filtering every set partition of a concrete model.

    Realizes ``e`` and ``e'`` as clusters of consecutive integers on two
    disjoint label ranges, then keeps the partitions whose every block is
    a cluster, a primed cluster, or a union of one of each.  Slow by
    design; refuses total weight above 10.
    """
    if not isinstance(e, MultVec) or not isinstance(e_prime, MultVec):
        raise ArgumentError("structure constants take two MultVec arguments")
    total = e.weight + e_prime.weight
    if total > _ORACLE_WEIGHT_CAP:
        raise ArgumentError(
            f"oracle enumerates set partitions of {total} labels; the cap is {_ORACLE_WEIGHT_CAP}"
        )

    def clusters(vec: MultVec, offset: int) -> list[frozenset[int]]:
        out = []
        pos = offset
        for size, count in vec.items():
            for _ in range(count):
                out.append(frozenset(range(pos, pos + size)))
                pos += size
        return out

    left = clusters(e, 0)
    right = clusters(e_prime, e.weight)
    left_ok = set(left)
    right_ok = set(right)
    left_labels = frozenset(range(e.weight))
    counts: dict[MultVec, int] = {}
    for partition in set_partitions(range(total)):
        sizes: dict[int, int] = {}
        for block in partition:
            bs = frozenset(block)
            left_part = bs & left_labels
            right_part = bs - left_part
            if left_part and left_part not in left_ok:
                break
            if right_part and right_part not in right_ok:
                break
            sizes[len(bs)] = sizes.get(len(bs), 0) + 1
        else:
            f = MultVec(sizes)
            counts[f] = counts.get(f, 0) + 1
    scale = e.factorial_product() * e_prime.factorial_product()
    return {
        f: exact_div(f.factorial_product() * c, scale) for f, c in sorted(counts.items())
    }


def basis_of_grade(k: int, points: Iterable[str]) -> list[TauBasis]:
    """Every basis cycle of grade ``k`` whose divisor is supported on ``points``.

    Deterministic order.  Used by the identity sweeps in the test suite.
    """
    if k < 0:
        raise ArgumentError(f"grade must be nonnegative, got {k}")
    names = sorted(set(points))
    out: list[TauBasis] = []

    def divisors_of_degree(d: int) -> Iterator[Divisor]:
        def walk(i: int, left: int, acc: dict[str, int]) -> Iterator[Divisor]:
            if i == len(names):
                if left == 0:
                    yield Divisor(acc)
                return
            for c in range(left + 1):
                if c:
                    acc[names[i]] = c
                yield from walk(i + 1, left - c, acc)
                acc.pop(names[i], None)

        yield from walk(0, d, {})

    for d in range(k + 1):
        for delta in divisors_of_degree(d):
            for lam in partitions(k - d):
                out.append(TauBasis(delta, MultVec.from_partition(lam)))
    out.sort(key=TauBasis.sort_key)
    return out
