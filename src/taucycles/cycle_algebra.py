"""The graded commutative algebra spanned by the basic cycle classes.

A basis element ``TauBasis(delta, e)`` is indexed by an effective divisor
``delta`` and a multiplicity vector ``e``; its grade is the divisor degree
plus the weight of ``e``.  Products expand through exact integer structure
constants that count admissible ways of merging point clusters, by a walk
over matching matrices that fills the matrix cell by cell and updates the
number of ways and the merged part sizes as each entry is chosen.  The
brute-force listing of cluster matchings that checks those constants
lives in ``selftest``, which the tests and the ``selftest`` subcommand use.

A cycle sum is stored raw, as plain tuples grouped by divisor:
``((delta items, ((e items, coeff), ...)), ...)``, the groups in divisor
text order and the terms of a group in item order.  Products, sums and
equality work on that store, and products accumulate on divisor items,
then on the items of each output vector.  Basis objects are built only
when the terms are read, to render them for instance.  A square visits
each unordered pair of terms once, and a power is a fold of products by
its base.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from functools import lru_cache

from .combinat import MultVec, _factorial_product, partitions
from .divisors import Divisor, _sum_items, subdivisors
from .errors import ArgumentError, check_int, exact_div

__all__ = [
    "TauBasis",
    "CycleSum",
    "tau",
    "unit",
    "structure_constants",
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
    kept sorted by divisor text, then by multiplicity vector.  The store
    is raw, ``((delta items, ((e items, coeff), ...)), ...)``: one group
    per divisor, no empty group, no zero coefficient.  ``terms()`` builds
    the basis objects afresh on each call.
    """

    __slots__ = ("_raw",)

    def __init__(self, terms: Mapping[TauBasis, int] | Iterable[tuple[TauBasis, int]] = ()):
        pairs = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict = {}
        for basis, coeff in pairs:
            if not isinstance(basis, TauBasis):
                raise ArgumentError(f"expected TauBasis keys, got {type(basis).__name__}")
            if not isinstance(coeff, int) or isinstance(coeff, bool):
                raise ArgumentError(f"coefficients must be integers, got {coeff!r}")
            sub = acc.setdefault(basis.delta._items, {})
            sub[basis.e._items] = sub.get(basis.e._items, 0) + coeff
        self._raw: tuple = _from_raw(acc)

    @classmethod
    def _trusted(cls, raw: tuple) -> "CycleSum":
        # raw: a canonical store, as _from_raw returns it
        self = object.__new__(cls)
        self._raw = raw
        return self

    @classmethod
    def zero(cls) -> "CycleSum":
        return cls._trusted(())

    def terms(self) -> tuple[tuple[TauBasis, int], ...]:
        new = TauBasis._trusted
        out: list = []
        for d, group in self._raw:
            delta = Divisor._trusted(d)
            out += [(new(delta, MultVec._trusted(f)), c) for f, c in group]
        return tuple(out)

    def coeff(self, basis: TauBasis) -> int:
        for d, group in self._raw:
            if d == basis.delta._items:
                return dict(group).get(basis.e._items, 0)
        return 0

    def is_zero(self) -> bool:
        return not self._raw

    def grades(self) -> tuple[int, ...]:
        return tuple(sorted({_grade(d, f) for d, group in self._raw for f, _ in group}))

    def __add__(self, other: "CycleSum") -> "CycleSum":
        if not isinstance(other, CycleSum):
            return NotImplemented
        if not other._raw:
            return self
        if not self._raw:
            return other
        acc = {d: dict(group) for d, group in self._raw}
        for d, group in other._raw:
            sub = acc.setdefault(d, {})
            for f, c in group:
                sub[f] = sub.get(f, 0) + c
        return CycleSum._trusted(_from_raw(acc))

    def __sub__(self, other: "CycleSum") -> "CycleSum":
        if not isinstance(other, CycleSum):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "CycleSum":
        return self._times(-1)

    def scale(self, k: int) -> "CycleSum":
        if not isinstance(k, int) or isinstance(k, bool):
            raise ArgumentError(f"scalars are integers, got {k!r}")
        return self._times(k) if k else CycleSum.zero()

    def _times(self, k: int) -> "CycleSum":
        # k is nonzero, so no coefficient vanishes and the order stays
        return CycleSum._trusted(
            tuple((d, tuple((f, k * c) for f, c in group)) for d, group in self._raw)
        )

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
            _accumulate_square(acc, self._raw)
        else:
            _accumulate_product(acc, self._raw, other._raw)
        return CycleSum._trusted(_from_raw(acc))

    def __pow__(self, k: int) -> "CycleSum":
        check_int(k, "exponent", 0)
        if not k:
            return unit()
        out = self
        for _ in range(k - 1):
            out = out * self
        return out

    def render(self) -> str:
        terms = self.terms()
        if not terms:
            return "0"
        if all(c < 0 for _, c in terms):
            inner = " + ".join(_format_term(-c, b) for b, c in terms)
            if len(terms) == 1:
                return "-" + inner
            return f"-({inner})"
        pieces: list[str] = []
        for i, (b, c) in enumerate(terms):
            body = _format_term(abs(c), b)
            if i == 0:
                pieces.append(body if c > 0 else "-" + body)
            else:
                pieces.append((" + " if c > 0 else " - ") + body)
        return "".join(pieces)

    def latex(self) -> str:
        terms = self.terms()
        if not terms:
            return "0"
        pieces: list[str] = []
        for i, (b, c) in enumerate(terms):
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
        return isinstance(other, CycleSum) and self._raw == other._raw

    def __hash__(self) -> int:
        return hash(self._raw)

    def __repr__(self) -> str:
        return f"CycleSum<{self.render()}>"


def _grade(delta: tuple, e: tuple) -> int:
    return sum(c for _, c in delta) + sum(s * c for s, c in e)


def _accumulate_product(acc: dict, left: tuple, right: tuple) -> None:
    """Add the product of two raw stores into ``acc``: delta items -> f items -> coeff."""
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


def _accumulate_square(acc: dict, terms: tuple) -> None:
    """Add the square of a raw store into ``acc``, as ``_accumulate_product`` does.

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


@lru_cache(maxsize=4096)
def _text(delta: tuple) -> str:
    # the canonical text of the divisor with these items, which orders the groups
    return Divisor._trusted(delta).canonical_text()


def _from_raw(acc: dict) -> tuple:
    """The canonical store of the sum over ``acc``, delta items -> f items -> coeff."""
    out = []
    for delta in sorted(acc, key=_text):
        group = tuple(sorted((f, c) for f, c in acc[delta].items() if c))
        if group:
            out.append((delta, group))
    return tuple(out)


def _monomial(delta: tuple, e: tuple, coeff: int) -> CycleSum:
    # coeff * tau[delta; e] from valid items and a nonzero coefficient
    return CycleSum._trusted(((delta, ((e, coeff),)),))


def tau(delta: Divisor | None = None, e: MultVec | None = None, coeff: int = 1) -> CycleSum:
    """Single basis cycle as a sum, scaled by ``coeff``."""
    basis = TauBasis(delta if delta is not None else Divisor(), e if e is not None else MultVec())
    return CycleSum({basis: coeff})


def unit() -> CycleSum:
    return _monomial((), (), 1)


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


def basis_of_grade(k: int, points: Iterable[str]) -> list[TauBasis]:
    """Every basis cycle of grade ``k`` whose divisor is supported on ``points``.

    Deterministic order.  Used by the identity sweeps in the test suite.
    """
    if k < 0:
        raise ArgumentError(f"grade must be nonnegative, got {k}")
    names = sorted(set(points))
    # one walk on an explicit stack, so the call depth does not grow with the points
    top = Divisor({name: k for name in names})
    out = [
        TauBasis(delta, MultVec.from_partition(lam))
        for delta in subdivisors(top, k)
        for lam in partitions(k - delta.degree)
    ]
    out.sort(key=TauBasis.sort_key)
    return out
