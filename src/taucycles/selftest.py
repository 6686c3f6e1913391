"""The built-in consistency checks of the ``selftest`` subcommand, and the oracle of the first.

Each check recomputes a small family of answers by a second route, or
runs self-asserting constructors over a small sweep, and raises
ConsistencyError at the first disagreement; ``run`` prints one ``ok``
line per check.  A two-route core that caches its checked answers is
called through its ``__wrapped__`` function, uncached, so that every run
compares both routes again, also in a process that has the answers.
Only the ``selftest`` subcommand imports this module, so no other run
compiles it.  ``structure_constants_oracle`` is the slow route that the
first check and the tests compare ``structure_constants`` with: it lists
the partial matchings between the clusters of the two factors, and
shares no code with the matching-matrix walk.
"""

from __future__ import annotations

import itertools
import json
import math

from . import index, sheaves
from .cli import _series_obj
from .combinat import (
    MultVec,
    compositions,
    compositions_fixed_length,
    count_m,
    gen_binomial,
    partitions,
)
from .cycle_algebra import basis_of_grade, structure_constants, tau
from .divisors import Divisor
from .errors import ArgumentError, ConsistencyError, exact_div
from .geometry import n_f, singularity_certificate
from .index import index_check
from .records import SheafDescriptor
from .series import series_one
from .sheaves import s_skyscraper, s_tame

__all__ = ["run", "structure_constants_oracle"]


_ORACLE_WEIGHT_CAP = 10


def structure_constants_oracle(e: MultVec, e_prime: MultVec) -> dict[MultVec, int]:
    """Same constants by listing every partial matching of two sets of clusters.

    Realizes ``e`` and ``e'`` as labelled clusters, one per part.  Each
    partial matching of the clusters of ``e`` with those of ``e'`` merges
    every matched pair into one block and leaves the other clusters as
    blocks of their own; these are exactly the set partitions whose every
    block is a cluster, a primed cluster, or a union of one of each.  Slow
    by design; refuses total weight above 10.
    """
    if not isinstance(e, MultVec) or not isinstance(e_prime, MultVec):
        raise ArgumentError("structure constants take two MultVec arguments")
    total = e.weight + e_prime.weight
    if total > _ORACLE_WEIGHT_CAP:
        raise ArgumentError(
            f"oracle matches clusters of total weight {total}; the cap is {_ORACLE_WEIGHT_CAP}"
        )
    left = e.to_partition()
    right = e_prime.to_partition()
    counts: dict[MultVec, int] = {}
    for k in range(min(len(left), len(right)) + 1):
        for chosen in itertools.combinations(range(len(left)), k):
            for partners in itertools.permutations(range(len(right)), k):
                blocks = [left[i] + right[j] for i, j in zip(chosen, partners)]
                blocks += [s for i, s in enumerate(left) if i not in chosen]
                blocks += [t for j, t in enumerate(right) if j not in partners]
                f = MultVec.from_partition(sorted(blocks, reverse=True))
                counts[f] = counts.get(f, 0) + 1
    scale = e.factorial_product() * e_prime.factorial_product()
    return {
        f: exact_div(f.factorial_product() * c, scale) for f, c in sorted(counts.items())
    }


def _selftest_structure_constants() -> None:
    vecs = [MultVec.from_partition(lam) for w in range(7) for lam in partitions(w)]
    for a in vecs:
        for b in vecs:
            if a.weight + b.weight > 6:
                continue
            if structure_constants(a, b) != structure_constants_oracle(a, b):
                raise ConsistencyError(f"structure constants differ for {a!r} * {b!r}")


def _selftest_ring_axioms() -> None:
    small = [
        tau(b.delta, b.e) for k in range(4) for b in basis_of_grade(k, ["s"])
    ]
    for x in small:
        for y in small:
            if (x * y) != (y * x):
                raise ConsistencyError("commutativity failed")
    for x in small[:6]:
        for y in small[:6]:
            for z in small[:6]:
                if ((x * y) * z) != (x * (y * z)):
                    raise ConsistencyError("associativity failed")


def _selftest_pushforward() -> None:
    composition = sheaves._composition_verified.__wrapped__
    for n in range(1, 5):
        for mu in compositions(n):
            composition(mu)  # self-asserting
    if sheaves._partition_verified.__wrapped__((1, 1)) != composition((1, 1)):
        raise ConsistencyError("partition and composition routes differ on 1+1")


def _selftest_constant_rank() -> None:
    for rank in (1, 2, 3):
        sheaves._constant_rank_verified.__wrapped__(rank, 4)  # self-asserting


def _selftest_tame() -> None:
    s_tame(2, Divisor({"s": 1, "t": 1}), 4)
    s_tame(3, Divisor({"s": 2}), 4)


def _selftest_direct_sum() -> None:
    left = s_tame(1, Divisor({"s": 1}), 4) * s_tame(1, Divisor({"t": 1}), 4)
    if left != s_tame(2, Divisor({"s": 1, "t": 1}), 4):
        raise ConsistencyError("direct sum multiplicativity failed")
    sky = Divisor({"s": 2})
    prod = s_skyscraper(sky, True, 4) * s_skyscraper(sky, False, 4)
    if prod != series_one(4):
        raise ConsistencyError("shifted and unshifted skyscrapers are not inverse")


def _selftest_triangular() -> None:
    for n in range(6):
        index._verified_matrix.__wrapped__(n)  # self-asserting
    for n in range(1, 5):
        for lam in partitions(n):
            for r in (1, 2, 3):
                total = sum(count_m(lam, mu) for mu in compositions_fixed_length(n, r))
                expected = 1
                for p in lam:
                    expected *= math.comb(r, p)
                if total != expected:
                    raise ConsistencyError(f"row-sum identity failed for {lam}, r={r}")


def _selftest_index() -> None:
    for genus in (0, 1, 2):
        for n in range(5):
            degrees = dict(index._infer_degrees_cached.__wrapped__(genus, n))  # self-asserting
            ones = tuple(1 for _ in range(n))
            sign = -1 if n % 2 else 1
            # [t^n] (1 - t)^(2g-2), a power of either sign
            coeff = sign * gen_binomial(2 * genus - 2, n)
            if sign * degrees[ones] != coeff:
                raise ConsistencyError(f"column anchor failed at genus {genus}, n {n}")
    index_check(0, SheafDescriptor(1, Divisor()), 4)
    index_check(1, SheafDescriptor(1, Divisor({"s": 1})), 4)
    index_check(2, SheafDescriptor(2, Divisor({"s": 1})), 4)


def _selftest_geometry() -> None:
    for genus in (0, 1, 2):
        for rank in (1, 2):
            drop_choices = {
                Divisor(),
                Divisor({"s": 1}),
                Divisor({"s": rank}),
                Divisor({"s": 1, "t": 1}),
            }
            for drops in sorted(drop_choices, key=Divisor.canonical_text):
                sheaf = SheafDescriptor(rank, drops)
                bound = n_f(genus, sheaf)
                for n in range(max(1, bound), bound + 3):
                    cert = singularity_certificate(genus, sheaf, n)
                    expect = n == bound and n > 0 and 2 * genus - 2 >= 0
                    if (cert is not None) != expect:
                        raise ConsistencyError(
                            f"certificate presence wrong at genus {genus}, rank {rank}, "
                            f"drops {drops.pretty()}, n {n}"
                        )
                    if cert is not None:
                        delta, e = cert
                        if delta != sheaf.drops or e != MultVec({rank: 2 * genus - 2}):
                            raise ConsistencyError("certificate shape wrong")


def _selftest_rendering() -> None:
    first = s_tame(2, Divisor({"s": 1}), 3)
    second = s_tame(2, Divisor({"s": 1}), 3)
    if first.render() != second.render() or first.latex() != second.latex():
        raise ConsistencyError("rendering is not deterministic")
    obj1 = json.dumps(_series_obj(first))
    obj2 = json.dumps(_series_obj(second))
    if obj1 != obj2:
        raise ConsistencyError("json payload is not deterministic")


CHECKS = [
    ("structure constants vs enumeration", _selftest_structure_constants),
    ("commutativity and associativity", _selftest_ring_axioms),
    ("pushforward routes agree", _selftest_pushforward),
    ("constant rank closed vs power", _selftest_constant_rank),
    ("tame product vs closed", _selftest_tame),
    ("direct sum and inverse", _selftest_direct_sum),
    ("triangular counts", _selftest_triangular),
    ("index degrees", _selftest_index),
    ("acyclicity certificates", _selftest_geometry),
    ("deterministic output", _selftest_rendering),
]


def run() -> None:
    """Run every check in order, printing ``ok NN label`` after each one that passes."""
    for i, (label, fn) in enumerate(CHECKS, start=1):
        fn()
        print(f"ok {i:02d} {label}")
