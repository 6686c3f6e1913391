"""Numerology on the curve side: acyclicity windows, certificates, critical loci.

All statements are about a smooth projective curve of a given genus and a
tame sheaf descriptor on it.  Nothing here touches the cycle algebra; the
two sides meet again in the index module.
"""

from __future__ import annotations

from itertools import accumulate

from .combinat import MultVec
from .combinat import partitions  # noqa: F401 - perfbench/tracing.py resolves it by name
from .divisors import Divisor
from .errors import ArgumentError, PreconditionError, check_int
from .records import SheafDescriptor, _FrozenRecord

__all__ = [
    "AcyclicityReport",
    "EpsilonReport",
    "n_f",
    "sheaf_euler_characteristic",
    "k_f_label",
    "acyclicity",
    "singularity_certificate",
    "critical_point",
    "epsilon_report",
]

VERDICT_EVERYWHERE = "acyclic_everywhere"
VERDICT_OFF_KF = "acyclic_off_KF"
VERDICT_NOT_COVERED = "not_covered"


def n_f(genus: int, sheaf: SheafDescriptor) -> int:
    """Degree bound rank*(2g-2) + deg(drops) separating the acyclic range."""
    check_int(genus, "genus", 0)
    return sheaf.rank * (2 * genus - 2) + sheaf.drops.degree


def sheaf_euler_characteristic(genus: int, sheaf: SheafDescriptor) -> int:
    """Euler characteristic rank*(2-2g) - deg(drops); always the negative of n_f."""
    return -n_f(genus, sheaf)


def k_f_label(sheaf: SheafDescriptor) -> str:
    """Display name of the twisted canonical class, e.g. ``1·K_X + [s]``."""
    return f"{sheaf.rank}·K_X + [{sheaf.drops.pretty()}]"


class AcyclicityReport(_FrozenRecord):
    __slots__ = ("genus", "n", "n_f", "verdict", "k_f_label", "critical_divisor")

    def __init__(
        self,
        genus: int,
        n: int,
        n_f: int,
        verdict: str,
        k_f_label: str,
        critical_divisor: Divisor | None = None,
    ) -> None:
        self._fill(genus, n, n_f, verdict, k_f_label, critical_divisor)


def acyclicity(
    genus: int, sheaf: SheafDescriptor, n: int, omega: Divisor | None = None
) -> AcyclicityReport:
    """Locate degree ``n`` relative to the acyclic range of the sheaf.

    Above the bound the transform is acyclic everywhere, on the bound it
    is acyclic away from the twisted canonical locus, below it no claim
    is made.  The boundary case with a nonpositive bound carries no
    locus and is refused.  An optional one-form divisor pins the
    critical divisor down as an actual divisor.
    """
    check_int(genus, "genus", 0)
    check_int(n, "the symmetric power degree", 0)
    bound = n_f(genus, sheaf)
    if n > bound:
        verdict = VERDICT_EVERYWHERE
    elif n == bound:
        if n <= 0:
            raise PreconditionError(
                f"the boundary case needs a positive bound, got n = n_f = {bound}"
            )
        verdict = VERDICT_OFF_KF
    else:
        verdict = VERDICT_NOT_COVERED
    critical = critical_point(genus, sheaf, omega) if omega is not None else None
    return AcyclicityReport(
        genus=genus,
        n=n,
        n_f=bound,
        verdict=verdict,
        k_f_label=k_f_label(sheaf),
        critical_divisor=critical,
    )


def _shortest_partition(m: int, max_part: int) -> MultVec:
    q, rem = divmod(m, max_part)
    # rem < max_part, so the items come sorted
    return MultVec._trusted(((rem, 1),) * (rem > 0) + ((max_part, q),) * (q > 0))


def _least_text_below(drops: Divisor, n: int) -> Divisor:
    # The least-text divisor of degree n below the drops, built term by term: the
    # least c*name whose later points can carry the rest.  Terms are compared with
    # the " " after them, since a longer name may go on with a character below it.
    items = drops.items()
    # room[j]: the degree points j, j+1, ... can carry; the -1 past the end ends a scan
    room = list(accumulate([cap for _, cap in reversed(items)], initial=0))[::-1] + [-1]
    chosen, i, left = [], 0, n
    while left:
        # point i takes lo, or the least power of ten above it, whichever reads less
        lo, hi = max(1, left - room[i + 1]), min(items[i][1], left)
        top = 10 ** len(str(lo))
        c = min(lo, top, key=str) if top <= hi else lo
        stop = i + 1  # a later point can take c only if c = 1, and beat i only by a longer name
        while left > 1 and room[stop + 1] >= left - 1 and items[stop][0].startswith(items[i][0]):
            stop += 1
        j = min(range(i, stop), key=lambda k: items[k][0] + " ")
        chosen.append((items[j][0], c))
        i, left = j + 1, left - c
    return Divisor._trusted(tuple(chosen))


def singularity_certificate(
    genus: int, sheaf: SheafDescriptor, n: int
) -> tuple[Divisor, MultVec] | None:
    """Shortest witness for a singular stratum in degree ``n``, if one exists.

    A witness is a pair (delta, e) with delta below the drop divisor
    pointwise, deg(delta) + weight(e) = n, parts of e bounded by the rank,
    and length of e at most 2g-2.  The shortest e has ceil(m / rank) parts
    for m = n - deg(delta), so the shortest witness takes delta as large as
    it can be: the drops themselves when n >= deg(drops), and otherwise the
    subdivisor of degree exactly n with the least canonical text, with e
    empty.  Either way e is the greedy partition of m into parts of size
    rank plus one remainder.  For n on the degree bound the witness is
    (drops, {rank: 2g-2}); above the bound there is none.  Returns None when
    e is too long, in particular always in genus 0.
    """
    check_int(genus, "genus", 0)
    check_int(n, "the symmetric power degree", 0)
    drops = sheaf.drops
    delta = drops if n >= drops.degree else _least_text_below(drops, n)
    e = _shortest_partition(n - delta.degree, sheaf.rank)
    if e.length > 2 * genus - 2:
        return None
    return (delta, e)


def critical_point(genus: int, sheaf: SheafDescriptor, omega: Divisor) -> Divisor:
    """Critical divisor drops + rank*omega for a chosen effective one-form divisor.

    The one-form divisor must have degree 2g-2; in genus 0 no effective
    divisor does, so the call always fails there.
    """
    check_int(genus, "genus", 0)
    if not isinstance(omega, Divisor):
        raise ArgumentError("omega must be a Divisor")
    if omega.degree != 2 * genus - 2:
        raise ArgumentError(
            f"a one-form divisor in genus {genus} must have degree {2 * genus - 2}, "
            f"got degree {omega.degree}"
        )
    return sheaf.drops + omega.scale(sheaf.rank)


class EpsilonReport(_FrozenRecord):
    __slots__ = ("n", "sign", "critical_divisor", "k_f_label", "sigma")

    def __init__(
        self,
        n: int,
        sign: int,
        critical_divisor: Divisor,
        k_f_label: str,
        sigma: tuple[str, ...] = (),
    ) -> None:
        self._fill(n, sign, critical_divisor, k_f_label, sigma)


def epsilon_report(genus: int, sheaf: SheafDescriptor, omega: Divisor) -> EpsilonReport:
    """Local data entering the factorization of the determinant of cohomology.

    Only defined when the degree bound is positive; then the relevant
    degree is the bound itself and the sign is its parity.  ``sigma``
    lists every point that can carry a local factor.
    """
    bound = n_f(genus, sheaf)
    if bound <= 0:
        raise PreconditionError(
            f"local factorization data needs a positive degree bound, got {bound}"
        )
    critical = critical_point(genus, sheaf, omega)
    sigma = tuple(sorted(set(sheaf.drops.support) | set(omega.support)))
    return EpsilonReport(
        n=bound,
        sign=-1 if bound % 2 else 1,
        critical_divisor=critical,
        k_f_label=k_f_label(sheaf),
        sigma=sigma,
    )
