"""Numerology on the curve side: acyclicity windows, certificates, critical loci.

All statements are about a smooth projective curve of a given genus and a
tame sheaf descriptor on it.  Nothing here touches the cycle algebra; the
two sides meet again in the index module.
"""

from __future__ import annotations

from .combinat import MultVec, partitions
from .divisors import Divisor, subdivisors
from .errors import ArgumentError, ConsistencyError, PreconditionError
from .records import SheafDescriptor, _FrozenRecord

__all__ = [
    "AcyclicityReport",
    "EpsilonReport",
    "RiemannRochReport",
    "n_f",
    "sheaf_euler_characteristic",
    "k_f_label",
    "acyclicity",
    "singularity_certificate",
    "critical_point",
    "epsilon_report",
    "riemann_roch",
]

VERDICT_EVERYWHERE = "acyclic_everywhere"
VERDICT_OFF_KF = "acyclic_off_KF"
VERDICT_NOT_COVERED = "not_covered"

_CERT_ENUM_CAP = 32


def _check_genus(genus: int) -> None:
    if not isinstance(genus, int) or isinstance(genus, bool) or genus < 0:
        raise ArgumentError(f"genus must be a nonnegative integer, got {genus!r}")


def n_f(genus: int, sheaf: SheafDescriptor) -> int:
    """Degree bound rank*(2g-2) + deg(drops) separating the acyclic range."""
    _check_genus(genus)
    return sheaf.rank * (2 * genus - 2) + sheaf.drops.degree


def sheaf_euler_characteristic(genus: int, sheaf: SheafDescriptor) -> int:
    """Euler characteristic rank*(2-2g) - deg(drops); always the negative of n_f."""
    _check_genus(genus)
    chi = sheaf.rank * (2 - 2 * genus) - sheaf.drops.degree
    if chi != -n_f(genus, sheaf):
        raise ConsistencyError("Euler characteristic and degree bound fell out of step")
    return chi


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
    _check_genus(genus)
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ArgumentError(f"the symmetric power degree must be a nonnegative integer, got {n!r}")
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
    counts = {max_part: q}
    if rem:
        counts[rem] = counts.get(rem, 0) + 1
    return MultVec(counts)


def singularity_certificate(
    genus: int, sheaf: SheafDescriptor, n: int
) -> tuple[Divisor, MultVec] | None:
    """Witness for a singular stratum in degree ``n``, if one exists.

    Searches pairs (delta, e) with delta below the drop divisor pointwise
    and deg(delta) + weight(e) = n, parts of e bounded by the rank, and
    length of e at most 2g-2.  For n on the degree bound the witness is
    unique, namely (drops, {rank: 2g-2}); above the bound there is none.
    Returns None when every candidate is too long, in particular always
    in genus 0.
    """
    _check_genus(genus)
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ArgumentError(f"the symmetric power degree must be a nonnegative integer, got {n!r}")
    rank = sheaf.rank
    best: tuple[int, int, str, Divisor, MultVec] | None = None
    for delta in subdivisors(sheaf.drops):
        m = n - delta.degree
        if m < 0:
            continue
        e = _shortest_partition(m, rank)
        if m <= _CERT_ENUM_CAP:
            lengths = [len(lam) for lam in partitions(m, max_part=rank)]
            if min(lengths) != e.length:
                raise ConsistencyError(
                    f"shortest-partition formula is off for m={m}, rank={rank}: "
                    f"{e.length} vs {min(lengths)}"
                )
        key = (e.length, -delta.degree, delta.canonical_text())
        if best is None or key < best[:3]:
            best = (*key, delta, e)
    if best is None or best[0] > 2 * genus - 2:
        return None
    return (best[3], best[4])


def critical_point(genus: int, sheaf: SheafDescriptor, omega: Divisor) -> Divisor:
    """Critical divisor drops + rank*omega for a chosen effective one-form divisor.

    The one-form divisor must have degree 2g-2; in genus 0 no effective
    divisor does, so the call always fails there.
    """
    _check_genus(genus)
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


class RiemannRochReport(_FrozenRecord):
    __slots__ = ("genus", "degree", "chi_coh", "h0_positive", "aj_smooth")

    def __init__(
        self, genus: int, degree: int, chi_coh: int, h0_positive: bool, aj_smooth: bool
    ) -> None:
        self._fill(genus, degree, chi_coh, h0_positive, aj_smooth)


def riemann_roch(genus: int, degree: int) -> RiemannRochReport:
    """Coherent Euler characteristic of a degree-d line bundle and two thresholds.

    ``h0_positive`` says a section exists for every bundle of that degree
    (d >= g); ``aj_smooth`` says the Abel-Jacobi image is past the
    critical range (d > 2g-2).
    """
    _check_genus(genus)
    if not isinstance(degree, int) or isinstance(degree, bool):
        raise ArgumentError(f"degree must be an integer, got {degree!r}")
    return RiemannRochReport(
        genus=genus,
        degree=degree,
        chi_coh=degree - genus + 1,
        h0_positive=degree >= genus,
        aj_smooth=degree > 2 * genus - 2,
    )
