"""Index bookkeeping: symmetric-power Euler characteristics and stratum degrees.

The degrees d_lambda are the unknowns of a triangular linear system built
from 0-1 matrix counts.  Solving it once per (genus, n) lets any
characteristic-cycle series be checked against the Euler characteristics
of the symmetric powers, degree by degree.  Every solved degree is
compared with the closed form d_lambda = (2g-2)_{l(lambda)} / prod_i e_i!,
the monomial symmetric function m_lambda evaluated at 2g-2 ones, which
shares no code with the count matrix.
"""

from __future__ import annotations

import math
from functools import lru_cache
from operator import mul
from typing import TYPE_CHECKING

from .combinat import _conjugate, _count_binary_matrices, _factorial_product, _partition_items
from .combinat import gen_binomial, partitions
from .combinat import compositions  # noqa: F401 - perfbench/tracing.py resolves it by name
from .errors import ArgumentError, ConsistencyError, check_int, exact_div

if TYPE_CHECKING:
    from .series import CycleSeries
    from .records import SheafDescriptor

__all__ = [
    "chi_sym_powers",
    "index_matrix",
    "infer_degrees",
    "verify_series_index",
    "index_check",
]


def chi_sym_powers(chi: int, max_degree: int) -> list[int]:
    """Euler characteristics of the symmetric powers of a space with the given chi.

    These are the coefficients of (1-t)^(-chi):

    >>> chi_sym_powers(2, 4)
    [1, 2, 3, 4, 5]
    >>> chi_sym_powers(-2, 4)
    [1, -2, 1, 0, 0]
    """
    check_int(chi, "chi")
    check_int(max_degree, "max_degree", 0)
    out = []
    for n in range(max_degree + 1):
        sign = -1 if n % 2 else 1
        out.append(sign * gen_binomial(-chi, n))
    return out


def index_matrix(n: int) -> tuple[list[tuple[int, ...]], list[list[int]]]:
    """Partitions of ``n`` (largest part first) and the matrix of 0-1 matrix counts.

    Entry (i, j) counts 0-1 matrices with row sums conjugate to the i-th
    partition and column sums the j-th partition.  The result is upper
    triangular with unit diagonal, and each row satisfies the principal
    specialization of ``e`` at ``1^n``; both are verified when the matrix
    for ``n`` is first built, and later calls return fresh copies of it.
    """
    check_int(n, "n", 0)
    lams, matrix = _verified_matrix(n)
    return list(lams), [list(row) for row in matrix]


@lru_cache(maxsize=32)
def _verified_matrix(n: int) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    # built and checked once per n; index_matrix hands out copies
    lams = tuple(partitions(n))
    # partitions and their conjugates are descending without zeros, the
    # form the count recursion takes, so the checks of count_m are skipped
    matrix = tuple(
        tuple([_count_binary_matrices(rows, mu) for mu in lams]) for rows in map(_conjugate, lams)
    )
    for i in range(len(lams)):
        if matrix[i][i] != 1:
            raise ConsistencyError(f"diagonal entry for {lams[i]} is {matrix[i][i]}, expected 1")
        for j in range(i):
            if matrix[i][j] != 0:
                raise ConsistencyError(
                    f"entry ({lams[i]}, {lams[j]}) below the diagonal is {matrix[i][j]}"
                )
    # a second route per row, sharing no code with the count: with rho the conjugate of
    # lams[i], e_rho = sum_j matrix[i][j] m_{lams[j]}, which at 1^n reads
    # sum_j m_{lams[j]}(1^n) matrix[i][j] = prod_p binom(n, rho_p); every weight
    # m_mu(1^n) = n! / ((n - l(mu))! prod_i m_i(mu)!) is positive, so one wrong entry shows
    m_at_ones = [
        exact_div(math.perm(n, len(mu)), _factorial_product(_partition_items(mu))) for mu in lams
    ]
    for lam, row in zip(lams, matrix):
        left = sum(map(mul, m_at_ones, row))
        right = math.prod([math.comb(n, p) for p in _conjugate(lam)])
        if left != right:
            raise ConsistencyError(
                f"count matrix row for {lam} at n = {n}: sum_mu m_mu(1^{n}) a gives {left}, "
                f"prod_p binom({n}, rho_p) gives {right}"
            )
    return lams, matrix


def _chi_product(chi_values: list[int], parts: tuple[int, ...], n: int) -> int:
    sign = -1 if n % 2 else 1
    out = sign
    for p in parts:
        out *= chi_values[p]
    return out


@lru_cache(maxsize=256)
def _infer_degrees_cached(genus: int, n: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    chi_values = chi_sym_powers(2 - 2 * genus, n)
    lams, matrix = _verified_matrix(n)
    y: list[int] = []
    for j, mu in enumerate(lams):
        val = _chi_product(chi_values, mu, n)
        for i in range(j):
            val -= matrix[i][j] * y[i]
        y.append(val)
    degrees = {}
    for mu, solved in zip(lams, y):
        lam = _conjugate(mu)
        falling = 1
        for k in range(len(lam)):
            falling *= 2 * genus - 2 - k
        closed = exact_div(falling, _factorial_product(_partition_items(lam)))
        if solved != closed:
            raise ConsistencyError(
                f"stratum degree at genus {genus} for {lam}: triangular solve gives {solved}, "
                f"closed form (2g-2)_l / prod e_i! gives {closed}"
            )
        degrees[lam] = solved
    return tuple(sorted(degrees.items()))


def infer_degrees(genus: int, n: int) -> dict[tuple[int, ...], int]:
    """Stratum degree d_lambda for every partition of ``n`` on a genus-g curve.

    Two routes, both run once per (genus, n) before the result is cached:
    forward substitution in the unit-triangular count matrix, and the
    closed form ``(2g-2)_{l(lambda)} / prod_i e_i!`` with ``(x)_l`` the
    falling factorial and ``e_i`` the multiplicity of the part ``i``.
    They must agree exactly, or ConsistencyError is raised.

    >>> infer_degrees(0, 1)
    {(1,): -2}
    >>> infer_degrees(2, 2)
    {(1, 1): 1, (2,): 2}
    """
    check_int(genus, "genus", 0)
    check_int(n, "n", 0)
    return dict(_infer_degrees_cached(genus, n))


def verify_series_index(series: CycleSeries, chi_values: list[int], genus: int) -> bool:
    """Check a cycle series against prescribed Euler characteristics.

    In each degree the series coefficient is paired with the stratum
    degrees: every term tau[delta; e] contributes its coefficient times
    d_{lambda(e)}, and the total must equal the prescribed value.  Raises
    ConsistencyError at the first failing degree, returns True otherwise.
    """
    if len(chi_values) < series.max_degree + 1:
        raise ArgumentError(
            f"need {series.max_degree + 1} chi values, got {len(chi_values)}"
        )
    degrees: dict[int, dict[tuple[int, ...], int]] = {}  # weight -> its stratum degrees
    for n in range(series.max_degree + 1):
        total = 0
        for basis, coeff in series.coefficient(n).terms():
            weight = basis.e.weight
            if weight not in degrees:
                degrees[weight] = infer_degrees(genus, weight)
            total += coeff * degrees[weight][basis.e.to_partition()]
        if total != chi_values[n]:
            raise ConsistencyError(
                f"index mismatch at degree {n}: cycle side {total}, expected {chi_values[n]}"
            )
    return True


def index_check(genus: int, sheaf: SheafDescriptor, max_degree: int) -> bool:
    """End-to-end index test for a tame sheaf on a genus-g curve.

    Builds the characteristic-cycle series, the Euler characteristics of
    the symmetric powers of the sheaf, and confirms they agree through
    the stratum degrees.
    """
    # imported here so that the count-matrix commands load only combinat
    from .geometry import sheaf_euler_characteristic
    from .sheaves import s_tame

    series = s_tame(sheaf.rank, sheaf.drops, max_degree)
    chi = sheaf_euler_characteristic(genus, sheaf)
    return verify_series_index(series, chi_sym_powers(chi, max_degree), genus)
