"""Exact arithmetic in the graded algebra of basic cycles on symmetric powers of a curve.

The package has three layers.  ``combinat`` and ``divisors`` hold the raw
counting and bookkeeping.  ``cycle_algebra`` and ``series`` implement the
ring of cycles and its truncated generating series; ``sheaves`` builds
the series attached to tame constructible sheaves, always through two
independent routes that must agree.  ``geometry`` and ``index`` carry the
curve-side numerology and the degree bookkeeping that ties both sides
together.  ``cli`` exposes all of it on the command line.
"""

__version__ = "0.1.0"

from .combinat import (
    MultVec,
    conjugate,
    count_m,
    count_m_oracle,
    gen_binomial,
    merge_closure_leq,
    partitions,
    set_partitions,
)
from .divisors import Divisor, divisor_binomial, subdivisors
from .cycle_algebra import (
    CycleSum,
    TauBasis,
    basis_of_grade,
    structure_constants,
    structure_constants_oracle,
    tau,
    tau_multiset,
    unit,
)
from .errors import (
    ArgumentError,
    ConsistencyError,
    PreconditionError,
)
from .geometry import (
    AcyclicityReport,
    EpsilonReport,
    RiemannRochReport,
    acyclicity,
    critical_point,
    epsilon_report,
    k_f_label,
    n_f,
    riemann_roch,
    sheaf_euler_characteristic,
    singularity_certificate,
)
from .index import (
    chi_sym_powers,
    index_check,
    index_matrix,
    infer_degrees,
    verify_series_index,
)
from .series import CycleSeries, series_one
from .sheaves import (
    SheafDescriptor,
    pushforward_composition,
    pushforward_partition,
    s_constant_rank,
    s_skyscraper,
    s_tame,
)

__all__ = [
    "__version__",
    "MultVec",
    "Divisor",
    "TauBasis",
    "CycleSum",
    "CycleSeries",
    "SheafDescriptor",
    "AcyclicityReport",
    "EpsilonReport",
    "RiemannRochReport",
    "ArgumentError",
    "PreconditionError",
    "ConsistencyError",
    "tau",
    "tau_multiset",
    "unit",
    "series_one",
    "structure_constants",
    "structure_constants_oracle",
    "basis_of_grade",
    "conjugate",
    "count_m",
    "count_m_oracle",
    "gen_binomial",
    "merge_closure_leq",
    "partitions",
    "set_partitions",
    "divisor_binomial",
    "subdivisors",
    "s_constant_rank",
    "s_skyscraper",
    "s_tame",
    "pushforward_composition",
    "pushforward_partition",
    "acyclicity",
    "singularity_certificate",
    "critical_point",
    "epsilon_report",
    "riemann_roch",
    "n_f",
    "k_f_label",
    "sheaf_euler_characteristic",
    "chi_sym_powers",
    "index_matrix",
    "infer_degrees",
    "verify_series_index",
    "index_check",
]
