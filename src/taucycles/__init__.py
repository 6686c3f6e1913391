"""Exact arithmetic in the graded algebra of basic cycles on symmetric powers of a curve.

The package has three layers.  ``combinat`` and ``divisors`` hold the raw
counting and bookkeeping, and ``records`` the sheaf descriptor that both
sides take.  ``cycle_algebra`` and ``series`` implement the
ring of cycles and its truncated generating series; ``sheaves`` builds
the series attached to tame constructible sheaves, always through two
independent routes that must agree.  ``geometry`` and ``index`` carry the
curve-side numerology and the degree bookkeeping that ties both sides
together.  ``cli`` exposes all of it on the command line, and
``selftest`` holds the consistency checks of its ``selftest`` subcommand.

The namespace is lazy (PEP 562): ``import taucycles`` loads no submodule,
and the first access to a public name, or to a submodule such as
``taucycles.index``, imports the one submodule it needs.  A cold
command-line run thus pays only for the modules its subcommand uses,
while ``taucycles.X`` and ``from taucycles import *`` give the same
objects as ``taucycles.<module>.X``.
"""

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "combinat": (
        "MultVec",
        "conjugate",
        "count_m",
        "gen_binomial",
        "partitions",
        "set_partitions",
    ),
    "divisors": ("Divisor", "divisor_binomial", "subdivisors"),
    "cycle_algebra": (
        "CycleSum",
        "TauBasis",
        "basis_of_grade",
        "structure_constants",
        "tau",
        "unit",
    ),
    "errors": ("ArgumentError", "ConsistencyError", "PreconditionError"),
    "geometry": (
        "AcyclicityReport",
        "EpsilonReport",
        "acyclicity",
        "critical_point",
        "epsilon_report",
        "k_f_label",
        "n_f",
        "sheaf_euler_characteristic",
        "singularity_certificate",
    ),
    "index": (
        "chi_sym_powers",
        "index_check",
        "index_matrix",
        "infer_degrees",
        "verify_series_index",
    ),
    "records": ("SheafDescriptor",),
    "selftest": ("structure_constants_oracle",),
    "series": ("CycleSeries", "series_one"),
    "sheaves": (
        "pushforward_composition",
        "pushforward_partition",
        "s_constant_rank",
        "s_skyscraper",
        "s_tame",
    ),
}
_HOMES = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOMES]


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule; importing it binds it here
        __import__(f"{__name__}.{name}")
        return globals()[name]
    module = _HOMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(__import__(f"{__name__}.{module}", fromlist=[name]), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS) | set(_HOMES))
