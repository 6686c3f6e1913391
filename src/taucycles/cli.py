"""Command line interface.

Every subcommand prints deterministically: rerunning the same invocation
gives byte-identical output.  JSON payloads carry a top-level schema tag.
Exit codes: 0 success, 2 bad arguments, 3 violated hypothesis, 4 internal
inconsistency.  A reader that closes stdout early, as ``| head`` does, ends
the run with exit code 0 and nothing on stderr.

Each subcommand imports the modules it calls when it runs, so a cold
process loads only those (and ``json`` only for ``--format json``).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING

from . import __version__
from .errors import (
    EXIT_ARGUMENT,
    EXIT_CONSISTENCY,
    EXIT_PRECONDITION,
    ArgumentError,
    ConsistencyError,
    PreconditionError,
)

if TYPE_CHECKING:
    from collections.abc import Sequence

    from .combinat import MultVec
    from .cycle_algebra import CycleSum
    from .divisors import Divisor
    from .series import CycleSeries
    from .records import SheafDescriptor

SCHEMA = 1

# The largest --n of mtable and index-degrees.  Both build the count matrix,
# whose side is the number of partitions of n; cold, n = 20 (627 partitions)
# took 12 s and 87 MB, and each step up about doubles both.
MAX_TABLE_N = 20

__all__ = ["main", "build_parser"]


# ---------------------------------------------------------------------------
# parsing helpers


def _default_max_degree() -> int:
    raw = os.environ.get("TAUCYCLES_MAX_DEGREE")
    if raw is None:
        return 8
    try:
        value = int(raw)
    except ValueError:
        raise ArgumentError(f"TAUCYCLES_MAX_DEGREE must be an integer, got {raw!r}") from None
    if value < 0:
        raise ArgumentError(f"TAUCYCLES_MAX_DEGREE must be nonnegative, got {value}")
    return value


def _resolve_max_degree(value: int | None) -> int:
    return _default_max_degree() if value is None else value


def _parse_sings(pairs: Sequence[str]) -> Divisor:
    from .divisors import Divisor

    out: dict[str, int] = {}
    for item in pairs:
        name, sep, count_text = item.partition(":")
        if not sep:
            raise ArgumentError(f"bad singularity {item!r}, expected point:drop")
        try:
            count = int(count_text)
        except ValueError:
            raise ArgumentError(f"bad drop in {item!r}, expected an integer") from None
        if count < 1:
            raise ArgumentError(f"drop in {item!r} must be at least 1")
        if name in out:
            raise ArgumentError(f"point {name!r} listed twice")
        out[name] = count
    return Divisor(out)


def _check_table_n(n: int) -> None:
    if n > MAX_TABLE_N:
        raise PreconditionError(f"--n {n} is above the limit of {MAX_TABLE_N} for this command")


def _parse_int_list(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise ArgumentError(f"bad {what} {text!r}, expected comma-separated integers") from None


# ---------------------------------------------------------------------------
# json shapes


def _divisor_pairs(d: Divisor) -> list[list]:
    return [[name, c] for name, c in d.items()]


def _e_pairs(e: MultVec) -> list[list[int]]:
    return [[size, c] for size, c in e.items()]


def _sum_obj(s: CycleSum) -> list[dict]:
    return [
        {"coeff": c, "delta": _divisor_pairs(b.delta), "e": _e_pairs(b.e)}
        for b, c in s.terms()
    ]


def _series_obj(series: CycleSeries) -> list[dict]:
    return [
        {"degree": n, "terms": _sum_obj(series.coefficient(n))}
        for n in range(series.max_degree + 1)
    ]


def _emit(payload: dict) -> None:
    import json

    print(json.dumps(payload, indent=2))


# ---------------------------------------------------------------------------
# subcommands


def _cmd_product(args: argparse.Namespace) -> int:
    from .combinat import MultVec
    from .cycle_algebra import tau, unit
    from .divisors import Divisor

    deltas = args.delta or []
    es = args.e or []
    n_factors = max(len(deltas), len(es))
    if n_factors == 0:
        raise ArgumentError("give at least one factor via --e or --delta")
    result = unit()
    for i in range(n_factors):
        delta = Divisor.parse(deltas[i]) if i < len(deltas) else Divisor()
        e = MultVec.parse(es[i]) if i < len(es) else MultVec()
        result = result * tau(delta, e)
    if args.format == "json":
        _emit({"schema": SCHEMA, "factors": n_factors, "result": _sum_obj(result)})
    elif args.format == "latex":
        print(result.latex())
    else:
        print(result.render())
    return 0


def _cmd_series(args: argparse.Namespace) -> int:
    from .sheaves import s_tame

    drops = _parse_sings(args.sing or [])
    max_degree = _resolve_max_degree(args.max_degree)
    series = s_tame(args.rank, drops, max_degree)
    if args.format == "json":
        _emit(
            {
                "schema": SCHEMA,
                "rank": args.rank,
                "drops": _divisor_pairs(drops),
                "max_degree": max_degree,
                "degrees": _series_obj(series),
            }
        )
    elif args.format == "latex":
        print(series.latex())
    else:
        print(series.render())
    return 0


def _cmd_mtable(args: argparse.Namespace) -> int:
    _check_table_n(args.n)
    from .index import index_matrix

    lams, matrix = index_matrix(args.n)
    if args.format == "json":
        _emit(
            {
                "schema": SCHEMA,
                "n": args.n,
                "partitions": [list(lam) for lam in lams],
                "matrix": matrix,
            }
        )
    elif args.format == "latex":
        lines = [r"\begin{pmatrix}"]
        for row in matrix:
            lines.append(" & ".join(str(v) for v in row) + r" \\")
        lines.append(r"\end{pmatrix}")
        print("\n".join(lines))
    else:
        for row in matrix:
            print(" ".join(str(v) for v in row))
    return 0


def _cmd_strata(args: argparse.Namespace) -> int:
    from .cycle_algebra import basis_of_grade

    points = [p for p in (args.points.split(",") if args.points else []) if p]
    basis = basis_of_grade(args.grade, points)
    if args.format == "json":
        _emit(
            {
                "schema": SCHEMA,
                "grade": args.grade,
                "points": sorted(set(points)),
                "strata": [
                    {
                        "delta": _divisor_pairs(b.delta),
                        "e": _e_pairs(b.e),
                        "label": b.render(),
                    }
                    for b in basis
                ],
            }
        )
    elif args.format == "latex":
        for b in basis:
            print(b.latex())
    else:
        for b in basis:
            print(b.render())
    return 0


def _cmd_pushforward(args: argparse.Namespace) -> int:
    from .sheaves import pushforward_composition, pushforward_partition

    if args.composition is not None and args.partition is not None:
        raise ArgumentError("give either --composition or --partition, not both")
    if args.composition is None and args.partition is None:
        raise ArgumentError("give one of --composition or --partition")
    if args.composition is not None:
        if args.char:
            raise ArgumentError("--char applies only to the partition route")
        result = pushforward_composition(_parse_int_list(args.composition, "composition"))
    else:
        result = pushforward_partition(_parse_int_list(args.partition, "partition"), args.char)
    if args.format == "json":
        _emit({"schema": SCHEMA, "result": _sum_obj(result)})
    elif args.format == "latex":
        print(result.latex())
    else:
        print(result.render())
    return 0


def _sheaf_from_args(args: argparse.Namespace) -> SheafDescriptor:
    from .records import SheafDescriptor

    return SheafDescriptor(args.rank, _parse_sings(args.sing or []))


def _cmd_acyclicity(args: argparse.Namespace) -> int:
    from .divisors import Divisor
    from .geometry import acyclicity

    if args.n < 1:
        raise ArgumentError(f"the command line takes n >= 1, got {args.n}")
    sheaf = _sheaf_from_args(args)
    omega = Divisor.parse(args.omega) if args.omega is not None else None
    report = acyclicity(args.genus, sheaf, args.n, omega)
    if args.format == "json":
        payload = {
            "schema": SCHEMA,
            "genus": report.genus,
            "n": report.n,
            "n_f": report.n_f,
            "verdict": report.verdict,
            "k_f_label": report.k_f_label,
            "critical_divisor": (
                _divisor_pairs(report.critical_divisor)
                if report.critical_divisor is not None
                else None
            ),
        }
        _emit(payload)
    else:
        print(f"verdict: {report.verdict}")
        print(f"n: {report.n}")
        print(f"n_f: {report.n_f}")
        print(f"k_f_label: {report.k_f_label}")
        if report.critical_divisor is not None:
            print(f"critical_divisor: {report.critical_divisor.pretty()}")
    return 0


def _cmd_epsilon_report(args: argparse.Namespace) -> int:
    from .divisors import Divisor
    from .geometry import epsilon_report

    sheaf = _sheaf_from_args(args)
    omega = Divisor.parse(args.omega)
    report = epsilon_report(args.genus, sheaf, omega)
    if args.format == "json":
        _emit(
            {
                "schema": SCHEMA,
                "n": report.n,
                "sign": report.sign,
                "critical_divisor": _divisor_pairs(report.critical_divisor),
                "k_f_label": report.k_f_label,
                "sigma": list(report.sigma),
            }
        )
    else:
        print(f"n: {report.n}")
        print(f"sign: {report.sign}")
        print(f"critical_divisor: {report.critical_divisor.pretty()}")
        print(f"k_f_label: {report.k_f_label}")
        print(f"sigma: {', '.join(report.sigma)}")
    return 0


def _cmd_index_degrees(args: argparse.Namespace) -> int:
    _check_table_n(args.n)
    from .combinat import partitions
    from .index import infer_degrees

    degrees = infer_degrees(args.genus, args.n)
    lams = list(partitions(args.n))
    if args.format == "json":
        _emit(
            {
                "schema": SCHEMA,
                "genus": args.genus,
                "n": args.n,
                "degrees": [
                    {"partition": list(lam), "d": degrees[lam]} for lam in lams
                ],
            }
        )
    else:
        for lam in lams:
            label = "+".join(str(p) for p in lam) if lam else "0"
            print(f"{label}: {degrees[lam]}")
    return 0


# ---------------------------------------------------------------------------
# selftest


def _ok(index: int, label: str) -> None:
    print(f"ok {index:02d} {label}")


def _selftest_structure_constants() -> None:
    from .combinat import MultVec, partitions
    from .cycle_algebra import structure_constants, structure_constants_oracle

    vecs = [MultVec.from_partition(lam) for w in range(7) for lam in partitions(w)]
    for a in vecs:
        for b in vecs:
            if a.weight + b.weight > 6:
                continue
            if structure_constants(a, b) != structure_constants_oracle(a, b):
                raise ConsistencyError(f"structure constants differ for {a!r} * {b!r}")


def _selftest_ring_axioms() -> None:
    from .cycle_algebra import basis_of_grade, tau

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
    from .combinat import compositions
    from .sheaves import pushforward_composition, pushforward_partition

    for n in range(1, 5):
        for mu in compositions(n):
            pushforward_composition(mu)  # self-asserting
    if pushforward_partition((1, 1)) != pushforward_composition((1, 1)):
        raise ConsistencyError("partition and composition routes differ on 1+1")


def _selftest_constant_rank() -> None:
    from .sheaves import s_constant_rank

    for rank in (1, 2, 3):
        s_constant_rank(rank, 4)  # self-asserting


def _selftest_tame() -> None:
    from .divisors import Divisor
    from .sheaves import s_tame

    s_tame(2, Divisor({"s": 1, "t": 1}), 4)
    s_tame(3, Divisor({"s": 2}), 4)


def _selftest_direct_sum() -> None:
    from .divisors import Divisor
    from .series import series_one
    from .sheaves import s_skyscraper, s_tame

    left = s_tame(1, Divisor({"s": 1}), 4) * s_tame(1, Divisor({"t": 1}), 4)
    if left != s_tame(2, Divisor({"s": 1, "t": 1}), 4):
        raise ConsistencyError("direct sum multiplicativity failed")
    sky = Divisor({"s": 2})
    prod = s_skyscraper(sky, True, 4) * s_skyscraper(sky, False, 4)
    if prod != series_one(4):
        raise ConsistencyError("shifted and unshifted skyscrapers are not inverse")


def _selftest_triangular() -> None:
    import math

    from .combinat import compositions_fixed_length, count_m, partitions
    from .index import index_matrix

    for n in range(6):
        index_matrix(n)  # self-asserting
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
    from .combinat import gen_binomial
    from .divisors import Divisor
    from .index import index_check, infer_degrees
    from .records import SheafDescriptor

    for genus in (0, 1, 2):
        for n in range(5):
            degrees = infer_degrees(genus, n)
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
    from .combinat import MultVec
    from .divisors import Divisor
    from .geometry import n_f, singularity_certificate
    from .records import SheafDescriptor

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
    import json

    from .divisors import Divisor
    from .sheaves import s_tame

    first = s_tame(2, Divisor({"s": 1}), 3)
    second = s_tame(2, Divisor({"s": 1}), 3)
    if first.render() != second.render() or first.latex() != second.latex():
        raise ConsistencyError("rendering is not deterministic")
    obj1 = json.dumps(_series_obj(first))
    obj2 = json.dumps(_series_obj(second))
    if obj1 != obj2:
        raise ConsistencyError("json payload is not deterministic")


def _cmd_selftest(args: argparse.Namespace) -> int:
    checks = [
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
    for i, (label, fn) in enumerate(checks, start=1):
        fn()
        _ok(i, label)
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_format(p: argparse.ArgumentParser, *, latex: bool = True) -> None:
    choices = ["text", "json"] + (["latex"] if latex else [])
    p.add_argument("--format", choices=choices, default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="taucycles",
        description="exact arithmetic in the algebra of basic cycles on symmetric powers",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("product", help="multiply basis cycles")
    p.add_argument("--delta", action="append", metavar="DIV", help="divisor of the next factor")
    p.add_argument("--e", action="append", metavar="MULT", help="multiplicities of the next factor")
    _add_format(p)
    p.set_defaults(fn=_cmd_product)

    p = sub.add_parser("series", help="characteristic-cycle series of a tame sheaf")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--sing", action="append", metavar="POINT:DROP")
    p.add_argument("--max-degree", type=int, default=None)
    _add_format(p)
    p.set_defaults(fn=_cmd_series)

    p = sub.add_parser("mtable", help="triangular matrix of 0-1 matrix counts")
    p.add_argument("--n", type=int, required=True)
    _add_format(p)
    p.set_defaults(fn=_cmd_mtable)

    p = sub.add_parser("strata", help="basis cycles of a given grade")
    p.add_argument("--grade", type=int, required=True)
    p.add_argument("--points", default="", metavar="NAMES", help="comma-separated point names")
    _add_format(p)
    p.set_defaults(fn=_cmd_strata)

    p = sub.add_parser("pushforward", help="pushforward classes along addition maps")
    p.add_argument("--composition", metavar="PARTS")
    p.add_argument("--partition", metavar="PARTS")
    p.add_argument("--char", type=int, default=0, help="base characteristic, 0 or a prime")
    _add_format(p)
    p.set_defaults(fn=_cmd_pushforward)

    p = sub.add_parser("acyclicity", help="locate a degree against the acyclic range")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--sing", action="append", metavar="POINT:DROP")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--omega", metavar="DIV", help="effective one-form divisor, e.g. '2*s'")
    _add_format(p, latex=False)
    p.set_defaults(fn=_cmd_acyclicity)

    p = sub.add_parser("epsilon-report", help="local factorization data on the boundary")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--sing", action="append", metavar="POINT:DROP")
    p.add_argument("--omega", metavar="DIV", required=True)
    _add_format(p, latex=False)
    p.set_defaults(fn=_cmd_epsilon_report)

    p = sub.add_parser("index-degrees", help="stratum degrees for all partitions of n")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    _add_format(p, latex=False)
    p.set_defaults(fn=_cmd_index_degrees)

    p = sub.add_parser("selftest", help="run the built-in consistency checks")
    p.set_defaults(fn=_cmd_selftest)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # so that a closed pipe shows up here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader stopped early, which is not a failure of the run; with
        # fd 1 on devnull the interpreter's final flush stays silent
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except ArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ARGUMENT
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except ConsistencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONSISTENCY


if __name__ == "__main__":
    sys.exit(main())
