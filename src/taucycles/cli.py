"""Command line interface.

Every subcommand prints deterministically: rerunning the same invocation
gives byte-identical output.  JSON payloads carry a top-level schema tag.
Exit codes: 0 success, 2 bad arguments, 3 violated hypothesis, 4 internal
inconsistency.  A reader that closes stdout early, as ``| head`` does, ends
the run with exit code 0 and nothing on stderr; any other failure to write
stdout, such as a full disk, is exit code 3 with one ``error:`` line.

One table in ``build_parser`` lists the subcommands: name, help, output
formats and options.  ``main`` parses with one parser, built on its first
call and kept for the process, and looks up the handler ``_cmd_<name>``
(``-`` read as ``_``) when the command runs.  A handler checks its input,
computes, and returns one view per format, a function that builds that
output.  ``main`` builds only the requested view and prints it: JSON
through ``_emit``, which adds the schema tag, any other format through one
``print`` (``selftest`` prints its lines itself, as its checks pass).  Each
handler imports the modules it calls when it runs, so a cold process loads
only those (and ``json`` only for ``--format json``).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from functools import lru_cache
from typing import TYPE_CHECKING

from . import __version__
from .errors import ArgumentError, ConsistencyError, PreconditionError, decimal_int

if TYPE_CHECKING:
    from collections.abc import Callable, Sequence

    from .cycle_algebra import CycleSum
    from .divisors import Divisor
    from .records import SheafDescriptor, _FrozenRecord
    from .series import CycleSeries

    # format -> a function that builds the output: a JSON payload or the text
    Views = dict[str, Callable[[], object]]

SCHEMA = 1

# The largest --n of mtable and index-degrees.  Both build the count matrix,
# whose side is the number of partitions of n; cold, n = 20 (627 partitions)
# took 1.3-1.7 s and 48 MB, and each step up multiplies the time by 1.5 to 2
# and the memory by 1.3 to 1.5.
MAX_TABLE_N = 20

# The largest weight (sum of the parts) of pushforward.  Cold, 30 ones took
# about 2 s and 85 MB and 40 ones 15-29 s; the cost grows with the number
# of partitions of the weight.
MAX_PUSHFORWARD_WEIGHT = 30

# The most lines of strata, which builds every basis before it prints the first.
# Cold, --grade 49 (173,525 lines) took 1.4 s and 105 MB, --grade 52 (281,589)
# 2.2 s and 162 MB, and --grade 55 (451,276) 2.7 s and 253 MB.
MAX_STRATA_LINES = 200_000

__all__ = ["main", "build_parser"]


# ---------------------------------------------------------------------------
# parsing helpers


def _int(text: str) -> int:
    return decimal_int(text)


_int.__name__ = "int"  # argparse names the type in "invalid int value: ..."


def _resolve_max_degree(value: int | None) -> int:
    if value is not None:
        return value
    raw = os.environ.get("TAUCYCLES_MAX_DEGREE")
    if raw is None:
        return 8
    try:
        value = decimal_int(raw)
    except ValueError:
        raise ArgumentError(f"TAUCYCLES_MAX_DEGREE must be an integer, got {raw!r}") from None
    if value < 0:
        raise ArgumentError(f"TAUCYCLES_MAX_DEGREE must be nonnegative, got {value}")
    return value


def _parse_sings(pairs: Sequence[str]) -> Divisor:
    from .divisors import Divisor

    out: dict[str, int] = {}
    for item in pairs:
        name, sep, count_text = item.partition(":")
        if not sep:
            raise ArgumentError(f"bad singularity {item!r}, expected point:drop")
        try:
            count = decimal_int(count_text)
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


def _check_weight(parts: tuple[int, ...]) -> tuple[int, ...]:
    # an entry below 1 is a bad argument, which the pushforward reports itself
    if min(parts) > 0 and sum(parts) > MAX_PUSHFORWARD_WEIGHT:
        raise PreconditionError(
            f"weight {sum(parts)} is above the limit of {MAX_PUSHFORWARD_WEIGHT} for this command"
        )
    return parts


def _strata_lines(grade: int, n_points: int) -> int:
    # the lines of strata: the C(d + P - 1, P - 1) divisors of each degree d on P
    # points, times the p(grade - d) shapes of the rest (d = 0 alone without points);
    # past MAX_STRATA_LINES the sum stops, so the numbers stay small for any grade
    p = [1]  # p(m) by Euler's pentagonal recurrence, up to the grade or one past the limit
    while len(p) <= grade and p[-1] <= MAX_STRATA_LINES:
        m, total, j = len(p), 0, 1
        while j * (3 * j - 1) // 2 <= m:
            sign = 1 if j % 2 else -1
            for pentagonal in (j * (3 * j - 1) // 2, j * (3 * j + 1) // 2):
                if pentagonal <= m:
                    total += sign * p[m - pentagonal]
            j += 1
        p.append(total)
    lines = 0
    for d in range(grade + 1 if n_points else min(grade + 1, 1)):
        if grade - d >= len(p):
            return MAX_STRATA_LINES + 1  # p rises with m, and p[-1] is past the limit
        lines += (math.comb(d + n_points - 1, d) if n_points else 1) * p[grade - d]
        if lines > MAX_STRATA_LINES:
            break
    return lines


def _parse_int_list(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(decimal_int(tok) for tok in text.split(","))
    except ValueError:
        raise ArgumentError(f"bad {what} {text!r}, expected comma-separated integers") from None


# ---------------------------------------------------------------------------
# json shapes: json.dumps writes the items() tuples of a Divisor or MultVec
# as arrays of [name or size, count] pairs


def _sum_obj(s: CycleSum) -> list[dict]:
    return [{"coeff": c, "delta": b.delta.items(), "e": b.e.items()} for b, c in s.terms()]


def _series_obj(series: CycleSeries) -> list[dict]:
    return [
        {"degree": n, "terms": _sum_obj(series.coefficient(n))}
        for n in range(series.max_degree + 1)
    ]


def _record_obj(record: _FrozenRecord) -> dict:
    """The fields of a report in order, a divisor as its items(): [] when zero, unlike None."""
    from .divisors import Divisor

    return {
        name: value.items() if isinstance(value, Divisor) else value
        for name, value in zip(record.__slots__, record._values())
    }


def _emit(payload: dict) -> None:
    import json

    print(json.dumps({"schema": SCHEMA, **payload}, indent=2))


def _algebra_views(value: CycleSum | CycleSeries, payload: Callable[[], dict]) -> Views:
    return {"text": value.render, "json": payload, "latex": value.latex}


def _fields(**fields: object) -> str:
    """One ``key: value`` line per field that is not None."""
    return "\n".join(f"{key}: {value}" for key, value in fields.items() if value is not None)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_product(args: argparse.Namespace) -> Views:
    from .combinat import MultVec
    from .cycle_algebra import tau
    from .divisors import Divisor

    deltas = args.delta or []
    es = args.e or []
    n_factors = max(len(deltas), len(es))
    if n_factors == 0:
        raise ArgumentError("give at least one factor via --e or --delta")
    result = None
    for i in range(n_factors):
        delta = Divisor.parse(deltas[i]) if i < len(deltas) else Divisor()
        e = MultVec.parse(es[i]) if i < len(es) else MultVec()
        # not from the unit: a product with it still takes the factorials of the counts
        factor = tau(delta, e)
        result = factor if result is None else result * factor
    return _algebra_views(result, lambda: {"factors": n_factors, "result": _sum_obj(result)})


def _cmd_series(args: argparse.Namespace) -> Views:
    from .sheaves import s_tame

    drops = _parse_sings(args.sing or [])
    max_degree = _resolve_max_degree(args.max_degree)
    series = s_tame(args.rank, drops, max_degree)
    return _algebra_views(series, lambda: {
        "rank": args.rank,
        "drops": drops.items(),
        "max_degree": max_degree,
        "degrees": _series_obj(series),
    })


def _cmd_mtable(args: argparse.Namespace) -> Views:
    _check_table_n(args.n)
    from .index import index_matrix

    lams, matrix = index_matrix(args.n)

    def rows(sep: str, end: str = "") -> str:
        return "\n".join(sep.join(map(str, row)) + end for row in matrix)

    return {
        "text": lambda: rows(" "),
        "json": lambda: {"n": args.n, "partitions": [list(lam) for lam in lams], "matrix": matrix},
        "latex": lambda: "\n".join([r"\begin{pmatrix}", rows(" & ", r" \\"), r"\end{pmatrix}"]),
    }


def _cmd_strata(args: argparse.Namespace) -> Views:
    from .cycle_algebra import basis_of_grade
    from .divisors import _check_point

    points = [_check_point(p) for p in args.points.split(",") if p]
    n_points = len(set(points))
    if _strata_lines(args.grade, n_points) > MAX_STRATA_LINES:
        raise PreconditionError(
            f"--grade {args.grade} on {n_points} points gives more than {MAX_STRATA_LINES} "
            "strata, the limit for this command"
        )
    basis = basis_of_grade(args.grade, points)
    return {
        "text": lambda: "\n".join(b.render() for b in basis),
        "json": lambda: {
            "grade": args.grade,
            "points": sorted(set(points)),
            "strata": [{"delta": b.delta.items(), "e": b.e.items(), "label": b.render()}
                       for b in basis],
        },
        "latex": lambda: "\n".join(b.latex() for b in basis),
    }


def _cmd_pushforward(args: argparse.Namespace) -> Views:
    from .combinat import validate_partition
    from .sheaves import pushforward_composition, pushforward_partition

    if args.composition is not None and args.partition is not None:
        raise ArgumentError("give either --composition or --partition, not both")
    if args.composition is None and args.partition is None:
        raise ArgumentError("give one of --composition or --partition")
    if args.composition is not None:
        if args.char:
            raise ArgumentError("--char applies only to the partition route")
        parts = _check_weight(_parse_int_list(args.composition, "composition"))
        result = pushforward_composition(parts)
    else:
        parts = _check_weight(validate_partition(_parse_int_list(args.partition, "partition")))
        result = pushforward_partition(parts, args.char)
    return _algebra_views(result, lambda: {"result": _sum_obj(result)})


def _sheaf_from_args(args: argparse.Namespace) -> SheafDescriptor:
    from .records import SheafDescriptor

    return SheafDescriptor(args.rank, _parse_sings(args.sing or []))


def _cmd_acyclicity(args: argparse.Namespace) -> Views:
    from .divisors import Divisor
    from .geometry import acyclicity

    if args.n < 1:
        raise ArgumentError(f"the command line takes n >= 1, got {args.n}")
    sheaf = _sheaf_from_args(args)
    omega = Divisor.parse(args.omega) if args.omega is not None else None
    report = acyclicity(args.genus, sheaf, args.n, omega)
    critical = report.critical_divisor  # None only without --omega
    return {
        "text": lambda: _fields(
            verdict=report.verdict, n=report.n, n_f=report.n_f, k_f_label=report.k_f_label,
            critical_divisor=None if critical is None else critical.pretty(),
        ),
        "json": lambda: _record_obj(report),
    }


def _cmd_epsilon_report(args: argparse.Namespace) -> Views:
    from .divisors import Divisor
    from .geometry import epsilon_report

    report = epsilon_report(args.genus, _sheaf_from_args(args), Divisor.parse(args.omega))
    return {
        "text": lambda: _fields(
            n=report.n, sign=report.sign, critical_divisor=report.critical_divisor.pretty(),
            k_f_label=report.k_f_label, sigma=", ".join(report.sigma),
        ),
        "json": lambda: _record_obj(report),
    }


def _cmd_index_degrees(args: argparse.Namespace) -> Views:
    _check_table_n(args.n)
    from .combinat import partitions
    from .index import infer_degrees

    degrees = infer_degrees(args.genus, args.n)
    lams = list(partitions(args.n))
    return {
        "text": lambda: "\n".join(
            f"{'+'.join(map(str, lam)) if lam else '0'}: {degrees[lam]}" for lam in lams
        ),
        "json": lambda: {
            "genus": args.genus,
            "n": args.n,
            "degrees": [{"partition": list(lam), "d": degrees[lam]} for lam in lams],
        },
    }


def _cmd_selftest(args: argparse.Namespace) -> Views:
    from .selftest import run

    # run prints one line per check as it passes and returns None, so nothing more is printed
    return {"text": run}


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="taucycles",
        description="exact arithmetic in the algebra of basic cycles on symmetric powers",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    report = ("text", "json")
    algebra = (*report, "latex")
    count = dict(type=_int, required=True)
    genus, rank, n = ("--genus", count), ("--rank", count), ("--n", count)
    sing = ("--sing", dict(action="append", metavar="POINT:DROP"))
    # name, help, formats, options as (flag, add_argument keywords); the handler is _cmd_<name>
    table = [
        ("product", "multiply basis cycles", algebra, [
            ("--delta", dict(action="append", metavar="DIV", help="divisor of the next factor")),
            ("--e", dict(action="append", metavar="MULT",
                         help="multiplicities of the next factor")),
        ]),
        ("series", "characteristic-cycle series of a tame sheaf", algebra, [
            rank, sing, ("--max-degree", dict(type=_int)),
        ]),
        ("mtable", "triangular matrix of 0-1 matrix counts", algebra, [n]),
        ("strata", "basis cycles of a given grade", algebra, [
            ("--grade", count),
            ("--points", dict(default="", metavar="NAMES", help="comma-separated point names")),
        ]),
        ("pushforward", "pushforward classes along addition maps", algebra, [
            ("--composition", dict(metavar="PARTS")),
            ("--partition", dict(metavar="PARTS")),
            ("--char", dict(type=_int, default=0, help="base characteristic, 0 or a prime")),
        ]),
        ("acyclicity", "locate a degree against the acyclic range", report, [
            genus, rank, sing, n,
            ("--omega", dict(metavar="DIV", help="effective one-form divisor, e.g. '2*s'")),
        ]),
        ("epsilon-report", "local factorization data on the boundary", report, [
            genus, rank, sing, ("--omega", dict(metavar="DIV", required=True)),
        ]),
        ("index-degrees", "stratum degrees for all partitions of n", report, [genus, n]),
        ("selftest", "run the built-in consistency checks", (), []),
    ]
    for name, help_text, formats, options in table:
        p = sub.add_parser(name, help=help_text)
        for flag, keywords in options:
            p.add_argument(flag, **keywords)
        if formats:
            p.add_argument("--format", choices=formats, default="text")
        p.set_defaults(format="text")
    return parser


# nothing in the parser depends on the call; argparse reads the terminal width as it prints
_parser = lru_cache(maxsize=1)(build_parser)


def _detach_stdout() -> None:
    # with fd 1 on devnull the interpreter's final flush of what is left
    # in the buffer stays silent
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        handler = globals()["_cmd_" + args.command.replace("-", "_")]
        output = handler(args)[args.format]()
        if args.format == "json":
            _emit(output)
        elif output is not None:
            print(output)
        sys.stdout.flush()  # so that a closed pipe shows up here, not at interpreter exit
        return 0
    except BrokenPipeError:
        # the reader stopped early, which is not a failure of the run
        _detach_stdout()
        return 0
    except OSError as exc:
        # stdout is the only file a command writes; it could not take the output
        _detach_stdout()
        print(f"error: cannot write the output: {exc.strerror or exc}", file=sys.stderr)
        return PreconditionError.exit_code
    except (ArgumentError, PreconditionError, ConsistencyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
