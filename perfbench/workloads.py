"""Seeded inputs, task execution and output checks for the three workloads.

A workload is a list of tasks generated from the seed.  The program only
sees the generated inputs.  Each task carries the timed call, a function
that renders its result as deterministic text (the digest is taken over
that text) and a check against a reference computed by a different route
than the call being timed.  Checks run untimed, after the timed passes.

Seeds choose point names, drop placements, coefficients, partitions and
compositions inside fixed shape classes, in a fixed task order, so that
every seed asks for about the same amount of work and the run-to-run
spread reflects the program and the machine, not the draw.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from typing import Callable

import taucycles as tc
from taucycles.cycle_algebra import basis_of_grade

POINTS = ("s", "t", "u")
# stratum_degree(g, e) is 0 once e has more than 2g - 2 parts, so a
# character check must reach the genus whose 2g - 2 covers every part count
# (grade 12, the largest square, needs genus 7)
CHECK_GENERA = range(1, 8)


@dataclass(frozen=True)
class Task:
    label: str
    run: Callable[[], object]
    text: Callable[[object], str]
    check: Callable[[object], bool]


# ---------------------------------------------------------------------------
# references that share no code path with the call being checked


def stratum_degree(genus: int, e: tc.MultVec) -> int:
    """Closed form d_lambda = (2g-2)_(l) / prod_i e_i! of the stratum degree."""
    falling = 1
    for i in range(e.length):
        falling *= 2 * genus - 2 - i
    quotient, remainder = divmod(falling, e.factorial_product())
    if remainder:
        raise ArithmeticError(f"closed form is not integral for genus {genus}, e={e!r}")
    return quotient


def character(x: tc.CycleSum, genus: int, weights: dict[str, int]) -> int:
    """Ring homomorphism tau[delta; e] -> d_lambda(e) * prod_p w_p^delta_p.

    Divisors add under multiplication and the stratum degrees multiply
    along the structure constants, so character(x*y) = character(x) *
    character(y) for every genus and every choice of point weights.
    """
    total = 0
    for basis, coeff in x.terms():
        value = coeff * stratum_degree(genus, basis.e)
        for name, k in basis.delta.items():
            value *= weights[name] ** k
        total += value
    return total


def own_partitions(n: int, top: int | None = None):
    """Partitions of n in descending lexicographic order, built independently."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, top or n), 0, -1):
        for rest in own_partitions(n - first, first):
            yield (first,) + rest


def multinomial(parts) -> int:
    out = math.factorial(sum(parts))
    for p in parts:
        out //= math.factorial(p)
    return out


def own_conjugate(lam: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sum(1 for p in lam if p > k) for k in range(lam[0] if lam else 0))


def partition_fold(lam) -> tc.CycleSum:
    """prod_j (-tau[0; lam_j^1]), the fold route of the partition pushforward."""
    out = tc.unit()
    for p in lam:
        out = out * tc.tau(None, tc.MultVec({p: 1}), -1)
    return out


def composition_fold(mu) -> tc.CycleSum:
    """prod_j (-1)^mu_j tau[0; 1^mu_j]."""
    out = tc.unit()
    for p in mu:
        out = out * tc.tau(None, tc.MultVec({1: p}), -1 if p % 2 else 1)
    return out


def _random_split(rng: random.Random, n: int, length: int) -> list[int]:
    parts = [1] * length
    for _ in range(n - length):
        parts[rng.randrange(length)] += 1
    return parts


def _random_divisor(rng: random.Random, profile) -> tc.Divisor:
    return tc.Divisor(dict(zip(rng.sample(POINTS, len(profile)), profile)))


def _weights(rng: random.Random) -> dict[str, int]:
    return {p: rng.choice((-3, -2, 2, 3, 5)) for p in POINTS}


# ---------------------------------------------------------------------------
# ring: series constructors, series products and inverses, cycle products


def _render(value) -> str:
    return value.render()


def _tame_task(rank, drops, n, genus) -> Task:
    chi = rank * (2 - 2 * genus) - drops.degree

    def check(series) -> bool:
        return tc.verify_series_index(series, tc.chi_sym_powers(chi, n), genus)

    return Task(
        f"tame r={rank} drops={drops.pretty()} N={n}",
        lambda: tc.s_tame(rank, drops, n),
        _render,
        check,
    )


def _skyscraper_task(mult, shifted, n) -> Task:
    def check(series) -> bool:
        other = tc.s_skyscraper(mult, not shifted, n)
        return series * other == tc.series_one(n)

    return Task(
        f"skyscraper {mult.pretty()} shifted={shifted} N={n}",
        lambda: tc.s_skyscraper(mult, shifted, n),
        _render,
        check,
    )


def _direct_sum_task(a, b, n) -> Task:
    def check(product) -> bool:
        return product == a.direct_sum(b).series(n)

    return Task(
        f"direct sum {a} + {b} N={n}",
        lambda: a.series(n) * b.series(n),
        _render,
        check,
    )


def _inverse_task(sheaf, n) -> Task:
    def check(inverse) -> bool:
        return sheaf.series(n) * inverse == tc.series_one(n)

    return Task(
        f"inverse {sheaf} N={n}",
        lambda: sheaf.series(n).inverse(),
        _render,
        check,
    )


def _square_task(grade, points, coeffs, draws) -> Task:
    x = tc.CycleSum(zip(basis_of_grade(grade, points), coeffs))

    def check(square) -> bool:
        return all(
            character(square, g, weights) == character(x, g, weights) ** 2
            for g in CHECK_GENERA for weights in draws
        )

    return Task(
        f"square grade={grade} points={','.join(points)}",
        lambda: x * x,
        _render,
        check,
    )


def ring_tasks(seed: int) -> list[Task]:
    rng = random.Random(seed)
    tasks = []
    for rank in (1, 2, 3):
        for n in (5, 6, 7):
            for profile in ((1,), (1, 1), (rank,), (rank, 1), (1, 1, 1)):
                tasks.append(_tame_task(rank, _random_divisor(rng, profile), n, rng.randrange(3)))
            tasks.append(
                _inverse_task(tc.SheafDescriptor(rank, _random_divisor(rng, (1,))), n - 1)
            )
    for n in (5, 6, 7):
        for shifted in (True, False):
            for profile in ((2, 1), (1, 1, 1), (3,)):
                tasks.append(_skyscraper_task(_random_divisor(rng, profile), shifted, n))
    for n in (5, 6, 7):
        for ranks in ((1, 1), (1, 2), (2, 1)):
            for same_point in (True, False):
                first, second = rng.sample(POINTS, 2)
                a = tc.SheafDescriptor(ranks[0], tc.Divisor({first: 1}))
                b = tc.SheafDescriptor(ranks[1], tc.Divisor({first if same_point else second: 1}))
                tasks.append(_direct_sum_task(a, b, n))
    for grade, n_points in ((4, 1), (4, 2), (5, 1), (5, 2), (6, 1)):
        for _ in range(2):
            points = sorted(rng.sample(POINTS, n_points))
            size = len(basis_of_grade(grade, points))
            coeffs = [rng.choice((-2, -1, 1, 2, 3)) for _ in range(size)]
            tasks.append(_square_task(grade, points, coeffs, [_weights(rng) for _ in range(3)]))
    return tasks


# ---------------------------------------------------------------------------
# counting: stratum degrees, count matrices, pushforwards, certificates


def _infer_task(genus, n) -> Task:
    def check(degrees) -> bool:
        expected = {lam: stratum_degree(genus, tc.MultVec.from_partition(lam)) for lam in own_partitions(n)}
        return degrees == expected

    return Task(
        f"infer_degrees g={genus} n={n}",
        lambda: tc.infer_degrees(genus, n),
        lambda d: repr(sorted(d.items())),
        check,
    )


def _matrix_task(n) -> Task:
    def check(result) -> bool:
        lams, matrix = result
        if [tuple(lam) for lam in lams] != list(own_partitions(n)):
            return False
        return all(row[-1] == multinomial(own_conjugate(lam)) for lam, row in zip(lams, matrix))

    return Task(f"index_matrix n={n}", lambda: tc.index_matrix(n), repr, check)


def _partition_task(lam) -> Task:
    return Task(
        f"pushforward_partition {lam}",
        lambda: tc.pushforward_partition(lam),
        _render,
        lambda s: s == partition_fold(lam),
    )


def _composition_task(mu) -> Task:
    n = sum(mu)
    corner = tc.TauBasis(tc.Divisor(), tc.MultVec({1: n}))

    def check(s) -> bool:
        if s.coeff(corner) != (-1) ** n * multinomial(mu):
            return False
        for g in CHECK_GENERA:
            expected = 1
            for p in mu:
                expected *= (-1) ** p * stratum_degree(g, tc.MultVec({1: p}))
            if character(s, g, {}) != expected:
                return False
        return True

    return Task(
        f"pushforward_composition {mu}",
        lambda: tc.pushforward_composition(mu),
        _render,
        check,
    )


def _certificate_task(genus, sheaf) -> Task:
    bound = tc.n_f(genus, sheaf)
    degrees = range(max(0, bound - 3), bound + 3)
    drops = sheaf.drops
    names = drops.support

    def check_one(n, cert) -> bool:
        # shortest length over all delta <= drops of a partition of n - deg(delta)
        # with parts at most the rank, and whether it fits in 2g-2 parts
        shortest = None
        for coeffs in itertools.product(*(range(drops.coeff(p) + 1) for p in names)):
            m = n - sum(coeffs)
            if m >= 0:
                length = -(-m // sheaf.rank)
                shortest = length if shortest is None else min(shortest, length)
        if shortest is None or shortest > 2 * genus - 2:
            return cert is None
        if cert is None:
            return False
        delta, e = cert
        if n == bound and n > 0 and (delta, e) != (drops, tc.MultVec({sheaf.rank: 2 * genus - 2})):
            return False
        return (
            delta.leq(drops)
            and delta.degree + e.weight == n
            and all(size <= sheaf.rank for size in e.support)
            and e.length == shortest
        )

    def text(result) -> str:
        return repr(
            [(n, None if c is None else (c[0].canonical_text(), c[1].items())) for n, c in result]
        )

    return Task(
        f"certificates g={genus} {sheaf}",
        lambda: [(n, tc.singularity_certificate(genus, sheaf, n)) for n in degrees],
        text,
        lambda result: all(check_one(n, c) for n, c in result),
    )


def counting_tasks(seed: int) -> list[Task]:
    rng = random.Random(seed)
    tasks = [_infer_task(genus, n) for genus in range(5) for n in range(1, 10)]
    tasks += [_infer_task(genus, 10) for genus in rng.sample(range(5), 2)]
    tasks += [_matrix_task(n) for n in range(1, 13)]
    for length in range(2, 8):
        for _ in range(3):
            split = _random_split(rng, length + rng.randrange(4), length)
            tasks.append(_partition_task(tuple(sorted(split, reverse=True))))
    for length in range(1, 7):
        for _ in range(3):
            mu = tuple(_random_split(rng, length + rng.randrange(3), length))
            tasks.append(_composition_task(mu))
    for genus in range(5):
        for rank in (1, 2, 3):
            for profile in ((rank,), (1, 1)):
                sheaf = tc.SheafDescriptor(rank, _random_divisor(rng, profile))
                tasks.append(_certificate_task(genus, sheaf))
    return tasks


# ---------------------------------------------------------------------------
# cli: cold processes over every README subcommand and format


@dataclass(frozen=True)
class Invocation:
    argv: tuple[str, ...]
    check: Callable[[str], bool]


def _sum_obj(s: tc.CycleSum) -> list[dict]:
    return [
        {
            "coeff": c,
            "delta": [[name, k] for name, k in b.delta.items()],
            "e": [[size, k] for size, k in b.e.items()],
        }
        for b, c in s.terms()
    ]


def _algebra_check(fmt: str, reference: Callable[[], object], payload: Callable[[object], dict]):
    """Compare CLI output with a reference cycle sum or series in any format."""

    def check(out: str) -> bool:
        ref = reference()
        if fmt == "text":
            return out == ref.render() + "\n"
        if fmt == "latex":
            return out == ref.latex() + "\n"
        return json.loads(out) == {"schema": 1, **payload(ref)}

    return check


def _sing_args(drops: tc.Divisor) -> list[str]:
    out = []
    for name, k in drops.items():
        out += ["--sing", f"{name}:{k}"]
    return out


def _product_inv(rng, fmt) -> Invocation:
    w1 = rng.randint(1, 4)
    w2 = rng.randint(1, 7 - w1)
    e1 = tc.MultVec.from_partition(sorted(_random_split(rng, w1, rng.randint(1, w1)), reverse=True))
    e2 = tc.MultVec.from_partition(sorted(_random_split(rng, w2, rng.randint(1, w2)), reverse=True))
    d1 = _random_divisor(rng, (rng.randint(0, 2),))
    d2 = _random_divisor(rng, (rng.randint(0, 1),))

    def reference():
        delta = d1 + d2
        constants = tc.structure_constants_oracle(e1, e2)
        return tc.CycleSum({tc.TauBasis(delta, f): n for f, n in constants.items()})

    argv = ["product", "--delta", d1.pretty(), "--e", e1.render(), "--delta", d2.pretty(),
            "--e", e2.render(), "--format", fmt]
    return Invocation(
        tuple(argv),
        _algebra_check(fmt, reference, lambda r: {"factors": 2, "result": _sum_obj(r)}),
    )


def _series_inv(rng, fmt) -> Invocation:
    rank = rng.randint(1, 3)
    drops = _random_divisor(rng, [rng.randint(1, rank) for _ in range(rng.randint(0, 2))])
    n = rng.randint(3, 6)

    def reference():
        series = tc.s_tame(rank, drops, n)
        for genus in (0, 2):
            chi = rank * (2 - 2 * genus) - drops.degree
            tc.verify_series_index(series, tc.chi_sym_powers(chi, n), genus)
        return series

    def payload(series) -> dict:
        return {
            "rank": rank,
            "drops": [[name, k] for name, k in drops.items()],
            "max_degree": n,
            "degrees": [
                {"degree": k, "terms": _sum_obj(series.coefficient(k))} for k in range(n + 1)
            ],
        }

    argv = ["series", "--rank", str(rank), *_sing_args(drops), "--max-degree", str(n), "--format", fmt]
    return Invocation(tuple(argv), _algebra_check(fmt, reference, payload))


def _pushforward_inv(rng, fmt, partition: bool) -> Invocation:
    length = rng.randint(1, 4)
    parts = _random_split(rng, length + rng.randint(0, 3), length)
    if partition:
        parts = sorted(parts, reverse=True)
        char = rng.choice((0, 5, 7))
        argv = ["pushforward", "--partition", ",".join(map(str, parts))]
        argv += ["--char", str(char)] if char else []
        reference = lambda: partition_fold(parts)  # noqa: E731
    else:
        argv = ["pushforward", "--composition", ",".join(map(str, parts))]
        reference = lambda: composition_fold(parts)  # noqa: E731
    argv += ["--format", fmt]
    return Invocation(tuple(argv), _algebra_check(fmt, reference, lambda r: {"result": _sum_obj(r)}))


def _mtable_inv(rng, fmt, n) -> Invocation:
    lams = list(own_partitions(n))

    def check(out: str) -> bool:
        if fmt == "json":
            payload = json.loads(out)
            if payload["partitions"] != [list(lam) for lam in lams] or payload["n"] != n:
                return False
            matrix = payload["matrix"]
        else:
            lines = out.splitlines()
            if fmt == "latex":
                if lines[0] != r"\begin{pmatrix}" or lines[-1] != r"\end{pmatrix}":
                    return False
                lines = [line.removesuffix(r" \\").replace("&", " ") for line in lines[1:-1]]
            matrix = [[int(v) for v in line.split()] for line in lines]
        size = len(lams)
        return (
            len(matrix) == size
            and all(len(row) == size for row in matrix)
            and all(matrix[i][j] == (i == j) for i in range(size) for j in range(i + 1))
            and all(row[-1] == multinomial(own_conjugate(lam)) for lam, row in zip(lams, matrix))
        )

    return Invocation(("mtable", "--n", str(n), "--format", fmt), check)


def _strata_inv(rng, fmt) -> Invocation:
    grade = rng.randint(1, 4)
    points = sorted(rng.sample(POINTS, rng.randint(0, 2)))
    n_points = len(points)
    expected = sum(
        (math.comb(d + n_points - 1, n_points - 1) if n_points else d == 0)
        * sum(1 for _ in own_partitions(grade - d))
        for d in range(grade + 1)
    )

    def check(out: str) -> bool:
        if fmt == "json":
            payload = json.loads(out)
            strata = payload["strata"]
            return (
                payload["grade"] == grade
                and len(strata) == expected
                and len({s["label"] for s in strata}) == expected
                and all(
                    sum(k for _, k in s["delta"]) + sum(i * k for i, k in s["e"]) == grade
                    for s in strata
                )
            )
        lines = out.splitlines()
        return len(lines) == expected == len(set(lines))

    return Invocation(("strata", "--grade", str(grade), "--points", ",".join(points), "--format", fmt), check)


def _random_sheaf(rng, genus_min: int) -> tuple[int, int, tc.Divisor]:
    genus = rng.randint(genus_min, 3)
    rank = rng.randint(1, 3)
    drops = _random_divisor(rng, [rng.randint(1, rank) for _ in range(rng.randint(0, 2))])
    return genus, rank, drops


def _random_omega(rng, genus) -> tc.Divisor:
    coeffs: dict[str, int] = {}
    for _ in range(2 * genus - 2):
        name = rng.choice(POINTS)
        coeffs[name] = coeffs.get(name, 0) + 1
    return tc.Divisor(coeffs)


def _report_lines(fields: dict, fmt: str, out: str) -> bool:
    if fmt == "json":
        return json.loads(out) == {"schema": 1, **fields["json"]}
    return out == "".join(f"{k}: {v}\n" for k, v in fields["text"])


def _acyclicity_inv(rng, fmt) -> Invocation:
    genus, rank, drops = _random_sheaf(rng, 0)
    bound = rank * (2 * genus - 2) + drops.degree
    n = max(1, bound + rng.randint(-2, 2))
    omega = _random_omega(rng, genus) if genus >= 1 and rng.random() < 0.5 else None
    verdict = "acyclic_everywhere" if n > bound else "acyclic_off_KF" if n == bound else "not_covered"
    label = f"{rank}·K_X + [{drops.pretty()}]"
    critical = None
    if omega is not None:
        critical = tc.Divisor({p: drops.coeff(p) + rank * omega.coeff(p) for p in POINTS})
    text = [("verdict", verdict), ("n", n), ("n_f", bound), ("k_f_label", label)]
    if critical is not None:
        text.append(("critical_divisor", critical.pretty()))
    fields = {
        "text": text,
        "json": {
            "genus": genus, "n": n, "n_f": bound, "verdict": verdict, "k_f_label": label,
            "critical_divisor": None if critical is None else [list(kv) for kv in critical.items()],
        },
    }
    argv = ["acyclicity", "--genus", str(genus), "--rank", str(rank), *_sing_args(drops), "--n", str(n)]
    if omega is not None:
        argv += ["--omega", omega.pretty()]
    argv += ["--format", fmt]
    return Invocation(tuple(argv), lambda out: _report_lines(fields, fmt, out))


def _epsilon_inv(rng, fmt) -> Invocation:
    while True:
        genus, rank, drops = _random_sheaf(rng, 1)
        bound = rank * (2 * genus - 2) + drops.degree
        if bound > 0:
            break
    omega = _random_omega(rng, genus)
    critical = tc.Divisor({p: drops.coeff(p) + rank * omega.coeff(p) for p in POINTS})
    sigma = sorted(set(drops.support) | set(omega.support))
    label = f"{rank}·K_X + [{drops.pretty()}]"
    sign = -1 if bound % 2 else 1
    fields = {
        "text": [("n", bound), ("sign", sign), ("critical_divisor", critical.pretty()),
                 ("k_f_label", label), ("sigma", ", ".join(sigma))],
        "json": {"n": bound, "sign": sign, "critical_divisor": [list(kv) for kv in critical.items()],
                 "k_f_label": label, "sigma": sigma},
    }
    argv = ["epsilon-report", "--genus", str(genus), "--rank", str(rank), *_sing_args(drops),
            "--omega", omega.pretty(), "--format", fmt]
    return Invocation(tuple(argv), lambda out: _report_lines(fields, fmt, out))


def _index_degrees_inv(rng, fmt) -> Invocation:
    genus = rng.randint(0, 3)
    n = rng.randint(1, 7)
    rows = [(lam, stratum_degree(genus, tc.MultVec.from_partition(lam))) for lam in own_partitions(n)]
    fields = {
        "text": [("+".join(map(str, lam)), d) for lam, d in rows],
        "json": {"genus": genus, "n": n, "degrees": [{"partition": list(lam), "d": d} for lam, d in rows]},
    }
    argv = ("index-degrees", "--genus", str(genus), "--n", str(n), "--format", fmt)
    return Invocation(argv, lambda out: _report_lines(fields, fmt, out))


def _selftest_check(out: str) -> bool:
    lines = out.splitlines()
    return len(lines) == 10 and all(line.startswith(f"ok {i:02d} ") for i, line in enumerate(lines, 1))


def cli_invocations(seed: int) -> list[Invocation]:
    rng = random.Random(seed)
    out = []
    for fmt in ("text", "json", "latex"):
        out += [_product_inv(rng, fmt) for _ in range(4)]
        out += [_series_inv(rng, fmt) for _ in range(4)]
        out += [_pushforward_inv(rng, fmt, partition) for partition in (True, False) for _ in range(3)]
        out += [_mtable_inv(rng, fmt, n) for n in rng.sample(range(2, 9), 4)]
        out += [_strata_inv(rng, fmt) for _ in range(4)]
    for fmt in ("text", "json"):
        out += [_acyclicity_inv(rng, fmt) for _ in range(6)]
        out += [_epsilon_inv(rng, fmt) for _ in range(5)]
        out += [_index_degrees_inv(rng, fmt) for _ in range(6)]
    out += [Invocation(("selftest",), _selftest_check) for _ in range(2)]
    rng.shuffle(out)
    return out


def tasks_for(workload: str, seed: int) -> list[Task]:
    return {"ring": ring_tasks, "counting": counting_tasks}[workload](seed)
