"""Acceptance gate.

One test per criterion.  Each prints a single PASS or FAIL line with the
measured runtime against the pinned bound, bypassing output capture so
the line is visible in a plain pytest run.  All comparisons are exact
integer equalities; no tolerances apply anywhere.
"""

import argparse
import itertools
import json
import subprocess
import sys
import time

from taucycles.cli import build_parser
from taucycles.combinat import (
    MultVec,
    compositions,
    compositions_fixed_length,
    count_m,
    gen_binomial,
    partitions,
)
from taucycles.cycle_algebra import (
    CycleSum,
    _structure_constants_items,
    basis_of_grade,
    structure_constants,
    tau,
    unit,
)
from taucycles.divisors import Divisor
from taucycles.errors import PreconditionError
from taucycles.geometry import acyclicity, critical_point, n_f, singularity_certificate
from taucycles.index import index_check, index_matrix, infer_degrees
from taucycles.selftest import structure_constants_oracle
from taucycles.series import CycleSeries, series_one
from taucycles.sheaves import (
    SheafDescriptor,
    _constant_rank_verified,
    pushforward_composition,
    s_constant_rank,
    s_skyscraper,
    s_tame,
)

import math


def _report(capfd, idx, label, ok, elapsed, bound=None):
    timing = f"{elapsed:.2f}s" + (f" < {bound}s" if bound is not None else "")
    line = f"{'PASS' if ok else 'FAIL'} criterion {idx:02d}: {label} [{timing}]"
    with capfd.disabled():
        print(line, flush=True)
    assert ok, line


def _descriptors(max_rank, point_pool, coeff_cap=None, degree_cap=None):
    out = []
    for rank in range(1, max_rank + 1):
        cap = min(rank, coeff_cap) if coeff_cap else rank
        for k in range(len(point_pool) + 1):
            for support in itertools.combinations(point_pool, k):
                for coeffs in itertools.product(range(1, cap + 1), repeat=k):
                    drops = Divisor(dict(zip(support, coeffs)))
                    if degree_cap is not None and drops.degree > degree_cap:
                        continue
                    out.append(SheafDescriptor(rank, drops))
    return out


def test_criterion_01_structure_constants_vs_enumeration(capfd):
    bound = 10.0
    _structure_constants_items.cache_clear()
    start = time.perf_counter()
    vecs = [MultVec.from_partition(lam) for w in range(11) for lam in partitions(w)]
    pairs = 0
    ok = True
    for a in vecs:
        for b in vecs:
            if a.weight + b.weight > 10:
                continue
            pairs += 1
            if structure_constants(a, b) != structure_constants_oracle(a, b):
                ok = False
    elapsed = time.perf_counter() - start
    ok = ok and pairs == 1215 and elapsed < bound
    _report(capfd, 1, f"structure constants match enumeration on {pairs} pairs", ok, elapsed, bound)


def test_criterion_02_commutative_and_associative(capfd):
    bound = 20.0
    start = time.perf_counter()
    elems = [
        (k, tau(b.delta, b.e))
        for k in range(7)
        for b in basis_of_grade(k, ["s", "t"])
    ]
    pairs = triples = 0
    ok = True
    for g1, x in elems:
        for g2, y in elems:
            if g1 + g2 > 6:
                continue
            pairs += 1
            xy = x * y
            if xy != y * x:
                ok = False
            for g3, z in elems:
                if g1 + g2 + g3 > 6:
                    continue
                triples += 1
                if xy * z != x * (y * z):
                    ok = False
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < bound
    _report(
        capfd,
        2,
        f"ring is commutative ({pairs} pairs) and associative ({triples} triples)",
        ok,
        elapsed,
        bound,
    )


def test_criterion_03_composition_pushforward_routes(capfd):
    bound = 5.0
    start = time.perf_counter()
    total = 0
    ok = True
    for n in range(7):
        for mu in compositions(n):
            total += 1
            got = pushforward_composition(mu)  # internally cross-asserted
            fold = unit()
            for p in mu:
                fold = fold * tau(None, MultVec({1: p}), (-1) ** p)
            if got != fold:
                ok = False
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < bound
    _report(capfd, 3, f"pushforward routes agree on {total} compositions", ok, elapsed, bound)


def test_criterion_04_constant_rank_power_identity(capfd):
    bound = 5.0
    _constant_rank_verified.cache_clear()
    start = time.perf_counter()
    ok = True
    cases = 0
    for max_degree in (3, 6):
        base = s_constant_rank(1, max_degree)
        power = series_one(max_degree)
        for rank in range(1, 5):
            power = power * base
            cases += 1
            series = s_constant_rank(rank, max_degree)
            if series != power:
                ok = False
            for n in range(max_degree + 1):
                expected = CycleSum.zero()
                for lam in partitions(n):
                    coeff = (-1) ** n * math.prod(math.comb(rank, p) for p in lam)
                    expected = expected + tau(None, MultVec.from_partition(lam), coeff)
                if series.coefficient(n) != expected:
                    ok = False
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < bound
    _report(
        capfd,
        4,
        f"constant-rank series equal powers and match coefficients in {cases} cases",
        ok,
        elapsed,
        bound,
    )


def _embed_point(name, max_degree):
    coeffs = [CycleSum.zero() for _ in range(max_degree + 1)]
    coeffs[1] = tau(Divisor.point(name))
    return CycleSeries(coeffs)


def test_criterion_05_tame_product_vs_closed(capfd):
    bound = 10.0
    start = time.perf_counter()
    descs = _descriptors(3, ["s", "t", "u"])
    ok = len(descs) == 99
    for d in descs:
        series = s_tame(d.rank, d.drops, 6)  # cross-asserted on every call
        # rebuild the product route here as an extra, test-owned pass
        product = s_constant_rank(d.rank, 6)
        for name, a in d.drops.items():
            point = series_one(6) - _embed_point(name, 6)
            product = product * (point**a)
        if series != product:
            ok = False
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < bound
    _report(capfd, 5, f"tame series verified on {len(descs)} descriptors", ok, elapsed, bound)


def test_criterion_06_direct_sum_and_inverse(capfd):
    bound = 5.0
    start = time.perf_counter()
    descs = _descriptors(2, ["s", "t"])
    ok = len(descs) == 13
    checks = 0
    for d1 in descs:
        for d2 in descs:
            lhs = s_tame(d1.rank + d2.rank, d1.drops + d2.drops, 5)
            if lhs != s_tame(d1.rank, d1.drops, 5) * s_tame(d2.rank, d2.drops, 5):
                ok = False
            checks += 1
    for d in descs:
        s = s_tame(d.rank, d.drops, 5)
        if s * s.inverse() != series_one(5):
            ok = False
        checks += 1
    for mults in _multiplicity_divisors():
        if s_skyscraper(mults, True, 5) * s_skyscraper(mults, False, 5) != series_one(5):
            ok = False
        checks += 1
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < bound
    _report(capfd, 6, f"direct sums multiply and inverses cancel ({checks} checks)", ok, elapsed, bound)


def _multiplicity_divisors():
    out = []
    for k in range(3):
        for support in itertools.combinations(["s", "t"], k):
            for coeffs in itertools.product((1, 2), repeat=k):
                out.append(Divisor(dict(zip(support, coeffs))))
    return out


def test_criterion_07_triangularity_and_row_sums(capfd):
    bound = 5.0
    start = time.perf_counter()
    ok = True
    for n in range(8):
        lams, matrix = index_matrix(n)  # raises if not unit triangular
        for i in range(len(lams)):
            ok = ok and matrix[i][i] == 1 and all(matrix[i][j] == 0 for j in range(i))
    identities = 0
    for n in range(7):
        for lam in partitions(n):
            for r in range(1, 6):
                total = sum(count_m(lam, mu) for mu in compositions_fixed_length(n, r))
                if total != math.prod(math.comb(r, p) for p in lam):
                    ok = False
                identities += 1
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < bound
    _report(
        capfd,
        7,
        f"count matrices unit triangular through n=7, {identities} row-sum identities",
        ok,
        elapsed,
        bound,
    )


def test_criterion_08_index_consistency(capfd):
    bound = 10.0
    start = time.perf_counter()
    ok = True
    for genus in range(4):
        for n in range(7):
            degrees = infer_degrees(genus, n)  # checked against the closed form inside
            if degrees[(1,) * n] != gen_binomial(2 * genus - 2, n):
                ok = False
            if n == 0 and degrees[()] != 1:
                ok = False
            if genus == 0 and (-1) ** n * degrees[(1,) * n] != n + 1:
                ok = False
    checks = 0
    for genus in range(3):
        for d in _descriptors(2, ["s", "t"]):
            if not index_check(genus, d, 5):
                ok = False
            checks += 1
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < bound
    _report(capfd, 8, f"index anchors hold and {checks} sheaf checks close", ok, elapsed, bound)


def test_criterion_09_acyclicity_grid(capfd):
    bound = 2.0
    start = time.perf_counter()
    ok = True
    cells = 0
    for genus in range(4):
        for rank in range(1, 4):
            for drops in _drop_divisors(rank, 4):
                sheaf = SheafDescriptor(rank, drops)
                b = n_f(genus, sheaf)
                if genus >= 1:
                    omega = Divisor.point("w", 2 * genus - 2) if genus > 1 else Divisor()
                    if critical_point(genus, sheaf, omega).degree != b:
                        ok = False
                if b >= 2:
                    if acyclicity(genus, sheaf, b - 1).verdict != "not_covered":
                        ok = False
                for n in range(max(1, b), b + 4):
                    cells += 1
                    rep = acyclicity(genus, sheaf, n)
                    if (rep.verdict == "acyclic_everywhere") != (n > b):
                        ok = False
                    if n == b and rep.verdict != "acyclic_off_KF":
                        ok = False
                    cert = singularity_certificate(genus, sheaf, n)
                    expect = n == b and n > 0 and 2 * genus - 2 >= 0
                    if (cert is not None) != expect:
                        ok = False
                    if cert is not None and cert != (
                        drops,
                        MultVec({rank: 2 * genus - 2}),
                    ):
                        ok = False
    try:
        acyclicity(1, SheafDescriptor(1, Divisor()), 0)
        ok = False
    except PreconditionError:
        pass
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < bound
    _report(capfd, 9, f"verdicts and certificates correct on {cells} grid cells", ok, elapsed, bound)


def _drop_divisors(rank, degree_cap):
    out = []
    for k in range(3):
        for support in itertools.combinations(["s", "t"], k):
            for coeffs in itertools.product(range(1, rank + 1), repeat=k):
                d = Divisor(dict(zip(support, coeffs)))
                if d.degree <= degree_cap:
                    out.append(d)
    return out


CLI_CASES = [
    ["product", "--e", "1^1", "--e", "1^1"],
    ["product", "--e", "1^1", "--e", "1^1", "--format", "json"],
    ["product", "--delta", "s", "--e", "2^1", "--delta", "t", "--format", "latex"],
    ["series", "--rank", "1", "--sing", "s:1", "--max-degree", "1", "--format", "text"],
    ["series", "--rank", "2", "--sing", "s:1", "--sing", "t:2", "--max-degree", "4"],
    ["series", "--rank", "2", "--sing", "s:2", "--max-degree", "3", "--format", "json"],
    ["series", "--rank", "1", "--max-degree", "2", "--format", "latex"],
    ["mtable", "--n", "3"],
    ["mtable", "--n", "5", "--format", "json"],
    ["mtable", "--n", "4", "--format", "latex"],
    ["strata", "--grade", "3", "--points", "s,t"],
    ["strata", "--grade", "2", "--points", "s", "--format", "json"],
    ["strata", "--grade", "2", "--points", "s", "--format", "latex"],
    ["pushforward", "--composition", "3,1"],
    ["pushforward", "--partition", "2,2,1", "--char", "3", "--format", "json"],
    ["pushforward", "--composition", "2,1", "--format", "latex"],
    ["acyclicity", "--genus", "2", "--rank", "2", "--sing", "s:1", "--n", "9", "--omega", "2*t"],
    ["acyclicity", "--genus", "1", "--rank", "1", "--sing", "s:1", "--n", "1", "--format", "json"],
    ["epsilon-report", "--genus", "2", "--rank", "1", "--sing", "s:1", "--omega", "2*t"],
    ["epsilon-report", "--genus", "2", "--rank", "2", "--sing", "s:2", "--omega", "t + u", "--format", "json"],
    ["index-degrees", "--genus", "2", "--n", "4"],
    ["index-degrees", "--genus", "0", "--n", "3", "--format", "json"],
    ["selftest"],
]

FROZEN = {
    ("product", "--e", "1^1", "--e", "1^1"): b"2*tau[0; 1^2] + tau[0; 2^1]\n",
    (
        "series", "--rank", "1", "--sing", "s:1", "--max-degree", "1", "--format", "text",
    ): b"1\n-(tau[0; 1^1] + tau[s;])\n",
    ("mtable", "--n", "3"): b"1 3 6\n0 1 3\n0 0 1\n",
}


def _command_and_format(argv):
    return argv[0], argv[argv.index("--format") + 1] if "--format" in argv else "text"


def test_criterion_10_covers_every_command_and_format():
    # the (subcommand, format) pairs the parser offers; a subcommand without --format prints text
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    offered = set()
    for name, sub in commands.choices.items():
        formats = [a.choices for a in sub._actions if a.dest == "format"]
        offered |= {(name, fmt) for fmt in (formats[0] if formats else ["text"])}
    assert offered - {_command_and_format(case) for case in CLI_CASES} == set()


def test_criterion_10_cli_byte_determinism(capfd):
    start = time.perf_counter()
    ok = True
    for case in CLI_CASES:
        runs = [
            subprocess.run(
                [sys.executable, "-m", "taucycles", *case],
                capture_output=True,
                timeout=120,
            )
            for _ in range(2)
        ]
        if runs[0].returncode != 0 or runs[1].returncode != 0:
            ok = False
        if runs[0].stdout != runs[1].stdout:
            ok = False
        frozen = FROZEN.get(tuple(case))
        if frozen is not None and runs[0].stdout != frozen:
            ok = False
        if "--format" in case and case[case.index("--format") + 1] == "json":
            json.loads(runs[0].stdout)
    elapsed = time.perf_counter() - start
    _report(
        capfd,
        10,
        f"{len(CLI_CASES)} invocations byte-identical across reruns",
        ok,
        elapsed,
    )
