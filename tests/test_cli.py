import argparse
import hashlib
import json
import math
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import taucycles
from taucycles.cli import MAX_STRATA_LINES, _strata_lines, build_parser, main
from taucycles.errors import ConsistencyError


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestFrozenOutputs:
    def test_product_of_two_points(self, capsys):
        code, out, _ = run(capsys, "product", "--e", "1^1", "--e", "1^1")
        assert code == 0
        assert out == "2*tau[0; 1^2] + tau[0; 2^1]\n"

    def test_series_rank_one_single_drop(self, capsys):
        code, out, _ = run(
            capsys,
            "series",
            "--rank",
            "1",
            "--sing",
            "s:1",
            "--max-degree",
            "1",
            "--format",
            "text",
        )
        assert code == 0
        assert out == "1\n-(tau[0; 1^1] + tau[s;])\n"

    def test_mtable_three(self, capsys):
        code, out, _ = run(capsys, "mtable", "--n", "3")
        assert code == 0
        assert out == "1 3 6\n0 1 3\n0 0 1\n"


class TestProduct:
    def test_with_divisors(self, capsys):
        code, out, _ = run(
            capsys, "product", "--delta", "s", "--e", "1^1", "--delta", "t"
        )
        assert code == 0
        assert out == "tau[s + t; 1^1]\n"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "product", "--e", "1^1", "--e", "1^1", "--format", "json")
        payload = json.loads(out)
        assert payload["schema"] == 1
        assert payload["factors"] == 2
        assert payload["result"] == [
            {"coeff": 2, "delta": [], "e": [[1, 2]]},
            {"coeff": 1, "delta": [], "e": [[2, 1]]},
        ]

    def test_latex(self, capsys):
        code, out, _ = run(capsys, "product", "--e", "1^1", "--e", "1^1", "--format", "latex")
        assert code == 0
        assert out == "2\\,\\tau^*_{2=1+1} + \\tau^*_{2}\n"

    def test_no_factors(self, capsys):
        code, _, err = run(capsys, "product")
        assert code == 2
        assert "factor" in err

    def test_bad_multiplicities(self, capsys):
        code, _, err = run(capsys, "product", "--e", "oops")
        assert code == 2
        assert "error:" in err


class TestSeries:
    def test_json_shape(self, capsys):
        code, out, _ = run(
            capsys, "series", "--rank", "2", "--sing", "s:1", "--max-degree", "2",
            "--format", "json",
        )
        payload = json.loads(out)
        assert payload["schema"] == 1
        assert payload["rank"] == 2
        assert payload["drops"] == [["s", 1]]
        assert payload["max_degree"] == 2
        assert [d["degree"] for d in payload["degrees"]] == [0, 1, 2]
        assert payload["degrees"][0]["terms"] == [{"coeff": 1, "delta": [], "e": []}]

    def test_env_default_degree(self, capsys, monkeypatch):
        monkeypatch.setenv("TAUCYCLES_MAX_DEGREE", "2")
        code, out, _ = run(capsys, "series", "--rank", "1")
        assert code == 0
        assert len(out.splitlines()) == 3

    def test_builtin_default_degree(self, capsys, monkeypatch):
        monkeypatch.delenv("TAUCYCLES_MAX_DEGREE", raising=False)
        code, out, _ = run(capsys, "series", "--rank", "1")
        assert code == 0
        assert len(out.splitlines()) == 9

    def test_bad_env_value(self, capsys, monkeypatch):
        monkeypatch.setenv("TAUCYCLES_MAX_DEGREE", "lots")
        code, _, err = run(capsys, "series", "--rank", "1")
        assert code == 2
        assert "TAUCYCLES_MAX_DEGREE" in err

    def test_drop_above_rank_is_exit_3(self, capsys):
        code, _, err = run(capsys, "series", "--rank", "1", "--sing", "s:2")
        assert code == 3
        assert "exceeds the rank" in err

    def test_bad_sing_syntax(self, capsys):
        code, _, err = run(capsys, "series", "--rank", "1", "--sing", "s=2")
        assert code == 2
        assert "point:drop" in err

    def test_duplicate_sing_point(self, capsys):
        code, _, _ = run(capsys, "series", "--rank", "2", "--sing", "s:1", "--sing", "s:1")
        assert code == 2

    def test_latex(self, capsys):
        code, out, _ = run(
            capsys, "series", "--rank", "1", "--max-degree", "1", "--format", "latex"
        )
        assert code == 0
        assert out.splitlines()[0] == r"\begin{align*}"


class TestStrictDecimals:
    """Numbers in the input notation are an optional ``-`` and ASCII digits, nothing else."""

    @pytest.mark.parametrize(
        "argv, env",
        [
            (["product", "--e", "1_0^1", "--delta", "1_0*s"], None),
            (["product", "--e", "1^1", "--delta", "1_0*s"], None),
            (["product", "--e", "\u0661^2"], None),
            (["product", "--e", "+2^1"], None),
            (["series", "--rank", "2", "--sing", "s:1_1"], None),
            (["series", "--rank", "2", "--sing", "s: 1"], None),
            (["pushforward", "--composition", "1_0,1"], None),
            (["pushforward", "--partition", "\uff12,1"], None),
            (["series", "--rank", "1"], "1_0"),
            (["series", "--rank", "1"], "\u0662"),
        ],
    )
    def test_non_decimal_numbers_are_exit_2(self, capsys, monkeypatch, argv, env):
        if env is None:
            monkeypatch.delenv("TAUCYCLES_MAX_DEGREE", raising=False)
        else:
            monkeypatch.setenv("TAUCYCLES_MAX_DEGREE", env)
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv, env, message",
        [
            (["product", "--e=-1^2"], None, "part size must be a positive integer, got -1"),
            (["product", "--delta=-1*s"], None, "divisors are effective, negative term '-1*s'"),
            (["series", "--rank", "2", "--sing", "s:-1"], None, "drop in 's:-1' must be at least 1"),
            (
                ["pushforward", "--composition", "2,-1"],
                None,
                "composition entries must be positive integers, got -1",
            ),
            (["series", "--rank", "1"], "-3", "TAUCYCLES_MAX_DEGREE must be nonnegative, got -3"),
            (["mtable", "--n", "-1"], None, "n must be a nonnegative integer, got -1"),
            (["series", "--rank", "1", "--max-degree", "-1"], None,
             "max_degree must be a nonnegative integer, got -1"),
            (["acyclicity", "--genus", "1", "--rank", "1", "--n", "0"], None,
             "the command line takes n >= 1, got 0"),
        ],
    )
    def test_negative_numbers_reach_their_range_checks(self, capsys, monkeypatch, argv, env, message):
        if env is not None:
            monkeypatch.setenv("TAUCYCLES_MAX_DEGREE", env)
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err == f"error: {message}\n"


    @pytest.mark.parametrize(
        "argv",
        [
            ["series", "--rank", "1_0", "--max-degree", "\u0661"],
            ["mtable", "--n", "\u0663"],
            ["pushforward", "--partition", "2", "--char", "+3"],
            ["index-degrees", "--genus", "0", "--n", "0_3"],
        ],
    )
    def test_numeric_options_are_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert exc.value.code == 2
        assert out == ""
        assert err.startswith(f"usage: taucycles {argv[0]} ")
        assert "invalid int value" in err.splitlines()[-1]

    def test_every_numeric_option_is_strict(self):
        parser = build_parser()
        (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        typed = [a for sub in commands.choices.values() for a in sub._actions if a.type is not None]
        assert len(typed) == 12
        for action in typed:
            assert action.type("-12") == -12
            for text in ("1_0", "+3", "\u0663", " 3"):
                with pytest.raises(ValueError):
                    action.type(text)


class TestMtable:
    def test_json(self, capsys):
        code, out, _ = run(capsys, "mtable", "--n", "3", "--format", "json")
        payload = json.loads(out)
        assert payload["partitions"] == [[3], [2, 1], [1, 1, 1]]
        assert payload["matrix"] == [[1, 3, 6], [0, 1, 3], [0, 0, 1]]

    def test_latex(self, capsys):
        code, out, _ = run(capsys, "mtable", "--n", "2", "--format", "latex")
        assert out == "\\begin{pmatrix}\n1 & 2 \\\\\n0 & 1 \\\\\n\\end{pmatrix}\n"

    def test_negative_n(self, capsys):
        code, _, _ = run(capsys, "mtable", "--n", "-1")
        assert code == 2


class TestStrata:
    def test_listing(self, capsys):
        code, out, _ = run(capsys, "strata", "--grade", "2", "--points", "s")
        assert code == 0
        assert out.splitlines() == [
            "tau[0; 1^2]",
            "tau[0; 2^1]",
            "tau[s; 1^1]",
            "tau[2*s;]",
        ]

    def test_json_counts(self, capsys):
        code, out, _ = run(
            capsys, "strata", "--grade", "3", "--points", "s,t", "--format", "json"
        )
        payload = json.loads(out)
        assert payload["grade"] == 3
        assert payload["points"] == ["s", "t"]
        assert len(payload["strata"]) == 14

    def test_no_points(self, capsys):
        code, out, _ = run(capsys, "strata", "--grade", "2")
        assert out.splitlines() == ["tau[0; 1^2]", "tau[0; 2^1]"]

    @pytest.mark.parametrize("points", ["", "s", "s,t", "a,b,c"])
    def test_line_count(self, capsys, points):
        # sum over divisor degrees d of the divisors of degree d on P points,
        # C(d + P - 1, P - 1), times the partitions of k - d
        p = [1] + [0] * 12  # partition counts, one part size at a time
        for size in range(1, 13):
            for n in range(size, 13):
                p[n] += p[n - size]
        npoints = len(points.split(",")) if points else 0
        for k in range(13):
            expected = sum(
                (math.comb(d + npoints - 1, npoints - 1) if npoints else int(d == 0)) * p[k - d]
                for d in range(k + 1)
            )
            code, out, _ = run(capsys, "strata", "--grade", str(k), "--points", points)
            assert (code, len(out.splitlines())) == (0, expected), (k, points)
            assert _strata_lines(k, npoints) == expected

    def test_line_count_up_to_the_limit(self):
        # the same sum, from a partition table, on 0 to 8 points; past the limit
        # only the refusal matters
        p = [1] + [0] * 80
        for size in range(1, 81):
            for n in range(size, 81):
                p[n] += p[n - size]
        for npoints in range(9):
            for k in range(81):
                expected = sum(
                    (math.comb(d + npoints - 1, d) if npoints else int(d == 0)) * p[k - d]
                    for d in range(k + 1)
                )
                got = _strata_lines(k, npoints)
                if expected <= MAX_STRATA_LINES:
                    assert got == expected, (k, npoints)
                else:
                    assert got > MAX_STRATA_LINES, (k, npoints)
        assert _strata_lines(48, 0) == 147_273  # the README's largest example

    def test_line_limit_is_inclusive(self, capsys, monkeypatch):
        import taucycles.cli as cli

        monkeypatch.setattr(cli, "MAX_STRATA_LINES", 14)
        assert run(capsys, "strata", "--grade", "3", "--points", "s,t,s")[0] == 0
        code, out, err = run(capsys, "strata", "--grade", "4", "--points", "s,t,s")
        assert (code, out) == (3, "")
        assert err == (
            "error: --grade 4 on 2 points gives more than 14 strata, the limit for this command\n"
        )
        # a bad point name is a bad argument, whatever the size
        assert run(capsys, "strata", "--grade", "4", "--points", "s,2t")[0] == 2


class TestPushforward:
    def test_composition(self, capsys):
        code, out, _ = run(capsys, "pushforward", "--composition", "2,1")
        assert code == 0
        assert out == "-(tau[0; 1^1 2^1] + 3*tau[0; 1^3])\n"

    def test_partition(self, capsys):
        code, out, _ = run(capsys, "pushforward", "--partition", "2,1")
        assert out == "tau[0; 1^1 2^1] + tau[0; 3^1]\n"

    def test_char_blocks_divisible_part(self, capsys):
        code, _, err = run(capsys, "pushforward", "--partition", "2,1", "--char", "2")
        assert code == 3
        assert "characteristic 2" in err

    def test_char_with_composition_rejected(self, capsys):
        code, _, _ = run(capsys, "pushforward", "--composition", "2", "--char", "3")
        assert code == 2

    def test_both_routes_rejected(self, capsys):
        code, _, _ = run(capsys, "pushforward", "--composition", "1", "--partition", "1")
        assert code == 2

    def test_neither_route_rejected(self, capsys):
        code, _, _ = run(capsys, "pushforward")
        assert code == 2

    def test_unsorted_partition_rejected(self, capsys):
        code, _, _ = run(capsys, "pushforward", "--partition", "1,2")
        assert code == 2


class TestAcyclicity:
    def test_text(self, capsys):
        code, out, _ = run(
            capsys, "acyclicity", "--genus", "1", "--rank", "1", "--sing", "s:1", "--n", "1"
        )
        assert code == 0
        assert out.splitlines() == [
            "verdict: acyclic_off_KF",
            "n: 1",
            "n_f: 1",
            "k_f_label: 1\u00b7K_X + [s]",
        ]

    def test_json_with_omega(self, capsys):
        code, out, _ = run(
            capsys,
            "acyclicity",
            "--genus", "2", "--rank", "2", "--sing", "s:1", "--n", "9",
            "--omega", "2*t",
            "--format", "json",
        )
        payload = json.loads(out)
        assert payload["verdict"] == "acyclic_everywhere"
        assert payload["n_f"] == 5
        assert payload["critical_divisor"] == [["s", 1], ["t", 4]]

    def test_n_zero_rejected_on_cli(self, capsys):
        code, _, err = run(capsys, "acyclicity", "--genus", "1", "--rank", "1", "--n", "0")
        assert code == 2
        assert "n >= 1" in err

    def test_boundary_precondition(self, capsys):
        code, _, _ = run(
            capsys, "acyclicity", "--genus", "1", "--rank", "1", "--sing", "s:1",
            "--n", "1", "--omega", "0",
        )
        assert code == 0
        code, _, err = run(
            capsys, "acyclicity", "--genus", "0", "--rank", "1", "--sing", "s:2",
            "--n", "1",
        )
        assert code == 3
        assert "exceeds the rank" in err


class TestEpsilonReport:
    def test_text(self, capsys):
        code, out, _ = run(
            capsys, "epsilon-report", "--genus", "2", "--rank", "1", "--sing", "s:1",
            "--omega", "2*t",
        )
        assert code == 0
        assert out.splitlines() == [
            "n: 3",
            "sign: -1",
            "critical_divisor: s + 2*t",
            "k_f_label: 1\u00b7K_X + [s]",
            "sigma: s, t",
        ]

    def test_nonpositive_bound_is_exit_3(self, capsys):
        code, _, _ = run(
            capsys, "epsilon-report", "--genus", "1", "--rank", "1", "--omega", "0"
        )
        assert code == 3


class TestIndexDegrees:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "index-degrees", "--genus", "2", "--n", "2")
        assert out.splitlines() == ["2: 2", "1+1: 1"]

    def test_json(self, capsys):
        code, out, _ = run(
            capsys, "index-degrees", "--genus", "0", "--n", "3", "--format", "json"
        )
        payload = json.loads(out)
        assert payload["degrees"] == [
            {"partition": [3], "d": -2},
            {"partition": [2, 1], "d": 6},
            {"partition": [1, 1, 1], "d": -4},
        ]

    def test_degree_zero(self, capsys):
        code, out, _ = run(capsys, "index-degrees", "--genus", "1", "--n", "0")
        assert out == "0: 1\n"


class TestSelftestAndPlumbing:
    def test_selftest_lines(self, capsys):
        code, out, _ = run(capsys, "selftest")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 10
        assert all(line.startswith(f"ok {i:02d} ") for i, line in enumerate(lines, 1))

    @pytest.mark.parametrize(
        "module, name, corrupt, failing_check",
        [
            ("sheaves", "_merge_enumeration", lambda real: lambda p: real(p) * 2, 3),
            ("combinat", "_count_binary_matrices", lambda real: lambda r, c: real(r, c) + 1, 3),
            ("sheaves", "_constant_rank_closed", lambda real: lambda r, n: real(r + 1, n), 4),
            ("index", "_count_binary_matrices", lambda real: lambda r, c: real(r, c) + 1, 7),
            ("index", "_chi_product", lambda real: lambda v, p, n: real(v, p, n) + 1, 8),
        ],
    )
    def test_selftest_checks_again_in_a_warm_process(
        self, capsys, monkeypatch, module, name, corrupt, failing_check
    ):
        # the first run leaves the checked answers cached; the second run must
        # compare both routes again, not read them from there
        from taucycles import index, sheaves

        verified = (
            sheaves._partition_verified,
            sheaves._composition_verified,
            sheaves._constant_rank_verified,
            index._verified_matrix,
            index._infer_degrees_cached,
        )
        assert run(capsys, "selftest")[0] == 0
        owner = sys.modules[f"taucycles.{module}"]
        monkeypatch.setattr(owner, name, corrupt(getattr(owner, name)))
        try:
            code, out, err = run(capsys, "selftest")
        finally:
            for cache in verified:
                cache.cache_clear()
        assert code == 4
        assert len(out.splitlines()) == failing_check - 1
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_consistency_failures_exit_4(self, capsys, monkeypatch):
        import taucycles.cli as cli

        def broken(args):
            raise ConsistencyError("doctored failure")

        monkeypatch.setattr(cli, "_cmd_mtable", broken)
        code = cli.main(["mtable", "--n", "2"])
        err = capsys.readouterr().err
        assert code == 4
        assert "doctored failure" in err

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bogus"])
        assert exc.value.code == 2

    def test_in_process_determinism(self, capsys):
        outputs = []
        for _ in range(2):
            _, out, _ = run(
                capsys, "series", "--rank", "2", "--sing", "s:2", "--max-degree", "3",
                "--format", "json",
            )
            outputs.append(out)
        assert outputs[0] == outputs[1]


# One entry per argv: (the command line as a shell would split it, exit code, the first
# 16 hex digits of the sha256 of stdout, stderr).  A leading NAME=value word sets that
# environment variable for the run.  Recorded from the command line before its
# subcommands came from one table; the strict-decimal entries have exit 2 since then,
# and the --char above the primality bound, which gave no answer then, exits 3.  The
# strata entries at grade 11, whose divisors reach 10*s and 10*t (text order puts
# them before 2*s and 2*t), were recorded later, while the bases were still sorted.
CORPUS = [
    ('product --e 1^1 --e 1^1', 0, '83adf8f3f6b700e5', ''),
    ('product --e 1^1 --e 1^1 --format json', 0, 'c488e65e849b93c0', ''),
    ('product --delta s --e 2^1 --delta t --format latex', 0, 'e2dba11bc288b5c6', ''),
    ("product --delta '2*s + t' --e '1^2 2^1' --e 1^1 --format json", 0, '5e115ed81445f67f', ''),
    ('product --delta 0 --format json', 0, 'd4bfbe5094cc9fb0', ''),
    ('product', 2, 'e3b0c44298fc1c14', 'error: give at least one factor via --e or --delta\n'),
    ('product --e oops', 2, 'e3b0c44298fc1c14', "error: bad multiplicity token 'oops', expected i^count\n"),
    ("product --delta 's +'", 2, 'e3b0c44298fc1c14', "error: empty term in divisor 's +'\n"),
    ('product --e=-1^2', 2, 'e3b0c44298fc1c14', 'error: part size must be a positive integer, got -1\n'),
    ('product --e 1^1 --format yaml', 2, 'e3b0c44298fc1c14', "usage: taucycles product [-h] [--delta DIV] [--e MULT]\n                         [--format {text,json,latex}]\ntaucycles product: error: argument --format: invalid choice: 'yaml' (choose from 'text', 'json', 'latex')\n"),
    ('series --rank 1 --sing s:1 --max-degree 1', 0, 'c3a0d7c3cd557e67', ''),
    ('series --rank 2 --sing s:1 --sing t:2 --max-degree 4 --format json', 0, 'db54a57c3dd0af95', ''),
    ('series --rank 2 --sing s:1 --max-degree 3 --format latex', 0, '97d67934cee17c4b', ''),
    ('series --rank 1', 0, '6807c1aa10089c6e', ''),
    ('TAUCYCLES_MAX_DEGREE=2 series --rank 1 --format json', 0, 'a9906cfda4445d16', ''),
    ('TAUCYCLES_MAX_DEGREE=lots series --rank 1', 2, 'e3b0c44298fc1c14', "error: TAUCYCLES_MAX_DEGREE must be an integer, got 'lots'\n"),
    ('TAUCYCLES_MAX_DEGREE=-3 series --rank 1', 2, 'e3b0c44298fc1c14', 'error: TAUCYCLES_MAX_DEGREE must be nonnegative, got -3\n'),
    ('series --rank 1 --sing s:2', 3, 'e3b0c44298fc1c14', "error: drop 2 at point 's' exceeds the rank 1\n"),
    ('series --rank 1 --sing s=2', 2, 'e3b0c44298fc1c14', "error: bad singularity 's=2', expected point:drop\n"),
    ('series --rank 1 --sing s:x', 2, 'e3b0c44298fc1c14', "error: bad drop in 's:x', expected an integer\n"),
    ('series --rank 1 --sing s:0', 2, 'e3b0c44298fc1c14', "error: drop in 's:0' must be at least 1\n"),
    ('series --rank 2 --sing s:1 --sing s:1', 2, 'e3b0c44298fc1c14', "error: point 's' listed twice\n"),
    ('series --rank 1 --max-degree -1', 2, 'e3b0c44298fc1c14', 'error: max_degree must be a nonnegative integer, got -1\n'),
    ('series --rank -1 --max-degree 2', 2, 'e3b0c44298fc1c14', 'error: rank must be a positive integer, got -1\n'),
    ('series --max-degree 2', 2, 'e3b0c44298fc1c14', 'usage: taucycles series [-h] --rank RANK [--sing POINT:DROP]\n                        [--max-degree MAX_DEGREE] [--format {text,json,latex}]\ntaucycles series: error: the following arguments are required: --rank\n'),
    ('series --rank abc', 2, 'e3b0c44298fc1c14', "usage: taucycles series [-h] --rank RANK [--sing POINT:DROP]\n                        [--max-degree MAX_DEGREE] [--format {text,json,latex}]\ntaucycles series: error: argument --rank: invalid int value: 'abc'\n"),
    ('series --rank 1_0 --max-degree ١', 2, 'e3b0c44298fc1c14', "usage: taucycles series [-h] --rank RANK [--sing POINT:DROP]\n                        [--max-degree MAX_DEGREE] [--format {text,json,latex}]\ntaucycles series: error: argument --rank: invalid int value: '1_0'\n"),
    ('mtable --n 3', 0, 'b76c5f6a9c1a554b', ''),
    ('mtable --n 4 --format json', 0, '51540b5b4657be76', ''),
    ('mtable --n 4 --format latex', 0, '3e1fd8ec0c5b01c5', ''),
    ('mtable --n 0', 0, '4355a46b19d348dc', ''),
    ('mtable --n 0 --format json', 0, '4a455bfd88037b87', ''),
    ('mtable --n -1', 2, 'e3b0c44298fc1c14', 'error: n must be a nonnegative integer, got -1\n'),
    ('mtable --n 21', 3, 'e3b0c44298fc1c14', 'error: --n 21 is above the limit of 20 for this command\n'),
    ('mtable --n ٣', 2, 'e3b0c44298fc1c14', "usage: taucycles mtable [-h] --n N [--format {text,json,latex}]\ntaucycles mtable: error: argument --n: invalid int value: '٣'\n"),
    ('strata --grade 2 --points s', 0, '97755e36f5e1bf14', ''),
    ('strata --grade 3 --points s,t --format json', 0, '98812e9a00181127', ''),
    ('strata --grade 2 --points s --format latex', 0, 'c0e1d79ef1e415bf', ''),
    ('strata --grade 0', 0, '39910a33cf4d199f', ''),
    ('strata --grade 0 --format json', 0, '8b51365ab71cf791', ''),
    ('strata --grade 2 --points ,t,,s,t --format json', 0, 'aa18fcb20c97863b', ''),
    ('strata --grade -1', 2, 'e3b0c44298fc1c14', 'error: grade must be nonnegative, got -1\n'),
    ('strata --grade 11 --points s,t', 0, '3c646d4f9eb726e8', ''),
    ('strata --grade 11 --points s,t --format json', 0, '5224c3b5d5fb2815', ''),
    ('strata --grade 11 --points s,t --format latex', 0, '034e27893e858fc6', ''),
    ('pushforward --composition 3,1', 0, '975b2e269a700202', ''),
    ('pushforward --composition 2,1 --format json', 0, 'e3fa7f5e4e230d80', ''),
    ('pushforward --composition 2,1,1 --format latex', 0, '7dbb10ae2bb49129', ''),
    ('pushforward --partition 2,1', 0, 'a8b3d8e70218c81e', ''),
    ('pushforward --partition 2,2,1 --char 3 --format json', 0, '49cc7c84d94ec685', ''),
    ('pushforward --partition 2,1 --format latex', 0, 'b1f4426d8250cea2', ''),
    ('pushforward --partition 2,1 --char 2', 3, 'e3b0c44298fc1c14', 'error: part 2 is not invertible in characteristic 2\n'),
    ('pushforward --partition 2,1 --char 4', 2, 'e3b0c44298fc1c14', 'error: base characteristic must be 0 or a prime, got 4\n'),
    ('pushforward --partition 2 --char 170141183460469231731687303715884105727', 3, 'e3b0c44298fc1c14', 'error: base characteristic 170141183460469231731687303715884105727 is a strong probable prime, but primality is decided only below 3317044064679887385961981\n'),
    ('pushforward --composition 2 --char 3', 2, 'e3b0c44298fc1c14', 'error: --char applies only to the partition route\n'),
    ('pushforward --composition 1 --partition 1', 2, 'e3b0c44298fc1c14', 'error: give either --composition or --partition, not both\n'),
    ('pushforward', 2, 'e3b0c44298fc1c14', 'error: give one of --composition or --partition\n'),
    ('pushforward --partition 1,2', 2, 'e3b0c44298fc1c14', 'error: partition parts must be weakly decreasing, got (1, 2)\n'),
    ('pushforward --composition 1,x', 2, 'e3b0c44298fc1c14', "error: bad composition '1,x', expected comma-separated integers\n"),
    ('pushforward --partition 11,10,10', 3, 'e3b0c44298fc1c14', 'error: weight 31 is above the limit of 30 for this command\n'),
    ('pushforward --composition 2,-1', 2, 'e3b0c44298fc1c14', 'error: composition entries must be positive integers, got -1\n'),
    ('pushforward --partition 2 --char +3', 2, 'e3b0c44298fc1c14', "usage: taucycles pushforward [-h] [--composition PARTS] [--partition PARTS]\n                             [--char CHAR] [--format {text,json,latex}]\ntaucycles pushforward: error: argument --char: invalid int value: '+3'\n"),
    ('acyclicity --genus 2 --rank 2 --sing s:1 --n 9 --omega 2*t', 0, 'f8ca298381f48e22', ''),
    ('acyclicity --genus 2 --rank 2 --sing s:1 --n 9 --omega 2*t --format json', 0, '4ab9f15c273a8737', ''),
    ('acyclicity --genus 1 --rank 1 --sing s:1 --n 1', 0, 'ae6b7ce62252379d', ''),
    ('acyclicity --genus 1 --rank 1 --sing s:1 --n 1 --format json', 0, '73a1eb9a11f1dcd4', ''),
    ('acyclicity --genus 1 --rank 1 --n 1 --omega 0', 0, '5aa0dc0718cf0ca2', ''),
    ('acyclicity --genus 1 --rank 1 --n 1 --omega 0 --format json', 0, '61b9f04b186b8fa8', ''),
    ('acyclicity --genus 1 --rank 1 --n 0', 2, 'e3b0c44298fc1c14', 'error: the command line takes n >= 1, got 0\n'),
    ('acyclicity --genus 0 --rank 1 --sing s:2 --n 1', 3, 'e3b0c44298fc1c14', "error: drop 2 at point 's' exceeds the rank 1\n"),
    ("acyclicity --genus 1 --rank 1 --n 1 --omega 's +'", 2, 'e3b0c44298fc1c14', "error: empty term in divisor 's +'\n"),
    ('acyclicity --genus -1 --rank 1 --n 1', 2, 'e3b0c44298fc1c14', 'error: genus must be a nonnegative integer, got -1\n'),
    ('acyclicity --genus 1 --rank 1 --n 1 --format latex', 2, 'e3b0c44298fc1c14', "usage: taucycles acyclicity [-h] --genus GENUS --rank RANK [--sing POINT:DROP]\n                            --n N [--omega DIV] [--format {text,json}]\ntaucycles acyclicity: error: argument --format: invalid choice: 'latex' (choose from 'text', 'json')\n"),
    ('epsilon-report --genus 2 --rank 1 --sing s:1 --omega 2*t', 0, 'c53b0305f9e15338', ''),
    ("epsilon-report --genus 2 --rank 2 --sing s:2 --omega 't + u' --format json", 0, 'c912ba6a2124d236', ''),
    ('epsilon-report --genus 1 --rank 1 --omega 0', 3, 'e3b0c44298fc1c14', 'error: local factorization data needs a positive degree bound, got 0\n'),
    ('epsilon-report --genus 2 --rank 1', 2, 'e3b0c44298fc1c14', 'usage: taucycles epsilon-report [-h] --genus GENUS --rank RANK\n                                [--sing POINT:DROP] --omega DIV\n                                [--format {text,json}]\ntaucycles epsilon-report: error: the following arguments are required: --omega\n'),
    ('index-degrees --genus 2 --n 4', 0, '872652a79ebbf623', ''),
    ('index-degrees --genus 0 --n 3 --format json', 0, '86fdd3e239f89b13', ''),
    ('index-degrees --genus 1 --n 0', 0, '008904fdbbc6e76b', ''),
    ('index-degrees --genus 1 --n -1', 2, 'e3b0c44298fc1c14', 'error: n must be a nonnegative integer, got -1\n'),
    ('index-degrees --genus 2 --n 21', 3, 'e3b0c44298fc1c14', 'error: --n 21 is above the limit of 20 for this command\n'),
    ('index-degrees --genus -1 --n 2', 2, 'e3b0c44298fc1c14', 'error: genus must be a nonnegative integer, got -1\n'),
    ('index-degrees --genus 0 --n 0_3', 2, 'e3b0c44298fc1c14', "usage: taucycles index-degrees [-h] --genus GENUS --n N [--format {text,json}]\ntaucycles index-degrees: error: argument --n: invalid int value: '0_3'\n"),
    ('selftest', 0, '62b7931ccc4322b1', ''),
    ('selftest --format json', 2, 'e3b0c44298fc1c14', 'usage: taucycles [-h] [--version]\n                 {product,series,mtable,strata,pushforward,acyclicity,epsilon-report,index-degrees,selftest}\n                 ...\ntaucycles: error: unrecognized arguments: --format json\n'),
    ('', 2, 'e3b0c44298fc1c14', 'usage: taucycles [-h] [--version]\n                 {product,series,mtable,strata,pushforward,acyclicity,epsilon-report,index-degrees,selftest}\n                 ...\ntaucycles: error: the following arguments are required: command\n'),
    ('bogus', 2, 'e3b0c44298fc1c14', "usage: taucycles [-h] [--version]\n                 {product,series,mtable,strata,pushforward,acyclicity,epsilon-report,index-degrees,selftest}\n                 ...\ntaucycles: error: argument command: invalid choice: 'bogus' (choose from 'product', 'series', 'mtable', 'strata', 'pushforward', 'acyclicity', 'epsilon-report', 'index-degrees', 'selftest')\n"),
    ('--version', 0, '079cf33c3c29fda3', ''),
    ('--help', 0, 'b5da17cfc77e895b', ''),
    ('series --help', 0, '670ed916ca982294', ''),
    ('pushforward -h', 0, '870a1313759113b4', ''),
]


@pytest.mark.parametrize("line, code, digest, err", CORPUS, ids=[entry[0] for entry in CORPUS])
def test_frozen_corpus(capsys, monkeypatch, line, code, digest, err):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage lines to the terminal width
    monkeypatch.delenv("TAUCYCLES_MAX_DEGREE", raising=False)
    words = shlex.split(line)
    if words and "=" in words[0]:
        monkeypatch.setenv(*words.pop(0).split("=", 1))
    try:
        got = main(words)
    except SystemExit as exc:  # argparse exits on bad arguments, --help and --version
        got = exc.code
    out = capsys.readouterr()
    assert (got, hashlib.sha256(out.out.encode()).hexdigest()[:16], out.err) == (code, digest, err)


class TestParserReuse:
    """``main`` builds its parser once per process; nothing of one call leaks into the next."""

    def test_warm_calls_build_no_parser(self, capsys, monkeypatch):
        assert main(["mtable", "--n", "2"]) == 0
        built = []
        original = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            original(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        for argv in (
            ["mtable", "--n", "2"],
            ["strata", "--grade", "1", "--format", "json"],
            ["index-degrees", "--genus", "0", "--n", "2"],
        ):
            assert main(argv) == 0
        assert built == []

    def test_corpus_twice_forward_then_reversed(self, capsys, monkeypatch):
        for entry in CORPUS + CORPUS[::-1]:
            test_frozen_corpus(capsys, monkeypatch, *entry)

    def test_usage_wraps_to_the_width_of_each_call(self, capsys, monkeypatch):
        def bogus_usage(columns):
            monkeypatch.setenv("COLUMNS", columns)
            with pytest.raises(SystemExit):
                main(["bogus"])
            return capsys.readouterr().err

        narrow = dict((line, err) for line, _, _, err in CORPUS)["bogus"]
        *usage, error = narrow.splitlines()
        usage = " ".join(line.strip() for line in usage)
        assert bogus_usage("80") == narrow  # usage on three lines
        assert bogus_usage("300") == f"{usage}\n{error}\n"  # on one
        assert bogus_usage("80") == narrow

    def test_replaced_handler_is_called_after_a_warm_call(self, capsys, monkeypatch):
        import taucycles.cli as cli

        assert cli.main(["mtable", "--n", "2"]) == 0

        def broken(args):
            raise ConsistencyError("doctored failure")

        monkeypatch.setattr(cli, "_cmd_mtable", broken)
        assert cli.main(["mtable", "--n", "2"]) == 4
        assert capsys.readouterr().err == "error: doctored failure\n"


def readme_examples() -> list[tuple[str, list[str]]]:
    """The ``$ taucycles ...`` examples under "## Command line" in README.md, with their output."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```", 2)[1]
    examples = []
    for chunk in block.strip().split("\n\n"):
        command, *shown = chunk.splitlines()
        examples.append((command.removeprefix("$ taucycles "), shown))
    return examples


README_EXAMPLES = readme_examples()


@pytest.mark.parametrize("command, shown", README_EXAMPLES, ids=[c for c, _ in README_EXAMPLES])
def test_readme_examples_print_what_they_show(capsys, monkeypatch, command, shown):
    monkeypatch.delenv("TAUCYCLES_MAX_DEGREE", raising=False)
    assert main(shlex.split(command)) == 0
    lines = capsys.readouterr().out.splitlines()
    if "..." in shown:  # the example elides the middle lines
        cut = shown.index("...")
        head, tail = shown[:cut], shown[cut + 1:]
        assert lines[:cut] == head and lines[len(lines) - len(tail):] == tail
    else:
        assert lines == shown


def src_env() -> dict:
    """The environment of a child process that imports this checkout's package."""
    src = str(Path(taucycles.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def test_long_rank_one_series_exits_cleanly():
    # 990 nested partition levels used to overflow the recursion limit
    proc = subprocess.run(
        [sys.executable, "-m", "taucycles", "series", "--rank", "1", "--max-degree", "990"],
        capture_output=True,
        env=src_env(),
        timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stderr == b""
    lines = proc.stdout.decode().splitlines()
    assert len(lines) == 991
    assert lines[990] == "tau[0; 1^990]"


def test_long_partition_pushforward_exits_cleanly():
    # 14 parts: Bell(14) set partitions, counted by block sums and never listed
    proc = subprocess.run(
        [sys.executable, "-m", "taucycles", "pushforward", "--partition", ",".join(["1"] * 14)],
        capture_output=True,
        env=src_env(),
        timeout=20,
    )
    assert proc.returncode == 0
    assert proc.stderr == b""
    assert proc.stdout.decode().endswith(" + tau[0; 14^1]\n")


def test_single_huge_product_factor_exits_cleanly():
    # a product that started from the unit took about 22 s, in the factorial of the count
    proc = subprocess.run(
        [sys.executable, "-m", "taucycles", "product", "--e", "999999^999999"],
        capture_output=True,
        env=src_env(),
        timeout=10,
    )
    assert proc.returncode == 0
    assert proc.stderr == b""
    assert proc.stdout == b"tau[0; 999999^999999]\n"


def test_large_drops_series_is_bounded_by_max_degree():
    # only subdivisors of degree at most 8 are walked, not all 30001^2
    proc = subprocess.run(
        [sys.executable, "-m", "taucycles", "series", "--rank", "30000",
         "--sing", "s:30000", "--sing", "t:30000"],
        capture_output=True,
        env=src_env(),
        timeout=20,
    )
    assert proc.returncode == 0
    assert proc.stderr == b""


def test_many_drop_points_do_not_deepen_the_walk():
    # 1200 points used to recurse once per point past the recursion limit
    sings = [arg for i in range(1200) for arg in ("--sing", f"p{i}:1")]
    proc = subprocess.run(
        [sys.executable, "-m", "taucycles", "series", "--rank", "1", *sings, "--max-degree", "0"],
        capture_output=True,
        env=src_env(),
        timeout=20,
    )
    assert proc.returncode == 0
    assert proc.stderr == b""
    assert proc.stdout == b"1\n"


def test_strata_on_many_points_does_not_deepen_the_walk():
    # 1200 points used to recurse once per point past the recursion limit
    points = ",".join(f"p{i}" for i in range(1200))
    proc = subprocess.run(
        [sys.executable, "-m", "taucycles", "strata", "--grade", "1", "--points", points],
        capture_output=True,
        env=src_env(),
        timeout=20,
    )
    assert proc.returncode == 0
    assert proc.stderr == b""
    lines = proc.stdout.decode().splitlines()
    assert len(lines) == 1201
    assert lines[0] == "tau[0; 1^1]"


@pytest.mark.parametrize(
    "argv, points",
    [
        # ended in a MemoryError traceback under a 2 GB address-space cap
        (["--grade", "99999999999"], 0),
        # 13,271,183 lines: no answer in 12 s
        (["--grade", "20", "--points", "a,b,c,d,e,f,g,h"], 8),
    ],
)
def test_oversize_strata_is_refused_before_any_work(argv, points):
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "taucycles", "strata", *argv],
        capture_output=True,
        env=src_env(),
        timeout=20,
    )
    assert time.perf_counter() - start < 1
    assert proc.returncode == 3
    assert proc.stdout == b""
    assert proc.stderr.decode() == (
        f"error: --grade {argv[1]} on {points} points gives more than 200000 strata, "
        "the limit for this command\n"
    )


def test_closed_stdout_exits_zero_without_traceback():
    # about 170 kB of output, well past a 64 kB pipe buffer, so the
    # process is still writing when the reader goes away
    proc = subprocess.Popen(
        [sys.executable, "-m", "taucycles", "strata", "--grade", "24", "--points", "s"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=src_env(),
    )
    assert proc.stdout.readline().startswith(b"tau[0; ")
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 0
    assert err == b""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
@pytest.mark.parametrize(
    "argv",
    [
        ("strata", "--grade", "3"),  # fits the buffer: fails on the final flush
        ("mtable", "--n", "14"),  # past the buffer: fails while printing
    ],
)
def test_full_device_exits_three_with_one_error_line(argv):
    with open("/dev/full", "wb") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "taucycles", *argv],
            stdout=full,
            stderr=subprocess.PIPE,
            env=src_env(),
            timeout=60,
        )
    err = proc.stderr.decode()
    assert proc.returncode == 3
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def new_modules(code: str) -> set[str]:
    """Modules that ``code`` loads in a fresh interpreter on top of its start-up set."""
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        f"{code}\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, env=src_env(), timeout=60
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return set(proc.stdout.decode().splitlines()[-1].split())


HEAVY = {"dataclasses", "inspect", "json"}


def test_cli_import_is_light():
    loaded = new_modules("import taucycles.cli")
    assert {m for m in loaded if m.startswith("taucycles.")} == {"taucycles.cli", "taucycles.errors"}
    assert not loaded & HEAVY
    assert "taucycles.selftest" not in new_modules("import taucycles.cycle_algebra")


def test_only_selftest_loads_the_selftest_module():
    assert "taucycles.selftest" in new_modules("from taucycles.cli import main\nmain(['selftest'])")
    for argv in (
        "['product', '--e', '1^1', '--e', '1^1']",
        "['series', '--rank', '1', '--max-degree', '2']",
        "['mtable', '--n', '3']",
    ):
        assert "taucycles.selftest" not in new_modules(f"from taucycles.cli import main\nmain({argv})")


def test_package_import_loads_no_submodule():
    loaded = new_modules("import taucycles")
    assert {m for m in loaded if m.startswith("taucycles")} == {"taucycles"}
    # a submodule attribute imports that submodule (and what it imports) only
    loaded = new_modules("import taucycles\nassert taucycles.index.infer_degrees(0, 2)[(2,)] == -2")
    assert {m for m in loaded if m.startswith("taucycles")} == {
        "taucycles", "taucycles.combinat", "taucycles.errors", "taucycles.index"
    }


def test_strata_loads_only_the_algebra():
    loaded = new_modules(
        "from taucycles.cli import main\nmain(['strata', '--grade', '2', '--points', 's'])"
    )
    assert "taucycles.cycle_algebra" in loaded
    for name in ("sheaves", "series", "geometry", "index"):
        assert f"taucycles.{name}" not in loaded
    assert not loaded & HEAVY


def test_text_product_loads_no_json():
    text = new_modules("from taucycles.cli import main\nmain(['product', '--e', '1^1', '--e', '1^1'])")
    assert not text & HEAVY
    loaded = new_modules(
        "from taucycles.cli import main\nmain(['product', '--e', '1^1', '--format', 'json'])"
    )
    assert "json" in loaded


@pytest.mark.parametrize(
    "argv",
    [
        "['acyclicity', '--genus', '2', '--rank', '1', '--sing', 's:1', '--n', '3']",
        "['epsilon-report', '--genus', '2', '--rank', '1', '--sing', 's:1', '--omega', '2*s']",
    ],
)
def test_curve_numerology_loads_no_series_code(argv):
    loaded = new_modules(f"from taucycles.cli import main\nmain({argv})")
    assert {m for m in loaded if m.startswith("taucycles.")} == {
        "taucycles.cli", "taucycles.combinat", "taucycles.divisors", "taucycles.errors",
        "taucycles.geometry", "taucycles.records",
    }
    assert not loaded & HEAVY


def test_sheaf_descriptor_keeps_its_old_home():
    from taucycles import records, sheaves

    assert sheaves.SheafDescriptor is records.SheafDescriptor is taucycles.SheafDescriptor


@pytest.mark.parametrize("command", [["mtable"], ["index-degrees", "--genus", "2"]])
@pytest.mark.parametrize("n", [30, 60])
def test_table_size_limit_refuses_before_any_work(command, n):
    proc = subprocess.run(
        [sys.executable, "-m", "taucycles", *command, "--n", str(n)],
        capture_output=True,
        env=src_env(),
        timeout=10,
    )
    assert proc.returncode == 3
    assert proc.stdout == b""
    assert proc.stderr.decode() == f"error: --n {n} is above the limit of 20 for this command\n"


def test_table_size_limit_is_inclusive(capsys, monkeypatch):
    import taucycles.cli as cli

    monkeypatch.setattr(cli, "MAX_TABLE_N", 3)
    assert run(capsys, "mtable", "--n", "3")[0] == 0
    assert run(capsys, "index-degrees", "--genus", "0", "--n", "3")[0] == 0
    assert run(capsys, "mtable", "--n", "4")[0] == 3
    assert run(capsys, "index-degrees", "--genus", "0", "--n", "4")[0] == 3


@pytest.mark.parametrize("route", ["--composition", "--partition"])
def test_pushforward_weight_limit_is_inclusive(route, capsys, monkeypatch):
    from taucycles import sheaves

    assert run(capsys, "pushforward", route, "10,10,10")[0] == 0
    # a malformed list is a bad argument, whatever its weight
    assert run(capsys, "pushforward", route, "40,0")[0] == 2

    def refuse(*args):
        raise AssertionError("the pushforward ran past its limit")

    for name in ("pushforward_composition", "pushforward_partition"):
        monkeypatch.setattr(sheaves, name, refuse)
    code, out, err = run(capsys, "pushforward", route, "11,10,10")
    assert code == 3
    assert out == ""
    assert err == "error: weight 31 is above the limit of 30 for this command\n"
    assert run(capsys, "pushforward", "--partition", "1,40")[0] == 2


def test_long_composition_pushforward_is_refused_without_traceback():
    # 1200 ones used to end in a RecursionError and exit 1
    proc = subprocess.run(
        [sys.executable, "-m", "taucycles", "pushforward", "--composition", ",".join(["1"] * 1200)],
        capture_output=True,
        env=src_env(),
        timeout=10,
    )
    assert proc.returncode == 3
    assert proc.stdout == b""
    assert proc.stderr.decode() == "error: weight 1200 is above the limit of 30 for this command\n"


def test_char_near_ten_to_the_eighteen_is_decided_quickly():
    # trial division would need about 10^9 steps for this prime
    def pushforward(char):
        return subprocess.run(
            [sys.executable, "-m", "taucycles", "pushforward", "--partition", "2", "--char", char],
            capture_output=True,
            env=src_env(),
            timeout=10,
        )

    proc = pushforward("1000000000000000003")
    assert proc.returncode == 0
    assert proc.stderr == b""
    assert proc.stdout == pushforward("7").stdout

