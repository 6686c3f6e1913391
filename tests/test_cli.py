import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import taucycles
from taucycles.cli import main
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
    # 14 parts: Bell(14) set partitions, so only the fold route runs
    proc = subprocess.run(
        [sys.executable, "-m", "taucycles", "pushforward", "--partition", ",".join(["1"] * 14)],
        capture_output=True,
        env=src_env(),
        timeout=20,
    )
    assert proc.returncode == 0
    assert proc.stderr == b""
    assert proc.stdout.decode().endswith(" + tau[0; 14^1]\n")


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
