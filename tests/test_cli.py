import contextlib
import errno
import importlib
import io
import json
import math
import os
import pkgutil
import random
import re
import subprocess
import sys
import tempfile
import typing

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hardy_means import MeanParams, cmn_mean_naive, power_mean
from hardy_means import cli, cmn_means, prefix, routes
from hardy_means.cli import canonical_json, main, run_bench
from hardy_means.hardy import sharpness_limit_curve


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMeanCommand:
    def test_exact_small_vector(self, capsys):
        code, out, _ = run_cli(capsys, "mean", "-k", "2", "-s", "1", "-q", "0", "--data", "1,4,9")
        assert code == 0
        value = float(out.split()[0])
        assert value == pytest.approx(11 / 3, rel=1e-12)
        assert "(FastSymmetric)" in out

    def test_degenerate(self, capsys):
        code, out, _ = run_cli(capsys, "mean", "-k", "9", "-s", "2", "-q", "0", "--data", "5,5,5")
        assert code == 0
        assert out.strip() == "5.0 (Degenerate)"

    def test_negative_exponent_values(self, capsys):
        code, out, _ = run_cli(capsys, "mean", "-k", "2", "-s", "-inf", "-q", "1", "--data", "1,4,9")
        assert code == 0
        assert out.strip() == "2.5 (Exact)"

    def test_singleton_subsets_are_the_power_mean_past_the_enumeration_limit(self, capsys):
        data = [float(i) for i in range(1, 32)]
        code, out, _ = run_cli(
            capsys, "mean", "-k", "1", "-s", "2", "-q", "1", "--data", ",".join(map(str, data))
        )
        assert code == 0
        assert out == f"{power_mean(2.0, data)!r} (Degenerate)\n"

    def test_monte_carlo_from_file(self, capsys, tmp_path):
        data = tmp_path / "big.txt"
        data.write_text("# comment line\n1.0\n4.0  # trailing comment\n9.0\n2.5\n\n0.5\n")
        code, out, _ = run_cli(
            capsys,
            "mean", "-k", "2", "-s", "1", "-q", "1",
            "--file", str(data), "--samples", "100000", "--seed", "7",
        )
        assert code == 0
        assert "MonteCarlo" in out
        value = float(out.split()[0])
        stderr = float(out.split()[2])
        oracle = cmn_mean_naive(MeanParams(2, 1.0, 1.0), [1.0, 4.0, 9.0, 2.5, 0.5])
        assert abs(value - oracle) <= 3 * stderr

    def test_domain_error_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "mean", "-k", "2", "-s", "1", "-q", "0", "--data", "1,-2")
        assert code == 2
        assert "error" in err

    def test_bad_exponent_syntax_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "mean", "-k", "2", "-s", "one", "-q", "0", "--data", "1,2")
        assert code == 2

    def test_capacity_error_exit_3(self, capsys):
        data = ",".join(str(i) for i in range(1, 32))
        code, _, err = run_cli(capsys, "mean", "-k", "2", "-s", "2", "-q", "1", "--data", data)
        assert code == 3
        assert "--samples" in err

    def test_missing_vector(self, capsys):
        code, _, err = run_cli(capsys, "mean", "-k", "2", "-s", "1", "-q", "0")
        assert code == 2

    def test_negative_seed_exit_2(self, capsys):
        # random.Random seeds from |seed|, so -1 used to print the bytes of --seed 1
        code, out, err = run_cli(
            capsys,
            "mean", "-k", "2", "-s", "1", "-q", "1", "--data", "1,2,3,4,5,6,7,8,9,10",
            "--samples", "1000", "--seed", "-1",
        )
        assert (code, out, err) == (2, "", "error: seed must be >= 0, got -1\n")

    def test_json_row(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "mean", "-k", "2", "-s", "1", "-q", "0", "--data", "1,4,9", "--format", "json",
        )
        payload = json.loads(out)
        assert payload["meta"]["mean"] == "cmn:2,1,0"
        assert payload["rows"][0]["method"] == "FastSymmetric"
        assert payload["rows"][0]["value"] == pytest.approx(11 / 3, rel=1e-12)


class TestHardySumCommand:
    def test_second_moment_mean_past_the_enumeration_limit(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "hardy-sum", "--mean", "cmn:2,2,1", "--family", "powertail:2", "-N", "1000",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["rows"][-1]["n"] == 1000

    @pytest.mark.parametrize(
        "argv",
        [
            ("hardy-sum", "--mean", "cmn:12,2,-1", "--family", "powertail:2", "-N", "100"),
            ("estimate-constant", "--mean", "cmn:12,2,-1", "-N", "100"),
        ],
    )
    def test_capacity_hint_names_N(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert "lower -N" in err
        assert "--samples" not in err
        assert out == ""
        assert err == (
            "capacity: C(25,12) = 5200300 exceeds the enumeration budget of 4194304; "
            "use the fast path or the Monte Carlo sampler (hint: lower -N: this mean has no "
            "incremental form, so every prefix is enumerated; the enumeration budget is "
            "4194304 subsets)\n"
        )

    def test_power_half_geometric(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "hardy-sum", "--mean", "power:0.5", "--family", "geometric:0.5", "-N", "1000",
        )
        assert code == 0
        final = float(out.strip().splitlines()[-1].split()[-1])
        assert 0 < final < 4.0

    def test_pair_mean_power_tail_csv(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "hardy-sum", "--mean", "cmn:2,1,0", "--family", "powertail:2", "-N", "10000",
            "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,partial_sum,partial_norm,ratio"
        last = lines[-1].split(",")
        assert int(last[0]) == 10000
        assert float(last[3]) < 4.0

    def test_nonsummable_rejected_without_flag(self, capsys):
        code, _, err = run_cli(
            capsys, "hardy-sum", "--mean", "power:0.5", "--family", "harmonic", "-N", "100"
        )
        assert code == 2
        assert "--allow-nonsummable" in err
        assert err.count("\n") == 1
        code, out, _ = run_cli(
            capsys,
            "hardy-sum", "--mean", "power:0.5", "--family", "harmonic", "-N", "100",
            "--allow-nonsummable",
        )
        assert code == 0

    def test_custom_family_from_file(self, capsys, tmp_path):
        path = tmp_path / "terms.txt"
        path.write_text("1.0\n0.5\n0.25\n0.125\n")
        code, out, _ = run_cli(
            capsys,
            "hardy-sum", "--mean", "power:0.5", "--family", f"custom:{path}", "-N", "4",
        )
        assert code == 0
        code, _, _ = run_cli(
            capsys,
            "hardy-sum", "--mean", "power:0.5", "--family", f"custom:{path}", "-N", "5",
        )
        assert code == 2  # positivity violation past the listed terms
        # the family is named by its file
        code, out, _ = run_cli(
            capsys,
            "hardy-sum", "--mean", "power:0.5", "--family", f"custom:{path}", "-N", "4", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["meta"]["family"] == f"custom:{path}"

    def test_overflowing_power_is_a_domain_error(self, tmp_path):
        path = tmp_path / "terms.txt"
        path.write_text("1.0\n1e200\n0.5\n")
        result = subprocess.run(
            [sys.executable, "-m", "hardy_means", "hardy-sum", "--mean", "power:2",
             "--family", f"custom:{path}", "-N", "3"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == (
            "error: a**p left the double range for a=1e+200, p=2.0; "
            "the incremental evaluator needs representable powers\n"
        )

    @pytest.mark.parametrize("mean", ["power:0.5", "cmn:3,2,0"])
    def test_overflowing_sums_are_a_domain_error(self, tmp_path, mean):
        # the partial sums pass the largest double at n = 2: one error line,
        # no rows and no numpy warnings
        path = tmp_path / "terms.txt"
        path.write_text("1.797e308\n" * 4)
        result = subprocess.run(
            [sys.executable, "-m", "hardy_means", "hardy-sum", "--mean", mean,
             "--family", f"custom:{path}", "-N", "4"],
            capture_output=True,
            text=True,
        )
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr == "error: the partial sum or norm left the double range at n=2\n"


    @pytest.mark.parametrize("command", ["mean", "hardy-sum"])
    def test_e_k_root_past_the_largest_double_is_a_domain_error(self, tmp_path, command):
        # the e_k route rounds the mean of entries at the largest double past
        # it: one error line, no traceback
        largest = repr(sys.float_info.max)
        path = tmp_path / "terms.txt"
        path.write_text(f"{largest}\n" * 5)
        argv = {
            "mean": ["mean", "-k", "2", "-s", "-1", "-q", "0", "--data", ",".join([largest] * 3)],
            "hardy-sum": ["hardy-sum", "--mean", "cmn:2,-1,0", "--family", f"custom:{path}", "-N", "5"],
        }[command]
        result = subprocess.run(
            [sys.executable, "-m", "hardy_means", *argv], capture_output=True, text=True
        )
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr == {
            "mean": "error: the computed mean left the double range\n",
            "hardy-sum": "error: the partial sum or norm left the double range at n=2\n",
        }[command]


class TestEstimateConstantCommand:
    def test_sweep_reports_max(self, capsys):
        code, out, _ = run_cli(
            capsys, "estimate-constant", "--mean", "cmn:2,1,0", "-N", "10000", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        ratios = [row["ratio"] for row in payload["rows"]]
        assert payload["meta"]["max_ratio"] == max(ratios)
        assert payload["meta"]["max_ratio"] < 4.0
        assert payload["meta"]["best_n0"] in [row["n0"] for row in payload["rows"]]


class TestClassifyCommand:
    def test_point(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--point", "2,1,0")
        assert code == 0
        assert "Hardy (Theorem1)" in out

    def test_open_point(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--point", "2,1.5,-2")
        assert code == 0
        assert "Open (OpenProblem)" in out
        assert "may depend on k" in out

    def test_grid_row_count(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "classify", "--grid-k", "2..4", "--grid-s", "-1,0,1,2", "--grid-q", "-1,0,1",
            "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 37  # header + 36 rows
        verdicts = {line.split(",")[3] for line in lines[1:]}
        assert verdicts == {"Hardy", "NotHardy", "Open"}

    def test_infinite_grid_values(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "classify", "--grid-k", "2", "--grid-s", "-inf,inf", "--grid-q", "0,1",
            "--format", "csv",
        )
        assert code == 0
        assert "inf" in out

    def test_malformed_grid_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "classify", "--grid-k", "4..2", "--grid-s", "1", "--grid-q", "0")
        assert code == 2
        code, _, _ = run_cli(capsys, "classify", "--point", "2,1")
        assert code == 2
        code, _, _ = run_cli(capsys, "classify")
        assert code == 2


class TestDeterminism:
    def test_byte_identical_json(self, capsys):
        args = (
            "classify", "--grid-k", "1..4", "--grid-s", "-inf,-1,0,0.5,1,2,inf",
            "--grid-q", "-inf,-1,0,1,inf", "--format", "json",
        )
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_byte_identical_csv_with_seed(self, capsys):
        args = (
            "mean", "-k", "3", "-s", "0.5", "-q", "-1", "--data", "1,2,3,4,5,6,7,8",
            "--samples", "5000", "--seed", "42", "--format", "csv",
        )
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_json_round_trip_bytes(self, capsys):
        for args in (
            ("classify", "--grid-k", "1..3", "--grid-s", "-1,0.5,2", "--grid-q", "-inf,0,inf"),
            ("hardy-sum", "--mean", "cmn:2,1,0", "--family", "powertail:2", "-N", "1000"),
            ("mean", "-k", "2", "-s", "1", "-q", "0", "--data", "1,4,9"),
        ):
            _, out, _ = run_cli(capsys, *args, "--format", "json")
            assert canonical_json(json.loads(out)) + "\n" == out

    def test_output_file_matches_stdout(self, capsys, tmp_path):
        target = tmp_path / "rows.csv"
        args = ("classify", "--grid-k", "2..3", "--grid-s", "0,1", "--grid-q", "0", "--format", "csv")
        _, stdout_text, _ = run_cli(capsys, *args)
        code, _, _ = run_cli(capsys, *args, "--output", str(target))
        assert code == 0
        assert target.read_text(encoding="utf-8") == stdout_text

    @pytest.mark.parametrize(
        "argv", [("verify", "--quick"), ("hardy-sum", "--mean", "power:0.5", "--family", "powertail:2", "-N", "10")]
    )
    def test_unwritable_output_is_a_domain_error(self, capsys, tmp_path, argv):
        # exit 2 and one error line, not a traceback with verify's exit 1
        target = tmp_path / "missing" / "x"
        code, out, err = run_cli(capsys, *argv, "--output", str(target))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {target}: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, kernel",
        [
            (("estimate-constant", "--mean", "cmn:2,1,0", "-N", "1000000"), "sharpness_constant_sweep"),
            (("verify", "--quick"), "run_verification"),
            (("hardy-sum", "--mean", "power:0.5", "--family", "powertail:2", "-N", "10"), "iter_hardy_checkpoints"),
            (("mean", "-k", "2", "-s", "1", "-q", "0", "--data", "1,4,9"), "cmn_mean_fast"),
        ],
    )
    @pytest.mark.parametrize("where", ["missing", "file", "directory", "new/", "file/"])
    def test_unwritable_output_is_refused_before_the_work(self, capsys, monkeypatch, tmp_path, argv, kernel, where):
        def refuse(*args, **kwargs):
            raise AssertionError(f"{kernel} ran with an unwritable --output")

        monkeypatch.setattr(cli, kernel, refuse)
        (tmp_path / "file").write_text("")
        named = {"missing": tmp_path / "missing" / "x", "file": tmp_path / "file" / "x", "directory": tmp_path}
        target = named.get(where) or f"{tmp_path}/{where}"  # a trailing separator names a directory
        # the line the write at the command's end would have printed
        with pytest.raises(OSError) as opened:
            open(target, "w")
        code, out, err = run_cli(capsys, *argv, "--output", str(target))
        assert (code, out, err) == (2, "", f"error: cannot write {target}: {opened.value}\n")

    def test_output_check_creates_nothing(self, capsys, tmp_path):
        target = tmp_path / "rows.txt"
        code, out, err = run_cli(capsys, "classify", "--point", "2,1", "--output", str(target))
        assert (code, out, err) == (2, "", "error: --point needs k,s,q, got '2,1'\n")
        assert list(tmp_path.iterdir()) == []


class TestVerifyCommand:
    def test_quick_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--quick", "--vectors", "25", "-N", "1000", "--seed", "3"
        )
        assert code == 0
        assert "[PASS] oracle-equivalence" in out
        assert "all properties passed" in out

    def test_injected_fault_exit_1(self, capsys, monkeypatch):
        genuine = routes._elementary_symmetric

        def broken(values, k, p):
            ek, exponent = genuine(values, k, p)
            return ek * math.exp(0.05), exponent

        monkeypatch.setattr(routes, "_elementary_symmetric", broken)
        code, out, _ = run_cli(
            capsys, "verify", "--quick", "--vectors", "25", "-N", "1000", "--seed", "3"
        )
        assert code == 1
        assert "[FAIL] oracle-equivalence" in out

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("--vectors", "0"), "vectors must be >= 1, got 0"),
            (("--vectors", "-3"), "vectors must be >= 1, got -3"),
            (("-N", "1"), "N must be >= 2, got 1"),
            (("--seed", "-1"), "seed must be >= 0, got -1"),
        ],
    )
    def test_sizes_out_of_range_exit_2(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_limit_gap_is_reported_at_N(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "-N", "50", "--vectors", "2", "--format", "json")
        assert code == 0
        rows = {row["property"]: row for row in json.loads(out)["rows"]}
        [(_, value)] = sharpness_limit_curve([50])
        assert rows["limit-experiment"]["worst"] == 4.0 - value
        assert "at N=50 " in rows["limit-experiment"]["detail"]


class TestBenchCommand:
    def test_rows_and_speedup(self):
        rows, speedup = run_bench(samples=200, seed=0)
        methods = {(row[0], row[1], row[2]): row for row in rows}
        # the closed form runs where enumeration refuses
        assert methods[("naive", 10**5, 3)][6] == "refused"
        assert methods[("fast", 10**5, 3)][6] == "ok"
        # the closed form tracks the enumeration oracle where both run
        for n, k in ((10, 2), (15, 3), (20, 5)):
            assert methods[("fast", n, k)][5] <= 1e-10
        assert speedup >= 10.0

    def test_rows_in_order_without_their_times(self):
        # (method, n, k, value, rel_error_vs_best, status): naive, fast and
        # Monte Carlo in turn per cell, errors against naive where it ran
        rows, _ = run_bench(samples=200, seed=0)
        assert [(*row[:3], *row[4:]) for row in rows] == [
            ("naive", 10, 2, 1.1079922831118478, 0.0, "ok"),
            ("fast", 10, 2, 1.1079922831118478, 0.0, "ok"),
            ("monte-carlo", 10, 2, 1.0909425275660611, 0.015387973188677509, "ok"),
            ("naive", 10, 3, 1.092518970629607, 0.0, "ok"),
            ("fast", 10, 3, 1.0925189706296072, 2.0324096047235625e-16, "ok"),
            ("monte-carlo", 10, 3, 1.0780938954394967, 0.013203500879986783, "ok"),
            ("naive", 10, 5, 1.0803987598581668, 0.0, "ok"),
            ("fast", 10, 5, 1.080398759858167, 2.05520973528497e-16, "ok"),
            ("monte-carlo", 10, 5, 1.0911111679258385, 0.009915235434996257, "ok"),
            ("naive", 15, 2, 1.474035852139588, 0.0, "ok"),
            ("fast", 15, 2, 1.4740358521395873, 4.519115419127625e-16, "ok"),
            ("monte-carlo", 15, 2, 1.4937302213535115, 0.013360848167523759, "ok"),
            ("naive", 15, 3, 1.445617641391889, 0.0, "ok"),
            ("fast", 15, 3, 1.4456176413918875, 1.0751890333730815e-15, "ok"),
            ("monte-carlo", 15, 3, 1.4287090240237348, 0.011696465845473576, "ok"),
            ("naive", 15, 5, 1.4225236241763184, 0.0, "ok"),
            ("fast", 15, 5, 1.4225236241763175, 6.243681332283011e-16, "ok"),
            ("monte-carlo", 15, 5, 1.4110660892414, 0.00805437234235927, "ok"),
            ("naive", 20, 2, 1.1435404801553146, 0.0, "ok"),
            ("fast", 20, 2, 1.143540480155315, 3.883458588101287e-16, "ok"),
            ("monte-carlo", 20, 2, 1.1276864660211698, 0.013863972818864707, "ok"),
            ("naive", 20, 3, 1.1108175087326904, 0.0, "ok"),
            ("fast", 20, 3, 1.1108175087326908, 3.997859291547494e-16, "ok"),
            ("monte-carlo", 20, 3, 1.0618124231384056, 0.0441162344030692, "ok"),
            ("naive", 20, 5, 1.0846550921528764, 0.0, "ok"),
            ("fast", 20, 5, 1.0846550921528757, 6.141434448557459e-16, "ok"),
            ("monte-carlo", 20, 5, 1.0670288499450715, 0.016250550368799188, "ok"),
            ("naive", 1000, 2, None, None, "refused"),
            ("fast", 1000, 2, 1.0798747374394624, 0.0, "ok"),
            ("monte-carlo", 1000, 2, 1.1050174054016013, 0.023282948559159553, "ok"),
            ("naive", 1000, 3, None, None, "refused"),
            ("fast", 1000, 3, 1.0504182497065297, 0.0, "ok"),
            ("monte-carlo", 1000, 3, 1.0481518630599698, 0.0021576040279128565, "ok"),
            ("naive", 1000, 5, None, None, "refused"),
            ("fast", 1000, 5, 1.0271781204734665, 0.0, "ok"),
            ("monte-carlo", 1000, 5, 1.0386534286810596, 0.011171682864802173, "ok"),
            ("naive", 100000, 2, None, None, "refused"),
            ("fast", 100000, 2, 1.08534463380253, 0.0, "ok"),
            ("monte-carlo", 100000, 2, 1.085165415618179, 0.00016512560044940462, "ok"),
            ("naive", 100000, 3, None, None, "refused"),
            ("fast", 100000, 3, 1.0560013625924602, 0.0, "ok"),
            ("monte-carlo", 100000, 3, 1.0484504463599098, 0.007150479630076525, "ok"),
            ("naive", 100000, 5, None, None, "refused"),
            ("fast", 100000, 5, 1.0328702877839968, 0.0, "ok"),
            ("monte-carlo", 100000, 5, 1.0128717410723742, 0.019362108628886106, "ok"),
        ]
        assert all((row[3] is None) == (row[6] == "refused") for row in rows)

    def test_negative_seed_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "bench", "--seed", "-1")
        assert (code, out, err) == (2, "", "error: seed must be >= 0, got -1\n")

    def test_cli_exit_zero(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--samples", "200", "--format", "plain")
        assert code == 0
        assert "speedup" in out


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "hardy_means", "mean", "-k", "2", "-s", "1", "-q", "0", "--data", "1,4,9"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "FastSymmetric" in result.stdout


# ---------------------------------------------------------------------------
# The exit path: ``python -m hardy_means`` ends without interpreter teardown


def run_module(*argv):
    """Exit status, stdout and stderr of ``python -m hardy_means <argv>``, as
    bytes; help text is wrapped at 80 columns."""
    environ = dict(os.environ, COLUMNS="80")
    result = subprocess.run([sys.executable, "-m", "hardy_means", *argv], capture_output=True, env=environ)
    return result.returncode, result.stdout, result.stderr


def run_in_process(capsys, monkeypatch, *argv):
    """What :func:`run_module` should see, from ``main`` in this process;
    argparse's exits give their status."""
    monkeypatch.setenv("COLUMNS", "80")
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out.encode(), captured.err.encode()


# Each way the command line ends, with its status.
_EXITS = {
    "success": (("mean", "-k", "2", "-s", "1", "-q", "0", "--data", "1,4,9", "--format", "json"), 0),
    "domain-error": (("mean", "-k", "2", "-s", "1", "-q", "0", "--data", "1,-2"), 2),
    "capacity-error": (("mean", "-k", "2", "-s", "2", "-q", "1", "--data", ",".join(map(str, range(1, 32)))), 3),
    "usage-error": (("mean", "-k", "2"), 2),
    "unknown-command": (("bogus",), 2),
    "help": (("--help",), 0),
    "command-help": (("classify", "--help"), 0),
}


@pytest.mark.parametrize("argv, status", _EXITS.values(), ids=_EXITS)
def test_module_exit_status_and_bytes(capsys, monkeypatch, argv, status):
    code, out, err = run_module(*argv)
    assert code == status
    assert (out != b"") == (status == 0) and (err != b"") == (status != 0)
    assert (code, out, err) == run_in_process(capsys, monkeypatch, *argv)


def test_output_past_a_megabyte_arrives_whole(capsys, monkeypatch):
    argv = ("classify", "--grid-k", "1..400", "--grid-s", "-inf,-1,0,0.25,0.5,1,2,3,10,inf", "--grid-q", "-1,0,1")
    code, out, err = run_module(*argv)
    assert len(out) > 2**20
    assert (code, out, err) == run_in_process(capsys, monkeypatch, *argv)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("unbuffered", [None, "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv",
    [
        ("classify", "--point", "2,1,0"),
        ("mean", "-k", "2", "-s", "1", "-q", "0", "--data", "1,4,9", "--format", "json"),
        # past the stdout buffer: the write itself fails
        ("classify", "--grid-k", "1..100", "--grid-s", "0,0.5,1,2", "--grid-q", "-1,0,1"),
        # argparse's help, which ignores a failed write of its own
        ("--help",),
        ("hardy-sum", "--help"),
    ],
)
def test_unwritable_stdout_is_one_error_line(argv, unbuffered):
    with open("/dev/full", "wb") as full:
        environ = dict(os.environ)
        environ.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            environ["PYTHONUNBUFFERED"] = unbuffered
        result = subprocess.run(
            [sys.executable, "-m", "hardy_means", *argv], stdout=full, stderr=subprocess.PIPE, env=environ
        )
    message = f"error: cannot write stdout: {OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))}\n"
    assert (result.returncode, result.stderr.decode()) == (2, message)


def test_console_script_is_the_module_exit_path():
    tomllib = pytest.importorskip("tomllib")
    pyproject = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")
    with open(pyproject, "rb") as handle:
        scripts = tomllib.load(handle)["project"]["scripts"]
    assert scripts == {"hardy-means": "hardy_means.__main__:run"}


# ---------------------------------------------------------------------------
# Start-up: the commands that need no arrays never import numpy, and the
# ones that do run on one thread


# Prepended to the code a fresh interpreter runs: at exit it reports on the
# last line of stderr whether numpy was ever imported, and how many OS
# threads the process holds (None where /proc/self/task is absent).
_REPORT_NUMPY = (
    "import atexit, os, sys\n"
    "def _report():\n"
    "    tasks = len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else None\n"
    "    sys.stderr.write(f\"numpy imported: {'numpy' in sys.modules}; threads: {tasks}\\n\")\n"
    "atexit.register(_report)\n"
)
_RUN_CLI = "import runpy\nrunpy.run_module('hardy_means', run_name='__main__', alter_sys=True)\n"


def run_fresh(code, *argv, blas_threads=None):
    """Run ``code`` in a fresh interpreter with ``argv``; return the exit
    code, stdout, stderr without the report line, the numpy part of the
    report and the thread count.  OPENBLAS_NUM_THREADS is set to
    ``blas_threads``, or unset."""
    env = {name: value for name, value in os.environ.items() if name != "OPENBLAS_NUM_THREADS"}
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    result = subprocess.run(
        [sys.executable, "-c", _REPORT_NUMPY + code, *argv], capture_output=True, text=True, env=env
    )
    *err, last = result.stderr.splitlines(keepends=True)
    report, _, threads = last.rstrip("\n").partition("; threads: ")
    return result.returncode, result.stdout, "".join(err), report + "\n", None if threads == "None" else int(threads)


_CLASSIFY_GRID = ("classify", "--grid-k", "1..3", "--grid-s", "-inf,-1,0,1,2", "--grid-q", "-1,0,inf")


@pytest.mark.parametrize(
    "argv",
    [
        ("--help",),
        ("classify", "--point", "2,1,0"),
        _CLASSIFY_GRID + ("--format", "plain"),
        _CLASSIFY_GRID + ("--format", "csv"),
        _CLASSIFY_GRID + ("--format", "json"),
    ],
)
def test_startup_without_numpy(argv):
    code, out, err, report, _ = run_fresh(_RUN_CLI, *argv)
    assert code == 0
    assert out and err == ""
    assert report == "numpy imported: False\n"


# Standard modules the numpy-free path does without: ``dataclasses`` brings
# ``inspect`` and ``ast``, and ``json`` and ``csv`` serve only their formats.
_HEAVY_MODULES = ("dataclasses", "inspect", "typing", "json", "csv")


@pytest.mark.parametrize(
    "argv",
    [
        ("--help",),
        ("classify", "--point", "2,1,0"),
        _CLASSIFY_GRID,
        ("mean", "-k", "2", "-s", "1", "-q", "0", "--data", "1,4,9"),
        ("mean", "-k", "2", "-s", "1.5", "-q", "1.5", "--data", "1,4,9,16"),
        ("hardy-sum", "--mean", "cmn:3,2,0", "--family", "harmonic-truncated:10", "-N", "1000"),
    ],
)
def test_numpy_free_path_loads_no_heavy_stdlib_module(argv):
    # -S: a site hook may import typing in every interpreter
    src = os.path.dirname(os.path.dirname(importlib.import_module("hardy_means").__file__))
    report = (
        "import atexit, sys\n"
        f"atexit.register(lambda: sys.stderr.write(repr([m for m in {_HEAVY_MODULES!r} if m in sys.modules])))\n"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", report + _RUN_CLI, *argv],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
    )
    assert (result.returncode, result.stderr) == (0, "[]")
    assert result.stdout


@pytest.mark.parametrize(
    "argv",
    [
        ("hardy-sum", "--mean", "cmn:3,2,0", "--family", "powertail:2", "-N", "20000"),
        ("estimate-constant", "--mean", "cmn:2,1,0", "-N", "20000"),
        ("verify", "--quick"),
    ],
)
def test_numpy_commands_load_no_dataclasses(argv):
    # -S as above, with numpy's own directory on the path
    src = os.path.dirname(os.path.dirname(importlib.import_module("hardy_means").__file__))
    site = os.path.dirname(os.path.dirname(importlib.import_module("numpy").__file__))
    report = "import atexit, sys\natexit.register(lambda: sys.stderr.write(repr('dataclasses' in sys.modules)))\n"
    result = subprocess.run(
        [sys.executable, "-S", "-c", report + _RUN_CLI, *argv],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=os.pathsep.join((src, site))),
    )
    assert (result.returncode, result.stderr) == (0, "False")
    assert result.stdout


def test_classify_domain_error_without_numpy():
    code, out, err, report, _ = run_fresh(_RUN_CLI, "classify", "--point", "2,1")
    assert code == 2
    assert out == ""
    assert err == "error: --point needs k,s,q, got '2,1'\n"
    assert report == "numpy imported: False\n"


@pytest.mark.parametrize("module", ["hardy_means", "hardy_means.cli"])
def test_import_without_numpy(module):
    code, _, err, report, _ = run_fresh(f"import {module}\n")
    assert (code, err) == (0, "")
    assert report == "numpy imported: False\n"


# The power-mean routes (k >= n, s = q, k = 1) and the e_k route within the
# scalar recurrence's range bound, with the bytes each format printed
# before these routes stopped loading numpy.
_NUMPY_FREE_MEANS = {
    ("-k", "5", "-s", "2", "-q", "0.5", "1,4,9"): (
        "4.000000000000001 (Degenerate)\n",
        "5,2,0.5,3,4.0000000000000009,Degenerate,,",
        '{"meta":{"command":"mean","mean":"cmn:5,2,0.5","seed":0},"rows":[{"k":5,"method":"Degenerate",'
        '"n":3,"q":0.5,"s":2,"samples":null,"stderr":null,"value":4.0000000000000009}]}\n',
    ),
    ("-k", "2", "-s", "1.5", "-q", "1.5", "1,4,9,16"): (
        "8.549879733383484 (Degenerate)\n",
        "2,1.5,1.5,4,8.5498797333834844,Degenerate,,",
        '{"meta":{"command":"mean","mean":"cmn:2,1.5,1.5","seed":0},"rows":[{"k":2,"method":"Degenerate",'
        '"n":4,"q":1.5,"s":1.5,"samples":null,"stderr":null,"value":8.5498797333834844}]}\n',
    ),
    ("-k", "1", "-s", "-1", "-q", "3", "1,4,9,16"): (
        "2.8097560975609754 (Degenerate)\n",
        "1,-1,3,4,2.8097560975609754,Degenerate,,",
        '{"meta":{"command":"mean","mean":"cmn:1,-1,3","seed":0},"rows":[{"k":1,"method":"Degenerate",'
        '"n":4,"q":3,"s":-1,"samples":null,"stderr":null,"value":2.8097560975609754}]}\n',
    ),
    # unsorted, as the e_k route sorts the entries
    ("-k", "3", "-s", "-2", "-q", "0", "9,1,25,4,16"): (
        "5.596930155677416 (FastSymmetric)\n",
        "3,-2,0,5,5.5969301556774163,FastSymmetric,,",
        '{"meta":{"command":"mean","mean":"cmn:3,-2,0","seed":0},"rows":[{"k":3,"method":"FastSymmetric",'
        '"n":5,"q":0,"s":-2,"samples":null,"stderr":null,"value":5.5969301556774163}]}\n',
    ),
    # n - k + 1 = 256 terms per level, which took the vector engine
    ("-k", "2", "-s", "1", "-q", "0", ",".join(map(str, range(1, 258)))): (
        "114.81755390192758 (FastSymmetric)\n",
        "2,1,0,257,114.81755390192758,FastSymmetric,,",
        '{"meta":{"command":"mean","mean":"cmn:2,1,0","seed":0},"rows":[{"k":2,"method":"FastSymmetric",'
        '"n":257,"q":0,"s":1,"samples":null,"stderr":null,"value":114.81755390192758}]}\n',
    ),
}


@pytest.mark.parametrize("source", ["--data", "--file"])
@pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
@pytest.mark.parametrize("case", _NUMPY_FREE_MEANS, ids=lambda case: "k{}s{}q{}".format(*case[1:6:2]))
def test_power_mean_and_short_e_k_routes_without_numpy(case, fmt, source, tmp_path):
    *flags, entries = case
    if source == "--file":
        path = tmp_path / "v.txt"
        path.write_text(entries.replace(",", "\n") + "\n", encoding="utf-8")
        entries = str(path)
    code, out, err, report, _ = run_fresh(_RUN_CLI, "mean", *flags, source, entries, "--format", fmt)
    plain, row, json_line = _NUMPY_FREE_MEANS[case]
    expected = {"plain": plain, "csv": f"k,s,q,n,value,method,samples,stderr\n{row}\n", "json": json_line}
    assert (code, err, report) == (0, "", "numpy imported: False\n")
    assert out == expected[fmt]


@pytest.mark.parametrize(
    "argv, message",
    [
        (("-k", "2", "-s", "1", "-q", "0", "--data", "-1,2"), "error: entry 0 is not strictly positive: -1.0\n"),
        (("-k", "0", "-s", "1", "-q", "0", "--data", "1,2"), "error: k must be >= 1, got 0\n"),
    ],
)
def test_mean_domain_errors_without_numpy(argv, message):
    assert run_fresh(_RUN_CLI, "mean", *argv)[:4] == (2, "", message, "numpy imported: False\n")


def test_vector_file_that_is_not_utf8_is_a_domain_error(tmp_path, capsys):
    path = tmp_path / "v.txt"
    path.write_bytes(b"\xff\xfe1\x00\n")
    message = f"error: cannot read {path}: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n"
    argv = ("mean", "-k", "1", "-s", "1", "-q", "1", "--file", str(path))
    assert run_fresh(_RUN_CLI, *argv)[:4] == (2, "", message, "numpy imported: False\n")
    argv = ("hardy-sum", "--mean", "power:0.5", "--family", f"custom:{path}", "-N", "1")
    assert run_cli(capsys, *argv) == (2, "", message)


def test_one_shot_exports_without_numpy():
    code, out, err, report, _ = run_fresh(
        "import hardy_means\n"
        "report = hardy_means.cmn_mean_fast(hardy_means.MeanParams(2, 1.0, 0.0), [1, 4, 9])\n"
        "assert isinstance(report, hardy_means.CmnEvalReport)\n"
        "print(report.value, report.method is hardy_means.EvalMethod.FAST_SYMMETRIC)\n"
    )
    assert (code, out, err, report) == (0, "3.6666666666666665 True\n", "", "numpy imported: False\n")


# The mean routes that need arrays, with the route each prints: enumeration,
# an e_k vector one entry past the scalar route's work cap ((n - k + 1) * k
# = 2622 * 50 steps, within its range test), a short one whose powers leave
# that range, and the Monte Carlo estimator.
_NUMPY_MEANS = {
    "mean": (("-k", "2", "-s", "2", "-q", "1", "--data", "1,4,9"), "Exact"),
    "mean-long": (("-k", "50", "-s", "1", "-q", "0", "--data", ",".join(map(str, range(1, 2672)))), "FastSymmetric"),
    "mean-wide": (("-k", "2", "-s", "3", "-q", "0", "--data", "1e-300,1e300,2,5"), "FastSymmetric"),
    "mean-sampled": (("-k", "2", "-s", "1", "-q", "1", "--data", "1,2,3,4,5", "--samples", "200"), "MonteCarlo"),
}


def test_numpy_commands_still_load_numpy():
    for argv, method in _NUMPY_MEANS.values():
        code, out, _, report, _ = run_fresh(_RUN_CLI, "mean", *argv, "--format", "csv")
        assert code == 0
        assert out.splitlines()[1].split(",")[5] == method
        assert report == "numpy imported: True\n"
    # one entry fewer, 2621 * 50 steps, is under the cap and loads no numpy
    argv = (*_NUMPY_MEANS["mean-long"][0][:-1], ",".join(map(str, range(1, 2671))))
    assert 2621 * 50 <= routes._SCALAR_STEPS < 2622 * 50
    code, out, _, report, _ = run_fresh(_RUN_CLI, "mean", *argv, "--format", "csv")
    assert (code, out.splitlines()[1].split(",")[5], report) == (0, "FastSymmetric", "numpy imported: False\n")


def test_long_e_k_file_without_numpy(tmp_path):
    # 2000 entries over three decades at k = 50: 1951 * 50 steps, and
    # 2*k*L + min(n, k*ceil(log2 n)) = 100 + 550, so the scalar route takes
    # it, with the vector engine's bits
    draws = random.Random(2000)
    v = [10.0 ** draws.uniform(-1.5, 1.5) for _ in range(2000)]
    path = tmp_path / "v.txt"
    path.write_text("".join(f"{x!r}\n" for x in v), encoding="utf-8")
    code, out, err, report, _ = run_fresh(_RUN_CLI, "mean", "-k", "50", "-s", "1", "-q", "0", "--file", str(path))
    assert (code, err, report) == (0, "", "numpy imported: False\n")
    ek, exponent = cmn_means.ElementarySymmetric(50).extend(*cmn_means._scaled_pows(np.asarray(sorted(v)), 1 / 50))
    value = routes._symmetric_mean(float(ek[-1]), int(exponent[-1]), 2000, 50, 1.0)
    assert min(v) < value < max(v)
    assert out == f"{value!r} (FastSymmetric)\n"


# The pair recurrence takes 2 steps a term, so 16384 terms are the most the
# scalar prefix engine runs, and 16385 go to the block engine.
_PAST_THE_PREFIX_CAP = ("hardy-sum", "--mean", "cmn:2,1,0", "--family", "powertail:2", "-N", "16385")


def test_hardy_sum_past_the_cap_loads_numpy():
    assert 16384 * 2 <= prefix._PREFIX_STEPS < 16385 * 2
    assert run_fresh(_RUN_CLI, *_PAST_THE_PREFIX_CAP[:-1], "16384")[3] == "numpy imported: False\n"
    assert run_fresh(_RUN_CLI, *_PAST_THE_PREFIX_CAP)[3] == "numpy imported: True\n"


_UNKNOWN_MEAN = "error: unknown mean 'bogus:1'; expected power:<p> or cmn:<k>,<s>,<q>\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("estimate-constant", "--mean", "bogus:1", "-N", "10"), _UNKNOWN_MEAN),
        (("hardy-sum", "--mean", "bogus:1", "--family", "powertail:2", "-N", "10"), _UNKNOWN_MEAN),
        (("hardy-sum", "--mean", "power:0.5", "--family", "foo", "-N", "10"),
         "error: unknown family 'foo'; expected harmonic, harmonic-truncated:<N0>, powertail:<alpha>, "
         "geometric:<r> or custom:<file>\n"),
    ],
)
def test_prefix_parse_errors_without_numpy(argv, message):
    # the mean and the family are parsed before any kernel is loaded
    assert run_fresh(_RUN_CLI, *argv)[:4] == (2, "", message, "numpy imported: False\n")


_NUMPY_COMMANDS = {
    **{name: ("mean", *argv, "--format", "json") for name, (argv, _) in _NUMPY_MEANS.items()},
    "hardy-sum": (*_PAST_THE_PREFIX_CAP, "--format", "csv"),
    "verify": ("verify", "--quick"),
}


@pytest.mark.parametrize("argv", _NUMPY_COMMANDS.values(), ids=_NUMPY_COMMANDS)
def test_numpy_commands_run_on_one_thread(argv):
    code, out, err, report, threads = run_fresh(_RUN_CLI, *argv)
    if threads is None:
        pytest.skip("no /proc/self/task to count threads")
    assert (code, err, report) == (0, "", "numpy imported: True\n")
    assert threads == 1
    # a pool the caller asks for is kept, and changes no output byte
    assert run_fresh(_RUN_CLI, *argv, blas_threads="2")[:3] == (code, out, err)


# Prepended to _RUN_CLI: at exit, just before the numpy report, one line of
# stderr names the package modules the command loaded beyond the ones
# ``import hardy_means.cli`` loads, and the next says whether it loaded
# ``numpy.random``.
_REPORT_KERNELS = (
    "import hardy_means.cli\n"
    "startup = set(sys.modules)\n"
    "atexit.register(lambda: sys.stderr.write(' '.join(sorted(\n"
    "    name.partition('.')[2] for name in set(sys.modules) - startup if name.startswith('hardy_means.')\n"
    ")) + f'\\nnumpy.random imported: {\"numpy.random\" in sys.modules}\\n'))\n"
)
_SCALAR_KERNELS = "_summation routes"
_SCALAR_PREFIX_KERNELS = "_summation prefix routes"
_SUBSET_KERNELS = "_parallel _summation cmn_means routes"
_PREFIX_KERNELS = "_parallel _summation cmn_means hardy prefix routes"
# Each command with the modules it loads and whether it imports numpy.  No
# command imports numpy.random: verify, bench and the Monte Carlo sampler
# draw from random.Random.
_KERNEL_MODULES = {
    "help": (("--help",), "", False),
    "classify": (("classify", "--point", "2,1,0"), "", False),
    "mean-degenerate": (("mean", "-k", "2", "-s", "1", "-q", "1", "--data", "1,4,9,16"), _SCALAR_KERNELS, False),
    "mean-e_k": (("mean", "-k", "2", "-s", "1", "-q", "0", "--data", ",".join(map(str, range(1, 601)))),
                 _SCALAR_KERNELS, False),
    "mean-exact": (("mean", *_NUMPY_MEANS["mean"][0]), _SUBSET_KERNELS, True),
    "mean-e_k-past-the-bound": (("mean", *_NUMPY_MEANS["mean-long"][0]), _SUBSET_KERNELS, True),
    "mean-sampled": (("mean", *_NUMPY_MEANS["mean-sampled"][0]), _SUBSET_KERNELS, True),
    "hardy-sum": (("hardy-sum", "--mean", "power:0.5", "--family", "powertail:2", "-N", "10"),
                  _SCALAR_PREFIX_KERNELS, False),
    "hardy-sum-past-the-cap": (_PAST_THE_PREFIX_CAP, _PREFIX_KERNELS, True),
    "estimate-constant": (("estimate-constant", "--mean", "power:0.5", "-N", "10"), _PREFIX_KERNELS, True),
    "verify": (("verify", "--quick"), f"{_PREFIX_KERNELS} verification", True),
    "bench": (("bench", "--samples", "200"), _SUBSET_KERNELS, True),
}


@pytest.mark.parametrize("argv, modules, numpy", _KERNEL_MODULES.values(), ids=_KERNEL_MODULES)
def test_each_command_loads_only_the_kernels_it_calls(argv, modules, numpy):
    code, out, err, report, _ = run_fresh(_REPORT_KERNELS + _RUN_CLI, *argv)
    # bench exits 1 when a loaded machine misses its speedup gate
    assert code == 0 or (argv[0], code) == ("bench", 1)
    assert out
    assert err.splitlines()[-2:] == [modules, "numpy.random imported: False"]
    assert report == f"numpy imported: {numpy}\n"


def test_only_the_cli_pins_blas_threads():
    show = "import os\nprint(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
    library = "import hardy_means.cmn_means, hardy_means.hardy, hardy_means.verification\n"
    cli_loaded = "import hardy_means.cli as cli\ncli._load_kernels()\n"
    assert run_fresh(library + show)[:3] == (0, "None\n", "")
    assert run_fresh(cli_loaded + show)[:3] == (0, "1\n", "")
    assert run_fresh(cli_loaded + show, blas_threads="2")[:3] == (0, "2\n", "")


# ---------------------------------------------------------------------------
# Lazy exports of the package and of the CLI module


def test_every_export_is_its_defining_object():
    import hardy_means

    for name in set(hardy_means.__all__) - {"__version__"}:
        value = getattr(hardy_means, name)
        defining = importlib.import_module(value.__module__)
        assert getattr(defining, name) is value, name
    assert hardy_means.MeanParams is cmn_means.MeanParams
    assert not hasattr(importlib.import_module("hardy_means.hardy"), "parse_mean")


def test_each_name_has_one_home():
    # a module's __all__ names only what it defines, so no two list a name
    homes = {}
    for info in pkgutil.iter_modules(importlib.import_module("hardy_means").__path__):
        if info.name != "__main__":
            for name in getattr(importlib.import_module(f"hardy_means.{info.name}"), "__all__", ()):
                homes.setdefault(name, []).append(info.name)
    assert {name: modules for name, modules in homes.items() if len(modules) > 1} == {}


# Module attributes the benchmark's traced run reads and patches, besides
# the cli names below.
_PATCHED_NAMES = {
    "cmn_means": ("cmn_mean_fast", "power_mean", "map_ordered", "subset_log_means", "power_mean_of_logs"),
    "verification": ("cmn_mean_fast", "power_mean", "sharpness_limit_curve"),
    "hardy": ("cmn_mean_fast", "KahanSum", "iter_hardy_checkpoints", "make_prefix_evaluator"),
}


def test_patched_module_names_stay_bound():
    for module, names in _PATCHED_NAMES.items():
        for name in names:
            assert callable(getattr(importlib.import_module(f"hardy_means.{module}"), name)), (module, name)


def test_classify_export_is_the_function_in_a_fresh_interpreter():
    code, out, err, *_ = run_fresh(
        "import hardy_means.classify\n"
        "import hardy_means\n"
        "from hardy_means import MeanParams\n"
        "module = sys.modules['hardy_means.classify']\n"
        "assert hardy_means.classify is module.classify\n"
        "print(hardy_means.classify(MeanParams(2, 1.0, 0.0)).verdict.value)\n"
        "for name in hardy_means.__all__:\n"
        "    getattr(hardy_means, name)\n"
        "assert hardy_means.classify is module.classify\n"
    )
    assert (code, out, err) == (0, "Hardy\n", "")


def test_package_dir_and_unknown_attribute():
    import hardy_means

    assert set(hardy_means.__all__) <= set(dir(hardy_means))
    with pytest.raises(AttributeError):
        hardy_means.no_such_export
    with pytest.raises(AttributeError):
        cli.no_such_kernel


def test_cli_answers_only_package_exports():
    # neither a dunder probe nor a submodule's name reaches a kernel
    code, out, err, report, _ = run_fresh(
        "import hardy_means.cli as cli\n"
        "startup = set(sys.modules)\n"
        "for name in ('__path__', '__wrapped__', 'no_such_kernel'):\n"
        "    assert not hasattr(cli, name), name\n"
        "assert set(sys.modules) == startup\n"
        "import hardy_means.routes\n"
        "assert not hasattr(cli, 'routes')\n"
        "assert cli.cmn_mean_fast is hardy_means.routes.cmn_mean_fast\n"
    )
    assert (code, out, err, report) == (0, "", "", "numpy imported: False\n")


# The cli names the benchmark's traced run reads and patches.
_CLI_NAMES = (
    "classify",
    "cmn_mean_fast",
    "cmn_mean_sampled",
    "iter_hardy_checkpoints",
    "sharpness_constant_sweep",
    "run_verification",
    "canonical_json",
    "rows_to_csv",
)


def test_cli_names_reachable_in_a_fresh_interpreter():
    code, out, err, *_ = run_fresh(
        "import hardy_means.cli as cli\n"
        f"for name in {_CLI_NAMES!r}:\n"
        "    print(name, callable(getattr(cli, name)))\n"
    )
    assert (code, err) == (0, "")
    assert out == "".join(f"{name} True\n" for name in _CLI_NAMES)


# The rest of what the benchmark's traced run looks up by name, besides
# _PATCHED_NAMES and _CLI_NAMES (checked above): the entry point and the
# names it reads from modules it uses whole.
_TRACED_NAMES = {
    "cli": ("main",),
    "classify": ("classify",),
    "_parallel": ("thread_count",),
    "_summation": ("KahanSum",),
    "errors": ("DomainError", "CapacityError"),
}
# The evaluators it counts by class name and replays by ``push``.
_REPLAYED_EVALUATORS = ("PowerMeanPrefix", "PairGeometricMeanPrefix", "SymmetricFunctionPrefix", "BufferedPrefix")


def test_every_name_the_traced_benchmark_reads_exists():
    for module, names in _TRACED_NAMES.items():
        for name in names:
            assert hasattr(importlib.import_module(f"hardy_means.{module}"), name), (module, name)
    hardy = importlib.import_module("hardy_means.hardy")
    for name in _REPLAYED_EVALUATORS:
        assert callable(getattr(hardy, name).push), name
    # its replay also walks ``terms`` of every family
    for family in typing.get_args(hardy.SequenceFamily):
        assert callable(family.terms), family


def test_kernel_bound_before_main_is_kept():
    # setattr before the first command: the loader must not overwrite it.
    code, out, err, *_ = run_fresh(
        "import hardy_means.cli as cli\n"
        "calls = []\n"
        "def patched(params, values):\n"
        "    calls.append(params)\n"
        "    return genuine(params, values)\n"
        "cli.cmn_mean_fast = patched\n"
        "from hardy_means.cmn_means import cmn_mean_fast as genuine\n"
        "code = cli.main(['mean', '-k', '2', '-s', '1', '-q', '0', '--data', '1,4,9'])\n"
        "print(code, len(calls))\n"
    )
    assert err == ""
    assert out.splitlines()[-1] == "0 1"


def test_monkeypatched_kernel_is_called(capsys, monkeypatch):
    calls = []
    genuine = cmn_means.cmn_mean_fast

    def patched(params, values):
        calls.append(params)
        return genuine(params, values)

    monkeypatch.setattr(cli, "cmn_mean_fast", patched)
    code, out, _ = run_cli(capsys, "mean", "-k", "2", "-s", "1", "-q", "0", "--data", "1,4,9")
    assert code == 0
    assert calls == [MeanParams(2, 1.0, 0.0)]


def test_run_bench_without_main_in_a_fresh_interpreter():
    code, out, err, *_ = run_fresh(
        "from hardy_means.cli import run_bench\n"
        "rows, speedup = run_bench(samples=200)\n"
        "print(len(rows), speedup > 0)\n"
    )
    assert (code, err) == (0, "")
    # one naive (or refused), one fast and one Monte Carlo row per cell
    assert out == f"{3 * len(cli._BENCH_SIZES) * len(cli._BENCH_SUBSETS)} True\n"


# ---------------------------------------------------------------------------
# Fail fast and truthfully: extreme and malformed input never escapes as a
# traceback, and every hint names a flag of the command that printed it

# Entries and exponents in the double range, then the ones every command
# must refuse.  Examples draw from the valid ones more often.
_GOOD_ENTRIES = ("1e-300", "1e300", "5e-324", "1", "2.5")
_BAD_ENTRIES = ("0", "-1", "nan", "inf")
_GOOD_EXPONENTS = ("-1e3", "-2", "-1", "-0.5", "0", "1e-300", "0.5", "1", "2", "1e3", "inf", "-inf")
_BAD_EXPONENTS = ("nan", "1e3000", "one", "")
_FLAGS = {
    "mean": {"-k", "-s", "-q", "--data", "--file", "--samples", "--seed", "--format", "--output"},
    "hardy-sum": {"--mean", "--family", "-N", "--allow-nonsummable", "--format", "--output"},
    "estimate-constant": {"--mean", "-N", "--format", "--output"},
    "verify": {"--quick", "-N", "--vectors", "--seed", "--format", "--output"},
}
_FLAG = re.compile(r"(?<![\w-])--?[A-Za-z][\w-]*")

_entry_lists = st.tuples(
    st.one_of(
        st.lists(st.sampled_from(_GOOD_ENTRIES), min_size=1, max_size=6),
        st.lists(st.sampled_from(_GOOD_ENTRIES + _BAD_ENTRIES), min_size=1, max_size=6),
    ),
    st.sampled_from((0, 0, 30)),  # pads past MAX_ENUMERATION_N
).map(lambda t: t[0] + ["1.5"] * t[1])
_exponents = st.one_of(st.sampled_from(_GOOD_EXPONENTS), st.sampled_from(_GOOD_EXPONENTS + _BAD_EXPONENTS))
_mean_specs = st.one_of(
    st.builds("power:{}".format, _exponents),
    st.builds("cmn:{},{},{}".format, st.sampled_from(("1", "2", "3", "12")), _exponents, _exponents),
    st.builds("cmn:{},{},{}".format, st.sampled_from(("0", "-1", "x", "2.5")), _exponents, _exponents),
    st.sampled_from(("power:", "power:abc", "cmn:2,1", "cmn:2,1,0,5", "cmn:", "cmn:2,,0", "mean:1", "")),
)
_lengths = st.one_of(st.sampled_from((1, 2, 30, 31, 100)), st.sampled_from((-1, 0, 1, 2, 30, 31, 100)))  # around BufferedPrefix's cap of 30
_families = st.one_of(
    st.sampled_from(("harmonic-truncated:10", "powertail:2", "powertail:1e3", "geometric:0.5", "geometric:1e-300", "custom")),
    st.sampled_from(("harmonic", "harmonic-truncated:0", "powertail:-1", "powertail:nan", "geometric:2", "bogus")),
)


def run_quietly(argv, tmp_dir, entries):
    """``main(argv)`` in process, with ``custom`` and ``FILE`` tokens
    pointing at a file of ``entries``; returns (exit code, stderr)."""
    path = os.path.join(tmp_dir, "terms.txt")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(entries) + "\n")
    argv = [f"custom:{path}" if a == "custom" else path if a == "FILE" else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def check_fails_fast(command, argv, entries, quiet=(0,), codes=(0, 2, 3)):
    """Run ``command``: it exits with one of ``codes`` and prints one line
    to stderr, or nothing exactly when it exits with one of ``quiet``."""
    with tempfile.TemporaryDirectory() as tmp_dir:
        code, err = run_quietly([command, *argv], tmp_dir, entries)
    assert code in codes, (argv, err)
    assert "Traceback" not in err
    assert err.count("\n") <= 1 and err.endswith("\n") == bool(err), (argv, err)
    assert (code in quiet) == (err == ""), (argv, err)
    for hint in re.findall(r"hint: ([^;]*)", err):
        flags = _FLAG.findall(hint)
        assert flags and set(flags) <= _FLAGS[command], (argv, err)


@settings(max_examples=100)
@example(k="2", s="2", q="1", entries=["1.5"] * 31, source="--data", samples=None)  # capacity
@example(k="3", s="1e3", q="-1e3", entries=["1e300", "5e-324", "1"], source="--file", samples="100")
@example(k="2", s="1", q="0", entries=["-1", "2"], source="--data", samples=None)  # a dash-led value
@given(
    k=st.one_of(st.sampled_from(("1", "2", "3", "12")), st.sampled_from(("1", "2", "3", "12", "0", "-1"))),
    s=_exponents,
    q=_exponents,
    entries=_entry_lists,
    source=st.sampled_from(("--data", "--data=", "--file")),
    samples=st.sampled_from((None, "99", "100", "1000")),
)
def test_mean_fails_fast(k, s, q, entries, source, samples):
    argv = ["-k", k, "-s", s, "-q", q]
    if source == "--file":
        argv += ["--file", "FILE"]
    elif source == "--data":  # flag and value as two tokens
        argv += ["--data", ",".join(entries)]
    else:
        argv += [f"--data={','.join(entries)}"]
    if samples is not None:
        argv += ["--samples", samples]
    check_fails_fast("mean", argv, entries)


@settings(max_examples=100)
@example(mean="cmn:12,2,-1", family="powertail:2", n=100, entries=[], nonsummable=False)  # capacity
@example(mean="cmn:3,2,-1", family="harmonic", n=31, entries=[], nonsummable=True)  # past the cap
@example(mean="power:1e3", family="custom", n=3, entries=["1e300", "1", "5e-324"], nonsummable=False)
@given(
    mean=_mean_specs,
    family=_families,
    n=_lengths,
    entries=_entry_lists,
    nonsummable=st.booleans(),
)
def test_hardy_sum_fails_fast(mean, family, n, entries, nonsummable):
    argv = ["--mean", mean, "--family", family, "-N", str(n)]
    if nonsummable:
        argv.append("--allow-nonsummable")
    check_fails_fast("hardy-sum", argv, entries)


@settings(max_examples=60)
@example(mean="cmn:12,2,-1", n=100)  # capacity
@example(mean="cmn:3,2,-1", n=31)  # past the cap
@given(mean=_mean_specs, n=_lengths)
def test_estimate_constant_fails_fast(mean, n):
    check_fails_fast("estimate-constant", ["--mean", mean, "-N", str(n)], [])


@settings(max_examples=40)
@example(n="1", vectors="2", seed="0", fmt="plain")
@example(n="50", vectors="0", seed="1", fmt="json")
@example(n="2", vectors="1", seed="-1", fmt="csv")
@given(
    n=st.sampled_from(("-1", "0", "1", "2", "50", "100", "1000")),
    vectors=st.sampled_from(("-3", "0", "1", "2", "3")),
    seed=st.sampled_from(("-1", "0", "1", str(2**64))),
    fmt=st.sampled_from(("plain", "json", "csv")),
)
def test_verify_fails_fast(n, vectors, seed, fmt):
    # exit 1 is a property failure: reported on stdout, not stderr
    argv = ["-N", n, "--vectors", vectors, "--seed", seed, "--format", fmt]
    check_fails_fast("verify", argv, [], quiet=(0, 1), codes=(0, 1, 2))
