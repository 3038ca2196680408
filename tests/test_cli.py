import json
import math
import subprocess
import sys

import pytest

from hardy_means import MeanParams, cmn_mean_naive
from hardy_means import cmn_means
from hardy_means._format import canonical_json
from hardy_means.cli import main, run_bench


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


class TestVerifyCommand:
    def test_quick_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--quick", "--vectors", "25", "-N", "1000", "--seed", "3"
        )
        assert code == 0
        assert "[PASS] oracle-equivalence" in out
        assert "all properties passed" in out

    def test_injected_fault_exit_1(self, capsys, monkeypatch):
        genuine = cmn_means._elementary_symmetric

        def broken(values, k, p):
            ek, exponent = genuine(values, k, p)
            return ek * math.exp(0.05), exponent

        monkeypatch.setattr(cmn_means, "_elementary_symmetric", broken)
        code, out, _ = run_cli(
            capsys, "verify", "--quick", "--vectors", "25", "-N", "1000", "--seed", "3"
        )
        assert code == 1
        assert "[FAIL] oracle-equivalence" in out


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
