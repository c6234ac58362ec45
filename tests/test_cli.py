"""Command-line behaviour: exit codes, formats, stable machine output."""

import csv
import json
import sys
from pathlib import Path

import pytest

import itmflow.cli
from itmflow import ItmResult, ScanGrid, scan
from itmflow.cli import _increase_percent, main, run

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_negative_seed_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "sakiadis", "--h0", "-1")
        assert code == 1
        assert "h0" in err
        assert out == ""

    def test_newton_positive_sign_rejected(self, capsys):
        code, _, err = run_cli(capsys, "sakiadis", "--root-finder", "newton",
                               "--sign", "1")
        assert code == 1
        assert "sign" in err

    def test_equal_secant_seeds_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "sakiadis", "--h0", "3", "--h1", "3")
        assert code == 1

    def test_single_eta_check_rejected(self, capsys):
        for checks in ("4", ""):
            code, _, err = run_cli(capsys, "blasius", "--eta-checks", checks,
                                   "--agreement-tol", "1e-12")
            assert code == 1
            assert "two" in err

    def test_malformed_eta_checks_rejected(self, capsys):
        code, out, err = run_cli(capsys, "blasius", "--eta-checks", "4,x")
        assert code == 1
        assert out == ""
        assert "invalid eta checks '4,x'" in err

    def test_infinite_agreement_tol_rejected(self, capsys):
        # JSON has no Infinity, so the config block could not be written
        code, out, err = run_cli(capsys, "blasius", "--agreement-tol", "inf",
                                 "--format", "json")
        assert code == 1
        assert out == ""
        assert "agreement_tol must be finite" in err

    def test_unknown_flag(self, capsys):
        code, _, _ = run_cli(capsys, "sakiadis", "--frobnicate")
        assert code == 1

    def test_nonconvergence_exit(self, capsys):
        code, out, _ = run_cli(capsys, "sakiadis", "--max-iterations", "3")
        assert code == 2
        assert "not converged" in out

    def test_topfer_disagreement_exit(self, capsys):
        # Agreement is checked before the rescale, so tiny boundaries that
        # disagree exit 2 however small their far slopes are
        for argv in (("4,6", "--agreement-tol", "1e-9"), ("1e-200,2e-200",)):
            code, _, err = run_cli(capsys, "blasius", "--eta-checks", *argv)
            assert code == 2
            assert "agree" in err

    def test_topfer_overflowing_wall_shear_is_usage_error(self, capsys):
        # A tolerance loose enough to accept the parameters 1e150 and 7.07e149
        # reaches the rescale by sqrt(2e-300), whose lam**-3 overflows; the
        # default tolerance rejects the pair first
        code, out, err = run_cli(capsys, "blasius", "--eta-checks", "1e-300,2e-300",
                                 "--agreement-tol", "1e300")
        assert code == 1
        assert out == ""
        assert err == "itmflow: group parameter 1.41421e-150 is too small: lam**-3 overflows\n"
        code, out, err = run_cli(capsys, "blasius", "--eta-checks", "1e-300,2e-300")
        assert code == 2
        assert out == ""
        assert "agree" in err

    def test_diverging_seeds_converge(self, capsys):
        # Both seeds lie below the root and are certified: h* doubles until
        # a probe lands above the root, and the bracket closes on it.
        code, out, err = run_cli(capsys, "sakiadis", "--h0", "0.5", "--h1", "0.6")
        assert code == 0
        assert err == ""
        assert "f''(0) = -0.443761" in out

    def test_degenerate_far_field_seed_converges(self, capsys):
        # At eta_inf = 15 the seed h* = 2.5 is certified below the root.
        code, out, err = run_cli(capsys, "sakiadis", "--eta-inf", "15")
        assert code == 0
        assert err == ""
        assert "f''(0) = -0.443748" in out

    def test_positive_sign_exits_two(self, capsys):
        # Every sign +1 probe has Gamma < -3/4: no root, stop after the seeds.
        code, out, _ = run_cli(capsys, "sakiadis", "--sign", "1", "--max-iterations", "8")
        assert code == 2
        assert out.endswith("not converged after 2 Gamma evaluations\n")

    def test_step_budget_env_is_ignored(self, capsys, monkeypatch):
        # The flags are the whole configuration: no environment variable is read.
        for budget in ("10", "banana"):
            monkeypatch.setenv("ITM_MAX_STEPS", budget)
            code, out, err = run_cli(capsys, "sakiadis")
            assert code == 0
            assert err == ""
            assert out.encode("utf-8") == (GOLDEN / "sakiadis.table").read_bytes()

    def test_console_script_entry_point(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["itmflow", "sakiadis"])
        with pytest.raises(SystemExit) as exc:
            run()
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.encode("utf-8") == (GOLDEN / "sakiadis.table").read_bytes()


class TestSakiadisCommand:
    def test_table_defaults(self, capsys):
        code, out, _ = run_cli(capsys, "sakiadis")
        assert code == 0
        assert "converged: h* = 2.954391" in out
        assert "-0.443761" in out

    def test_newton_row_count(self, capsys):
        code, out, _ = run_cli(capsys, "sakiadis", "--root-finder", "newton")
        assert code == 0
        rows = [line for line in out.splitlines() if line.lstrip()[:1].isdigit()]
        assert len(rows) == 7

    def test_csv_trajectory(self, capsys):
        code, out, _ = run_cli(capsys, "sakiadis", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "eta,f,df,ddf"
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == 0.0
        assert abs(float(first[2]) - 1.0) <= 1e-9

    def test_json_document(self, capsys):
        code, out, _ = run_cli(capsys, "sakiadis", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"config", "iterates", "final", "verdict"}
        assert doc["verdict"] == "converged"
        assert doc["config"]["root_finder"] == "secant"
        assert doc["final"]["gamma_evaluations"] == len(doc["iterates"]) == 10
        assert abs(doc["final"]["wall_shear"] - (-0.443761)) <= 1e-5
        assert {"j", "h_star", "lambda", "gamma", "wall_shear"} == set(doc["iterates"][0])

    def test_certified_probe_renders_without_numbers(self, capsys):
        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        code, out, _ = run_cli(capsys, "sakiadis", "--h0", "0.5", "--h1", "0.6",
                               "--format", "json")
        assert code == 0
        doc = json.loads(out, parse_constant=reject)
        assert doc["iterates"][0] == {"j": 0, "h_star": 0.5, "lambda": None,
                                      "gamma": None, "wall_shear": None}
        assert doc["final"]["converged"] is True
        code, out, _ = run_cli(capsys, "sakiadis", "--h0", "0.5", "--h1", "0.6")
        assert out.splitlines()[1].split() == ["0", "0.500000", "-", "-", "-"]

    def test_verbose_metadata_on_stderr(self, capsys):
        code, out, err = run_cli(capsys, "sakiadis", "--verbose")
        assert code == 0
        assert "gamma_evaluations=" in err
        assert "gamma_evaluations=" not in out


class TestBlasiusCommand:
    def test_table_defaults(self, capsys):
        code, out, _ = run_cli(capsys, "blasius")
        assert code == 0
        assert "accepted at eta* = 6" in out

    def test_json_values(self, capsys):
        code, out, _ = run_cli(capsys, "blasius", "--format", "json")
        doc = json.loads(out)
        assert code == 0
        assert abs(doc["final"]["wall_shear"] - 0.332057) <= 1e-5
        assert doc["final"]["accepted_eta_star"] == 6.0
        assert [it["eta_star"] for it in doc["iterates"]] == [4.0, 6.0, 8.0, 10.0]

    def test_pair_checks_accepted(self, capsys):
        code, out, _ = run_cli(capsys, "blasius", "--eta-checks", "4,6")
        assert code == 0
        assert "accepted at eta* = 6" in out

    def test_csv_trajectory(self, capsys):
        code, out, _ = run_cli(capsys, "blasius", "--format", "csv")
        lines = out.splitlines()
        assert lines[0] == "eta,f,df,ddf"
        last = lines[-1].split(",")
        assert abs(float(last[2]) - 1.0) <= 1e-5


class TestScanCommand:
    def test_negative_branch_csv(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--sign", "-1", "--h-min", "2.5",
                               "--h-max", "3.5", "--count", "5", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "h_star,gamma,lambda,failed"
        assert lines[-1] == "# verdict: unique_zero"

    def test_csv_round_trips_the_samples(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--h-min", "2.5", "--h-max", "3.5",
                               "--count", "5", "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()[:-1]))  # drop the verdict line
        samples = scan(ScanGrid(2.5, 3.5, 5), -1).samples
        assert len(rows) == len(samples) == 5
        for row, sample in zip(rows, samples):
            assert abs(float(row["h_star"]) - sample.h_star) <= 1e-12
            assert abs(float(row["gamma"]) - sample.gamma) <= 1e-12
            assert abs(float(row["lambda"]) - sample.lam) <= 1e-12
            assert row["failed"] == "false"

    def test_positive_branch_verdict(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--sign", "1", "--h-min", "0.5",
                               "--h-max", "20", "--count", "10")
        assert code == 0
        assert "verdict: no_zero" in out

    def test_window_without_root(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--h-min", "5", "--h-max", "6",
                               "--sign", "-1", "--count", "4")
        assert code == 0
        assert "verdict: no_zero" in out

    def test_json_nulls_for_failed(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--h-min", "0.5", "--h-max", "3.5",
                               "--count", "4", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["iterates"][0]["failed"] is True
        assert doc["iterates"][0]["gamma"] is None
        assert doc["verdict"] in ("unique_zero", "inconclusive", "no_zero",
                                  "multiple_zeros")

    def test_all_failed_exit(self, capsys):
        # Tolerances this tight end every probe uncertified, in a step underflow.
        code, _, err = run_cli(capsys, "scan", "--h-min", "0.5", "--h-max", "1",
                               "--count", "2", "--sign", "-1",
                               "--abs-tol", "1e-300", "--rel-tol", "1e-300")
        assert code == 3
        assert err.startswith("itmflow: integration failed: every probe failed")

    def test_all_certified_scan_has_no_zero(self, capsys):
        code, out, err = run_cli(capsys, "scan", "--h-min", "0.5", "--h-max", "2.0",
                                 "--count", "4", "--format", "csv")
        assert code == 0
        assert err == ""
        assert out.endswith("# verdict: no_zero\n")
        assert out.count(",true\n") == 4


class TestCompareCommand:
    def test_table(self, capsys):
        code, out, _ = run_cli(capsys, "compare")
        assert code == 0
        assert "wall-shear increase: 33.64%" in out

    def test_json_values(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "--format", "json")
        doc = json.loads(out)
        assert abs(doc["final"]["increase_percent"] - 33.64) <= 0.05
        assert abs(doc["final"]["blasius_wall_shear"] - 0.332057) <= 1e-5
        assert abs(doc["final"]["sakiadis_wall_shear"] - (-0.443761)) <= 1e-5

    def test_csv_row(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "--format", "csv")
        lines = out.splitlines()
        assert lines[0] == "blasius_wall_shear,sakiadis_wall_shear,increase_percent"
        values = [float(x) for x in lines[1].split(",")]
        assert len(values) == 3

    def test_not_converged_sakiadis_prints_nothing(self, capsys, monkeypatch):
        monkeypatch.setattr(itmflow.cli, "solve_sakiadis", lambda config: ItmResult([], False))
        code, out, err = run_cli(capsys, "compare")
        assert code == 2
        assert out == ""
        assert err == "itmflow: Sakiadis solve did not converge\n"

    def test_increase_of_identical_problem_is_zero(self):
        assert _increase_percent(-0.44, -0.44) == 0.0
        assert _increase_percent(0.332057, -0.443761) == pytest.approx(33.64, abs=0.05)


class TestOutputFile:
    def test_output_matches_stdout(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "sakiadis", "--format", "csv")
        path = tmp_path / "traj.csv"
        code2 = main(["sakiadis", "--format", "csv", "--output", str(path)])
        capsys.readouterr()
        assert code == code2 == 0
        assert path.read_bytes().decode() == out

    @pytest.mark.parametrize("where", ["missing/x", "."])
    def test_unwritable_path_is_an_error(self, capsys, tmp_path, where):
        path = tmp_path / where
        code, out, err = run_cli(capsys, "blasius", "--output", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith(f"itmflow: cannot write {path}: ")


# golden file stem: (subcommand and flags, exit code); every format is frozen
GOLDEN_CASES = {
    "sakiadis": (("sakiadis",), 0),
    "blasius": (("blasius",), 0),
    "scan": (("scan",), 0),
    "compare": (("compare",), 0),
    "sakiadis-newton": (("sakiadis", "--root-finder", "newton"), 0),
    # not converged: a table and a document, but no trajectory (empty csv)
    "sakiadis-max3": (("sakiadis", "--max-iterations", "3"), 2),
    # failed probes: '-' rows in the table, nan in the csv, null in json
    "scan-failed": (("scan", "--h-min", "0.5", "--h-max", "3.5", "--count", "6"), 0),
    "blasius-pair": (("blasius", "--eta-checks", "4,6"), 0),
}


@pytest.mark.parametrize("stem, fmt", [(stem, fmt) for stem in GOLDEN_CASES
                                       for fmt in ("table", "csv", "json")])
def test_default_output_matches_golden(capsys, stem, fmt):
    """Stdout of every subcommand and format, frozen byte for byte.

    Default settings first, then the non-default paths: Newton, no
    convergence, failed scan probes and a two-boundary Topfer check.
    Unlike the rerun check in the acceptance suite, this catches a change of
    output across versions of the code (e.g. a kernel rewrite).
    """
    argv, expected_code = GOLDEN_CASES[stem]
    code, out, _ = run_cli(capsys, *argv, "--format", fmt)
    assert code == expected_code
    assert out.encode("utf-8") == (GOLDEN / f"{stem}.{fmt}").read_bytes()


@pytest.mark.parametrize("argv, expected", [
    (("sakiadis",),
     "itmflow: root_finder=secant gamma_evaluations=10\n"),
    (("sakiadis", "--root-finder", "newton"),
     "itmflow: root_finder=newton gamma_evaluations=7\n"),
    (("sakiadis", "--max-iterations", "3", "--format", "csv"),
     "itmflow: root_finder=secant gamma_evaluations=3\n"
     "itmflow: not converged; no trajectory to export\n"),
    (("blasius",), "itmflow: accepted_eta=6.0\n"),
    (("scan",), "itmflow: samples=40 failed=4\n"),
    (("compare",), "itmflow: gamma_evaluations=10 accepted_eta=6.0\n"),
], ids=["sakiadis", "newton", "not-converged-csv", "blasius", "scan", "compare"])
def test_verbose_stderr_line(capsys, argv, expected):
    _, _, err = run_cli(capsys, *argv, "--verbose")
    assert err == expected


# A child process where any import of numpy fails runs one command line.
_CHILD = """
import sys
sys.modules["numpy"] = None
from itmflow.cli import main
sys.exit(main(sys.argv[1:]))
"""


# The command lines of perfbench's cli workload, with their golden file if one exists.
BENCHMARK_COMMANDS = [
    (("sakiadis",), "sakiadis.table"),
    (("sakiadis", "--root-finder", "newton", "--format", "json"), "sakiadis-newton.json"),
    (("blasius", "--format", "csv"), "blasius.csv"),
    (("compare", "--format", "json"), "compare.json"),
    (("scan", "--count", "10", "--format", "csv"), None),
]


@pytest.mark.parametrize("argv, golden", BENCHMARK_COMMANDS + [
    (("scan", "--spacing", "logarithmic", "--count", "5", "--format", "csv"), None),
])
def test_command_line_runs_without_numpy(capsys, fresh_python, argv, golden):
    child = fresh_python(_CHILD, *argv)
    assert (child.returncode, child.stderr) == (0, "")
    # A child without numpy prints what this process prints, numpy loaded here or not.
    assert child.stdout == run_cli(capsys, *argv)[1]
    if golden is not None:
        assert child.stdout.encode("utf-8") == (GOLDEN / golden).read_bytes()


# The records are not dataclasses, so a command line imports neither
# dataclasses nor the inspect module that it imports.
_MODULES_CHILD = """
import sys
from itmflow.cli import main
status = main(sys.argv[1:])
print("loaded:", sorted({"dataclasses", "inspect"} & set(sys.modules)), file=sys.stderr)
sys.exit(status)
"""


@pytest.mark.parametrize("argv", [argv for argv, _ in BENCHMARK_COMMANDS])
def test_command_line_imports_no_dataclasses_or_inspect(fresh_python, argv):
    child = fresh_python(_MODULES_CHILD, *argv)
    assert (child.returncode, child.stderr) == (0, "loaded: []\n")


# Only JSON output imports json, so the other command lines never load it.
_JSON_CHILD = """
import sys
from itmflow.cli import main
status = main(sys.argv[1:])
print("json loaded:", "json" in sys.modules, file=sys.stderr)
sys.exit(status)
"""


@pytest.mark.parametrize("argv", [argv for argv, _ in BENCHMARK_COMMANDS
                                  if "json" not in argv])
def test_command_line_imports_json_only_for_json_output(fresh_python, argv):
    child = fresh_python(_JSON_CHILD, *argv)
    assert (child.returncode, child.stderr) == (0, "json loaded: False\n")
