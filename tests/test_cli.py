import json
import math
import os
import subprocess
import sys

import pytest

from xxqst import InternalConsistencyError, __version__
from xxqst.cli import build_parser, main, parse_time
from xxqst.optimize import DEFAULT_ETA_RANGE, DEFAULT_T_RANGE


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------

def test_parse_time_tokens():
    assert parse_time("pi/4") == math.pi / 4
    assert parse_time("PI") == math.pi
    assert parse_time("1.25") == 1.25
    with pytest.raises(ValueError):
        parse_time("two")


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert capsys.readouterr().out.strip() == __version__


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


def test_named_profile_requires_length(capsys):
    code, _, err = run_cli(capsys, "coefficients", "--t-max", "1", "--steps", "4")
    assert code == 2
    assert "--n" in err


def test_explicit_couplings_imply_length(capsys):
    code, out, _ = run_cli(
        capsys, "coefficients", "--profile", "2,2", "--t-max", "pi/4",
        "--steps", "3", "--no-timestamp",
    )
    assert code == 0
    header = [line for line in out.splitlines() if line.startswith("t,")][0]
    assert header == "t,alpha_1,alpha_2,alpha_3"


def test_explicit_couplings_contradicting_length(capsys):
    code, _, err = run_cli(
        capsys, "coefficients", "--profile", "2,2", "--n", "4",
        "--t-max", "1", "--steps", "3",
    )
    assert code == 2
    assert "contradicts" in err


def test_bad_step_count(capsys):
    code, _, err = run_cli(
        capsys, "coefficients", "--n", "4", "--t-max", "1", "--steps", "1",
    )
    assert code == 2
    assert "steps" in err


def test_unwritable_output_path(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "coefficients", "--n", "3", "--t-max", "1", "--steps", "3",
        "--out", str(tmp_path / "missing" / "trace.csv"),
    )
    assert code == 2


# ---------------------------------------------------------------------------
# coefficients
# ---------------------------------------------------------------------------

def test_coefficients_perfect_chain_endpoint(capsys):
    code, out, _ = run_cli(
        capsys, "coefficients", "--n", "6", "--t-max", "pi/4",
        "--steps", "9", "--no-timestamp",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == f"# artifact-version: {__version__}"
    assert lines[1].startswith("# config: ")
    assert lines[2] == "t,alpha_1,alpha_2,alpha_3,alpha_4,alpha_5,alpha_6"
    first = lines[3].split(",")
    last = lines[-1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == pytest.approx(1.0, abs=1e-12)
    assert float(last[0]) == pytest.approx(math.pi / 4, abs=1e-15)
    assert abs(float(last[-1])) == pytest.approx(1.0, abs=1e-9)


def test_coefficients_config_records_profile(capsys):
    code, out, _ = run_cli(
        capsys, "coefficients", "--n", "4", "--t-max", "1",
        "--steps", "3", "--no-timestamp",
    )
    assert code == 0
    config = json.loads(out.splitlines()[1].removeprefix("# config: "))
    assert config["command"] == "coefficients"
    assert config["profile"]["n"] == 4
    assert config["steps"] == 3


def test_coefficients_boundary_peak_near_revival(tmp_path, capsys):
    out_file = tmp_path / "trace.csv"
    code, _, _ = run_cli(
        capsys, "coefficients", "--profile", "boundary:0.815", "--n", "5",
        "--t-max", "4", "--steps", "401", "--no-timestamp",
        "--out", str(out_file),
    )
    assert code == 0
    rows = [
        line.split(",") for line in out_file.read_text().splitlines()
        if not line.startswith(("#", "t,"))
    ]
    best = max(rows, key=lambda r: float(r[-1]) ** 2)
    assert float(best[-1]) ** 2 > 0.999
    assert 1.8 <= float(best[0]) <= 2.0


# ---------------------------------------------------------------------------
# transfer
# ---------------------------------------------------------------------------

def test_transfer_perfect_chain_branches(capsys):
    code, out, _ = run_cli(
        capsys, "transfer", "--n", "5", "--input", "+y", "--no-timestamp",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["artifact_version"] == __version__
    branches = doc["branches"]
    assert len(branches) == 4
    for branch in branches:
        assert set(branch) == {
            "outcome_pre", "outcome_post", "fidelity", "output_bloch",
            "correction", "probability",
        }
        assert branch["fidelity"] == pytest.approx(1.0, abs=1e-9)
        assert branch["probability"] == pytest.approx(0.25, abs=1e-9)


def test_transfer_boundary_chain_below_unit(capsys):
    code, out, _ = run_cli(
        capsys, "transfer", "--profile", "boundary:0.815", "--n", "5",
        "--t", "1.9", "--input", "+x", "--no-timestamp",
    )
    assert code == 0
    for branch in json.loads(out)["branches"]:
        assert 0.99 < branch["fidelity"] < 0.9999


def test_transfer_thermal_medium(capsys):
    code, out, _ = run_cli(
        capsys, "transfer", "--n", "4", "--medium", "thermal:1.0",
        "--input=-y", "--no-timestamp",
    )
    assert code == 0
    for branch in json.loads(out)["branches"]:
        assert branch["fidelity"] == pytest.approx(1.0, abs=1e-9)


def test_transfer_sampled_run(capsys):
    code, out, _ = run_cli(
        capsys, "transfer", "--n", "4", "--sample", "--seed", "9",
        "--no-timestamp",
    )
    assert code == 0
    result = json.loads(out)["result"]
    assert result["outcome_pre"] in (1, -1)
    assert result["fidelity"] == pytest.approx(1.0, abs=1e-9)
    code2, out2, _ = run_cli(
        capsys, "transfer", "--n", "4", "--sample", "--seed", "9",
        "--no-timestamp",
    )
    assert out2 == out


def test_transfer_bad_medium(capsys):
    code, _, err = run_cli(
        capsys, "transfer", "--n", "4", "--medium", "warm",
    )
    assert code == 2
    assert "medium" in err


def test_transfer_size_cap_exit_code(capsys, monkeypatch):
    monkeypatch.setenv("XXQST_ORACLE_CAP", "14")
    code, _, err = run_cli(
        capsys, "--oracle-cap", "4", "transfer", "--n", "6",
    )
    assert code == 3
    assert "cap" in err or "limit" in err or "sites" in err


def test_oracle_cap_flag_leaves_environment_unchanged(capsys):
    before = dict(os.environ)
    assert run_cli(capsys, "--oracle-cap", "4", "transfer", "--n", "3")[0] == 0
    assert run_cli(capsys, "--oracle-cap", "4", "transfer", "--n", "6")[0] == 3
    assert dict(os.environ) == before


# ---------------------------------------------------------------------------
# sweep and optimize
# ---------------------------------------------------------------------------

def test_sweep_csv_and_best_point(tmp_path, capsys):
    out_file = tmp_path / "surface.csv"
    code, out, _ = run_cli(
        capsys, "sweep", "--n", "5", "--resolution", "16",
        "--no-timestamp", "--out", str(out_file),
    )
    assert code == 0
    best = json.loads(out)
    assert set(best) == {"eta", "time", "estimate"}
    lines = out_file.read_text().splitlines()
    assert lines[2] == "eta,t,estimate"
    assert len(lines) == 3 + 16 * 16
    surface_best = max(float(line.split(",")[2]) for line in lines[3:])
    assert best["estimate"] == pytest.approx(surface_best, abs=1e-12)


@pytest.mark.parametrize("command", ["sweep", "optimize"])
def test_search_defaults_come_from_the_library(command):
    args = build_parser().parse_args([command, "--n", "5"])
    assert (args.eta_min, args.eta_max) == DEFAULT_ETA_RANGE
    assert (args.t_min, args.t_max) == DEFAULT_T_RANGE


def test_optimize_command(capsys):
    code, out, _ = run_cli(
        capsys, "optimize", "--n", "5", "--resolution", "32",
        "--no-timestamp",
    )
    assert code == 0
    optimum = json.loads(out)["optimum"]
    assert 0.80 <= optimum["eta"] <= 0.83
    assert 1.8 <= optimum["time"] <= 2.0
    assert optimum["estimate"] > 0.999


def test_optimize_with_cross_validation(capsys):
    code, out, _ = run_cli(
        capsys, "optimize", "--n", "5", "--resolution", "32",
        "--cross-validate", "--no-timestamp",
    )
    assert code == 0
    doc = json.loads(out)
    report = doc["cross_validation"]
    assert report["exact_mean"] > 0.999
    assert abs(report["gap"]) < 1e-4


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_passes_at_revival(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n", "5", "--no-timestamp")
    assert code == 0
    assert out.strip().endswith("overall: PASS")
    assert out.count("PASS") == 4  # three identities plus the summary


def test_verify_fails_off_revival(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--n", "5", "--t", "1.0", "--no-timestamp",
    )
    assert code == 1
    assert "FAIL" in out


def test_verify_non_finite_time_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "verify", "--n", "4", "--t", "nan", "--no-timestamp")
    assert code == 2
    assert out == ""
    assert "finite" in err


def test_verify_identity_alias(capsys):
    code, out, _ = run_cli(capsys, "identity", "--n", "4", "--no-timestamp")
    assert code == 0


def test_verify_condition_even_chain(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--n", "4", "--condition", "X,I,X", "--no-timestamp",
    )
    assert code == 0
    assert "condition X/I/X" in out


def test_verify_condition_odd_chain_fails(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--n", "5", "--condition", "X,I,X", "--no-timestamp",
    )
    assert code == 1
    assert out.strip().endswith("overall: FAIL")


def test_verify_condition_malformed(capsys):
    code, _, err = run_cli(
        capsys, "verify", "--n", "4", "--condition", "X,I",
    )
    assert code == 2
    assert "three letters" in err


def test_internal_error_exit_code(capsys, monkeypatch):
    import xxqst.cli as cli_mod

    def boom(*args, **kwargs):
        raise InternalConsistencyError("sanity check tripped")

    monkeypatch.setattr(cli_mod, "verify_protocol_identities", boom)
    code, _, err = run_cli(capsys, "verify", "--n", "4")
    assert code == 4
    assert "sanity check tripped" in err


# ---------------------------------------------------------------------------
# determinism and the installed entry point
# ---------------------------------------------------------------------------

def test_outputs_byte_identical_without_timestamp(tmp_path, capsys):
    specs = [
        ("coefficients", "--n", "5", "--t-max", "pi/4", "--steps", "33"),
        ("transfer", "--profile", "boundary:0.815", "--n", "5", "--t", "1.9"),
        ("verify", "--n", "4"),
    ]
    for spec in specs:
        first = tmp_path / "a.txt"
        second = tmp_path / "b.txt"
        for path in (first, second):
            code, _, _ = run_cli(
                capsys, *spec, "--no-timestamp", "--out", str(path),
            )
            assert code == 0
        assert first.read_bytes() == second.read_bytes()


def test_timestamp_lines_present_by_default(capsys):
    code, out, _ = run_cli(
        capsys, "coefficients", "--n", "3", "--t-max", "1", "--steps", "3",
    )
    assert code == 0
    assert any(line.startswith("# generated: ") for line in out.splitlines())


def test_installed_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "xxqst.cli", "transfer", "--n", "4",
         "--no-timestamp"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert len(doc["branches"]) == 4
