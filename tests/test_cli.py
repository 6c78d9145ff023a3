"""CLI surface tests: subcommands, exit codes, and output shape."""

import json
import shutil
from pathlib import Path

import pytest

import flowgraph
from flowgraph import solver
from flowgraph.cli import main
from flowgraph.highs_adapter import scipy_extension


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompare:
    def test_hybrid_t1_table(self, capsys):
        code, out, _ = run(capsys, "compare", "--case", "hybrid", "--T", "1")
        assert code == 0
        rows = {line.split()[0]: tuple(int(x) for x in line.split()[1:4])
                for line in out.splitlines()[1:]}
        assert rows["3BB-4F"] == (8, 11, 18)
        assert rows["2BB-2F"] == (6, 9, 16)
        assert rows["2BB-1F"] == (5, 9, 13)
        assert rows["1BB-1F"][:2] == (4, 6)

    def test_reduction_and_verdict(self, capsys):
        code, out, _ = run(capsys, "compare", "--case", "tri-area", "--instance", "1",
                           "--approaches", "1BB-1F,2BB-2F", "--T", "4", "--solve")
        assert code == 0
        assert "reduction vs 2BB-2F" in out
        assert "objective equality: PASS" in out

    def test_bad_approach_label(self, capsys):
        code, _, err = run(capsys, "compare", "--case", "hybrid", "--T", "1",
                           "--approaches", "5BB-9F")
        assert code == 2 and "5BB-9F" in err


class TestUsageErrors:
    def test_unknown_flag(self, capsys):
        code, _, _ = run(capsys, "build", "--bogus")
        assert code == 2

    def test_missing_subcommand(self, capsys):
        code, _, _ = run(capsys)
        assert code == 2

    def test_unknown_case(self, capsys):
        code, _, err = run(capsys, "build", "--case", "atlantis")
        assert code == 1 and "atlantis" in err

    def test_unknown_solver(self, capsys):
        code, _, err = run(capsys, "solve", "--case", "hybrid", "--T", "1",
                           "--solver", "quantum")
        assert code == 1 and "quantum" in err


class TestBuildSolve:
    def test_build_writes_mps(self, capsys, tmp_path):
        code, out, _ = run(capsys, "build", "--case", "hybrid", "--T", "2",
                           "--approach", "2BB-2F", "--out", str(tmp_path))
        assert code == 0
        mps = tmp_path / "hybrid-2BB-2F.mps"
        assert mps.exists() and mps.read_text().startswith("NAME hybrid")
        assert "12 variables" in out

    def test_solve_reports_feasible_objective(self, capsys, tmp_path):
        code, out, _ = run(capsys, "solve", "--case", "hybrid",
                           "--approach", "1BB-1F", "--out", str(tmp_path))
        assert code == 0
        assert "primal feasible" in out
        assert (tmp_path / "hybrid-1BB-1F.sol").read_text().startswith("status optimal")

    def test_external_solver_roundtrip(self, capsys, tmp_path):
        spec = tmp_path / "ext.json"
        spec.write_text(json.dumps({
            "executable": "python3",
            "args": ["-m", "flowgraph.highs_adapter", "{mps}", "{out}", "{seed}"],
        }))
        code, out, _ = run(capsys, "solve", "--case", "hybrid", "--T", "6",
                           "--approach", "2BB-1F", "--solver", f"external:{spec}")
        assert code == 0 and "primal feasible" in out

    @pytest.mark.parametrize("spec", [
        None, "{not json", '{"args": ["{mps}", "{out}"]}', '{"executable": 3}',
        '{"executable": "python3", "args": "{mps} {out}"}',
        '{"executable": "python3", "args": ["{mps}", "{out}", 7]}',
    ], ids=["missing", "not-json", "no-executable", "executable-not-string",
            "args-not-list", "args-not-strings"])
    def test_bad_solver_spec_is_an_error_line(self, capsys, tmp_path, spec):
        path = tmp_path / "ext.json"
        if spec is not None:
            path.write_text(spec)
        code, _, err = run(capsys, "solve", "--case", "hybrid", "--T", "1",
                           "--solver", f"external:{path}")
        assert code == 1 and err.startswith(f"error: {path}:") and "Traceback" not in err

    def test_solver_spec_typo_names_the_key(self, capsys, tmp_path):
        path = tmp_path / "ext.json"
        path.write_text(json.dumps({
            "executable": "python3",
            "arg": ["-m", "flowgraph.highs_adapter", "{mps}", "{out}"],
        }))
        code, _, err = run(capsys, "solve", "--case", "hybrid", "--T", "1",
                           "--solver", f"external:{path}")
        assert code == 1 and err.startswith(f"error: {path}: unknown solver spec key(s) 'arg'")

    def test_singular_basis_fails_the_solve(self, capsys, monkeypatch):
        def gstrf(*args, **kwargs):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(scipy_extension(solver._SUPERLU), "gstrf", gstrf)
        code, _, err = run(capsys, "solve", "--case", "hybrid", "--T", "2")
        assert code == 1 and err == "solve failed: numerical_failure\n"

    def test_env_var_selects_default_solver(self, capsys, tmp_path, monkeypatch):
        spec = tmp_path / "ext.json"
        spec.write_text(json.dumps({
            "executable": "python3",
            "args": ["-m", "flowgraph.highs_adapter", "{mps}", "{out}"],
        }))
        monkeypatch.setenv("FLOWGRAPH_SOLVER", str(spec))
        code, out, _ = run(capsys, "solve", "--case", "hybrid", "--T", "2")
        assert code == 0 and "primal feasible" in out


class TestCaseBundles:
    def test_export_then_validate(self, capsys, tmp_path):
        code, _, _ = run(capsys, "export-case", "--case", "tri-area", "--T", "6",
                         "--out", str(tmp_path / "bundle"))
        assert code == 0
        code, out, _ = run(capsys, "validate", "--case", f"csv:{tmp_path / 'bundle'}")
        assert code == 0 and "OK" in out

    def test_validate_flags_broken_bundle(self, capsys, tmp_path):
        bundle = tmp_path / "bundle"
        run(capsys, "export-case", "--case", "hybrid", "--out", str(bundle))
        flows = bundle / "flows.csv"
        # drop every arc: consumers lose their inflows
        flows.write_text(flows.read_text().splitlines()[0] + "\n")
        code, out, err = run(capsys, "validate", "--case", f"csv:{bundle}")
        assert code == 1 and "error" in err

    @pytest.mark.parametrize("argv", [("validate",), ("solve", "--approach", "1BB-1F"),
                                      ("compare", "--solve")], ids=lambda argv: argv[0])
    def test_nan_demand_is_an_error(self, capsys, tmp_path, argv):
        bundle = tmp_path / "bundle"
        shutil.copytree(Path(flowgraph.__file__).parent / "fixtures" / "tri_area_t24", bundle)
        profiles = bundle / "profiles.csv"
        lines = profiles.read_text().splitlines(keepends=True)
        (k,) = [k for k, line in enumerate(lines) if line.startswith("ed_a,5,")]
        lines[k] = "ed_a,5,nan\n"
        profiles.write_text("".join(lines))
        code, out, err = run(capsys, *argv, "--case", f"csv:{bundle}")
        assert code == 1 and "ed_a: demand must be nonnegative" in err and not out

    def test_negative_initial_storage_is_an_error(self, capsys, tmp_path):
        bundle = tmp_path / "bundle"
        shutil.copytree(Path(flowgraph.__file__).parent / "fixtures" / "tri_area_t24", bundle)
        assets = bundle / "assets.csv"
        text = assets.read_text()
        # the battery's initial_storage_mwh, 120.0 in the bundled fixture
        assert text.count(",240.0,120.0,") == 1
        assets.write_text(text.replace(",240.0,120.0,", ",240.0,-5.0,"))
        code, out, err = run(capsys, "validate", "--case", f"csv:{bundle}")
        assert code == 1 and "error: " in err and not out
        assert "battery: initial_storage_mwh must be nonnegative" in err


class TestBench:
    def test_bench_writes_csvs(self, capsys, tmp_path):
        code, out, _ = run(capsys, "bench", "--T", "6",
                           "--n-seeds", "2", "--out", str(tmp_path))
        assert code == 0
        for name in ("samples.csv", "speedups.csv", "ttests.csv"):
            assert (tmp_path / name).exists()
        assert "1BB-1F vs 2BB-2F" in out

    @pytest.mark.parametrize("config", ['{"n_seeds": 3}',
                                        '{"approaches": ["2BB-2F"], "n_seeds": "3"}'])
    def test_bad_config_is_an_error_line(self, capsys, tmp_path, config):
        path = tmp_path / "bench.json"
        path.write_text(config)
        code, _, err = run(capsys, "bench", "--config", str(path), "--out", str(tmp_path))
        assert code == 1 and err.startswith("error:") and "Traceback" not in err
