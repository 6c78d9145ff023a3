"""CLI surface tests: subcommands, exit codes, and output shape."""

import csv
import json
import shutil
from pathlib import Path

import pytest

import flowgraph
from flowgraph import Approach, build_model, hybrid_fixture, solve_reference, solver
from flowgraph.cli import main
from flowgraph.highs_adapter import scipy_extension

from conftest import doctored_spec


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

    def test_solver_counters_are_printed(self, capsys, tmp_path):
        # solve and compare --solve print the reference simplex's counters
        # as field=value pairs; an external solver has none to print
        names = ("rows_removed", "cols_removed", "iterations", "phase1_iterations",
                 "degenerate_pivots", "refactorizations", "bland_from")
        code, out, _ = run(capsys, "solve", "--case", "hybrid", "--approach", "2BB-2F")
        assert code == 0
        result = solve_reference(build_model(hybrid_fixture(), Approach.TWO_BB_2F))
        expected = {name: str(getattr(result, name)) for name in names}
        assert dict(pair.split("=") for pair in out.splitlines()[1].split()) == expected
        assert result.rows_removed > 0 and result.cols_removed > 0 and result.iterations > 0
        code, out, _ = run(capsys, "compare", "--case", "hybrid", "--approaches",
                           "2BB-2F,1BB-1F", "--solve")
        lines = [line for line in out.splitlines() if " objective " in line]
        assert code == 0 and len(lines) == 2
        assert lines[0].startswith("2BB-2F ") and lines[0].endswith(
            " ".join(f"{name}={value}" for name, value in expected.items()))
        assert "rows_removed=" in lines[1]
        spec = tmp_path / "ext.json"
        spec.write_text(json.dumps({
            "executable": "python3",
            "args": ["-m", "flowgraph.highs_adapter", "{mps}", "{out}"],
        }))
        code, out, _ = run(capsys, "solve", "--case", "hybrid", "--T", "2",
                           "--solver", f"external:{spec}")
        assert code == 0 and len(out.splitlines()) == 1 and "=" not in out

    def test_external_solver_roundtrip(self, capsys, tmp_path):
        spec = tmp_path / "ext.json"
        spec.write_text(json.dumps({
            "executable": "python3",
            "args": ["-m", "flowgraph.highs_adapter", "{mps}", "{out}", "{seed}"],
        }))
        code, out, _ = run(capsys, "solve", "--case", "hybrid", "--T", "6",
                           "--approach", "2BB-1F", "--solver", f"external:{spec}")
        assert code == 0 and "primal feasible" in out

    def test_solution_file_without_objective(self, capsys, tmp_path):
        # the objective comes from the primal; at T=12 the hybrid optimum is 48.5
        spec = doctored_spec(tmp_path, 'not line.startswith("obj ")')
        code, out, _ = run(capsys, "solve", "--case", "hybrid", "--T", "12",
                           "--solver", f"external:{spec}")
        assert code == 0 and float(out.split()[3]) == pytest.approx(48.5, rel=1e-9)
        code, _, err = run(capsys, "bench", "--case", "hybrid", "--T", "12", "--n-seeds", "2",
                           "--solver", f"external:{spec}", "--out", str(tmp_path / "bench"))
        assert code == 0 and not err
        with open(tmp_path / "bench" / "samples.csv", newline="") as fh:
            objectives = [float(row["objective"]) for row in csv.DictReader(fh)]
        assert objectives == pytest.approx([48.5] * 4, rel=1e-9)

    def test_infeasible_primal_fails_solve_and_compare(self, capsys, tmp_path):
        # the right objective over an all-zero primal, which meets no demand
        spec = doctored_spec(tmp_path, 'line.startswith(("status ", "obj "))')
        code, out, _ = run(capsys, "solve", "--case", "hybrid", "--T", "12",
                           "--solver", f"external:{spec}")
        assert code == 1 and "PRIMAL VIOLATIONS: " in out
        code, out, err = run(capsys, "compare", "--case", "hybrid", "--T", "12", "--approaches",
                             "2BB-2F,1BB-1F", "--solve", "--solver", f"external:{spec}")
        assert code == 1 and err.startswith("2BB-2F: PRIMAL VIOLATIONS: bal_ed_t1")
        assert "objective equality" not in out

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

    def test_bench_times_the_instance_solve_solves(self, capsys, tmp_path):
        code, out, _ = run(capsys, "solve", "--instance", "3", "--T", "24")
        assert code == 0 and out.startswith("tri-area-i3 [1BB-1F] objective ")
        objective = float(out.split()[3])
        code, _, _ = run(capsys, "bench", "--instance", "3", "--T", "24",
                         "--n-seeds", "2", "--out", str(tmp_path))
        with open(tmp_path / "samples.csv", newline="") as fh:
            objectives = [float(row["objective"]) for row in csv.DictReader(fh)]
        assert code == 0 and objectives == pytest.approx([objective] * 4, rel=1e-9)

    def test_hybrid_with_instances_is_an_error_line(self, capsys, tmp_path):
        # hybrid is one fixture: two instance labels would time it twice
        code, out, err = run(capsys, "bench", "--case", "hybrid", "--instance", "1", "2",
                             "--n-seeds", "2", "--out", str(tmp_path))
        assert code == 1 and err.startswith("error:") and "hybrid" in err
        assert not out and not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [("--solver", "external:{missing}"),
                                      ("--approaches", "1BB-1F"), ("--n-seeds", "1")],
                             ids=["missing-spec", "no-reference", "one-seed"])
    def test_bad_bench_is_an_error_line(self, capsys, tmp_path, argv):
        argv = [arg.format(missing=tmp_path / "missing.json") for arg in argv]
        code, _, err = run(capsys, "bench", "--T", "6", *argv, "--out", str(tmp_path))
        assert code == 1 and err.startswith("error:") and "Traceback" not in err
