"""HiGHS adapter tests: row senses reach HiGHS with the right bounds, an LP
without columns is answered without HiGHS, single-term rows that cross are
infeasible for both solvers, the adapter's memory grows with the
nonzeros, not with rows times columns, and a solver that writes no
solution file is a typed failure.  Every HiGHS model status maps to the
solution status scipy.optimize.milp gave it, a range on an equality row
widens it on the side the range's sign names, and the child process,
which freezes its imports, writes the same file as an in-process call,
which freezes nothing.  The adapter drives scipy's HiGHS extension
without importing scipy.optimize, and the child never loads numpy: its
answers are milp's bit for bit, and the extension it loads is the one
scipy.optimize uses.  A column may list its rows in any order, and a
column bound HiGHS rejects makes the LP infeasible.  A file the parser
cannot resolve is a ParseError naming the file and line, which the child
reports on stderr with exit code 1, and a solver that exits nonzero is a
NonzeroExit that keeps the end of its stderr."""

import json
import math
import os
import re
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse
from scipy.optimize._linprog_highs import _highs_to_scipy_status_message

from flowgraph import (
    ALL_APPROACHES,
    Approach,
    CaseSpec,
    LpInstance,
    build_model,
    read_solution,
    scale_horizon,
    solve_reference,
    tri_area_case,
    write_mps,
    write_solution,
)
from flowgraph.errors import InvariantViolation, NonzeroExit, ParseError, SolverFailure
from flowgraph.highs_adapter import (
    highs_core,
    main as highs_main,
    parse_free_mps,
    solve as highs_solve,
    status_label,
)
from flowgraph.solver import ExternalSolverSpec, solve_external
from conftest import store_lp

HIGHS = ExternalSolverSpec(sys.executable, ("-m", "flowgraph.highs_adapter", "{mps}", "{out}"))


def three_sense_lp() -> LpInstance:
    """The optimum (-1, 0, 2) sits on the low side of the range row, on the
    ``>=`` row and on the ``=`` row, so each sense's bounds decide it."""
    return store_lp(
        "senses", [(-5.0, 10.0), (-5.0, 5.0), (0.0, math.inf)],
        [("rng", -1.0, 4.0, {0: 1.0, 1: -1.0}), ("ge", 3.0, math.inf, {0: 1.0, 2: 2.0}),
         ("eq", 2.0, 2.0, {1: 1.0, 2: 1.0})],
        [2.0, -1.0, 2.0],
    )


def test_row_senses_agree_with_reference_simplex():
    lp = three_sense_lp()
    ours = solve_reference(lp)
    theirs = solve_external(lp, HIGHS)
    assert ours.is_optimal and theirs.is_optimal
    assert ours.objective == pytest.approx(2.0)
    assert theirs.objective == pytest.approx(ours.objective, abs=1e-9)


def test_missing_solution_file_is_a_solver_failure():
    silent = ExternalSolverSpec(sys.executable, ("-c", "pass", "{mps}", "{out}"))
    with pytest.raises(SolverFailure, match=r"wrote no .*model\.sol"):
        solve_external(three_sense_lp(), silent)


def test_nonzero_exit_keeps_the_end_of_stderr():
    """A traceback ends in its error line, so the message keeps the last
    500 characters of the solver's stderr, not the first."""
    noisy = ExternalSolverSpec(sys.executable, (
        "-c", "import sys; sys.stderr.write('x' * 1000 + 'the cause'); sys.exit(3)",
        "{mps}", "{out}"))
    with pytest.raises(NonzeroExit, match=r"exited with 3: x+the cause$") as caught:
        solve_external(three_sense_lp(), noisy)
    assert str(caught.value).endswith("x" * 491 + "the cause")


@pytest.mark.parametrize("rhs, status", [(None, "optimal"), (0.0, "optimal"), (1.0, "infeasible")])
def test_no_columns(rhs, status):
    rows = []
    if rhs is not None:  # a row without terms: 0 >= rhs
        rows = [("r0", rhs, math.inf, {})]
    lp = store_lp("lp", [], rows)
    theirs = solve_external(lp, HIGHS)
    assert theirs.status == solve_reference(lp).status == status
    if status == "optimal":
        assert theirs.objective == 0.0


def test_crossing_singleton_rows_are_infeasible():
    # 2x >= 6 and -x >= -2 ask for x >= 3 and x <= 2
    lp = store_lp("crossing", [(0.0, 10.0)],
                  [("lo", 6.0, math.inf, {0: 2.0}), ("hi", -2.0, math.inf, {0: -1.0})], [1.0])
    assert solve_reference(lp).status == "infeasible"
    assert solve_external(lp, HIGHS).status == "infeasible"


def test_crossing_implied_bounds_are_infeasible():
    # x + y = 10 with x, y in [0, 3]: the doubleton row hands x's bounds to
    # y as [7, 10], which cross y's own [0, 3]
    lp = store_lp("implied", [(0.0, 3.0), (0.0, 3.0)],
                  [("sum", 10.0, 10.0, {0: 1.0, 1: 1.0})], [1.0])
    result = solve_reference(lp)
    assert result.status == "infeasible" and result.iterations == 0
    assert solve_external(lp, HIGHS).status == "infeasible"


@pytest.mark.parametrize("lo, hi, fault", [(-math.inf, math.inf, "no finite bound"),
                                           (1.0, 0.0, r"bounds cross \(1\.0 > 0\.0\)")],
                         ids=["free", "crossing"])
def test_rows_mps_cannot_carry_are_refused(lo, hi, fault):
    # x + y >= 1 with x, y in [0, 5] is feasible; HiGHS read the free row
    # x - y, written as L with RHS inf, as row_lo = NaN and the LP as
    # infeasible, and a crossing range by its size
    lp = store_lp("refused", [(0.0, 5.0), (0.0, 5.0)],
                  [("sum", 1.0, math.inf, {0: 1.0, 1: 1.0}), ("r0", lo, hi, {0: 1.0, 1: -1.0})],
                  [1.0, 2.0])
    with pytest.raises(InvariantViolation, match=f"^row r0: {fault}"):
        solve_external(lp, HIGHS)


def test_solve_memory_stays_sparse(tmp_path):
    # a dense rows x columns matrix here is about 556 MB
    system = scale_horizon(tri_area_case(CaseSpec()), 96)
    path = tmp_path / "t96.mps"
    write_mps(build_model(system, Approach.THREE_BB_4F), str(path))
    tracemalloc.start()
    try:
        _, result = highs_solve(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.status == "optimal"
    assert peak < 64e6


@pytest.mark.parametrize("code, status", [("kIterationLimit", "iteration_limit"),
                                          ("kSolveError", "numerical_failure")])
def test_failure_statuses(code, status, tmp_path, monkeypatch):
    lp = three_sense_lp()
    mps, out = tmp_path / "model.mps", tmp_path / "model.sol"
    write_mps(lp, str(mps))
    core = highs_core()

    class Stopped(core._Highs):  # HiGHS runs, then reports ``code``
        def getModelStatus(self):
            return getattr(core.HighsModelStatus, code)

    monkeypatch.setattr(core, "_Highs", Stopped)
    assert highs_main([str(mps), str(out)]) == 0
    assert out.read_text() == f"status {status}\n"
    assert read_solution(str(out), lp).status == status


#: scipy.optimize.milp status -> the solution-file status the adapter wrote
#: for it when it called milp
MILP_STATUS = {0: "optimal", 1: "iteration_limit", 2: "infeasible", 3: "unbounded",
               4: "numerical_failure"}


@pytest.mark.parametrize("name", sorted(highs_core().HighsModelStatus.__members__))
def test_status_table(name):
    """kOptimal -> optimal; kInfeasible and kModelError -> infeasible;
    kTimeLimit and kIterationLimit -> iteration_limit; kUnbounded ->
    unbounded; kUnboundedOrInfeasible and every other status ->
    numerical_failure, as milp's status chain read them."""
    model_status = getattr(highs_core().HighsModelStatus, name)
    code, _ = _highs_to_scipy_status_message(model_status, "")
    assert status_label(model_status) == MILP_STATUS[code]


#: x = 2 with a range R on the row: [2, 2 + R] for R > 0, [2 + R, 2] for R < 0
RANGED_EQUALITY = """NAME ranged
ROWS
 N OBJ
 E r
COLUMNS
    x OBJ {cost}
    x r 1.0
RHS
    RHS r 2.0
RANGES
    RNG r {range}
BOUNDS
 FR BND x
ENDATA
"""


@pytest.mark.parametrize("span, cost, optimum", [
    (3.0, 1.0, 2.0), (3.0, -1.0, -5.0), (-3.0, 1.0, -1.0), (-3.0, -1.0, -2.0),
])
def test_range_on_equality_row(span, cost, optimum, tmp_path):
    path = tmp_path / "ranged.mps"
    path.write_text(RANGED_EQUALITY.format(cost=cost, range=span))
    _, result = highs_solve(str(path))
    assert result.status == "optimal"
    assert result.fun == pytest.approx(optimum)


def test_in_process_main_freezes_nothing(tmp_path):
    mps = tmp_path / "model.mps"
    write_mps(three_sense_lp(), str(mps))
    code = textwrap.dedent(f"""
        import gc, json
        from flowgraph import highs_adapter
        code = highs_adapter.main([{str(mps)!r}, {str(tmp_path / "model.sol")!r}])
        print(json.dumps([code, gc.get_freeze_count()]))
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert json.loads(proc.stdout.splitlines()[-1]) == [0, 0]


@pytest.mark.parametrize("approach", ALL_APPROACHES, ids=lambda a: a.value)
def test_child_writes_what_main_writes(approach, tmp_path):
    """The child process, whose imports are frozen, and an in-process call
    write byte-identical solution files for the T=96 tri-area LPs, and so
    does write_solution given what read_solution reads from the child's."""
    mps = tmp_path / "model.mps"
    lp = build_model(scale_horizon(tri_area_case(CaseSpec(seed=13)), 96), approach)
    write_mps(lp, str(mps))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run([sys.executable, "-m", "flowgraph.highs_adapter", str(mps),
                    str(tmp_path / "child.sol"), "13"], env=env, check=True)
    assert highs_main([str(mps), str(tmp_path / "main.sol"), "13"]) == 0
    child = (tmp_path / "child.sol").read_bytes()
    assert child.startswith(b"status optimal\n")
    assert child == (tmp_path / "main.sol").read_bytes()
    write_solution(read_solution(str(tmp_path / "child.sol"), lp), str(tmp_path / "lp.sol"), lp)
    assert child == (tmp_path / "lp.sol").read_bytes()


@pytest.mark.parametrize("case", [
    *(pytest.param((approach,), id=f"t96-{approach.value}") for approach in ALL_APPROACHES),
    *(pytest.param((span, cost), id=f"ranged-{span}-{cost}")
      for span in (3.0, -3.0) for cost in (1.0, -1.0)),
])
def test_same_answer_as_milp(case, tmp_path):
    mps = tmp_path / "model.mps"
    if len(case) == 1:
        system = scale_horizon(tri_area_case(CaseSpec(seed=13)), 96)
        write_mps(build_model(system, case[0]), str(mps))
    else:
        mps.write_text(RANGED_EQUALITY.format(range=case[0], cost=case[1]))
    a = parse_free_mps(str(mps))
    matrix = scipy.sparse.csc_array((a.data, a.indices, a.indptr), shape=(len(a.row_lo), len(a.cost)))
    theirs = scipy.optimize.milp(
        a.cost,
        constraints=scipy.optimize.LinearConstraint(matrix, a.row_lo, a.row_hi),
        bounds=scipy.optimize.Bounds(a.col_lo, a.col_hi),
    )
    _, ours = highs_solve(str(mps))
    assert theirs.status == 0 and ours.status == "optimal"
    assert ours.fun.hex() == theirs.fun.hex()
    assert np.asarray(ours.x, float).tobytes() == theirs.x.tobytes()


@pytest.mark.parametrize("adapter_first", [True, False], ids=["adapter-first", "scipy-first"])
def test_one_extension_beside_scipy_optimize(adapter_first, tmp_path):
    """Loaded by the adapter before or after ``import scipy.optimize``, the
    HiGHS extension is one module that both use, and both still solve."""
    mps = tmp_path / "model.mps"
    write_mps(three_sense_lp(), str(mps))
    code = textwrap.dedent(f"""
        import json, sys
        from flowgraph import highs_adapter

        cores = []

        def adapter():
            cores.append(highs_adapter.highs_core())
            return highs_adapter.solve({str(mps)!r})[1].fun

        objectives = [adapter()] if {adapter_first} else []
        import scipy.optimize
        from scipy.optimize._highspy import _highs_wrapper
        objectives.append(scipy.optimize.milp(
            [1.0, 2.0], constraints=scipy.optimize.LinearConstraint([[1.0, 1.0]], 1.0, 3.0)).fun)
        objectives.append(scipy.optimize.linprog(
            [1.0, 2.0], A_ub=[[-1.0, -1.0]], b_ub=[-1.0], method="highs").fun)
        objectives.append(adapter())
        names = [name for name in sys.modules if name.endswith("._core") and "highs" in name]
        shared = all(core is _highs_wrapper._h is sys.modules[names[0]] for core in cores)
        print(json.dumps([objectives, names, shared]))
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    objectives, names, shared = json.loads(proc.stdout.splitlines()[-1])
    # the adapter's LP has optimum 2, milp's and linprog's LP optimum 1
    assert objectives == pytest.approx([2.0] * adapter_first + [1.0, 1.0, 2.0])
    assert names == ["scipy.optimize._highspy._core"]
    assert shared


def test_child_imports_neither_scipy_optimize_nor_sparse(tmp_path):
    """The child, run as ``python -m flowgraph.highs_adapter`` runs it,
    loads scipy's HiGHS extension and no scipy subpackage, and never loads
    numpy."""
    mps, out = tmp_path / "model.mps", tmp_path / "model.sol"
    write_mps(three_sense_lp(), str(mps))
    code = textwrap.dedent(f"""
        import json, runpy, sys
        sys.argv = ["highs_adapter", {str(mps)!r}, {str(out)!r}]
        try:
            runpy.run_module("flowgraph.highs_adapter", run_name="__main__", alter_sys=True)
        except SystemExit as stop:
            loaded = sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy"))
            print(json.dumps([stop.code, loaded]))
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    exit_code, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert exit_code == 0
    assert out.read_text().startswith("status optimal\n")
    assert "scipy.optimize._highspy._core" in loaded
    assert "scipy.optimize" not in loaded and "scipy.sparse" not in loaded
    assert "numpy" not in loaded


#: a file the parser reads; each case below changes one line of it
GOOD_MPS = """NAME good
ROWS
 N OBJ
 E r
COLUMNS
    x OBJ 1.0
    x r 1.0
    y r 1.0
RHS
    RHS r 2.0
RANGES
    RNG r 1.0
BOUNDS
 UP BND x 4.0
ENDATA
"""

#: case -> (a line of GOOD_MPS, what replaces it, the line the parser stops
#: at, what its message says there)
BAD_MPS = {
    "columns-undeclared-row": ("    x r 1.0", "    x rr 1.0", 7, "unknown name rr in COLUMNS"),
    "rhs-undeclared-row": ("    RHS r 2.0", "    RHS rr 2.0", 10, "unknown name rr in RHS"),
    "ranges-undeclared-row": ("    RNG r 1.0", "    RNG rr 1.0", 12, "unknown name rr in RANGES"),
    "rhs-objective-constant": ("    RHS r 2.0", "    RHS OBJ 2.0", 10,
                               "RHS entry on the objective row OBJ"),
    "ranges-objective-row": ("    RNG r 1.0", "    RNG OBJ 1.0", 12,
                             "RANGES entry on the objective row OBJ"),
    "bounds-undeclared-column": (" UP BND x 4.0", " UP BND z 4.0", 14, "unknown name z in BOUNDS"),
    "repeated-entry": ("    y r 1.0", "    x r 2.0\n    y r 1.0", 8, "column x names row r twice"),
    "repeated-objective-entry": ("    x r 1.0", "    x r 1.0 OBJ 2.0", 7,
                                 "column x names row OBJ twice"),
    "unknown-bound-kind": (" UP BND x 4.0", " BV BND x", 14, "unknown name BV in BOUNDS"),
    "row-declared-twice": (" E r", " E r\n G r", 5, "row r is declared twice"),
    "unknown-row-type": (" E r", " X r", 4, "unknown row type X"),
    "split-column": ("    y r 1.0", "    y r 1.0\n    x OBJ 3.0", 9,
                     "column x continues after another column"),
    "unknown-section": ("RANGES\n    RNG r 1.0", "OBJSENSE\n    MAX", 11,
                        "unknown section OBJSENSE"),
    "one-line-section": ("RANGES\n    RNG r 1.0", "OBJSENSE MAX", 11, "unknown section OBJSENSE"),
    "unpaired-field": ("    x r 1.0", "    x r", 7, "cannot read 'x r'"),
    "marker-without-kind": ("    y r 1.0", "    M 'MARKER'\n    y r 1.0", 8,
                            "cannot read \"M 'MARKER'\""),
    "bad-number": ("    RHS r 2.0", "    RHS r two", 10, "cannot read 'RHS r two'"),
}


def bad_mps(tmp_path, case: str) -> str:
    good, bad, _, _ = BAD_MPS[case]
    assert GOOD_MPS.count(good + "\n") == 1
    path = tmp_path / f"{case}.mps"
    path.write_text(GOOD_MPS.replace(good + "\n", bad + "\n"))
    return str(path)


#: min x + 2y s.t. a: x + 4y >= 2, b: 3x + y >= 3, c: 2x <= 9, x, y >= 0;
#: the optimum (10/11, 3/11) sits on rows a and b.  {x} and {y} are the
#: two columns' COLUMNS lines
ROWS_IN_ANY_ORDER = """NAME order
ROWS
 N OBJ
 G a
 G b
 L c
COLUMNS
{x}
{y}
RHS
    RHS a 2.0 b 3.0
    RHS c 9.0
ENDATA
"""


def test_rows_listed_out_of_order(tmp_path):
    """A column may list its rows in any order: each coefficient stays on
    its own row, the rows come out increasing, and the LP is the one the
    file with sorted rows gives."""
    shuffled, ordered = tmp_path / "shuffled.mps", tmp_path / "ordered.mps"
    shuffled.write_text(ROWS_IN_ANY_ORDER.format(
        x="    x OBJ 1.0 c 2.0\n    x a 1.0 b 3.0", y="    y b 1.0 a 4.0\n    y OBJ 2.0"))
    ordered.write_text(ROWS_IN_ANY_ORDER.format(
        x="    x OBJ 1.0 a 1.0\n    x b 3.0 c 2.0", y="    y OBJ 2.0 a 4.0\n    y b 1.0"))
    model = parse_free_mps(str(shuffled))
    assert list(model.indptr) == [0, 3, 5]
    assert list(model.indices) == [0, 1, 2, 0, 1]
    assert list(model.data) == [1.0, 3.0, 2.0, 4.0, 1.0]
    assert model == parse_free_mps(str(ordered))
    (_, ours), (_, theirs) = highs_solve(str(shuffled)), highs_solve(str(ordered))
    assert ours.status == theirs.status == "optimal"
    assert ours.fun == theirs.fun == pytest.approx(16 / 11)
    assert ours.x == theirs.x == pytest.approx([10 / 11, 3 / 11])


def test_good_mps_solves(tmp_path):
    path = tmp_path / "good.mps"
    path.write_text(GOOD_MPS)
    model, result = highs_solve(str(path))
    assert model.row_names == ["r"] and model.col_names == ["x", "y"]
    assert result.status == "optimal" and result.fun == pytest.approx(0.0)


@pytest.mark.parametrize("bound", [" LO BND x inf", " UP BND x -inf", " UP BND x nan"])
def test_bounds_highs_rejects_are_infeasible(bound, tmp_path):
    """HiGHS rejects a column with a lower bound of +inf, or an upper bound
    of -inf or NaN; the adapter reads that as a model error: infeasible."""
    path = tmp_path / "rejected.mps"
    path.write_text(GOOD_MPS.replace(" UP BND x 4.0\n", bound + "\n"))
    _, result = highs_solve(str(path))
    assert result.status == "infeasible" and result.x is None


@pytest.mark.parametrize("case", sorted(BAD_MPS))
def test_unresolved_name_is_a_parse_error(case, tmp_path):
    path = bad_mps(tmp_path, case)
    _, _, line, message = BAD_MPS[case]
    with pytest.raises(ParseError, match=f"^{re.escape(f'{path}:{line}: {message}')}"):
        parse_free_mps(path)


def test_child_reports_a_parse_error(tmp_path, capsys):
    path, out = bad_mps(tmp_path, "columns-undeclared-row"), tmp_path / "model.sol"
    assert highs_main([path, str(out)]) == 1
    assert capsys.readouterr().err == f"error: {path}:7: unknown name rr in COLUMNS\n"
    assert not out.exists()
    # the adapter reads the hand-written file; the written {mps} takes the unused seed slot
    misspelt = ExternalSolverSpec(sys.executable, ("-m", "flowgraph.highs_adapter", path,
                                                   "{out}", "{mps}"))
    with pytest.raises(NonzeroExit, match=r"exited with 1: error: .*unknown name rr in COLUMNS$"):
        solve_external(three_sense_lp(), misspelt)
