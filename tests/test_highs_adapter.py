"""HiGHS adapter tests: row senses reach HiGHS with the right bounds, an LP
without columns is answered without HiGHS, single-term rows that cross are
infeasible for both solvers, the adapter's memory grows with the
nonzeros, not with rows times columns, and a solver that writes no
solution file is a typed failure.  Every HiGHS status maps to a solution
status, a range on an equality row widens it on the side the range's sign
names, and the child process, which freezes its imports, writes the same
file as an in-process call, which freezes nothing."""

import json
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc

import pytest
import scipy.optimize

from flowgraph import (
    ALL_APPROACHES,
    Approach,
    CaseSpec,
    ConstraintRow,
    LpInstance,
    RowFamily,
    VariableRef,
    VarRole,
    build_model,
    read_solution,
    scale_horizon,
    solve_reference,
    tri_area_case,
    write_mps,
)
from flowgraph.errors import SolverFailure
from flowgraph.highs_adapter import main as highs_main, solve as highs_solve
from flowgraph.solver import ExternalSolverSpec, solve_external

HIGHS = ExternalSolverSpec(sys.executable, ("-m", "flowgraph.highs_adapter", "{mps}", "{out}"))


def three_sense_lp() -> LpInstance:
    """The optimum (-1, 0, 2) sits on the low side of the range row, on the
    ``>=`` row and on the ``=`` row, so each sense's bounds decide it."""
    variables = [
        VariableRef(VarRole.FLOW, ("a", "b"), 1, lower=-5.0, upper=10.0),
        VariableRef(VarRole.FLOW, ("b", "c"), 1, lower=-5.0, upper=5.0),
        VariableRef(VarRole.FLOW, ("c", "d"), 1),
    ]
    rows = [
        ConstraintRow(RowFamily.FLOW_BOUND, -1.0, 4.0, [(0, 1.0), (1, -1.0)], "rng"),
        ConstraintRow(RowFamily.FLOW_BOUND, 3.0, math.inf, [(0, 1.0), (2, 2.0)], "ge"),
        ConstraintRow(RowFamily.CONSUMER_BALANCE, 2.0, 2.0, [(1, 1.0), (2, 1.0)], "eq"),
    ]
    return LpInstance("senses", variables, rows, [(0, 2.0), (1, -1.0), (2, 2.0)])


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


@pytest.mark.parametrize("rhs, status", [(None, "optimal"), (0.0, "optimal"), (1.0, "infeasible")])
def test_no_columns(rhs, status):
    rows = []
    if rhs is not None:  # a row without terms: 0 >= rhs
        rows = [ConstraintRow(RowFamily.FLOW_BOUND, rhs, math.inf, [], "r0")]
    lp = LpInstance(rows=rows)
    theirs = solve_external(lp, HIGHS)
    assert theirs.status == solve_reference(lp).status == status
    if status == "optimal":
        assert theirs.objective == 0.0


def test_crossing_singleton_rows_are_infeasible():
    # 2x >= 6 and -x >= -2 ask for x >= 3 and x <= 2
    lp = LpInstance(
        "crossing",
        [VariableRef(VarRole.FLOW, ("a", "b"), 1, upper=10.0)],
        [
            ConstraintRow(RowFamily.FLOW_BOUND, 6.0, math.inf, [(0, 2.0)], "lo"),
            ConstraintRow(RowFamily.FLOW_BOUND, -2.0, math.inf, [(0, -1.0)], "hi"),
        ],
        [(0, 1.0)],
    )
    assert solve_reference(lp).status == "infeasible"
    assert solve_external(lp, HIGHS).status == "infeasible"


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
    assert result.status == 0
    assert peak < 64e6


@pytest.mark.parametrize("code, status", [(1, "iteration_limit"), (4, "numerical_failure")])
def test_failure_statuses(code, status, tmp_path, monkeypatch):
    lp = three_sense_lp()
    mps, out = tmp_path / "model.mps", tmp_path / "model.sol"
    write_mps(lp, str(mps))
    monkeypatch.setattr(scipy.optimize, "milp",
                        lambda *a, **k: scipy.optimize.OptimizeResult(status=code, x=None, fun=None))
    assert highs_main([str(mps), str(out)]) == 0
    assert out.read_text() == f"status {status}\n"
    assert read_solution(str(out), lp).status == status


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
    assert result.status == 0
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
    write byte-identical solution files for the T=96 tri-area LPs."""
    mps = tmp_path / "model.mps"
    write_mps(build_model(scale_horizon(tri_area_case(CaseSpec(seed=13)), 96), approach), str(mps))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run([sys.executable, "-m", "flowgraph.highs_adapter", str(mps),
                    str(tmp_path / "child.sol"), "13"], env=env, check=True)
    assert highs_main([str(mps), str(tmp_path / "main.sol"), "13"]) == 0
    child = (tmp_path / "child.sol").read_bytes()
    assert child.startswith(b"status optimal\n")
    assert child == (tmp_path / "main.sol").read_bytes()
