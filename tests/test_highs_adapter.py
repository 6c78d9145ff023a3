"""HiGHS adapter tests: row senses reach HiGHS with the right bounds, an LP
without columns is answered without HiGHS, single-term rows that cross are
infeasible for both solvers, the adapter's memory grows with the
nonzeros, not with rows times columns, and a solver that writes no
solution file is a typed failure."""

import sys
import tracemalloc

import pytest

from flowgraph import (
    Approach,
    CaseSpec,
    ConstraintRow,
    LpInstance,
    RowFamily,
    VariableRef,
    VarRole,
    build_model,
    scale_horizon,
    solve_reference,
    tri_area_case,
    write_mps,
)
from flowgraph.errors import SolverFailure
from flowgraph.highs_adapter import solve as highs_solve
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
        ConstraintRow(RowFamily.FLOW_BOUND, "<=", 4.0, [(0, 1.0), (1, -1.0)], "rng",
                      rhs_low=-1.0),
        ConstraintRow(RowFamily.FLOW_BOUND, ">=", 3.0, [(0, 1.0), (2, 2.0)], "ge"),
        ConstraintRow(RowFamily.CONSUMER_BALANCE, "=", 2.0, [(1, 1.0), (2, 1.0)], "eq"),
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
        rows = [ConstraintRow(RowFamily.FLOW_BOUND, ">=", rhs, [], "r0")]
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
            ConstraintRow(RowFamily.FLOW_BOUND, ">=", 6.0, [(0, 2.0)], "lo"),
            ConstraintRow(RowFamily.FLOW_BOUND, ">=", -2.0, [(0, -1.0)], "hi"),
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
