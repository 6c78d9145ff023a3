"""Reference simplex tests: correctness against scipy on random LPs,
status detection, and primal feasibility checking."""

import ast
import math
import os
import subprocess
import sys
import textwrap
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg
from scipy.optimize import linprog

from flowgraph import (
    Approach,
    CaseSpec,
    ConstraintRow,
    LpInstance,
    RowFamily,
    VariableRef,
    VarRole,
    build_model,
    check_primal,
    hybrid_fixture,
    mps_string,
    read_solution,
    scale_horizon,
    solve_reference,
    tri_area_case,
    write_solution,
)
from flowgraph import solver
from flowgraph.errors import InvariantViolation, ParseError


def random_lp(rng: np.random.Generator, n: int, m: int, narrow: int = 0,
              singletons: int = 0) -> LpInstance:
    """A bounded-feasible random LP: x0 feasible by construction, box bounds.

    ``narrow`` columns get bounds near 2000 that are only 1e-3..1e-2 wide,
    narrower than a relative 1e-5 of their magnitude.  ``singletons`` adds
    that many single-term rows after the others, with coefficients of either
    sign and every kind of bounds (two, an upper one, a lower one, equal);
    the first two share a column, and column 0 loses its bounds so that one
    such range row alone bounds it.
    """
    rows = []
    lower = rng.uniform(-5.0, 0.0, n)
    upper = lower + rng.uniform(0.5, 6.0, n)
    if narrow:
        cols = rng.choice(n, size=min(narrow, n), replace=False)
        lower[cols] = rng.uniform(1990.0, 2000.0, len(cols))
        upper[cols] = lower[cols] + rng.uniform(1e-3, 1e-2, len(cols))
    x0 = rng.uniform(lower, upper)
    cost = rng.uniform(-2.0, 2.0, n)
    objective = [(j, float(c)) for j, c in enumerate(cost) if c != 0.0]
    for i in range(m):
        coefs = rng.uniform(-1.0, 1.0, n)
        coefs[rng.random(n) < 0.4] = 0.0
        if not coefs.any():
            coefs[int(rng.integers(n))] = 1.0
        terms = [(j, float(c)) for j, c in enumerate(coefs) if c != 0.0]
        lhs0 = float(coefs @ x0)
        lo, hi = [(-np.inf, lhs0 + 0.5), (lhs0 - 0.5, np.inf), (lhs0, lhs0)][int(rng.integers(3))]
        rows.append(ConstraintRow(RowFamily.FLOW_BOUND, lo, hi, terms, f"r{i}"))
    if singletons:
        lower[0], upper[0] = -np.inf, np.inf
        # a range row on the free column, then one row of each kind
        kinds = ["range", "range", "<=", ">=", "="]
        for k in range(singletons):
            j = 0 if k < 2 else int(rng.integers(n))
            a = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0))
            kind = kinds[k] if k < len(kinds) else kinds[int(rng.integers(len(kinds)))]
            lhs0 = a * x0[j]
            slack_lo, slack_hi = rng.uniform(0.0, 1.0, 2)
            below, above = lhs0 - slack_lo, lhs0 + slack_hi
            lo, hi = {
                "range": (below, above),
                "<=": (-np.inf, above),
                ">=": (below, np.inf),
                "=": (lhs0, lhs0),
            }[kind]
            rows.append(ConstraintRow(RowFamily.FLOW_BOUND, lo, hi, [(j, a)], f"s{k}"))
    variables = [
        VariableRef(VarRole.FLOW, (f"x{j}", "y"), 1, lower=lower[j], upper=upper[j])
        for j in range(n)
    ]
    return LpInstance("rand", variables, rows, objective)


def scipy_solve(lp: LpInstance):
    n = len(lp.variables)
    cost = np.zeros(n)
    for j, c in lp.objective:
        cost[j] = c
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for row in lp.rows:
        vec = np.zeros(n)
        for j, c in row.terms:
            vec[j] = c
        if row.lo == row.hi:
            a_eq.append(vec)
            b_eq.append(row.hi)
            continue
        if row.hi < np.inf:
            a_ub.append(vec)
            b_ub.append(row.hi)
        if row.lo > -np.inf:
            a_ub.append(-vec)
            b_ub.append(-row.lo)
    bounds = [(v.lower if np.isfinite(v.lower) else None,
               v.upper if np.isfinite(v.upper) else None) for v in lp.variables]
    return linprog(cost, A_ub=np.array(a_ub) if a_ub else None,
                   b_ub=np.array(b_ub) if b_ub else None,
                   A_eq=np.array(a_eq) if a_eq else None,
                   b_eq=np.array(b_eq) if b_eq else None,
                   bounds=bounds, method="highs")


class TestAgainstScipy:
    @pytest.mark.parametrize(
        "seed, narrow, singletons",
        [pytest.param(s, 0, 0, id=str(s)) for s in range(30)]
        + [pytest.param(s, 3, 0, id=f"narrow-{s}") for s in range(30)]
        + [pytest.param(s, 0, 8, id=f"singletons-{s}") for s in range(30)],
    )
    def test_random_lps_match_highs(self, seed, narrow, singletons):
        rng = np.random.default_rng(seed)
        lp = random_lp(rng, n=int(rng.integers(3, 9)), m=int(rng.integers(2, 7)), narrow=narrow,
                       singletons=singletons)
        ours = solve_reference(lp)
        theirs = scipy_solve(lp)
        assert theirs.status == 0, "generator must produce feasible LPs"
        assert ours.is_optimal
        scale = max(1.0, abs(theirs.fun))
        assert abs(ours.objective - theirs.fun) / scale < 1e-8
        assert check_primal(lp, ours.primal) == []

    def test_hybrid_model_matches_highs(self):
        lp = build_model(hybrid_fixture(), Approach.TWO_BB_2F)
        ours = solve_reference(lp)
        theirs = scipy_solve(lp)
        assert abs(ours.objective - theirs.fun) / max(1.0, abs(theirs.fun)) < 1e-9


class TestStatuses:
    def test_infeasible(self):
        lp = LpInstance(
            variables=[VariableRef(VarRole.FLOW, ("a", "b"), 1, upper=1.0)],
            rows=[ConstraintRow(RowFamily.FLOW_BOUND, 2.0, np.inf, [(0, 1.0)], "r0")],
        )
        assert solve_reference(lp).status == "infeasible"

    def test_unbounded(self):
        lp = LpInstance(variables=[VariableRef(VarRole.FLOW, ("a", "b"), 1)],
                        objective=[(0, -1.0)])
        assert solve_reference(lp).status == "unbounded"

    def test_narrow_bounds_are_not_fixed(self):
        # 0.01 wide at 2000: within a relative 1e-5 of both bounds at once
        lp = LpInstance(
            variables=[VariableRef(VarRole.FLOW, ("a", "b"), 1, lower=1999.99, upper=2000.0)],
            objective=[(0, -1.0)],
        )
        result = solve_reference(lp)
        assert result.is_optimal and result.objective == -2000.0

    def test_singleton_rows_crossing_within_tolerance(self):
        # x >= 1 and x <= 1 - 5e-8 cross by less than the 1e-7 feasibility
        # tolerance, so x is pinned near 1 rather than declared infeasible
        lp = LpInstance(
            variables=[VariableRef(VarRole.FLOW, ("a", "b"), 1, upper=10.0)],
            rows=[
                ConstraintRow(RowFamily.FLOW_BOUND, 1.0, np.inf, [(0, 1.0)], "lo"),
                ConstraintRow(RowFamily.FLOW_BOUND, -np.inf, 1.0 - 5e-8, [(0, 1.0)], "hi"),
            ],
            objective=[(0, -1.0)],
        )
        result = solve_reference(lp)
        assert result.is_optimal
        assert result.objective == pytest.approx(-1.0, abs=1e-7)
        assert check_primal(lp, result.primal) == []

    def test_zero_coefficient_is_rejected(self):
        # 0 * x = 0 holds for every x; the check before the solve rejects it,
        # so the presolve never takes it for a bound that pins x
        lp = LpInstance(
            variables=[VariableRef(VarRole.FLOW, ("a", "b"), 1, upper=3.0)],
            rows=[ConstraintRow(RowFamily.FLOW_BOUND, 0.0, 0.0, [(0, 0.0)], "z")],
            objective=[(0, -1.0)],
        )
        with pytest.raises(ParseError, match="row z: invalid coefficient 0.0"):
            solve_reference(lp)

    def test_empty_instance_is_trivially_optimal(self):
        result = solve_reference(LpInstance())
        assert result.is_optimal and result.objective == 0.0

    def test_integrality_relaxed_with_warning(self):
        lp = LpInstance(
            variables=[VariableRef(VarRole.UNITS_ON, ("a",), 1, upper=1.0, integrality=True)],
            objective=[(0, 1.0)],
        )
        with pytest.warns(UserWarning):
            result = solve_reference(lp)
        assert result.is_optimal

    def test_iteration_limit_is_a_status(self, monkeypatch):
        lp = build_model(hybrid_fixture(), Approach.ONE_BB_1F)
        # the limit is _PIVOTS_PER_SIZE * (2 * rows + cols + 1); an exact
        # fraction makes it 5 pivots
        size = 2 * len(lp.row_lo) + len(lp.lower) + 1
        monkeypatch.setattr(solver, "_PIVOTS_PER_SIZE", Fraction(5, size))
        result = solve_reference(lp)
        assert result.status == "iteration_limit"
        assert result.primal is None and result.iterations == 5

    @pytest.mark.parametrize("failing_call", [1, 3], ids=["first", "refactor"])
    def test_singular_basis_is_a_status(self, monkeypatch, tmp_path, failing_call):
        # SuperLU's error on a singular basis, at the first factorization
        # and at a refactorization mid-solve
        lp = build_model(hybrid_fixture(), Approach.TWO_BB_2F)
        real, calls = scipy.sparse.linalg.splu, []

        def splu(*args, **kwargs):
            calls.append(args)
            if len(calls) == failing_call:
                raise RuntimeError("Factor is exactly singular")
            return real(*args, **kwargs)

        monkeypatch.setattr(scipy.sparse.linalg, "splu", splu)
        result = solve_reference(lp)
        assert result.status == "numerical_failure"
        assert result.primal is None and result.objective is None
        assert result.refactorizations == failing_call - 1
        assert (result.iterations > 0) == (failing_call > 1)
        path = str(tmp_path / "failed.sol")
        write_solution(result, path, lp)
        assert read_solution(path, lp).status == "numerical_failure"


def test_solve_clock_starts_after_scipy_loads():
    # scipy is imported on first use; in a fresh interpreter the import must
    # land before the solve reads its clock, so wall_time_s never holds it
    code = textwrap.dedent("""
        import sys, time
        from flowgraph import Approach, build_model, hybrid_fixture, solve_reference
        lp = build_model(hybrid_fixture(), Approach.ONE_BB_1F)
        clock, loaded = time.perf_counter, []

        def read():
            loaded.append("scipy.sparse.linalg" in sys.modules)
            return clock()

        time.perf_counter = read
        solve_reference(lp)
        time.perf_counter = clock
        print(loaded)
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    loaded = ast.literal_eval(proc.stdout.splitlines()[-1])
    assert loaded and all(loaded)


def unchecked_lp(rhs: float = 4.0, column: int = 0) -> LpInstance:
    """One column, one row, built without :meth:`LpInstance.check`."""
    return LpInstance("x", [VariableRef(VarRole.FLOW, ("a", "b"), 1, upper=5.0)],
                      [ConstraintRow(RowFamily.FLOW_BOUND, -np.inf, rhs, [(column, 1.0)], "r")],
                      [(0, -1.0)])


class TestCheckedFirst:
    """``solve_reference`` and ``check_primal`` check the instance first."""

    CALLS = [solve_reference, lambda lp: check_primal(lp, np.zeros(1))]

    @pytest.mark.parametrize("call", CALLS, ids=["solve_reference", "check_primal"])
    def test_nan_bound_is_an_invariant_violation(self, call):
        with pytest.raises(InvariantViolation, match="row r: row_hi is NaN"):
            call(unchecked_lp(rhs=math.nan))

    @pytest.mark.parametrize("call", CALLS, ids=["solve_reference", "check_primal"])
    def test_column_out_of_range_is_a_parse_error(self, call):
        with pytest.raises(ParseError, match="row r: bad variable index 3"):
            call(unchecked_lp(column=3))

    def test_passed_check_is_remembered(self, monkeypatch):
        lp = build_model(hybrid_fixture(), Approach.ONE_BB_1F)
        # build_model checked lp, so a later check must not read the terms
        monkeypatch.setattr(lp, "indices", None)
        lp.check()

    def test_check_runs_before_the_clock(self, monkeypatch):
        events, check, clock = [], LpInstance.check, solver.time.perf_counter
        monkeypatch.setattr(LpInstance, "check", lambda lp: events.append("check") or check(lp))
        monkeypatch.setattr(solver.time, "perf_counter", lambda: events.append("clock") or clock())
        assert solve_reference(unchecked_lp()).is_optimal
        assert events[0] == "check" and events.count("check") == 1 and "clock" in events


def test_basis_solves_track_replaced_columns():
    # drive the eta file directly through more than two refactorizations,
    # checking both solves against the dense basis after every update
    rng = np.random.default_rng(3)
    m, extra = 12, 40
    B0 = sp.random(m, m, density=0.3, random_state=rng) + 4.0 * sp.identity(m)
    A = sp.hstack([B0, sp.random(m, extra, density=0.4, random_state=rng)], format="csc")
    basic = np.arange(m)
    basis = solver._Basis(A, basic)
    pushes = 2 * solver._REFACTOR_EVERY + 5
    for _ in range(pushes):
        q = int(rng.choice(np.setdiff1d(np.arange(m + extra), basic)))
        w = basis.ftran(A[:, [q]].toarray().ravel())
        # the largest entry of w keeps the new basis well conditioned
        leaving = int(np.argmax(np.abs(w)))
        basic[leaving] = q
        basis.push_eta(leaving, w)
        dense = A[:, basic].toarray()
        b, c = rng.normal(size=m), rng.normal(size=m)
        np.testing.assert_allclose(basis.ftran(b), np.linalg.solve(dense, b), rtol=0, atol=1e-9)
        np.testing.assert_allclose(basis.btran(c), np.linalg.solve(dense.T, c), rtol=0,
                                   atol=1e-9)
    assert basis.factorizations == 1 + pushes // solver._REFACTOR_EVERY


@pytest.mark.parametrize("approach", list(Approach), ids=lambda a: a.value)
@pytest.mark.parametrize("case", ["hybrid", "tri-area-t24"])
def test_basis_columns_match_fancy_indexing(case, approach):
    # the LU factorizes the gathered columns, so they must be scipy's
    # matrix[:, basic] array for array, at the slack basis and at the optimum
    make = PIVOTS[case][0]
    worker = solver._Simplex(build_model(make(), approach))
    for solved in (False, True):
        if solved:
            assert worker.solve()[0] == "optimal"
        got = solver._columns(worker.A, worker.basic)
        expected = worker.A[:, worker.basic].tocsc()
        assert got.shape == expected.shape
        for name in ("indptr", "indices", "data"):
            assert getattr(got, name).dtype == getattr(expected, name).dtype
            assert np.array_equal(getattr(got, name), getattr(expected, name))


def test_solve_leaves_the_instance_alone():
    # single-term rows become column bounds and zero terms leave the matrix
    # inside the solver; none of it may reach the shared matrix or store
    lp = build_model(hybrid_fixture(), Approach.TWO_BB_2F)
    text, A = mps_string(lp), lp.matrix()
    stored = ("row_lo", "row_hi", "lower", "upper", "cost")
    before = [A.data.copy(), A.indices.copy(), A.indptr.copy(),
              *(getattr(lp, name).copy() for name in stored)]
    assert solve_reference(lp).is_optimal
    after = lp.matrix()
    assert after is A
    for old, new in zip(before, [after.data, after.indices, after.indptr,
                                 *(getattr(lp, name) for name in stored)]):
        assert not new.flags.writeable
        assert np.array_equal(old, new)
    assert mps_string(lp) == text


def test_refactorizations_counted():
    result = solve_reference(build_model(hybrid_fixture(), Approach.TWO_BB_2F))
    assert result.is_optimal
    # one factorization at the start, then one per full eta file; a bound
    # flip pushes no eta
    assert 1 <= result.refactorizations <= 1 + result.iterations // solver._REFACTOR_EVERY


def check_primal_by_rows(instance: LpInstance, primal: np.ndarray, tol: float = 1e-7):
    """Reference: the per-row loop ``check_primal`` was before it read
    ``LpInstance.matrix()``."""
    violated = []
    for j, ref in enumerate(instance.variables):
        if primal[j] < ref.lower - tol or primal[j] > ref.upper + tol:
            violated.append(f"bound:{ref.name}")
    for row in instance.rows:
        lhs = sum(coef * primal[j] for j, coef in row.terms)
        if lhs > row.hi + tol or lhs < row.lo - tol:
            violated.append(row.name)
    return violated


class TestCheckPrimal:
    @pytest.mark.parametrize("approach", list(Approach), ids=lambda a: a.value)
    def test_matches_per_row_reference(self, approach):
        lp = build_model(hybrid_fixture(), approach)
        optimum = solve_reference(lp).primal
        rng = np.random.default_rng(7)
        seen = []
        for _ in range(5):
            # move about a third of the values; some leave their bounds
            primal = np.array([value + (rng.normal(0.0, 5.0) if rng.random() < 0.3 else 0.0)
                               for value in optimum.tolist()])
            expected = check_primal_by_rows(lp, primal)
            assert check_primal(lp, primal) == expected
            seen += expected
        assert any(v.startswith("bound:") for v in seen)
        assert any(not v.startswith("bound:") for v in seen)

    def test_flags_violated_bound_and_row(self):
        lp = LpInstance(
            variables=[VariableRef(VarRole.FLOW, ("a", "b"), 1, upper=1.0)],
            rows=[ConstraintRow(RowFamily.FLOW_BOUND, -np.inf, 0.5, [(0, 1.0)], "r0")],
        )
        violated = check_primal(lp, np.array([2.0]))
        assert "bound:f_a_b_t1" in violated
        assert "r0" in violated

    def test_range_row_low_side(self):
        lp = LpInstance(
            variables=[VariableRef(VarRole.FLOW, ("a", "b"), 1, lower=-5.0)],
            rows=[ConstraintRow(RowFamily.FLOW_BOUND, -1.0, 3.0, [(0, 1.0)], "rng")],
        )
        assert check_primal(lp, np.array([-2.0])) == ["rng"]
        assert check_primal(lp, np.array([0.0])) == []

    def test_wrong_length_is_rejected(self):
        lp = build_model(hybrid_fixture(), Approach.ONE_BB_1F)
        n = len(lp.col_names())
        for primal in (np.zeros(n - 1), np.zeros(n + 1), np.zeros((1, n))):
            with pytest.raises(InvariantViolation):
                check_primal(lp, primal)

    def test_non_finite_values_are_violations(self):
        lp = build_model(hybrid_fixture(), Approach.ONE_BB_1F)
        names = lp.col_names()
        violated = check_primal(lp, np.full(len(names), np.nan))
        assert violated[:len(names)] == [f"bound:{name}" for name in names]
        has_terms = np.diff(lp.indptr) > 0
        assert violated[len(names):] == [r for r, t in zip(lp.row_names(), has_terms) if t]
        # an infinite value within infinite bounds is no solution either
        optimum = solve_reference(lp).primal.copy()
        free = int(np.flatnonzero(lp.upper == np.inf)[0])
        optimum[free] = np.inf
        assert f"bound:{names[free]}" in check_primal(lp, optimum)

    def test_overflowing_row_is_a_violation(self):
        lp = LpInstance(
            variables=[VariableRef(VarRole.FLOW, ("a", "b"), 1)],
            rows=[ConstraintRow(RowFamily.FLOW_BOUND, 0.0, np.inf, [(0, 10.0)], "r0")],
        )
        # 1e308 is within the column's bounds, but 10 * 1e308 overflows
        assert check_primal(lp, np.array([1e308])) == ["r0"]


def test_pricing_divides_by_the_column_norm():
    # minimize -2 x - y subject to 10 x + y <= 10.  Dantzig pricing enters x
    # (|d| = 2 against 1), stops at x = 1 and needs a second pivot to reach
    # y = 10.  Divided by sqrt(1 + |a_j|^2), x ranks 2/sqrt(101) = 0.20 and
    # y 1/sqrt(2) = 0.71, so y enters first and one pivot is optimal
    lp = LpInstance(
        variables=[VariableRef(VarRole.FLOW, ("x", "y"), 1),
                   VariableRef(VarRole.FLOW, ("y", "x"), 1)],
        rows=[ConstraintRow(RowFamily.FLOW_BOUND, -np.inf, 10.0, [(0, 10.0), (1, 1.0)], "r0")],
        objective=[(0, -2.0), (1, -1.0)],
    )
    result = solve_reference(lp)
    assert result.is_optimal and result.objective == -10.0
    assert result.primal.tolist() == [0.0, 10.0]
    assert result.iterations == 1


@pytest.mark.parametrize("approach", list(Approach), ids=lambda a: a.value)
def test_bland_fallback_agrees_with_dantzig(approach, monkeypatch):
    lp = build_model(hybrid_fixture(), approach)
    priced = solve_reference(lp)
    assert priced.bland_from is None
    # a window of one hands pricing to Bland's rule at the first
    # non-improving pivot
    monkeypatch.setattr(solver, "_STALL_WINDOW", 1)
    bland = solve_reference(lp)
    assert bland.iterations != priced.iterations
    assert abs(bland.objective - priced.objective) < 1e-9
    assert check_primal(lp, bland.primal) == []
    assert 1 < bland.bland_from < bland.iterations
    assert 0 < bland.phase1_iterations < bland.iterations
    # priced, the basis phase 1 ends on is optimal: phase 2 takes no pivot
    assert priced.phase1_iterations == priced.iterations
    for result in (priced, bland):
        assert 0 < result.degenerate_pivots < result.iterations


@pytest.mark.parametrize("label", ["3BB-4F", "1BB-1F"])
def test_bland_hands_back_once_the_objective_improves(label, monkeypatch):
    # Bland's rule only bridges a stall; kept to the end under a window of
    # one it took 3905 and 3923 pivots here, against 862 and 519 priced
    lp = build_model(scale_horizon(tri_area_case(CaseSpec()), 24), Approach.from_label(label))
    priced = solve_reference(lp)
    monkeypatch.setattr(solver, "_STALL_WINDOW", 1)
    bland = solve_reference(lp)
    assert bland.bland_from is not None
    assert abs(bland.objective - priced.objective) <= 1e-9 * abs(priced.objective)
    assert check_primal(lp, bland.primal) == []
    assert bland.iterations < 2 * priced.iterations


# Simplex iterations per approach, measured when the simplex began to turn
# single-term rows into column bounds.  Equal matrices and bounds give equal
# pivots, so a change to how the solver reads the LP must leave these alone.
# Refactorizing every 16 eta updates instead of every 100 changed the
# rounding of the basis solves, and so the Dantzig path, at tri-area T=24:
# 2BB-2F 833 -> 824, 2BB-1F 824 -> 851, 1BB-1F 680 -> 685 (3BB-4F and the
# hybrid case kept theirs).  Dividing |d_j| by the steepest-edge weight
# sqrt(1 + |a_j|^2) instead of Dantzig's largest |d_j| changed the path:
# hybrid 125/101/77/77 -> 129/105/81/81, tri-area T=24 1040/824/851/685 ->
# 864/646/668/521 (3BB-4F/2BB-2F/2BB-1F/1BB-1F).  Counting pivots instead
# of pricing rounds drops the round of each phase that finds no entering
# column, with the path unchanged: hybrid 129/105/81/81 -> 127/103/79/79,
# tri-area T=24 864/646/668/521 -> 862/644/666/519.
PIVOTS = {
    "hybrid": (hybrid_fixture, {"3BB-4F": 127, "2BB-2F": 103, "2BB-1F": 79, "1BB-1F": 79}),
    "tri-area-t24": (
        lambda: scale_horizon(tri_area_case(CaseSpec()), 24),
        {"3BB-4F": 862, "2BB-2F": 644, "2BB-1F": 666, "1BB-1F": 519},
    ),
}


@pytest.mark.parametrize("approach", list(Approach), ids=lambda a: a.value)
@pytest.mark.parametrize("case", sorted(PIVOTS))
def test_pivot_path_pinned(case, approach):
    make, pins = PIVOTS[case]
    result = solve_reference(build_model(make(), approach))
    assert result.is_optimal
    assert result.iterations == pins[approach.value]
