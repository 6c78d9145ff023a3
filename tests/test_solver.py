"""Reference simplex tests: correctness against scipy on random LPs,
status detection, and primal feasibility checking."""

import ast
import json
import math
import os
import subprocess
import sys
import textwrap
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
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
    size_report,
    solve_reference,
    tri_area_case,
    write_mps,
    write_solution,
)
from flowgraph import highs_adapter, solver
from flowgraph.errors import InvariantViolation, ParseError
from flowgraph.highs_adapter import scipy_extension
from conftest import against_highs, csr, presolve_against_highs


def random_lp(rng: np.random.Generator, n: int, m: int, narrow: int = 0,
              singletons: int = 0, doubletons: int = 0) -> LpInstance:
    """A bounded-feasible random LP: x0 feasible by construction, box bounds.

    ``narrow`` columns get bounds near 2000 that are only 1e-3..1e-2 wide,
    narrower than a relative 1e-5 of their magnitude.  ``singletons`` adds
    that many single-term rows after the others, with coefficients of either
    sign and every kind of bounds (two, an upper one, a lower one, equal);
    the first two share a column, and column 0 loses its bounds so that one
    such range row alone bounds it.  ``doubletons`` adds a chain of up to
    that many two-term equality rows ``a x_p + b x_q = rhs`` through distinct
    columns, coefficients of either sign, before the others, whose dense
    rows mostly hold both columns of a link; the chain's first column is
    free, so only the chain bounds it, and a column off the chain is fixed
    at x0.
    """
    rows = []
    lower = rng.uniform(-5.0, 0.0, n)
    upper = lower + rng.uniform(0.5, 6.0, n)
    if narrow:
        cols = rng.choice(n, size=min(narrow, n), replace=False)
        lower[cols] = rng.uniform(1990.0, 2000.0, len(cols))
        upper[cols] = lower[cols] + rng.uniform(1e-3, 1e-2, len(cols))
    x0 = rng.uniform(lower, upper)
    if doubletons:
        order = rng.permutation(n)
        chain, fixed = order[:min(doubletons, n - 2) + 1], order[-1]
        for k, (p, q) in enumerate(zip(chain[:-1], chain[1:])):
            a, b = rng.choice([-1.0, 1.0], 2) * rng.uniform(0.5, 2.0, 2)
            rhs = float(a * x0[p] + b * x0[q])
            rows.append(ConstraintRow(RowFamily.FLOW_BOUND, rhs, rhs, [(int(p), float(a)),
                                                                       (int(q), float(b))],
                                      f"d{k}"))
        lower[chain[0]], upper[chain[0]] = -np.inf, np.inf
        lower[fixed] = upper[fixed] = x0[fixed]
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


def seeded_lp(seed: int, narrow: int, singletons: int, doubletons: int) -> LpInstance:
    """The random LP of one :data:`RANDOM_LPS` draw: 3-8 columns, 2-6 rows."""
    rng = np.random.default_rng(seed)
    return random_lp(rng, n=int(rng.integers(3, 9)), m=int(rng.integers(2, 7)), narrow=narrow,
                     singletons=singletons, doubletons=doubletons)


#: ``(seed, narrow, singletons, doubletons)`` of the four random LP flavours
RANDOM_LPS = ([pytest.param(s, 0, 0, 0, id=str(s)) for s in range(30)]
              + [pytest.param(s, 3, 0, 0, id=f"narrow-{s}") for s in range(30)]
              + [pytest.param(s, 0, 8, 0, id=f"singletons-{s}") for s in range(30)]
              + [pytest.param(s, 0, 0, 5, id=f"doubletons-{s}") for s in range(30)])


class TestAgainstScipy:
    @pytest.mark.parametrize("seed, narrow, singletons, doubletons", RANDOM_LPS)
    def test_random_lps_match_highs(self, seed, narrow, singletons, doubletons):
        lp = seeded_lp(seed, narrow, singletons, doubletons)
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

    def test_rows_that_all_presolve_away(self):
        # every row is a single term, so the presolve leaves no row and
        # SuperLU factorizes a 0 x 0 basis
        lp = LpInstance(
            variables=[VariableRef(VarRole.FLOW, ("a", "b"), 1, upper=10.0),
                       VariableRef(VarRole.FLOW, ("b", "a"), 1, lower=-10.0, upper=10.0)],
            rows=[ConstraintRow(RowFamily.FLOW_BOUND, -np.inf, 4.0, [(0, 2.0)], "r0"),
                  ConstraintRow(RowFamily.FLOW_BOUND, 1.0, 3.0, [(1, -1.0)], "r1")],
            objective=[(0, -1.0), (1, 1.0)],
        )
        assert len(solver.presolve(lp).lp.row_lo) == 0
        result = solve_reference(lp)
        assert result.is_optimal and result.refactorizations == 1
        assert result.primal.tolist() == [2.0, -3.0] and result.objective == -5.0

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
        # and at a refactorization mid-solve; a short block of etas makes
        # the third factorization come well before the optimum
        monkeypatch.setattr(solver, "_REFACTOR_EVERY", 4)
        lp = build_model(hybrid_fixture(), Approach.TWO_BB_2F)
        superlu = scipy_extension(solver._SUPERLU)
        real, calls = superlu.gstrf, []

        def gstrf(*args, **kwargs):
            calls.append(args)
            if len(calls) == failing_call:
                raise RuntimeError("Factor is exactly singular")
            return real(*args, **kwargs)

        monkeypatch.setattr(superlu, "gstrf", gstrf)
        result = solve_reference(lp)
        assert result.status == "numerical_failure"
        assert result.primal is None and result.objective is None
        assert result.refactorizations == failing_call - 1
        assert (result.iterations > 0) == (failing_call > 1)
        path = str(tmp_path / "failed.sol")
        write_solution(result, path, lp)
        assert read_solution(path, lp).status == "numerical_failure"


def flows(*bounds) -> list:
    """One flow column per ``(lower, upper)`` pair."""
    return [VariableRef(VarRole.FLOW, (f"c{j}", "d"), 1, lower=lo, upper=hi)
            for j, (lo, hi) in enumerate(bounds)]


class TestPhase1:
    """Phase 1 starts from the slack basis, whether each slack is in its
    bounds or not, and minimises the sum of the basics' violations."""

    def test_slacks_above_and_below_their_bounds(self):
        # x + y >= 3 and z - y <= 1, x and y in [0, 4], z in [2, 5]: at the
        # start x = y = 0 and z = 2, so the slack 3 - x - y = 3 is above its
        # upper bound 0 and the slack 1 - z + y = -1 below its lower bound 0
        lp = LpInstance(
            variables=flows((0.0, 4.0), (0.0, 4.0), (2.0, 5.0)),
            rows=[ConstraintRow(RowFamily.FLOW_BOUND, 3.0, np.inf, [(0, 1.0), (1, 1.0)], "r"),
                  ConstraintRow(RowFamily.FLOW_BOUND, -np.inf, 1.0, [(1, -1.0), (2, 1.0)], "s")],
            objective=[(0, 1.0), (1, 2.0), (2, 1.0)],
        )
        worker = solver._Simplex(solver.presolve(lp).lp, max_iter=100)
        assert worker.value[3:].tolist() == [3.0, -1.0]
        assert worker.upper[3] == 0.0 and worker.lower[4] == 0.0
        result = solve_reference(lp)
        assert result.is_optimal and result.phase1_iterations > 0
        theirs = scipy_solve(lp)
        assert theirs.status == 0 and result.objective == pytest.approx(theirs.fun, rel=1e-9)
        assert check_primal(lp, result.primal) == []

    def test_infeasible_after_phase1_pivots(self):
        # x + y >= 3 and x - y <= 0.5 with x, y in [0, 1]: x enters at the
        # first pivot, the second slack blocking at x = 0.5, and the sum of
        # violations then stops at 1
        lp = LpInstance(
            variables=flows((0.0, 1.0), (0.0, 1.0)),
            rows=[ConstraintRow(RowFamily.FLOW_BOUND, 3.0, np.inf, [(0, 1.0), (1, 1.0)], "r"),
                  ConstraintRow(RowFamily.FLOW_BOUND, -np.inf, 0.5, [(0, 1.0), (1, -1.0)], "s")],
            objective=[(0, 1.0)],
        )
        assert solver.presolve(lp).status is None
        result = solve_reference(lp)
        assert result.status == "infeasible" and result.primal is None
        assert result.phase1_iterations == result.iterations > 0
        assert scipy_solve(lp).status == 2


class TestPresolve:
    def test_chain_is_substituted_away(self):
        # x = 2y and y = z + 1 with x in [0, 10], y free and z in [0, 3]:
        # both rows go, x and z with them (each has fewer terms than y when
        # its row is taken), and y alone is left
        lp = LpInstance(
            variables=flows((0.0, 10.0), (-np.inf, np.inf), (0.0, 3.0)),
            rows=[ConstraintRow(RowFamily.FLOW_BOUND, 0.0, 0.0, [(0, 1.0), (1, -2.0)], "x2y"),
                  ConstraintRow(RowFamily.FLOW_BOUND, 1.0, 1.0, [(1, 1.0), (2, -1.0)], "yz1")],
            objective=[(0, -1.0)],
        )
        reduced = solver.presolve(lp)
        assert (reduced.rows_removed, reduced.cols_removed) == (2, 2)
        assert reduced.kept.tolist() == [1] and len(reduced.lp.row_lo) == 0
        # x in [0, 10] bounds y to [0, 5], and z in [0, 3] to [1, 4]
        assert reduced.lp.lower.tolist() == [1.0] and reduced.lp.upper.tolist() == [4.0]
        assert reduced.lp.cost.tolist() == [-2.0]
        result = solve_reference(lp)
        assert result.is_optimal and result.primal.tolist() == [8.0, 4.0, 3.0]
        assert result.objective == -8.0 and check_primal(lp, result.primal) == []
        assert (result.rows_removed, result.cols_removed) == (2, 2)

    def test_fill_in_that_cancels_leaves_the_row(self):
        # x - y = 0 eliminates x = y; in x - y + z + w <= 5 the new y term
        # cancels the old one to exactly 0, so the row keeps z and w only
        lp = LpInstance(
            variables=flows((0.0, 4.0), (1.0, 3.0), (0.0, 2.0), (0.0, 2.0)),
            rows=[ConstraintRow(RowFamily.FLOW_BOUND, 0.0, 0.0, [(0, 1.0), (1, -1.0)], "xy"),
                  ConstraintRow(RowFamily.FLOW_BOUND, -np.inf, 5.0,
                                [(0, 1.0), (1, -1.0), (2, 1.0), (3, 1.0)], "sum")],
            objective=[(0, 1.0), (2, -1.0), (3, -2.0)],
        )
        reduced = solver.presolve(lp).lp
        assert reduced.indptr.tolist() == [0, 2] and reduced.data.tolist() == [1.0, 1.0]
        assert reduced.row_hi.tolist() == [5.0]
        # x = y moves x's cost onto y, and x's bounds [0, 4] leave y's [1, 3]
        assert reduced.cost.tolist() == [1.0, -1.0, -2.0]
        assert reduced.lower.tolist() == [1.0, 0.0, 0.0]
        assert reduced.upper.tolist() == [3.0, 2.0, 2.0]
        result = solve_reference(lp)
        assert result.primal.tolist() == [1.0, 1.0, 2.0, 2.0] and result.objective == -5.0
        assert check_primal(lp, result.primal) == []

    def test_everything_presolves_away(self):
        # x is fixed at 2, so x + y = 5 fixes y at 3 and 2 <= y - x <= 4
        # holds with nothing left to vary
        lp = LpInstance(
            variables=flows((2.0, 2.0), (0.0, 10.0)),
            rows=[ConstraintRow(RowFamily.FLOW_BOUND, 5.0, 5.0, [(0, 1.0), (1, 1.0)], "sum"),
                  ConstraintRow(RowFamily.FLOW_BOUND, 0.0, 4.0, [(0, -1.0), (1, 1.0)], "gap")],
            objective=[(0, 1.0), (1, 3.0)],
        )
        reduced = solver.presolve(lp)
        assert (reduced.rows_removed, reduced.cols_removed) == (2, 2)
        assert len(reduced.lp.row_lo) == len(reduced.lp.lower) == 0
        result = solve_reference(lp)
        assert result.is_optimal and result.iterations == 0
        assert result.primal.tolist() == [2.0, 3.0] and result.objective == 11.0

    def test_parallel_rows_leave_no_rounding_term(self):
        # 0.1x + 0.3y = 1 eliminates y, and 0.7x + 2.1y = 7, seven times
        # the first row, keeps only a rounding residue in x (about 1e-16),
        # which leaves the row instead of fixing x near 8 outside [0, 3]
        lp = LpInstance(
            variables=flows((0.0, 3.0), (0.0, 10.0)),
            rows=[ConstraintRow(RowFamily.FLOW_BOUND, 1.0, 1.0, [(0, 0.1), (1, 0.3)], "a"),
                  ConstraintRow(RowFamily.FLOW_BOUND, 7.0, 7.0, [(0, 0.7), (1, 2.1)], "b")],
            objective=[(0, 1.0)],
        )
        reduced = solver.presolve(lp)
        assert reduced.status is None and reduced.kept.tolist() == [0]
        assert len(reduced.lp.row_lo) == 0
        result = solve_reference(lp)
        assert result.is_optimal and check_primal(lp, result.primal) == []
        theirs = scipy_solve(lp)
        assert theirs.status == 0 and abs(result.objective - theirs.fun) <= 1e-9

    def test_crossing_row_bounds_are_infeasible(self):
        # 1 <= x + y <= 0 with x, y in [0, 5]: no rule takes the row, so
        # the crossing is read from the row's own bounds, as HiGHS reads it
        lp = LpInstance(
            variables=flows((0.0, 5.0), (0.0, 5.0)),
            rows=[ConstraintRow(RowFamily.FLOW_BOUND, 1.0, 0.0, [(0, 1.0), (1, 1.0)], "r")],
            objective=[(0, 1.0)],
        )
        assert solver.presolve(lp).status == "infeasible"
        result = solve_reference(lp)
        assert result.status == "infeasible" and result.iterations == 0
        assert scipy_solve(lp).status == 2  # infeasible

    def test_rows_crossing_within_the_tolerance_are_equalities(self):
        # 1 + 1e-9 <= x + y <= 1 crosses by less than the feasibility
        # tolerance: the row is the equality x + y = 1, and y goes
        lp = LpInstance(
            variables=flows((0.0, 5.0), (0.0, 5.0)),
            rows=[ConstraintRow(RowFamily.FLOW_BOUND, 1.0 + 1e-9, 1.0, [(0, 1.0), (1, 1.0)], "r")],
            objective=[(0, -1.0)],
        )
        reduced = solver.presolve(lp)
        assert reduced.status is None and (reduced.rows_removed, reduced.cols_removed) == (1, 1)
        result = solve_reference(lp)
        assert result.primal.tolist() == [1.0 + 1e-9, 0.0]
        assert check_primal(lp, result.primal) == []

    def test_empty_row_outside_its_bounds_is_infeasible(self):
        # fixing x at 1 leaves 0 >= 1 - 1 + 0.5 of the row x >= 1.5
        lp = LpInstance(
            variables=flows((1.0, 1.0), (0.0, 1.0)),
            rows=[ConstraintRow(RowFamily.FLOW_BOUND, 1.5, np.inf, [(0, 1.0)], "r"),
                  ConstraintRow(RowFamily.FLOW_BOUND, 0.0, 1.0, [(0, 1.0), (1, 1.0)], "s")],
        )
        assert solver.presolve(lp).status == "infeasible"
        assert solve_reference(lp).status == "infeasible"

    @pytest.mark.parametrize("need, bound, status, objective", [
        (3.0, 1.0, "infeasible", None), (1.0, 5.0, "optimal", 1.0)], ids=["infeasible", "optimal"])
    def test_row_with_no_finite_bound_is_dropped(self, need, bound, status, objective):
        # x + y >= need with x, y in [0, bound], and the free row x - y: its
        # slack once had bounds inf - inf = NaN and hid the positive
        # artificial of an infeasible LP
        lp = LpInstance(
            variables=flows((0.0, bound), (0.0, bound)),
            rows=[ConstraintRow(RowFamily.FLOW_BOUND, need, np.inf, [(0, 1.0), (1, 1.0)], "s"),
                  ConstraintRow(RowFamily.FLOW_BOUND, -np.inf, np.inf, [(0, 1.0), (1, -1.0)],
                                "r0")],
            objective=[(0, 1.0), (1, 2.0)],
        )
        reduced = solver.presolve(lp)
        assert reduced.status is None and reduced.rows_removed == 1
        assert reduced.lp.indptr.tolist() == [0, 2] and reduced.lp.row_lo.tolist() == [need]
        result = solve_reference(lp)
        assert result.status == status and result.objective == objective
        if objective is not None:
            assert check_primal(lp, result.primal) == []

    def test_tiny_coefficient_is_never_eliminated(self):
        # 1e-6 x + y = 1: x has fewer terms, but dividing by its coefficient
        # would blow y's terms up a millionfold, so y goes instead
        lp = LpInstance(
            variables=flows((0.0, 1e6), (0.0, 1.0), (0.0, 1.0)),
            rows=[ConstraintRow(RowFamily.FLOW_BOUND, 1.0, 1.0, [(0, 1e-6), (1, 1.0)], "d"),
                  ConstraintRow(RowFamily.FLOW_BOUND, -np.inf, 1.5, [(1, 1.0), (2, 1.0)], "r")],
            objective=[(0, -1.0), (2, -1.0)],
        )
        reduced = solver.presolve(lp)
        assert reduced.kept.tolist() == [0, 2]
        assert reduced.lp.data.tolist() == [-1e-6, 1.0]
        result = solve_reference(lp)
        assert result.primal.tolist() == [1e6, 0.0, 1.0] and result.objective == -1000001.0
        assert check_primal(lp, result.primal) == []

    @pytest.mark.parametrize("approach", list(Approach), ids=lambda a: a.value)
    @pytest.mark.parametrize("case", ["hybrid", "tri-area-t24"])
    def test_postsolve_is_primal_feasible(self, case, approach):
        lp = build_model(PIVOTS[case][0](), approach)
        reduced = solver.presolve(lp)
        result = solve_reference(lp)
        assert result.is_optimal and check_primal(lp, result.primal) == []
        assert result.rows_removed == reduced.rows_removed > 0
        assert result.cols_removed == reduced.cols_removed > 0
        # the objective is read from the LP's own columns and costs
        assert result.objective == float(sum((lp.cost * result.primal).tolist()))
        theirs = scipy_solve(lp).fun
        assert abs(result.objective - theirs) <= 1e-9 * abs(theirs)

    def test_clock_holds_presolve_and_postsolve(self, monkeypatch):
        events, clock = [], solver.time.perf_counter
        presolve, postsolve = solver.presolve, solver.Presolved.postsolve
        monkeypatch.setattr(solver, "presolve",
                            lambda lp: events.append("presolve") or presolve(lp))
        monkeypatch.setattr(solver.Presolved, "postsolve",
                            lambda self, x: events.append("postsolve") or postsolve(self, x))
        monkeypatch.setattr(solver.time, "perf_counter", lambda: events.append("clock") or clock())
        assert solve_reference(build_model(hybrid_fixture(), Approach.TWO_BB_2F)).is_optimal
        assert events == ["clock", "presolve", "postsolve", "clock"]


def test_solve_clock_starts_after_scipy_loads():
    # scipy's kernels load on first use; in a fresh interpreter both must
    # load before the solve reads its clock, so wall_time_s never holds them
    code = textwrap.dedent("""
        import sys, time
        from flowgraph import Approach, build_model, hybrid_fixture, solve_reference
        lp = build_model(hybrid_fixture(), Approach.ONE_BB_1F)
        clock, loaded = time.perf_counter, []

        def read():
            loaded.append(all(name in sys.modules for name in (
                "scipy.sparse._sparsetools", "scipy.sparse.linalg._dsolve._superlu")))
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
    # drive the eta block directly through more than two refactorizations,
    # checking both solves against the dense basis after every update
    rng = np.random.default_rng(3)
    m, extra = 12, 40
    B0 = sp.random(m, m, density=0.3, random_state=rng) + 4.0 * sp.identity(m)
    A = sp.hstack([B0, sp.random(m, extra, density=0.4, random_state=rng)], format="csc")
    basic = np.arange(m)
    basis = solver._Basis(solver._Csc(A.indptr.astype(np.intc), A.indices.astype(np.intc), A.data),
                          basic)
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


def test_fresh_lu_solves_the_basics_again(monkeypatch):
    # at each fresh LU the basics' values are solved again from the
    # nonbasic ones, B x_B = rhs - N x_N, as a dense solve gives them
    real, checked = solver._Simplex._solve_basics, []

    def spy(worker):
        x_B = real(worker)
        A = sp.csc_matrix((worker.A.data, worker.A.indices, worker.A.indptr),
                          shape=(worker.m, len(worker.value)))
        nonbasic = worker.value.copy()
        nonbasic[worker.basic] = 0.0
        dense = np.linalg.solve(A[:, worker.basic].toarray(), worker.rhs - A @ nonbasic)
        np.testing.assert_allclose(x_B, dense, rtol=1e-12, atol=1e-9)
        checked.append(worker.basis.factorizations)
        return x_B

    monkeypatch.setattr(solver._Simplex, "_solve_basics", spy)
    result = solve_reference(build_model(PIVOTS["tri-area-t24"][0](), Approach.THREE_BB_4F))
    assert result.is_optimal
    # every factorization after the first, each on its own fresh LU
    assert checked == list(range(2, result.refactorizations + 1)) and len(checked) >= 2


@pytest.mark.parametrize("approach", list(Approach), ids=lambda a: a.value)
def test_tri_area_t168_matches_highs(approach, tmp_path):
    # the longest horizon tier-1 solves, against HiGHS on the written MPS
    lp = build_model(scale_horizon(tri_area_case(CaseSpec()), 168), approach)
    assert against_highs(lp, str(tmp_path / "t168.mps"))[2] == []


@pytest.mark.parametrize("approach", list(Approach), ids=lambda a: a.value)
@pytest.mark.parametrize("case", ["hybrid", "tri-area-t24"])
def test_basis_columns_match_fancy_indexing(case, approach):
    # the LU factorizes the gathered columns, so they must be scipy's
    # matrix[:, basic] array for array, at the slack basis and at the optimum,
    # with the index arrays at the intc splu casts them to
    make = PIVOTS[case][0]
    worker = solver._Simplex(solver.presolve(build_model(make(), approach)).lp, max_iter=10 ** 6)
    A = worker.A
    matrix = sp.csc_matrix((A.data, A.indices, A.indptr), shape=(worker.m, len(A.indptr) - 1))
    for solved in (False, True):
        if solved:
            assert worker.solve()[0] == "optimal"
        got = solver._columns(A, worker.basic)
        expected = matrix[:, worker.basic].tocsc()
        assert len(got.indptr) == expected.shape[1] + 1
        for name, dtype in (("indptr", np.intc), ("indices", np.intc), ("data", np.float64)):
            assert getattr(got, name).dtype == dtype
            assert np.array_equal(getattr(got, name), getattr(expected, name).astype(dtype))


@pytest.mark.parametrize("approach", list(Approach), ids=lambda a: a.value)
@pytest.mark.parametrize("case", ["hybrid", "tri-area-t24"])
def test_solver_matrix_is_scipy_assembly(case, approach):
    # the simplex assembles [A I], its start values and its weights from the
    # presolved LP's CSR arrays; built through scipy.sparse as they once
    # were, they must come out the same bit for bit, or the pivots move
    lp = solver.presolve(build_model(PIVOTS[case][0](), approach)).lp
    worker = solver._Simplex(lp, max_iter=0)
    A = csr(lp).tocsc()
    m, n = A.shape
    assert worker.m == m and len(worker.A.indptr) == n + m + 1
    assert worker.basic.tolist() == list(range(n, n + m))
    # every slack starts basic at rhs - A x_N, some of them outside their
    # bounds, which leaves phase 1 work to do
    rhs = np.where(np.isfinite(lp.row_hi), lp.row_hi, lp.row_lo)
    s = rhs - A @ worker.value[:n]
    assert worker.value[n:].tobytes() == s.tobytes()
    assert ((s < worker.lower[n:]) | (s > worker.upper[n:])).any()
    expected = sp.hstack([A, sp.identity(m, format="csc")], format="csc")
    for name, dtype in (("indptr", np.intc), ("indices", np.intc), ("data", np.float64)):
        got = getattr(worker.A, name)
        assert got.dtype == dtype and np.array_equal(got, getattr(expected, name))
    weight = 1.0 / np.sqrt(1.0 + np.asarray(expected.power(2).sum(axis=0)).ravel())
    assert worker.weight.tobytes() == weight.tobytes()


@pytest.mark.parametrize("solver_first", [True, False], ids=["solver-first", "scipy-first"])
def test_kernels_shared_with_scipy_sparse(solver_first):
    """Loaded by the solver before or after ``import scipy.sparse.linalg``,
    the sparse kernels and SuperLU are one module each that both use, and
    both still work."""
    code = textwrap.dedent(f"""
        import json, sys
        import numpy as np
        from flowgraph import Approach, build_model, check_primal, hybrid_fixture, solve_reference
        from flowgraph.highs_adapter import scipy_extension

        NAMES = ("scipy.sparse._sparsetools", "scipy.sparse.linalg._dsolve._superlu")
        lp = build_model(hybrid_fixture(), Approach.ONE_BB_1F)
        loaded = []

        def solve():
            result = solve_reference(lp)
            loaded.extend(scipy_extension(name) for name in NAMES)
            return [result.objective, check_primal(lp, result.primal)]

        answers = [solve()] if {solver_first} else []
        import scipy.sparse.linalg
        from scipy.sparse import _sparsetools
        from scipy.sparse.linalg._dsolve import _superlu
        answers.append(solve())
        lu = scipy.sparse.linalg.splu(scipy.sparse.csc_matrix([[2.0, 1.0], [0.0, 4.0]]))
        x = np.linspace(-1.0, 1.0, len(lp.lower))
        A = scipy.sparse.csr_matrix((lp.data, lp.indices, lp.indptr),
                                    shape=(len(lp.row_lo), len(lp.lower)))
        product = bool(np.allclose(A @ x, A.toarray() @ x, rtol=0, atol=1e-12))
        shared = all(module is own is sys.modules[name] for name, module, own in zip(
            NAMES * len(answers), loaded, [_sparsetools, _superlu] * len(answers)))
        print(json.dumps([answers, lu.solve(np.array([3.0, 4.0])).tolist(), product, shared]))
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    answers, solved, product, shared = json.loads(proc.stdout.splitlines()[-1])
    pinned = solve_reference(build_model(hybrid_fixture(), Approach.ONE_BB_1F)).objective
    assert answers == [[pinned, []]] * (1 + solver_first)
    assert solved == [1.0, 1.0] and product and shared


def test_solve_leaves_the_instance_alone():
    # single-term rows become column bounds and zero terms leave the matrix
    # inside the solver; none of it may reach the store
    lp = build_model(hybrid_fixture(), Approach.TWO_BB_2F)
    text = mps_string(lp)
    stored = ("data", "indices", "indptr", "row_lo", "row_hi", "lower", "upper", "cost")
    before = [getattr(lp, name).copy() for name in stored]
    assert solve_reference(lp).is_optimal
    for old, name in zip(before, stored):
        new = getattr(lp, name)
        assert not new.flags.writeable
        assert np.array_equal(old, new)
    assert mps_string(lp) == text


def test_refactorizations_counted():
    result = solve_reference(build_model(hybrid_fixture(), Approach.TWO_BB_2F))
    assert result.is_optimal
    # one factorization at the start, then one per full eta block; a bound
    # flip pushes no eta
    assert 1 <= result.refactorizations <= 1 + result.iterations // solver._REFACTOR_EVERY


def check_primal_by_rows(instance: LpInstance, primal: np.ndarray, tol: float = 1e-7):
    """Reference: the per-row loop ``check_primal`` was before it read the
    store's CSR arrays."""
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

    @pytest.mark.parametrize("case", ["hybrid", "tri-area-t24"])
    def test_row_sums_are_the_scipy_product(self, case):
        # A @ x from the store's arrays is scipy's CSR product bit for bit,
        # inf and NaN entries included, and a row that is not finite is violated
        lp = build_model(PIVOTS[case][0](), Approach.TWO_BB_2F)
        x = np.random.default_rng(5).normal(0.0, 10.0, len(lp.lower))
        x[[1, 4, 9]] = [np.inf, -np.inf, np.nan]
        lhs = solver._row_sums(lp, x)
        expected = csr(lp) @ x
        assert lhs.tobytes() == expected.tobytes()
        assert not np.isfinite(expected).all()
        bad = ~np.isfinite(expected) | (expected < lp.row_lo - 1e-7) | (expected > lp.row_hi + 1e-7)
        names = lp.row_names()
        assert [v for v in check_primal(lp, x) if not v.startswith("bound:")] == [
            names[i] for i in np.flatnonzero(bad)]

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
    # the columns each solve enters, read as the pivot puts them in the basis
    paths: list[list[int]] = []
    push_eta = solver._Basis.push_eta

    def spy(basis, row, column):
        paths[-1].append(int(basis.basic[row]))
        push_eta(basis, row, column)

    monkeypatch.setattr(solver._Basis, "push_eta", spy)
    lp = build_model(hybrid_fixture(), approach)
    paths.append([])
    priced = solve_reference(lp)
    assert priced.bland_from is None
    # a window of one hands pricing to Bland's rule at the first
    # non-improving pivot
    monkeypatch.setattr(solver, "_STALL_WINDOW", 1)
    paths.append([])
    bland = solve_reference(lp)
    assert paths[0] and paths[1] != paths[0]
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
# tri-area T=24 864/646/668/521 -> 862/644/666/519.  The presolve that
# also substitutes fixed columns and eliminates doubleton equations, with
# SuperLU's supernode relaxation at 1, solves smaller LPs: hybrid
# 127/103/79/79 -> 79/79/79/57, tri-area T=24 862/644/666/519 -> 569/457/478/470.
# Holding the updates as one block refactorized every 32 updates, with the
# basics solved again at each fresh LU, changed the rounding of the basis
# solves: tri-area T=24 569/457/478/470 -> 572/455/467/470 (hybrid kept its).
PIVOTS = {
    "hybrid": (hybrid_fixture, {"3BB-4F": 79, "2BB-2F": 79, "2BB-1F": 79, "1BB-1F": 57}),
    "tri-area-t24": (
        lambda: scale_horizon(tri_area_case(CaseSpec()), 24),
        {"3BB-4F": 572, "2BB-2F": 455, "2BB-1F": 467, "1BB-1F": 470},
    ),
}


@pytest.mark.parametrize("approach", list(Approach), ids=lambda a: a.value)
@pytest.mark.parametrize("case", sorted(PIVOTS))
def test_pivot_path_pinned(case, approach):
    make, pins = PIVOTS[case]
    result = solve_reference(build_model(make(), approach))
    assert result.is_optimal
    assert result.iterations == pins[approach.value]


def presolved_cases():
    """The LPs whose presolve is checked on its own, the eight ``PIVOTS``
    LPs and every ``RANDOM_LPS`` draw, each as a param that builds it."""
    pinned = [pytest.param(lambda case=case, a=a: build_model(PIVOTS[case][0](), a),
                           id=f"{case}-{a.value}") for case in sorted(PIVOTS) for a in Approach]
    drawn = [pytest.param(lambda draw=p.values: seeded_lp(*draw), id=f"random-{p.id}")
             for p in RANDOM_LPS]
    return pinned + drawn


class TestPresolvedLp:
    """What the presolve leaves is an LpInstance that every store reader
    takes: it passes the store check, and its rows and columns keep the
    names and row families they had."""

    @pytest.mark.parametrize("make", presolved_cases())
    def test_records_follow_the_kept_rows_and_columns(self, make):
        lp = make()
        reduced = solver.presolve(lp)
        assert isinstance(reduced.lp, LpInstance)
        reduced.lp.check()
        rows, kept = reduced.rows, reduced.kept
        assert np.all(np.diff(rows) > 0) and np.all(np.diff(kept) > 0)
        assert reduced.rows_removed == len(lp.row_lo) - len(rows)
        assert reduced.cols_removed == len(lp.lower) - len(kept)
        assert reduced.lp.col_names() == np.array(lp.col_names(), object)[kept].tolist()
        assert reduced.lp.row_names() == np.array(lp.row_names(), object)[rows].tolist()
        assert reduced.lp.family.tolist() == lp.family[rows].tolist()
        assert reduced.lp.integral.tolist() == lp.integral[kept].tolist()

    @pytest.mark.parametrize("make", presolved_cases())
    def test_postsolved_highs_primal_is_feasible(self, make, tmp_path):
        # HiGHS solves the presolved LP from its MPS file; no simplex of
        # the repo's runs, so this checks the presolve and postsolve alone
        assert presolve_against_highs(make(), str(tmp_path))[2] == []

    def test_blocks_keep_each_parents_timesteps(self):
        # a tri-area build names its columns in one block per (role, key);
        # the presolved LP keeps one block per parent that keeps a column,
        # with the timesteps it keeps, in order
        lp = build_model(PIVOTS["tri-area-t24"][0](), Approach.TWO_BB_2F)
        reduced = solver.presolve(lp)
        parents = {(role, key): steps for role, key, steps in lp.col_blocks}
        assert len(reduced.lp.col_blocks) < len(lp.col_blocks)
        assert len({(role, key) for role, key, _ in reduced.lp.col_blocks}) == len(
            reduced.lp.col_blocks)
        for role, key, steps in reduced.lp.col_blocks:
            assert set(steps) <= set(parents[role, key]) and list(steps) == sorted(steps)
        assert [(v.role, v.key, v.timestep) for v in reduced.lp.variables] == [
            (v.role, v.key, v.timestep) for v in np.array(lp.variables, object)[reduced.kept]]

    def test_store_readers_take_the_presolved_lp(self):
        # size_report and write_mps read the presolved LP as any other
        lp = build_model(hybrid_fixture(), Approach.ONE_BB_1F)
        reduced = solver.presolve(lp).lp
        size = size_report(reduced)
        assert size.n_vars == len(reduced.lower) < len(lp.lower)
        assert size.n_constraints < size_report(lp).n_constraints
        text = mps_string(reduced)
        assert text.startswith(f"NAME {lp.name}\n")
        assert all(f" {name}\n" in text for name in reduced.row_names())
