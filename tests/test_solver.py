"""Reference simplex tests: correctness against scipy on random LPs,
status detection, and primal feasibility checking."""

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
    SimplexOptions,
    VariableRef,
    VarRole,
    build_model,
    check_primal,
    hybrid_fixture,
    scale_horizon,
    solve_reference,
    tri_area_case,
)
from flowgraph import solver
from flowgraph.errors import InvariantViolation, UnknownVariableName


def random_lp(rng: np.random.Generator, n: int, m: int, narrow: int = 0,
              singletons: int = 0) -> LpInstance:
    """A bounded-feasible random LP: x0 feasible by construction, box bounds.

    ``narrow`` columns get bounds near 2000 that are only 1e-3..1e-2 wide,
    narrower than a relative 1e-5 of their magnitude.  ``singletons`` adds
    that many single-term rows after the others, with coefficients of either
    sign and every sense (``<=`` with and without a low side, ``>=``, ``=``);
    the first two share a column, and column 0 loses its bounds so that one
    such range row alone bounds it.
    """
    lp = LpInstance(name="rand")
    lower = rng.uniform(-5.0, 0.0, n)
    upper = lower + rng.uniform(0.5, 6.0, n)
    if narrow:
        cols = rng.choice(n, size=min(narrow, n), replace=False)
        lower[cols] = rng.uniform(1990.0, 2000.0, len(cols))
        upper[cols] = lower[cols] + rng.uniform(1e-3, 1e-2, len(cols))
    x0 = rng.uniform(lower, upper)
    cost = rng.uniform(-2.0, 2.0, n)
    lp.objective = [(j, float(c)) for j, c in enumerate(cost) if c != 0.0]
    for i in range(m):
        coefs = rng.uniform(-1.0, 1.0, n)
        coefs[rng.random(n) < 0.4] = 0.0
        if not coefs.any():
            coefs[int(rng.integers(n))] = 1.0
        terms = [(j, float(c)) for j, c in enumerate(coefs) if c != 0.0]
        lhs0 = float(coefs @ x0)
        sense = ["<=", ">=", "="][int(rng.integers(3))]
        rhs = lhs0 + (0.5 if sense == "<=" else -0.5 if sense == ">=" else 0.0)
        lp.rows.append(ConstraintRow(RowFamily.FLOW_BOUND, sense, rhs, terms, f"r{i}"))
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
            sense, rhs, low = {
                "range": ("<=", above, below),
                "<=": ("<=", above, None),
                ">=": (">=", below, None),
                "=": ("=", lhs0, None),
            }[kind]
            lp.rows.append(ConstraintRow(RowFamily.FLOW_BOUND, sense, rhs, [(j, a)], f"s{k}",
                                         rhs_low=low))
    lp.variables = [
        VariableRef(VarRole.FLOW, (f"x{j}", "y"), 1, lower=lower[j], upper=upper[j])
        for j in range(n)
    ]
    return lp


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
        if row.sense == "=":
            a_eq.append(vec)
            b_eq.append(row.rhs)
        elif row.sense == "<=":
            a_ub.append(vec)
            b_ub.append(row.rhs)
        else:
            a_ub.append(-vec)
            b_ub.append(-row.rhs)
        if row.rhs_low is not None:
            a_ub.append(-vec)
            b_ub.append(-row.rhs_low)
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
        lp = LpInstance()
        lp.variables = [VariableRef(VarRole.FLOW, ("a", "b"), 1, upper=1.0)]
        lp.rows = [ConstraintRow(RowFamily.FLOW_BOUND, ">=", 2.0, [(0, 1.0)], "r0")]
        assert solve_reference(lp).status == "infeasible"

    def test_unbounded(self):
        lp = LpInstance()
        lp.variables = [VariableRef(VarRole.FLOW, ("a", "b"), 1)]
        lp.objective = [(0, -1.0)]
        assert solve_reference(lp).status == "unbounded"

    def test_narrow_bounds_are_not_fixed(self):
        # 0.01 wide at 2000: within a relative 1e-5 of both bounds at once
        lp = LpInstance()
        lp.variables = [VariableRef(VarRole.FLOW, ("a", "b"), 1, lower=1999.99, upper=2000.0)]
        lp.objective = [(0, -1.0)]
        result = solve_reference(lp)
        assert result.is_optimal and result.objective == -2000.0

    def test_singleton_rows_crossing_within_tolerance(self):
        # x >= 1 and x <= 1 - 5e-8 cross by less than the 1e-7 feasibility
        # tolerance, so x is pinned near 1 rather than declared infeasible
        lp = LpInstance()
        lp.variables = [VariableRef(VarRole.FLOW, ("a", "b"), 1, upper=10.0)]
        lp.rows = [
            ConstraintRow(RowFamily.FLOW_BOUND, ">=", 1.0, [(0, 1.0)], "lo"),
            ConstraintRow(RowFamily.FLOW_BOUND, "<=", 1.0 - 5e-8, [(0, 1.0)], "hi"),
        ]
        lp.objective = [(0, -1.0)]
        result = solve_reference(lp)
        assert result.is_optimal
        assert result.objective == pytest.approx(-1.0, abs=1e-7)
        assert check_primal(lp, result.primal) == []

    def test_zero_coefficient_is_no_bound(self):
        # 0 * x = 0 holds for every x, so it must not pin x to a bound
        lp = LpInstance()
        lp.variables = [VariableRef(VarRole.FLOW, ("a", "b"), 1, upper=3.0)]
        lp.rows = [ConstraintRow(RowFamily.FLOW_BOUND, "=", 0.0, [(0, 0.0)], "z")]
        lp.objective = [(0, -1.0)]
        result = solve_reference(lp)
        assert result.is_optimal and result.objective == -3.0

    def test_empty_instance_is_trivially_optimal(self):
        result = solve_reference(LpInstance())
        assert result.is_optimal and result.objective == 0.0

    def test_integrality_relaxed_with_warning(self):
        lp = LpInstance()
        lp.variables = [VariableRef(VarRole.UNITS_ON, ("a",), 1, upper=1.0,
                                    integrality=True)]
        lp.objective = [(0, 1.0)]
        with pytest.warns(UserWarning):
            result = solve_reference(lp)
        assert result.is_optimal

    def test_iteration_limit_is_a_status(self):
        lp = build_model(hybrid_fixture(), Approach.ONE_BB_1F)
        result = solve_reference(lp, SimplexOptions(max_iterations=5))
        assert result.status == "iteration_limit"
        assert result.primal is None and result.iterations == 5

    def test_bad_options_rejected(self):
        with pytest.raises(InvariantViolation):
            SimplexOptions(feas_tol=0.0)
        # a limit of 0 must not fall back to the default limit
        for limit in (0, -3):
            with pytest.raises(InvariantViolation):
                SimplexOptions(max_iterations=limit)


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


def test_refactorizations_counted():
    result = solve_reference(build_model(hybrid_fixture(), Approach.TWO_BB_2F))
    assert result.is_optimal
    # one factorization at the start, then one per full eta file; a bound
    # flip pushes no eta
    assert 1 <= result.refactorizations <= 1 + result.iterations // solver._REFACTOR_EVERY


def check_primal_by_rows(instance: LpInstance, primal: dict[str, float], tol: float = 1e-7):
    """Reference: the per-row loop ``check_primal`` was before it read
    ``LpInstance.arrays()``."""
    values = np.zeros(len(instance.variables))
    index = instance.var_index()
    for name, val in primal.items():
        values[index[name]] = val
    violated = []
    for j, ref in enumerate(instance.variables):
        if values[j] < ref.lower - tol or values[j] > ref.upper + tol:
            violated.append(f"bound:{ref.name}")
    for row in instance.rows:
        lhs = sum(coef * values[j] for j, coef in row.terms)
        if row.sense == "=":
            bad = abs(lhs - row.rhs) > tol
        elif row.sense == "<=":
            low = row.rhs_low if row.rhs_low is not None else -np.inf
            bad = lhs > row.rhs + tol or lhs < low - tol
        else:
            bad = lhs < row.rhs - tol
        if bad:
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
            primal = {name: value + (rng.normal(0.0, 5.0) if rng.random() < 0.3 else 0.0)
                      for name, value in optimum.items()}
            expected = check_primal_by_rows(lp, primal)
            assert check_primal(lp, primal) == expected
            seen += expected
        assert any(v.startswith("bound:") for v in seen)
        assert any(not v.startswith("bound:") for v in seen)

    def test_flags_violated_bound_and_row(self):
        lp = LpInstance()
        lp.variables = [VariableRef(VarRole.FLOW, ("a", "b"), 1, upper=1.0)]
        lp.rows = [ConstraintRow(RowFamily.FLOW_BOUND, "<=", 0.5, [(0, 1.0)], "r0")]
        violated = check_primal(lp, {"f_a_b_t1": 2.0})
        assert "bound:f_a_b_t1" in violated
        assert "r0" in violated

    def test_range_row_low_side(self):
        lp = LpInstance()
        lp.variables = [VariableRef(VarRole.FLOW, ("a", "b"), 1, lower=-5.0)]
        lp.rows = [ConstraintRow(RowFamily.FLOW_BOUND, "<=", 3.0, [(0, 1.0)], "rng",
                                 rhs_low=-1.0)]
        assert check_primal(lp, {"f_a_b_t1": -2.0}) == ["rng"]
        assert check_primal(lp, {"f_a_b_t1": 0.0}) == []

    def test_unknown_name_is_typed_error(self):
        lp = LpInstance()
        lp.variables = [VariableRef(VarRole.FLOW, ("a", "b"), 1)]
        with pytest.raises(UnknownVariableName):
            check_primal(lp, {"f_a_c_t1": 1.0})


@pytest.mark.parametrize("approach", list(Approach), ids=lambda a: a.value)
def test_bland_fallback_agrees_with_dantzig(approach, monkeypatch):
    lp = build_model(hybrid_fixture(), approach)
    dantzig = solve_reference(lp)
    # a window of one hands pricing to Bland's rule at the first
    # non-improving pivot
    monkeypatch.setattr(solver, "_STALL_WINDOW", 1)
    bland = solve_reference(lp)
    assert bland.iterations != dantzig.iterations
    assert abs(bland.objective - dantzig.objective) < 1e-9
    assert check_primal(lp, bland.primal) == []


# Simplex iterations per approach, measured when the simplex began to turn
# single-term rows into column bounds.  Equal matrices and bounds give equal
# pivots, so a change to how the solver reads the LP must leave these alone.
# Refactorizing every 16 eta updates instead of every 100 changed the
# rounding of the basis solves, and so the Dantzig path, at tri-area T=24:
# 2BB-2F 833 -> 824, 2BB-1F 824 -> 851, 1BB-1F 680 -> 685 (3BB-4F and the
# hybrid case kept theirs).
PIVOTS = {
    "hybrid": (hybrid_fixture, {"3BB-4F": 125, "2BB-2F": 101, "2BB-1F": 77, "1BB-1F": 77}),
    "tri-area-t24": (
        lambda: scale_horizon(tri_area_case(CaseSpec()), 24),
        {"3BB-4F": 1040, "2BB-2F": 824, "2BB-1F": 851, "1BB-1F": 685},
    ),
}


@pytest.mark.parametrize("approach", list(Approach), ids=lambda a: a.value)
@pytest.mark.parametrize("case", sorted(PIVOTS))
def test_pivot_path_pinned(case, approach):
    make, pins = PIVOTS[case]
    result = solve_reference(build_model(make(), approach))
    assert result.is_optimal
    assert result.iterations == pins[approach.value]
