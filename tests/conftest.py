"""Shared pytest hooks and helpers.

The acceptance tests record one ``[criterion N] PASS/FAIL`` line each;
printing during the run would be swallowed by output capture, so the
lines are replayed in the terminal summary instead.  :func:`store_lp`
builds a small LP through the store, as new tests should; :func:`csr` is
the scipy oracle of an LP's rows; :func:`against_highs` is the gate the
reference simplex must pass against HiGHS, and :func:`presolve_against_highs`
the one its presolve must pass, both of which CI also runs at instance 1.
"""

import os

import numpy as np
import scipy.sparse as sp

from flowgraph import (
    LpInstance,
    RowFamily,
    VarRole,
    check_primal,
    highs_adapter,
    solve_reference,
    solver,
    write_mps,
)
from flowgraph.lp import FAMILIES

ACCEPTANCE_VERDICTS: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_VERDICTS):
            terminalreporter.write_line(line)


def store_lp(name, bounds, rows, cost=()):
    """An LpInstance built by ``LpInstance.from_store``.  Column ``j`` has
    bounds ``bounds[j]`` as ``(lower, upper)``, costs ``cost[j]`` (0 past
    the end of ``cost``) and is named ``f_x_t{j}``.  Each row is ``(name,
    lo, hi, {column: coefficient})``, a FLOW_BOUND row."""
    n, terms = len(bounds), [row[3] for row in rows]
    return LpInstance.from_store(
        name, indptr=np.cumsum([0, *map(len, terms)]),
        indices=np.array([j for row in terms for j in row], np.int64),
        data=np.array([coef for row in terms for coef in row.values()], float),
        row_lo=np.array([row[1] for row in rows], float),
        row_hi=np.array([row[2] for row in rows], float),
        family=np.full(len(rows), FAMILIES.index(RowFamily.FLOW_BOUND), np.int8),
        row_blocks=[([row[0] for row in rows], (None,))],
        lower=np.array([lo for lo, _ in bounds], float),
        upper=np.array([hi for _, hi in bounds], float),
        integral=np.zeros(n, bool), cost=np.array([*cost, *[0.0] * (n - len(cost))], float),
        col_blocks=[(VarRole.FLOW, ("x",), tuple(range(n)))],
    )


def csr(lp) -> sp.csr_matrix:
    """The rows of ``lp``, anything with the store's CSR arrays and bounds,
    as a scipy CSR matrix over those arrays."""
    return sp.csr_matrix((lp.data, lp.indices, lp.indptr), shape=(len(lp.row_lo), len(lp.lower)))


def against_highs(lp, path: str):
    """Solve ``lp`` with the reference simplex, and with HiGHS once written
    to ``path`` as MPS: ``(result, highs, failures)``.  ``failures`` is
    empty when both are optimal, ``check_primal`` flags nothing and the
    objectives are within 1e-9 relative; else it says what failed."""
    result = solve_reference(lp)
    write_mps(lp, path)
    _, highs = highs_adapter.solve(path)
    if not (result.is_optimal and highs.status == "optimal"):
        return result, highs, [f"reference {result.status}, HiGHS {highs.status}"]
    failures = check_primal(lp, result.primal)
    if abs(result.objective - highs.fun) > 1e-9 * abs(highs.fun):
        failures.append(f"objective {result.objective}, HiGHS {highs.fun}")
    return result, highs, failures


def presolve_against_highs(lp, directory: str):
    """Presolve ``lp``, solve what is left with HiGHS, written as MPS into
    ``directory``, and postsolve HiGHS's primal; no simplex of the repo's
    runs.  Returns ``(reduced, gap, failures)``: ``gap`` is the difference
    between the postsolved primal's objective and HiGHS's objective on
    ``lp`` itself, over the larger of 1 and that objective's size, and
    ``failures`` is empty when the presolve proves nothing, HiGHS finds
    both LPs optimal, ``check_primal`` flags nothing on ``lp`` and ``gap``
    is at most 1e-9; else it says what failed."""
    reduced = solver.presolve(lp)
    if reduced.status is not None:
        return reduced, None, [f"presolve: {reduced.status}"]
    paths = [os.path.join(directory, f"{kind}.mps") for kind in ("presolved", "original")]
    write_mps(reduced.lp, paths[0])
    write_mps(lp, paths[1])
    (_, ours), (_, theirs) = map(highs_adapter.solve, paths)
    if not ours.status == theirs.status == "optimal":
        return reduced, None, [f"HiGHS: {ours.status} on the presolved LP, "
                               f"{theirs.status} on the LP"]
    primal = reduced.postsolve(ours.x)
    failures = check_primal(lp, primal)
    gap = abs(float(lp.cost @ primal) - theirs.fun) / max(1.0, abs(theirs.fun))
    if gap > 1e-9:
        failures.append(f"objective {float(lp.cost @ primal)}, HiGHS {theirs.fun}")
    return reduced, gap, failures
