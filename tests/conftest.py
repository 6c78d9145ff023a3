"""Shared pytest hooks and helpers.

The acceptance tests record one ``[criterion N] PASS/FAIL`` line each;
printing during the run would be swallowed by output capture, so the
lines are replayed in the terminal summary instead.  :func:`csr` is the
scipy oracle of an LP's rows; :func:`against_highs` is the gate the
reference simplex must pass against HiGHS, which CI also runs at
instance 1.
"""

import scipy.sparse as sp

from flowgraph import check_primal, highs_adapter, solve_reference, write_mps

ACCEPTANCE_VERDICTS: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_VERDICTS):
            terminalreporter.write_line(line)


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
