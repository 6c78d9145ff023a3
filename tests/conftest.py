"""Shared pytest hooks and helpers.

The acceptance tests record one ``[criterion N] PASS/FAIL`` line each;
printing during the run would be swallowed by output capture, so the
lines are replayed in the terminal summary instead.  :func:`csr` is the
scipy oracle of an LP's rows.
"""

import scipy.sparse as sp

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
