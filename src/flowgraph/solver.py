"""Deterministic bounded-variable revised simplex and an external-solver bridge.

The reference solver exists so cross-approach objective equality can be
verified without any third-party LP dependency.  It is a two-phase simplex
over variables with general bounds.  It reads the store's CSR arrays,
bounds and cost, as :func:`check_primal` does, and calls scipy's compiled
kernels on those arrays directly: ``csr_matvec`` and ``csc_matvec`` from
``scipy.sparse._sparsetools``, and SuperLU's ``gstrf``, each loaded by
:func:`.highs_adapter.scipy_extension`.  So a solve never imports
``scipy.sparse`` or ``scipy.sparse.linalg``, which cost a fresh
interpreter about 0.3 s and 32 MB of RSS against 5 ms and 2 MB for the two
extensions, while its matrices, products and factorizations stay those
the scipy.sparse calls gave, bit for bit.  Every solve starts with
:func:`presolve`, which drops the rows with no finite bound and runs four
rules on arrays to a fixpoint: a single-term row becomes a bound on its
column, a fixed column moves into its rows' bounds, an empty row is
checked and dropped, and an equality row with two terms eliminates one of
its columns into the other (Andersen & Andersen, "Presolving in linear
programming", Math. Prog. 71, 1995).  Bounds that cross by more than the
feasibility tolerance make the LP infeasible before any pivot.  What is
left is an :class:`LpInstance` whose rows and columns keep their names,
families and integrality marks, so ``size_report``, ``write_mps`` and
:func:`check_primal` read it as they read any LP.  On tri-area T=24
3BB-4F it leaves 672 of 1872 rows and 828 of 1428 columns.  A postsolve
replays the eliminations in reverse, so the primal is in the LP's own
columns.  The remaining rows become equalities through slack variables,
which start as the basis inside their bounds or not, and a composite
phase 1 minimises the sum of the basics' bound violations (Maros 2003,
ch. 9).  The basis is held as a sparse LU with the product-form updates
since kept as one block (Bisschop & Meeraus, Math. Prog. 13, 1977), so a
basis solve is the LU's solve plus a fixed handful of array operations.
The LU is computed afresh every ``_REFACTOR_EVERY`` (32) updates, and the
basics are then solved again from the nonbasic values.  The block's
dense products fix the summation order, and so the pivot path.  The
pivot loop keeps the basics' values, bounds and costs in basis order,
and the moves each column allows in two arrays changed only where
columns enter and leave.  Every nonbasic value is set
exactly to one of its bounds, or to 0 for a free column, so a column's
bound status is read from its value with exact comparisons, however narrow
its bounds.  Pricing enters the eligible column with the largest
``|d_j| / sqrt(1 + |a_j|^2)``, the first one on a tie.  These are
steepest-edge weights taken once at the slack basis (Goldfarb & Reid 1977;
Forrest & Goldfarb 1992) and never updated, so a pivot costs what a
Dantzig pivot costs; dividing by the column norm stops a column's scale
from deciding its rank, and the benchmark LPs at T=24 take about 17 %
fewer pivots than under Dantzig's largest ``|d_j|``.  After a stall window
without progress, Bland's rule takes over until the objective improves
again, which guarantees termination on the highly degenerate storage
chains these models produce.  Weighted pricing resumes with the first
improving pivot: Bland's rule kept to the end took tri-area T=168 3BB-4F
from about 6300 pivots to 57000.

The command line and the bench harness name a solver by a label,
``reference`` or ``external:<spec.json>``, and :func:`solver_for` is the
one place that turns a label into a solve.
"""

from __future__ import annotations

import json
import os
import shlex
import subprocess
import tempfile
import time
import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import InvariantViolation, NonzeroExit, ParseError, SolverFailure, SolverLaunchFailure
from .lp import INF, LpInstance, SolveResult, _Names, by_column, read_solution, write_mps

#: the labels :func:`solver_for` takes
SOLVER_LABELS = ("reference", "external:<spec.json>")

_FEAS_TOL = 1e-7
_PIVOT_TOL = 1e-9
# the iteration limit is 50 * (2 * rows + cols + 1), counting the rows and
# columns the presolve drops
_PIVOTS_PER_SIZE = 50
# of 16 to 64 updates between LUs, 32 to 64 gave the best solve time on the
# T=24 benchmark LPs, 16 was about 10 % slower, and at instance 1 48 and 64
# were no faster than 32
_REFACTOR_EVERY = 32
_STALL_WINDOW = 1000
# a doubleton equation never eliminates a column whose coefficient is below
# this share of the other column's
_DOUBLETON_RATIO = 1e-3
# fill-in that sums two terms of a row to below this share of the larger
# one is rounding left by a cancellation, and leaves the row
_CANCEL_RATIO = 1e-12

#: scipy's compiled sparse kernels (csr_matvec, csc_matvec) and SuperLU
#: (gstrf), loaded without scipy.sparse
_SPARSETOOLS = "scipy.sparse._sparsetools"
_SUPERLU = "scipy.sparse.linalg._dsolve._superlu"


def _extension(name: str):
    from .highs_adapter import scipy_extension

    return scipy_extension(name)


class _SingularBasis(Exception):
    """SuperLU could not factorize the basis."""


class _Csc(NamedTuple):
    """A matrix in CSC form, its index arrays at ``intc`` as SuperLU takes
    them and each column's rows in increasing order."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray


def _columns(matrix: _Csc, basic: np.ndarray) -> _Csc:
    """``matrix[:, basic]``, gathered straight from the CSC arrays: the same
    ``indptr``, ``indices`` and ``data`` as scipy's fancy indexing gives."""
    starts = matrix.indptr[basic]
    counts = matrix.indptr[basic + 1] - starts
    indptr = np.zeros(len(basic) + 1, dtype=np.intc)
    np.cumsum(counts, out=indptr[1:])
    take = np.repeat(starts - indptr[:-1], counts) + np.arange(indptr[-1])
    return _Csc(indptr, matrix.indices[take], matrix.data[take])


class _Basis:
    """Sparse LU of the basis and the replacements since, as one block.

    Replacement ``i`` put a column ``w_i = B^-1 a`` at basis row ``r_i``.
    Row ``i`` of ``V`` is ``w_i - e_{r_i}``, and ``T_inv`` inverts the lower
    triangle ``T[i, j] = V[j, r_i]`` (``j < i``), ``T[i, i] = w_i[r_i]``.
    Then ``B^-1 b`` is ``x - V^T (T^-1 x[rows])`` for the LU's solve ``x``,
    and ``B^-T c`` the LU's solve of ``c - S^T (T^-T (V c))``, where ``S``
    picks the ``rows``.
    """

    def __init__(self, matrix: _Csc, basic: np.ndarray):
        self.matrix = matrix
        self.basic = basic
        self.V = np.empty((_REFACTOR_EVERY, len(basic)))
        self.rows = np.empty(_REFACTOR_EVERY, np.intp)
        self.T_inv = np.zeros((_REFACTOR_EVERY, _REFACTOR_EVERY))
        self.count = 0
        self.factorizations = 0
        self.refactor()

    def refactor(self) -> None:
        self.count = 0
        B = _columns(self.matrix, self.basic)
        # what scipy.sparse.linalg.splu(B, permc_spec="COLAMD") passes, but
        # for a supernode relaxation of 1, which made the basis solves of
        # the T=24 benchmark LPs 1.34x faster; the L and U factors are
        # never read, so no matrix type builds them
        try:
            self.lu = _extension(_SUPERLU).gstrf(
                len(self.basic), len(B.data), B.data, B.indices, B.indptr,
                csc_construct_func=None, ilu=False,
                options=dict(DiagPivotThresh=None, ColPerm="COLAMD", PanelSize=None, Relax=1))
        except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
            raise _SingularBasis(str(exc)) from None
        self.factorizations += 1

    def push_eta(self, row: int, column: np.ndarray) -> None:
        """``column``, ``B^-1 a``, replaced basis row ``row``."""
        k = self.count
        self.V[k] = column
        self.V[k, row] -= 1.0
        self.rows[k] = row
        # T gains the row (V[:k, row], w[row]): T_inv the row it borders with
        self.T_inv[k, :k] = self.V[:k, row] @ self.T_inv[:k, :k] / -column[row]
        self.T_inv[k, k] = 1.0 / column[row]
        self.count = k + 1
        if self.count >= _REFACTOR_EVERY:
            self.refactor()

    def ftran(self, rhs: np.ndarray) -> np.ndarray:
        x = self.lu.solve(rhs)
        k = self.count
        x -= (self.T_inv[:k, :k] @ x[self.rows[:k]]) @ self.V[:k]
        return x

    def btran(self, rhs: np.ndarray) -> np.ndarray:
        y = np.array(rhs, float)
        k = self.count
        # a row replaced twice takes both of its terms
        np.subtract.at(y, self.rows[:k], (self.V[:k] @ y) @ self.T_inv[:k, :k])
        return self.lu.solve(y, trans="T")


@dataclass
class Presolved:
    """What :func:`presolve` leaves of an LP of ``m`` rows and ``n`` columns.

    ``lp`` is an :class:`LpInstance` of the rows and columns that remain, in
    their order, with their names, families and integrality marks; ``rows``
    and ``kept`` hold the original row and column of each.  ``status`` is
    ``"infeasible"`` when the presolve proved it, else ``None``.  ``steps``
    records the eliminations in order, for :meth:`postsolve`: ``(cols,
    values)`` for columns fixed at ``values``, ``(j, k, r, a, b)`` for
    columns ``j`` eliminated through the rows ``a x_j + b x_k = r``.
    """

    lp: LpInstance
    rows: np.ndarray
    kept: np.ndarray
    m: int
    n: int
    status: Optional[str]
    steps: list

    rows_removed = property(lambda self: self.m - len(self.rows))
    cols_removed = property(lambda self: self.n - len(self.kept))

    def postsolve(self, x: np.ndarray) -> np.ndarray:
        """The values of all ``n`` columns, given those of ``lp``'s: the
        eliminations replayed in reverse, so every column a step reads is
        set before it."""
        full = np.zeros(self.n)
        full[self.kept] = x
        for step in reversed(self.steps):
            if len(step) == 2:  # fixed columns
                cols, values = step
                full[cols] = values
            else:  # x_j = (r - b x_k) / a
                j, k, r, a, b = step
                full[j] = (r - b * full[k]) / a
        return full


def _close(lower: np.ndarray, upper: np.ndarray) -> None:
    """Bounds that cross by no more than the feasibility tolerance become
    equal; a wider crossing is left for the presolve to report."""
    close = (lower > upper) & (lower <= upper + _FEAS_TOL)
    upper[close] = lower[close]


def presolve(instance: LpInstance) -> Presolved:
    """Reduce ``instance`` by four rules, applied in rounds until none applies,
    once the rows with no finite bound, which any ``x`` meets, are dropped
    with their terms.

    - A row with one term ``lo <= a x_j <= hi`` becomes the bound
      ``[lo/a, hi/a]`` on ``x_j`` (swapped for ``a < 0``), intersected with
      the bounds it has, and is dropped.
    - A column whose bounds are equal is fixed there: its terms move into
      its rows' bounds and it is dropped.
    - A row with no terms is dropped; the LP is infeasible unless its
      bounds hold 0, within the feasibility tolerance.
    - An equality row with two terms, ``a x_j + b x_k = r``, eliminates
      ``x_j = (r - b x_k) / a``: the bounds of ``x_j`` become bounds of
      ``x_k``, its cost moves onto ``x_k``, and each of its other terms
      becomes a term in ``x_k`` of the same row, added to the one the row
      has; a sum below ``_CANCEL_RATIO`` times the larger of its two terms
      is a cancellation and leaves the row.  The column with fewer terms
      is eliminated, on a tie the one with the larger coefficient, then
      the row's later column, but never one whose coefficient is below
      ``_DOUBLETON_RATIO`` times the other's.  A round takes each row that
      is the first doubleton row to name both of its columns, so no two
      eliminations of a round share a column.

    Column bounds, and row bounds of the rows left, that cross by more
    than the tolerance make the LP infeasible; a narrower crossing makes
    them equal.  The instance's store is read, never written.
    """
    m, n = len(instance.row_lo), len(instance.lower)
    # the terms as (row, col, val) triplets in row order; a term keeps its
    # row, so they stay in row order as terms leave or change column
    row = np.repeat(np.arange(m), np.diff(instance.indptr))
    col = instance.indices.astype(np.int64)
    val = instance.data.copy()
    row_lo, row_hi = instance.row_lo.copy(), instance.row_hi.copy()
    lower, upper, cost = instance.lower.copy(), instance.upper.copy(), instance.cost.copy()
    row_alive, col_alive = np.ones(m, bool), np.ones(n, bool)
    free = (row_lo == -INF) & (row_hi == INF)
    if free.any():
        row_alive[free] = False
        bounded = ~free[row]
        row, col, val = row[bounded], col[bounded], val[bounded]
    steps: list = []
    status = None
    _close(lower, upper)
    while True:
        _close(row_lo, row_hi)
        if (lower > upper)[col_alive].any() or (row_lo > row_hi)[row_alive].any():
            status = "infeasible"
            break
        changed = False
        counts = np.bincount(row, minlength=m)

        single = counts[row] == 1
        if single.any():
            i, j, a = row[single], col[single], val[single]
            lo, hi = row_lo[i] / a, row_hi[i] / a
            np.maximum.at(lower, j, np.where(a > 0, lo, hi))
            np.minimum.at(upper, j, np.where(a > 0, hi, lo))
            _close(lower, upper)
            row_alive[i] = False
            row, col, val = row[~single], col[~single], val[~single]
            changed = True

        fixed = np.flatnonzero(col_alive & (lower == upper) & np.isfinite(lower))
        if fixed.size:
            col_alive[fixed] = False
            steps.append((fixed, lower[fixed]))
            gone = ~col_alive[col]
            shift = np.bincount(row[gone], weights=val[gone] * lower[col[gone]], minlength=m)
            row_lo -= shift
            row_hi -= shift
            counts -= np.bincount(row[gone], minlength=m)
            row, col, val = row[~gone], col[~gone], val[~gone]
            changed = True

        empty = np.flatnonzero(row_alive & (counts == 0))
        if empty.size:
            if ((row_lo[empty] > _FEAS_TOL) | (row_hi[empty] < -_FEAS_TOL)).any():
                status = "infeasible"
                break
            row_alive[empty] = False
            changed = True

        # terms of equality rows with two terms: the rows' two terms are
        # adjacent, the first at an even place of the list
        pair = np.flatnonzero((counts[row] == 2) & (row_lo[row] == row_hi[row])
                              & np.isfinite(row_lo[row]))
        if pair.size:
            first, second = pair[0::2], pair[1::2]
            c1, c2, v1, v2 = col[first], col[second], val[first], val[second]
            terms = np.bincount(col, minlength=n)
            swap = (terms[c2] < terms[c1]) | ((terms[c2] == terms[c1]) & (abs(v2) >= abs(v1)))
            swap = np.where(abs(v1) < _DOUBLETON_RATIO * abs(v2), True,
                            np.where(abs(v2) < _DOUBLETON_RATIO * abs(v1), False, swap))
            # a row is taken when it is the first row to name each of its columns
            r = row[first]
            claim = np.full(n, m)
            np.minimum.at(claim, c1, r)
            np.minimum.at(claim, c2, r)
            take = (claim[c1] == r) & (claim[c2] == r)
            r, swap = r[take], swap[take]
            c1, c2, v1, v2 = c1[take], c2[take], v1[take], v2[take]
            j, k = np.where(swap, c2, c1), np.where(swap, c1, c2)
            a, b = np.where(swap, v2, v1), np.where(swap, v1, v2)
            rhs = row_hi[r]
            steps.append((j, k, rhs, a, b))
            row_alive[r] = False
            col_alive[j] = False
            # x_k = (r - a x_j) / b over lower_j <= x_j <= upper_j
            at_lo, at_hi = (rhs - a * lower[j]) / b, (rhs - a * upper[j]) / b
            lower[k] = np.maximum(lower[k], np.minimum(at_lo, at_hi))
            upper[k] = np.minimum(upper[k], np.maximum(at_lo, at_hi))
            _close(lower, upper)
            cost[k] -= cost[j] * (b / a)
            keep = np.ones(len(row), bool)
            keep[first[take]] = keep[second[take]] = False
            row, col, val = row[keep], col[keep], val[keep]
            # a term c x_j of another row becomes (c/a) r - (c b/a) x_k
            target = np.full(n, -1)
            target[j] = np.arange(len(j))
            moved = np.flatnonzero(target[col] >= 0)
            t = target[col[moved]]
            ratio = val[moved] / a[t]
            shift = np.bincount(row[moved], weights=ratio * rhs[t], minlength=m)
            row_lo -= shift
            row_hi -= shift
            col[moved] = k[t]
            val[moved] = -ratio * b[t]
            # a row that already held x_k now holds it twice: the sum takes
            # the first place, and leaves the row when it cancels
            touched = np.zeros(m, bool)
            touched[row[moved]] = True
            near = np.flatnonzero(touched[row])
            key = row[near] * n + col[near]
            order = near[np.argsort(key, kind="stable")]
            twice = (row[order[1:]] == row[order[:-1]]) & (col[order[1:]] == col[order[:-1]])
            kept_term, dropped = order[:-1][twice], order[1:][twice]
            larger = np.maximum(abs(val[kept_term]), abs(val[dropped]))
            val[kept_term] += val[dropped]
            gone = np.zeros(len(row), bool)
            gone[dropped] = True
            gone[kept_term[abs(val[kept_term]) <= _CANCEL_RATIO * larger]] = True
            row, col, val = row[~gone], col[~gone], val[~gone]
            changed = True

        if not changed:
            break

    # only the rows left hold terms
    rows, kept = np.flatnonzero(row_alive), np.flatnonzero(col_alive)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(row, minlength=m)[rows])])
    # the kept columns of each parent block, with the timesteps they keep
    blocks = instance.col_blocks
    starts = np.cumsum([0] + [len(steps) for _, _, steps in blocks])
    owner = np.searchsorted(starts, kept, "right") - 1
    first = np.flatnonzero(np.diff(owner, prepend=-1)).tolist()
    at, parents = (kept - starts[owner]).tolist(), map(blocks.__getitem__, owner[first].tolist())
    col_blocks = [(role, key, steps if b - a == len(steps) else tuple(steps[t] for t in at[a:b]))
                  for (role, key, steps), a, b in zip(parents, first, [*first[1:], len(kept)])]
    lp = LpInstance.from_store(
        instance.name, indptr=indptr, indices=(np.cumsum(col_alive) - 1)[col], data=val,
        row_lo=row_lo[rows], row_hi=row_hi[rows], family=instance.family[rows],
        row_blocks=[(_Names(instance.row_blocks).take(rows).tolist(), (None,))],
        lower=lower[kept], upper=upper[kept], integral=instance.integral[kept],
        col_blocks=col_blocks, cost=cost[kept])
    return Presolved(lp, rows, kept, m, n, status, steps)


class _Simplex:
    def __init__(self, lp: LpInstance, max_iter: int):
        self.sparsetools = _extension(_SPARSETOOLS)
        self.m = m = len(lp.row_lo)
        self.n_structural = n = len(lp.lower)
        self.max_iter = max_iter
        col_ptr, by_col, row_of = by_column(lp.indptr, lp.indices, n)
        coef = lp.data[by_col]
        # rows become A x + s = rhs with one slack per row, bounded so that
        # A x stays within [row_lo, row_hi]
        rhs = np.where(np.isfinite(lp.row_hi), lp.row_hi, lp.row_lo)
        lower = np.concatenate([lp.lower, rhs - lp.row_hi])
        upper = np.concatenate([lp.upper, rhs - lp.row_lo])

        # nonbasic columns start exactly at a finite bound, free ones at 0;
        # the slack basis starts at rhs - A x_N, inside its bounds or not
        value = np.where(lower > -INF, lower, np.where(upper < INF, upper, 0.0))
        Ax = np.zeros(m)
        self.sparsetools.csc_matvec(m, n, col_ptr, row_of, coef, value[:n], Ax)
        value[n:] = rhs - Ax
        # [A I]: each slack column holds one entry
        self.A = _Csc(np.concatenate([col_ptr, col_ptr[-1] + np.arange(1, m + 1, dtype=np.intc)]),
                      np.concatenate([row_of, np.arange(m, dtype=np.intc)]),
                      np.concatenate([coef, np.ones(m)]))
        # steepest-edge reference weights: at the slack basis the edge that
        # column j opens has squared norm 1 + |a_j|^2; pricing divides |d_j|
        # by its root, so a column's scale no longer decides its rank.  The
        # sums are scipy's sum(axis=0) of a CSC matrix: one reduceat over
        # the columns that hold entries
        norm2 = np.zeros(n + m)
        filled = np.flatnonzero(np.diff(self.A.indptr))
        norm2[filled] = np.add.reduceat(self.A.data ** 2, self.A.indptr[filled])
        self.weight = 1.0 / np.sqrt(1.0 + norm2)
        self.lower, self.upper, self.value = lower, upper, value
        self.cost = np.concatenate([lp.cost, np.zeros(m)])
        self.rhs = rhs
        self.basic = np.arange(n, n + m)
        self.basis: Optional[_Basis] = None
        self.iterations = 0
        self.phase1_iterations = 0
        self.degenerate_pivots = 0
        self.bland_from: Optional[int] = None

    def solve(self) -> tuple[str, np.ndarray, int]:
        self.basis = _Basis(self.A, self.basic)
        # phase 1 prices no column's own cost, only the basics' violations
        status = self._iterate(np.zeros(len(self.cost)), phase=1)
        self.phase1_iterations = self.iterations
        excess = np.maximum(self.value - self.upper, self.lower - self.value)
        if status == "optimal" and excess[excess > 0].sum() > _FEAS_TOL:
            status = "infeasible"
        if status == "optimal":
            status = self._iterate(self.cost, phase=2)
        return status, self.value, self.iterations

    def _iterate(self, cost: np.ndarray, phase: int) -> str:
        if not len(cost):
            return "optimal"
        tol = _FEAS_TOL
        A, basis, basic = self.A, self.basis, self.basic
        value, lower, upper, weight = self.value, self.lower, self.upper, self.weight
        # the basics' values, bounds and costs, in basis order
        x_B, l_B, u_B, c_B = value[basic], lower[basic], upper[basic], cost[basic]
        if phase == 1:
            # a basic above its upper bound costs +1 and one below its lower
            # bound -1; it moves away freely, but blocks at the bound it
            # violates and leaves the basis there
            above, below = x_B > u_B + 1e-12, x_B < l_B - 1e-12
            if not (above.any() or below.any()):
                return "optimal"
            c_B = np.where(above, 1.0, np.where(below, -1.0, 0.0))
            l_B, u_B = np.where(above, u_B, l_B), np.where(below, l_B, u_B)
            l_B[below], u_B[above] = -INF, INF
        # the moves each nonbasic column allows, -1 up and 1 down (0 for
        # none), so d * move is how far the objective falls per unit moved
        up, down = np.where(value < upper, -1.0, 0.0), np.where(value > lower, 1.0, 0.0)
        up[basic] = down[basic] = 0.0
        d, gain, score = np.empty(len(cost)), np.empty(len(cost)), np.empty(len(cost))
        bland = False
        obj = best_obj = cost @ value
        stall = 0
        try:
            while True:
                if self.iterations >= self.max_iter:
                    return "iteration_limit"
                # d = c - A^T y: the CSC arrays of A, read as the CSR arrays of A^T
                y = basis.btran(c_B)
                d.fill(0.0)
                self.sparsetools.csr_matvec(len(cost), self.m, *A, y, d)
                np.subtract(cost, d, out=d)

                # nonbasic values sit exactly on a bound (or at 0 if free),
                # so the moves hold each column's bound status
                np.multiply(d, up, out=gain)
                np.multiply(d, down, out=score)
                np.maximum(gain, score, out=gain)
                eligible = gain > tol
                if bland:
                    q = eligible.argmax()
                else:  # an ineligible column scores 0
                    np.multiply(gain, eligible, out=gain)
                    np.multiply(gain, weight, out=score)
                    q = score.argmax()
                if not eligible[q]:
                    return "optimal"
                direction = 1.0 if d[q] < 0 else -1.0

                column = np.zeros(self.m)
                span = slice(A.indptr[q], A.indptr[q + 1])
                column[A.indices[span]] = A.data[span]
                w = basis.ftran(column)
                # ratio test: entering variable moves by theta*direction,
                # basics move by -direction*w; the tightest bound wins, and a
                # basic whose step is within the pivot tolerance never blocks
                moved = (np.abs(w) > _PIVOT_TOL).nonzero()[0]
                step = w[moved] if direction < 0 else -w[moved]
                limits = np.where(step > 0, u_B[moved], l_B[moved])
                limits -= x_B[moved]
                limits /= step
                np.maximum(limits, 0.0, out=limits)
                theta_flip = upper[q] - lower[q]
                lmin = limits[limits.argmin()] if len(moved) else INF
                if min(lmin, theta_flip) >= INF:
                    return "unbounded" if phase == 2 else "infeasible"
                leaving = -1
                if lmin <= theta_flip:  # a basic variable blocks first
                    ties = (limits <= lmin + 1e-12).nonzero()[0]
                    t = ties[0]
                    if len(ties) > 1:
                        t = ties[np.argmin(basic[moved[ties]]) if bland
                                 else np.argmax(np.abs(step[ties]))]
                    leaving, theta = moved[t], limits[t]
                else:
                    theta = theta_flip

                # iterations counts pivots and bound flips, not pricing rounds
                self.iterations += 1
                if bland and self.bland_from is None:
                    self.bland_from = self.iterations
                if theta > 0:
                    x_B -= w * (direction * theta)
                    value[q] += direction * theta
                    obj += d[q] * direction * theta
                else:
                    self.degenerate_pivots += 1
                if leaving < 0:
                    # bound flip: entering variable crosses to its other bound
                    value[q] = upper[q] if direction > 0 else lower[q]
                    self._moves(up, down, q)
                else:
                    p = basic[leaving]
                    value[p] = u_B[leaving] if step[t] > 0 else l_B[leaving]
                    self._moves(up, down, p)
                    up[q] = down[q] = 0.0
                    x_B[leaving], l_B[leaving], u_B[leaving] = value[q], lower[q], upper[q]
                    c_B[leaving] = cost[q]
                    basic[leaving] = q
                    basis.push_eta(leaving, w)
                    if not basis.count:  # a fresh LU: drop the steps' rounding
                        x_B[:] = self._solve_basics()

                if obj < best_obj - 1e-12:
                    best_obj = obj
                    stall = 0
                    bland = False  # the stall is over: weighted pricing resumes
                else:
                    stall += 1
                    if stall >= _STALL_WINDOW:
                        bland = True  # Bland's rule cannot cycle, so the stall ends
        finally:
            value[basic] = x_B

    def _solve_basics(self) -> np.ndarray:
        """The basics' values the nonbasic ones give: ``B x_B = rhs - N x_N``."""
        nonbasic = self.value.copy()
        nonbasic[self.basic] = 0.0
        lhs = np.zeros(self.m)
        self.sparsetools.csc_matvec(self.m, len(nonbasic), *self.A, nonbasic, lhs)
        return self.basis.ftran(self.rhs - lhs)

    def _moves(self, up: np.ndarray, down: np.ndarray, j: int) -> None:
        """Set the moves of nonbasic column ``j`` from its value."""
        up[j] = -1.0 if self.value[j] < self.upper[j] else 0.0
        down[j] = 1.0 if self.value[j] > self.lower[j] else 0.0


def solve_reference(instance: LpInstance) -> SolveResult:
    """Solve ``instance`` with the bundled deterministic simplex.

    The instance is checked first (:meth:`LpInstance.check`), off the clock.
    Integrality marks are relaxed with a warning; the result is the LP
    relaxation in that case.  The simplex runs on what :func:`presolve`
    leaves, and the primal is postsolved to the instance's own columns;
    ``wall_time_s`` holds both.  ``rows_removed`` and ``cols_removed`` count
    what the presolve took out, and a presolve that proves the LP
    infeasible gives that status after no pivot.  Running out of
    iterations, after ``50 * (2 * rows + cols + 1)`` pivots with the
    instance's own rows and columns, gives status ``"iteration_limit"``
    and no primal; a basis SuperLU cannot factorize gives status
    ``"numerical_failure"`` and no primal.  ``refactorizations`` counts
    the LU factorizations of the basis, the first one included.
    ``iterations`` counts the pivots and bound flips taken, so a pricing
    that finds no entering column adds nothing.  ``phase1_iterations``
    counts those spent finding a feasible basis, ``degenerate_pivots`` the
    pivots that moved no value (a step of 0), and ``bland_from`` is the
    number of the first pivot whose entering column Bland's rule chose, or
    ``None``.
    """
    instance.check()
    if instance.integral.any():
        warnings.warn(
            f"{instance.name}: integrality marks relaxed to their LP bounds",
            stacklevel=2,
        )
    # scipy's kernels load on first use; loading them here keeps that off
    # the solve's clock
    _extension(_SPARSETOOLS)
    _extension(_SUPERLU)

    start = time.perf_counter()
    reduced = presolve(instance)
    result = SolveResult(status=reduced.status or "optimal",
                         rows_removed=reduced.rows_removed, cols_removed=reduced.cols_removed)
    if reduced.status is None:
        worker = _Simplex(reduced.lp, _PIVOTS_PER_SIZE * (2 * reduced.m + reduced.n + 1))
        try:
            result.status, value, result.iterations = worker.solve()
        except _SingularBasis:
            result.status, result.iterations = "numerical_failure", worker.iterations
        result.refactorizations = worker.basis.factorizations if worker.basis is not None else 0
        result.phase1_iterations = worker.phase1_iterations
        result.degenerate_pivots = worker.degenerate_pivots
        result.bland_from = worker.bland_from
        if result.status == "optimal":
            result.primal = reduced.postsolve(value[:worker.n_structural])
            result.primal.flags.writeable = False
    result.wall_time_s = time.perf_counter() - start
    if result.primal is not None:
        # summed term by term in column order
        result.objective = float(sum((instance.cost * result.primal).tolist()))
    return result


def _row_sums(instance: LpInstance, x: np.ndarray) -> np.ndarray:
    """``A @ x`` over the store's CSR arrays, by scipy's ``csr_matvec``, the
    kernel a scipy CSR matrix over those arrays calls for ``@ x``."""
    lhs = np.zeros(len(instance.row_lo))
    _extension(_SPARSETOOLS).csr_matvec(len(lhs), len(x), instance.indptr, instance.indices,
                                        instance.data, x, lhs)
    return lhs


def check_primal(instance: LpInstance, primal: np.ndarray) -> list[str]:
    """Names of variable bounds (as ``bound:<name>``), then rows, violated by
    ``primal`` beyond the feasibility tolerance 1e-7, each in index order.

    ``primal`` holds one value per column, in column order, as
    :attr:`SolveResult.primal` does.  Rows are evaluated as ``A @ x`` by
    scipy's ``csr_matvec`` over the store's arrays, against ``row_lo`` and
    ``row_hi``; a value or an ``A @ x`` that is not finite is violated.
    Names are made only for what is violated.  The instance is checked first
    (:meth:`LpInstance.check`).
    """
    instance.check()
    x = np.asarray(primal, float)
    if x.shape != (len(instance.lower),):
        raise InvariantViolation(
            f"primal of shape {x.shape} for an LP of {len(instance.lower)} columns")
    lhs = _row_sums(instance, x)
    bad_cols = np.flatnonzero(~np.isfinite(x) | (x < instance.lower - _FEAS_TOL)
                              | (x > instance.upper + _FEAS_TOL))
    bad_rows = np.flatnonzero(~np.isfinite(lhs) | (lhs < instance.row_lo - _FEAS_TOL)
                              | (lhs > instance.row_hi + _FEAS_TOL))
    cols = instance.col_names() if bad_cols.size else []
    rows = instance.row_names() if bad_rows.size else []
    return [f"bound:{cols[j]}" for j in bad_cols] + [rows[i] for i in bad_rows]


# ---------------------------------------------------------------------------
# External solver bridge
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExternalSolverSpec:
    """Subprocess contract: MPS in, normalized solution file out.

    ``args`` may contain the placeholders ``{mps}``, ``{out}`` and
    ``{seed}``; the solver writes its solution file to ``{out}``.
    """

    executable: str
    args: tuple[str, ...] = ("{mps}", "{out}", "{seed}")

    def __post_init__(self):
        joined = " ".join(self.args)
        if "{mps}" not in joined or "{out}" not in joined:
            raise InvariantViolation("argument template must reference {mps} and {out}")

    @classmethod
    def from_json(cls, path: str) -> "ExternalSolverSpec":
        """Read ``{"executable": ..., "args": [...]}``; ``args`` is optional
        and any other key is an error."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ParseError(f"{path}: cannot read solver spec ({exc.strerror})") from None
        except ValueError as exc:
            raise ParseError(f"{path}: solver spec is not JSON ({exc})") from None
        if not isinstance(raw, dict) or not isinstance(raw.get("executable"), str):
            raise ParseError(f"{path}: solver spec needs an 'executable' string")
        unknown = sorted(set(raw) - {"executable", "args"})
        if unknown:
            raise ParseError(f"{path}: unknown solver spec key(s) {', '.join(map(repr, unknown))}"
                             "; use 'executable' and 'args'")
        args = raw.get("args", list(cls.args))
        if not isinstance(args, list) or not all(isinstance(a, str) for a in args):
            raise ParseError(f"{path}: solver spec 'args' must be a list of strings")
        return cls(executable=raw["executable"], args=tuple(args))


def solve_external(instance: LpInstance, spec: ExternalSolverSpec, seed: int = 0) -> SolveResult:
    """Write MPS, run the external solver, parse its solution file.  A
    nonzero exit is a NonzeroExit that keeps the end of the solver's stderr,
    where a traceback or an ``error:`` line ends."""
    with tempfile.TemporaryDirectory(prefix="flowgraph-") as workdir:
        mps_path = os.path.join(workdir, "model.mps")
        out_path = os.path.join(workdir, "model.sol")
        write_mps(instance, mps_path)
        subst = {"mps": mps_path, "out": out_path, "seed": str(seed)}
        argv = [spec.executable] + [a.format(**subst) for a in spec.args]
        start = time.perf_counter()
        try:
            proc = subprocess.run(argv, capture_output=True, text=True)
        except OSError as exc:
            raise SolverLaunchFailure(f"cannot launch {shlex.join(argv)}: {exc}")
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise NonzeroExit(
                f"{spec.executable} exited with {proc.returncode}: "
                f"{proc.stderr.strip()[-500:]}"
            )
        if not os.path.exists(out_path):
            raise SolverFailure(f"{spec.executable} exited with 0 but wrote no {out_path}")
        result = read_solution(out_path, instance)
        result.wall_time_s = elapsed
        return result


def solver_for(label: str) -> Callable[[LpInstance, int], SolveResult]:
    """The solve a solver label names, called with an LP and a seed.

    ``reference`` is :func:`solve_reference`, which needs no seed;
    ``external:<spec.json>`` is :func:`solve_external` with the spec that
    file holds, read once, here.  Any other label raises ParseError.
    """
    if label == "reference":
        return lambda instance, seed: solve_reference(instance)
    if label.startswith("external:"):
        spec = ExternalSolverSpec.from_json(label[len("external:"):])
        return lambda instance, seed: solve_external(instance, spec, seed)
    raise ParseError(f"bad solver {label!r}; use {' or '.join(SOLVER_LABELS)}")
