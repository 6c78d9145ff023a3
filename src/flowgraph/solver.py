"""Deterministic bounded-variable revised simplex and an external-solver bridge.

The reference solver exists so cross-approach objective equality can be
verified without any third-party LP dependency.  It is a two-phase simplex
over variables with general bounds.  It reads :meth:`LpInstance.matrix` and
the store's bounds and cost, as :func:`check_primal` does.  A presolve
turns every single-term row into a bound on its column, intersects the
bounds several such rows put on one column, and drops those rows; bounds
that cross by more than the feasibility tolerance make the LP infeasible
before any pivot.  The columns stay those of the LP, so the primal needs
no mapping back.  The remaining rows become equalities through slack
variables, infeasible starts get per-row artificials, and the basis is
held as a sparse LU factorization with product-form eta updates.  The LU
is computed afresh after every 16 updates: each forward and backward
solve walks the whole eta file in Python, one dense column per eta,
while a fresh COLAMD LU of these bases takes under a millisecond at
T=24.  Of the intervals from 8 to 100, 16 gave the best geometric-mean
solve time on the benchmark LPs.  The dense dot products of the backward
solve fix the summation order, and so the pivot path.  Every nonbasic
value is set exactly to one of its bounds, or to 0 for a free column, so
a column's bound status is read from its value with exact comparisons,
however narrow its bounds.  Pricing enters the eligible column with the
largest ``|d_j| / sqrt(1 + |a_j|^2)``, the first one on a tie.  These are
steepest-edge weights taken once at the slack basis (Goldfarb & Reid
1977; Forrest & Goldfarb 1992) and never updated, so a pivot costs what
a Dantzig pivot costs; dividing by the column norm stops a column's
scale from deciding its rank, and the benchmark LPs at T=24 take about
17 % fewer pivots than under Dantzig's largest ``|d_j|``.  After a stall
window without progress, Bland's rule takes over until the objective
improves again, which guarantees termination on the highly degenerate
storage chains these models produce.  Weighted pricing resumes with the
first improving pivot: Bland's rule kept to the end took tri-area T=168
3BB-4F from about 6300 pivots to 57000.

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
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from .errors import InvariantViolation, NonzeroExit, ParseError, SolverFailure, SolverLaunchFailure
from .lp import INF, LpInstance, SolveResult, read_solution, write_mps

if TYPE_CHECKING:
    import scipy.sparse as sp

#: the labels :func:`solver_for` takes
SOLVER_LABELS = ("reference", "external:<spec.json>")

_FEAS_TOL = 1e-7
_PIVOT_TOL = 1e-9
# the iteration limit is 50 * (2 * rows + cols + 1), counting the rows the
# presolve drops
_PIVOTS_PER_SIZE = 50
_REFACTOR_EVERY = 16
_STALL_WINDOW = 1000


class _SingularBasis(Exception):
    """SuperLU could not factorize the basis."""


def _columns(matrix: sp.csc_matrix, basic: np.ndarray) -> sp.csc_matrix:
    """``matrix[:, basic]``, gathered straight from the CSC arrays: the same
    ``indptr``, ``indices`` and ``data`` as scipy's fancy indexing gives."""
    import scipy.sparse as sp

    starts = matrix.indptr[basic]
    counts = matrix.indptr[basic + 1] - starts
    indptr = np.zeros(len(basic) + 1, dtype=matrix.indptr.dtype)
    np.cumsum(counts, out=indptr[1:])
    take = np.repeat(starts - indptr[:-1], counts) + np.arange(indptr[-1])
    return sp.csc_matrix((matrix.data[take], matrix.indices[take], indptr),
                         shape=(matrix.shape[0], len(basic)))


class _Basis:
    """Sparse LU of the basis with product-form eta updates."""

    def __init__(self, matrix: sp.csc_matrix, basic: np.ndarray):
        self.matrix = matrix
        self.basic = basic
        self.etas: list[tuple[int, np.ndarray]] = []
        self.factorizations = 0
        self.refactor()

    def refactor(self) -> None:
        from scipy.sparse.linalg import splu

        self.etas = []
        try:
            self.lu = splu(_columns(self.matrix, self.basic), permc_spec="COLAMD")
        except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
            raise _SingularBasis(str(exc)) from None
        self.factorizations += 1

    def push_eta(self, row: int, column: np.ndarray) -> None:
        self.etas.append((row, column))
        if len(self.etas) >= _REFACTOR_EVERY:
            self.refactor()

    def ftran(self, rhs: np.ndarray) -> np.ndarray:
        x = self.lu.solve(rhs)
        for r, w in self.etas:
            xr = x[r] / w[r]
            # a zero entry subtracts 0 * xr, which leaves x as it is
            x -= w * xr
            x[r] = xr
        return x

    def btran(self, rhs: np.ndarray) -> np.ndarray:
        y = rhs.astype(float)
        for r, w in reversed(self.etas):
            wr = w[r]
            yr = y[r] / wr
            y[r] = 0.0
            y[r] = yr - (w @ y) / wr
        return self.lu.solve(y, trans="T")


class _Simplex:
    def __init__(self, lp: LpInstance):
        import scipy.sparse as sp

        rows, n = len(lp.row_lo), len(lp.lower)
        self.n_structural = n
        self.max_iter = _PIVOTS_PER_SIZE * (2 * rows + n + 1)
        # presolve: a single-term row lo <= a x_j <= hi is the bound
        # [lo/a, hi/a] on x_j (swapped for a < 0) and leaves the matrix; a is
        # never zero, since solve_reference checks the instance first (the
        # store is shared and read-only: what the presolve changes is copied)
        A = lp.matrix()
        single = np.diff(A.indptr) == 1
        first = A.indptr[:-1][single]
        j, a = A.indices[first], A.data[first]
        lo, hi = lp.row_lo[single] / a, lp.row_hi[single] / a
        col_lo, col_hi = lp.lower.copy(), lp.upper.copy()
        np.maximum.at(col_lo, j, np.where(a > 0, lo, hi))
        np.minimum.at(col_hi, j, np.where(a > 0, hi, lo))
        # bounds that cross by no more than the tolerance fix the column;
        # a wider crossing is left for solve() to report as infeasible
        close = (col_lo > col_hi) & (col_lo <= col_hi + _FEAS_TOL)
        col_hi[close] = col_lo[close]
        A, row_lo, row_hi = A[~single].tocsc(), lp.row_lo[~single], lp.row_hi[~single]
        self.m = m = A.shape[0]
        # rows become A x + s = rhs with one slack per row, bounded so that
        # A x stays within [row_lo, row_hi]
        rhs = np.where(np.isfinite(row_hi), row_hi, row_lo)
        lower = np.concatenate([col_lo, rhs - row_hi])
        upper = np.concatenate([col_hi, rhs - row_lo])

        # nonbasic columns start exactly at a finite bound, free ones at 0
        value = np.where(lower > -INF, lower, np.where(upper < INF, upper, 0.0))
        # start from the slack basis; rows whose slack value violates its
        # bounds get an artificial column instead
        s = rhs - A @ value[:n]
        lo, up = lower[n:], upper[n:]
        art_rows = np.flatnonzero((s < lo - 1e-12) | (s > up + 1e-12))
        self.n_art = n_art = len(art_rows)
        value[n:] = s
        value[n + art_rows] = np.clip(s[art_rows], lo[art_rows], up[art_rows])
        residual = s[art_rows] - value[n + art_rows]
        art = sp.csc_matrix(
            (np.where(residual > 0, 1.0, -1.0), (art_rows, np.arange(n_art))), shape=(m, n_art)
        )
        self.A = sp.hstack([A, sp.identity(m, format="csc"), art], format="csc")
        self.AT = self.A.T  # built once: pricing multiplies by it every pivot
        # steepest-edge reference weights: at the slack basis the edge that
        # column j opens has squared norm 1 + |a_j|^2; pricing divides |d_j|
        # by its root, so a column's scale no longer decides its rank
        self.weight = 1.0 / np.sqrt(1.0 + np.asarray(self.A.power(2).sum(axis=0)).ravel())
        self.lower = np.concatenate([lower, np.zeros(n_art)])
        self.upper = np.concatenate([upper, np.full(n_art, INF)])
        self.cost = np.concatenate([lp.cost, np.zeros(m + n_art)])
        self.value = np.concatenate([value, np.abs(residual)])
        self.basic = np.arange(n, n + m)
        self.basic[art_rows] = n + m + np.arange(n_art)
        self.basis: Optional[_Basis] = None
        self.iterations = 0
        self.phase1_iterations = 0
        self.degenerate_pivots = 0
        self.bland_from: Optional[int] = None

    def solve(self) -> tuple[str, np.ndarray, int]:
        # artificials are bounded by [0, inf), so only the LP's own bounds can cross
        if (self.lower > self.upper).any():
            return "infeasible", self.lower, 0
        self.basis = _Basis(self.A, self.basic)
        if self.n_art:
            phase1 = np.zeros(len(self.cost))
            phase1[-self.n_art:] = 1.0
            status = self._iterate(phase1, phase=1)
            self.phase1_iterations = self.iterations
            if status != "optimal":
                return status, self.value, self.iterations
            if phase1 @ self.value > _FEAS_TOL:
                return "infeasible", self.value, self.iterations
            # forbid artificials from re-entering
            self.upper[-self.n_art:] = 0.0
        status = self._iterate(self.cost, phase=2)
        return status, self.value, self.iterations

    def _iterate(self, cost: np.ndarray, phase: int) -> str:
        tol = _FEAS_TOL
        bland = False
        best_obj = cost @ self.value
        stall = 0
        while True:
            if self.iterations >= self.max_iter:
                return "iteration_limit"
            y = self.basis.btran(cost[self.basic])
            d = cost - self.AT @ y
            d[self.basic] = 0.0

            # nonbasic values sit exactly on a bound (or at 0 if free), so
            # exact comparisons give the status; basics have d == 0
            can_up = (self.value < self.upper) & (d < -tol)
            can_down = (self.value > self.lower) & (d > tol)
            eligible = can_up | can_down
            if not eligible.any():
                return "optimal"
            idx = np.flatnonzero(eligible)
            if bland:
                q = idx[0]
            else:
                q = idx[np.argmax(np.abs(d[idx]) * self.weight[idx])]
            direction = 1.0 if can_up[q] else -1.0

            column = np.zeros(self.m)
            span = slice(self.A.indptr[q], self.A.indptr[q + 1])
            column[self.A.indices[span]] = self.A.data[span]
            w = self.basis.ftran(column)
            # ratio test: entering variable moves by theta*direction, basics
            # move by -direction*w; the tightest bound wins
            step = -direction * w
            jb = self.basic
            vb, ub, lb = self.value[jb], self.upper[jb], self.lower[jb]
            limits = np.full(self.m, INF)
            np.divide(ub - vb, step, out=limits, where=(step > _PIVOT_TOL) & (ub < INF))
            np.divide(lb - vb, step, out=limits, where=(step < -_PIVOT_TOL) & (lb > -INF))
            np.maximum(limits, 0.0, out=limits)
            theta_flip = self.upper[q] - self.lower[q]
            lmin = limits.min() if self.m else INF
            if min(lmin, theta_flip) >= INF:
                return "unbounded" if phase == 2 else "infeasible"
            leaving = -1
            if lmin <= theta_flip:  # a basic variable blocks first
                ties = np.flatnonzero(limits <= lmin + 1e-12)
                if bland:
                    leaving = ties[np.argmin(jb[ties])]
                else:
                    leaving = ties[np.argmax(np.abs(w[ties]))]
                theta = limits[leaving]
            else:
                theta = theta_flip

            # iterations counts pivots and bound flips, not pricing rounds
            self.iterations += 1
            if bland and self.bland_from is None:
                self.bland_from = self.iterations
            if theta > 0:
                self.value[jb] += step * theta
                self.value[q] += direction * theta
            else:
                self.degenerate_pivots += 1
            if leaving < 0:
                # bound flip: entering variable crosses to its other bound
                self.value[q] = self.upper[q] if direction > 0 else self.lower[q]
            else:
                self.value[jb[leaving]] = ub[leaving] if step[leaving] > 0 else lb[leaving]
                self.basic[leaving] = q
                self.basis.push_eta(leaving, w)

            obj = cost @ self.value
            if obj < best_obj - 1e-12:
                best_obj = obj
                stall = 0
                bland = False  # the stall is over: weighted pricing resumes
            else:
                stall += 1
                if stall >= _STALL_WINDOW:
                    bland = True  # Bland's rule cannot cycle, so the stall ends


def solve_reference(instance: LpInstance) -> SolveResult:
    """Solve ``instance`` with the bundled deterministic simplex.

    The instance is checked first (:meth:`LpInstance.check`), off the clock.
    Integrality marks are relaxed with a warning; the result is the LP
    relaxation in that case.  Running out of iterations, after
    ``50 * (2 * rows + cols + 1)`` pivots, gives status ``"iteration_limit"``
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
    # scipy is imported on first use; loading it here keeps the import off
    # the solve's clock
    import scipy.sparse.linalg  # noqa: F401

    start = time.perf_counter()
    worker = _Simplex(instance)
    try:
        status, value, iterations = worker.solve()
    except _SingularBasis:
        status, value, iterations = "numerical_failure", None, worker.iterations
    elapsed = time.perf_counter() - start
    refactorizations = worker.basis.factorizations if worker.basis is not None else 0
    result = SolveResult(status=status, iterations=iterations, wall_time_s=elapsed,
                         refactorizations=refactorizations,
                         phase1_iterations=worker.phase1_iterations,
                         degenerate_pivots=worker.degenerate_pivots,
                         bland_from=worker.bland_from)
    if status == "optimal":
        result.primal = value[:worker.n_structural]
        result.primal.flags.writeable = False
        # summed term by term in column order
        result.objective = float(sum((instance.cost * result.primal).tolist()))
    return result


def check_primal(instance: LpInstance, primal: np.ndarray, tol: float = 1e-7) -> list[str]:
    """Names of variable bounds (as ``bound:<name>``), then rows, violated by
    ``primal`` beyond ``tol``, each in index order.

    ``primal`` holds one value per column, in column order, as
    :attr:`SolveResult.primal` does.  Rows are evaluated as
    :meth:`LpInstance.matrix` ``@ x`` against ``row_lo`` and ``row_hi``; a
    value or an ``A @ x`` that is not finite is violated.  Names are made
    only for what is violated.  The instance is checked first
    (:meth:`LpInstance.check`).
    """
    instance.check()
    x = np.asarray(primal, float)
    if x.shape != (len(instance.lower),):
        raise InvariantViolation(
            f"primal of shape {x.shape} for an LP of {len(instance.lower)} columns")
    lhs = instance.matrix() @ x
    bad_cols = np.flatnonzero(
        ~np.isfinite(x) | (x < instance.lower - tol) | (x > instance.upper + tol))
    bad_rows = np.flatnonzero(
        ~np.isfinite(lhs) | (lhs < instance.row_lo - tol) | (lhs > instance.row_hi + tol))
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
