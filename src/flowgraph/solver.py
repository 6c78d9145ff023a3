"""Deterministic bounded-variable revised simplex and an external-solver bridge.

The reference solver exists so cross-approach objective equality can be
verified without any third-party LP dependency.  It is a two-phase simplex
over variables with general bounds.  It reads the LP as one sparse matrix
from :meth:`LpInstance.arrays`, as :func:`check_primal` does.  A presolve
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
however narrow its bounds.  There is one pricing rule: Dantzig pricing,
which falls back to Bland's rule after a stall window; that guarantees
termination on the highly degenerate storage chains these models produce.
"""

from __future__ import annotations

import os
import shlex
import subprocess
import tempfile
import time
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import (
    InvariantViolation,
    NonzeroExit,
    SolverLaunchFailure,
    UnknownVariableName,
)
from .lp import INF, LpInstance, SolveResult, read_solution, write_mps

_REFACTOR_EVERY = 16
_STALL_WINDOW = 1000


@dataclass(frozen=True)
class SimplexOptions:
    """Tolerances and iteration limit for the reference simplex."""

    feas_tol: float = 1e-7
    pivot_tol: float = 1e-9
    # default: 50 * (2 * rows + cols) + 50, counting the rows the presolve drops
    max_iterations: Optional[int] = None

    def __post_init__(self):
        if self.feas_tol <= 0 or self.pivot_tol <= 0:
            raise InvariantViolation("tolerances must be positive")
        if self.max_iterations is not None and self.max_iterations < 1:
            raise InvariantViolation("max_iterations must be at least 1")


class _Basis:
    """Sparse LU of the basis with product-form eta updates."""

    def __init__(self, matrix: sp.csc_matrix, basic: np.ndarray):
        self.matrix = matrix
        self.basic = basic
        self.etas: list[tuple[int, np.ndarray]] = []
        self.factorizations = 0
        self.refactor()

    def refactor(self) -> None:
        self.etas = []
        self.factorizations += 1
        self.lu = splu(self.matrix[:, self.basic].tocsc(), permc_spec="COLAMD")

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
    def __init__(self, instance: LpInstance, opts: SimplexOptions):
        self.opts = opts
        lp = instance.arrays()
        rows, self.n_structural = lp.A.shape
        self.max_iter = opts.max_iterations
        if self.max_iter is None:
            self.max_iter = 50 * (2 * rows + self.n_structural) + 50
        # presolve: a single-term row lo <= a x_j <= hi is the bound
        # [lo/a, hi/a] on x_j (swapped for a < 0) and leaves the matrix;
        # a zero coefficient is no term, so it cannot become a bound
        lp.A.eliminate_zeros()
        single = np.diff(lp.A.indptr) == 1
        first = lp.A.indptr[:-1][single]
        j, a = lp.A.indices[first], lp.A.data[first]
        lo, hi = lp.row_lo[single] / a, lp.row_hi[single] / a
        col_lo, col_hi = lp.col_lo, lp.col_hi
        np.maximum.at(col_lo, j, np.where(a > 0, lo, hi))
        np.minimum.at(col_hi, j, np.where(a > 0, hi, lo))
        # bounds that cross by no more than the tolerance fix the column;
        # a wider crossing is left for solve() to report as infeasible
        close = (col_lo > col_hi) & (col_lo <= col_hi + opts.feas_tol)
        col_hi[close] = col_lo[close]
        A, row_lo, row_hi = lp.A[~single], lp.row_lo[~single], lp.row_hi[~single]
        self.m = A.shape[0]
        # rows become A x + s = rhs with one slack per row, bounded so that
        # A x stays within [row_lo, row_hi]
        self.rhs = np.where(np.isfinite(row_hi), row_hi, row_lo)
        self.A = sp.hstack([A.tocsc(), sp.identity(self.m, format="csc")], format="csc")
        self.lower = np.concatenate([col_lo, self.rhs - row_hi])
        self.upper = np.concatenate([col_hi, self.rhs - row_lo])
        self.cost = np.concatenate([lp.cost, np.zeros(self.m)])
        self.basis: Optional[_Basis] = None

    def solve(self) -> tuple[str, np.ndarray, int]:
        m, n = self.m, self.n_structural
        if (self.lower > self.upper).any():
            return "infeasible", self.lower, 0

        # nonbasic columns start exactly at a finite bound, free ones at 0
        value = np.where(self.lower > -INF, self.lower, np.where(self.upper < INF, self.upper, 0.0))
        # start from the slack basis; rows whose slack value violates its
        # bounds get an artificial column instead
        s = self.rhs - self.A[:, :n] @ value[:n]
        lo, up = self.lower[n:], self.upper[n:]
        art_rows = np.flatnonzero((s < lo - 1e-12) | (s > up + 1e-12))
        n_art = len(art_rows)
        value[n:] = s
        value[n + art_rows] = np.clip(s[art_rows], lo[art_rows], up[art_rows])
        residual = s[art_rows] - value[n + art_rows]
        art = sp.csc_matrix(
            (np.where(residual > 0, 1.0, -1.0), (art_rows, np.arange(n_art))), shape=(m, n_art)
        )
        self.A = sp.hstack([self.A, art], format="csc")
        self.lower = np.concatenate([self.lower, np.zeros(n_art)])
        self.upper = np.concatenate([self.upper, np.full(n_art, INF)])
        self.cost = np.concatenate([self.cost, np.zeros(n_art)])
        self.value = np.concatenate([value, np.abs(residual)])
        self.basic = np.arange(n, n + m)
        self.basic[art_rows] = n + m + np.arange(n_art)
        self.basis = _Basis(self.A, self.basic)
        self.AT = self.A.T  # built once: pricing multiplies by it every pivot
        self.iterations = 0

        if n_art:
            phase1 = np.zeros(n + m + n_art)
            phase1[-n_art:] = 1.0
            status = self._iterate(phase1, phase=1)
            if status != "optimal":
                return status, self.value, self.iterations
            if phase1 @ self.value > self.opts.feas_tol:
                return "infeasible", self.value, self.iterations
            # forbid artificials from re-entering
            self.upper[-n_art:] = 0.0
        status = self._iterate(self.cost, phase=2)
        return status, self.value, self.iterations

    def _iterate(self, cost: np.ndarray, phase: int) -> str:
        tol = self.opts.feas_tol
        ptol = self.opts.pivot_tol
        bland = False
        best_obj = cost @ self.value
        stall = 0
        while True:
            if self.iterations >= self.max_iter:
                return "iteration_limit"
            self.iterations += 1
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
                q = idx[np.argmax(np.abs(d[idx]))]
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
            np.divide(ub - vb, step, out=limits, where=(step > ptol) & (ub < INF))
            np.divide(lb - vb, step, out=limits, where=(step < -ptol) & (lb > -INF))
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

            if theta > 0:
                self.value[jb] += step * theta
                self.value[q] += direction * theta
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
            else:
                stall += 1
                if stall >= _STALL_WINDOW:
                    bland = True  # Bland's rule guarantees termination


def solve_reference(
    instance: LpInstance, opts: SimplexOptions = SimplexOptions()
) -> SolveResult:
    """Solve ``instance`` with the bundled deterministic simplex.

    Integrality marks are relaxed with a warning; the result is the LP
    relaxation in that case.  Running out of ``opts.max_iterations`` gives
    status ``"iteration_limit"`` and no primal.  ``refactorizations`` counts
    the LU factorizations of the basis, the first one included.
    """
    if any(v.integrality for v in instance.variables):
        warnings.warn(
            f"{instance.name}: integrality marks relaxed to their LP bounds",
            stacklevel=2,
        )
    start = time.perf_counter()
    worker = _Simplex(instance, opts)
    status, value, iterations = worker.solve()
    elapsed = time.perf_counter() - start
    refactorizations = worker.basis.factorizations if worker.basis is not None else 0
    if status != "optimal":
        return SolveResult(status=status, iterations=iterations, wall_time_s=elapsed,
                           refactorizations=refactorizations)
    primal = {
        ref.name: float(value[j]) for j, ref in enumerate(instance.variables)
    }
    objective = sum(coef * value[j] for j, coef in instance.objective)
    return SolveResult(
        status="optimal",
        objective=float(objective),
        primal=primal,
        iterations=iterations,
        wall_time_s=elapsed,
        refactorizations=refactorizations,
    )


def check_primal(
    instance: LpInstance, primal: dict[str, float], tol: float = 1e-7
) -> list[str]:
    """Names of variable bounds (as ``bound:<name>``), then rows, violated by
    ``primal`` beyond ``tol``, each in index order.

    Variables missing from ``primal`` count as zero.  Rows are evaluated as
    ``A @ x`` against the bounds of :meth:`LpInstance.arrays`.
    """
    index = instance.var_index()
    x = np.zeros(len(instance.variables))
    for name, val in primal.items():
        if name not in index:
            raise UnknownVariableName(f"primal value for unknown variable {name!r}")
        x[index[name]] = val
    lp = instance.arrays()
    lhs = lp.A @ x
    bad_cols = np.flatnonzero((x < lp.col_lo - tol) | (x > lp.col_hi + tol))
    bad_rows = np.flatnonzero((lhs < lp.row_lo - tol) | (lhs > lp.row_hi + tol))
    return [f"bound:{instance.variables[j].name}" for j in bad_cols] + [
        instance.rows[i].name for i in bad_rows
    ]


# ---------------------------------------------------------------------------
# External solver bridge
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExternalSolverSpec:
    """Subprocess contract: MPS in, normalized solution file out.

    ``args`` may contain the placeholders ``{mps}``, ``{out}`` and
    ``{seed}``; ``solution_path`` may contain ``{out}``.
    """

    executable: str
    args: tuple[str, ...] = ("{mps}", "{out}", "{seed}")
    solution_path: str = "{out}"

    def __post_init__(self):
        joined = " ".join(self.args) + " " + self.solution_path
        if "{mps}" not in joined or "{out}" not in joined:
            raise InvariantViolation(
                "argument template must reference {mps} and {out}"
            )

    @classmethod
    def from_json(cls, path: str) -> "ExternalSolverSpec":
        import json

        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        return cls(
            executable=raw["executable"],
            args=tuple(raw.get("args", ("{mps}", "{out}", "{seed}"))),
            solution_path=raw.get("solution_path", "{out}"),
        )


def solve_external(
    instance: LpInstance, spec: ExternalSolverSpec, seed: int = 0
) -> SolveResult:
    """Write MPS, run the external solver, parse its solution file."""
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
                f"{proc.stderr.strip()[:500]}"
            )
        result = read_solution(spec.solution_path.format(**subst), instance)
        result.wall_time_s = elapsed
        return result
