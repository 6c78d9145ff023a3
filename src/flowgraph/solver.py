"""Deterministic bounded-variable revised simplex and an external-solver bridge.

The reference solver exists so cross-approach objective equality can be
verified without any third-party LP dependency.  It is a two-phase simplex
over variables with general bounds.  It reads the LP as one sparse matrix
from :meth:`LpInstance.arrays`, as :func:`check_primal` does: rows become
equalities through slack variables, infeasible starts get per-row
artificials, and the basis is held as a sparse LU factorization with
product-form eta updates between periodic refactorizations.  Dantzig
pricing falls back to Bland's rule after a stall window, which guarantees
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

_REFACTOR_EVERY = 100
_STALL_WINDOW = 1000


@dataclass(frozen=True)
class SimplexOptions:
    """Tolerances and pricing policy for the reference simplex."""

    feas_tol: float = 1e-7
    pivot_tol: float = 1e-9
    max_iterations: Optional[int] = None  # default: 50 * (rows + cols)
    pricing: str = "dantzig"  # "dantzig" (with Bland fallback) or "bland"

    def __post_init__(self):
        if self.feas_tol <= 0 or self.pivot_tol <= 0:
            raise InvariantViolation("tolerances must be positive")
        if self.pricing not in ("dantzig", "bland"):
            raise InvariantViolation(f"unknown pricing rule {self.pricing!r}")


class _Basis:
    """Sparse LU of the basis with product-form eta updates."""

    def __init__(self, matrix: sp.csc_matrix, basic: np.ndarray):
        self.matrix = matrix
        self.basic = basic
        self.etas: list[tuple[int, np.ndarray]] = []
        self.refactor()

    def refactor(self) -> None:
        self.etas = []
        basis = self.matrix[:, self.basic].tocsc()
        self.lu = splu(basis.tocsc(), permc_spec="COLAMD")

    def push_eta(self, row: int, column: np.ndarray) -> None:
        self.etas.append((row, column))
        if len(self.etas) >= _REFACTOR_EVERY:
            self.refactor()

    def ftran(self, rhs: np.ndarray) -> np.ndarray:
        x = self.lu.solve(rhs)
        for r, w in self.etas:
            xr = x[r] / w[r]
            x -= w * xr
            x[r] = xr
        return x

    def btran(self, rhs: np.ndarray) -> np.ndarray:
        y = rhs.astype(float).copy()
        for r, w in reversed(self.etas):
            yr = y[r] / w[r]
            y[r] = 0.0
            y[r] = yr - (w @ y) / w[r]
        return self.lu.solve(y, trans="T")


class _Simplex:
    def __init__(self, instance: LpInstance, opts: SimplexOptions):
        self.opts = opts
        lp = instance.arrays()
        self.m, self.n_structural = lp.A.shape
        # rows become A x + s = rhs with one slack per row, bounded so that
        # A x stays within [row_lo, row_hi]
        self.rhs = np.where(np.isfinite(lp.row_hi), lp.row_hi, lp.row_lo)
        self.A = sp.hstack([lp.A.tocsc(), sp.identity(self.m, format="csc")], format="csc")
        self.lower = np.concatenate([lp.col_lo, self.rhs - lp.row_hi])
        self.upper = np.concatenate([lp.col_hi, self.rhs - lp.row_lo])
        self.cost = np.concatenate([lp.cost, np.zeros(self.m)])

    # -- state helpers ---------------------------------------------------

    def _nonbasic_start(self, j: int) -> float:
        if self.lower[j] > -INF:
            return self.lower[j]
        if self.upper[j] < INF:
            return self.upper[j]
        return 0.0

    def solve(self) -> tuple[str, np.ndarray, int]:
        m = self.m
        total = self.A.shape[1]
        max_iter = self.opts.max_iterations or 50 * (m + total) + 50

        value = np.array([self._nonbasic_start(j) for j in range(total)])
        # start from the slack basis; rows whose slack value violates its
        # bounds get an artificial column instead
        structural_rhs = self.rhs - self.A[:, : self.n_structural] @ value[: self.n_structural]
        basic = np.arange(self.n_structural, self.n_structural + m)
        art_cols, art_rows, art_vals = [], [], []
        for i in range(m):
            j = self.n_structural + i
            s = structural_rhs[i]
            if self.lower[j] - 1e-12 <= s <= self.upper[j] + 1e-12:
                value[j] = s
            else:
                clamped = min(max(s, self.lower[j]), self.upper[j])
                value[j] = clamped
                residual = s - clamped
                art_rows.append(i)
                art_cols.append(len(art_cols))
                art_vals.append(1.0 if residual > 0 else -1.0)
        n_art = len(art_cols)
        if n_art:
            art = sp.csc_matrix(
                (np.array(art_vals), (np.array(art_rows), np.array(art_cols))),
                shape=(m, n_art),
            )
            self.A = sp.hstack([self.A, art], format="csc")
            self.lower = np.concatenate([self.lower, np.zeros(n_art)])
            self.upper = np.concatenate([self.upper, np.full(n_art, INF)])
            self.cost = np.concatenate([self.cost, np.zeros(n_art)])
            value = np.concatenate([value, np.zeros(n_art)])
            for k, i in enumerate(art_rows):
                j_art = total + k
                value[j_art] = abs(
                    structural_rhs[i] - value[self.n_structural + i]
                )
                basic[i] = j_art
        total = self.A.shape[1]
        self.value = value
        self.basic = basic
        self.is_basic = np.zeros(total, dtype=bool)
        self.is_basic[basic] = True
        self.basis = _Basis(self.A, basic)
        self.iterations = 0

        if n_art:
            phase1 = np.zeros(total)
            phase1[self.A.shape[1] - n_art:] = 1.0
            status = self._iterate(phase1, max_iter, phase=1)
            if status != "optimal":
                return status, self.value, self.iterations
            if phase1 @ self.value > self.opts.feas_tol:
                return "infeasible", self.value, self.iterations
            # forbid artificials from re-entering
            self.upper[self.A.shape[1] - n_art:] = 0.0
        cost = np.zeros(total)
        cost[: len(self.cost)] = self.cost
        status = self._iterate(cost, max_iter, phase=2)
        return status, self.value, self.iterations

    def _iterate(self, cost: np.ndarray, max_iter: int, phase: int) -> str:
        tol = self.opts.feas_tol
        ptol = self.opts.pivot_tol
        bland = self.opts.pricing == "bland"
        best_obj = cost @ self.value
        stall = 0
        while True:
            if self.iterations >= max_iter:
                return "iteration_limit"
            self.iterations += 1
            y = self.basis.btran(cost[self.basic])
            d = cost - self.A.T @ y
            d[self.basic] = 0.0

            at_lower = np.isclose(self.value, self.lower, atol=1e-9) & ~self.is_basic
            at_upper = np.isclose(self.value, self.upper, atol=1e-9) & ~self.is_basic
            free = ~self.is_basic & ~at_lower & ~at_upper
            fixed = at_lower & at_upper  # zero-width bounds never move
            can_up = (at_lower | free) & ~fixed & (d < -tol)
            can_down = (at_upper | free) & ~fixed & (d > tol)
            eligible = can_up | can_down
            if not eligible.any():
                return "optimal"
            idx = np.flatnonzero(eligible)
            if bland:
                q = idx[0]
            else:
                q = idx[np.argmax(np.abs(d[idx]))]
            direction = 1.0 if can_up[q] else -1.0

            w = self.basis.ftran(np.asarray(self.A[:, q].todense()).ravel())
            # ratio test: entering variable moves by theta*direction, basics
            # move by -direction*w; the tightest bound wins
            step = -direction * w
            jb = self.basic
            vb = self.value[jb]
            limits = np.full(self.m, INF)
            hit_bound = np.zeros(self.m)
            going_up = (step > ptol) & (self.upper[jb] < INF)
            going_dn = (step < -ptol) & (self.lower[jb] > -INF)
            limits[going_up] = (self.upper[jb][going_up] - vb[going_up]) / step[going_up]
            limits[going_dn] = (self.lower[jb][going_dn] - vb[going_dn]) / step[going_dn]
            hit_bound[going_up] = self.upper[jb][going_up]
            hit_bound[going_dn] = self.lower[jb][going_dn]
            np.maximum(limits, 0.0, out=limits)
            theta_flip = self.upper[q] - self.lower[q]
            lmin = limits.min() if self.m else INF
            if min(lmin, theta_flip) >= INF:
                return "unbounded" if phase == 2 else "infeasible"
            leaving = -1
            leave_to = 0.0
            if lmin <= theta_flip:  # a basic variable blocks first
                ties = np.flatnonzero(limits <= lmin + 1e-12)
                if bland:
                    leaving = ties[np.argmin(jb[ties])]
                else:
                    leaving = ties[np.argmax(np.abs(w[ties]))]
                theta = limits[leaving]
                leave_to = hit_bound[leaving]
            else:
                theta = theta_flip

            if theta > 0:
                self.value[self.basic] += step * theta
                self.value[q] += direction * theta
            if leaving < 0:
                # bound flip: entering variable crosses to its other bound
                self.value[q] = self.upper[q] if direction > 0 else self.lower[q]
            else:
                jb = self.basic[leaving]
                self.value[jb] = leave_to
                self.basic[leaving] = q
                self.is_basic[jb] = False
                self.is_basic[q] = True
                self.basis.basic = self.basic
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
    status ``"iteration_limit"`` and no primal.
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
    if status != "optimal":
        return SolveResult(status=status, iterations=iterations, wall_time_s=elapsed)
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
