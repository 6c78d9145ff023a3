"""External-solver adapter: free-format MPS in, normalized solution out.

Runs as a subprocess (``python -m flowgraph.highs_adapter model.mps out.sol
[seed]``) so the reference simplex can be cross-checked against an
unrelated engine (scipy's HiGHS).  The MPS parser here is written from the
format description and shares no code with the writer in :mod:`.lp`, so
the write/parse round trip exercises two genuinely different routes.  The
parsed rows reach HiGHS as one sparse matrix with per-row bounds, so memory
grows with the nonzeros, not with rows times columns.  HiGHS is scipy's
bundled extension, driven directly (:func:`highs_core`), so a child never
imports ``scipy.optimize`` or ``scipy.sparse``.

Run as a script, the child loads the extension and then calls
:func:`gc.freeze`, which moves everything imported so far into a generation
the collector never scans.  Otherwise the collections the interpreter runs
at exit walk numpy's import graph: on the T=96 tri-area 3BB-4F file that
teardown took 0.030 s of a 0.318 s child, and 0.007 s of 0.292 s with the
imports frozen (medians of 30 runs).  :func:`solve` and :func:`main` do
not freeze, because tests and the benchmark's probes call them in process
and must not change the host's collector.  ``os._exit`` would skip
teardown too, but also ``atexit`` handlers and finalizers.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np


@dataclass
class _ParsedMps:
    row_sense: dict = field(default_factory=dict)  # name -> L | G | E
    row_order: list = field(default_factory=list)
    objective_row: str = ""
    columns: dict = field(default_factory=dict)  # col -> {row: coef}
    col_order: list = field(default_factory=list)
    rhs: dict = field(default_factory=dict)
    ranges: dict = field(default_factory=dict)
    lower: dict = field(default_factory=dict)
    upper: dict = field(default_factory=dict)
    integer: set = field(default_factory=set)


def parse_free_mps(path: str) -> _ParsedMps:
    parsed = _ParsedMps()
    section = None
    in_integer = False
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("*"):
                continue
            if not line[0].isspace():
                section = line.split()[0].upper()
                continue
            fields = line.split()
            if section == "ROWS":
                sense, name = fields[0].upper(), fields[1]
                if sense == "N":
                    parsed.objective_row = name
                else:
                    parsed.row_sense[name] = sense
                    parsed.row_order.append(name)
            elif section == "COLUMNS":
                if len(fields) >= 3 and fields[1] == "'MARKER'":
                    in_integer = fields[2] == "'INTORG'"
                    continue
                col = fields[0]
                if col not in parsed.columns:
                    parsed.columns[col] = {}
                    parsed.col_order.append(col)
                    if in_integer:
                        parsed.integer.add(col)
                for row, coef in zip(fields[1::2], fields[2::2]):
                    parsed.columns[col][row] = float(coef)
            elif section == "RHS":
                for row, coef in zip(fields[1::2], fields[2::2]):
                    parsed.rhs[row] = float(coef)
            elif section == "RANGES":
                for row, coef in zip(fields[1::2], fields[2::2]):
                    parsed.ranges[row] = float(coef)
            elif section == "BOUNDS":
                kind, col = fields[0].upper(), fields[2]
                val = float(fields[3]) if len(fields) > 3 else 0.0
                if kind == "UP":
                    parsed.upper[col] = val
                elif kind == "LO":
                    parsed.lower[col] = val
                elif kind == "FX":
                    parsed.lower[col] = val
                    parsed.upper[col] = val
                elif kind == "FR":
                    parsed.lower[col] = -np.inf
                    parsed.upper[col] = np.inf
                elif kind == "MI":
                    parsed.lower[col] = -np.inf
                elif kind == "PL":
                    parsed.upper[col] = np.inf
                else:
                    raise ValueError(f"unsupported bound kind {kind}")
    return parsed


@dataclass(frozen=True)
class HighsResult:
    """HiGHS's answer: the solution-file status, with the objective ``fun``
    and the primal ``x`` when the status is ``optimal``."""

    status: str
    fun: Optional[float] = None
    x: Optional[np.ndarray] = None


class LpArrays(NamedTuple):
    """A parsed MPS file as HiGHS reads it: ``row_lo <= A x <= row_hi`` and
    ``col_lo <= x <= col_hi``, with ``A`` in CSC form and each column's
    rows in increasing order."""

    cost: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    row_lo: np.ndarray
    row_hi: np.ndarray
    col_lo: np.ndarray
    col_hi: np.ndarray


def lp_arrays(p: _ParsedMps) -> LpArrays:
    row_index = {r: i for i, r in enumerate(p.row_order)}
    cost = np.zeros(len(p.col_order))
    rows, cols, coefs = [], [], []
    for j, entries in enumerate(p.columns.values()):  # columns are in col_order
        for row, coef in entries.items():
            if row == p.objective_row:
                cost[j] = coef
            elif row in row_index:
                rows.append(row_index[row])
                cols.append(j)
                coefs.append(coef)
    # L: rhs - |R| <= a.x <= rhs;  G: rhs <= a.x <= rhs + |R|;  E: a.x = rhs, or with
    # a range R, a.x between rhs and rhs + R (MPS: [rhs, rhs + R] if R > 0, else [rhs + R, rhs])
    lo = np.empty(len(p.row_order))
    hi = np.empty(len(p.row_order))
    for i, name in enumerate(p.row_order):
        rhs, sense, r = p.rhs.get(name, 0.0), p.row_sense[name], p.ranges.get(name)
        if sense == "E":
            lo[i], hi[i] = (rhs, rhs) if r is None else sorted((rhs, rhs + r))
        else:
            width = np.inf if r is None else abs(r)
            lo[i] = rhs - width if sense == "L" else rhs
            hi[i] = rhs + width if sense == "G" else rhs
    rows, cols = np.array(rows, dtype=np.int32), np.array(cols, dtype=np.int32)
    # each column's rows in increasing order, as scipy's CSC conversion gave them
    # to milp; a column names a row once, so no entries are summed
    order = np.lexsort((rows, cols))
    indptr = np.zeros(len(cost) + 1, dtype=np.int32)
    np.cumsum(np.bincount(cols, minlength=len(cost)), out=indptr[1:])
    return LpArrays(
        cost, indptr, rows[order], np.array(coefs, dtype=float)[order], lo, hi,
        np.array([p.lower.get(c, 0.0) for c in p.col_order], dtype=float),
        np.array([p.upper.get(c, np.inf) for c in p.col_order], dtype=float),
    )


_CORE = "scipy.optimize._highspy._core"


def highs_core():
    """Return scipy's bundled HiGHS extension, ``scipy.optimize._highspy._core``.

    The extension is found in scipy's ``optimize/_highspy`` directory and
    executed without running ``scipy/optimize/__init__.py``, whose imports
    cost a fresh interpreter about half a second.  As the import system
    does, it is registered in :data:`sys.modules` under its own name before
    it runs, so a later ``import scipy.optimize`` finds it there and uses
    this module rather than loading the extension again.  A copy that
    ``scipy.optimize`` already loaded is returned as it is.
    """
    core = sys.modules.get(_CORE)
    if core is None:
        from importlib.machinery import PathFinder
        from importlib.util import find_spec, module_from_spec

        scipy_dir = find_spec("scipy").submodule_search_locations[0]
        spec = PathFinder.find_spec(_CORE, [os.path.join(scipy_dir, "optimize", "_highspy")])
        core = module_from_spec(spec)
        sys.modules[_CORE] = core
        try:
            spec.loader.exec_module(core)
        except BaseException:
            del sys.modules[_CORE]
            raise
    return core


#: HiGHS model status -> solution-file status, as scipy.optimize.milp reads
#: it; every status not named here is a numerical failure
_STATUS = {
    "kOptimal": "optimal",
    "kInfeasible": "infeasible",
    "kModelError": "infeasible",
    "kUnbounded": "unbounded",
    "kTimeLimit": "iteration_limit",
    "kIterationLimit": "iteration_limit",
}


def status_label(model_status) -> str:
    return _STATUS.get(model_status.name, "numerical_failure")


def solve(path: str) -> tuple[_ParsedMps, HighsResult]:
    """Parse the MPS file at ``path`` and solve it with HiGHS.

    The rows go to HiGHS as one sparse matrix with per-row bounds, through
    the calls :func:`scipy.optimize.milp` makes, with every column
    continuous: marked integer columns are relaxed.  A file with no columns
    is not passed to HiGHS: it is optimal with objective 0 when every row
    admits 0, else infeasible.  Returns the parsed file and HiGHS's answer.
    """
    p = parse_free_mps(path)
    a = lp_arrays(p)
    if not p.col_order:
        # HiGHS calls such a model empty, not infeasible; every row reads 0
        feasible = bool(np.all((a.row_lo <= 0.0) & (a.row_hi >= 0.0)))
        return p, HighsResult("optimal" if feasible else "infeasible", 0.0, a.cost)
    h = highs_core()
    lp = h.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = len(a.cost)
    lp.num_row_ = lp.a_matrix_.num_row_ = len(a.row_lo)
    lp.a_matrix_.format_ = h.MatrixFormat.kColwise
    lp.a_matrix_.start_, lp.a_matrix_.index_, lp.a_matrix_.value_ = a.indptr, a.indices, a.data
    lp.col_cost_, lp.col_lower_, lp.col_upper_ = a.cost, a.col_lo, a.col_hi
    lp.row_lower_, lp.row_upper_ = a.row_lo, a.row_hi
    lp.integrality_ = [h.HighsVarType.kContinuous] * len(a.cost)
    highs = h._Highs()
    options = h.HighsOptions()
    options.log_to_console = False
    highs.passOptions(options)
    if highs.passModel(lp) == h.HighsStatus.kError:
        status = status_label(h.HighsModelStatus.kModelError)
    else:
        highs.run()
        status = status_label(highs.getModelStatus())
    if status != "optimal":
        return p, HighsResult(status)
    x = np.array(highs.getSolution().col_value)
    return p, HighsResult(status, highs.getInfo().objective_function_value, x)


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: highs_adapter <model.mps> <out.sol> [seed]", file=sys.stderr)
        return 2
    mps_path, out_path = argv[0], argv[1]
    p, result = solve(mps_path)
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(f"status {result.status}\n")
        if result.status == "optimal":
            fh.write(f"obj {float(result.fun)!r}\n")
            for col, val in zip(p.col_order, result.x):
                fh.write(f"{col} {float(val)!r}\n")
    return 0


if __name__ == "__main__":
    import gc

    highs_core()  # loaded before the freeze, so it is frozen too

    gc.freeze()
    raise SystemExit(main(sys.argv[1:]))
