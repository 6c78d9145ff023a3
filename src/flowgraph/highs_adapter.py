"""External-solver adapter: free-format MPS in, normalized solution out.

Runs as a subprocess (``python -m flowgraph.highs_adapter model.mps out.sol
[seed]``) so the reference simplex can be cross-checked against an
unrelated engine (scipy's HiGHS).  The MPS parser here is written from the
format description and shares no code with the writer in :mod:`.lp`, so
the write/parse round trip exercises two genuinely different routes.  It
reads the file once, straight into the arrays HiGHS takes (:class:`MpsModel`),
so memory grows with the nonzeros, not with rows times columns.  HiGHS is
scipy's bundled extension, driven directly (:func:`highs_core`), so a child
never imports ``scipy.optimize`` or ``scipy.sparse``.  The one loader of
such extensions, :func:`scipy_extension`, also serves the reference
simplex.

The parser raises ``ParseError`` naming ``file:line``, rather than solve
another LP, at a name it cannot resolve (a row missing from ROWS, a column
missing from COLUMNS, a row type, bound kind or section it does not know),
an RHS or RANGES entry on the objective row, a (column, row) entry given
twice, a row declared twice, a column split in two and a line it cannot
read.  The child then prints ``error: <message>`` to stderr and exits 1.

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
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import ParseError


class MpsModel(NamedTuple):
    """A parsed MPS file as HiGHS takes it: minimize ``cost @ x`` subject to
    ``row_lo <= A x <= row_hi`` and ``col_lo <= x <= col_hi``, ``A`` in CSC
    form with each column's rows in increasing order, rows and columns in
    file order; ``integer`` marks the columns between INTORG and INTEND."""

    row_names: list
    col_names: list
    cost: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    row_lo: np.ndarray
    row_hi: np.ndarray
    col_lo: np.ndarray
    col_hi: np.ndarray
    integer: np.ndarray


def parse_free_mps(path: str) -> MpsModel:
    """Read the free-format MPS file at ``path`` in one pass; raise
    ParseError for a name it cannot resolve (see the module docstring)."""
    from array import array  # a shared library, loaded only by a process that parses

    row_at, col_at = {}, {}  # name -> index, in the order the file names them
    senses, rhs, ranges = [], {}, {}
    cost, lower, upper, integer, starts = [], [], [], [], []
    rows, coefs = array("i"), array("d")
    section, objective, col, in_integer = None, None, None, False

    def fail(message):
        return ParseError(f"{path}:{number}: {message}")

    with open(path, "r", encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            fields = line.split()
            if not fields or fields[0].startswith("*"):
                continue
            if not line[0].isspace():
                section = fields[0].upper()
                if section not in ("NAME", "ROWS", "COLUMNS", "RHS", "RANGES", "BOUNDS", "ENDATA"):
                    raise fail(f"unknown section {fields[0]}")
                continue
            try:
                if section == "ROWS":
                    sense, name = fields[0].upper(), fields[1]
                    if name in row_at or name == objective:
                        raise fail(f"row {name} is declared twice")
                    if sense == "N":
                        objective = name
                    elif sense in ("L", "G", "E"):
                        row_at[name] = len(senses)
                        senses.append(sense)
                    else:
                        raise fail(f"unknown row type {fields[0]}")
                elif section == "COLUMNS":
                    if fields[1] == "'MARKER'":
                        in_integer = fields[2] == "'INTORG'"
                        continue
                    if fields[0] != col:
                        col = fields[0]
                        if col in col_at:
                            raise fail(f"column {col} continues after another column")
                        col_at[col] = len(cost)
                        cost.append(0.0)
                        lower.append(0.0)
                        upper.append(np.inf)
                        integer.append(in_integer)
                        starts.append(len(rows))
                        seen = set()
                    for row, value in zip(fields[1::2], fields[2::2], strict=True):
                        if row in seen:
                            raise fail(f"column {col} names row {row} twice")
                        seen.add(row)
                        if row == objective:
                            cost[-1] = float(value)
                            continue
                        rows.append(row_at[row])
                        coefs.append(float(value))
                elif section in ("RHS", "RANGES"):
                    given = rhs if section == "RHS" else ranges
                    for row, value in zip(fields[1::2], fields[2::2], strict=True):
                        if row == objective:
                            raise fail(f"{section} entry on the objective row {row}")
                        given[row_at[row]] = float(value)
                elif section == "BOUNDS":
                    j, val = col_at[fields[2]], float(fields[3]) if len(fields) > 3 else 0.0
                    lo, hi = lower[j], upper[j]
                    lower[j], upper[j] = {"UP": (lo, val), "LO": (val, hi), "FX": (val, val),
                                          "FR": (-np.inf, np.inf), "MI": (-np.inf, hi),
                                          "PL": (lo, np.inf)}[fields[0].upper()]
            except KeyError as exc:  # a row or column the file never declared, or a bound kind
                raise fail(f"unknown name {exc.args[0]} in {section}") from None
            except (IndexError, ValueError):
                raise fail(f"cannot read {line.strip()!r}") from None

    # L: rhs - |R| <= a.x <= rhs;  G: rhs <= a.x <= rhs + |R|;  E: a.x = rhs, or with
    # a range R, a.x between rhs and rhs + R (MPS: [rhs, rhs + R] if R > 0, else [rhs + R, rhs])
    sense, b, r = np.array(senses, "U1"), np.zeros(len(senses)), np.full(len(senses), np.nan)
    b[list(rhs)], r[list(ranges)] = list(rhs.values()), list(ranges.values())
    width = np.where(np.isnan(r), np.inf, np.abs(r))
    row_lo = np.where(sense == "L", b - width, np.where((sense == "E") & (r < 0), b + r, b))
    row_hi = np.where(sense == "G", b + width, np.where((sense == "E") & (r >= 0), b + r, b))
    indptr = np.array([*starts, len(rows)], dtype=np.int32)
    indices, data = np.asarray(rows, dtype=np.int32), np.asarray(coefs)
    # a file may list a column's rows in any order; HiGHS gets them in
    # increasing order, as scipy's CSC conversion gave them to milp
    order = np.lexsort((indices, np.repeat(np.arange(len(cost), dtype=np.int32), np.diff(indptr))))
    return MpsModel(
        list(row_at), list(col_at), np.array(cost), indptr, indices[order], data[order],
        row_lo, row_hi, np.array(lower), np.array(upper), np.array(integer, dtype=bool),
    )


@dataclass(frozen=True)
class HighsResult:
    """HiGHS's answer: the solution-file status, with the objective ``fun``
    and the primal ``x`` when the status is ``optimal``."""

    status: str
    fun: Optional[float] = None
    x: Optional[np.ndarray] = None


def scipy_extension(name: str):
    """Return scipy's compiled extension module ``name``, such as
    ``"scipy.sparse._sparsetools"``, without running the ``__init__.py`` of
    any package above it.

    The extension is found in its package's directory in scipy's install
    (``scipy/sparse`` for ``scipy.sparse._sparsetools``; ``find_spec``
    locates scipy without importing it) and executed.  As the import
    system does, it is registered in :data:`sys.modules` under ``name``
    before it runs, so a later import of the package above it finds it
    there and uses this module rather than loading the extension again.
    The import system does not then set it as an attribute of that
    package: ``from scipy.sparse import _sparsetools`` finds it, the
    attribute ``scipy.sparse._sparsetools`` does not.  A copy that scipy
    already loaded is returned as it is.
    """
    module = sys.modules.get(name)
    if module is None:
        from importlib.machinery import PathFinder
        from importlib.util import find_spec, module_from_spec

        scipy_dir = find_spec("scipy").submodule_search_locations[0]
        package = name.rpartition(".")[0].split(".")[1:]
        spec = PathFinder.find_spec(name, [os.path.join(scipy_dir, *package)])
        module = module_from_spec(spec)
        sys.modules[name] = module
        try:
            spec.loader.exec_module(module)
        except BaseException:
            del sys.modules[name]
            raise
    return module


def highs_core():
    """Return scipy's bundled HiGHS extension, ``scipy.optimize._highspy._core``,
    loaded by :func:`scipy_extension`: ``scipy/optimize/__init__.py``, whose
    imports cost a fresh interpreter about half a second, never runs."""
    return scipy_extension("scipy.optimize._highspy._core")


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


def solve(path: str) -> tuple[MpsModel, HighsResult]:
    """Parse the MPS file at ``path`` and solve it with HiGHS.

    The rows go to HiGHS as one sparse matrix with per-row bounds, through
    the calls :func:`scipy.optimize.milp` makes, with every column
    continuous: marked integer columns are relaxed.  A file with no columns
    is not passed to HiGHS: it is optimal with objective 0 when every row
    admits 0, else infeasible.  Returns the parsed file and HiGHS's answer.
    """
    a = parse_free_mps(path)
    if not a.col_names:
        # HiGHS calls such a model empty, not infeasible; every row reads 0
        feasible = bool(np.all((a.row_lo <= 0.0) & (a.row_hi >= 0.0)))
        return a, HighsResult("optimal" if feasible else "infeasible", 0.0, a.cost)
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
        return a, HighsResult(status)
    x = np.array(highs.getSolution().col_value)
    return a, HighsResult(status, highs.getInfo().objective_function_value, x)


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: highs_adapter <model.mps> <out.sol> [seed]", file=sys.stderr)
        return 2
    mps_path, out_path = argv[0], argv[1]
    try:
        model, result = solve(mps_path)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(f"status {result.status}\n")
        if result.status == "optimal":
            fh.write(f"obj {float(result.fun)!r}\n")
            for col, val in zip(model.col_names, result.x):
                fh.write(f"{col} {float(val)!r}\n")
    return 0


if __name__ == "__main__":
    import gc

    highs_core()  # loaded before the freeze, so it is frozen too

    gc.freeze()
    raise SystemExit(main(sys.argv[1:]))
