"""External-solver adapter: free-format MPS in, normalized solution out.

Runs as a subprocess (``python -m flowgraph.highs_adapter model.mps out.sol
[seed]``) so the reference simplex can be cross-checked against an
unrelated engine (scipy's HiGHS).  The seed is accepted, as a solver spec
may pass one, and never read: HiGHS takes the same path at every seed.
The MPS parser here is written from the format description and shares no
code with the writer in :mod:`.lp`, so the write/parse round trip
exercises two genuinely different routes.  It reads the file once,
straight into the typed arrays and lists of :class:`MpsModel`, which
HiGHS's sequence setters take, so memory grows with the nonzeros, not
with rows times columns.  HiGHS is scipy's bundled extension, driven
directly (:func:`highs_core`), so a child never imports
``scipy.optimize``, ``scipy.sparse`` or numpy.  The one loader of such
extensions, :func:`scipy_extension`, also serves the reference simplex.

The parser raises ``ParseError`` naming ``file:line``, rather than solve
another LP, at a name it cannot resolve (a row missing from ROWS, a column
missing from COLUMNS, a row type, bound kind or section it does not know),
an RHS or RANGES entry on the objective row, a (column, row) entry given
twice, a row declared twice, a column split in two and a line it cannot
read.  The child then prints ``error: <message>`` to stderr and exits 1.

Run as a script, the child loads the extension and then calls
:func:`gc.freeze`, which moves everything imported so far into a generation
the collector never scans.  Otherwise the collections the interpreter runs
at exit walk the objects of every module imported so far: on the T=96
tri-area 3BB-4F file that teardown took 0.010 s of a 0.192 s child, and
0.003 s of 0.181 s with the imports frozen (medians of 20 runs).
:func:`solve` and :func:`main` do not freeze, because tests and the
benchmark's probes call them in process and must not change the host's
collector.  ``os._exit`` would skip teardown too, but also ``atexit``
handlers and finalizers.
"""

from __future__ import annotations

import os
import sys
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import ParseError


class MpsModel(NamedTuple):
    """A parsed MPS file as HiGHS takes it: minimize ``cost @ x`` subject to
    ``row_lo <= A x <= row_hi`` and ``col_lo <= x <= col_hi``, ``A`` in CSC
    form with each column's rows in increasing order, rows and columns in
    file order.  Numbers are ``array('d')`` (``array('i')`` for ``indptr``
    and ``indices``), the row bounds lists."""

    row_names: list
    col_names: list
    cost: Sequence[float]
    indptr: Sequence[int]
    indices: Sequence[int]
    data: Sequence[float]
    row_lo: list
    row_hi: list
    col_lo: Sequence[float]
    col_hi: Sequence[float]


# The adapter parses MPS itself because HiGHS would not stop where this
# parser does: HiGHS 1.12's readModel answered kOk or kWarning on 14 of the
# tests' 17 malformed files (all but an unknown row type, an unpaired field
# and a marker without its kind), so it would solve some other LP there.
def parse_free_mps(path: str) -> MpsModel:
    """Read the free-format MPS file at ``path`` in one pass; raise
    ParseError for a name it cannot resolve (see the module docstring)."""
    from array import array  # a shared library, loaded only by a process that parses

    inf = float("inf")
    row_at, col_at = {}, {}  # name -> index, in the order the file names them
    senses, rhs, ranges = [], {}, {}
    cost, lower, upper, starts = array("d"), array("d"), array("d"), array("i")
    rows, coefs = array("i"), array("d")
    section, objective, col, disordered = None, None, None, False

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
                    if fields[1] == "'MARKER'":  # INTORG or INTEND: every column is continuous
                        if len(fields) < 3:
                            raise IndexError  # a marker without its kind cannot be read
                        continue
                    if fields[0] != col:
                        col = fields[0]
                        if col in col_at:
                            raise fail(f"column {col} continues after another column")
                        col_at[col] = len(cost)
                        cost.append(0.0)
                        lower.append(0.0)
                        upper.append(inf)
                        starts.append(len(rows))
                        seen, last = set(), -1
                    for row, value in zip(fields[1::2], fields[2::2], strict=True):
                        if row in seen:
                            raise fail(f"column {col} names row {row} twice")
                        seen.add(row)
                        if row == objective:
                            cost[-1] = float(value)
                            continue
                        i = row_at[row]
                        coefs.append(float(value))
                        rows.append(i)
                        if i < last:
                            disordered = True
                        last = i
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
                                          "FR": (-inf, inf), "MI": (-inf, hi),
                                          "PL": (lo, inf)}[fields[0].upper()]
            except KeyError as exc:  # a row or column the file never declared, or a bound kind
                raise fail(f"unknown name {exc.args[0]} in {section}") from None
            except (IndexError, ValueError):
                raise fail(f"cannot read {line.strip()!r}") from None

    # L: rhs - |R| <= a.x <= rhs;  G: rhs <= a.x <= rhs + |R|;  E: a.x = rhs, or with
    # a range R, a.x between rhs and rhs + R (MPS: [rhs, rhs + R] if R > 0, else [rhs + R, rhs])
    row_lo, row_hi = [], []
    for i, sense in enumerate(senses):
        b, r = rhs.get(i, 0.0), ranges.get(i, float("nan"))
        width = abs(r) if r == r else inf  # a NaN range counts as none
        if sense == "L":
            lo, hi = b - width, b
        elif sense == "G":
            lo, hi = b, b + width
        else:
            lo, hi = b + r if r < 0 else b, b + r if r >= 0 else b
        row_lo.append(lo)
        row_hi.append(hi)
    starts.append(len(rows))
    if disordered:
        # a file may list a column's rows in any order; HiGHS gets them in
        # increasing order, as scipy's CSC conversion gave them to milp
        for s, e in zip(starts, starts[1:]):
            entries = sorted(zip(rows[s:e], coefs[s:e]))  # a column names a row once
            rows[s:e] = array("i", (i for i, _ in entries))
            coefs[s:e] = array("d", (v for _, v in entries))
    return MpsModel(list(row_at), list(col_at), cost, starts, rows, coefs,
                    row_lo, row_hi, lower, upper)


class HighsResult(NamedTuple):
    """HiGHS's answer: the solution-file status, with the objective ``fun``
    and the primal ``x`` (one value per column) when the status is
    ``optimal``."""

    status: str
    fun: Optional[float] = None
    x: Optional[Sequence[float]] = None


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


def _pass_lp(h, highs, a: MpsModel) -> bool:
    """Give ``a`` to ``highs`` as an LP with every column continuous; False
    when HiGHS rejects a column's bounds or the model."""
    error = h.HighsStatus.kError
    # the columns and their costs go in through calls that take Python
    # floats: HighsLp's col_cost_ setter and addVars accept lists and
    # array('d') but import numpy to convert them.  Nor can a HighsLp carry
    # the columns without their costs: given num_col_ and column bounds
    # only, passModel answered kError and a changeColCost after it died
    # with SIGSEGV (exit 139)
    if not all(highs.addVar(lo, hi) != error for lo, hi in zip(a.col_lo, a.col_hi)):
        return False
    for j, c in enumerate(a.cost):
        if c:
            highs.changeColCost(j, c)
    lp = highs.getLp()
    lp.num_row_ = lp.a_matrix_.num_row_ = len(a.row_lo)
    lp.a_matrix_.format_ = h.MatrixFormat.kColwise
    lp.a_matrix_.start_, lp.a_matrix_.index_, lp.a_matrix_.value_ = a.indptr, a.indices, a.data
    lp.row_lower_, lp.row_upper_ = a.row_lo, a.row_hi
    return highs.passModel(lp) != error


def solve(path: str) -> tuple[MpsModel, HighsResult]:
    """Parse the MPS file at ``path`` and solve it with HiGHS.

    The columns go to HiGHS one by one, with their bounds and nonzero
    costs, then the rows as one sparse matrix with per-row bounds, with
    every column continuous: marked integer columns are relaxed.  A file
    with no columns is not passed to HiGHS: it is optimal with objective 0
    when every row admits 0, else infeasible.  Returns the parsed file and
    HiGHS's answer.
    """
    a = parse_free_mps(path)
    if not a.col_names:
        # HiGHS calls such a model empty, not infeasible; every row reads 0
        feasible = all(lo <= 0.0 <= hi for lo, hi in zip(a.row_lo, a.row_hi))
        return a, HighsResult("optimal", 0.0, []) if feasible else HighsResult("infeasible")
    h = highs_core()
    highs = h._Highs()
    highs.setOptionValue("log_to_console", False)
    status = status_label(h.HighsModelStatus.kModelError)  # unless HiGHS takes the LP
    if _pass_lp(h, highs, a):
        highs.run()
        status = status_label(highs.getModelStatus())
    if status != "optimal":
        return a, HighsResult(status)
    return a, HighsResult(status, highs.getInfo().objective_function_value,
                          highs.getSolution().col_value)


def write_solution_file(path: str, status: str, objective: Optional[float] = None,
                        columns: Iterable[tuple[str, float]] = ()) -> None:
    """The solution-file format's one writer, for the child and :func:`.lp.write_solution`:
    ``status <status>``, ``obj <objective>`` unless it is None and ``<name> <value>``
    per pair in ``columns``, to ``path``, numbers by ``repr``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"status {status}\n")
        if objective is not None:
            fh.write(f"obj {float(objective)!r}\n")
        fh.writelines(f"{name} {float(value)!r}\n" for name, value in columns)


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: highs_adapter <model.mps> <out.sol> [seed (not read)]", file=sys.stderr)
        return 2
    try:
        model, result = solve(argv[0])
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    write_solution_file(argv[1], result.status, result.fun, zip(model.col_names, result.x or ()))
    return 0


if __name__ == "__main__":
    import gc

    highs_core()  # loaded before the freeze, so it is frozen too

    gc.freeze()
    raise SystemExit(main(sys.argv[1:]))
