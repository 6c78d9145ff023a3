"""External-solver adapter: free-format MPS in, normalized solution out.

Runs as a subprocess (``python -m flowgraph.highs_adapter model.mps out.sol
[seed]``) so the reference simplex can be cross-checked against an
unrelated engine (scipy's HiGHS).  The MPS parser here is written from the
format description and shares no code with the writer in :mod:`.lp`, so
the write/parse round trip exercises two genuinely different routes.  The
parsed rows reach HiGHS as one sparse matrix with per-row bounds, so memory
grows with the nonzeros, not with rows times columns.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, OptimizeResult, milp
from scipy.sparse import coo_matrix


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


def solve(path: str):
    """Parse the MPS file at ``path`` and solve it with HiGHS.

    The rows go to :func:`scipy.optimize.milp` as one sparse matrix with
    per-row bounds.  No integrality is passed, so marked integer columns are
    relaxed.  A file with no columns is not passed to HiGHS: it is optimal
    with objective 0 when every row admits 0, else infeasible.  Returns the
    parsed file and scipy's result.
    """
    p = parse_free_mps(path)
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
    # L: rhs - |range| <= a.x <= rhs;  G: rhs <= a.x <= rhs + |range|;  E: a.x = rhs
    lo = np.empty(len(p.row_order))
    hi = np.empty(len(p.row_order))
    for i, name in enumerate(p.row_order):
        rhs = p.rhs.get(name, 0.0)
        width = abs(p.ranges[name]) if name in p.ranges else np.inf
        sense = p.row_sense[name]
        lo[i] = rhs - width if sense == "L" else rhs
        hi[i] = rhs + width if sense == "G" else rhs
    if not p.col_order:
        # milp rejects an empty cost vector; with no columns every row reads 0
        feasible = bool(np.all((lo <= 0.0) & (hi >= 0.0)))
        return p, OptimizeResult(status=0 if feasible else 2, fun=0.0, x=cost)
    rows, cols = np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64)
    A = coo_matrix((np.array(coefs, dtype=float), (rows, cols)), shape=(len(lo), len(cost)))
    bounds = Bounds(
        [p.lower.get(c, 0.0) for c in p.col_order],
        [p.upper.get(c, np.inf) for c in p.col_order],
    )
    result = milp(cost, constraints=LinearConstraint(A, lo, hi), bounds=bounds)
    return p, result


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: highs_adapter <model.mps> <out.sol> [seed]", file=sys.stderr)
        return 2
    mps_path, out_path = argv[0], argv[1]
    p, result = solve(mps_path)
    with open(out_path, "w", encoding="utf-8") as fh:
        if result.status == 0:
            fh.write("status optimal\n")
            fh.write(f"obj {float(result.fun)!r}\n")
            for col, val in zip(p.col_order, result.x):
                fh.write(f"{col} {float(val)!r}\n")
        elif result.status == 2:
            fh.write("status infeasible\n")
        elif result.status == 3:
            fh.write("status unbounded\n")
        else:
            fh.write("status iteration_limit\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
