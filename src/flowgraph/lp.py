"""Sparse LP instance container, size accounting and format writers.

Model size is reported under a fixed counting convention: every limit is a
real row (single-variable capacity rows included), a two-sided range row
counts as two constraints, and nonzeros are coefficient entries with range
rows contributing their terms once.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field
from operator import itemgetter
from typing import IO, Iterable, Optional, Union

import numpy as np
import scipy.sparse as sp

from .errors import InvariantViolation, ParseError, UnknownVariableName

INF = math.inf


class VarRole(enum.Enum):
    FLOW = "flow"
    FLOW_ABOVE_MIN = "flow_above_min"
    INVEST = "invest"
    STORAGE_LEVEL = "storage_level"
    UNITS_ON = "units_on"
    VOLTAGE_ANGLE = "voltage_angle"


_ROLE_PREFIX = {
    VarRole.FLOW: "f",
    VarRole.FLOW_ABOVE_MIN: "fa",
    VarRole.INVEST: "i",
    VarRole.STORAGE_LEVEL: "s",
    VarRole.UNITS_ON: "u",
    VarRole.VOLTAGE_ANGLE: "th",
}


@dataclass
class VariableRef:
    """One LP column: a role, the entities it refers to, and bounds."""

    role: VarRole
    key: tuple[str, ...]
    timestep: Optional[int]  # None only for INVEST
    lower: float = 0.0
    upper: float = INF
    integrality: bool = False

    @property
    def name(self) -> str:
        head = "_".join((_ROLE_PREFIX[self.role], *self.key))
        return head if self.timestep is None else f"{head}_t{self.timestep}"

    def sort_key(self):
        return (self.role.value, self.key, self.timestep if self.timestep is not None else 0)


class RowFamily(enum.Enum):
    CONSUMER_BALANCE = "consumer_balance"
    STORAGE_BALANCE = "storage_balance"
    CONVERSION_BALANCE = "conversion_balance"
    NODE_BALANCE = "node_balance"
    TRANSPORT_BALANCE = "transport_balance"
    CAPACITY_LIMIT = "capacity_limit"
    CHARGING_LIMIT = "charging_limit"
    STORAGE_CAPACITY = "storage_capacity"
    FLOW_BOUND = "flow_bound"
    DC_ANGLE = "dc_angle"
    UC_MIN_OPER = "uc_min_oper"
    UC_LIMIT = "uc_limit"
    UC_MAX_ABOVE = "uc_max_above"


@dataclass
class ConstraintRow:
    """One LP row in coordinate form.

    ``rhs_low`` set makes this a range row ``rhs_low <= terms <= rhs``; only a
    ``<=`` row may have one.  Range rows count as two constraints in the size
    report.
    """

    family: RowFamily
    sense: str  # "<=", "=", ">="
    rhs: float
    terms: list[tuple[int, float]]
    name: str = ""
    rhs_low: Optional[float] = None

    @property
    def is_range(self) -> bool:
        return self.rhs_low is not None


@dataclass(frozen=True)
class ModelSize:
    n_vars: int
    n_constraints: int
    n_nonzeros: int

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.n_vars, self.n_constraints, self.n_nonzeros)


@dataclass(frozen=True)
class LpArrays:
    """Array view of an LP: minimize ``cost @ x`` subject to
    ``row_lo <= A @ x <= row_hi`` and ``col_lo <= x <= col_hi``.

    ``A`` is CSR, rows by columns, with each row's terms in emission order.
    """

    A: sp.csr_matrix
    row_lo: np.ndarray
    row_hi: np.ndarray
    col_lo: np.ndarray
    col_hi: np.ndarray
    cost: np.ndarray


def _row_bounds(row: ConstraintRow) -> tuple[float, float]:
    if row.sense == "<=":
        return (-INF if row.rhs_low is None else row.rhs_low), row.rhs
    if row.rhs_low is not None:
        raise InvariantViolation(f"row {row.name}: rhs_low on a {row.sense} row; ranges are <= rows")
    if row.sense == "=":
        return row.rhs, row.rhs
    if row.sense == ">=":
        return row.rhs, INF
    raise InvariantViolation(f"row {row.name}: unknown sense {row.sense}")


def _pairs(items: Iterable[tuple[float, float]]) -> np.ndarray:
    """``items`` as a (2, n) float array whose two rows are contiguous."""
    return np.fromiter(itertools.chain.from_iterable(items), float).reshape(-1, 2).T.copy()


#: rows checked, or columns written, per step: bounds the extra memory of
#: ``LpInstance.check`` and of ``write_mps``
_BLOCK = 512


def _flat_terms(rows: list[ConstraintRow]) -> tuple[np.ndarray, np.ndarray, list]:
    """Row index, column index and coefficient object of every term, row by row."""
    terms = [row.terms for row in rows]
    lengths = np.fromiter(map(len, terms), np.int64, len(terms))
    flat = list(itertools.chain.from_iterable(terms))
    cols = np.fromiter(map(itemgetter(0), flat), np.int64, len(flat))
    return np.repeat(np.arange(len(rows)), lengths), cols, list(map(itemgetter(1), flat))


@dataclass
class SolveResult:
    status: str  # "optimal" | "infeasible" | "unbounded" | "iteration_limit"
    objective: Optional[float] = None
    primal: Optional[dict[str, float]] = None
    iterations: int = 0
    wall_time_s: float = 0.0
    # LU factorizations of the basis, the first one included (reference simplex)
    refactorizations: int = 0

    @property
    def is_optimal(self) -> bool:
        return self.status == "optimal"


@dataclass
class LpInstance:
    """Minimization LP with explicit rows and simple variable bounds."""

    name: str = "lp"
    variables: list[VariableRef] = field(default_factory=list)
    rows: list[ConstraintRow] = field(default_factory=list)
    objective: list[tuple[int, float]] = field(default_factory=list)

    def var_index(self) -> dict[str, int]:
        return {v.name: j for j, v in enumerate(self.variables)}

    def arrays(self) -> LpArrays:
        """The instance as one sparse matrix with row and column bounds.

        ``=`` rows get ``[rhs, rhs]``, ``<=`` rows ``[rhs_low or -inf, rhs]``
        and ``>=`` rows ``[rhs, inf]``.
        """
        n = len(self.variables)
        cols, coefs = _pairs(itertools.chain.from_iterable(row.terms for row in self.rows))
        indptr = np.cumsum([0] + [len(row.terms) for row in self.rows])
        A = sp.csr_matrix((coefs, cols.astype(np.int64), indptr), shape=(len(self.rows), n))
        row_lo, row_hi = _pairs(map(_row_bounds, self.rows))
        col_lo, col_hi = _pairs((v.lower, v.upper) for v in self.variables)
        cost = np.zeros(n)
        for j, coef in self.objective:
            cost[j] = coef
        return LpArrays(A, row_lo, row_hi, col_lo, col_hi, cost)

    def check(self) -> None:
        """Reject a malformed instance, naming its first offending row.

        A row needs a known sense, and ``rhs_low`` only on a ``<=`` row; each
        term needs a column index in range, a finite non-zero coefficient
        and a column no earlier term of its row uses.  Terms are checked as
        arrays, ``_BLOCK`` rows at a time.
        """
        rows, n = self.rows, len(self.variables)
        bad_row = next(
            (i for i, row in enumerate(rows)
             if row.sense != "<=" and (row.rhs_low is not None or row.sense not in _SENSE_TO_MPS)),
            len(rows),
        )
        for b in range(0, bad_row, _BLOCK):
            block = rows[b:min(b + _BLOCK, bad_row)]
            term_row, cols, coefs = _flat_terms(block)
            coefs = np.fromiter(coefs, float, len(coefs))
            out_of_range = (cols < 0) | (cols >= n)
            # a stable sort by (row, column) puts a repeated column right
            # after its first use in the row; clipping keeps keys distinct
            key = term_row * (n + 2) + np.clip(cols, -1, n)
            order = np.argsort(key, kind="stable")
            duplicate = np.zeros(len(cols), bool)
            duplicate[order[1:][key[order[1:]] == key[order[:-1]]]] = True
            bad = np.flatnonzero(out_of_range | duplicate | (coefs == 0.0) | ~np.isfinite(coefs))
            if bad.size:
                k = bad[0]
                row = block[term_row[k]]
                j, coef = row.terms[k - np.searchsorted(term_row, term_row[k])]
                if out_of_range[k]:
                    raise ParseError(f"row {row.name}: bad variable index {j}")
                if duplicate[k]:
                    raise ParseError(f"row {row.name}: duplicate term for column {j}")
                raise ParseError(f"row {row.name}: invalid coefficient {coef}")
        if bad_row < len(rows):
            _row_bounds(rows[bad_row])


def size_report(instance: LpInstance) -> ModelSize:
    """Variable/constraint/nonzero tallies under the published convention.

    Range rows count as two constraints.  Conservation rows on transport
    assets are part of the connection primitive in the published per-timestep
    size table, so they are excluded from the reported counts even though
    they are present in the LP (and in MPS output).
    """
    counted = [row for row in instance.rows if row.family is not RowFamily.TRANSPORT_BALANCE]
    n_cons = sum(2 if row.is_range else 1 for row in counted)
    n_nz = sum(len(row.terms) for row in counted)
    return ModelSize(len(instance.variables), n_cons, n_nz)


# -- MPS output ----------------------------------------------------------

_SENSE_TO_MPS = {"<=": "L", ">=": "G", "=": "E"}


def write_mps(instance: LpInstance, destination: Union[str, IO[str]]) -> None:
    """Write free-format MPS with deterministic ordering.

    Columns appear in variable order; a column lists its objective entry
    first, then its row entries in row order, and a column with no entry
    gets ``OBJ 0.0`` so that dimensions round-trip.  Range rows land in the
    RANGES section; integrality uses INTORG/INTEND markers.  The objective
    row is named OBJ.  Coefficients print with ``repr``.

    The COLUMNS section is written in blocks of ``_BLOCK`` columns, so
    the writer holds the text of one block at a time, never the whole file.
    """
    if isinstance(destination, str):
        with open(destination, "w", encoding="utf-8") as fh:
            write_mps(instance, fh)
        return
    out = destination
    rows, variables = instance.rows, instance.variables
    out.write(f"NAME {instance.name}\nROWS\n N OBJ\n")
    row_names = [row.name or f"R{i}" for i, row in enumerate(rows)]
    out.writelines(f" {_SENSE_TO_MPS[row.sense]} {rname}\n" for row, rname in zip(rows, row_names))

    # COLUMNS is one stream of entries sorted by column: the objective entry
    # (row -1) first, then the row entries; the sort is stable, so a
    # column's row entries stay in row order
    term_row, cols, coefs = _flat_terms(rows)
    obj = dict(instance.objective)
    listed = np.zeros(len(variables), bool)
    listed[cols] = True
    listed[list(obj)] = True
    empty = np.flatnonzero(~listed)
    coefs += [*obj.values(), *[0.0] * len(empty)]
    cols = np.concatenate([cols, np.fromiter(obj, np.int64, len(obj)), empty])
    term_row = np.concatenate([term_row, np.full(len(obj) + len(empty), -1)])
    del obj, listed, empty
    order = np.argsort(cols * (len(rows) + 1) + term_row, kind="stable")
    cols, term_row = cols[order], term_row[order] + 1
    entry_names = ["OBJ", *row_names]

    # blocks end every _BLOCK columns and wherever integrality changes
    integral = np.fromiter((var.integrality for var in variables), bool, len(variables))
    flips = (np.flatnonzero(integral[1:] != integral[:-1]) + 1).tolist()
    edges = sorted({*range(0, len(variables), _BLOCK), *flips, len(variables)})
    firsts = np.searchsorted(cols, edges).tolist()
    out.write("COLUMNS\n")
    in_int = False
    marker = 0
    for b, e, lo, hi in zip(edges, edges[1:], firsts, firsts[1:]):
        if integral[b] != in_int:
            in_int = not in_int
            out.write(f"    MARKER{marker} 'MARKER' '{'INTORG' if in_int else 'INTEND'}'\n")
            marker += 1
        heads = [f"    {var.name} " for var in variables[b:e]]
        entries = zip((cols[lo:hi] - b).tolist(), term_row[lo:hi].tolist(), order[lo:hi].tolist())
        out.writelines([f"{heads[j]}{entry_names[i]} {coefs[k]!r}\n" for j, i, k in entries])
    if in_int:
        out.write(f"    MARKER{marker} 'MARKER' 'INTEND'\n")

    out.write("RHS\n")
    out.writelines(
        f"    RHS {rname} {row.rhs!r}\n" for rname, row in zip(row_names, rows) if row.rhs != 0.0
    )
    if any(row.is_range for row in rows):
        out.write("RANGES\n")
        out.writelines(
            f"    RNG {rname} {row.rhs - row.rhs_low!r}\n"
            for rname, row in zip(row_names, rows) if row.is_range
        )

    out.write("BOUNDS\n")
    for var in variables:
        lo, up = var.lower, var.upper
        if lo == 0.0 and up == INF:
            continue
        if lo == up:
            out.write(f" FX BND {var.name} {lo!r}\n")
            continue
        if lo == -INF and up == INF:
            out.write(f" FR BND {var.name}\n")
            continue
        if lo == -INF:
            out.write(f" MI BND {var.name}\n")
        elif lo != 0.0:
            out.write(f" LO BND {var.name} {lo!r}\n")
        if up != INF:
            out.write(f" UP BND {var.name} {up!r}\n")
    out.write("ENDATA\n")


def mps_string(instance: LpInstance) -> str:
    import io

    buf = io.StringIO()
    write_mps(instance, buf)
    return buf.getvalue()


# -- solution files ------------------------------------------------------


def read_solution(path: str, instance: Optional[LpInstance] = None) -> SolveResult:
    """Parse the plain-text solution format (status / obj / name-value lines)."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise ParseError(f"{path}: empty solution file")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "status":
        raise ParseError(f"{path}: expected 'status <value>' on line 1")
    status = head[1].lower()
    if status not in ("optimal", "infeasible", "unbounded", "iteration_limit"):
        raise ParseError(f"{path}: unknown status {status!r}")
    result = SolveResult(status=status)
    rest = lines[1:]
    if rest and rest[0].startswith("obj"):
        parts = rest[0].split()
        if len(parts) != 2:
            raise ParseError(f"{path}: malformed objective line")
        result.objective = float(parts[1])
        rest = rest[1:]
    if status == "optimal":
        known = instance.var_index() if instance is not None else None
        primal: dict[str, float] = {}
        for ln in rest:
            parts = ln.split()
            if len(parts) != 2:
                raise ParseError(f"{path}: malformed value line {ln!r}")
            name, value = parts[0], float(parts[1])
            if known is not None and name not in known:
                raise UnknownVariableName(f"{path}: unknown variable {name!r}")
            primal[name] = value
        result.primal = primal
    return result


def write_solution(result: SolveResult, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"status {result.status}\n")
        if result.objective is not None:
            fh.write(f"obj {result.objective!r}\n")
        if result.primal:
            for name, value in result.primal.items():
                fh.write(f"{name} {value!r}\n")
