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
        parts = [_ROLE_PREFIX[self.role], *self.key]
        if self.timestep is not None:
            parts.append(f"t{self.timestep}")
        return "_".join(parts)

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

    ``rhs_low`` set makes this a range row ``rhs_low <= terms <= rhs``; range
    rows count as two constraints in the size report.
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
    if row.sense == "=":
        return row.rhs, row.rhs
    if row.sense == "<=":
        return (-INF if row.rhs_low is None else row.rhs_low), row.rhs
    if row.sense == ">=":
        return row.rhs, INF
    raise InvariantViolation(f"row {row.name}: unknown sense {row.sense}")


def _pairs(items: Iterable[tuple[float, float]]) -> np.ndarray:
    """``items`` as a (2, n) float array whose two rows are contiguous."""
    return np.fromiter(itertools.chain.from_iterable(items), float).reshape(-1, 2).T.copy()


@dataclass
class SolveResult:
    status: str  # "optimal" | "infeasible" | "unbounded" | "iteration_limit"
    objective: Optional[float] = None
    primal: Optional[dict[str, float]] = None
    iterations: int = 0
    wall_time_s: float = 0.0

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
        n = len(self.variables)
        for row in self.rows:
            seen = set()
            for j, coef in row.terms:
                if not (0 <= j < n):
                    raise ParseError(f"row {row.name}: bad variable index {j}")
                if j in seen:
                    raise ParseError(f"row {row.name}: duplicate term for column {j}")
                if coef == 0.0 or not math.isfinite(coef):
                    raise ParseError(f"row {row.name}: invalid coefficient {coef}")
                seen.add(j)


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

    Range rows land in the RANGES section; integrality uses INTORG/INTEND
    markers.  The objective row is named OBJ.
    """
    if isinstance(destination, str):
        with open(destination, "w", encoding="utf-8") as fh:
            write_mps(instance, fh)
        return
    out = destination
    out.write(f"NAME {instance.name}\n")
    out.write("ROWS\n")
    out.write(" N OBJ\n")
    row_names = []
    for i, row in enumerate(instance.rows):
        rname = row.name or f"R{i}"
        row_names.append(rname)
        out.write(f" {_SENSE_TO_MPS[row.sense]} {rname}\n")

    # column-major coefficient table
    obj = {j: c for j, c in instance.objective}
    col_entries: list[list[tuple[str, float]]] = [[] for _ in instance.variables]
    for rname, row in zip(row_names, instance.rows):
        for j, coef in row.terms:
            col_entries[j].append((rname, coef))

    out.write("COLUMNS\n")
    in_int = False
    marker = 0
    for j, var in enumerate(instance.variables):
        if var.integrality and not in_int:
            out.write(f"    MARKER{marker} 'MARKER' 'INTORG'\n")
            marker += 1
            in_int = True
        elif not var.integrality and in_int:
            out.write(f"    MARKER{marker} 'MARKER' 'INTEND'\n")
            marker += 1
            in_int = False
        entries = list(col_entries[j])
        if j in obj:
            entries.insert(0, ("OBJ", obj[j]))
        if not entries:
            # keep empty columns visible so dimensions round-trip
            entries.append(("OBJ", 0.0))
        for rname, coef in entries:
            out.write(f"    {var.name} {rname} {coef!r}\n")
    if in_int:
        out.write(f"    MARKER{marker} 'MARKER' 'INTEND'\n")

    out.write("RHS\n")
    for rname, row in zip(row_names, instance.rows):
        if row.rhs != 0.0:
            out.write(f"    RHS {rname} {row.rhs!r}\n")
    ranges = [(rname, row) for rname, row in zip(row_names, instance.rows) if row.is_range]
    if ranges:
        out.write("RANGES\n")
        for rname, row in ranges:
            out.write(f"    RNG {rname} {row.rhs - row.rhs_low!r}\n")

    out.write("BOUNDS\n")
    for var in instance.variables:
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
