"""LP instance store, size accounting and format writers.

An :class:`LpInstance` is one columnar store that every consumer reads (size
report, MPS writer, checks, both solvers): minimize ``cost @ x`` subject to
``row_lo <= A @ x <= row_hi`` and ``lower <= x <= upper``.

- rows: CSR ``indptr``/``indices``/``data`` (float) in emission order, and
  per row the bounds ``row_lo`` and ``row_hi`` (``-inf``/``inf`` for none)
  and a ``family`` code (into :data:`FAMILIES`);
- columns: ``lower``, ``upper``, ``integral`` and the objective ``cost``;
- names, made on demand from per-block prefixes: ``"_".join((role prefix,
  *key))`` plus ``_t{t}`` for a column, a template prefix plus ``_t{t}``
  for a row.

Store arrays are read-only, and so are ``rows``, ``variables`` and
``objective``: tuples of frozen records, built on first read.
:func:`by_column` puts the rows' entries in column order, for the MPS writer
and the simplex.

Only MPS has row senses: the writer derives a row's sense, right-hand side
and range from its bounds (see :func:`_senses`).

Model size is reported under a fixed counting convention: every limit is a
real row (single-variable capacity rows included), a two-sided range row
counts as two constraints, and nonzeros are coefficient entries with range
rows contributing their terms once.
"""

from __future__ import annotations

import enum
import io
import math
from dataclasses import dataclass
from typing import IO, Optional, Sequence, Union

import numpy as np

from .errors import InvariantViolation, ParseError, UnknownVariableName
from .highs_adapter import write_solution_file

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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class ConstraintRow:
    """One LP row ``lo <= terms <= hi`` in coordinate form, bounded as the
    store bounds it (``-inf``/``inf`` for none); ``terms`` is kept as a tuple.

    A row with two finite bounds that differ is a range row; it counts as two
    constraints in the size report.
    """

    family: RowFamily
    lo: float
    hi: float
    terms: tuple[tuple[int, float], ...]
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))


@dataclass(frozen=True)
class ModelSize:
    n_vars: int
    n_constraints: int
    n_nonzeros: int

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.n_vars, self.n_constraints, self.n_nonzeros)


#: terms :meth:`LpInstance.check` reads per step: bounds its extra memory
_CHECK_TERMS = 1 << 14

#: the table that row ``family`` codes index
FAMILIES = tuple(RowFamily)


def by_column(indptr: np.ndarray, indices: np.ndarray, n: int):
    """The entries of CSR rows ``indptr``/``indices`` over ``n`` columns, in
    column order: ``(colptr, by_col, row_of)``.  Column ``j`` holds entries
    ``colptr[j]`` to ``colptr[j + 1]``; entry ``k`` is row-ordered entry
    ``by_col[k]``, in row ``row_of[k]``.  ``colptr`` and ``row_of`` are at
    ``intc``, as SuperLU takes them.  The sort is stable, so each column's
    rows increase, as scipy's ``tocsc`` gives them."""
    colptr = np.zeros(n + 1, np.intc)
    np.cumsum(np.bincount(indices, minlength=n), out=colptr[1:])
    by_col = np.argsort(indices, kind="stable")
    row_of = np.repeat(np.arange(len(indptr) - 1, dtype=np.intc), np.diff(indptr))[by_col]
    return colptr, by_col, row_of


def _ranged(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Whether each row with bounds ``lo`` and ``hi`` is a range row: both
    bounds finite and apart."""
    return np.isfinite(lo) & np.isfinite(hi) & (lo != hi)


class _Names:
    """The names of ``(heads, timesteps)`` blocks, made on demand.

    Blocks are timestep-major: name ``i`` of a block is ``heads[i %
    len(heads)]`` plus the suffix of timestep ``i // len(heads)``, which is
    ``_t{t}``, or nothing for a ``None`` timestep.  The table holds every
    head once and the suffix list of each distinct ``timesteps`` once.
    """

    def __init__(self, blocks):
        heads, suffixes, first = [], [], {}
        head_at, suffix_at, width, size = [], [], [], []
        for block_heads, steps in blocks:
            if steps not in first:
                first[steps] = len(suffixes)
                suffixes += ["" if t is None else f"_t{t}" for t in steps]
            head_at.append(len(heads))
            heads += block_heads
            suffix_at.append(first[steps])
            width.append(len(block_heads))
            size.append(len(block_heads) * len(steps))
        self.heads, self.suffixes = np.array(heads, object), np.array(suffixes, object)
        self.starts = np.cumsum([0, *size])
        self.head_at, self.suffix_at, self.width = (
            np.array(a, np.int64) for a in (head_at, suffix_at, width))

    def pieces(self, index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The heads and the suffixes of the names at ``index``, as object arrays."""
        k = np.searchsorted(self.starts, index, "right") - 1
        t, h = np.divmod(index - self.starts[k], self.width[k])
        return self.heads[self.head_at[k] + h], self.suffixes[self.suffix_at[k] + t]

    def take(self, index: np.ndarray) -> np.ndarray:
        """The names at ``index``, as an object array."""
        heads, suffixes = self.pieces(index)
        return heads + suffixes


def _view(build):
    """A read-only attribute that ``build`` computes on first read."""
    def get(self):
        if build.__name__ not in self._views:
            self._views[build.__name__] = build(self)
        return self._views[build.__name__]
    return property(get)


class LpInstance:
    """Minimization LP held as one columnar store (see the module docstring).

    ``LpInstance(name, variables, rows, objective)`` converts lists of
    :class:`VariableRef`, :class:`ConstraintRow` and ``(column,
    coefficient)`` pairs once, into arrays; row ``i`` with an empty name is
    named ``R{i}``.  It raises for an objective column out of range;
    :meth:`check` reports a malformed row.  The objective keeps the last
    coefficient given for a column.
    """

    def __init__(self, name: str = "lp", variables: Sequence[VariableRef] = (),
                 rows: Sequence[ConstraintRow] = (), objective=()):
        variables, rows = list(variables), list(rows)
        cost = np.zeros(len(variables))
        for j, coef in objective:
            if not 0 <= j < len(cost):
                raise ParseError(f"objective: bad variable index {j}")
            cost[j] = coef
        self._fill(
            name, indptr=np.cumsum([0, *(len(row.terms) for row in rows)]),
            indices=np.array([j for row in rows for j, _ in row.terms], np.int64),
            data=np.array([coef for row in rows for _, coef in row.terms], float),
            row_lo=np.array([row.lo for row in rows], float),
            row_hi=np.array([row.hi for row in rows], float),
            family=np.array([FAMILIES.index(row.family) for row in rows], np.int8),
            row_blocks=[([row.name or f"R{i}" for i, row in enumerate(rows)], (None,))],
            lower=np.array([v.lower for v in variables], float),
            upper=np.array([v.upper for v in variables], float),
            integral=np.array([v.integrality for v in variables], bool),
            col_blocks=[(v.role, v.key, (v.timestep,)) for v in variables], cost=cost,
        )

    @classmethod
    def from_store(cls, name: str, **store) -> "LpInstance":
        """An instance over a store given as keywords: the arrays the module
        docstring names, ``row_blocks`` as ``(name prefixes, timesteps)`` and
        ``col_blocks`` as ``(role, key, timesteps)``, in order (a ``None``
        timestep adds no suffix).  A missing or unknown keyword raises
        InvariantViolation naming it."""
        expected = cls().store().keys()  # the keys an empty instance holds
        missing, unknown = expected - store.keys(), store.keys() - expected
        if missing or unknown:
            raise InvariantViolation(f"{name}: store has no {min(missing)!r}" if missing
                                     else f"{name}: unknown store key {min(unknown)!r}")
        instance = cls.__new__(cls)
        instance._fill(name, **store)
        return instance

    def store(self) -> dict:
        """The keywords :meth:`from_store` takes to rebuild this instance."""
        return dict(self._store)

    def _fill(self, name: str, **store) -> None:
        for value in store.values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
        self._store = store
        self.__dict__.update(store, name=name, _views={})

    # -- names and record views --------------------------------------------

    def row_names(self) -> list[str]:
        return _Names(self.row_blocks).take(np.arange(len(self.row_lo))).tolist()

    def col_names(self) -> list[str]:
        return self._col_table().take(np.arange(len(self.lower))).tolist()

    def _col_table(self) -> _Names:
        return _Names([(("_".join((_ROLE_PREFIX[role], *key)),), steps)
                       for role, key, steps in self.col_blocks])

    def var_index(self) -> dict[str, int]:
        return {name: j for j, name in enumerate(self.col_names())}

    @_view
    def variables(self) -> tuple[VariableRef, ...]:
        ids = [(role, key, t) for role, key, steps in self.col_blocks for t in steps]
        return tuple(VariableRef(*ref, lo, up, integral) for ref, lo, up, integral in zip(
            ids, self.lower.tolist(), self.upper.tolist(), self.integral.tolist()))

    @_view
    def rows(self) -> tuple[ConstraintRow, ...]:
        pairs, ends = list(zip(self.indices.tolist(), self.data.tolist())), self.indptr.tolist()
        return tuple(map(
            ConstraintRow, [FAMILIES[c] for c in self.family.tolist()], self.row_lo.tolist(),
            self.row_hi.tolist(), [pairs[a:b] for a, b in zip(ends, ends[1:])],
            self.row_names()))

    @_view
    def objective(self) -> tuple[tuple[int, float], ...]:
        listed = np.flatnonzero(self.cost)
        return tuple(zip(listed.tolist(), self.cost[listed].tolist()))

    # -- checks ------------------------------------------------------------

    def check(self) -> None:
        """Reject a malformed instance, naming the first offending row or column.

        No row bound, column bound or cost may be NaN, no lower bound ``inf``
        or upper bound ``-inf``, which no value meets, and no cost infinite.
        Each term needs a column index in range, a finite non-zero
        coefficient and a column no earlier term of its row uses.  Terms are
        checked in blocks of whole rows, ``_CHECK_TERMS`` terms at most unless
        one row has more, so the extra memory does not grow with the
        instance.  A passed check is remembered, since the store is
        read-only, so a second call is free.
        """
        if "check" in self._views:
            return
        # each key with an infinity it may not hold, besides NaN
        for kind, keys, names in (
                ("row", (("row_lo", INF), ("row_hi", -INF)), self.row_names),
                ("column", (("lower", INF), ("upper", -INF), ("cost", INF), ("cost", -INF)),
                 self.col_names)):
            for key, wrong in keys:
                values = getattr(self, key)
                bad = np.flatnonzero(np.isnan(values) | (values == wrong))
                if bad.size:
                    value = values[bad[0]]
                    raise InvariantViolation(f"{kind} {names()[bad[0]]}: {key} is "
                                             f"{'NaN' if np.isnan(value) else value}")
        m, n, indptr = len(self.row_lo), len(self.lower), self.indptr
        start = 0
        while start < m:
            stop = int(np.searchsorted(indptr, indptr[start] + _CHECK_TERMS, "right")) - 1
            stop = min(max(stop, start + 1), m)
            lo, hi = indptr[start], indptr[stop]
            cols, coefs = self.indices[lo:hi], self.data[lo:hi]
            term_row = np.repeat(np.arange(stop - start), np.diff(indptr[start:stop + 1]))
            out_of_range = (cols < 0) | (cols >= n)
            # a stable sort by (row, column) puts a repeated column right after
            # its first use in the row; clipping keeps keys distinct
            key = term_row * (n + 2) + np.clip(cols, -1, n)
            order = np.argsort(key, kind="stable")
            duplicate = np.zeros(len(cols), bool)
            duplicate[order[1:][key[order[1:]] == key[order[:-1]]]] = True
            bad = np.flatnonzero(out_of_range | duplicate | (coefs == 0.0) | ~np.isfinite(coefs))
            if bad.size:
                k = bad[0]
                name, j = self.row_names()[start + term_row[k]], cols[k]
                if out_of_range[k]:
                    raise ParseError(f"row {name}: bad variable index {j}")
                if duplicate[k]:
                    raise ParseError(f"row {name}: duplicate term for column {j}")
                raise ParseError(f"row {name}: invalid coefficient {float(coefs[k])}")
            start = stop
        self._views["check"] = True


#: the statuses a :class:`SolveResult` and a solution file may carry
STATUSES = ("optimal", "infeasible", "unbounded", "iteration_limit", "numerical_failure")


@dataclass
class SolveResult:
    """A solver's verdict on an :class:`LpInstance`.  ``primal``, ``None``
    unless the status is ``"optimal"``, is a read-only array of one value per
    column in column order; the instance's ``col_names()`` names them."""

    status: str  # one of STATUSES
    objective: Optional[float] = None
    primal: Optional[np.ndarray] = None
    iterations: int = 0
    wall_time_s: float = 0.0
    # set by the reference simplex only: LU factorizations of the basis, the
    # first one included; pivots of phase 1; pivots with a step of 0;
    # the number of the first pivot Bland's rule chose, if it did; rows and
    # columns its presolve removed
    refactorizations: int = 0
    phase1_iterations: int = 0
    degenerate_pivots: int = 0
    bland_from: Optional[int] = None
    rows_removed: int = 0
    cols_removed: int = 0

    @property
    def is_optimal(self) -> bool:
        return self.status == "optimal"


def size_report(instance: LpInstance) -> ModelSize:
    """Variable/constraint/nonzero tallies under the published convention.

    Range rows count as two constraints.  Conservation rows on transport
    assets are part of the connection primitive in the published per-timestep
    size table, so they are excluded from the reported counts even though
    they are present in the LP (and in MPS output).
    """
    counted = instance.family != FAMILIES.index(RowFamily.TRANSPORT_BALANCE)
    ranged = _ranged(instance.row_lo, instance.row_hi)
    n_cons = np.count_nonzero(counted) + np.count_nonzero(counted & ranged)
    indptr, transport = instance.indptr, np.flatnonzero(~counted)
    n_nz = indptr[-1] - (indptr[transport + 1] - indptr[transport]).sum()
    return ModelSize(len(instance.lower), int(n_cons), int(n_nz))


# -- MPS output ----------------------------------------------------------

#: lines written per step, about: bounds the extra memory of ``write_mps``
_BLOCK = 4096
_MPS_SENSE = np.array([" L ", " E ", " G "], object)


def _senses(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row with bounds ``lo`` and ``hi``: its MPS sense as an index into
    ``_MPS_SENSE`` (``E`` if ``lo == hi``, ``G`` if only ``lo`` is finite,
    else ``L``) and its right-hand side (``lo`` for ``G``, else ``hi``)."""
    ge = np.isfinite(lo) & ~np.isfinite(hi)
    return np.where(lo == hi, 1, np.where(ge, 2, 0)), np.where(ge, lo, hi)


def _text(values: np.ndarray, cache: dict) -> np.ndarray:
    """``" " + repr(value) + "\\n"`` for each float value, as an object array;
    each distinct bit pattern is formatted once per ``cache``."""
    bits, inverse = np.unique(np.ascontiguousarray(values).view(np.int64), return_inverse=True)
    return np.array([cache.get(key) or cache.setdefault(key, f" {value!r}\n") for key, value
                     in zip(bits.tolist(), bits.view(float).tolist())], object)[inverse]


def _joined(*pieces) -> str:
    """Lines made of ``pieces``, each an object array with one piece per
    line or a string every line shares, as one string."""
    lines = np.empty((max(len(p) for p in pieces if not isinstance(p, str)), len(pieces)), object)
    for k, piece in enumerate(pieces):
        lines[:, k] = piece
    return "".join(lines.ravel().tolist())


def _section(out: IO[str], head: str, edges: list[int], text) -> None:
    """Write ``head``, then ``text(lo, hi)`` for each block between ``edges``."""
    out.write(head)
    for lo, hi in zip(edges, edges[1:]):
        out.write(text(lo, hi))


def write_mps(instance: LpInstance, destination: Union[str, IO[str]]) -> None:
    """Write free-format MPS with deterministic ordering.

    Columns appear in variable order; a column lists its objective entry
    (a non-zero cost) first, then its row entries in row order, and a column
    with no entry gets ``OBJ 0.0`` so that dimensions round-trip.  Range
    rows land in the RANGES section; integrality uses INTORG/INTEND markers.
    The objective row is named OBJ.  Coefficients print with ``repr``.
    The instance is checked first (:meth:`LpInstance.check`).  A row with
    no finite bound, or whose bounds cross, has no MPS form that reads back
    as the same row, so it raises InvariantViolation naming it.

    Every section is written in blocks of about ``_BLOCK`` lines, so the
    writer holds the text of one block at a time, never the whole file.  Row
    and column names are made per block from the name heads and timestep
    suffixes; a row's head and suffix go into its line as two pieces,
    never joined into a name first.  Beyond one block, the heads and one string per distinct
    coefficient, the writer holds integer and boolean arrays, the largest
    a permutation that takes the row-ordered entries to column order; it
    and the row of each entry are released once COLUMNS is written.
    """
    instance.check()
    row_lo, row_hi = instance.row_lo, instance.row_hi
    free = (row_lo == -INF) & (row_hi == INF)
    bad = np.flatnonzero(free | (row_lo > row_hi))
    if bad.size:
        i, name = bad[0], _Names(instance.row_blocks).take(bad[:1])[0]
        why = "no finite bound" if free[i] else f"bounds cross ({row_lo[i]} > {row_hi[i]})"
        raise InvariantViolation(f"row {name}: {why}; MPS cannot carry it")
    if isinstance(destination, str):
        with open(destination, "w", encoding="utf-8") as fh:
            write_mps(instance, fh)
        return
    out, lp = destination, instance
    m, n = len(lp.row_lo), len(lp.lower)
    row_table, col_table = _Names(lp.row_blocks), lp._col_table()
    row_edges = [*range(0, m, _BLOCK), m]

    def senses(lo, hi):
        return _senses(lp.row_lo[lo:hi], lp.row_hi[lo:hi])

    def ranged(lo, hi):
        return _ranged(lp.row_lo[lo:hi], lp.row_hi[lo:hi])

    def rows(lo, hi):
        return _joined(_MPS_SENSE[senses(lo, hi)[0]], *row_table.pieces(np.arange(lo, hi)), "\n")

    _section(out, f"NAME {lp.name}\nROWS\n N OBJ\n", row_edges, rows)

    # a column's OBJ entry, a cost that is not zero or that of a column in
    # no row, comes before its row entries; + 0.0 writes a cost of -0.0 as 0.0
    colptr, by_col, row_of = by_column(lp.indptr, lp.indices, n)
    counts = np.diff(colptr)
    has_obj = (lp.cost != 0.0) | (counts == 0)
    # marker k sits before column turns[k], where integrality changes
    integral = np.concatenate([[False], lp.integral, [False]])
    turns = np.flatnonzero(integral[1:] != integral[:-1]).tolist()
    markers = {j: f"    MARKER{k} 'MARKER' '{'INTEND' if k % 2 else 'INTORG'}'\n"
               for k, j in enumerate(turns)}
    # a block starts at the column that holds line k * _BLOCK of the section
    # (a column has its entries and its OBJ line), and wherever integrality
    # changes, so it has at most _BLOCK lines beyond those of one column
    ends = np.cumsum(counts + has_obj)
    firsts = np.searchsorted(ends, np.arange(0, ends[-1] if n else 0, _BLOCK), "right")
    col_edges = sorted({*firsts.tolist(), *turns, n})
    coef_text: dict = {}

    def columns(lo, hi):
        obj = has_obj[lo:hi]
        lines = counts[lo:hi] + obj
        is_obj = np.zeros(int(lines.sum()), bool)
        is_obj[(np.cumsum(lines) - lines)[obj]] = True
        head, suffix = np.empty((2, len(is_obj)), object)
        value = np.empty(len(is_obj))
        head[is_obj], suffix[is_obj], value[is_obj] = "OBJ", "", lp.cost[lo:hi][obj] + 0.0
        head[~is_obj], suffix[~is_obj] = row_table.pieces(row_of[colptr[lo]:colptr[hi]])
        value[~is_obj] = lp.data[by_col[colptr[lo]:colptr[hi]]]
        cname = np.repeat("    " + col_table.take(np.arange(lo, hi)) + " ", lines)
        return markers.get(lo, "") + _joined(cname, head, suffix, _text(value, coef_text))

    _section(out, "COLUMNS\n", col_edges, columns)
    # RHS, RANGES and BOUNDS need neither the 12 bytes per nonzero nor the
    # coefficient strings
    del by_col, row_of, coef_text
    out.write(markers.get(n, ""))

    def rhs(lo, hi):
        value = senses(lo, hi)[1]
        given = np.flatnonzero(value != 0.0)
        return _joined("    RHS ", *row_table.pieces(lo + given), _text(value[given], {}))

    def ranges(lo, hi):
        which = np.flatnonzero(ranged(lo, hi))
        span = lp.row_hi[lo:hi][which] - lp.row_lo[lo:hi][which]
        return _joined("    RNG ", *row_table.pieces(lo + which), _text(span, {}))

    _section(out, "RHS\n", row_edges, rhs)
    if any(ranged(lo, hi).any() for lo, hi in zip(row_edges, row_edges[1:])):
        _section(out, "RANGES\n", row_edges, ranges)

    # each column has up to two BOUNDS lines: FX, FR, MI or LO, then UP
    def bounds(lo, hi):
        lower, upper = lp.lower[lo:hi], lp.upper[lo:hi]
        rest = (lower != 0.0) | (upper != INF)
        cname = np.empty(hi - lo, object)
        cname[rest] = col_table.take(lo + np.flatnonzero(rest))
        fixed = rest & (lower == upper)
        free = rest & ~fixed & (lower == -INF) & (upper == INF)
        rest &= ~fixed & ~free
        below = rest & (lower == -INF)
        above = rest & (lower != -INF) & (lower != 0.0)
        capped = rest & (upper != INF)
        lines = np.full((hi - lo, 2), "", object)
        lines[fixed, 0] = " FX BND " + cname[fixed] + _text(lower[fixed], {})
        lines[free, 0] = " FR BND " + cname[free] + "\n"
        lines[below, 0] = " MI BND " + cname[below] + "\n"
        lines[above, 0] = " LO BND " + cname[above] + _text(lower[above], {})
        lines[capped, 1] = " UP BND " + cname[capped] + _text(upper[capped], {})
        return "".join(lines.ravel().tolist())

    _section(out, "BOUNDS\n", col_edges, bounds)
    out.write("ENDATA\n")


def mps_string(instance: LpInstance) -> str:
    buf = io.StringIO()
    write_mps(instance, buf)
    return buf.getvalue()


# -- solution files ------------------------------------------------------


def _number(path: str, line: int, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ParseError(f"{path}:{line}: malformed number {text!r}") from None


def primal_objective(instance: LpInstance, primal: np.ndarray) -> float:
    """``instance.cost @ primal``, summed term by term in column order."""
    return float(sum((instance.cost * primal).tolist()))


def read_solution(path: str, instance: LpInstance) -> SolveResult:
    """Parse the plain-text solution format (status / obj / name-value lines)
    of a solve of ``instance`` into a column-ordered ``primal``: a column the
    file does not list is 0, a name no column has raises UnknownVariableName
    and a name listed twice ParseError.  The ``obj`` line is optional; an
    optimal file without one gets its primal's :func:`primal_objective`."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [(n, ln.strip()) for n, ln in enumerate(fh, 1) if ln.strip()]
    if not lines:
        raise ParseError(f"{path}: empty solution file")
    head = lines[0][1].split()
    if len(head) != 2 or head[0] != "status":
        raise ParseError(f"{path}: expected 'status <value>' on line 1")
    status = head[1].lower()
    if status not in STATUSES:
        raise ParseError(f"{path}: unknown status {status!r}")
    result = SolveResult(status=status)
    rest = lines[1:]
    if rest and rest[0][1].startswith("obj"):
        n, parts = rest[0][0], rest[0][1].split()
        if len(parts) != 2:
            raise ParseError(f"{path}:{n}: malformed objective line")
        result.objective = _number(path, n, parts[1])
        rest = rest[1:]
    if status == "optimal":
        index = instance.var_index()  # a fresh dict: a name read is marked -1
        primal = np.zeros(len(instance.lower))
        for n, ln in rest:
            parts = ln.split()
            if len(parts) != 2:
                raise ParseError(f"{path}:{n}: malformed value line {ln!r}")
            name, value = parts[0], _number(path, n, parts[1])
            j = index.get(name)
            if j is None:
                raise UnknownVariableName(f"{path}:{n}: unknown variable {name!r}")
            if j < 0:
                raise ParseError(f"{path}:{n}: variable {name!r} listed twice")
            primal[j], index[name] = value, -1
        primal.flags.writeable = False
        result.primal = primal
        if result.objective is None:
            result.objective = primal_objective(instance, primal)
    return result


def write_solution(result: SolveResult, path: str, instance: LpInstance) -> None:
    """Write ``result``, a solve of ``instance``, as :func:`read_solution` reads it."""
    primal = result.primal
    columns = () if primal is None else zip(instance.col_names(), primal.tolist(), strict=True)
    write_solution_file(path, result.status, result.objective, columns)
