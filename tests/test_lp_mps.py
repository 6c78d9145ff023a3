"""LP container, size-report convention, and MPS/solution round trips.

The MPS round trip pairs the writer in :mod:`flowgraph.lp` with the
independently written parser in :mod:`flowgraph.highs_adapter`, so the two
sides never share code.
"""

import math
import random
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flowgraph import (
    Approach,
    CaseSpec,
    ConstraintRow,
    LpInstance,
    RowFamily,
    SolveResult,
    VariableRef,
    VarRole,
    build_model,
    hybrid_fixture,
    mps_string,
    read_solution,
    scale_horizon,
    size_report,
    solve_reference,
    tri_area_case,
    write_mps,
    write_solution,
)
from flowgraph import lp as lp_module
from flowgraph.errors import InvariantViolation, ParseError, UnknownVariableName
from flowgraph.highs_adapter import parse_free_mps
from test_mps_digest import dc_uc_case, dc_uc_hub_case


def toy_parts() -> tuple[list, list, list]:
    """Variables, rows and objective of the toy LP, as lists to edit."""
    variables = [
        VariableRef(VarRole.FLOW, ("a", "b"), 1, lower=-2.0, upper=5.0),
        VariableRef(VarRole.INVEST, ("a",), None, upper=3.0),
        VariableRef(VarRole.UNITS_ON, ("a",), 1, upper=1.0, integrality=True),
    ]
    rows = [
        ConstraintRow(RowFamily.FLOW_BOUND, -2.0, 4.0, [(0, 1.0)], "r_up"),
        ConstraintRow(RowFamily.CONSUMER_BALANCE, 1.0, 1.0, [(0, 1.0), (1, 2.0)], "r_bal"),
    ]
    return variables, rows, [(0, 1.5), (1, 7.0)]


def toy_instance() -> LpInstance:
    return LpInstance("toy", *toy_parts())


class TestSizeReport:
    def test_range_row_counts_twice_nonzeros_once(self):
        size = size_report(toy_instance())
        assert size.n_constraints == 3  # range row 2 + equality 1
        assert size.n_nonzeros == 3  # 1 + 2

    def test_transport_rows_excluded(self):
        variables, rows, objective = toy_parts()
        rows.append(ConstraintRow(RowFamily.TRANSPORT_BALANCE, 0.0, 0.0,
                                  [(0, 1.0), (1, -1.0)], "r_tr"))
        lp = LpInstance("toy", variables, rows, objective)
        assert size_report(lp).n_constraints == 3

    def test_check_rejects_duplicate_terms(self):
        variables, rows, objective = toy_parts()
        rows[1] = replace(rows[1], terms=[(0, 1.0), (0, 2.0)])
        lp = LpInstance("toy", variables, rows, objective)
        with pytest.raises(ParseError):
            lp.check()

    def test_check_rejects_zero_coefficients(self):
        variables, rows, objective = toy_parts()
        rows[1] = replace(rows[1], terms=[(0, 0.0)])
        lp = LpInstance("toy", variables, rows, objective)
        with pytest.raises(ParseError):
            lp.check()

    def test_records_are_frozen(self):
        lp = toy_instance()
        with pytest.raises(AttributeError):
            lp.rows[1].terms = [(0, 0.0)]
        with pytest.raises(AttributeError):
            lp.rows[1].terms.append((2, 1.0))
        with pytest.raises(AttributeError):
            lp.variables[0].upper = 1.0
        with pytest.raises(AttributeError):
            lp.rows = []
        assert isinstance(lp.rows, tuple) and isinstance(lp.variables, tuple)


def reference_check(rows: list[ConstraintRow], n: int) -> None:
    """Row-by-row, term-by-term form of ``LpInstance.check`` on ``n`` columns
    and ``rows``: a NaN low bound in any row first, then a NaN high bound,
    then a bad term, in row order."""
    for key in ("lo", "hi"):
        for row in rows:
            if math.isnan(getattr(row, key)):
                raise InvariantViolation(f"row {row.name}: row_{key} is NaN")
    for row in rows:
        seen = set()
        for j, coef in row.terms:
            if not (0 <= j < n):
                raise ParseError(f"row {row.name}: bad variable index {j}")
            if j in seen:
                raise ParseError(f"row {row.name}: duplicate term for column {j}")
            if coef == 0.0 or not math.isfinite(coef):
                raise ParseError(f"row {row.name}: invalid coefficient {coef}")
            seen.add(j)


class TestCheck:
    @pytest.mark.parametrize("terms, message", [
        ([(1, 2.0), (-1, 1.0)], "bad variable index -1"),
        ([(3, 1.0)], "bad variable index 3"),
        ([(0, math.nan)], "invalid coefficient nan"),
        ([(0, math.inf)], "invalid coefficient inf"),
        ([(1, 2.0), (0, 0.0)], "invalid coefficient 0.0"),
        ([(0, 1.0), (1, 2.0), (0, 0.0)], "duplicate term for column 0"),
        ([(0, 1.0), (1, 0.0), (0, 2.0)], "invalid coefficient 0.0"),
    ])
    def test_first_bad_row_named(self, terms, message):
        variables, rows, objective = toy_parts()
        rows[1] = replace(rows[1], terms=terms)
        rows.append(ConstraintRow(RowFamily.FLOW_BOUND, -math.inf, 1.0, [(9, 0.0)], "r_later"))
        lp = LpInstance("toy", variables, rows, objective)
        with pytest.raises(ParseError) as err:
            lp.check()
        assert str(err.value) == f"row r_bal: {message}"

    def test_blocks_keep_the_first_defect(self, monkeypatch):
        # blocks of two terms: r_bad, a three-term row, is a block of its own
        # after six others
        monkeypatch.setattr(lp_module, "_CHECK_TERMS", 2)
        variables, rows, objective = toy_parts()
        rows += [ConstraintRow(RowFamily.FLOW_BOUND, -math.inf, 1.0, [(0, 1.0), (1, 1.0)],
                               f"r{i}") for i in range(4)]
        rows.append(ConstraintRow(RowFamily.FLOW_BOUND, -math.inf, 1.0,
                                  [(2, 1.0), (0, 1.0), (2, 2.0)], "r_bad"))
        with pytest.raises(ParseError) as err:
            LpInstance("toy", variables, rows, objective).check()
        assert str(err.value) == "row r_bad: duplicate term for column 2"

    @pytest.mark.parametrize("key, k, message", [
        ("row_lo", 0, "row r_up: row_lo is NaN"),
        ("row_hi", 1, "row r_bal: row_hi is NaN"),
        ("lower", 2, "column u_a_t1: lower is NaN"),
        ("cost", 1, "column i_a: cost is NaN"),
    ])
    def test_nan_bound_or_cost_named(self, key, k, message):
        store = toy_instance().store()
        store[key] = store[key].copy()
        store[key][k] = math.nan
        with pytest.raises(InvariantViolation) as err:
            LpInstance.from_store("toy", **store).check()
        assert str(err.value) == message

    @pytest.mark.parametrize("j", [3, 1, -1])
    def test_objective_column_out_of_range(self, j):
        with pytest.raises(ParseError) as err:
            LpInstance(variables=[VariableRef(VarRole.FLOW, ("a", "b"), 1)], objective=[(j, 2.0)])
        assert str(err.value) == f"objective: bad variable index {j}"

    def test_matches_reference_on_random_defects(self):
        # thousands of rows, so defects land in several check blocks
        rng = random.Random(5)
        n = 50
        for trial in range(40):
            variables = [VariableRef(VarRole.FLOW, ("a", "b"), t) for t in range(1, n + 1)]
            drafts = []  # rows to edit before they are frozen
            for i in range(rng.randint(1, 5000)):
                cols = rng.sample(range(n), rng.randint(0, 4))
                drafts.append(SimpleNamespace(lo=-math.inf, hi=1.0, name=f"r{i}",
                                              terms=[(j, rng.uniform(0.5, 2.0)) for j in cols]))
            for _ in range(rng.randint(0, 3)):
                row = rng.choice(drafts)
                kind = rng.randrange(6)
                if kind == 0:
                    row.terms.append((rng.choice([-1, n, n + 7]), 1.0))
                elif kind == 1 and row.terms:
                    row.terms.append((row.terms[0][0], 3.0))
                elif kind == 2:
                    row.terms.insert(0, (rng.randrange(n), rng.choice([0.0, math.nan, -math.inf])))
                elif kind == 3:
                    setattr(row, rng.choice(["lo", "hi"]), math.nan)
            rows = [ConstraintRow(RowFamily.FLOW_BOUND, r.lo, r.hi, r.terms, r.name)
                    for r in drafts]
            try:
                reference_check(rows, n)
                expected = None
            except (ParseError, InvariantViolation) as exc:
                expected = (type(exc), str(exc))
            try:
                LpInstance(variables=variables, rows=rows).check()
                got = None
            except (ParseError, InvariantViolation) as exc:
                got = (type(exc), str(exc))
            assert got == expected, trial


def test_store_holds_what_solvers_read():
    built = build_model(hybrid_fixture(), Approach.TWO_BB_2F)
    for lp in (built, toy_instance(), LpInstance.from_store("copy", **built.store())):
        assert set(lp.store()) == {"indptr", "indices", "data", "row_lo", "row_hi", "family",
                                   "lower", "upper", "integral", "cost", "row_blocks",
                                   "col_blocks"}
        assert lp.data.dtype == float and lp.cost.shape == lp.lower.shape
    A = built.matrix()
    assert A is built.matrix() and A.shape == (len(built.row_lo), len(built.lower))
    assert not (A.data.flags.writeable or A.indices.flags.writeable or A.indptr.flags.writeable)


def one_row_lp(lo: float, hi: float) -> LpInstance:
    return LpInstance("one", [VariableRef(VarRole.FLOW, ("a", "b"), 1, lower=-math.inf)],
                      [ConstraintRow(RowFamily.FLOW_BOUND, lo, hi, [(0, 1.0)], "r")])


finite = st.floats(allow_nan=False, allow_infinity=False)
record = st.tuples(finite | st.just(-math.inf), finite | st.just(math.inf)) | finite.map(
    lambda v: (v, v))


def bits(values) -> bytes:
    return np.array(values, float).tobytes()


class TestDerivedSenses:
    """MPS sense, right-hand side and range of a row, derived from its bounds."""

    def test_negative_zero_low_bound_stays_a_range(self):
        lp = one_row_lp(-0.0, 50.0)
        (row,) = lp.rows
        assert bits([row.lo, row.hi]) == bits([-0.0, 50.0])
        assert size_report(lp).n_constraints == 2
        assert " L r\n" in mps_string(lp) and "    RNG r 50.0\n" in mps_string(lp)
        # a two-sided flow with no backward cap has such a row
        built = build_model(scale_horizon(tri_area_case(CaseSpec()), 2), Approach.TWO_BB_2F)
        (row,) = [r for r in built.rows if r.name == "fb_AE_ME_t1"]
        assert math.copysign(1.0, row.lo) == -1.0 and 0.0 < row.hi < math.inf

    @pytest.mark.parametrize("hi, mps", [(math.inf, "G"), (-1.5, "E")], ids=[">=-G", "=-E"])
    def test_ge_and_eq_keep_their_sense(self, hi, mps):
        lp = one_row_lp(-1.5, hi)
        (row,) = lp.rows
        assert (row.lo, row.hi) == (-1.5, hi)
        assert size_report(lp).n_constraints == 1
        text = mps_string(lp)
        assert f" {mps} r\n" in text and "    RHS r -1.5\n" in text and "RANGES" not in text

    def test_row_with_no_finite_bound_is_le_inf(self):
        lp = one_row_lp(-math.inf, math.inf)
        (row,) = lp.rows
        assert (row.lo, row.hi) == (-math.inf, math.inf)
        text = mps_string(lp)
        assert " L r\n" in text and "    RHS r inf\n" in text and "RANGES" not in text

    @settings(max_examples=200, deadline=None)
    @given(st.lists(record, max_size=6))
    def test_records_round_trip(self, records):
        rows = [ConstraintRow(RowFamily.FLOW_BOUND, lo, hi, [(0, 1.0)], f"r{i}")
                for i, (lo, hi) in enumerate(records)]
        lp = LpInstance("trip", [VariableRef(VarRole.FLOW, ("a", "b"), 1)], rows)
        assert bits([(row.lo, row.hi) for row in lp.rows]) == bits(records)
        again = LpInstance("trip", lp.variables, lp.rows, lp.objective)
        assert again.row_lo.tobytes() == lp.row_lo.tobytes()
        assert again.row_hi.tobytes() == lp.row_hi.tobytes()
        assert LpInstance.from_store("trip", **again.store()).rows == lp.rows


def every_branch_instance() -> LpInstance:
    """Reaches every branch of the MPS writer: an unnamed row, integer
    markers mid-list and at the end, an empty column, objective entries,
    a range row, each bound kind and a column with entries from three rows.
    An int coefficient is written as a float, and a zero objective entry
    is not written."""
    variables = [
        VariableRef(VarRole.FLOW, ("a", "b"), 1, lower=-math.inf),
        VariableRef(VarRole.INVEST, ("a",), None, upper=3.0, integrality=True),
        VariableRef(VarRole.UNITS_ON, ("a",), 1, lower=2.0, upper=2.0, integrality=True),
        VariableRef(VarRole.STORAGE_LEVEL, ("s",), 1, lower=-math.inf, upper=5.0),
        VariableRef(VarRole.STORAGE_LEVEL, ("s",), 2, lower=1.5),
        VariableRef(VarRole.UNITS_ON, ("a",), 2, integrality=True),
    ]
    rows = [
        ConstraintRow(RowFamily.FLOW_BOUND, -2.5, 4.0, [(0, 1.0), (4, 5)], "r_rng"),
        ConstraintRow(RowFamily.CONSUMER_BALANCE, 0.0, 0.0, [(1, -0.25), (0, 2.0)], ""),
        ConstraintRow(RowFamily.UC_LIMIT, -1.0, math.inf, [(0, 0.1), (2, 1.0), (5, 3.0)],
                      "r_ge"),
    ]
    return LpInstance("every-branch", variables, rows, [(0, 1.5), (2, 7.0), (5, 0.0)])


EVERY_BRANCH_MPS = """\
NAME every-branch
ROWS
 N OBJ
 L r_rng
 E R1
 G r_ge
COLUMNS
    f_a_b_t1 OBJ 1.5
    f_a_b_t1 r_rng 1.0
    f_a_b_t1 R1 2.0
    f_a_b_t1 r_ge 0.1
    MARKER0 'MARKER' 'INTORG'
    i_a R1 -0.25
    u_a_t1 OBJ 7.0
    u_a_t1 r_ge 1.0
    MARKER1 'MARKER' 'INTEND'
    s_s_t1 OBJ 0.0
    s_s_t2 r_rng 5.0
    MARKER2 'MARKER' 'INTORG'
    u_a_t2 r_ge 3.0
    MARKER3 'MARKER' 'INTEND'
RHS
    RHS r_rng 4.0
    RHS r_ge -1.0
RANGES
    RNG r_rng 6.5
BOUNDS
 FR BND f_a_b_t1
 UP BND i_a 3.0
 FX BND u_a_t1 2.0
 MI BND s_s_t1
 UP BND s_s_t1 5.0
 LO BND s_s_t2 1.5
ENDATA
"""


def test_mps_text_every_branch():
    lp = every_branch_instance()
    lp.check()
    assert mps_string(lp) == EVERY_BRANCH_MPS


def hybrid_uc_case():
    """The hybrid fixture with its PV as a unit-commitment unit: its T
    integral ``units_on`` columns end the column order, so the integrality
    markers sit inside a block or on its edges as the block size varies."""
    system = hybrid_fixture()
    system.assets["pv"] = replace(system.assets["pv"], uc_enabled=True, min_capacity_mw=2.0)
    return system


def signed_zero_instance() -> LpInstance:
    """A cost of -0.0 on a column in no row (written ``OBJ 0.0``) and on one
    in a row (not written), a -0.0 right-hand side (not written) and a
    column fixed at -0.0 (written ``FX ... -0.0``)."""
    variables = [
        VariableRef(VarRole.FLOW, ("a", "b"), 1),
        VariableRef(VarRole.FLOW, ("a", "b"), 2),
        VariableRef(VarRole.INVEST, ("a",), None, lower=-0.0, upper=-0.0),
    ]
    rows = [ConstraintRow(RowFamily.FLOW_BOUND, -math.inf, -0.0, [(0, 1.0), (2, 2.0)], "r")]
    return LpInstance("signed-zero", variables, rows, [(0, -0.0), (1, -0.0)])


def block_cases():
    """``(id, instance)`` pairs whose MPS text must not depend on ``_BLOCK``."""
    for approach in Approach:
        yield f"hybrid-uc-{approach.value}", build_model(
            hybrid_uc_case(), approach, unit_commitment=True)
    yield "dc-uc-1BB-1F", build_model(
        dc_uc_case(), Approach.ONE_BB_1F, dc_opf=True, unit_commitment=True)
    for approach in (Approach.TWO_BB_2F, Approach.TWO_BB_1F):
        yield f"dc-uc-hubs-{approach.value}", build_model(
            dc_uc_hub_case(), approach, dc_opf=True, unit_commitment=True)
    yield "every-branch", every_branch_instance()
    yield "signed-zero", signed_zero_instance()


def test_signed_zeros_in_mps():
    text = mps_string(signed_zero_instance())
    assert "    f_a_b_t2 OBJ 0.0\n" in text and "f_a_b_t1 OBJ" not in text
    assert "RHS\nBOUNDS\n FX BND i_a -0.0\nENDATA\n" in text


@pytest.mark.parametrize("block", [1, 2, 7, 64])
def test_block_size_does_not_change_output(monkeypatch, block):
    default = {name: mps_string(lp) for name, lp in block_cases()}
    monkeypatch.setattr(lp_module, "_BLOCK", block)
    for name, lp in block_cases():
        assert mps_string(lp) == default[name], name


#: tracemalloc peak of write_mps at i1 3BB-4F, above the instance: measured
#: 3.6 MiB with blocks of 4096 lines, 16.0 MiB when COLUMNS was built whole
WRITE_PEAK_MIB = 5.0


def test_write_holds_one_block_of_text():
    class Discard:
        def write(self, text):
            pass

    lp = build_model(tri_area_case(CaseSpec(instance=1)), Approach.THREE_BB_4F)
    tracemalloc.start()
    try:
        write_mps(lp, Discard())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < WRITE_PEAK_MIB * 2**20


#: tracemalloc peak of size_report at i2 3BB-4F, per row: measured 4.9 B
#: from the bounds alone, 20.0 B with a sense, a right-hand side and a
#: length per row
SIZE_REPORT_PEAK_PER_ROW = 8


def test_size_report_holds_a_few_bytes_per_row():
    lp = build_model(tri_area_case(CaseSpec(instance=2)), Approach.THREE_BB_4F)
    tracemalloc.start()
    try:
        size_report(lp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < SIZE_REPORT_PEAK_PER_ROW * len(lp.row_lo)


def test_write_releases_column_order_after_columns():
    """RHS, RANGES and BOUNDS need no column-order permutation (8 bytes per
    nonzero) nor row of each entry (4 bytes per nonzero)."""
    samples = []

    class Sample:
        section = None

        def write(self, text):
            if text in ("COLUMNS\n", "RHS\n"):
                self.section = text
            samples.append((self.section, tracemalloc.get_traced_memory()[0]))

    lp = build_model(tri_area_case(CaseSpec(instance=1)), Approach.THREE_BB_4F)
    tracemalloc.start()
    try:
        write_mps(lp, Sample())
    finally:
        tracemalloc.stop()
    columns = max(live for section, live in samples if section == "COLUMNS\n")
    rhs = next(live for section, live in samples if section == "RHS\n")
    assert columns - rhs >= 12 * len(lp.data)


class TestMpsRoundTrip:
    def _round_trip(self, instance, tmp_path):
        path = tmp_path / "model.mps"
        write_mps(instance, str(path))
        return parse_free_mps(str(path))

    def test_toy_sections(self, tmp_path):
        parsed = self._round_trip(toy_instance(), tmp_path)
        assert parsed.objective_row == "OBJ"
        assert parsed.row_sense == {"r_up": "L", "r_bal": "E"}
        assert parsed.ranges == {"r_up": 6.0}
        assert parsed.lower["f_a_b_t1"] == -2.0
        assert parsed.upper["f_a_b_t1"] == 5.0
        assert parsed.integer == {"u_a_t1"}
        assert parsed.columns["i_a"]["OBJ"] == 7.0

    @pytest.mark.parametrize("approach", [Approach.TWO_BB_2F, Approach.ONE_BB_1F],
                             ids=lambda a: a.value)
    def test_counts_survive_round_trip(self, approach, tmp_path):
        instance = build_model(scale_horizon(tri_area_case(CaseSpec()), 6), approach)
        parsed = self._round_trip(instance, tmp_path)
        assert len(parsed.col_order) == len(instance.variables)
        assert len(parsed.row_order) == len(instance.rows)
        # COLUMNS also carries objective coefficients; exclude the OBJ row
        parsed_nnz = sum(1 for coefs in parsed.columns.values()
                         for row in coefs if row != parsed.objective_row)
        assert parsed_nnz == sum(len(r.terms) for r in instance.rows)

    def test_coefficients_survive_round_trip(self, tmp_path):
        instance = build_model(hybrid_fixture(), Approach.TWO_BB_1F)
        parsed = self._round_trip(instance, tmp_path)
        names = [v.name for v in instance.variables]
        for row, rname in zip(instance.rows, [r.name for r in instance.rows]):
            for j, coef in row.terms:
                assert parsed.columns[names[j]][rname] == coef
            rhs = parsed.rhs.get(rname, 0.0)
            assert rhs == (row.lo if parsed.row_sense[rname] == "G" else row.hi)

    def test_deterministic_output(self, tmp_path):
        instance = build_model(hybrid_fixture(), Approach.THREE_BB_4F)
        a, b = tmp_path / "a.mps", tmp_path / "b.mps"
        write_mps(instance, str(a))
        write_mps(instance, str(b))
        assert a.read_bytes() == b.read_bytes()


class TestSolutionFiles:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "out.sol")
        result = SolveResult(status="optimal", objective=42.5,
                             primal=np.array([1.25, 0.0, 0.5]))
        write_solution(result, path, toy_instance())
        back = read_solution(path, toy_instance())
        assert back.status == "optimal"
        assert back.objective == 42.5
        assert np.array_equal(back.primal, result.primal)

    def test_unknown_variable_rejected_with_instance(self, tmp_path):
        path = tmp_path / "out.sol"
        path.write_text("status optimal\nobj 0.0\nghost 1.0\n")
        with pytest.raises(UnknownVariableName):
            read_solution(str(path), toy_instance())

    def test_malformed_header_rejected(self, tmp_path):
        path = tmp_path / "bad.sol"
        path.write_text("objective 3\n")
        with pytest.raises(ParseError):
            read_solution(str(path), toy_instance())

    @pytest.mark.parametrize("line", ["f_a_b_t1 abc", "obj abc"])
    def test_malformed_number_names_file_and_line(self, tmp_path, line):
        path = tmp_path / "bad.sol"
        path.write_text(f"status optimal\n\n{line}\n")
        with pytest.raises(ParseError, match=r"bad\.sol:3: malformed number 'abc'"):
            read_solution(str(path), toy_instance())

    def test_infeasible_status_carries_no_primal(self, tmp_path):
        path = str(tmp_path / "inf.sol")
        write_solution(SolveResult(status="infeasible"), path, toy_instance())
        back = read_solution(path, toy_instance())
        assert back.status == "infeasible" and back.primal is None

    def test_solved_primal_round_trips(self, tmp_path):
        instance = build_model(hybrid_fixture(), Approach.ONE_BB_1F)
        result = solve_reference(instance)
        path = str(tmp_path / "out.sol")
        write_solution(result, path, instance)
        back = read_solution(path, instance)
        assert back.objective == result.objective
        assert np.array_equal(back.primal, result.primal)
        assert not back.primal.flags.writeable and not result.primal.flags.writeable

    def test_unlisted_column_reads_as_zero(self, tmp_path):
        path = tmp_path / "short.sol"
        path.write_text("status optimal\nobj 1.5\ni_a 2.0\n")
        assert read_solution(str(path), toy_instance()).primal.tolist() == [0.0, 2.0, 0.0]


def test_variable_names_are_unique():
    instance = build_model(scale_horizon(tri_area_case(CaseSpec()), 3),
                           Approach.THREE_BB_4F)
    names = [v.name for v in instance.variables]
    assert len(names) == len(set(names))
    assert all(math.isfinite(c) for _, c in instance.objective)
