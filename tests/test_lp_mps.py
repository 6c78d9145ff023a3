"""LP container, size-report convention, and MPS/solution round trips.

The MPS round trip pairs the writer in :mod:`flowgraph.lp` with the
independently written parser in :mod:`flowgraph.highs_adapter`, so the two
sides never share code.
"""

import math

import pytest

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
    read_solution,
    scale_horizon,
    size_report,
    solve_reference,
    tri_area_case,
    write_mps,
    write_solution,
)
from flowgraph.errors import InvariantViolation, ParseError, UnknownVariableName
from flowgraph.highs_adapter import parse_free_mps


def toy_instance() -> LpInstance:
    lp = LpInstance(name="toy")
    lp.variables = [
        VariableRef(VarRole.FLOW, ("a", "b"), 1, lower=-2.0, upper=5.0),
        VariableRef(VarRole.INVEST, ("a",), None, upper=3.0),
        VariableRef(VarRole.UNITS_ON, ("a",), 1, upper=1.0, integrality=True),
    ]
    lp.rows = [
        ConstraintRow(RowFamily.FLOW_BOUND, "<=", 4.0, [(0, 1.0)], "r_up",
                      rhs_low=-2.0),
        ConstraintRow(RowFamily.CONSUMER_BALANCE, "=", 1.0,
                      [(0, 1.0), (1, 2.0)], "r_bal"),
    ]
    lp.objective = [(0, 1.5), (1, 7.0)]
    return lp


class TestSizeReport:
    def test_range_row_counts_twice_nonzeros_once(self):
        size = size_report(toy_instance())
        assert size.n_constraints == 3  # range row 2 + equality 1
        assert size.n_nonzeros == 3  # 1 + 2

    def test_transport_rows_excluded(self):
        lp = toy_instance()
        lp.rows.append(ConstraintRow(RowFamily.TRANSPORT_BALANCE, "=", 0.0,
                                     [(0, 1.0), (1, -1.0)], "r_tr"))
        assert size_report(lp).n_constraints == 3

    def test_check_rejects_duplicate_terms(self):
        lp = toy_instance()
        lp.rows[1].terms = [(0, 1.0), (0, 2.0)]
        with pytest.raises(ParseError):
            lp.check()

    def test_check_rejects_zero_coefficients(self):
        lp = toy_instance()
        lp.rows[1].terms = [(0, 0.0)]
        with pytest.raises(ParseError):
            lp.check()

    @pytest.mark.parametrize("sense", [">=", "="])
    def test_range_only_on_le_rows(self, sense):
        # x <= 10, minimize -x; as a >= row, MPS RANGES would read [1, 2]
        # while the arrays read [1, inf]
        lp = LpInstance()
        lp.variables = [VariableRef(VarRole.FLOW, ("a", "b"), 1, upper=10.0)]
        lp.rows = [ConstraintRow(RowFamily.FLOW_BOUND, sense, 1.0, [(0, 1.0)], "r0",
                                 rhs_low=0.0)]
        lp.objective = [(0, -1.0)]
        with pytest.raises(InvariantViolation):
            lp.check()
        with pytest.raises(InvariantViolation):
            solve_reference(lp)


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
            assert rhs == row.rhs

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
                             primal={"f_a_b_t1": 1.25, "i_a": 0.0})
        write_solution(result, path)
        back = read_solution(path)
        assert back.status == "optimal"
        assert back.objective == 42.5
        assert back.primal == result.primal

    def test_unknown_variable_rejected_with_instance(self, tmp_path):
        path = str(tmp_path / "out.sol")
        write_solution(SolveResult(status="optimal", objective=0.0,
                                   primal={"ghost": 1.0}), path)
        with pytest.raises(UnknownVariableName):
            read_solution(path, toy_instance())

    def test_malformed_header_rejected(self, tmp_path):
        path = tmp_path / "bad.sol"
        path.write_text("objective 3\n")
        with pytest.raises(ParseError):
            read_solution(str(path))

    def test_infeasible_status_carries_no_primal(self, tmp_path):
        path = str(tmp_path / "inf.sol")
        write_solution(SolveResult(status="infeasible"), path)
        back = read_solution(path)
        assert back.status == "infeasible" and back.primal is None


def test_variable_names_are_unique():
    instance = build_model(scale_horizon(tri_area_case(CaseSpec()), 3),
                           Approach.THREE_BB_4F)
    names = [v.name for v in instance.variables]
    assert len(names) == len(set(names))
    assert all(math.isfinite(c) for _, c in instance.objective)
