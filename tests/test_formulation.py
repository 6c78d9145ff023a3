"""Lowering and model-building tests: per-timestep counts, node forms,
extension rows, and the invariant that every valid system lowers cleanly."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from flowgraph import (
    ALL_APPROACHES,
    Approach,
    Asset,
    AssetKind,
    CaseSpec,
    DcFlowParams,
    EnergySystem,
    FlowArc,
    HubAnnotation,
    build_model,
    hybrid_fixture,
    lower_to_node_form,
    scale_horizon,
    size_report,
    solve_reference,
    tri_area_case,
)
from flowgraph.errors import MissingAngleAsset, UnsupportedCombination
from flowgraph.formulation import _Builder
from flowgraph.lp import FAMILIES, RowFamily, VarRole
from conftest import against_highs
from test_lp_mps import hybrid_uc_case
from test_mps_digest import dc_uc_hub_case


def hybrid_t1():
    return scale_horizon(hybrid_fixture(), 1)


TABLE_1 = {
    Approach.THREE_BB_4F: (8, 11, 18),
    Approach.TWO_BB_2F: (6, 9, 16),
    Approach.TWO_BB_1F: (5, 9, 13),
}


class TestPublishedCounts:
    @pytest.mark.parametrize("approach,expected", sorted(TABLE_1.items(), key=str))
    def test_hybrid_t1_node_forms(self, approach, expected):
        assert size_report(build_model(hybrid_t1(), approach)).as_tuple() == expected

    def test_hybrid_t1_asset_to_asset(self):
        size = size_report(build_model(hybrid_t1(), Approach.ONE_BB_1F))
        assert (size.n_vars, size.n_constraints) == (4, 6)
        # 9 +/- 1: the forbidden-route bound is a single-coefficient row
        assert abs(size.n_nonzeros - 9) <= 1

    def test_empty_system(self):
        sy = EnergySystem(horizon_t=1)
        for approach in ALL_APPROACHES:
            assert size_report(build_model(sy, approach)).as_tuple() == (0, 0, 0)

    def test_unconnected_asset_gets_no_balance_row(self):
        sy = EnergySystem(horizon_t=2)
        sy.add_asset(Asset(id="p", kind=AssetKind.PRODUCER, capacity_mw=10.0))
        sy.add_asset(Asset(id="c", kind=AssetKind.CONSUMER, demand_profile=(1.0, 2.0)))
        sy.add_asset(Asset(id="x", kind=AssetKind.CONVERSION))
        sy.add_flow(FlowArc("p", "c", op_cost=1.0))
        instance = build_model(sy, Approach.ONE_BB_1F)
        assert size_report(instance).n_constraints == 4
        assert all(row.terms for row in instance.rows)


class TestLowering:
    def test_two_bb_2f_hybrid_arcs(self):
        lowered = lower_to_node_form(hybrid_fixture(), Approach.TWO_BB_2F)
        assert set(lowered.arcs) == {("bt", "cp"), ("pv", "cp"), ("ed", "cp"),
                                     ("cp", "bt"), ("cp", "ed")}
        assert lowered.assets["cp"].kind is AssetKind.HUB

    def test_two_bb_1f_hybrid_arcs(self):
        lowered = lower_to_node_form(hybrid_fixture(), Approach.TWO_BB_1F)
        assert len(lowered.arcs) == 4
        assert lowered.arcs[("cp", "ed")].two_sided

    def test_three_bb_4f_hybrid_structure(self):
        lowered = lower_to_node_form(hybrid_fixture(), Approach.THREE_BB_4F)
        kinds = {a.kind for a in lowered.assets.values()}
        assert AssetKind.TRANSPORT in kinds
        assert len(lowered.arcs) == 7

    def test_forbidden_route_becomes_zero_bound(self):
        # in the node form the battery may only be reached through the hub,
        # so the forbidden demand->battery route caps that flow at zero
        instance = build_model(hybrid_t1(), Approach.TWO_BB_2F)
        bounds = [r for r in instance.rows
                  if r.family is RowFamily.FLOW_BOUND and r.hi == 0.0]
        assert len(bounds) == 1
        # the asset-to-asset form has no such arc in the first place
        assert ("ed", "bt") not in hybrid_fixture().arcs

    def test_lowering_leaves_input_untouched(self):
        sy = hybrid_fixture()
        arcs_before = dict(sy.arcs)
        lower_to_node_form(sy, Approach.TWO_BB_2F)
        assert sy.arcs == arcs_before

    def test_every_valid_case_lowers_under_every_approach(self):
        for system in (hybrid_fixture(), scale_horizon(tri_area_case(CaseSpec()), 3)):
            assert system.validate() == []
            for approach in ALL_APPROACHES:
                build_model(system, approach).check()


class TestDeterminism:
    @pytest.mark.parametrize("approach", ALL_APPROACHES, ids=lambda a: a.value)
    def test_variable_order_is_sorted(self, approach):
        instance = build_model(hybrid_fixture(), approach)
        keys = [(v.role.value, v.key, v.timestep or 0) for v in instance.variables]
        assert keys == sorted(keys)

    def test_rebuild_is_identical(self):
        a = build_model(hybrid_fixture(), Approach.TWO_BB_2F)
        b = build_model(hybrid_fixture(), Approach.TWO_BB_2F)
        assert [v.name for v in a.variables] == [v.name for v in b.variables]
        assert [(r.name, r.terms, r.lo, r.hi) for r in a.rows] == \
               [(r.name, r.terms, r.lo, r.hi) for r in b.rows]


class TestBackwardCap:
    """A two-sided arc with no forward cap still honours its backward cap.

    c1 needs 10 MW: from q at 10 per MW, or from the cheap p through c2 and
    back over c1 -> c2, which carries at most ``max_bwd_mw`` backwards.
    """

    def _system(self, **arc_kw):
        sy = EnergySystem(horizon_t=1)
        sy.add_asset(Asset(id="p", kind=AssetKind.PRODUCER, capacity_mw=100.0))
        sy.add_asset(Asset(id="q", kind=AssetKind.PRODUCER, capacity_mw=100.0))
        sy.add_asset(Asset(id="c1", kind=AssetKind.CONSUMER, demand_profile=(10.0,)))
        sy.add_asset(Asset(id="c2", kind=AssetKind.CONSUMER, demand_profile=(0.0,)))
        sy.add_flow(FlowArc("p", "c2", op_cost=1.0))
        sy.add_flow(FlowArc("q", "c1", op_cost=10.0))
        sy.add_flow(FlowArc("c1", "c2", **arc_kw))
        return sy

    def test_backward_row_emitted(self):
        instance = build_model(self._system(max_bwd_mw=2.0), Approach.ONE_BB_1F)
        (row,) = [r for r in instance.rows if r.family is RowFamily.FLOW_BOUND]
        assert (row.name, row.lo, row.hi) == ("fb_c1_c2_t1", -2.0, math.inf)

    @pytest.mark.parametrize("approach", ALL_APPROACHES, ids=lambda a: a.value)
    def test_all_approaches_agree(self, approach):
        sy = self._system(max_bwd_mw=2.0)
        sy.add_hub(HubAnnotation(id="h1", member_ports=(("q", "in"), ("c1", "out"))))
        sy.add_hub(HubAnnotation(id="h2", member_ports=(("p", "in"), ("c2", "out"))))
        assert solve_reference(build_model(sy, approach)).objective == pytest.approx(82.0)

    def test_zero_backward_range_without_forward_cap(self):
        sy = self._system(two_sided=True)
        assert solve_reference(build_model(sy, Approach.ONE_BB_1F)).objective == pytest.approx(100.0)


class TestScaling:
    def test_constraints_affine_in_horizon(self):
        base = tri_area_case(CaseSpec())
        counts = {}
        for T in (2, 3, 5):
            instance = build_model(scale_horizon(base, T), Approach.TWO_BB_2F)
            counts[T] = size_report(instance).n_constraints
        slope = counts[3] - counts[2]
        assert counts[5] - counts[3] == 2 * slope

    def test_invest_variables_are_horizon_independent(self):
        base = tri_area_case(CaseSpec())
        for T in (1, 7):
            instance = build_model(scale_horizon(base, T), Approach.TWO_BB_2F)
            invest = [v for v in instance.variables if v.role is VarRole.INVEST]
            assert len(invest) == 12
            assert all(v.timestep is None for v in invest)


class TestExtensions:
    def _dc_pair(self):
        sy = EnergySystem(horizon_t=1)
        sy.add_asset(Asset(id="g", kind=AssetKind.PRODUCER, capacity_mw=5.0,
                           voltage_angle_enabled=True))
        sy.add_asset(Asset(id="d", kind=AssetKind.CONSUMER, demand_profile=(2.0,)))
        sy.add_flow(FlowArc("g", "d", dc_params=DcFlowParams(reactance_pu=0.2)))
        return sy

    def test_dc_opf_rejected_on_four_flow_connections(self):
        sy = self._dc_pair()
        with pytest.raises(UnsupportedCombination):
            build_model(sy, Approach.THREE_BB_4F, dc_opf=True)

    def test_dc_opf_missing_angle_asset(self):
        sy = self._dc_pair()
        sy.assets["d"] = Asset(id="d", kind=AssetKind.CONSUMER, demand_profile=(2.0,))
        with pytest.raises(MissingAngleAsset):
            build_model(sy, Approach.ONE_BB_1F, dc_opf=True)

    def test_dc_opf_emits_angle_rows(self):
        sy = self._dc_pair()
        sy.assets["d"] = Asset(id="d", kind=AssetKind.CONSUMER, demand_profile=(2.0,),
                               voltage_angle_enabled=True)
        instance = build_model(sy, Approach.ONE_BB_1F, dc_opf=True)
        assert any(r.family is RowFamily.DC_ANGLE for r in instance.rows)
        angles = [v for v in instance.variables if v.role is VarRole.VOLTAGE_ANGLE]
        assert len(angles) == 2
        reference = [v for v in angles if v.lower == v.upper == 0.0]
        assert len(reference) == 1  # exactly one reference bus

    @staticmethod
    def _dc_ring(b_to_c: bool):
        sy = EnergySystem(horizon_t=1)
        sy.add_asset(Asset(id="a", kind=AssetKind.PRODUCER, capacity_mw=10.0,
                           voltage_angle_enabled=True))
        for c, demand in (("b", 3.0), ("c", 2.0)):
            sy.add_asset(Asset(id=c, kind=AssetKind.CONSUMER, demand_profile=(demand,),
                               voltage_angle_enabled=True))
        sy.add_flow(FlowArc("a", "b", dc_params=DcFlowParams(0.2), op_cost=1.0))
        # the physical flow runs b -> c; the reversed arc carries it backwards
        u, v = ("b", "c") if b_to_c else ("c", "b")
        sy.add_flow(FlowArc(u, v, dc_params=DcFlowParams(0.25)))
        sy.add_flow(FlowArc("a", "c", dc_params=DcFlowParams(0.4), op_cost=1.0))
        return sy

    def test_uncapped_dc_line_is_free_both_ways(self):
        reversed_ring = build_model(self._dc_ring(b_to_c=False), Approach.ONE_BB_1F, dc_opf=True)
        assert not [r for r in reversed_ring.rows if r.family is RowFamily.FLOW_BOUND]
        result = solve_reference(reversed_ring)
        assert result.is_optimal
        assert result.primal[reversed_ring.var_index()["f_c_b_t1"]] < 0.0
        along = solve_reference(build_model(self._dc_ring(b_to_c=True), Approach.ONE_BB_1F, dc_opf=True))
        assert result.objective == pytest.approx(along.objective)

    @staticmethod
    def _dc_across_hubs():
        sy = EnergySystem(horizon_t=3)
        sy.add_asset(Asset(id="g", kind=AssetKind.PRODUCER, capacity_mw=5.0,
                           voltage_angle_enabled=True))
        sy.add_asset(Asset(id="d", kind=AssetKind.CONSUMER, demand_profile=(1.0, 2.0, 3.0),
                           voltage_angle_enabled=True))
        sy.add_hub(HubAnnotation("A", (("g", "in"),)))
        sy.add_hub(HubAnnotation("B", (("d", "out"),)))
        sy.add_flow(FlowArc("g", "d", dc_params=DcFlowParams(0.2), op_cost=1.0))
        return sy

    @pytest.mark.parametrize("approach", [Approach.TWO_BB_2F, Approach.TWO_BB_1F],
                             ids=lambda a: a.value)
    def test_dc_line_between_hubs_agrees_with_direct_form(self, approach):
        # the lowered hubs at either end of the DC link get voltage angles
        sy = self._dc_across_hubs()
        direct = solve_reference(build_model(sy, Approach.ONE_BB_1F, dc_opf=True))
        lowered = solve_reference(build_model(sy, approach, dc_opf=True))
        assert direct.objective == pytest.approx(6.0)
        assert lowered.objective == pytest.approx(direct.objective, abs=1e-9)
        with pytest.raises(UnsupportedCombination):
            build_model(sy, Approach.THREE_BB_4F, dc_opf=True)

    def test_unit_commitment_rows(self):
        sy = EnergySystem(horizon_t=2)
        sy.add_asset(Asset(id="g", kind=AssetKind.PRODUCER, capacity_mw=10.0,
                           min_capacity_mw=4.0, uc_enabled=True))
        sy.add_asset(Asset(id="d", kind=AssetKind.CONSUMER, demand_profile=(6.0, 6.0)))
        sy.add_flow(FlowArc("g", "d"))
        instance = build_model(sy, Approach.ONE_BB_1F, unit_commitment=True)
        families = {r.family for r in instance.rows}
        assert {RowFamily.UC_MIN_OPER, RowFamily.UC_LIMIT, RowFamily.UC_MAX_ABOVE} <= families
        units = [v for v in instance.variables if v.role is VarRole.UNITS_ON]
        assert len(units) == 2 and all(v.integrality for v in units)


def reference_rows(builder) -> dict:
    """The CSR row store of the builder's template groups, one term at a
    time: per group, per timestep, per template, per term, keeping exactly
    the terms of nonzero coefficient, a lagged term's being 0 at t=1."""
    indptr, indices, data, family, row_lo, row_hi = [0], [], [], [], [], []
    at = lambda value, t: value[t - 1] if np.ndim(value) else value  # noqa: E731
    for templates in builder.groups:
        for t in range(1, builder.T + 1):
            for tpl in templates:
                for q, (j, coef) in enumerate(tpl.terms):
                    value = 0.0 if t == 1 and q == tpl.lag_at else at(coef, t)
                    if value != 0:
                        indices.append(j if np.ndim(coef) else j + t - 1)
                        data.append(value)
                indptr.append(len(indices))
                family.append(FAMILIES.index(tpl.family))
                row_lo.append(at(tpl.lo, t))
                row_hi.append(at(tpl.hi, t))
    return {
        "indptr": np.array(indptr, np.int64), "indices": np.array(indices, np.int64),
        "data": np.array(data, float), "family": np.array(family, np.int8),
        "row_lo": np.array(row_lo, float), "row_hi": np.array(row_hi, float),
    }


def behind_hub(producer: Asset) -> EnergySystem:
    """``producer`` and a dearer backup serving one demand, all members of
    hub h, over T=4."""
    sy = EnergySystem(horizon_t=4, name=producer.id)
    sy.add_asset(producer)
    sy.add_asset(Asset(id="b", kind=AssetKind.PRODUCER, capacity_mw=20.0))
    sy.add_asset(Asset(id="d", kind=AssetKind.CONSUMER, demand_profile=(6.0, 3.0, 8.0, 5.0)))
    sy.add_flow(FlowArc(producer.id, "d", op_cost=1.0))
    sy.add_flow(FlowArc("b", "d", op_cost=9.0))
    sy.add_hub(HubAnnotation(id="h", member_ports=((producer.id, "in"), ("b", "in"),
                                                   ("d", "out"))))
    return sy


def zero_term_cases():
    """``(id, system, options)`` of valid systems whose templates hold a
    zero coefficient: a unit-commitment minimum of 0 (on ``units_on`` in
    ucm), a minimum equal to the capacity (in uca) and an investable
    producer with an hour of no availability (on ``invest`` in cap)."""
    uc = {"unit_commitment": True}
    gen = dict(id="g", kind=AssetKind.PRODUCER, capacity_mw=10.0, uc_enabled=True)
    yield "uc-min-0", behind_hub(Asset(**gen)), uc
    yield "uc-min-at-capacity", behind_hub(Asset(**gen, min_capacity_mw=10.0)), uc
    yield "invest-dark-hour", behind_hub(Asset(
        id="pv", kind=AssetKind.PRODUCER, capacity_mw=4.0, initial_units=0, investable=True,
        invest_limit=3, invest_cost=2.0, availability_profile=(0.0, 0.5, 1.0, 0.25))), {}


@pytest.mark.parametrize("approach", ALL_APPROACHES, ids=lambda a: a.value)
@pytest.mark.parametrize("system,options", [case[1:] for case in zero_term_cases()],
                         ids=[case[0] for case in zero_term_cases()])
def test_zero_coefficients_leave_their_terms_out(system, options, approach, tmp_path):
    lp = build_model(system, approach, **options)
    assert np.all(lp.data != 0)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", ".*integrality marks relaxed", UserWarning)
        assert against_highs(lp, str(tmp_path / "lp.mps"))[2] == []


def fill_cases():
    """``(id, system, approach, options)`` of every case the fill must match."""
    for approach in ALL_APPROACHES:
        for name, system, options in zero_term_cases():
            yield f"{name}-{approach.value}", system, approach, options
        yield f"hybrid-{approach.value}", hybrid_fixture(), approach, {}
        for T in (1, 2, 24):
            system = scale_horizon(tri_area_case(CaseSpec()), T)
            yield f"tri-area-T{T}-{approach.value}", system, approach, {}
        yield (f"hybrid-uc-{approach.value}", hybrid_uc_case(), approach,
               {"unit_commitment": True})
        if approach is not Approach.THREE_BB_4F:  # DC flow needs no four-flow links
            yield (f"dc-uc-hubs-{approach.value}", dc_uc_hub_case(), approach,
                   {"dc_opf": True, "unit_commitment": True})


@pytest.mark.parametrize("system,approach,options",
                         [case[1:] for case in fill_cases()],
                         ids=[case[0] for case in fill_cases()])
def test_fill_matches_row_by_row_reference(system, approach, options):
    instance = build_model(system, approach, **options)
    builder = _Builder(lower_to_node_form(system, approach), options.get("dc_opf", False),
                       options.get("unit_commitment", False))
    builder.build()
    for key, expected in reference_rows(builder).items():
        actual = getattr(instance, key)
        assert actual.dtype == expected.dtype, key
        np.testing.assert_array_equal(actual, expected, err_msg=key)


#: tracemalloc peak of build_model at i2 3BB-4F over the bytes of its store:
#: 1.11 when rows are written in place, 1.97 when each group's rows were
#: concatenated at the end
BUILD_PEAK_RATIO = 1.3


def test_build_holds_its_rows_once():
    system = tri_area_case(CaseSpec(instance=2))
    tracemalloc.start()
    try:
        instance = build_model(system, Approach.THREE_BB_4F)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    store = sum(v.nbytes for v in instance.store().values() if isinstance(v, np.ndarray))
    assert peak <= BUILD_PEAK_RATIO * store
