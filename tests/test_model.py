"""Unit tests for the asset-graph model layer."""

import math

import pytest
from hypothesis import given, strategies as st

from flowgraph import (
    Approach,
    Asset,
    AssetKind,
    DcFlowParams,
    EnergySystem,
    FlowArc,
    HubAnnotation,
    RowFamily,
    build_model,
)
from flowgraph.errors import (
    DuplicateArc,
    DuplicateId,
    InvariantViolation,
    SelfLoop,
    UnknownAsset,
)


def small_system() -> EnergySystem:
    sy = EnergySystem(horizon_t=4)
    sy.add_asset(Asset(id="gen", kind=AssetKind.PRODUCER, capacity_mw=10.0))
    sy.add_asset(Asset(id="load", kind=AssetKind.CONSUMER, demand_profile=(1.0,) * 4))
    sy.add_flow(FlowArc("gen", "load"))
    return sy


class TestAssetInvariants:
    def test_storage_requires_energy_capacity(self):
        with pytest.raises(InvariantViolation):
            Asset(id="st", kind=AssetKind.STORAGE)

    def test_initial_storage_within_capacity(self):
        with pytest.raises(InvariantViolation):
            Asset(id="st", kind=AssetKind.STORAGE, storage_capacity_mwh=10.0,
                  initial_storage_mwh=11.0)

    def test_consumer_requires_demand(self):
        with pytest.raises(InvariantViolation):
            Asset(id="ld", kind=AssetKind.CONSUMER)

    def test_demand_on_producer_rejected(self):
        with pytest.raises(InvariantViolation):
            Asset(id="g", kind=AssetKind.PRODUCER, demand_profile=(1.0,))

    def test_availability_outside_unit_interval_rejected(self):
        with pytest.raises(InvariantViolation):
            Asset(id="g", kind=AssetKind.PRODUCER, availability_profile=(1.5,))

    def test_min_capacity_cannot_exceed_capacity(self):
        with pytest.raises(InvariantViolation):
            Asset(id="g", kind=AssetKind.PRODUCER, capacity_mw=5.0, min_capacity_mw=6.0)

    @pytest.mark.parametrize("fields, message", [
        (dict(kind=AssetKind.PRODUCER, capacity_mw=math.nan),
         "capacity_mw must be nonnegative"),
        (dict(kind=AssetKind.PRODUCER, min_capacity_mw=math.nan),
         "min_capacity_mw must be nonnegative"),
        (dict(kind=AssetKind.PRODUCER, invest_cost=math.nan),
         "invest_cost must be nonnegative"),
        (dict(kind=AssetKind.STORAGE, storage_capacity_mwh=math.nan),
         "storage_capacity_mwh must be nonnegative"),
        (dict(kind=AssetKind.STORAGE, storage_capacity_mwh=1.0, initial_storage_mwh=math.nan),
         "initial storage must be at most its capacity"),
        (dict(kind=AssetKind.PRODUCER, initial_storage_mwh=math.nan),
         "storage fields on a non-storage asset"),
        (dict(kind=AssetKind.CONSUMER, demand_profile=(1.0, math.nan)),
         "demand must be nonnegative"),
    ])
    def test_nan_rejected(self, fields, message):
        with pytest.raises(InvariantViolation) as err:
            Asset(id="x", **fields)
        assert str(err.value) == f"x: {message}"

    def test_negative_initial_storage_rejected(self):
        # the storage balance would start the level below zero
        with pytest.raises(InvariantViolation) as err:
            Asset(id="st", kind=AssetKind.STORAGE, storage_capacity_mwh=10.0,
                  initial_storage_mwh=-5.0, capacity_mw=5.0)
        assert str(err.value) == "st: initial_storage_mwh must be nonnegative"

    @given(st.floats(min_value=0.0, max_value=1.0, exclude_min=True))
    def test_efficiency_in_unit_interval_accepted(self, eta):
        asset = Asset(id="st", kind=AssetKind.STORAGE, storage_capacity_mwh=1.0,
                      eta_in=eta, eta_out=eta)
        assert asset.eta_in == eta

    def test_availability_tiles_beyond_profile_length(self):
        sy = EnergySystem(horizon_t=4)
        sy.add_asset(Asset(id="g", kind=AssetKind.PRODUCER, capacity_mw=10.0,
                           availability_profile=(0.25, 0.75)))
        sy.add_asset(Asset(id="d", kind=AssetKind.CONSUMER, demand_profile=(1.0,)))
        sy.add_flow(FlowArc("g", "d"))
        lp = build_model(sy, Approach.ONE_BB_1F)
        caps = [r.hi for r in lp.rows if r.family is RowFamily.CAPACITY_LIMIT]
        assert caps == [2.5, 7.5, 2.5, 7.5]


class TestFlowArc:
    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoop):
            FlowArc("a", "a")

    def test_backward_capacity_implies_two_sided(self):
        assert FlowArc("a", "b", max_bwd_mw=3.0).two_sided

    def test_dc_params_imply_two_sided(self):
        assert FlowArc("a", "b", dc_params=DcFlowParams(reactance_pu=0.1)).two_sided

    def test_explicit_two_sided_preserved_at_zero_backward(self):
        arc = FlowArc("a", "b", max_fwd_mw=5.0, two_sided=True)
        assert arc.two_sided and arc.max_bwd_mw == 0.0

    def test_negative_capacity_rejected(self):
        with pytest.raises(InvariantViolation):
            FlowArc("a", "b", max_fwd_mw=-1.0)

    @pytest.mark.parametrize("field", ["max_fwd_mw", "max_bwd_mw", "op_cost"])
    def test_nan_rejected(self, field):
        with pytest.raises(InvariantViolation, match=f"^{field} must be"):
            FlowArc("a", "b", **{field: math.nan})

    @pytest.mark.parametrize("field", ["reactance_pu", "s_base_mva"])
    def test_nan_dc_params_rejected(self, field):
        with pytest.raises(InvariantViolation, match=f"^{field} must be positive"):
            DcFlowParams(**{"reactance_pu": 0.1, field: math.nan})

    def test_infinite_backward_capacity_accepted(self):
        # the 2BB-1F lowering gives an uncapped node link this bound
        assert FlowArc("a", "b", max_bwd_mw=math.inf).max_bwd_mw == math.inf

    def test_susceptance(self):
        assert DcFlowParams(reactance_pu=0.5, s_base_mva=100.0).susceptance == 200.0


class TestEnergySystem:
    def test_duplicate_asset_rejected(self):
        sy = small_system()
        with pytest.raises(DuplicateId):
            sy.add_asset(Asset(id="gen", kind=AssetKind.PRODUCER))

    def test_arc_to_unknown_asset_rejected(self):
        sy = small_system()
        with pytest.raises(UnknownAsset):
            sy.add_flow(FlowArc("gen", "nowhere"))

    def test_duplicate_arc_rejected(self):
        sy = small_system()
        with pytest.raises(DuplicateArc):
            sy.add_flow(FlowArc("gen", "load"))

    def test_validate_clean_fixture(self):
        assert small_system().validate() == []

    def test_validate_is_pure(self):
        sy = small_system()
        del sy.arcs[("gen", "load")]  # leaves the consumer without an inflow
        assert sy.validate() == sy.validate()

    def test_consumer_without_inflow_flagged(self):
        sy = small_system()
        del sy.arcs[("gen", "load")]
        diags = sy.validate()
        assert any(d.entity == "load" and d.severity == "error" for d in diags)

    def test_hub_with_unknown_member_flagged(self):
        sy = small_system()
        sy.add_hub(HubAnnotation(id="h", member_ports=(("ghost", "in"),)))
        assert any(d.entity == "h" for d in sy.validate())

    def test_forbidden_route_outside_members_flagged(self):
        sy = small_system()
        sy.add_hub(HubAnnotation(id="h", member_ports=(("gen", "in"), ("load", "out")),
                                 forbidden_routes=(("gen", "ghost"),)))
        assert any(d.entity == "h" for d in sy.validate())

    def test_backward_capacity_needs_transportish_endpoint(self):
        sy = EnergySystem(horizon_t=1)
        sy.add_asset(Asset(id="a", kind=AssetKind.PRODUCER, capacity_mw=1.0))
        sy.add_asset(Asset(id="b", kind=AssetKind.PRODUCER, capacity_mw=1.0))
        sy.arcs[("a", "b")] = FlowArc("a", "b", max_bwd_mw=1.0)
        assert any("backward" in d.message for d in sy.validate())

    def test_forward_capped_dc_line_warned(self):
        sy = EnergySystem(horizon_t=1)
        for bus in ("a", "b", "c"):
            sy.add_asset(Asset(id=bus, kind=AssetKind.HUB, voltage_angle_enabled=True))
        sy.add_flow(FlowArc("a", "b", max_fwd_mw=50.0, dc_params=DcFlowParams(0.2)))
        sy.add_flow(FlowArc("b", "c", max_fwd_mw=50.0, max_bwd_mw=50.0,
                            dc_params=DcFlowParams(0.2)))
        sy.add_flow(FlowArc("a", "c", dc_params=DcFlowParams(0.2)))
        assert [(d.severity, d.entity) for d in sy.validate()] == [("warning", "('a', 'b')")]

    @given(
        n_assets=st.integers(min_value=2, max_value=6),
        pairs=st.lists(
            st.tuples(st.integers(0, 7), st.integers(0, 7)).filter(lambda p: p[0] != p[1]),
            max_size=20,
            unique=True,
        ),
    )
    def test_adjacency_matches_brute_force(self, n_assets, pairs):
        # ids 0..n_assets-1 are assets; higher ids are dangling endpoints
        sy = EnergySystem(horizon_t=1)
        for i in range(n_assets):
            sy.add_asset(Asset(id=f"a{i}", kind=AssetKind.CONVERSION))
        for u, v in pairs:
            sy.arcs[(f"a{u}", f"a{v}")] = FlowArc(f"a{u}", f"a{v}")
        ids = set(sy.assets) | {e for key in sy.arcs for e in key}
        brute = {
            i: (sorted(k for k in sy.arcs if k[1] == i), sorted(k for k in sy.arcs if k[0] == i))
            for i in ids
        }
        assert sy.adjacency() == brute
        dangling = {k for k in sy.arcs if not set(k) <= set(sy.assets)}
        reported = {d.entity for d in sy.validate() if "unknown asset" in d.message}
        assert reported == {f"{k}" for k in dangling}

    def test_hub_port_cap_lookup(self):
        hub = HubAnnotation(id="h", member_ports=(("a", "in"),),
                            port_caps=(("a", "in", 7.5),))
        assert hub.port_cap("a", "in") == 7.5
        assert hub.port_cap("a", "out") is None
