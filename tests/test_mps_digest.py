"""Pinned MPS digests: the LP text every approach emits stays byte-identical.

A refactor of lowering or row emission must reproduce these exactly; a
change that is meant to alter the LP updates the pins in the same commit.
The same cases check that an LP rebuilt from its own record views is the
same LP.  The solution files the reference simplex gives for the same
cases are pinned the same way.
"""

import hashlib

import numpy as np
import pytest

from flowgraph import (
    Approach,
    ConstraintRow,
    Asset,
    AssetKind,
    CaseSpec,
    DcFlowParams,
    EnergySystem,
    FlowArc,
    HubAnnotation,
    LpInstance,
    VariableRef,
    build_model,
    hybrid_fixture,
    mps_string,
    scale_horizon,
    size_report,
    solve_reference,
    tri_area_case,
    write_mps,
    write_solution,
)

HYBRID = {
    "3BB-4F": "98d86c24abeba49ba07bd6cfd48cd11d5c187af9b1c9766d1cc2b9bec7cd6d74",
    "2BB-2F": "caff1f3b66fd85579b7a2b314e1df0e86c1554bad9c8a7cb526ddd0794cfff6d",
    "2BB-1F": "f217a8e19fc4b8f8dc200781fa727b61016de2c9e4ee1249631a946fbed7da7e",
    "1BB-1F": "a9c89997f2989de82fc0fbf08f8b2c7e3d5a3c2f842154fee0d8cce9d9a6e551",
}

TRI_AREA_T24 = {
    "3BB-4F": "8a849160ccce0ba3cc6947d2a913587f8887eff1c22732ee7e126f3043266dcb",
    "2BB-2F": "58f91ad46ef823cb218a0f49def8317d652662367579730625d4cea4542d57f3",
    "2BB-1F": "c2f4019f092d590218dc104e56172e6c0bbe951472c37ba995645e3aa3ce92a7",
    "1BB-1F": "91a88991623bce21b40caff589d75cba50b8c9e6790aa47794260e5bd55ca6e2",
}

# Re-pinned when pricing began to divide by the steepest-edge weights: the
# hybrid primals moved by at most 1.8e-15, and at tri-area T=24 the solver
# reaches another optimal vertex with the same objective.
SOLUTION_FILES = {
    ("hybrid", "3BB-4F"): "94fb2ebc6e020dd594f13571fb3fc8d7cb5f029ced8cff647a7df22f127d4de2",
    ("hybrid", "2BB-2F"): "739ab938b445bf2a5d1fb96fdf06f59e5dc8b85ce5aa6361e64eb876cc3f2134",
    ("hybrid", "2BB-1F"): "62db85783619fbabc7a803d17199c966ddfb79e15328978cca92bd46b2eee6cb",
    ("hybrid", "1BB-1F"): "ecace63b0f92a45f379d47b10d923fc82dd453d67be74ada4b1c721ba682a0e7",
    ("tri-area-t24", "3BB-4F"): "8830583bea976ff955430442d7654ed6cf04a884f0a7d212d94c9a8fe0a4fb01",
    ("tri-area-t24", "2BB-2F"): "593596fd525f2be1b6df08dc08146657efeac780746a1b02a3e2065301003c3a",
    ("tri-area-t24", "2BB-1F"): "d9a40df80921609f60d01049f2265bd3d07de403f83c43e536075bb7faed0436",
    ("tri-area-t24", "1BB-1F"): "373dc57f962da1ad5a533f83a38e42a0d9a57b16ae963f689284eeacf48fa5dc",
}

DC_UC_1BB_1F = "baec1ef6cbbe2bf60201b5886c9e637118f31fc62ac7669daab4fa355c09113c"

DC_UC_HUBS = {
    "2BB-2F": "f856e0556713a34e1c76910aa0580a6c554d94830af6509cd6eb23727e6df58f",
    "2BB-1F": "e7854a65f3374bf4d33c626351256eb7873ece659054539f41b23c6cda2d8678",
}

CASES = {
    "hybrid": (hybrid_fixture, HYBRID),
    "tri-area-t24": (lambda: scale_horizon(tri_area_case(CaseSpec()), 24), TRI_AREA_T24),
}


@pytest.mark.parametrize("approach", list(Approach), ids=lambda a: a.value)
@pytest.mark.parametrize("case", sorted(CASES))
def test_mps_digest_pinned(case, approach):
    make, pins = CASES[case]
    text = mps_string(build_model(make(), approach))
    assert hashlib.sha256(text.encode()).hexdigest() == pins[approach.value]


@pytest.mark.parametrize("approach", list(Approach), ids=lambda a: a.value)
@pytest.mark.parametrize("case", sorted(CASES))
def test_solution_file_digest_pinned(case, approach, tmp_path):
    make, _ = CASES[case]
    instance = build_model(make(), approach)
    result = solve_reference(instance)
    path = tmp_path / "model.sol"
    write_solution(result, str(path), instance)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == SOLUTION_FILES[case, approach.value]


def dc_uc_case() -> EnergySystem:
    """A DC ring with angle buses, investable UC producers and an investable
    storage at T=3, so angle rows, unit commitment rows, range rows and
    integer columns all reach the MPS text."""
    sy = EnergySystem(horizon_t=3, name="dc-uc")
    sy.add_asset(Asset(id="gen", kind=AssetKind.PRODUCER, capacity_mw=40.0,
                       min_capacity_mw=10.0, investable=True, invest_limit=2,
                       invest_cost=500.0, availability_profile=(1.0, 0.5, 0.8),
                       uc_enabled=True, voltage_angle_enabled=True))
    sy.add_asset(Asset(id="peak", kind=AssetKind.PRODUCER, capacity_mw=25.0,
                       min_capacity_mw=5.0, initial_units=2, uc_enabled=True))
    sy.add_asset(Asset(id="load_b", kind=AssetKind.CONSUMER,
                       demand_profile=(20.0, 30.0, 25.0), voltage_angle_enabled=True))
    sy.add_asset(Asset(id="load_c", kind=AssetKind.CONSUMER,
                       demand_profile=(10.0, 5.0, 15.0), voltage_angle_enabled=True))
    sy.add_asset(Asset(id="bat", kind=AssetKind.STORAGE, capacity_mw=10.0,
                       storage_capacity_mwh=20.0, initial_storage_mwh=5.0, eta_in=0.9,
                       eta_out=0.95, investable=True, invest_limit=3, invest_cost=100.0))
    sy.add_flow(FlowArc("gen", "load_b", dc_params=DcFlowParams(0.2), op_cost=1.0))
    sy.add_flow(FlowArc("load_b", "load_c", max_fwd_mw=15.0, max_bwd_mw=12.0,
                        dc_params=DcFlowParams(0.25)))
    sy.add_flow(FlowArc("gen", "load_c", dc_params=DcFlowParams(0.4), op_cost=1.5))
    sy.add_flow(FlowArc("peak", "load_b", max_bwd_mw=5.0, op_cost=8.0))
    sy.add_flow(FlowArc("load_c", "bat", max_fwd_mw=8.0))
    sy.add_flow(FlowArc("bat", "load_c", op_cost=0.1))
    return sy


def test_mps_digest_dc_uc():
    instance = build_model(dc_uc_case(), Approach.ONE_BB_1F, dc_opf=True, unit_commitment=True)
    text = mps_string(instance)
    assert hashlib.sha256(text.encode()).hexdigest() == DC_UC_1BB_1F


def dc_uc_hub_case() -> EnergySystem:
    """:func:`dc_uc_case` with three hubs and a wind producer, so the node
    forms lower hub links with a one-sided backward cap (a ``>=`` row in
    2BB-1F), with both caps (a range row), a port cap and a node-linked
    consumer with a forbidden route.  The DC lines stay direct arcs: a hub
    asset has no voltage angle."""
    sy = dc_uc_case()
    sy.name = "dc-uc-hubs"
    sy.add_asset(Asset(id="wind", kind=AssetKind.PRODUCER, capacity_mw=30.0,
                       availability_profile=(0.6, 0.9, 0.3)))
    sy.add_asset(Asset(id="load_d", kind=AssetKind.CONSUMER, demand_profile=(6.0, 8.0, 4.0)))
    sy.add_flow(FlowArc("wind", "load_d", max_fwd_mw=12.0, max_bwd_mw=6.0, op_cost=0.5))
    sy.add_hub(HubAnnotation("north", member_ports=(("peak", "in"),),
                             port_caps=(("peak", "in", 20.0),)))
    sy.add_hub(HubAnnotation(
        "south", member_ports=(("load_b", "out"), ("load_d", "in"), ("load_d", "out")),
        forbidden_routes=(("load_d", "load_b"),),
    ))
    sy.add_hub(HubAnnotation("west", member_ports=(("wind", "in"),)))
    return sy


@pytest.mark.parametrize("approach", [Approach.TWO_BB_2F, Approach.TWO_BB_1F],
                         ids=lambda a: a.value)
def test_mps_digest_dc_uc_node_forms(approach):
    instance = build_model(dc_uc_hub_case(), approach, dc_opf=True, unit_commitment=True)
    text = mps_string(instance)
    assert hashlib.sha256(text.encode()).hexdigest() == DC_UC_HUBS[approach.value]


def built_cases():
    """``(id, system factory, approach, build options)`` for every pinned case."""
    for approach in Approach:
        yield f"hybrid-{approach.value}", hybrid_fixture, approach, {}
        yield f"tri-area-t24-{approach.value}", CASES["tri-area-t24"][0], approach, {}
        # DC power flow is not defined on four-flow connections
        options = dict(dc_opf=approach is not Approach.THREE_BB_4F, unit_commitment=True)
        yield f"dc-uc-hubs-{approach.value}", dc_uc_hub_case, approach, options
    yield "dc-uc-1BB-1F", dc_uc_case, Approach.ONE_BB_1F, dict(dc_opf=True, unit_commitment=True)


@pytest.mark.parametrize("make, approach, options",
                         [case[1:] for case in built_cases()],
                         ids=[case[0] for case in built_cases()])
def test_rebuilt_from_views_is_the_same_lp(make, approach, options):
    built = build_model(make(), approach, **options)
    rebuilt = LpInstance(built.name, built.variables, built.rows, built.objective)
    assert mps_string(rebuilt) == mps_string(built)
    assert size_report(rebuilt) == size_report(built)
    a, b = built.matrix(), rebuilt.matrix()
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    for name in ("row_lo", "row_hi", "lower", "upper", "cost"):
        assert np.array_equal(getattr(built, name), getattr(rebuilt, name)), name


def test_build_size_write_make_no_records(monkeypatch, tmp_path):
    def refuse(self, *args, **kwargs):
        raise AssertionError(f"{type(self).__name__} constructed")

    monkeypatch.setattr(ConstraintRow, "__init__", refuse)
    monkeypatch.setattr(VariableRef, "__init__", refuse)
    for make, approach, options in [case[1:] for case in built_cases()]:
        lp = build_model(make(), approach, **options)
        size_report(lp)
        write_mps(lp, str(tmp_path / "model.mps"))
