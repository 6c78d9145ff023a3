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
# reaches another optimal vertex with the same objective.  Re-pinned again
# when the presolve began to substitute fixed columns and eliminate
# doubleton equations, with SuperLU's supernode relaxation at 1: the hybrid
# primals moved by at most 1.8e-15 and the objectives not at all; at
# tri-area T=24 2BB-2F and 2BB-1F moved by at most 1.5e-12, and 3BB-4F and
# 1BB-1F reach other optimal vertices, objectives within 1.5e-16 relative.
# Before -> after (first 12 hex digits):
#   hybrid 3BB-4F: 94fb2ebc6e02 -> ff689c794daf
#   hybrid 2BB-2F: 739ab938b445 -> fb9eafb443c3
#   hybrid 2BB-1F: 62db85783619 -> 3848fcd6049e
#   hybrid 1BB-1F: ecace63b0f92 -> 57d573592cf5
#   tri-area-t24 3BB-4F: 8830583bea97 -> 54570543144d
#   tri-area-t24 2BB-2F: 593596fd525f -> 37fdc1f617cd
#   tri-area-t24 2BB-1F: d9a40df80921 -> e6b0be97cff4
#   tri-area-t24 1BB-1F: 373dc57f962d -> 8567de5ecba7
# Re-pinned when the basis updates became one block refactorized every 32
# updates, with the basics solved again at each fresh LU: the hybrid
# primals moved by at most 3.9e-15, tri-area T=24 3BB-4F and 2BB-1F by at
# most 1.4e-12, and 2BB-2F and 1BB-1F reach other optimal vertices; every
# objective stayed within 3.1e-16 relative.
#   hybrid 3BB-4F: ff689c794daf -> 4691a8f49f7b
#   hybrid 2BB-2F: fb9eafb443c3 -> 54f263f47517
#   hybrid 2BB-1F: 3848fcd6049e -> 03aedff1a1ff
#   hybrid 1BB-1F: 57d573592cf5 -> f1fc520d12a3
#   tri-area-t24 3BB-4F: 54570543144d -> 9b1e7b17a3ff
#   tri-area-t24 2BB-2F: 37fdc1f617cd -> 6353b8e205cf
#   tri-area-t24 2BB-1F: e6b0be97cff4 -> 3567ff1b2146
#   tri-area-t24 1BB-1F: 8567de5ecba7 -> 3587103c9f98
SOLUTION_FILES = {
    ("hybrid", "3BB-4F"): "4691a8f49f7b493e2ffe7dcfab74b915ea43462eb58c89dd17304f5346ca5a25",
    ("hybrid", "2BB-2F"): "54f263f475170f1e1c9945844afcb48c5dbd012e86fc49d1c68031c76c92aa0b",
    ("hybrid", "2BB-1F"): "03aedff1a1ff28045ebfba55304d5a8ccc07d2f4ec5fca10c08e1d4ed75ff954",
    ("hybrid", "1BB-1F"): "f1fc520d12a332f188cc8a4972303c4821d4edf55ebb0ad3ae032d2df834fd4a",
    ("tri-area-t24", "3BB-4F"): "9b1e7b17a3ffb3f826e6f3c6bd9c7a7e0413c5412a2a86f86c61782ecceae4ea",
    ("tri-area-t24", "2BB-2F"): "6353b8e205cfff4808387107177d6a4e8d2c93eebfc322fe744e1e0b95918307",
    ("tri-area-t24", "2BB-1F"): "3567ff1b2146cb9b01491ba0c545e4d538c0c851847a2ac3180b4308c348ac91",
    ("tri-area-t24", "1BB-1F"): "3587103c9f986149aedee754bf2a714dc94e09b49c4e7add3d2dc3992b82ce85",
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
    for name in ("indptr", "indices", "data", "row_lo", "row_hi", "lower", "upper", "cost"):
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
