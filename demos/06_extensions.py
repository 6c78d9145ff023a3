"""Optional physics: DC power flow and unit commitment.

Builds a 3-asset ring where every arc carries a reactance, so flows are
fixed by voltage angles rather than chosen freely — the cheap direct path
cannot take the whole load.  Then adds a minimum-output generator under
(LP-relaxed) unit commitment and shows the on-fraction variable scaling
its feasible band per timestep.

Run:  python3 demos/06_extensions.py
"""

import warnings

from flowgraph import (
    Approach,
    Asset,
    AssetKind,
    DcFlowParams,
    EnergySystem,
    FlowArc,
    build_model,
    solve_reference,
)

ring = EnergySystem(horizon_t=1)
ring.add_asset(Asset(id="gen", kind=AssetKind.PRODUCER, capacity_mw=10.0,
                     voltage_angle_enabled=True))
ring.add_asset(Asset(id="city", kind=AssetKind.CONSUMER, demand_profile=(3.0,),
                     voltage_angle_enabled=True))
ring.add_asset(Asset(id="town", kind=AssetKind.CONSUMER, demand_profile=(2.0,),
                     voltage_angle_enabled=True))
ring.add_flow(FlowArc("gen", "city", dc_params=DcFlowParams(0.2), op_cost=1.0))
ring.add_flow(FlowArc("city", "town", dc_params=DcFlowParams(0.25), op_cost=1.0))
ring.add_flow(FlowArc("gen", "town", dc_params=DcFlowParams(0.4), op_cost=1.0))

lp = build_model(ring, Approach.ONE_BB_1F, dc_opf=True)
result = solve_reference(lp)
print("DC ring flows (MW), determined by angles:")
for name, value in sorted(zip(lp.col_names(), result.primal.tolist())):
    if name.startswith("f_"):
        print(f"  {name:<22}{value:9.4f}")

uc = EnergySystem(horizon_t=3)
uc.add_asset(Asset(id="coal", kind=AssetKind.PRODUCER, capacity_mw=10.0,
                   min_capacity_mw=4.0, uc_enabled=True))
uc.add_asset(Asset(id="peaker", kind=AssetKind.PRODUCER, capacity_mw=50.0))
uc.add_asset(Asset(id="load", kind=AssetKind.CONSUMER,
                   demand_profile=(2.0, 8.0, 5.0)))
uc.add_flow(FlowArc("coal", "load", op_cost=1.0))
uc.add_flow(FlowArc("peaker", "load", op_cost=10.0))

with warnings.catch_warnings():
    warnings.simplefilter("ignore")  # the bundled simplex relaxes integrality
    lp = build_model(uc, Approach.ONE_BB_1F, unit_commitment=True)
    result = solve_reference(lp)
values = dict(zip(lp.col_names(), result.primal.tolist()))
print("\nunit commitment (LP relaxation): min 4 MW when on, 10 MW max")
for t in (1, 2, 3):
    flow = values[f"f_coal_load_t{t}"]
    on = values[f"u_coal_t{t}"]
    print(f"  t={t}: coal output {flow:5.2f} MW, on-fraction {on:.2f}")
