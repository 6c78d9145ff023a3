"""Deterministic example systems: the PV+battery hybrid and a tri-area case.

The tri-area generator reconstructs the published structure of the case
study (three interconnected electric areas plus gas, heat and hydrogen
chains) with synthetic profiles from a fixed-seed linear congruential
recurrence, so every build is reproducible without external data.
:func:`resolve_case` turns a case label, as the CLI and the bench take
it, into a system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

from .csvio import load_case
from .errors import InvariantViolation
from .model import Asset, AssetKind, EnergySystem, FlowArc, HubAnnotation

#: horizon, in hours, of each published instance (1 month .. 4 years)
INSTANCE_HOURS = {1: 672, 2: 4032, 3: 8760, 4: 17520, 5: 26280, 6: 35040}


@dataclass(frozen=True)
class CaseSpec:
    """Generator input: same spec, same system, byte for byte."""

    seed: int = 13
    instance: int = 1

    def __post_init__(self):
        if self.instance not in INSTANCE_HOURS:
            raise InvariantViolation(f"instance must be 1..6, got {self.instance}")

    @property
    def horizon_t(self) -> int:
        return INSTANCE_HOURS[self.instance]


class _Lcg:
    """Minimal linear congruential generator; enough for synthetic profiles."""

    _A = 1103515245
    _C = 12345
    _M = 2**31

    def __init__(self, seed: int):
        self.state = seed % self._M

    def uniform(self) -> float:
        self.state = (self._A * self.state + self._C) % self._M
        return self.state / self._M


def _solar_profile(T: int, rng: _Lcg) -> tuple[float, ...]:
    out = []
    for t in range(T):
        hour = t % 24
        envelope = max(0.0, math.sin(math.pi * (hour - 6) / 12.0))
        # tiny floor keeps the capacity rows structurally identical at night
        out.append(round(max(0.001, min(1.0, envelope * (0.7 + 0.3 * rng.uniform()))), 6))
    return tuple(out)


def _wind_profile(T: int, rng: _Lcg) -> tuple[float, ...]:
    out = []
    level = 0.5
    for _ in range(T):
        level = 0.7 * level + 0.3 * rng.uniform()
        out.append(round(min(1.0, 0.1 + 0.85 * level), 6))
    return tuple(out)


def _demand_profile(T: int, rng: _Lcg, base: float, amp: float, noise: float) -> tuple[float, ...]:
    out = []
    for t in range(T):
        hour = t % 24
        daily = math.sin(2.0 * math.pi * (hour - 9) / 24.0)
        value = base + amp * daily + noise * (rng.uniform() - 0.5)
        out.append(round(max(0.1 * base, value), 6))
    return tuple(out)


def hybrid_fixture() -> EnergySystem:
    """Solar PV with a battery serving one electricity demand (Fig. 1 case).

    The battery may only be charged from the PV: the hub annotation forbids
    the route from the demand side back to the battery.
    """
    T = 24
    rng = _Lcg(7)
    sy = EnergySystem(horizon_t=T, name="hybrid")
    sy.add_asset(
        Asset(id="pv", kind=AssetKind.PRODUCER, capacity_mw=12.0,
              availability_profile=_solar_profile(T, rng))
    )
    sy.add_asset(
        Asset(id="bt", kind=AssetKind.STORAGE, capacity_mw=5.0,
              storage_capacity_mwh=24.0, initial_storage_mwh=14.0,
              eta_in=0.95, eta_out=0.95)
    )
    demand = tuple(1.5 if (h < 7 or h >= 19) else 2.5 for h in range(T))
    sy.add_asset(Asset(id="ed", kind=AssetKind.CONSUMER, demand_profile=demand))
    sy.add_flow(FlowArc("pv", "bt", op_cost=5.0))
    sy.add_flow(FlowArc("pv", "ed", op_cost=5.0))
    sy.add_flow(FlowArc("bt", "ed"))
    sy.add_hub(
        HubAnnotation(
            id="cp",
            member_ports=(("pv", "in"), ("bt", "in"), ("bt", "out"),
                          ("ed", "out"), ("ed", "in")),
            forbidden_routes=(("ed", "bt"),),
        )
    )
    return sy


# -- tri-area case ---------------------------------------------------------

# grid-connection capacities enforced in the node forms: delivery limits on
# the consumer side plus feed-in limits on the solar park (all non-binding)
_PORT_CAPS = {
    "AE": (("ed_a", "out", 350.0), ("ed_a2", "out", 160.0)),
    "ME": (("ed_m", "out", 320.0),),
    "VE": (("ed_v", "out", 180.0),),
    "HH": (("hd_m", "out", 150.0),),
    "ap": (("solar", "in", 500.0),),
}


def tri_area_case(spec: CaseSpec) -> EnergySystem:
    """Three electric areas with gas, heat and hydrogen chains.

    Asgard: a solar park with a co-located battery (the battery charges
    only from solar, so the pair sits behind its own collection point
    ``ap``), a gas-fired combined-cycle unit, and two demand centres.
    Midgard: a wind farm with co-located pumped hydro (again behind a
    collection point ``mp``), a small reactor whose output splits into
    electricity and heat, and a gas peaker.  Valhalla: electrolyzer,
    hydrogen store and fuel cell.  An uncapped external grid connection
    backstops each electric area at a premium price.  The areas trade over
    capped bidirectional electric links; gas reaches Asgard and Midgard
    through two one-way pipelines (declared as zero-backward intervals)
    from one supply point.
    """
    T = spec.horizon_t
    rng = _Lcg(spec.seed)
    sy = EnergySystem(horizon_t=T, name=f"tri-area-i{spec.instance}")

    def prod(id, cap, profile=None, **kw):
        sy.add_asset(Asset(id=id, kind=AssetKind.PRODUCER, capacity_mw=cap,
                           availability_profile=profile, **kw))

    def conv(id, cap, eta, **kw):
        sy.add_asset(Asset(id=id, kind=AssetKind.CONVERSION, capacity_mw=cap,
                           eta_in=eta, **kw))

    def stor(id, cap, energy, init, eta, **kw):
        sy.add_asset(Asset(id=id, kind=AssetKind.STORAGE, capacity_mw=cap,
                           storage_capacity_mwh=energy, initial_storage_mwh=init,
                           eta_in=eta, eta_out=eta, **kw))

    def cons(id, base, amp, noise):
        sy.add_asset(Asset(id=id, kind=AssetKind.CONSUMER,
                           demand_profile=_demand_profile(T, rng, base, amp, noise)))

    inv = dict(investable=True)
    # Asgard
    prod("solar", 120.0, _solar_profile(T, rng), invest_limit=3, invest_cost=700.0, **inv)
    stor("battery", 60.0, 240.0, 120.0, 0.95, invest_limit=2, invest_cost=350.0, **inv)
    conv("ccgt", 250.0, 0.55, invest_limit=2, invest_cost=900.0, **inv)
    cons("ed_a", 100.0, 30.0, 12.0)
    cons("ed_a2", 35.0, 10.0, 4.0)
    # Midgard
    prod("wind", 100.0, _wind_profile(T, rng), invest_limit=3, invest_cost=1100.0, **inv)
    stor("hydro", 80.0, 2000.0, 1500.0, 0.9, invest_limit=1, invest_cost=2000.0, **inv)
    prod("smr", 120.0, invest_limit=1, invest_cost=5000.0, **inv)
    conv("smr_split", 120.0, 1.0, invest_limit=1, invest_cost=10.0, **inv)
    conv("ocgt", 150.0, 0.38, invest_limit=2, invest_cost=400.0, **inv)
    cons("ed_m", 85.0, 25.0, 10.0)
    cons("hd_m", 45.0, 15.0, 6.0)
    # Valhalla
    conv("electrolyzer", 50.0, 0.7, invest_limit=2, invest_cost=650.0, **inv)
    stor("h2store", 40.0, 500.0, 250.0, 0.99, invest_limit=2, invest_cost=150.0, **inv)
    conv("fuelcell", 45.0, 0.6, invest_limit=2, invest_cost=800.0, **inv)
    cons("ed_v", 40.0, 12.0, 5.0)
    # gas supply and the external grid backstop
    prod("gas", 1000.0, invest_limit=2, invest_cost=100.0, **inv)
    prod("grid_import", None, investable=False)

    # Asgard: the solar/battery pod serves both demand centres; the battery
    # charges only from solar (no arc from the grid side into the pod)
    sy.add_flow(FlowArc("solar", "battery"))
    sy.add_flow(FlowArc("solar", "ed_a"))
    sy.add_flow(FlowArc("solar", "ed_a2"))
    sy.add_flow(FlowArc("battery", "ed_a"))
    sy.add_flow(FlowArc("battery", "ed_a2"))
    sy.add_flow(FlowArc("ccgt", "ed_a"))
    sy.add_flow(FlowArc("ccgt", "ed_a2"))
    # distribution feeder: the secondary demand centre can draw on power
    # arriving at the primary one (e.g. over the inter-area links)
    sy.add_flow(FlowArc("ed_a", "ed_a2"))
    # Midgard: hydro pumps only from wind
    sy.add_flow(FlowArc("wind", "hydro"))
    sy.add_flow(FlowArc("wind", "ed_m"))
    sy.add_flow(FlowArc("hydro", "ed_m"))
    sy.add_flow(FlowArc("smr_split", "ed_m"))
    sy.add_flow(FlowArc("ocgt", "ed_m"))
    # Valhalla mixing (the electrolyzer draws from the area's pool through
    # the demand node, which passes surplus power on)
    sy.add_flow(FlowArc("fuelcell", "ed_v"))
    sy.add_flow(FlowArc("ed_v", "electrolyzer"))
    # hydrogen chain
    sy.add_flow(FlowArc("electrolyzer", "h2store"))
    sy.add_flow(FlowArc("electrolyzer", "fuelcell"))
    sy.add_flow(FlowArc("h2store", "fuelcell"))
    # heat
    sy.add_flow(FlowArc("smr_split", "hd_m"))
    # gas pipelines: one-way, written as two-sided intervals with a zero
    # backward capacity (the flow bound is a range row in every form)
    sy.add_flow(FlowArc("gas", "ccgt", max_fwd_mw=400.0, op_cost=25.0, two_sided=True))
    sy.add_flow(FlowArc("gas", "ocgt", max_fwd_mw=300.0, op_cost=25.0, two_sided=True))
    # reactor feed
    sy.add_flow(FlowArc("smr", "smr_split", op_cost=8.0))
    # external grid backstop in every electric area
    sy.add_flow(FlowArc("grid_import", "ed_m", op_cost=180.0))
    sy.add_flow(FlowArc("grid_import", "ed_a", op_cost=180.0))
    sy.add_flow(FlowArc("grid_import", "ed_a2", op_cost=180.0))
    sy.add_flow(FlowArc("grid_import", "ed_v", op_cost=180.0))
    # inter-area electric links
    sy.add_flow(FlowArc("ed_a", "ed_m", max_fwd_mw=300.0, max_bwd_mw=300.0))
    sy.add_flow(FlowArc("ed_m", "ed_v", max_fwd_mw=250.0, max_bwd_mw=250.0))
    sy.add_flow(FlowArc("ed_a", "ed_v", max_fwd_mw=200.0, max_bwd_mw=200.0))

    hubs = {
        "ap": (("solar", "in"), ("battery", "in"), ("battery", "out")),
        "AE": (("ccgt", "in"), ("ed_a", "out"), ("ed_a2", "out"),
               ("grid_import", "in")),
        "mp": (("wind", "in"), ("hydro", "in"), ("hydro", "out")),
        "ME": (("smr_split", "in"), ("ocgt", "in"), ("ed_m", "out"),
               ("grid_import", "in")),
        "VE": (("fuelcell", "in"), ("electrolyzer", "out"), ("ed_v", "out"),
               ("grid_import", "in")),
        "GS": (("gas", "in"),),
        "GA": (("ccgt", "out"),),
        "GM": (("ocgt", "out"),),
        "HH": (("smr_split", "in"), ("hd_m", "out")),
        "H2H": (("electrolyzer", "in"), ("h2store", "in"),
                ("h2store", "out"), ("fuelcell", "out")),
    }
    for hub_id, ports in hubs.items():
        sy.add_hub(HubAnnotation(id=hub_id, member_ports=ports,
                                 port_caps=_PORT_CAPS.get(hub_id, ())))
    return sy


def scale_horizon(system: EnergySystem, T: int) -> EnergySystem:
    """Copy of ``system`` with all profiles tiled or truncated to length T."""
    if T < 1:
        raise InvariantViolation("T must be positive")
    out = replace(system, horizon_t=T, assets=dict(system.assets), arcs=dict(system.arcs),
                  hubs=dict(system.hubs))
    for asset_id, asset in list(out.assets.items()):
        changes = {}
        for field in ("demand_profile", "availability_profile"):
            profile = getattr(asset, field)
            if profile is not None:
                changes[field] = tuple(profile[t % len(profile)] for t in range(T))
        if changes:
            out.assets[asset_id] = replace(asset, **changes)
    return out


def resolve_case(case: str, instance: int = 1, T: Optional[int] = None,
                 seed: int = 13) -> EnergySystem:
    """The system a case label names: ``hybrid``, ``tri-area`` (tri-area
    ``instance`` from case ``seed``) or ``csv:<dir>`` (a CSV bundle),
    scaled to horizon ``T`` when one is given."""
    if case == "hybrid":
        system = hybrid_fixture()
    elif case == "tri-area":
        system = tri_area_case(CaseSpec(seed=seed, instance=instance))
    elif case.startswith("csv:"):
        system = load_case(case[len("csv:"):])
    else:
        raise InvariantViolation(f"unknown case {case!r}; use hybrid, tri-area or csv:<dir>")
    return system if T is None else scale_horizon(system, T)
