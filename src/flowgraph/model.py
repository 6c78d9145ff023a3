"""Directed-graph description of a multi-carrier energy system.

An :class:`EnergySystem` holds energy assets (vertices) and flows (arcs)
together with hub annotations that record which arcs route through a shared
balance point when the system is lowered to a node-based form.  The
asset-to-asset description is the single source of truth from which every
modelling approach is derived.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Optional

from .errors import DuplicateArc, DuplicateId, InvariantViolation, SelfLoop, UnknownAsset


class AssetKind(enum.Enum):
    """What an asset does with energy.

    ``HUB`` and ``TRANSPORT`` only appear in lowered systems; a user-authored
    asset-to-asset system contains neither.
    """

    PRODUCER = "producer"
    CONSUMER = "consumer"
    STORAGE = "storage"
    CONVERSION = "conversion"
    HUB = "hub"
    TRANSPORT = "transport"


@dataclass(frozen=True)
class DcFlowParams:
    """Linearized power-flow data for a single line."""

    reactance_pu: float
    s_base_mva: float = 100.0

    def __post_init__(self):
        # each test is written so that NaN fails it
        if not self.reactance_pu > 0:
            raise InvariantViolation("reactance_pu must be positive")
        if not self.s_base_mva > 0:
            raise InvariantViolation("s_base_mva must be positive")

    @property
    def susceptance(self) -> float:
        return self.s_base_mva / self.reactance_pu


@dataclass(frozen=True)
class Asset:
    """A single energy asset.

    ``capacity_mw`` of ``None`` means the asset imposes no capacity limit on
    its outflows (no capacity row is generated for it).
    """

    id: str
    kind: AssetKind
    capacity_mw: Optional[float] = None
    min_capacity_mw: float = 0.0
    initial_units: int = 1
    investable: bool = False
    invest_limit: Optional[int] = None
    invest_cost: float = 0.0
    storage_capacity_mwh: Optional[float] = None
    initial_storage_mwh: float = 0.0
    eta_in: float = 1.0
    eta_out: float = 1.0
    demand_profile: Optional[tuple[float, ...]] = None
    availability_profile: Optional[tuple[float, ...]] = None
    uc_enabled: bool = False
    voltage_angle_enabled: bool = False

    def __post_init__(self):
        if self.demand_profile is not None:
            object.__setattr__(self, "demand_profile", tuple(self.demand_profile))
        if self.availability_profile is not None:
            object.__setattr__(self, "availability_profile", tuple(self.availability_profile))
        self.check()

    def check(self) -> None:
        """Raise on a bad field; run once by ``__post_init__``, since a frozen
        asset cannot become invalid afterwards."""
        if not self.id:
            raise InvariantViolation("asset id must be non-empty")
        # each test of a float is written so that NaN fails it
        if self.capacity_mw is not None and not self.capacity_mw >= 0:
            raise InvariantViolation(f"{self.id}: capacity_mw must be nonnegative")
        if not self.min_capacity_mw >= 0:
            raise InvariantViolation(f"{self.id}: min_capacity_mw must be nonnegative")
        if self.capacity_mw is not None and self.min_capacity_mw > self.capacity_mw:
            raise InvariantViolation(f"{self.id}: min_capacity_mw exceeds capacity_mw")
        if self.initial_units < 0:
            raise InvariantViolation(f"{self.id}: initial_units must be nonnegative")
        if self.invest_limit is not None and self.invest_limit < 0:
            raise InvariantViolation(f"{self.id}: invest_limit must be nonnegative")
        if not self.invest_cost >= 0:
            raise InvariantViolation(f"{self.id}: invest_cost must be nonnegative")
        if not (0.0 < self.eta_in <= 1.0) or not (0.0 < self.eta_out <= 1.0):
            raise InvariantViolation(f"{self.id}: efficiencies must lie in (0, 1]")
        is_storage = self.kind is AssetKind.STORAGE
        if is_storage:
            if self.storage_capacity_mwh is None:
                raise InvariantViolation(f"{self.id}: storage asset needs storage_capacity_mwh")
            if not self.storage_capacity_mwh >= 0:
                raise InvariantViolation(f"{self.id}: storage_capacity_mwh must be nonnegative")
            if not self.initial_storage_mwh <= self.storage_capacity_mwh:
                raise InvariantViolation(f"{self.id}: initial storage must be at most its capacity")
            if self.initial_storage_mwh < 0:
                raise InvariantViolation(f"{self.id}: initial_storage_mwh must be nonnegative")
        elif self.storage_capacity_mwh is not None or self.initial_storage_mwh:
            raise InvariantViolation(f"{self.id}: storage fields on a non-storage asset")
        if self.kind is AssetKind.CONSUMER:
            if self.demand_profile is None:
                raise InvariantViolation(f"{self.id}: consumer needs a demand_profile")
            if any(not d >= 0 for d in self.demand_profile):
                raise InvariantViolation(f"{self.id}: demand must be nonnegative")
        elif self.demand_profile is not None:
            raise InvariantViolation(f"{self.id}: demand_profile on a non-consumer asset")
        if self.availability_profile is not None:
            if self.kind is not AssetKind.PRODUCER:
                raise InvariantViolation(f"{self.id}: availability_profile on a non-producer asset")
            if any(not (0.0 <= v <= 1.0) for v in self.availability_profile):
                raise InvariantViolation(f"{self.id}: availability values must lie in [0, 1]")


@dataclass(frozen=True)
class FlowArc:
    """A directed flow between two assets.

    ``max_fwd_mw`` of ``None`` means unbounded above.  ``two_sided`` marks the
    flow as a single free variable bounded on both sides by a range row; the
    lowering sets it on node-link and transport arcs, and it is implied by
    ``max_bwd_mw > 0`` or by DC power-flow parameters.  ``via_hubs`` lists
    relay balance points the arc passes through when lowered to a node form
    (e.g. compressor stations along a pipeline); empty for ordinary arcs.
    """

    from_asset: str
    to_asset: str
    max_fwd_mw: Optional[float] = None
    max_bwd_mw: float = 0.0
    op_cost: float = 0.0
    dc_params: Optional[DcFlowParams] = None
    two_sided: bool = False
    via_hubs: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "via_hubs", tuple(self.via_hubs))
        if self.from_asset == self.to_asset:
            raise SelfLoop(f"self-loop on {self.from_asset}")
        # each test is written so that NaN fails it; inf passes
        if self.max_fwd_mw is not None and not self.max_fwd_mw >= 0:
            raise InvariantViolation("max_fwd_mw must be nonnegative")
        if not self.max_bwd_mw >= 0:
            raise InvariantViolation("max_bwd_mw must be nonnegative")
        if math.isnan(self.op_cost):
            raise InvariantViolation("op_cost must be a number")
        if self.max_bwd_mw > 0 or self.dc_params is not None:
            object.__setattr__(self, "two_sided", True)

    @property
    def key(self) -> tuple[str, str]:
        return (self.from_asset, self.to_asset)


@dataclass(frozen=True)
class HubAnnotation:
    """Marks a group of asset ports that share one balance point.

    ``member_ports`` holds ``(asset_id, direction)`` pairs where direction
    ``"in"`` means the asset feeds the hub and ``"out"`` means the hub feeds
    the asset.  ``forbidden_routes`` lists ``(source, sink)`` pairs whose
    direct exchange is disallowed; the lowering encodes each one as a zero
    capacity on the corresponding directed flow.  ``port_caps`` optionally
    limits the flow on a member's connection to the hub (a grid-connection
    capacity); ports without an entry are uncapped.
    """

    id: str
    member_ports: tuple[tuple[str, str], ...]
    forbidden_routes: tuple[tuple[str, str], ...] = ()
    port_caps: tuple[tuple[str, str, float], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "member_ports", tuple(self.member_ports))
        object.__setattr__(self, "forbidden_routes", tuple(self.forbidden_routes))
        object.__setattr__(self, "port_caps", tuple(self.port_caps))
        for _, direction in self.member_ports:
            if direction not in ("in", "out"):
                raise InvariantViolation(f"hub {self.id}: port direction must be 'in' or 'out'")

    def port_cap(self, asset_id: str, direction: str) -> Optional[float]:
        for a, d, cap in self.port_caps:
            if a == asset_id and d == direction:
                return cap
        return None

    @property
    def members(self) -> list[str]:
        seen: dict[str, None] = {}
        for asset_id, _ in self.member_ports:
            seen.setdefault(asset_id)
        return list(seen)

    def ports(self, direction: str) -> list[str]:
        return [a for a, d in self.member_ports if d == direction]


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning"
    entity: str
    message: str


@dataclass
class EnergySystem:
    """Assets, flows and hub annotations over a flat hourly horizon."""

    horizon_t: int
    assets: dict[str, Asset] = field(default_factory=dict)
    arcs: dict[tuple[str, str], FlowArc] = field(default_factory=dict)
    hubs: dict[str, HubAnnotation] = field(default_factory=dict)
    name: str = "system"

    def __post_init__(self):
        if self.horizon_t < 1:
            raise InvariantViolation("horizon_t must be positive")

    # -- construction ----------------------------------------------------

    def add_asset(self, asset: Asset) -> "EnergySystem":
        if asset.id in self.assets:
            raise DuplicateId(f"asset id {asset.id!r} already used")
        self.assets[asset.id] = asset
        return self

    def add_flow(self, arc: FlowArc) -> "EnergySystem":
        for endpoint in arc.key:
            if endpoint not in self.assets:
                raise UnknownAsset(f"unknown asset {endpoint!r}")
        if arc.key in self.arcs:
            raise DuplicateArc(f"arc {arc.key} already present")
        self.arcs[arc.key] = arc
        return self

    def add_hub(self, hub: HubAnnotation) -> "EnergySystem":
        if hub.id in self.hubs:
            raise DuplicateId(f"hub id {hub.id!r} already used")
        self.hubs[hub.id] = hub
        return self

    # -- queries ---------------------------------------------------------

    def adjacency(self) -> dict[str, tuple[list[tuple[str, str]], list[tuple[str, str]]]]:
        """Per asset id, its ``(in-arc keys, out-arc keys)``, each sorted.

        Every asset has an entry; an arc endpoint that is not an asset gets
        one too, so a caller can still report it.
        """
        adj: dict[str, tuple[list, list]] = {a: ([], []) for a in self.assets}
        for key in sorted(self.arcs):
            adj.setdefault(key[0], ([], []))[1].append(key)
            adj.setdefault(key[1], ([], []))[0].append(key)
        return adj

    # -- validation ------------------------------------------------------

    def validate(self) -> list[Diagnostic]:
        """Check all graph-level invariants; empty list means the system is sound."""
        out: list[Diagnostic] = []

        def err(entity: str, message: str) -> None:
            out.append(Diagnostic("error", entity, message))

        adj = self.adjacency()
        for asset in self.assets.values():
            ins, outs = adj[asset.id]
            if asset.kind is AssetKind.CONSUMER and not ins:
                err(asset.id, "consumer has no incoming arc")
            if asset.kind is AssetKind.PRODUCER and not outs:
                err(asset.id, "producer has no outgoing arc")
        for arc in self.arcs.values():
            for endpoint in arc.key:
                if endpoint not in self.assets:
                    err(f"{arc.key}", f"arc references unknown asset {endpoint!r}")
            if arc.max_bwd_mw > 0 and arc.dc_params is None:
                ends = [self.assets.get(e) for e in arc.key]
                hubbish = (AssetKind.HUB, AssetKind.TRANSPORT, AssetKind.CONSUMER)
                if not any(a is not None and a.kind in hubbish for a in ends):
                    err(f"{arc.key}", "backward capacity on a non-transport arc")
            if arc.dc_params is not None and arc.max_fwd_mw is not None and arc.max_bwd_mw == 0:
                # the flow bound row is then [-0, max_fwd_mw]: the line runs
                # one way only, while an uncapped DC line runs both ways
                out.append(Diagnostic(
                    "warning", f"{arc.key}",
                    f"DC line capped at {arc.max_fwd_mw} MW forward and 0 MW backward "
                    "carries flow in one direction only; set max_bwd_mw for a two-way cap",
                ))
        for hub in self.hubs.values():
            members = set(hub.members)
            for asset_id, _ in hub.member_ports:
                if asset_id not in self.assets:
                    err(hub.id, f"hub references unknown asset {asset_id!r}")
            for src, dst in hub.forbidden_routes:
                if src not in members or dst not in members:
                    err(hub.id, f"forbidden route ({src}, {dst}) outside hub members")
        for arc in self.arcs.values():
            for h in arc.via_hubs:
                if h not in self.hubs:
                    err(f"{arc.key}", f"via hub {h!r} is not annotated")
        return out
