"""Lower an energy system into an LP under four modelling approaches.

The asset-to-asset description is lowered to node-based graphs by routing
hub-annotated arcs through explicit balance assets; the LP is then generated
uniformly from whichever graph results.  The four approaches differ only in
how node links are represented: four positive flows through a transport
asset, two opposing positive flows, or one free two-sided flow.

Generation reads the graph once.  :meth:`EnergySystem.adjacency` gives each
asset its sorted in-arc and out-arc keys, and every row that sums an asset's
flows (balance, capacity, charging, unit commitment) takes them from there.
Columns come in blocks of T timesteps per ``(role, key)``, so a column index
is arithmetic, ``first + t - 1``; balance rows build their flow terms once at
t=1 and shift them to each later timestep.  Balance rows of every asset kind
come from one table, ``_BALANCE``, that gives the row family, the row-name
prefix, the inflow and outflow coefficients and the right-hand side.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

from .errors import (
    InvariantViolation,
    MissingAngleAsset,
    MissingHubAnnotation,
    UnsupportedCombination,
)
from .lp import INF, ConstraintRow, LpInstance, RowFamily, VariableRef, VarRole
from .model import Asset, AssetKind, EnergySystem, FlowArc, HubAnnotation


class Approach(enum.Enum):
    THREE_BB_4F = "3BB-4F"
    TWO_BB_2F = "2BB-2F"
    TWO_BB_1F = "2BB-1F"
    ONE_BB_1F = "1BB-1F"

    @classmethod
    def from_label(cls, label: str) -> "Approach":
        for member in cls:
            if member.value.lower() == label.lower():
                return member
        raise ValueError(f"unknown approach {label!r}")


ALL_APPROACHES = (
    Approach.THREE_BB_4F,
    Approach.TWO_BB_2F,
    Approach.TWO_BB_1F,
    Approach.ONE_BB_1F,
)


# ---------------------------------------------------------------------------
# Lowering to node-based graphs
# ---------------------------------------------------------------------------


def _system_cap_bound(system: EnergySystem) -> Optional[float]:
    """A finite flow level no feasible dispatch can exceed (for link caps)."""
    total = 0.0
    for asset in system.assets.values():
        if asset.kind is AssetKind.CONSUMER:
            continue
        if asset.capacity_mw is None:
            return None
        units = asset.initial_units
        if asset.investable:
            if asset.invest_limit is None:
                return None
            units += asset.invest_limit
        total += asset.capacity_mw * units
    return total


@dataclass
class _PortMap:
    """Where each asset connects to hubs, split by role in the lowering.

    Multi-commodity assets (a conversion with electric and heat outputs) can
    feed several hubs, hence sets; a consumer belongs to exactly one hub.
    """

    in_hubs: dict[str, set[str]]
    out_hubs: dict[str, set[str]]
    node_hub: dict[str, str]  # consumer acting as a balance node of this hub
    node_linked: dict[str, str]  # consumer with both ports: explicit node link


def _build_port_map(system: EnergySystem) -> _PortMap:
    in_hubs: dict[str, set[str]] = {}
    out_hubs: dict[str, set[str]] = {}
    node_hub: dict[str, str] = {}
    node_linked: dict[str, str] = {}
    for hub in system.hubs.values():
        ins = set(hub.ports("in"))
        outs = set(hub.ports("out"))
        for member in hub.members:
            asset = system.assets[member]
            if asset.kind is AssetKind.CONSUMER:
                if node_hub.setdefault(member, hub.id) != hub.id:
                    raise InvariantViolation(f"consumer {member!r} belongs to several hubs")
                if member in ins and member in outs:
                    node_linked[member] = hub.id
                continue
            if member in ins:
                in_hubs.setdefault(member, set()).add(hub.id)
            if member in outs:
                out_hubs.setdefault(member, set()).add(hub.id)
    return _PortMap(in_hubs, out_hubs, node_hub, node_linked)


def _forbidden_sources(hub: HubAnnotation) -> set[str]:
    return {src for src, _ in hub.forbidden_routes}


def lower_to_node_form(system: EnergySystem, approach: Approach) -> EnergySystem:
    """Reroute hub-annotated arcs through explicit balance assets.

    Intra-hub arcs collapse onto one connection arc per member port;
    cross-hub arcs become hub-to-hub links whose shape depends on the
    approach.  Consumers annotated with both an in and an out port get a
    bidirectional node link; forbidden routes zero its toward-hub capacity.
    """
    if approach is Approach.ONE_BB_1F:
        return system
    if system.arcs and not system.hubs:
        raise MissingHubAnnotation(f"{system.name}: node-based lowering needs hub annotations")

    ports = _build_port_map(system)
    cap_big = _system_cap_bound(system)
    lowered = EnergySystem(horizon_t=system.horizon_t, name=f"{system.name}:{approach.value}")
    for asset in system.assets.values():
        lowered.add_asset(asset)
    for hub_id in sorted(system.hubs):
        lowered.add_asset(Asset(id=hub_id, kind=AssetKind.HUB))

    member_arcs: dict[tuple[str, str], float] = {}  # (from, to) -> op_cost

    def note_member_arc(u: str, v: str, op_cost: float = 0.0) -> None:
        key = (u, v)
        if key in member_arcs and member_arcs[key] != op_cost:
            raise InvariantViolation(
                f"conflicting operation costs on lowered arc {key}: "
                f"{member_arcs[key]} vs {op_cost}"
            )
        member_arcs[key] = op_cost

    links_done: set[tuple[str, str]] = set()
    # capacity demand per hub-to-hub link: several lowered routes may share
    # one physical connection, so their capacities accumulate
    link_caps: dict[tuple[str, str], list] = {}

    def note_link(a: str, b: str, fwd: Optional[float], bwd: Optional[float], dc=None) -> None:
        if (b, a) in link_caps:
            a, b, fwd, bwd = b, a, bwd, fwd
        entry = link_caps.setdefault((a, b), [0.0, 0.0, None])
        entry[0] = None if (entry[0] is None or fwd is None) else entry[0] + fwd
        entry[1] = None if (entry[1] is None or bwd is None) else entry[1] + bwd
        if dc is not None:
            entry[2] = dc

    def add_link(
        a: str, b: str, fwd: Optional[float], bwd: Optional[float], dc=None, interval: bool = False
    ) -> None:
        # interval marks hub-to-hub connections whose capacity limits are
        # two-sided interval rows in every node form; node links keep plain
        # one-sided rows, matching the published per-approach listings
        if (a, b) in links_done or (b, a) in links_done:
            return
        links_done.add((a, b))
        two_way = interval and (bwd is None or bwd > 0)
        if approach is Approach.TWO_BB_2F:
            lowered.add_flow(FlowArc(a, b, max_fwd_mw=fwd, two_sided=two_way, dc_params=dc))
            lowered.add_flow(FlowArc(b, a, max_fwd_mw=bwd, two_sided=two_way))
        elif approach is Approach.TWO_BB_1F:
            if interval and not two_way:
                # a one-way connection is a plain directed flow
                lowered.add_flow(FlowArc(a, b, max_fwd_mw=fwd, dc_params=dc))
            else:
                lowered.add_flow(
                    FlowArc(
                        a,
                        b,
                        max_fwd_mw=fwd,
                        max_bwd_mw=INF if bwd is None else bwd,
                        two_sided=True,
                        dc_params=dc,
                    )
                )
        else:  # THREE_BB_4F: transport asset with four positive flows
            tr = f"cl_{a}_{b}"
            lowered.add_asset(Asset(id=tr, kind=AssetKind.TRANSPORT))
            lowered.add_flow(FlowArc(a, tr, max_fwd_mw=fwd))
            lowered.add_flow(FlowArc(tr, b, max_fwd_mw=fwd, dc_params=dc))
            lowered.add_flow(FlowArc(b, tr, max_fwd_mw=bwd))
            lowered.add_flow(FlowArc(tr, a, max_fwd_mw=bwd))

    # hub-to-hub links derived from cross-hub arcs (possibly via relay hubs)
    for key in sorted(system.arcs):
        arc = system.arcs[key]
        u, v = key
        source_hubs = set(ports.in_hubs.get(u, ()))
        sink_hubs = set(ports.out_hubs.get(v, ()))
        if u in ports.node_hub:
            source_hubs.add(ports.node_hub[u])
        if v in ports.node_hub:
            sink_hubs.add(ports.node_hub[v])
        if not source_hubs or not sink_hubs:
            lowered.add_flow(arc)  # direct arc, identical in every approach
            continue
        common = source_hubs & sink_hubs
        if common:
            # intra-hub arc: collapses onto the member connection arcs
            hub_id = min(common)
            if u not in ports.node_hub:
                note_member_arc(u, hub_id, arc.op_cost)
            if v not in ports.node_hub:
                note_member_arc(hub_id, v)
            continue
        hu, hv = min(source_hubs), min(sink_hubs)
        chain = [hu, *arc.via_hubs, hv]
        for a, b in zip(chain, chain[1:]):
            note_link(a, b, arc.max_fwd_mw, arc.max_bwd_mw, dc=arc.dc_params)
        if u not in ports.node_hub:
            note_member_arc(u, hu, arc.op_cost)
        if v not in ports.node_hub:
            note_member_arc(hv, v)

    for a, b in sorted(link_caps):
        fwd, bwd, dc = link_caps[(a, b)]
        add_link(a, b, fwd, bwd, dc=dc, interval=True)

    for (u, v), cost in sorted(member_arcs.items()):
        hub = system.hubs.get(u) or system.hubs.get(v)
        if u in system.hubs:
            cap = hub.port_cap(v, "out")
        else:
            cap = hub.port_cap(u, "in")
        lowered.add_flow(FlowArc(u, v, max_fwd_mw=cap, op_cost=cost))

    # consumers attached as direct members (single delivery arc)
    for consumer, hub_id in sorted(ports.node_hub.items()):
        if consumer in ports.node_linked:
            continue
        hub = system.hubs[hub_id]
        cap = hub.port_cap(consumer, "out")
        if (hub_id, consumer) not in lowered.arcs:
            lowered.add_flow(FlowArc(hub_id, consumer, max_fwd_mw=cap))

    # consumers with both ports: bidirectional node link
    for consumer, hub_id in sorted(ports.node_linked.items()):
        hub = system.hubs[hub_id]
        toward_cap = 0.0 if consumer in _forbidden_sources(hub) else cap_big
        out_cap = hub.port_cap(consumer, "out")
        if out_cap is None:
            out_cap = cap_big
        add_link(hub_id, consumer, out_cap, toward_cap)

    return lowered


# ---------------------------------------------------------------------------
# LP generation (uniform over any graph)
# ---------------------------------------------------------------------------


class _Balance(NamedTuple):
    """How one asset kind balances: row family, row-name prefix, coefficients
    of an asset's inflows and outflows, and right-hand side at timestep t."""

    family: RowFamily
    prefix: str
    weights: Callable[[Asset], tuple[float, float]]
    rhs: Callable[[Asset, int], float] = lambda a, t: 0.0


# Balance rows are emitted family by family in this order, timestep-major
# within a family.  Storage rows also carry the level terms; every other
# asset that no arc touches gets no row, since its row would have no terms.
_BALANCE = {
    AssetKind.CONSUMER: _Balance(
        RowFamily.CONSUMER_BALANCE, "bal", lambda a: (1.0, -1.0), lambda a, t: a.demand(t)
    ),
    AssetKind.STORAGE: _Balance(
        RowFamily.STORAGE_BALANCE, "sto", lambda a: (-a.eta_in, 1.0 / a.eta_out),
        lambda a, t: a.initial_storage_mwh if t == 1 else 0.0,
    ),
    AssetKind.CONVERSION: _Balance(RowFamily.CONVERSION_BALANCE, "cnv", lambda a: (a.eta_in, -1.0)),
    AssetKind.HUB: _Balance(RowFamily.NODE_BALANCE, "node", lambda a: (1.0, -1.0)),
    AssetKind.TRANSPORT: _Balance(RowFamily.TRANSPORT_BALANCE, "trn", lambda a: (1.0, -1.0)),
}


class _Builder:
    """Columns are sorted by ``(role, key, t)``, so each ``(role, key)`` owns a
    contiguous block of T columns (one for INVEST): column ``first + t - 1``.
    """

    def __init__(self, system: EnergySystem, dc_opf: bool, unit_commitment: bool):
        self.system = system
        self.dc_opf = dc_opf
        self.uc = unit_commitment
        self.lp = LpInstance(name=system.name)
        self.first: dict[tuple[VarRole, tuple[str, ...]], int] = {}
        self.arc_keys = sorted(system.arcs)
        self.assets = [system.assets[a] for a in sorted(system.assets)]
        self.adj = system.adjacency()

    def var(self, role: VarRole, key: tuple[str, ...], t: int = 1) -> int:
        return self.first[(role, key)] + t - 1

    def flows(self, keys: list[tuple[str, str]], coef: float, t: int = 1) -> list[tuple[int, float]]:
        return [(self.first[(VarRole.FLOW, key)] + t - 1, coef) for key in keys]

    def row(self, family, sense, rhs, terms, name, rhs_low=None) -> None:
        self.lp.rows.append(
            ConstraintRow(family=family, sense=sense, rhs=rhs, terms=terms, name=name, rhs_low=rhs_low)
        )

    # -- variables -------------------------------------------------------

    def create_variables(self) -> None:
        T = self.system.horizon_t
        blocks: dict[tuple[VarRole, tuple[str, ...]], list[VariableRef]] = {}

        def series(role: VarRole, key: tuple[str, ...], **bounds) -> None:
            blocks[(role, key)] = [VariableRef(role, key, t, **bounds) for t in range(1, T + 1)]

        for key in self.arc_keys:
            arc = self.system.arcs[key]
            free = arc.two_sided or (self.dc_opf and arc.dc_params is not None)
            series(VarRole.FLOW, key, lower=-INF if free else 0.0)
        for a in self.assets:
            if a.kind is AssetKind.STORAGE:
                series(VarRole.STORAGE_LEVEL, (a.id,), upper=a.storage_capacity_mwh)
            if a.investable:
                upper = INF if a.invest_limit is None else float(a.invest_limit)
                blocks[(VarRole.INVEST, (a.id,))] = [
                    VariableRef(VarRole.INVEST, (a.id,), None, upper=upper)
                ]
            if self.uc and a.uc_enabled:
                series(VarRole.UNITS_ON, (a.id,), integrality=True)
                series(VarRole.FLOW_ABOVE_MIN, (a.id,))
        if self.dc_opf:
            angle_assets = [a.id for a in self.assets if a.voltage_angle_enabled]
            for rank, asset in enumerate(angle_assets):
                # first angle-enabled asset is the reference bus
                lo, up = (0.0, 0.0) if rank == 0 else (-INF, INF)
                series(VarRole.VOLTAGE_ANGLE, (asset,), lower=lo, upper=up)
        for role, key in sorted(blocks, key=lambda rk: (rk[0].value, rk[1])):
            self.first[(role, key)] = len(self.lp.variables)
            self.lp.variables.extend(blocks[(role, key)])

    # -- objective -------------------------------------------------------

    def emit_objective(self) -> None:
        terms = [
            (self.var(VarRole.INVEST, (a.id,)), a.invest_cost)
            for a in self.assets
            if a.investable and a.invest_cost
        ]
        for key in self.arc_keys:
            cost = self.system.arcs[key].op_cost
            if cost:
                first = self.var(VarRole.FLOW, key)
                terms += [(first + t, cost) for t in range(self.system.horizon_t)]
        self.lp.objective = sorted(terms)

    # -- balance rows ----------------------------------------------------

    def emit_balances(self) -> None:
        for kind, bal in _BALANCE.items():
            members = []
            for a in self.assets:
                ins, outs = self.adj[a.id]
                if a.kind is kind and (ins or outs or kind is AssetKind.STORAGE):
                    w_in, w_out = bal.weights(a)
                    members.append((a, self.flows(ins, w_in) + self.flows(outs, w_out)))
            for t in range(1, self.system.horizon_t + 1):
                for a, base in members:
                    # flow terms are built once at t=1 and shifted to t
                    terms = [(j + t - 1, coef) for j, coef in base]
                    if kind is AssetKind.STORAGE:
                        level = self.var(VarRole.STORAGE_LEVEL, (a.id,), t)
                        prev = [(level - 1, -1.0)] if t > 1 else []
                        terms = [(level, 1.0), *prev, *terms]
                    self.row(bal.family, "=", bal.rhs(a, t), terms, f"{bal.prefix}_{a.id}_t{t}")

    # -- limit rows ------------------------------------------------------

    def _capacity_row(self, asset: Asset, t: int, direction: str, family, name: str) -> None:
        ins, outs = self.adj[asset.id]
        keys = outs if direction == "out" else ins
        if not keys or asset.capacity_mw is None:
            return
        avail = asset.availability(t) if direction == "out" else 1.0
        terms = self.flows(keys, 1.0, t)
        if asset.investable:
            terms.append((self.var(VarRole.INVEST, (asset.id,)), -asset.capacity_mw * avail))
        rhs = asset.capacity_mw * avail * asset.initial_units
        self.row(family, "<=", rhs, terms, name)

    def emit_capacity_rows(self, t: int) -> None:
        for a in self.assets:
            if a.kind in (AssetKind.HUB, AssetKind.TRANSPORT, AssetKind.CONSUMER):
                continue
            self._capacity_row(a, t, "out", RowFamily.CAPACITY_LIMIT, f"cap_{a.id}_t{t}")

    def emit_charging_rows(self, t: int) -> None:
        for a in self.assets:
            if a.kind is AssetKind.STORAGE:
                self._capacity_row(a, t, "in", RowFamily.CHARGING_LIMIT, f"chg_{a.id}_t{t}")

    def emit_storage_capacity(self, t: int) -> None:
        for a in self.assets:
            if a.kind is not AssetKind.STORAGE:
                continue
            terms = [(self.var(VarRole.STORAGE_LEVEL, (a.id,), t), 1.0)]
            self.row(RowFamily.STORAGE_CAPACITY, "<=", a.storage_capacity_mwh, terms, f"scap_{a.id}_t{t}")

    def emit_flow_bounds(self, t: int) -> None:
        for key in self.arc_keys:
            arc = self.system.arcs[key]
            terms = [(self.var(VarRole.FLOW, key, t), 1.0)]
            name = f"fb_{key[0]}_{key[1]}_t{t}"
            if arc.two_sided:
                low = None if arc.max_bwd_mw == INF else -arc.max_bwd_mw
                if arc.max_fwd_mw is not None:
                    self.row(RowFamily.FLOW_BOUND, "<=", arc.max_fwd_mw, terms, name, rhs_low=low)
                elif low is not None and not (arc.dc_params is not None and arc.max_bwd_mw == 0):
                    self.row(RowFamily.FLOW_BOUND, ">=", low, terms, name)
                # an unbounded two-sided flow needs no row at all, and a DC
                # line with no cap given runs either way, as its angles set
            elif arc.max_fwd_mw is not None:
                self.row(RowFamily.FLOW_BOUND, "<=", arc.max_fwd_mw, terms, name)

    # -- extensions ------------------------------------------------------

    def emit_dc_opf(self, t: int) -> None:
        for key in self.arc_keys:
            arc = self.system.arcs[key]
            if arc.dc_params is None:
                continue
            u, v = key
            for endpoint in key:
                if not self.system.assets[endpoint].voltage_angle_enabled:
                    raise MissingAngleAsset(
                        f"arc {key}: endpoint {endpoint!r} has no voltage angle"
                    )
            b = arc.dc_params.susceptance
            terms = [
                (self.var(VarRole.FLOW, key, t), 1.0),
                (self.var(VarRole.VOLTAGE_ANGLE, (u,), t), -b),
                (self.var(VarRole.VOLTAGE_ANGLE, (v,), t), b),
            ]
            self.row(RowFamily.DC_ANGLE, "=", 0.0, terms, f"dc_{u}_{v}_t{t}")

    def emit_unit_commitment(self, t: int) -> None:
        for a in self.assets:
            if not a.uc_enabled:
                continue
            u_j = self.var(VarRole.UNITS_ON, (a.id,), t)
            fa_j = self.var(VarRole.FLOW_ABOVE_MIN, (a.id,), t)
            terms = [(fa_j, 1.0)] + self.flows(self.adj[a.id][1], -1.0, t)
            terms.append((u_j, a.min_capacity_mw))
            self.row(RowFamily.UC_MIN_OPER, "=", 0.0, terms, f"ucm_{a.id}_t{t}")
            lim_terms = [(u_j, 1.0)]
            if a.investable:
                lim_terms.append((self.var(VarRole.INVEST, (a.id,)), -1.0))
            self.row(RowFamily.UC_LIMIT, "<=", float(a.initial_units), lim_terms, f"ucl_{a.id}_t{t}")
            cap = (a.capacity_mw or 0.0) - a.min_capacity_mw
            self.row(
                RowFamily.UC_MAX_ABOVE,
                "<=",
                0.0,
                [(fa_j, 1.0), (u_j, -cap)],
                f"uca_{a.id}_t{t}",
            )

    def build(self) -> LpInstance:
        self.create_variables()
        self.emit_objective()
        self.emit_balances()
        for t in range(1, self.system.horizon_t + 1):
            self.emit_capacity_rows(t)
            self.emit_charging_rows(t)
            self.emit_storage_capacity(t)
            self.emit_flow_bounds(t)
            if self.dc_opf:
                self.emit_dc_opf(t)
            if self.uc:
                self.emit_unit_commitment(t)
        self.lp.check()
        return self.lp


def build_model(
    system: EnergySystem,
    approach: Approach,
    *,
    dc_opf: bool = False,
    unit_commitment: bool = False,
) -> LpInstance:
    """Build the LP for ``system`` under the given modelling approach."""
    diagnostics = [d for d in system.validate() if d.severity == "error"]
    if diagnostics:
        raise InvariantViolation(
            "; ".join(f"{d.entity}: {d.message}" for d in diagnostics)
        )
    if dc_opf and approach is Approach.THREE_BB_4F:
        if any(arc.dc_params is not None for arc in system.arcs.values()):
            raise UnsupportedCombination(
                "DC power flow is not defined on four-flow connections"
            )
    return _Builder(lower_to_node_form(system, approach), dc_opf, unit_commitment).build()
