"""Lower an energy system into an LP under four modelling approaches.

The asset-to-asset description is lowered to node-based graphs by routing
hub-annotated arcs through explicit balance assets; the LP is then generated
uniformly from whichever graph results.  The four approaches differ only in
how node links are represented: four positive flows through a transport
asset, two opposing positive flows, or one free two-sided flow.

Generation reads the graph once (:meth:`EnergySystem.adjacency`) and writes
straight into the arrays of one :class:`LpInstance` store.  Columns come in
blocks of T timesteps per ``(role, key)``, so a column index is
``first + t - 1``.  Every row is one timestep's copy of a :class:`_Template`
described once at t=1: balance templates come from the ``_BALANCE`` table,
every other one from :meth:`_Builder.limit_templates`.
:meth:`_Builder.instantiate` records each group of templates; the build then
sizes the store's row arrays from the templates and writes each group's T
rows alike, in place, so the rows are never held twice.  A row holds exactly
its nonzero terms, so a zero minimum, capacity or availability leaves its
term out.  No name is built here: the store keeps each block's name prefix.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import (
    InvariantViolation,
    MissingAngleAsset,
    MissingHubAnnotation,
    UnsupportedCombination,
)
from .lp import FAMILIES, INF, LpInstance, RowFamily, VarRole
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

    member_arcs: dict[tuple[str, str], float] = {}  # (from, to) -> op_cost

    def note_member_arc(u: str, v: str, op_cost: float = 0.0) -> None:
        key = (u, v)
        if key in member_arcs and member_arcs[key] != op_cost:
            raise InvariantViolation(
                f"conflicting operation costs on lowered arc {key}: "
                f"{member_arcs[key]} vs {op_cost}"
            )
        member_arcs[key] = op_cost

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

    # a hub at either end of a DC link carries a voltage angle, as the
    # members at either end of the original DC arc do
    angled = {hub for link, (_, _, dc) in link_caps.items() if dc is not None for hub in link}
    for hub_id in sorted(system.hubs):
        lowered.add_asset(
            Asset(id=hub_id, kind=AssetKind.HUB, voltage_angle_enabled=hub_id in angled))

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
    of an asset's inflows and outflows, and right-hand side over T timesteps."""

    family: RowFamily
    prefix: str
    weights: Callable[[Asset], tuple[float, float]]
    rhs: Callable[[Asset, int], np.ndarray] = lambda a, T: np.zeros(T)


# Balance rows are emitted family by family in this order, timestep-major
# within a family.  Storage rows also carry the level terms; every other
# asset that no arc touches gets no row, since its row would have no terms.
_BALANCE = {
    AssetKind.CONSUMER: _Balance(
        RowFamily.CONSUMER_BALANCE, "bal", lambda a: (1.0, -1.0),
        lambda a, T: _tiled(a.demand_profile, T),
    ),
    AssetKind.STORAGE: _Balance(
        RowFamily.STORAGE_BALANCE, "sto", lambda a: (-a.eta_in, 1.0 / a.eta_out),
        lambda a, T: np.concatenate([[a.initial_storage_mwh], np.zeros(T - 1)]),
    ),
    AssetKind.CONVERSION: _Balance(RowFamily.CONVERSION_BALANCE, "cnv", lambda a: (a.eta_in, -1.0)),
    AssetKind.HUB: _Balance(RowFamily.NODE_BALANCE, "node", lambda a: (1.0, -1.0)),
    AssetKind.TRANSPORT: _Balance(RowFamily.TRANSPORT_BALANCE, "trn", lambda a: (1.0, -1.0)),
}


def _tiled(profile: Optional[Sequence[float]], T: int) -> np.ndarray:
    """``profile`` repeated over T timesteps (all ones for none)."""
    return np.ones(T) if profile is None else np.resize(np.asarray(profile, float), T)


class _Template(NamedTuple):
    """One row per timestep, described once at t=1.

    At timestep t the row is named ``f"{prefix}_t{t}"`` and has bounds
    ``lo`` and ``hi``, each one value or one per timestep (then ``lo[t - 1]``
    and ``hi[t - 1]``).  A term ``(j, coef)`` with one coefficient moves
    with the row to column ``j + t - 1``; a term with a coefficient per
    timestep (an INVEST column, scaled by availability) stays on column
    ``j`` with coefficient ``coef[t - 1]``.  ``lag_at`` is the position of a
    term on timestep t-1 (a storage level's previous value), whose
    coefficient is 0 at t=1: a row holds only its nonzero terms.
    """

    family: RowFamily
    prefix: str
    lo: float | np.ndarray
    hi: float | np.ndarray
    terms: list[tuple[int, float | np.ndarray]]
    lag_at: Optional[int] = None


class _Builder:
    """Columns are sorted by ``(role, key, t)``, so each ``(role, key)`` owns a
    contiguous block of T columns (one for INVEST): column ``first + t - 1``.

    Rows are recorded as ``groups`` of templates.  :meth:`build` counts
    their rows and terms (a group has T rows per template and at most T
    terms per template term, one per nonzero coefficient), allocates the
    store's row arrays for them and fills them group by group.
    """

    def __init__(self, system: EnergySystem, dc_opf: bool, unit_commitment: bool):
        self.system = system
        self.T = system.horizon_t
        self.dc_opf = dc_opf
        self.uc = unit_commitment
        self.first: dict[tuple[VarRole, tuple[str, ...]], int] = {}
        self.arc_keys = sorted(system.arcs)
        self.assets = [system.assets[a] for a in sorted(system.assets)]
        self.adj = system.adjacency()
        self.store: dict = {"row_blocks": []}
        self.groups: list[list[_Template]] = []

    def var(self, role: VarRole, key: tuple[str, ...]) -> int:
        """The column of ``(role, key)`` at t=1."""
        return self.first[(role, key)]

    def flows(self, keys: list[tuple[str, str]], coef: float) -> list[tuple[int, float]]:
        return [(self.first[(VarRole.FLOW, key)], coef) for key in keys]

    # -- variables -------------------------------------------------------

    def create_variables(self) -> None:
        """Bounds and objective cost per column, and one name block per
        ``(role, key)``."""
        steps = range(1, self.T + 1)
        blocks: dict[tuple[VarRole, tuple[str, ...]], tuple] = {}

        def series(role, key, lower=0.0, upper=INF, integrality=False, cost=0.0, times=steps):
            blocks[(role, key)] = (lower, upper, integrality, cost, times)

        for key in self.arc_keys:
            arc = self.system.arcs[key]
            series(VarRole.FLOW, key, lower=-INF if arc.two_sided else 0.0, cost=arc.op_cost)
        for a in self.assets:
            if a.kind is AssetKind.STORAGE:
                series(VarRole.STORAGE_LEVEL, (a.id,), upper=a.storage_capacity_mwh)
            if a.investable:
                upper = INF if a.invest_limit is None else float(a.invest_limit)
                series(VarRole.INVEST, (a.id,), upper=upper, cost=a.invest_cost, times=(None,))
            if self.uc and a.uc_enabled:
                series(VarRole.UNITS_ON, (a.id,), integrality=True)
                series(VarRole.FLOW_ABOVE_MIN, (a.id,))
        if self.dc_opf:
            angle_assets = [a.id for a in self.assets if a.voltage_angle_enabled]
            for rank, asset in enumerate(angle_assets):
                # first angle-enabled asset is the reference bus
                lo, up = (0.0, 0.0) if rank == 0 else (-INF, INF)
                series(VarRole.VOLTAGE_ANGLE, (asset,), lower=lo, upper=up)
        order = sorted(blocks, key=lambda rk: (rk[0].value, rk[1]))
        lower, upper, integral, cost, times = zip(*map(blocks.get, order)) if order else [()] * 5
        counts = [len(ts) for ts in times]
        self.first = dict(zip(order, np.cumsum([0, *counts]).tolist()))
        self.store.update(
            lower=np.repeat(np.array(lower, float), counts),
            upper=np.repeat(np.array(upper, float), counts),
            integral=np.repeat(np.array(integral, bool), counts),
            cost=np.repeat(np.array(cost, float), counts),
            col_blocks=[(*rk, ts) for rk, ts in zip(order, times)],
        )

    # -- rows ------------------------------------------------------------

    def instantiate(self, templates: list[_Template]) -> None:
        """Record a group of templates whose rows come timestep-major: every
        template's row at t=1, then every one at t=2, and so on."""
        self.groups.append(templates)
        self.store["row_blocks"].append(([tpl.prefix for tpl in templates], range(1, self.T + 1)))

    def _fill(self, templates: list[_Template], r: int, k: int) -> tuple[int, int]:
        """Write the rows of one group into the store's arrays from row ``r``
        and term ``k`` on; return where the next group starts.

        Row-major, the terms of the group's T rows are a (T, terms) array:
        all templates' terms side by side, a moving term's column one
        further on each row, a lagged term's coefficient 0 at t=1.  Then
        the terms of coefficient 0 are dropped in place.
        """
        terms = [term for tpl in templates for term in tpl.terms]
        T, R, L, store = self.T, len(templates), len(terms), self.store
        js = np.array([j for j, _ in terms], np.int64)
        coefs = [coef for _, coef in terms]
        per_step = [q for q, coef in enumerate(coefs) if np.ndim(coef)]

        cols = store["indices"][k:k + T * L].reshape(T, L)
        cols[:] = js
        cols += np.arange(T)[:, None]
        cols[:, per_step] = js[per_step]
        data = store["data"][k:k + T * L].reshape(T, L)
        _spread(data, coefs)
        data[0, [q == tpl.lag_at for tpl in templates for q in range(len(tpl.terms))]] = 0.0
        ends = store["indptr"][r + 1:r + 1 + T * R].reshape(T, R)
        ends[:] = np.cumsum([len(tpl.terms) for tpl in templates])
        ends += (k + L * np.arange(T))[:, None]
        if not data.all():  # every row had a term, so no row ends at k
            keep = data.ravel() != 0
            kept = np.cumsum(keep)
            ends[:] = k + kept[ends - (k + 1)]
            for key in ("indices", "data"):
                store[key][k:ends[-1, -1]] = store[key][k:k + T * L][keep]
        store["family"][r:r + T * R].reshape(T, R)[:] = [
            FAMILIES.index(tpl.family) for tpl in templates]
        for key, side in (("row_lo", "lo"), ("row_hi", "hi")):
            _spread(store[key][r:r + T * R].reshape(T, R),
                    [getattr(tpl, side) for tpl in templates])
        return r + T * R, int(store["indptr"][r + T * R])

    def emit_balances(self) -> None:
        for kind, bal in _BALANCE.items():
            templates = []
            for a in self.assets:
                ins, outs = self.adj[a.id]
                if a.kind is not kind or not (ins or outs or kind is AssetKind.STORAGE):
                    continue
                w_in, w_out = bal.weights(a)
                terms = self.flows(ins, w_in) + self.flows(outs, w_out)
                lag_at = None
                if kind is AssetKind.STORAGE:
                    level = self.var(VarRole.STORAGE_LEVEL, (a.id,))
                    terms = [(level, 1.0), (level - 1, -1.0), *terms]
                    lag_at = 1
                rhs = bal.rhs(a, self.T)
                templates.append(_Template(
                    bal.family, f"{bal.prefix}_{a.id}", rhs, rhs, terms, lag_at=lag_at))
            if templates:
                self.instantiate(templates)

    def _capacity(
        self, asset: Asset, keys: list[tuple[str, str]], avails: np.ndarray,
        family: RowFamily, prefix: str,
    ) -> list[_Template]:
        """Flows through ``keys`` within the asset's capacity, scaled by ``avails``."""
        if not keys or asset.capacity_mw is None:
            return []
        cap = asset.capacity_mw
        terms = self.flows(keys, 1.0)
        if asset.investable:
            terms.append((self.var(VarRole.INVEST, (asset.id,)), -cap * avails))
        return [_Template(family, prefix, -INF, cap * avails * asset.initial_units, terms)]

    def _flow_bound(self, key: tuple[str, str]) -> list[_Template]:
        """``-max_bwd_mw <= flow <= max_fwd_mw``; a one-sided flow has no low bound."""
        arc = self.system.arcs[key]
        lo = -arc.max_bwd_mw if arc.two_sided else -INF
        if arc.max_fwd_mw is None and (lo == -INF or arc.dc_params is not None and lo == 0):
            # an unbounded flow needs no row at all, and a DC line with no
            # cap given runs either way, as its angles set
            return []
        hi = INF if arc.max_fwd_mw is None else arc.max_fwd_mw
        terms = [(self.var(VarRole.FLOW, key), 1.0)]
        return [_Template(RowFamily.FLOW_BOUND, f"fb_{key[0]}_{key[1]}", lo, hi, terms)]

    def _dc_angle(self, key: tuple[str, str]) -> list[_Template]:
        dc = self.system.arcs[key].dc_params
        if dc is None:
            return []
        for endpoint in key:
            if not self.system.assets[endpoint].voltage_angle_enabled:
                raise MissingAngleAsset(f"arc {key}: endpoint {endpoint!r} has no voltage angle")
        u, v = key
        b = dc.susceptance
        terms = [
            (self.var(VarRole.FLOW, key), 1.0),
            (self.var(VarRole.VOLTAGE_ANGLE, (u,)), -b),
            (self.var(VarRole.VOLTAGE_ANGLE, (v,)), b),
        ]
        return [_Template(RowFamily.DC_ANGLE, f"dc_{u}_{v}", 0.0, 0.0, terms)]

    def _unit_commitment(self, a: Asset) -> list[_Template]:
        u_j = self.var(VarRole.UNITS_ON, (a.id,))
        fa_j = self.var(VarRole.FLOW_ABOVE_MIN, (a.id,))
        units = [(u_j, 1.0)]
        if a.investable:
            units.append((self.var(VarRole.INVEST, (a.id,)), np.full(self.T, -1.0)))
        cap = (a.capacity_mw or 0.0) - a.min_capacity_mw
        return [
            _Template(
                RowFamily.UC_MIN_OPER, f"ucm_{a.id}", 0.0, 0.0,
                [(fa_j, 1.0), *self.flows(self.adj[a.id][1], -1.0), (u_j, a.min_capacity_mw)],
            ),
            _Template(RowFamily.UC_LIMIT, f"ucl_{a.id}", -INF, a.initial_units, units),
            _Template(RowFamily.UC_MAX_ABOVE, f"uca_{a.id}", -INF, 0.0, [(fa_j, 1.0), (u_j, -cap)]),
        ]

    def limit_templates(self) -> list[_Template]:
        """Every per-timestep row after the balances, in emission order."""
        table = []
        for a in self.assets:
            if a.kind not in (AssetKind.HUB, AssetKind.TRANSPORT, AssetKind.CONSUMER):
                table += self._capacity(
                    a, self.adj[a.id][1], _tiled(a.availability_profile, self.T),
                    RowFamily.CAPACITY_LIMIT, f"cap_{a.id}",
                )
        storages = [a for a in self.assets if a.kind is AssetKind.STORAGE]
        for a in storages:
            table += self._capacity(
                a, self.adj[a.id][0], np.ones(self.T), RowFamily.CHARGING_LIMIT, f"chg_{a.id}"
            )
        for a in storages:
            level = [(self.var(VarRole.STORAGE_LEVEL, (a.id,)), 1.0)]
            table.append(_Template(
                RowFamily.STORAGE_CAPACITY, f"scap_{a.id}", -INF, a.storage_capacity_mwh, level))
        for key in self.arc_keys:
            table += self._flow_bound(key)
        if self.dc_opf:
            for key in self.arc_keys:
                table += self._dc_angle(key)
        if self.uc:
            for a in self.assets:
                if a.uc_enabled:
                    table += self._unit_commitment(a)
        return table

    def build(self) -> LpInstance:
        self.create_variables()
        self.emit_balances()
        self.instantiate(self.limit_templates())
        m = self.T * sum(map(len, self.groups))
        nnz = self.T * sum(len(tpl.terms) for templates in self.groups for tpl in templates)
        self.store.update(
            indptr=np.zeros(m + 1, np.int64), indices=np.empty(nnz, np.int64),
            data=np.empty(nnz), family=np.empty(m, np.int8),
            row_lo=np.empty(m), row_hi=np.empty(m),
        )
        r = k = 0
        for templates in self.groups:
            r, k = self._fill(templates, r, k)
        self.store.update(indices=self.store["indices"][:k], data=self.store["data"][:k])
        lp = LpInstance.from_store(self.system.name, **self.store)
        lp.check()
        return lp


def _spread(out: np.ndarray, values: list) -> None:
    """Set column p of ``out`` to ``values[p]``: one value on every row, or
    a value per timestep."""
    out[:] = [value if np.ndim(value) == 0 else 0.0 for value in values]
    for p, value in enumerate(values):
        if np.ndim(value):
            out[:, p] = value


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
