"""CSV bundle export and ingestion for energy systems.

A bundle is a directory of UTF-8 CSV files with mandatory header rows and
a decimal point; an empty cell means "absent":

* ``assets.csv`` — id, kind, capacity_mw, min_capacity_mw, initial_units,
  investable, invest_limit, invest_cost, storage_capacity_mwh,
  initial_storage_mwh, eta_in, eta_out, uc, dc
* ``flows.csv`` — from, to, max_fwd_mw, max_bwd_mw, op_cost, reactance_pu,
  s_base_mva
* ``hubs.csv`` — hub_id, asset_id, direction
* ``forbidden.csv`` — hub_id, source, sink
* ``profiles.csv`` — asset_id, timestep, value
* ``port_caps.csv`` — hub_id, asset_id, direction, cap_mw (schema
  extension: hub port capacities have no column in the core schema)

Two encoding conventions keep the round trip lossless.  In ``flows.csv``
an *empty* ``max_bwd_mw`` cell is a plain one-way arc, while an explicit
``0.0`` marks a two-sided arc whose backward capacity happens to be zero
(the bound is still written as a range).  In ``profiles.csv`` a row
attaches to the demand profile when the asset is a consumer and to the
availability profile otherwise; no asset carries both.

Export is deterministic: rows are emitted in sorted order with
shortest-repr floats, so identical systems produce byte-identical bundles.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Optional

from .errors import IoFailure, ParseError
from .model import Asset, AssetKind, DcFlowParams, EnergySystem, FlowArc, HubAnnotation

#: ``assets.csv`` per column: the :class:`Asset` field it holds, its cell
#: type and what an empty cell reads as
_ASSET_SCHEMA = (
    ("id", "id", str, ""),
    ("kind", "kind", AssetKind, None),
    ("capacity_mw", "capacity_mw", float, None),
    ("min_capacity_mw", "min_capacity_mw", float, 0.0),
    ("initial_units", "initial_units", int, 1),
    ("investable", "investable", bool, False),
    ("invest_limit", "invest_limit", int, None),
    ("invest_cost", "invest_cost", float, 0.0),
    ("storage_capacity_mwh", "storage_capacity_mwh", float, None),
    ("initial_storage_mwh", "initial_storage_mwh", float, 0.0),
    ("eta_in", "eta_in", float, 1.0),
    ("eta_out", "eta_out", float, 1.0),
    ("uc", "uc_enabled", bool, False),
    ("dc", "voltage_angle_enabled", bool, False),
)
ASSET_COLUMNS = tuple(column for column, *_ in _ASSET_SCHEMA)
FLOW_COLUMNS = ("from", "to", "max_fwd_mw", "max_bwd_mw", "op_cost",
                "reactance_pu", "s_base_mva")
HUB_COLUMNS = ("hub_id", "asset_id", "direction")
FORBIDDEN_COLUMNS = ("hub_id", "source", "sink")
PROFILE_COLUMNS = ("asset_id", "timestep", "value")
PORT_CAP_COLUMNS = ("hub_id", "asset_id", "direction", "cap_mw")


def _cell(value) -> str:
    """Render one cell; None becomes the empty (absent) cell."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, AssetKind):
        return value.value
    return str(value)


def _write_rows(path: Path, header: tuple[str, ...], rows) -> None:
    try:
        with path.open("w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow([_cell(v) for v in row])
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def export_case(system: EnergySystem, directory: str | Path) -> list[Path]:
    """Write ``system`` as a CSV bundle into ``directory``.

    Returns the list of files written.  Arcs with ``via_hubs`` are not
    expressible in the core schema and are rejected.
    """
    for arc in system.arcs.values():
        if arc.via_hubs:
            raise IoFailure(f"arc {arc.key} uses via_hubs; not expressible in the CSV schema")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    asset_rows = []
    profile_rows = []
    for asset in sorted(system.assets.values(), key=lambda a: a.id):
        asset_rows.append([getattr(asset, field) for _, field, _, _ in _ASSET_SCHEMA])
        profile = asset.demand_profile if asset.kind is AssetKind.CONSUMER \
            else asset.availability_profile
        if profile is not None:
            for t, value in enumerate(profile, start=1):
                profile_rows.append((asset.id, t, float(value)))

    flow_rows = []
    for key in sorted(system.arcs):
        arc = system.arcs[key]
        if arc.two_sided:
            bwd = float(arc.max_bwd_mw)
        else:
            bwd = None  # empty cell: plain one-way arc
        dc = arc.dc_params
        flow_rows.append((
            arc.from_asset, arc.to_asset, arc.max_fwd_mw, bwd, arc.op_cost,
            dc.reactance_pu if dc else None, dc.s_base_mva if dc else None,
        ))

    hub_rows, forbidden_rows, port_cap_rows = [], [], []
    for hub_id in sorted(system.hubs):
        hub = system.hubs[hub_id]
        hub_rows.extend((hub_id, a, d) for a, d in hub.member_ports)
        forbidden_rows.extend((hub_id, s, k) for s, k in hub.forbidden_routes)
        port_cap_rows.extend((hub_id, a, d, float(c)) for a, d, c in hub.port_caps)

    written = []
    for name, header, rows in (
        ("assets.csv", ASSET_COLUMNS, asset_rows),
        ("flows.csv", FLOW_COLUMNS, flow_rows),
        ("hubs.csv", HUB_COLUMNS, hub_rows),
        ("forbidden.csv", FORBIDDEN_COLUMNS, forbidden_rows),
        ("profiles.csv", PROFILE_COLUMNS, profile_rows),
        ("port_caps.csv", PORT_CAP_COLUMNS, port_cap_rows),
    ):
        path = directory / name
        _write_rows(path, header, rows)
        written.append(path)
    return written


def _read_rows(path: Path, header: tuple[str, ...], required: bool) -> list[dict[str, str]]:
    if not path.exists():
        if required:
            raise ParseError(f"missing required file {path}")
        return []
    try:
        with path.open("r", encoding="utf-8", newline="") as handle:
            reader = csv.reader(handle)
            try:
                found = next(reader)
            except StopIteration:
                raise ParseError(f"{path}: header row is mandatory") from None
            if tuple(found) != header:
                raise ParseError(f"{path}: expected header {','.join(header)}, "
                                 f"got {','.join(found)}")
            rows = []
            for lineno, row in enumerate(reader, start=2):
                if len(row) != len(header):
                    raise ParseError(f"{path}:{lineno}: expected {len(header)} cells")
                rows.append(dict(zip(header, row)))
            return rows
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc


#: per cell type: how a cell is read, and what one that cannot be read is
_READ = {
    str: (str, ""),
    AssetKind: (AssetKind, "unknown kind"),
    float: (float, "not a number:"),
    int: (int, "not an integer:"),
    bool: ({"true": True, "false": False}.__getitem__, "expected true/false, got"),
}


def _read(cell: str, where: str, kind: type = float, default=None):
    """``cell`` read as a ``kind``, or ``default`` if it is empty; a kind
    cell is never empty."""
    if cell == "" and kind is not AssetKind:
        return default
    parse, fault = _READ[kind]
    try:
        return parse(cell)
    except (KeyError, ValueError):
        raise ParseError(f"{where}: {fault} {cell!r}") from None


def load_case(directory: str | Path, horizon_t: Optional[int] = None,
              name: Optional[str] = None) -> EnergySystem:
    """Read a CSV bundle back into an :class:`EnergySystem`.

    When ``horizon_t`` is omitted it is taken as the largest timestep in
    ``profiles.csv`` (every bundled case carries at least one profile).
    """
    directory = Path(directory)
    assets = _read_rows(directory / "assets.csv", ASSET_COLUMNS, required=True)
    flows = _read_rows(directory / "flows.csv", FLOW_COLUMNS, required=True)
    hubs = _read_rows(directory / "hubs.csv", HUB_COLUMNS, required=False)
    forbidden = _read_rows(directory / "forbidden.csv", FORBIDDEN_COLUMNS, required=False)
    profiles = _read_rows(directory / "profiles.csv", PROFILE_COLUMNS, required=False)
    port_caps = _read_rows(directory / "port_caps.csv", PORT_CAP_COLUMNS, required=False)

    series: dict[str, dict[int, float]] = {}
    for row in profiles:
        where = f"profiles.csv ({row['asset_id']})"
        t = _read(row["timestep"], where, int)
        value = _read(row["value"], where)
        if t is None or value is None or t < 1:
            raise ParseError(f"{where}: timestep and value are mandatory")
        series.setdefault(row["asset_id"], {})[t] = value
    if horizon_t is None:
        if not series:
            raise ParseError("horizon_t not given and profiles.csv has no rows")
        horizon_t = max(max(points) for points in series.values())

    system = EnergySystem(horizon_t=horizon_t, name=name or directory.name)
    for row in assets:
        where = f"assets.csv ({row['id']})"
        fields = {field: _read(row[column], where, kind, default)
                  for column, field, kind, default in _ASSET_SCHEMA}
        profile = None
        if row["id"] in series:
            points = series[row["id"]]
            if set(points) != set(range(1, max(points) + 1)):
                raise ParseError(f"{where}: profile timesteps must be contiguous from 1")
            profile = tuple(points[t] for t in range(1, max(points) + 1))
        consumer = fields["kind"] is AssetKind.CONSUMER
        system.add_asset(Asset(**fields, demand_profile=profile if consumer else None,
                               availability_profile=None if consumer else profile))

    for row in flows:
        where = f"flows.csv ({row['from']}->{row['to']})"
        bwd = _read(row["max_bwd_mw"], where)
        reactance = _read(row["reactance_pu"], where)
        dc_params = None
        if reactance is not None:
            dc_params = DcFlowParams(reactance, _read(row["s_base_mva"], where, float, 100.0))
        system.add_flow(FlowArc(
            from_asset=row["from"], to_asset=row["to"],
            max_fwd_mw=_read(row["max_fwd_mw"], where),
            max_bwd_mw=bwd or 0.0,
            op_cost=_read(row["op_cost"], where, float, 0.0),
            dc_params=dc_params,
            two_sided=bwd is not None,  # explicit 0.0 = zero-backward range
        ))

    ports: dict[str, list[tuple[str, str]]] = {}
    for row in hubs:
        ports.setdefault(row["hub_id"], []).append((row["asset_id"], row["direction"]))
    routes: dict[str, list[tuple[str, str]]] = {}
    for row in forbidden:
        routes.setdefault(row["hub_id"], []).append((row["source"], row["sink"]))
    caps: dict[str, list[tuple[str, str, float]]] = {}
    for row in port_caps:
        where = f"port_caps.csv ({row['hub_id']})"
        cap = _read(row["cap_mw"], where)
        if cap is None:
            raise ParseError(f"{where}: cap_mw is mandatory")
        caps.setdefault(row["hub_id"], []).append((row["asset_id"], row["direction"], cap))
    for hub_id in ports:
        system.add_hub(HubAnnotation(
            id=hub_id, member_ports=tuple(ports[hub_id]),
            forbidden_routes=tuple(routes.get(hub_id, ())),
            port_caps=tuple(caps.get(hub_id, ())),
        ))
    for hub_id in set(routes) | set(caps):
        if hub_id not in ports:
            raise ParseError(f"hub {hub_id!r} has routes or caps but no member ports")
    return system
