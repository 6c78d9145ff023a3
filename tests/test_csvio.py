"""CSV bundle round trips, encoding conventions, and the frozen fixture."""

import csv
import filecmp
from pathlib import Path

import pytest

from flowgraph import (
    ALL_APPROACHES,
    Asset,
    AssetKind,
    CaseSpec,
    DcFlowParams,
    EnergySystem,
    FlowArc,
    build_model,
    export_case,
    hybrid_fixture,
    load_case,
    scale_horizon,
    size_report,
    tri_area_case,
)
from flowgraph.cli import main
from flowgraph.errors import InvariantViolation, IoFailure, ParseError

FIXTURE = Path(__file__).resolve().parent.parent / "src" / "flowgraph" / \
    "fixtures" / "tri_area_t24"
BUNDLE_FILES = ("assets.csv", "flows.csv", "hubs.csv", "forbidden.csv",
                "profiles.csv", "port_caps.csv")


class TestRoundTrip:
    @pytest.mark.parametrize("system", [hybrid_fixture(),
                                        scale_horizon(tri_area_case(CaseSpec()), 24)],
                             ids=["hybrid", "tri-area"])
    def test_export_load_export_is_byte_identical(self, system, tmp_path):
        export_case(system, tmp_path / "one")
        back = load_case(tmp_path / "one")
        export_case(back, tmp_path / "two")
        for name in BUNDLE_FILES:
            assert filecmp.cmp(tmp_path / "one" / name, tmp_path / "two" / name,
                               shallow=False), name

    def test_reloaded_system_builds_identically(self, tmp_path):
        system = scale_horizon(tri_area_case(CaseSpec()), 12)
        export_case(system, tmp_path)
        back = load_case(tmp_path)
        assert back.horizon_t == 12
        for approach in ALL_APPROACHES:
            assert size_report(build_model(back, approach)).as_tuple() == \
                size_report(build_model(system, approach)).as_tuple()

    def test_horizon_recovered_from_profiles(self, tmp_path):
        export_case(scale_horizon(hybrid_fixture(), 7), tmp_path)
        assert load_case(tmp_path).horizon_t == 7


class TestEncodingConventions:
    def _pipeline_system(self):
        sy = EnergySystem(horizon_t=2)
        sy.add_asset(Asset(id="g", kind=AssetKind.PRODUCER, capacity_mw=5.0))
        sy.add_asset(Asset(id="d", kind=AssetKind.CONSUMER, demand_profile=(1.0, 2.0)))
        sy.add_flow(FlowArc("g", "d", max_fwd_mw=4.0, two_sided=True))
        return sy

    def test_zero_backward_interval_round_trips(self, tmp_path):
        export_case(self._pipeline_system(), tmp_path)
        flows = (tmp_path / "flows.csv").read_text().splitlines()
        assert flows[1].split(",")[3] == "0.0"  # explicit zero, not empty
        back = load_case(tmp_path)
        arc = back.arcs[("g", "d")]
        assert arc.two_sided and arc.max_bwd_mw == 0.0

    def test_plain_arc_has_empty_backward_cell(self, tmp_path):
        sy = self._pipeline_system()
        sy.arcs[("g", "d")] = FlowArc("g", "d", max_fwd_mw=4.0)
        export_case(sy, tmp_path)
        flows = (tmp_path / "flows.csv").read_text().splitlines()
        assert flows[1].split(",")[3] == ""
        assert not load_case(tmp_path).arcs[("g", "d")].two_sided

    def test_dc_params_round_trip(self, tmp_path):
        sy = self._pipeline_system()
        sy.arcs[("g", "d")] = FlowArc("g", "d",
                                      dc_params=DcFlowParams(0.25, s_base_mva=50.0))
        export_case(sy, tmp_path)
        arc = load_case(tmp_path).arcs[("g", "d")]
        assert arc.dc_params == DcFlowParams(0.25, s_base_mva=50.0)

    def test_via_hubs_rejected(self, tmp_path):
        sy = self._pipeline_system()
        sy.hubs["h"] = None  # placeholder; via_hubs is the point
        sy.arcs[("g", "d")] = FlowArc("g", "d", via_hubs=("h",))
        with pytest.raises(IoFailure):
            export_case(sy, tmp_path)


class TestParseErrors:
    def _minimal(self, tmp_path) -> Path:
        export_case(scale_horizon(hybrid_fixture(), 2), tmp_path)
        return tmp_path

    def test_missing_required_file(self, tmp_path):
        path = self._minimal(tmp_path)
        (path / "assets.csv").unlink()
        with pytest.raises(ParseError, match="missing required"):
            load_case(path)

    def test_wrong_header_rejected(self, tmp_path):
        path = self._minimal(tmp_path)
        text = (path / "flows.csv").read_text().splitlines()
        text[0] = "src,dst,cap"
        (path / "flows.csv").write_text("\n".join(text) + "\n")
        with pytest.raises(ParseError, match="expected header"):
            load_case(path)

    def test_empty_file_rejected(self, tmp_path):
        path = self._minimal(tmp_path)
        (path / "assets.csv").write_text("")
        with pytest.raises(ParseError, match="header row is mandatory"):
            load_case(path)

    def test_unknown_kind_rejected(self, tmp_path):
        path = self._minimal(tmp_path)
        text = (path / "assets.csv").read_text().replace(",storage,", ",warehouse,")
        (path / "assets.csv").write_text(text)
        with pytest.raises(ParseError, match="unknown kind"):
            load_case(path)

    def test_gappy_profile_rejected(self, tmp_path):
        path = self._minimal(tmp_path)
        lines = (path / "profiles.csv").read_text().splitlines()
        del lines[1]
        (path / "profiles.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="contiguous"):
            load_case(path)

    def test_bad_number_rejected(self, tmp_path):
        path = self._minimal(tmp_path)
        text = (path / "assets.csv").read_text().replace("12.0", "twelve")
        (path / "assets.csv").write_text(text)
        with pytest.raises(ParseError, match="not a number"):
            load_case(path)


def _dc_line_system():
    sy = EnergySystem(horizon_t=2)
    sy.add_asset(Asset(id="g", kind=AssetKind.PRODUCER, capacity_mw=5.0))
    sy.add_asset(Asset(id="d", kind=AssetKind.CONSUMER, demand_profile=(1.0, 2.0)))
    sy.add_flow(FlowArc("g", "d", dc_params=DcFlowParams(0.25)))
    return sy


ZERO_CELLS = pytest.mark.parametrize("system,file,key,column", [
    (hybrid_fixture, "assets.csv", "bt", "eta_in"),
    (hybrid_fixture, "assets.csv", "bt", "eta_out"),
    (_dc_line_system, "flows.csv", "g", "s_base_mva"),
], ids=["eta_in", "eta_out", "s_base_mva"])


class TestZeroIsNotADefault:
    """An explicit 0 in a cell with a default is read as 0, not as the
    default, so an invalid zero is reported instead of silently replaced."""

    @staticmethod
    def _zeroed(path, system, file, key, column) -> Path:
        export_case(system(), path)
        with open(path / file, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        col = rows[0].index(column)
        for row in rows[1:]:
            if row[0] == key:
                row[col] = "0"
        with open(path / file, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(rows)
        return path

    @ZERO_CELLS
    def test_zero_raises_on_load(self, tmp_path, system, file, key, column):
        path = self._zeroed(tmp_path, system, file, key, column)
        with pytest.raises(InvariantViolation):
            load_case(path)

    @ZERO_CELLS
    def test_zero_fails_validate(self, tmp_path, system, file, key, column, capsys):
        path = self._zeroed(tmp_path, system, file, key, column)
        assert main(["validate", "--case", f"csv:{path}"]) == 1


class TestFrozenFixture:
    """The tuned topology is frozen as a checked-in CSV bundle; the live
    generator must keep producing it byte for byte."""

    def test_fixture_exists(self):
        for name in BUNDLE_FILES:
            assert (FIXTURE / name).is_file(), name

    def test_generator_matches_fixture(self, tmp_path):
        export_case(scale_horizon(tri_area_case(CaseSpec(seed=13, instance=1)), 24),
                    tmp_path)
        for name in BUNDLE_FILES:
            assert filecmp.cmp(tmp_path / name, FIXTURE / name, shallow=False), name

    def test_fixture_loads_and_builds(self):
        system = load_case(FIXTURE)
        assert system.validate() == []
        size = size_report(build_model(system, ALL_APPROACHES[1]))
        assert size.n_constraints == 65 * 24  # frozen per-timestep count
