"""Case bundles and LP files survive round trips losslessly.

Exports the tri-area case to a CSV bundle, reloads it, and shows the
rebuilt LP is identical; then writes the LP as free-format MPS and
re-reads it with the independent parser from the external-solver adapter
to confirm the counts and the optimum survive the file format.

Run:  python3 demos/05_round_trip.py
"""

import tempfile
from pathlib import Path

from flowgraph import (
    Approach,
    CaseSpec,
    build_model,
    export_case,
    load_case,
    scale_horizon,
    size_report,
    solve_reference,
    tri_area_case,
    write_mps,
)
from flowgraph.highs_adapter import parse_free_mps, solve as highs_solve

system = scale_horizon(tri_area_case(CaseSpec()), 24)
with tempfile.TemporaryDirectory() as tmp:
    bundle = Path(tmp) / "case"
    export_case(system, bundle)
    print("exported:", ", ".join(sorted(p.name for p in bundle.iterdir())))
    reloaded = load_case(bundle)

    original = build_model(system, Approach.ONE_BB_1F)
    rebuilt = build_model(reloaded, Approach.ONE_BB_1F)
    print("sizes identical after CSV round trip:",
          size_report(original).as_tuple() == size_report(rebuilt).as_tuple())

    mps = Path(tmp) / "model.mps"
    write_mps(original, str(mps))
    parsed = parse_free_mps(str(mps))
    print(f"MPS re-read: {len(parsed.col_names)} columns, "
          f"{len(parsed.row_names)} rows, {parsed.indptr[-1]} nonzeros")

    ours = solve_reference(original)
    _, theirs = highs_solve(str(mps))
    print(f"bundled simplex {ours.objective:.6f} vs external engine "
          f"{theirs.fun:.6f} on the written file")
