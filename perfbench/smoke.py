"""Smoke test of the benchmark at a tiny horizon.

Run from the root of a checkout:

    python3 perfbench/smoke.py

It checks that each workload, cut to T=4, emits every end-to-end and
per-layer metric that BENCHMARK.json names; that a run against correct
pins reports no failed operation; that a wrong pinned MPS digest or
objective is counted as a failed operation; and that the benchmark exits
non-zero, printing no result, when the flowgraph sources are missing.
Exits 0 when every check passes.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
TINY_T = 4

sys.path[:0] = [str(SRC), str(HERE)]
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)

import workloads  # noqa: E402
from flowgraph import (  # noqa: E402
    ALL_APPROACHES,
    Approach,
    CaseSpec,
    build_model,
    mps_string,
    scale_horizon,
    solve_reference,
    tri_area_case,
)


def tiny_pins(workload: workloads.Workload) -> tuple[dict, float]:
    """Correct digests and optimum of the tiny case at the default seed."""
    case = scale_horizon(tri_area_case(CaseSpec(seed=workloads.DEFAULT_SEED,
                                                instance=workload.instance)), TINY_T)
    digests = {a.value: hashlib.sha256(mps_string(build_model(case, a)).encode()).hexdigest()
               for a in ALL_APPROACHES}
    objective = solve_reference(build_model(case, Approach.ONE_BB_1F)).objective
    return digests, objective


def run_tiny(workload: workloads.Workload, trace: bool, workdir: Path) -> dict:
    lines: list[str] = []
    result = workloads.execute(workload, workloads.DEFAULT_SEED, 0.0, trace, 0.0,
                               workdir, workdir, log=lines.append)
    json.dumps(result)  # the result must serialize as the contract's JSON line
    return result


def bare_directory_refused(scratch: Path) -> bool:
    """The benchmark alone, without src/, must fail without a result line."""
    bare = scratch / "bare"
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "build-i1", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    return proc.returncode != 0 and '"metrics"' not in proc.stdout


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {
        False: {m["name"]: m["unit"] for m in declared["end_to_end"]},
        True: {m["name"]: m["unit"] for m in declared["per_layer"]},
    }
    failures: list[str] = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
        if not ok:
            failures.append(what)

    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="smoke-", dir=OUT))
    tempfile.tempdir = str(scratch)
    try:
        for name, full in workloads.WORKLOADS.items():
            digests, objective = tiny_pins(full)
            good = replace(full, horizon=TINY_T,
                           digests=digests if full.digests else {},
                           objective=objective if full.objective is not None else None)
            for trace in (False, True):
                result = run_tiny(good, trace, scratch)
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                mode = "traced" if trace else "untraced"
                expect(got == want[trace], f"{name} {mode}: every declared metric, with its unit")
                expect(result["failed"] == 0 and result["correct"],
                       f"{name} {mode}: no failed operation against correct pins")
            bad = replace(good, digests={k: "0" * 64 for k in good.digests},
                          objective=None if good.objective is None else good.objective * 1.01)
            result = run_tiny(bad, False, scratch)
            expect(result["failed"] == len(ALL_APPROACHES) and not result["correct"],
                   f"{name}: a wrong pinned digest or objective fails every operation "
                   f"({result['failed']}/{result['attempted']})")
        expect(bare_directory_refused(scratch), "refused without the flowgraph sources")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(f"smoke: {len(failures)} failed check(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
