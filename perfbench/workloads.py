"""Workloads, timed passes and output checks of the flowgraph benchmark.

Every call into flowgraph goes through its public API, from outside.  A
pass runs one operation per approach; an operation is one approach's
chain (build -> size report -> MPS file, or build -> solve -> primal
check).  The pass time is the pass's wall time minus the input generation
(the column permutation), output checks and probes run inside it.

An operation fails when a ``FlowgraphError`` is raised, when the solve
status is not optimal, or when one of its output checks fails.  A failed
operation is recorded and the run goes on.
"""

from __future__ import annotations

import hashlib
import os
import random
import resource
import statistics
import sys
import time
import tracemalloc
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Optional

import numpy as np
import scipy

import flowgraph
from flowgraph import (
    ALL_APPROACHES,
    Approach,
    CaseSpec,
    EnergySystem,
    ExternalSolverSpec,
    FlowgraphError,
    LpInstance,
    ModelSize,
    build_model,
    check_primal,
    export_case,
    load_case,
    lower_to_node_form,
    median_speedup,
    mps_string,
    scale_horizon,
    size_report,
    solve_external,
    solve_reference,
    tri_area_case,
    two_sample_t_test,
    write_mps,
)
from flowgraph import highs_adapter
from flowgraph.errors import DegenerateVariance

from spans import Tracer

#: case seed the digests and objectives below were pinned at (CaseSpec's default)
DEFAULT_SEED = 13
#: seed kept out of tuning; a claimed gain must also hold on it
HELD_OUT_SEED = 29
SETUP_REPEATS = 3
WARMUP_T = 24
OBJ_RTOL = 1e-6
#: pass k of an untraced run solves the case generated at seed + k * CASE_STRIDE,
#: so a run's median pass spans several cases, not one seed's luck
CASE_STRIDE = 1000

#: model size as (per timestep, constant) for variables, constraints and
#: nonzeros, pinned from flowgraph 1.0.0; it holds for every case seed
SIZE_PINS = {
    "3BB-4F": ((59, 12), (71, 0), (147, -3)),
    "2BB-2F": ((45, 12), (65, 0), (135, -3)),
    "2BB-1F": ((38, 12), (55, 0), (114, -3)),
    "1BB-1F": ((32, 12), (41, 0), (98, -3)),
}

#: the external solver: scipy's HiGHS behind the MPS-file bridge
HIGHS_SPEC = ExternalSolverSpec(
    executable=sys.executable,
    args=("-m", "flowgraph.highs_adapter", "{mps}", "{out}", "{seed}"),
)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "build", "simplex" or "oracle"
    instance: int
    horizon: Optional[int] = None  # None keeps the instance's own horizon
    digests: dict = field(default_factory=dict)  # approach -> MPS sha256 at DEFAULT_SEED
    objective: Optional[float] = None  # optimum at DEFAULT_SEED


WORKLOADS = {
    w.name: w
    for w in (
        # Paper instance 1: lowering, row emission and MPS writing do the
        # work; no solver runs.  Instance 2 takes ~25 s per pass, so a run
        # would time a single pass.
        Workload(
            "build-i1", "build", instance=1,
            digests={
                "3BB-4F": "de3ce67e2763011774387fb5abe3ae49a751b0dee1f9dbceb6c9d4411486e8b7",
                "2BB-2F": "a85ba0ef5fd391d009aa8e07e605e47b2d6ee500b75445606341de5d8218ad97",
                "2BB-1F": "0581ddfd31a37865830f83aade9259cba96337e787edf55ec98c4d7c0499d572",
                "1BB-1F": "574578ec3444c190a2f2808c199864c0838116983ded8fa2764b16933318a062",
            },
        ),
        # The reference simplex does ~97 % of the work; the build is tiny.
        Workload("simplex-t24", "simplex", instance=1, horizon=24,
                 objective=11762.363958382111),
        # MPS and CSV are written and parsed again; one solver process per
        # solve.  T stays small because the adapter builds a dense matrix.
        Workload(
            "oracle-t96", "oracle", instance=1, horizon=96,
            digests={
                "3BB-4F": "51680da8deea0ca82c79f609dcd274948ba6f71e3ce46489eec967ea1a314aac",
                "2BB-2F": "c2d0ae74acb147a4d8e67ce82972f171bfe94f2902ad12d916120839ab78b326",
                "2BB-1F": "d9012729ba03bf33f93201563a9dab0d6029a160a605a230da67dad936e7b1d3",
                "1BB-1F": "0b3ce28aa4a7853cec4829bd9bb3d5eed22196c4749a4dd195e7e1cb6a5c0ab0",
            },
            objective=38468.21373527822,
        ),
    )
}

END_TO_END = (("setup_s", "s"), ("pass_s", "s"), ("peak_rss_mb", "MB"))

PER_LAYER = (
    ("cases.generate_s", "s"),
    ("csvio.export_s", "s"),
    ("csvio.load_s", "s"),
    ("csvio.bytes", "bytes"),
    ("model.validate_s", "s"),
    ("formulation.lower_s", "s"),
    ("formulation.build_s", "s"),
    ("formulation.emit_s", "s"),
    ("formulation.rows", "count"),
    ("formulation.cols", "count"),
    ("formulation.nnz", "count"),
    ("formulation.peak_mb", "MB"),
    ("lp.check_s", "s"),
    ("lp.size_report_s", "s"),
    ("lp.mps_write_s", "s"),
    ("lp.mps_bytes", "bytes"),
    ("solver.reference_s", "s"),
    ("solver.iterations", "count"),
    ("solver.us_per_iteration", "us"),
    ("solver.check_primal_s", "s"),
    ("solver.primal_violations", "count"),
    ("solver.external_s", "s"),
    ("solver.launch_s", "s"),
    ("highs_adapter.parse_s", "s"),
    ("highs_adapter.solve_s", "s"),
    ("highs_adapter.child_peak_rss_mb", "MB"),
    ("bench.speedup_1bb1f", "ratio"),
    ("bench.ttest_p", "p"),
    ("trace.overhead_s", "s"),
)


def permute_columns(lp: LpInstance, rng: random.Random) -> LpInstance:
    """The same LP with its columns in a shuffled order."""
    order = list(range(len(lp.variables)))
    rng.shuffle(order)
    position = [0] * len(order)
    for new, old in enumerate(order):
        position[old] = new
    return LpInstance(
        name=lp.name,
        variables=[lp.variables[j] for j in order],
        rows=[replace(row, terms=sorted((position[j], c) for j, c in row.terms))
              for row in lp.rows],
        objective=sorted((position[j], c) for j, c in lp.objective),
    )


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def summarize(samples: list[float]) -> str:
    """Median and the highest percentile with at least ten samples beyond it."""
    n = len(samples)
    text = f"median {statistics.median(samples):.4f} s, n={n}"
    for p in (99.9, 99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            cut = statistics.quantiles(samples, n=1000, method="inclusive")[round(p * 10) - 1]
            return text + f", p{p:g} {cut:.4f} s"
    return text + ", no percentile has ten samples beyond it"


class Run:
    """One workload at one seed: setup, timed passes and their checks."""

    def __init__(self, workload: Workload, seed: int, workdir: Path, tracer: Tracer):
        self.w = workload
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.case_seed = seed
        self.attempted = 0
        self.problems: dict[tuple[str, str], list[str]] = {}
        self.pass_times: list[float] = []
        self.op_times: dict[str, list[float]] = {a.value: [] for a in ALL_APPROACHES}
        self.sizes: dict[str, ModelSize] = {}
        self.counts: dict[str, float] = {}
        self.setup_reps: list[float] = []
        self.timed_names = {"pass"}
        self._excluded = 0.0
        self._depth = 0

    # -- timing helpers --------------------------------------------------

    def timed(self, name: str, fn: Callable, *args):
        """Call ``fn`` as one step of an operation; ``last_s`` keeps its time."""
        self.timed_names.add(name)
        start = time.perf_counter()
        with self.tracer.span(name):
            out = fn(*args)
        self.last_s = time.perf_counter() - start
        return out

    def untimed(self, name: str, fn: Callable, *args):
        """Call ``fn`` for input generation, a check or a probe.

        Its time is taken out of the pass time; nested calls count once.
        """
        start = time.perf_counter()
        self._depth += 1
        try:
            with self.tracer.span(name):
                return fn(*args)
        finally:
            self._depth -= 1
            if not self._depth:
                self._excluded += time.perf_counter() - start

    @property
    def pinned(self) -> bool:
        """Whether the pinned digests and objective apply to the current case."""
        return self.case_seed == DEFAULT_SEED

    def count(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    # -- setup -----------------------------------------------------------

    def make_case(self) -> tuple[EnergySystem, EnergySystem]:
        """The case as generated, and the case the workload solves."""
        system = self.untimed("cases.tri_area_case", tri_area_case,
                              CaseSpec(seed=self.case_seed, instance=self.w.instance))
        if self.w.horizon is not None:
            system = self.untimed("cases.scale_horizon", scale_horizon, system, self.w.horizon)
        if self.w.kind != "oracle":
            return system, system
        bundle = self.workdir / "case"
        paths = self.untimed("csvio.export_case", export_case, system, bundle)
        self.csv_bytes = sum(p.stat().st_size for p in paths)
        loaded = self.untimed("csvio.load_case", load_case, bundle, None, system.name)
        return system, loaded

    def setup(self, import_s: float) -> None:
        """Generate the case and warm up, SETUP_REPEATS times."""
        for k in range(SETUP_REPEATS):
            self.tracer.pass_id = f"setup-{k}"
            start = time.perf_counter()
            direct, system = self.make_case()
            small = scale_horizon(system, WARMUP_T)
            self.OPS[self.w.kind](self, small, ALL_APPROACHES[0], False)
            self.setup_reps.append(time.perf_counter() - start)
        self.setup_s = import_s + statistics.median(self.setup_reps)
        self.direct, self.system = direct, system

    def next_case(self, pass_no: int) -> None:
        """Input generation for an untraced pass after the first."""
        self.case_seed = self.seed + pass_no * CASE_STRIDE
        self.direct, self.system = self.make_case()

    def direct_digest(self, approach: Approach) -> str:
        text = mps_string(build_model(self.direct, approach))
        return hashlib.sha256(text.encode()).hexdigest()

    # -- operations ------------------------------------------------------

    def check_size(self, approach: Approach, size: ModelSize, T: int) -> list[str]:
        want = tuple(per * T + const for per, const in SIZE_PINS[approach.value])
        got = size.as_tuple()
        return [] if got == want else [f"size {got} != pinned {want}"]

    def check_digest(self, approach: Approach, digest: str) -> list[str]:
        out = []
        if self.w.kind == "oracle" and digest != self.untimed(
                "check.direct_mps", self.direct_digest, approach):
            out.append("MPS after the CSV round trip differs from the direct build")
        want = self.w.digests.get(approach.value)
        if self.pinned and want is not None and digest != want:
            out.append(f"MPS sha256 {digest[:12]} != pinned {want[:12]}")
        return out

    def probe_layers(self, system: EnergySystem, approach: Approach, lp: LpInstance) -> None:
        """In the traced pass, time the layers build_model calls internally."""
        if not self.tracer.enabled:
            return
        self.untimed("model.validate", system.validate)
        self.untimed("formulation.lower_to_node_form", lower_to_node_form, system, approach)
        self.untimed("lp.check", lp.check)
        self.count("rows", len(lp.rows))
        self.count("cols", len(lp.variables))
        self.count("nnz", sum(len(row.terms) for row in lp.rows))

    # Each operation returns its problems, its objective (None without a
    # solve) and its solve time (None without a solve).

    def op_build(self, system, approach, record):
        lp = self.timed("formulation.build_model", build_model, system, approach)
        size = self.timed("lp.size_report", size_report, lp)
        path = self.workdir / f"{approach.value}.mps"
        self.timed("lp.write_mps", write_mps, lp, str(path))
        if not record:
            return [], None, None
        self.sizes[approach.value] = size
        self.count("mps_bytes", path.stat().st_size)
        self.untimed("probe", self.probe_layers, system, approach, lp)
        digest = self.untimed("check.sha256", sha256_file, path)
        problems = self.check_size(approach, size, system.horizon_t)
        return problems + self.check_digest(approach, digest), None, None

    def op_simplex(self, system, approach, record):
        lp = self.timed("formulation.build_model", build_model, system, approach)
        rng = random.Random(f"{self.case_seed}/{approach.value}")
        permuted = self.untimed("input.permute_columns", permute_columns, lp, rng)
        result = self.timed("solver.solve_reference", solve_reference, permuted)
        solve_s = self.last_s
        problems = [] if result.is_optimal else [f"status {result.status}"]
        if result.is_optimal:
            violated = self.timed("solver.check_primal", check_primal, permuted, result.primal)
            if violated:
                problems.append(f"{len(violated)} primal violations, first {violated[0]}")
            self.count("violations", len(violated))
        if not record:
            return problems, result.objective, solve_s
        self.count("iterations", result.iterations)
        size = self.untimed("lp.size_report", size_report, lp)
        self.sizes[approach.value] = size
        self.untimed("probe", self.probe_layers, system, approach, lp)
        return problems + self.check_size(approach, size, system.horizon_t), result.objective, solve_s

    def op_oracle(self, system, approach, record):
        lp = self.timed("formulation.build_model", build_model, system, approach)
        result = self.timed("solver.solve_external", solve_external, lp, HIGHS_SPEC, self.seed)
        solve_s = self.last_s
        problems = [] if result.is_optimal else [f"status {result.status}"]
        if result.is_optimal:
            violated = self.timed("solver.check_primal", check_primal, lp, result.primal)
            if violated:
                problems.append(f"{len(violated)} primal violations, first {violated[0]}")
            self.count("violations", len(violated))
        if not record:
            return problems, result.objective, solve_s
        size = self.untimed("lp.size_report", size_report, lp)
        self.sizes[approach.value] = size
        path = self.workdir / f"{approach.value}.mps"
        self.untimed("lp.write_mps", write_mps, lp, str(path))
        self.count("mps_bytes", path.stat().st_size)
        self.untimed("probe", self.probe_layers, system, approach, lp)
        if self.tracer.enabled:  # the adapter's own work, in process
            self.untimed("highs_adapter.parse_free_mps", highs_adapter.parse_free_mps, str(path))
            self.untimed("highs_adapter.solve", highs_adapter.solve, str(path))
        digest = self.untimed("check.sha256", sha256_file, path)
        problems += self.check_size(approach, size, system.horizon_t)
        return problems + self.check_digest(approach, digest), result.objective, solve_s

    OPS = {"build": op_build, "simplex": op_simplex, "oracle": op_oracle}

    # -- passes ----------------------------------------------------------

    def fail(self, pass_id: str, approach: str, problems: list[str]) -> None:
        if problems:
            self.problems.setdefault((pass_id, approach), []).extend(problems)

    def run_pass(self, pass_id: str) -> float:
        """One operation per approach; returns the pass time in seconds."""
        self.tracer.pass_id = pass_id
        self.counts = {}
        self._excluded = 0.0
        objectives: dict[str, float] = {}
        start = time.perf_counter()
        with self.tracer.span("pass"):
            for approach in ALL_APPROACHES:
                self.attempted += 1
                op_start, excluded = time.perf_counter(), self._excluded
                try:
                    problems, objective, solve_s = self.OPS[self.w.kind](
                        self, self.system, approach, True)
                except FlowgraphError as exc:
                    problems, objective, solve_s = [f"{type(exc).__name__}: {exc}"], None, None
                op_s = time.perf_counter() - op_start - (self._excluded - excluded)
                self.op_times[approach.value].append(op_s if solve_s is None else solve_s)
                self.fail(pass_id, approach.value, problems)
                if objective is not None:
                    objectives[approach.value] = objective
            if self.w.kind != "build":
                self.timed("check.objectives", self.check_objectives, pass_id, objectives)
        elapsed = time.perf_counter() - start - self._excluded
        self.pass_times.append(elapsed)
        return elapsed

    def check_objectives(self, pass_id: str, objectives: dict[str, float]) -> None:
        """Cross-approach agreement and, at the default seed, the pinned value."""
        if not objectives:
            return
        center = statistics.median(objectives.values())
        for label, value in objectives.items():
            if abs(value - center) > OBJ_RTOL * max(1.0, abs(center)):
                self.fail(pass_id, label, [f"objective {value!r} disagrees with {center!r}"])
            pin = self.w.objective
            if self.pinned and pin is not None and abs(value - pin) > OBJ_RTOL * max(1.0, abs(pin)):
                self.fail(pass_id, label, [f"objective {value!r} != pinned {pin!r}"])

    # -- reporting -------------------------------------------------------

    @property
    def failed(self) -> int:
        return len(self.problems)

    def end_to_end(self) -> dict[str, float]:
        return {
            "setup_s": self.setup_s,
            "pass_s": statistics.median(self.pass_times),
            "peak_rss_mb": max(rss_mb(resource.RUSAGE_SELF), rss_mb(resource.RUSAGE_CHILDREN)),
        }

    def memory_probe(self) -> float:
        """tracemalloc peak, in MB, of build_model on the largest form."""
        self.tracer.pass_id = "memory"
        tracemalloc.start()
        try:
            self.untimed("formulation.build_model", build_model, self.system, Approach.THREE_BB_4F)
            return tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()

    def bench_stats(self) -> tuple[float, float]:
        """1BB-1F over 2BB-2F: median speedup and pooled t-test p-value."""
        ref, cand = self.op_times["2BB-2F"], self.op_times["1BB-1F"]
        speedup = median_speedup(ref, cand)
        try:
            p = two_sample_t_test(ref, cand).p_value
        except DegenerateVariance:
            p = 0.0  # identical samples on each side, different means
        return speedup, p

    def per_layer(self, untraced_s: float, traced_s: float, peak_mb: float) -> dict[str, float]:
        tr = self.tracer
        traced = "pass-traced"

        def setup_median(name: str) -> float:
            return statistics.median(tr.total(name, f"setup-{k}") for k in range(SETUP_REPEATS))

        validate = tr.total("model.validate", traced)
        lower = tr.total("formulation.lower_to_node_form", traced)
        build = tr.total("formulation.build_model", traced)
        check = tr.total("lp.check", traced)
        reference = tr.total("solver.solve_reference", traced)
        iterations = self.counts.get("iterations", 0)
        external = tr.total("solver.solve_external", traced)
        highs_solve = tr.total("highs_adapter.solve", traced)
        speedup, p = self.bench_stats()
        return {
            "cases.generate_s": setup_median("cases.tri_area_case") + setup_median("cases.scale_horizon"),
            "csvio.export_s": setup_median("csvio.export_case"),
            "csvio.load_s": setup_median("csvio.load_case"),
            "csvio.bytes": getattr(self, "csv_bytes", 0),
            "model.validate_s": validate,
            "formulation.lower_s": lower,
            "formulation.build_s": build,
            "formulation.emit_s": build - validate - lower - check,
            "formulation.rows": self.counts.get("rows", 0),
            "formulation.cols": self.counts.get("cols", 0),
            "formulation.nnz": self.counts.get("nnz", 0),
            "formulation.peak_mb": peak_mb,
            "lp.check_s": check,
            "lp.size_report_s": tr.total("lp.size_report", traced),
            "lp.mps_write_s": tr.total("lp.write_mps", traced),
            "lp.mps_bytes": self.counts.get("mps_bytes", 0),
            "solver.reference_s": reference,
            "solver.iterations": iterations,
            "solver.us_per_iteration": 1e6 * reference / iterations if iterations else 0.0,
            "solver.check_primal_s": tr.total("solver.check_primal", traced),
            "solver.primal_violations": self.counts.get("violations", 0),
            "solver.external_s": external,
            "solver.launch_s": external - highs_solve if external else 0.0,
            "highs_adapter.parse_s": tr.total("highs_adapter.parse_free_mps", traced),
            "highs_adapter.solve_s": highs_solve,
            "highs_adapter.child_peak_rss_mb": rss_mb(resource.RUSAGE_CHILDREN) if external else 0.0,
            "bench.speedup_1bb1f": speedup,
            "bench.ttest_p": p,
            "trace.overhead_s": traced_s - untraced_s,
        }


def environment() -> dict:
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "flowgraph": flowgraph.__version__,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ.get(k) for k in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def paper_claims(run: Run) -> list[str]:
    """Informational: size reduction, speedup and t-test against 2BB-2F."""
    lines = ["paper claims (informational, not gated; a ratio that falls because "
             "2BB-2F got faster is not a regression):"]
    ref_size = run.sizes.get("2BB-2F")
    ref_times = run.op_times["2BB-2F"]
    what = "build chain" if run.w.kind == "build" else "solve"
    for approach in ALL_APPROACHES:
        label = approach.value
        size = run.sizes.get(label)
        text = f"  {label}:"
        if size and ref_size:
            cut = [100.0 * (1 - b / a) for a, b in zip(ref_size.as_tuple(), size.as_tuple())]
            text += " size reduction vs 2BB-2F vars {:.1f}% cons {:.1f}% nnz {:.1f}%".format(*cut)
        times = run.op_times[label]
        if label != "2BB-2F" and times and ref_times:
            text += f"; median {what} speedup {median_speedup(ref_times, times):.3f}x"
            try:
                tt = two_sample_t_test(ref_times, times)
                text += f", pooled t-test t={tt.t_statistic:.2f} p={tt.p_value:.3g} (n={len(times)})"
            except FlowgraphError as exc:
                text += f", no t-test ({exc})"
        lines.append(text)
    return lines


def execute(workload: Workload, seed: int, seconds: float, trace: bool,
            import_s: float, workdir: Path, out_dir: Path, log=print) -> dict:
    """Run one workload and return the result object of the contract.

    Intermediate files go to ``workdir``; the span file to ``out_dir``.
    """
    tracer = Tracer()
    tracer.enabled = trace
    run = Run(workload, seed, workdir, tracer)
    run.setup(import_s)
    log(f"env: {environment()}")
    log(f"workload {workload.name} seed {seed} (default {DEFAULT_SEED}, held out {HELD_OUT_SEED})")
    if trace:
        tracer.enabled = False
        untraced = run.run_pass("pass-untraced")
        tracer.enabled = True
        traced = run.run_pass("pass-traced")
        peak_mb = run.memory_probe()
        metrics = run.per_layer(untraced, traced, peak_mb)
        units = dict(PER_LAYER)
        tracer.write_jsonl(str(out_dir / f"trace-{workload.name}-s{seed}.jsonl"))
        log(f"traced pass {traced:.4f} s, untraced pass {untraced:.4f} s, "
            f"overhead {traced - untraced:+.4f} s ({100 * (traced - untraced) / untraced:+.1f} %)")
        log("self time by span in the traced pass (share of the traced pass time):")
        for name, own in sorted(tracer.self_times("pass-traced").items(), key=lambda kv: -kv[1]):
            share = (f"{100 * own / traced:6.1f} %" if name in run.timed_names
                     else "  outside the pass time (check or probe)")
            log(f"  {name:34s} {own:10.4f} s  {share}")
    else:
        start = time.perf_counter()
        while not run.pass_times or time.perf_counter() - start < seconds:
            if run.pass_times:
                run.next_case(len(run.pass_times))
            run.run_pass(f"pass-{len(run.pass_times)}")
        metrics = run.end_to_end()
        units = dict(END_TO_END)
        alias = "time_to_mps_s" if workload.kind == "build" else "time_to_optimum_s"
        log(f"{alias} (= pass_s): {summarize(run.pass_times)}")
        for label, times in run.op_times.items():
            log(f"  operation {label}: {summarize(times)}")
        log(f"setup_s {run.setup_s:.4f} s (imports {import_s:.4f} s + median of "
            f"{SETUP_REPEATS} setups {[round(x, 4) for x in run.setup_reps]})")
        for line in paper_claims(run):
            log(line)
    log(f"error_rate {run.failed}/{run.attempted} = {run.failed / run.attempted:.4f}")
    for (pass_id, approach), problems in sorted(run.problems.items()):
        log(f"  FAILED {pass_id} {approach}: {'; '.join(problems)}")
    for name, value in metrics.items():
        log(f"{name} = {value!r} {units[name]}")
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in metrics.items()},
    }
