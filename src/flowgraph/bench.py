"""Timing harness and statistics: per-seed build/solve timing, median
speedups against a reference approach, and two-sample t-tests.

The t-distribution tail probability comes from ``scipy.special.stdtr``.
:func:`two_sample_t_test` imports ``scipy.special`` on its first call, so
importing this module loads no scipy; ``scipy.stats`` is never imported,
as it costs ten times as much.  The tests check the whole t-test against
a brute-force oracle that shares no code with scipy.
"""

from __future__ import annotations

import csv
import math
import os
import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .cases import resolve_case
from .errors import (
    DegenerateVariance,
    EmptySample,
    InvariantViolation,
    IoFailure,
    ObjectiveMismatch,
    SolverFailure,
)
from .formulation import Approach, build_model
from .lp import LpInstance
from .solver import solver_for


#: builds timed back to back for one build sample
_BUILDS_PER_SAMPLE = 5

#: the approach every other one is timed against
REFERENCE = Approach.TWO_BB_2F


@dataclass(frozen=True)
class BenchConfig:
    """What to time: approaches x instances (or horizons) x seeds."""

    approaches: tuple[Approach, ...]
    instances: tuple[int, ...] = (1,)
    horizons: Optional[tuple[int, ...]] = None  # scale the one instance to each
    n_seeds: int = 30
    solver: str = "reference"  # a label, as solver_for takes it
    case: str = "tri-area"

    def __post_init__(self):
        if REFERENCE not in self.approaches:
            raise InvariantViolation(f"the reference {REFERENCE.value} must be benchmarked too")
        if self.n_seeds < 2:
            raise InvariantViolation("need at least two seeds")
        if self.case not in ("tri-area", "hybrid"):
            raise InvariantViolation(f"unknown case {self.case!r}; use tri-area or hybrid")
        if self.case == "hybrid" and tuple(self.instances) != (1,):
            raise InvariantViolation("the hybrid case is one fixture, not an instance; "
                                     f"got instances {list(self.instances)}")
        if self.horizons is not None and len(self.instances) != 1:
            raise InvariantViolation("horizons scale one instance; "
                                     f"got instances {list(self.instances)}")
        solver_for(self.solver)  # a bad label or spec fails here, not mid-run

    def labels(self) -> tuple[tuple[str, int, Optional[int]], ...]:
        """``(label, instance, horizon)`` per system timed; a ``None``
        horizon keeps the instance's own."""
        if self.horizons is not None:
            return tuple((f"T{t}", self.instances[0], t) for t in self.horizons)
        return tuple((f"i{i}", i, None) for i in self.instances)


@dataclass(frozen=True)
class TimingSample:
    approach: Approach
    instance: str
    seed: int
    build_time_s: float
    solve_time_s: float
    objective: float

    def __post_init__(self):
        if self.build_time_s < 0 or self.solve_time_s < 0:
            raise InvariantViolation("times must be nonnegative")


@dataclass(frozen=True)
class TTestResult:
    t_statistic: float
    p_value: float
    df: int
    reject_null: bool


@dataclass
class BenchReport:
    config: BenchConfig
    samples: list[TimingSample] = field(default_factory=list)
    speedups: list[tuple[str, str, float, float]] = field(default_factory=list)
    ttests: list[tuple[str, str, TTestResult]] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def two_sample_t_test(
    a: Sequence[float], b: Sequence[float], alpha: float = 0.05
) -> TTestResult:
    """Pooled-variance two-sample Student t-test, two-sided."""
    import scipy.special

    if len(a) < 2 or len(b) < 2:
        raise EmptySample("need at least two observations per sample")
    # t is scale-free: dividing both samples by the power of two nearest
    # their largest magnitude is exact, and keeps the variances of tiny
    # samples from underflowing
    shift = -math.frexp(max(map(abs, [*a, *b])))[1]
    a, b = [math.ldexp(x, shift) for x in a], [math.ldexp(x, shift) for x in b]
    na, nb = len(a), len(b)
    ma, mb = statistics.fmean(a), statistics.fmean(b)
    va = statistics.variance(a)
    vb = statistics.variance(b)
    df = na + nb - 2
    pooled = ((na - 1) * va + (nb - 1) * vb) / df
    if pooled == 0.0:
        if ma == mb:
            return TTestResult(0.0, 1.0, df, False)
        raise DegenerateVariance("zero variance with different means")
    t = (ma - mb) / math.sqrt(pooled * (1.0 / na + 1.0 / nb))
    # float(): a bare numpy float64 would repr as np.float64(...) in ttests.csv
    p = float(2.0 * scipy.special.stdtr(df, -abs(t)))
    return TTestResult(t, p, df, p < alpha)


def median_speedup(
    reference_samples: Sequence[float], candidate_samples: Sequence[float]
) -> float:
    """median(reference) / median(candidate); robust to outliers."""
    if not reference_samples or not candidate_samples:
        raise EmptySample("speedup needs samples on both sides")
    return statistics.median(reference_samples) / statistics.median(candidate_samples)


# ---------------------------------------------------------------------------
# Timing
# ---------------------------------------------------------------------------


def _shuffled(instance: LpInstance, seed: int) -> LpInstance:
    """Copy with variables reordered by a seeded shuffle, each row's terms
    sorted by new column.

    Simulates per-seed solution-path variability for the deterministic
    reference solver without touching the model's meaning.
    """
    store = instance.store()
    order = list(range(len(instance.lower)))
    random.Random(seed).shuffle(order)
    position = np.empty(len(order), np.int64)
    position[order] = np.arange(len(order))
    cols = position[instance.indices]
    row = np.repeat(np.arange(len(instance.row_lo)), np.diff(instance.indptr))
    terms = np.lexsort((cols, row))
    columns = [(role, key, (t,)) for role, key, steps in instance.col_blocks for t in steps]
    store.update(
        indices=cols[terms], data=instance.data[terms],
        lower=instance.lower[order], upper=instance.upper[order],
        integral=instance.integral[order], cost=instance.cost[order],
        col_blocks=[columns[j] for j in order],
    )
    return LpInstance.from_store(f"{instance.name}:s{seed}", **store)


def run_benchmark(config: BenchConfig) -> BenchReport:
    """Time builds and solves per (approach, instance, seed).

    One warm-up build per (approach, instance) is discarded.  A build sample
    is the mean of ``_BUILDS_PER_SAMPLE`` back-to-back builds, so a hybrid
    build of 1-2 ms is not timed alone; the last one is solved.  Seeds are the
    outer loop, and every approach is built and solved for each seed, so a
    slow spell on a shared machine falls on all approaches alike rather than
    on one side of a speedup.  Objectives across approaches must agree per
    (instance, seed) to 1e-6 relative or the run aborts — the harness never
    reports a speedup for a wrong answer.
    """
    report = BenchReport(config=config)
    solve = solver_for(config.solver)
    shuffle = config.solver == "reference"
    objectives: dict[tuple[str, int], float] = {}
    for label, instance_id, horizon in config.labels():
        system = resolve_case(config.case, instance_id, horizon)
        for approach in config.approaches:
            build_model(system, approach)  # warm-up, discarded
        for seed in range(config.n_seeds):
            for approach in config.approaches:
                t0 = time.perf_counter()
                for _ in range(_BUILDS_PER_SAMPLE):
                    instance = None  # freed before the next build, not during it
                    instance = build_model(system, approach)
                build_time = (time.perf_counter() - t0) / _BUILDS_PER_SAMPLE
                t0 = time.perf_counter()
                # the shuffled copy is a temporary: kept alive through the next
                # build, it doubled that build's time at hybrid T=1000
                result = solve(_shuffled(instance, seed) if shuffle else instance, seed)
                solve_time = time.perf_counter() - t0
                if not result.is_optimal:
                    raise SolverFailure(
                        f"{approach.value} on {label}, seed {seed}: {result.status}"
                    )
                key = (label, seed)
                baseline = objectives.setdefault(key, result.objective)
                scale = max(1.0, abs(baseline))
                if abs(result.objective - baseline) / scale > 1e-6:
                    raise ObjectiveMismatch(
                        f"{approach.value} on {label}, seed {seed}: "
                        f"{result.objective} vs {baseline}"
                    )
                report.samples.append(
                    TimingSample(
                        approach=approach,
                        instance=label,
                        seed=seed,
                        build_time_s=build_time,
                        solve_time_s=result.wall_time_s or solve_time,
                        objective=result.objective,
                    )
                )

    def times(approach, label, attr):
        return [
            getattr(s, attr)
            for s in report.samples
            if s.approach is approach and s.instance == label
        ]

    for label, _, _ in config.labels():
        ref_build = times(REFERENCE, label, "build_time_s")
        ref_solve = times(REFERENCE, label, "solve_time_s")
        for approach in config.approaches:
            if approach is REFERENCE:
                continue
            build = times(approach, label, "build_time_s")
            solve = times(approach, label, "solve_time_s")
            report.speedups.append(
                (
                    approach.value,
                    label,
                    median_speedup(ref_build, build),
                    median_speedup(ref_solve, solve),
                )
            )
            report.ttests.append(
                (approach.value, label, two_sample_t_test(ref_solve, solve))
            )
    return report


def write_report(report: BenchReport, destination: str) -> list[str]:
    """Write samples.csv, speedups.csv and ttests.csv under ``destination``."""
    if not report.samples:
        raise EmptySample("nothing to report")
    tables = (
        ("samples.csv",
         ["approach", "instance", "seed", "build_time_s", "solve_time_s", "objective"],
         [[s.approach.value, s.instance, s.seed,
           repr(s.build_time_s), repr(s.solve_time_s), repr(s.objective)]
          for s in report.samples]),
        ("speedups.csv",
         ["approach", "instance", "median_build_speedup", "median_solve_speedup"],
         [[approach, label, repr(build), repr(solve)]
          for approach, label, build, solve in report.speedups]),
        ("ttests.csv",
         ["approach", "instance", "t", "p", "reject_null"],
         [[approach, label, repr(tt.t_statistic), repr(tt.p_value),
           str(tt.reject_null).lower()]
          for approach, label, tt in report.ttests]),
    )
    paths = []
    try:
        os.makedirs(destination, exist_ok=True)
        for name, header, rows in tables:
            path = os.path.join(destination, name)
            with open(path, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(header)
                writer.writerows(rows)
            paths.append(path)
    except OSError as exc:
        raise IoFailure(str(exc))
    return paths
