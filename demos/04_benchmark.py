"""Timing benchmark with statistical significance.

Runs the bench harness on the hybrid case at a modest horizon: each
approach is built and solved across several seeds (the seed shuffles the
variable order so the simplex takes different paths), then median build
and solve speedups of 1BB-1F over 2BB-2F are reported together with a
two-sample t-test on the solve times.  A larger run is what `flowgraph
bench` does from the command line.

Run:  python3 demos/04_benchmark.py
"""

from flowgraph import Approach, BenchConfig, run_benchmark
from flowgraph.bench import REFERENCE

config = BenchConfig(
    approaches=(Approach.TWO_BB_2F, Approach.ONE_BB_1F),
    horizons=(96,),
    n_seeds=5,
    case="hybrid",
)
report = run_benchmark(config)

print(f"{'approach':<10}{'case':>12}{'seed':>6}{'build s':>10}{'solve s':>10}")
for s in report.samples:
    print(f"{s.approach.value:<10}{s.instance:>12}{s.seed:>6}"
          f"{s.build_time_s:>10.4f}{s.solve_time_s:>10.4f}")

for approach, label, build, solve in report.speedups:
    print(f"\n{approach} vs {REFERENCE.value} on {label}: "
          f"median build speedup x{build:.2f}, median solve speedup x{solve:.2f}")
for approach, label, t in report.ttests:
    print(f"solve-time t-test ({approach} on {label}): t={t.t_statistic:.3f}, "
          f"p={t.p_value:.4f}, reject null: {t.reject_null}")
