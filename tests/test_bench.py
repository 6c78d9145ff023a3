"""Statistics and harness tests.

The t-test is cross-checked two ways: against scipy.stats and against a
brute-force oracle that recomputes the pooled formula from raw sums and
integrates the t density numerically, sharing no code with the library.
"""

import json
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import stats

from flowgraph import bench
from flowgraph import (
    Approach,
    BenchConfig,
    TTestResult,
    build_model,
    hybrid_fixture,
    median_speedup,
    run_benchmark,
    scale_horizon,
    solve_reference,
    two_sample_t_test,
    write_report,
)
from flowgraph.errors import (
    DegenerateVariance,
    EmptySample,
    InvariantViolation,
    ParseError,
    SolverFailure,
)

from conftest import doctored_spec


def brute_force_t_test(a, b):
    """Independent oracle: raw-sum pooled t plus numerically integrated p."""
    na, nb = len(a), len(b)
    mean_a, mean_b = sum(a) / na, sum(b) / nb
    ss_a = sum((x - mean_a) ** 2 for x in a)
    ss_b = sum((x - mean_b) ** 2 for x in b)
    df = na + nb - 2
    pooled = (ss_a + ss_b) / df
    t = (mean_a - mean_b) / math.sqrt(pooled * (1.0 / na + 1.0 / nb))

    def pdf(x):
        return math.exp(
            math.lgamma((df + 1) / 2.0) - math.lgamma(df / 2.0)
            - 0.5 * math.log(df * math.pi)
            - (df + 1) / 2.0 * math.log1p(x * x / df)
        )

    # two-sided tail mass: map [|t|, inf) onto s in [0, 1) via
    # x = |t| + s/(1-s) and integrate with composite Simpson; the
    # transformed integrand vanishes at s=1 for df >= 2
    hi = abs(t)
    steps = 40000
    s = np.linspace(0.0, 1.0, steps + 1)
    integrand = np.zeros_like(s)
    for i, si in enumerate(s[:-1]):
        x = hi + si / (1.0 - si)
        integrand[i] = pdf(x) / (1.0 - si) ** 2
    h = 1.0 / steps
    tail = h / 3.0 * (integrand[0] + integrand[-1]
                      + 4.0 * integrand[1:-1:2].sum() + 2.0 * integrand[2:-2:2].sum())
    return t, min(1.0, 2.0 * tail)


class TestTTestOracle:
    def test_randomized_samples_match_brute_force(self):
        rng = np.random.default_rng(42)
        for _ in range(120):
            na, nb = rng.integers(2, 12, size=2)
            a = list(rng.normal(rng.uniform(-3, 3), rng.uniform(0.5, 2.0), na))
            b = list(rng.normal(rng.uniform(-3, 3), rng.uniform(0.5, 2.0), nb))
            result = two_sample_t_test(a, b)
            t_ref, p_ref = brute_force_t_test(a, b)
            assert abs(result.t_statistic - t_ref) < 1e-10
            assert abs(result.p_value - p_ref) < 1e-8

    def test_matches_scipy(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a = list(rng.normal(0.0, 1.0, int(rng.integers(2, 20))))
            b = list(rng.normal(0.5, 1.5, int(rng.integers(2, 20))))
            result = two_sample_t_test(a, b)
            ref = stats.ttest_ind(a, b, equal_var=True)
            assert abs(result.t_statistic - ref.statistic) < 1e-10
            assert abs(result.p_value - ref.pvalue) < 1e-12

    def test_identical_samples(self):
        result = two_sample_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert result.t_statistic == 0.0 and result.p_value == 1.0
        assert not result.reject_null

    def test_documented_example(self):
        result = two_sample_t_test([2.0, 4.0, 6.0], [1.0, 2.0, 3.0])
        assert result.df == 4
        assert result.t_statistic == pytest.approx(1.549, abs=1e-3)
        assert result.p_value == pytest.approx(0.196, abs=1e-3)

    def test_clear_separation_rejects(self):
        a = [1000.0, 1000.001, 999.999]
        b = [0.0, 0.001, -0.001]
        assert two_sample_t_test(a, b).reject_null

    def test_zero_variance_different_means(self):
        with pytest.raises(DegenerateVariance):
            two_sample_t_test([1.0, 1.0], [2.0, 2.0])

    def test_too_small_samples(self):
        with pytest.raises(EmptySample):
            two_sample_t_test([1.0], [1.0, 2.0])


class TestTTestProperties:
    samples = st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=12)

    @given(samples, samples)
    @settings(max_examples=60, deadline=None)
    def test_symmetry(self, a, b):
        try:
            fwd = two_sample_t_test(a, b)
            rev = two_sample_t_test(b, a)
        except DegenerateVariance:
            return
        assert fwd.t_statistic == pytest.approx(-rev.t_statistic, abs=1e-12)
        assert fwd.p_value == pytest.approx(rev.p_value, abs=1e-12)

    @given(samples, samples, st.floats(0.1, 100.0))
    @settings(max_examples=60, deadline=None)
    def test_scale_invariance(self, a, b, scale):
        # scaling rounds a subnormal, and may make one or flush it to 0 (b =
        # [0, 5e-324] at 0.5 reads t = 0 against -1), so the property is
        # checked where every nonzero x and scale * x is a normal float
        assume(all(x == 0.0 or min(abs(x), abs(scale * x)) >= sys.float_info.min
                   for x in a + b))
        try:
            base = two_sample_t_test(a, b)
            scaled = two_sample_t_test([scale * x for x in a], [scale * x for x in b])
        except DegenerateVariance:
            return
        assert scaled.t_statistic == pytest.approx(base.t_statistic, rel=1e-9, abs=1e-9)

    def test_tiny_samples_keep_their_scale(self):
        # the variance of b (about 2.7e-314) was subnormal: t read
        # -0.9999999999490 here and -1.0000000017961 on the samples scaled by 0.25
        b = [0.0, 2.3129298368778237e-157]
        for scale in (1.0, 0.25):
            result = two_sample_t_test([0.0, 0.0], [scale * x for x in b])
            assert result.t_statistic == -1.0

    def test_underflowing_variance_is_not_zero(self):
        # (1e-170)**2 / 2 underflows to 0.0, which read as zero variance
        # with different means
        assert two_sample_t_test([0.0, 0.0], [0.0, 1e-170]).t_statistic == -1.0

    def test_p_monotone_in_t(self):
        a = [1.0, 2.0, 4.0, 3.0, 5.0]
        ps = [two_sample_t_test(a, [x + shift for x in a]).p_value
              for shift in (0.0, 0.5, 1.0, 2.0, 4.0)]
        assert ps[0] == 1.0
        assert all(x > y for x, y in zip(ps, ps[1:]))

    def test_scipy_stats_not_imported(self):
        # scipy loads only in the calls that use it: importing the package,
        # building, sizing and writing MPS load no scipy module, and the
        # reference simplex and the primal check load scipy's sparse kernel
        # and SuperLU extensions alone: no scipy package, not even scipy
        code = textwrap.dedent("""
            import json, sys
            import flowgraph, flowgraph.cli, flowgraph.highs_adapter
            from flowgraph import ALL_APPROACHES, build_model, hybrid_fixture
            from flowgraph import check_primal, mps_string, size_report, solve_reference

            def scipy_modules():
                return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

            for approach in ALL_APPROACHES:
                lp = build_model(hybrid_fixture(), approach)
                size_report(lp)
                mps_string(lp)
            assert flowgraph.cli.main(["compare", "--case", "hybrid", "--T", "1"]) == 0
            built = scipy_modules()
            assert check_primal(lp, solve_reference(lp).primal) == []
            print(json.dumps([built, scipy_modules()]))
        """)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True)
        built, solved = json.loads(proc.stdout.splitlines()[-1])
        assert built == []
        assert solved == ["scipy.sparse._sparsetools", "scipy.sparse.linalg._dsolve._superlu"]


class TestMedianSpeedup:
    def test_basic(self):
        assert median_speedup([2.0, 2.0, 2.0], [1.0, 1.0, 1.0]) == 2.0

    def test_identity(self):
        assert median_speedup([3.0, 4.0], [3.0, 4.0]) == 1.0

    def test_outlier_robust(self):
        assert median_speedup([1.0, 2.0, 100.0], [1.0, 2.0, 3.0]) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(EmptySample):
            median_speedup([], [1.0])


class TestHarness:
    def test_config_invariants(self):
        with pytest.raises(InvariantViolation):
            BenchConfig(approaches=(Approach.ONE_BB_1F,))  # reference missing
        with pytest.raises(InvariantViolation):
            BenchConfig(approaches=(Approach.TWO_BB_2F,), n_seeds=1)

    def test_unknown_case_rejected(self):
        with pytest.raises(InvariantViolation, match="unknown case"):
            BenchConfig(approaches=(Approach.TWO_BB_2F,), case="hybridd")

    @pytest.mark.parametrize("instances", [(1, 2), (2,)], ids=["1-2", "2"])
    def test_hybrid_has_no_instances(self, instances):
        # the hybrid fixture is the same system under every instance label
        with pytest.raises(InvariantViolation, match="hybrid case is one fixture"):
            BenchConfig(approaches=(Approach.TWO_BB_2F,), instances=instances, case="hybrid")
        assert BenchConfig(approaches=(Approach.TWO_BB_2F,), case="hybrid").instances == (1,)

    def test_horizons_scale_one_instance(self):
        with pytest.raises(InvariantViolation, match="one instance"):
            BenchConfig(approaches=(Approach.TWO_BB_2F,), instances=(1, 2), horizons=(24,))

    @pytest.mark.parametrize("solver", ["highs", "external"], ids=json.dumps)
    def test_unknown_solver_kind_rejected(self, solver):
        with pytest.raises(ParseError, match="bad solver"):
            BenchConfig(approaches=(Approach.TWO_BB_2F,), solver=solver)

    def _small_report(self):
        config = BenchConfig(
            approaches=(Approach.TWO_BB_2F, Approach.ONE_BB_1F),
            horizons=(12,), n_seeds=3, case="hybrid",
        )
        return run_benchmark(config)

    def test_external_solver_label(self, tmp_path):
        spec = tmp_path / "highs.json"
        spec.write_text(json.dumps({
            "executable": sys.executable,
            "args": ["-m", "flowgraph.highs_adapter", "{mps}", "{out}", "{seed}"],
        }))
        # T=12: up to T=6 the hybrid optimum is 0.0, which any solver reporting 0 meets
        config = BenchConfig(approaches=(Approach.TWO_BB_2F, Approach.ONE_BB_1F),
                             horizons=(12,), n_seeds=2, case="hybrid",
                             solver=f"external:{spec}")
        report = run_benchmark(config)
        assert len(report.samples) == 4
        expected = solve_reference(
            build_model(scale_horizon(hybrid_fixture(), 12), Approach.TWO_BB_2F)).objective
        assert expected == pytest.approx(48.5)
        for s in report.samples:
            assert s.objective == pytest.approx(expected, rel=1e-6)

    def test_infeasible_primal_is_a_solver_failure(self, tmp_path):
        # the right objective over an all-zero primal, which meets no demand
        spec = doctored_spec(tmp_path, 'line.startswith(("status ", "obj "))')
        config = BenchConfig(approaches=(Approach.TWO_BB_2F, Approach.ONE_BB_1F),
                             horizons=(12,), n_seeds=2, case="hybrid",
                             solver=f"external:{spec}")
        with pytest.raises(SolverFailure, match="2BB-2F on T12, seed 0: primal violates bal_ed_t1"):
            run_benchmark(config)

    def test_sample_bookkeeping(self):
        report = self._small_report()
        assert len(report.samples) == 6  # 2 approaches x 1 horizon x 3 seeds
        assert len(report.speedups) == 1
        assert len(report.ttests) == 1

    def test_build_sample_is_a_mean_of_back_to_back_builds(self, monkeypatch):
        # one warm-up build per approach, then _BUILDS_PER_SAMPLE builds per
        # sample, and the sample is their mean
        built, build = [], bench.build_model
        monkeypatch.setattr(bench, "build_model",
                            lambda *args: built.append(args[1]) or build(*args))
        ticks = iter(range(10 ** 6))
        monkeypatch.setattr(bench.time, "perf_counter", lambda: float(next(ticks)))
        report = self._small_report()
        assert len(built) == 2 * (1 + 3 * bench._BUILDS_PER_SAMPLE)
        # each build sample spans two clock reads, one apart
        assert {s.build_time_s for s in report.samples} == {1 / bench._BUILDS_PER_SAMPLE}

    def test_objectives_agree_across_seeds(self):
        report = self._small_report()
        objectives = {s.objective for s in report.samples}
        baseline = next(iter(objectives))
        assert all(abs(o - baseline) / max(1.0, abs(baseline)) < 1e-6
                   for o in objectives)

    def test_write_report_deterministic(self, tmp_path):
        report = self._small_report()
        a, b = tmp_path / "a", tmp_path / "b"
        paths_a = write_report(report, str(a))
        write_report(report, str(b))
        assert {p.rsplit("/", 1)[1] for p in paths_a} == \
               {"samples.csv", "speedups.csv", "ttests.csv"}
        for name in ("samples.csv", "speedups.csv", "ttests.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_ttests_csv_layout(self, tmp_path):
        report = self._small_report()
        write_report(report, str(tmp_path))
        header = (tmp_path / "ttests.csv").read_text().splitlines()[0]
        assert header == "approach,instance,t,p,reject_null"
