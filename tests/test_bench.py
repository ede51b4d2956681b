"""Benchmark harness: instance generation, sweeps, CSV output, fitting."""

import math
from itertools import combinations

import pytest

from puboforge.bench import (
    BenchConfig,
    CSV_HEADER,
    aggregate,
    fit_sqrt_scaling,
    lambda_grid,
    random_pubo,
    render_csv,
    run_ancilla_experiment,
    run_config,
    run_precision_experiment,
)
from puboforge.poly import control_precision, monomial, xvar


class TestBenchConfig:
    def test_lambda_above_capacity_rejected(self):
        with pytest.raises(ValueError):
            BenchConfig(n=5, lam=11)  # C(5,3) == 10

    def test_lambda_zero_allowed(self):
        config = BenchConfig(n=5, lam=0)
        assert config.lam == 0

    def test_empty_coefficient_range_rejected(self):
        with pytest.raises(ValueError):
            BenchConfig(n=5, lam=2, coeff_min=0, coeff_max=0)
        with pytest.raises(ValueError):
            BenchConfig(n=5, lam=2, coeff_min=3, coeff_max=1)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            BenchConfig(n=5, lam=2, strategies=("simulated-annealing",))

    def test_unknown_gadget_mode_rejected(self):
        with pytest.raises(ValueError):
            BenchConfig(n=5, lam=2, gadget_modes=("double",))


class TestRandomPubo:
    def test_deterministic_in_seed_and_index(self):
        config = BenchConfig(n=7, lam=6, seed=42)
        assert random_pubo(config, 3) == random_pubo(config, 3)

    def test_distinct_indices_differ(self):
        config = BenchConfig(n=7, lam=6, seed=42)
        assert random_pubo(config, 0) != random_pubo(config, 1)

    def test_distinct_seeds_differ(self):
        a = BenchConfig(n=7, lam=6, seed=1)
        b = BenchConfig(n=7, lam=6, seed=2)
        assert random_pubo(a, 0) != random_pubo(b, 0)

    def test_cubic_term_count_and_coefficients(self):
        config = BenchConfig(n=7, lam=9, seed=5)
        poly = random_pubo(config, 0)
        assert len(poly.cubic_terms()) == 9
        assert poly.degree() == 3
        for _, coeff in poly:
            assert -8 <= coeff <= 8 and coeff != 0

    def test_full_lambda_uses_every_triple(self):
        config = BenchConfig(n=6, lam=math.comb(6, 3), seed=5)
        poly = random_pubo(config, 0)
        assert set(poly.cubic_terms()) == set(combinations(range(1, 7), 3))

    def test_quadratic_layer_present_when_requested(self):
        config = BenchConfig(n=6, lam=4, seed=5, include_quadratic_layer=True)
        poly = random_pubo(config, 0)
        for i, j in combinations(range(1, 7), 2):
            assert poly.pair_coefficient(i, j) != 0

    def test_quadratic_layer_absent_by_default(self):
        poly = random_pubo(BenchConfig(n=6, lam=4, seed=5), 0)
        assert all(len(m) == 3 for m, _ in poly)


class TestRunConfig:
    def test_single_term_needs_one_ancilla(self):
        config = BenchConfig(n=5, lam=1, instances=4, seed=9)
        records = run_config(config)
        ilp = [r for r in records if r.strategy == "ilp"]
        assert ilp and all(r.ancilla_count == 1 for r in ilp)
        assert all(r.proven_optimal for r in ilp)

    def test_ilp_never_beaten_by_reduce_min(self):
        config = BenchConfig(n=7, lam=10, instances=8, seed=9)
        records = run_config(config)
        by_index = {}
        for r in records:
            by_index.setdefault(r.strategy, []).append(r.ancilla_count)
        pairs = zip(by_index["ilp"], by_index["reduce-min"])
        assert all(a <= b for a, b in pairs)

    def test_precision_fields_match_direct_computation(self):
        config = BenchConfig(n=6, lam=3, instances=1, seed=2)
        record = run_config(config)[0]
        poly = random_pubo(config, 0)
        before = control_precision(poly).control_precision
        assert record.precision_before == before
        assert record.precision_increase_pct == pytest.approx(
            100.0 * (record.precision_after - before) / before
        )

    def test_wall_time_zero_by_default(self):
        records = run_config(BenchConfig(n=5, lam=3, instances=2, seed=1))
        assert all(r.wall_ms == 0.0 for r in records)

    def test_wall_time_measured_when_enabled(self):
        records = run_config(
            BenchConfig(n=5, lam=3, instances=2, seed=1, measure_time=True)
        )
        assert any(r.wall_ms > 0.0 for r in records)

    def test_parallel_merge_matches_serial(self, monkeypatch):
        config = BenchConfig(n=5, lam=3, instances=3, seed=4)
        serial = run_config(config)
        monkeypatch.setenv("PUBO_FORGE_THREADS", "2")
        assert run_config(config) == serial


class TestExperiments:
    def test_ancilla_csv_byte_identical(self):
        configs = [BenchConfig(n=6, lam=4, instances=5, seed=3)]
        assert run_ancilla_experiment(configs) == run_ancilla_experiment(configs)

    def test_ancilla_csv_shape(self):
        csv = run_ancilla_experiment([BenchConfig(n=6, lam=4, instances=3, seed=3)])
        lines = csv.splitlines()
        assert lines[0].startswith("#")
        assert CSV_HEADER in lines
        data = [l for l in lines if not l.startswith("#") and l != CSV_HEADER]
        assert len(data) == 2  # ilp and reduce-min rows
        for line in data:
            fields = line.split(",")
            assert len(fields) == 8
            assert fields[0] == "6" and fields[1] == "4"
            assert fields[7] == "0.0000"  # wall time zeroed

    def test_precision_csv_has_marker_and_four_rows(self):
        csv = run_precision_experiment([BenchConfig(n=6, lam=4, instances=3, seed=3)])
        assert "100 percent increase" in csv
        data = [
            l
            for l in csv.splitlines()
            if not l.startswith("#") and l != CSV_HEADER
        ]
        cells = {(l.split(",")[2], l.split(",")[3]) for l in data}
        assert cells == {
            ("greedy", "single"),
            ("greedy", "triple"),
            ("arbitrary", "single"),
            ("arbitrary", "triple"),
        }

    def test_lambda_zero_rows_report_no_growth(self):
        csv = run_precision_experiment([BenchConfig(n=5, lam=0, instances=2, seed=1)])
        data = [
            l
            for l in csv.splitlines()
            if not l.startswith("#") and l != CSV_HEADER
        ]
        for line in data:
            fields = line.split(",")
            assert fields[4] == "0.0000" and fields[5] == "0.0000"

    def test_mean_ancilla_grows_with_lambda(self):
        low = run_config(BenchConfig(n=6, lam=2, instances=6, seed=8))
        high = run_config(BenchConfig(n=6, lam=12, instances=6, seed=8))
        mean = lambda rs: sum(
            r.ancilla_count for r in rs if r.strategy == "ilp"
        ) / sum(1 for r in rs if r.strategy == "ilp")
        assert mean(high) > mean(low)

    def test_aggregate_groups_in_order(self):
        records = run_config(BenchConfig(n=5, lam=2, instances=3, seed=1))
        rows = aggregate(records)
        assert [row["strategy"] for row in rows] == ["ilp", "reduce-min"]
        text = render_csv(rows)
        assert text.endswith("\n")


class TestLambdaGrid:
    def test_grid_for_eight_variables(self):
        assert lambda_grid(8) == [5, 9, 14, 19, 23, 28, 33, 37, 42, 47, 51, 56]

    def test_grid_sorted_unique_within_range(self):
        for n in (5, 6, 7, 9):
            grid = lambda_grid(n)
            assert grid == sorted(set(grid))
            assert grid[0] >= 1 and grid[-1] == math.comb(n, 3)

    def test_grid_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            lambda_grid(2)


class TestFit:
    def test_exact_sqrt_data_fits_perfectly(self):
        points = [(8, lam, 1.7 * math.sqrt(8 * lam)) for lam in (5, 9, 14, 19, 23, 28)]
        fit = fit_sqrt_scaling(points)
        assert fit.coefficient == pytest.approx(1.7)
        assert fit.r_squared == pytest.approx(1.0)

    def test_noise_lowers_r_squared(self):
        points = [
            (8, lam, 1.7 * math.sqrt(8 * lam) + bump)
            for lam, bump in ((5, 0.4), (9, -0.5), (14, 0.6), (19, -0.3), (28, 0.2))
        ]
        fit = fit_sqrt_scaling(points)
        assert 0.9 < fit.r_squared < 1.0

    def test_constant_data_fits_poorly(self):
        points = [(8, lam, 5.0) for lam in (5, 9, 14, 19, 28)]
        assert fit_sqrt_scaling(points).r_squared < 0.5

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            fit_sqrt_scaling([(8, 5, 3.0)])
