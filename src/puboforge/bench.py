"""Random instances, experiment sweeps, and deterministic CSV output.

Two sweep styles cover the two quantities the reduction trades between:
`run_ancilla_experiment` measures how many ancillas the exact cover (ilp)
and the ReduceMin heuristic spend as the cubic term count grows, and
`run_precision_experiment` measures the percent growth in control
precision under the precision-aware greedy planner versus the arbitrary
baseline, for both gadget modes.

Determinism is a hard requirement: instances derive from string seeds
``"{seed}:{n}:{lam}:{index}"``, rows are emitted in configuration order,
and wall-time columns print 0 unless measurement is explicitly enabled
(measured times would break byte-identical reruns).  The environment
variable ``PUBO_FORGE_THREADS`` caps worker processes; parallel runs
merge per-instance results in index order, so the CSV does not depend on
the worker count.

Every instance of a sweep within the verifier's enumeration cap is
re-checked against the independent oracle; any failure aborts the run
rather than producing a wrong row.
"""

from __future__ import annotations

import math
import os
import random
import time
from dataclasses import dataclass, replace
from itertools import combinations
from typing import Iterable, Sequence

from puboforge.gadgets import GadgetMode, ReductionPlan, apply_plan
from puboforge.poly import DEFAULT_ENUMERATION_CAP, Polynomial, PuboError, control_precision, monomial, xvar
from puboforge.precision import arbitrary_plan, greedy_precision_plan
from puboforge.setcover import (
    build_set_cover,
    plan_from_cover,
    reduce_min_greedy,
    solve_ilp_exact,
)
from puboforge.verify import verify_reduction

KNOWN_STRATEGIES = ("ilp", "reduce-min", "greedy", "arbitrary")

CSV_HEADER = "n,lambda,strategy,gadget,mean_ancilla,mean_precision_increase_pct,proven_optimal_frac,mean_wall_ms"

PRECISION_MARKER_COMMENT = (
    "# marker: a 100 percent increase in control precision exhausts a 4-bit "
    "device (16 coupler levels)"
)


@dataclass(frozen=True)
class BenchConfig:
    """One experiment cell: a variable count, a cubic term count, and knobs."""

    n: int
    lam: int
    include_quadratic_layer: bool = False
    coeff_min: int = -8
    coeff_max: int = 8
    instances: int = 100
    seed: int = 0
    strategies: tuple[str, ...] = ("ilp", "reduce-min")
    gadget_modes: tuple[str, ...] = ("single",)
    measure_time: bool = False

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("need at least two variables")
        max_lam = math.comb(self.n, 3)
        if not 0 <= self.lam <= max_lam:
            raise ValueError(f"lambda must be within 0..{max_lam} for n={self.n}")
        if self.coeff_min > self.coeff_max:
            raise ValueError("empty coefficient range")
        if self.coeff_min == 0 and self.coeff_max == 0:
            raise ValueError("coefficient range excludes 0; 0..0 is empty")
        if self.instances < 1:
            raise ValueError("need at least one instance")
        for s in self.strategies:
            if s not in KNOWN_STRATEGIES:
                raise ValueError(f"unknown strategy {s!r}")
        for m in self.gadget_modes:
            GadgetMode(m)


@dataclass(frozen=True)
class BenchRecord:
    """One strategy's outcome on one instance."""

    n: int
    lam: int
    strategy: str
    gadget: str
    ancilla_count: int
    precision_before: int
    precision_after: int
    precision_increase_pct: float
    proven_optimal: bool
    wall_ms: float


def random_pubo(config: BenchConfig, instance_index: int) -> Polynomial:
    """Instance instance_index of a config's random ensemble.

    lam distinct cubic terms drawn without replacement; optionally every
    quadratic term; all coefficients uniform on the nonzero range.  Fully
    determined by (seed, n, lam, instance_index).
    """
    rng = random.Random(f"{config.seed}:{config.n}:{config.lam}:{instance_index}")
    triples = sorted(combinations(range(1, config.n + 1), 3))
    chosen = rng.sample(triples, config.lam)
    nonzero = [
        c for c in range(config.coeff_min, config.coeff_max + 1) if c != 0
    ]
    terms: dict = {}
    if config.include_quadratic_layer:
        for pair in combinations(range(1, config.n + 1), 2):
            terms[monomial([xvar(i) for i in pair])] = rng.choice(nonzero)
    for t in sorted(chosen):
        terms[monomial([xvar(i) for i in t])] = rng.choice(nonzero)
    return Polynomial(config.n, terms)


def _plan_for(
    strategy: str, poly: Polynomial, mode: GadgetMode, config: BenchConfig, index: int
) -> tuple[ReductionPlan, bool]:
    """Build the strategy's plan; the flag reports proven optimality."""
    if strategy == "ilp":
        sc = build_set_cover(poly)
        result = solve_ilp_exact(sc)
        return plan_from_cover(sc, result.selection, poly, mode), result.proven_optimal
    if strategy == "reduce-min":
        return reduce_min_greedy(poly, mode), False
    if strategy == "greedy":
        return greedy_precision_plan(poly, mode), False
    if strategy == "arbitrary":
        return arbitrary_plan(poly, seed=config.seed + index, mode=mode), False
    raise ValueError(f"unknown strategy {strategy!r}")


def _instance_records(config: BenchConfig, index: int) -> list[BenchRecord]:
    poly = random_pubo(config, index)
    records = []
    for strategy in config.strategies:
        for mode_name in config.gadget_modes:
            mode = GadgetMode(mode_name)
            start = time.perf_counter()
            plan, proven = _plan_for(strategy, poly, mode, config, index)
            reduced = apply_plan(poly, plan)
            elapsed_ms = (
                (time.perf_counter() - start) * 1000.0 if config.measure_time else 0.0
            )
            if poly:
                before = control_precision(poly).control_precision
                after = control_precision(reduced.quadratic).control_precision
                increase = 100.0 * (after - before) / before
            else:
                before = after = 0
                increase = 0.0
            if reduced.total_variables() <= DEFAULT_ENUMERATION_CAP and not verify_reduction(poly, reduced).ok:
                raise PuboError(
                    f"oracle failure: strategy={strategy} mode={mode_name} "
                    f"n={config.n} lam={config.lam} seed={config.seed} "
                    f"index={index}"
                )
            records.append(
                BenchRecord(
                    n=config.n,
                    lam=config.lam,
                    strategy=strategy,
                    gadget=mode_name,
                    ancilla_count=plan.ancilla_count(),
                    precision_before=before,
                    precision_after=after,
                    precision_increase_pct=increase,
                    proven_optimal=proven,
                    wall_ms=elapsed_ms,
                )
            )
    return records


def worker_count() -> int:
    raw = os.environ.get("PUBO_FORGE_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def run_config(config: BenchConfig) -> list[BenchRecord]:
    """All per-instance records for one cell, in (index, strategy, mode) order."""
    indices = range(config.instances)
    workers = worker_count()
    if workers == 1 or config.instances == 1:
        nested = [_instance_records(config, i) for i in indices]
    else:
        from concurrent.futures import ProcessPoolExecutor  # costly import, needed only here

        with ProcessPoolExecutor(max_workers=workers) as pool:
            nested = list(pool.map(_instance_records, [config] * config.instances, indices))
    return [r for group in nested for r in group]


def aggregate(records: Sequence[BenchRecord]) -> list[dict]:
    """Group records by (n, lam, strategy, gadget), keeping first-seen order."""
    groups: dict[tuple, list[BenchRecord]] = {}
    for r in records:
        groups.setdefault((r.n, r.lam, r.strategy, r.gadget), []).append(r)
    rows = []
    for (n, lam, strategy, gadget), group in groups.items():
        count = len(group)
        rows.append(
            {
                "n": n,
                "lambda": lam,
                "strategy": strategy,
                "gadget": gadget,
                "mean_ancilla": sum(r.ancilla_count for r in group) / count,
                "mean_precision_increase_pct": sum(
                    r.precision_increase_pct for r in group
                )
                / count,
                "proven_optimal_frac": sum(r.proven_optimal for r in group) / count,
                "mean_wall_ms": sum(r.wall_ms for r in group) / count,
            }
        )
    return rows


def render_csv(rows: Iterable[dict], comments: Sequence[str] = ()) -> str:
    lines = ["# puboforge bench"]
    lines.extend(comments)
    lines.append(CSV_HEADER)
    for row in rows:
        lines.append(
            f"{row['n']},{row['lambda']},{row['strategy']},{row['gadget']},"
            f"{row['mean_ancilla']:.4f},{row['mean_precision_increase_pct']:.4f},"
            f"{row['proven_optimal_frac']:.4f},{row['mean_wall_ms']:.4f}"
        )
    return "\n".join(lines) + "\n"


def lambda_grid(n: int, points: int = 12) -> list[int]:
    """Roughly even integer grid over 1..C(n,3), at most `points` values."""
    top = math.comb(n, 3)
    if top < 1:
        raise ValueError("n too small for cubic terms")
    grid = sorted({max(1, round(i * top / points)) for i in range(1, points + 1)})
    return grid


def run_ancilla_experiment(configs: Iterable[BenchConfig]) -> str:
    """CSV of mean ancilla counts for the cover strategies."""
    records: list[BenchRecord] = []
    for config in configs:
        records.extend(run_config(replace(config, strategies=("ilp", "reduce-min"))))
    return render_csv(aggregate(records))


def run_precision_experiment(configs: Iterable[BenchConfig]) -> str:
    """CSV of mean control-precision growth for greedy vs arbitrary planning."""
    records: list[BenchRecord] = []
    for config in configs:
        records.extend(
            run_config(
                replace(
                    config,
                    strategies=("greedy", "arbitrary"),
                    gadget_modes=("single", "triple"),
                    include_quadratic_layer=True,
                )
            )
        )
    return render_csv(aggregate(records), comments=[PRECISION_MARKER_COMMENT])


@dataclass(frozen=True)
class FitResult:
    coefficient: float
    r_squared: float


def fit_sqrt_scaling(points: Sequence[tuple[int, int, float]]) -> FitResult:
    """Least-squares fit of mean = c * sqrt(n * lam) through the origin.

    Points are (n, lam, mean).  r_squared compares residuals against the
    variance around the mean of the observations.
    """
    if len(points) < 2:
        raise ValueError("need at least two points to fit")
    xs = [math.sqrt(n * lam) for n, lam, _ in points]
    ys = [y for _, _, y in points]
    sxx = sum(x * x for x in xs)
    if sxx == 0:
        raise ValueError("degenerate fit: all points at the origin")
    c = sum(x * y for x, y in zip(xs, ys)) / sxx
    mean_y = sum(ys) / len(ys)
    ss_tot = sum((y - mean_y) ** 2 for y in ys)
    ss_res = sum((y - c * x) ** 2 for x, y in zip(xs, ys))
    if ss_tot == 0:
        return FitResult(c, 1.0 if ss_res == 0 else 0.0)
    return FitResult(c, 1.0 - ss_res / ss_tot)
