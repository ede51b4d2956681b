"""Acceptance gate: nine pinned end-to-end checks with fixed tolerances.

Each test prints exactly one PASS/FAIL line (bypassing capture) so the
gate reads as a checklist even inside a long pytest run.  Tolerances and
instance regimes are frozen; loosening them here is never the fix for a
failure.
"""

import math
import random
import time
from itertools import combinations

from puboforge.bench import BenchConfig, fit_sqrt_scaling, lambda_grid, run_config
from puboforge.cli import run as cli_run
from puboforge.gadgets import (
    GadgetMode,
    apply_plan,
    emit_qubo,
    parse_qubo,
    penalty_s,
    verify_penalty_minimality,
)
from puboforge.poly import (
    avar,
    emit_polynomial,
    parse_polynomial,
    xvar,
)
from puboforge.precision import arbitrary_plan, greedy_precision_plan
from puboforge.setcover import (
    build_set_cover,
    mantel_construction,
    plan_from_cover,
    quarter_squares,
    reduce_min_greedy,
    set_cover_to_ilp,
    solve_ilp_exact,
    verify_saturation,
)
from puboforge.verify import verify_reduction
from puboforge.wmaxsat import (
    apply_quartic_plan,
    build_wmaxsat,
    emit_wcnf,
    parse_wcnf,
    solve_wmaxsat_exact,
)
from test_setcover import brute_force_cover_minimum
from test_wmaxsat import brute_force_minimum
from util import poly_of, random_cubic_poly, random_poly

SEED = 20260822

# records from the criterion-5 sweep, reused by the criterion-6 sandwich
_SCALING_RECORDS: list = []


def announce(capsys, num, label, ok, detail):
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        print(f"\nacceptance criterion {num} [{label}]: {status} ({detail})")


def test_criterion_1_penalty_table(capsys):
    expected = {
        (0, 0, 0): 0,
        (0, 0, 1): 3,
        (0, 1, 0): 0,
        (0, 1, 1): 1,
        (1, 0, 0): 0,
        (1, 0, 1): 1,
        (1, 1, 0): 1,
        (1, 1, 1): 0,
    }
    start = time.perf_counter()
    s = penalty_s(xvar(1), xvar(2), avar(0), 2)
    got = {
        (x, y, z): s.evaluate({xvar(1): x, xvar(2): y, avar(0): z})
        for (x, y, z) in expected
    }
    elapsed = time.perf_counter() - start
    ok = got == expected and elapsed < 0.001
    announce(capsys, 1, "penalty table", ok, f"8/8 rows exact in {elapsed * 1e6:.0f} us")
    assert got == expected
    assert elapsed < 0.001


def test_criterion_2_penalty_minimality(capsys):
    start = time.perf_counter()
    bound = verify_penalty_minimality()
    elapsed = time.perf_counter() - start
    ok = bound == 3 and elapsed < 5.0
    announce(capsys, 2, "penalty minimality", ok, f"minimum {bound} in {elapsed:.2f} s")
    assert bound == 3
    assert elapsed < 5.0


def _strategy_plan(name, poly, mode):
    if name == "min-ancilla":
        sc = build_set_cover(poly)
        result = solve_ilp_exact(set_cover_to_ilp(sc))
        return plan_from_cover(sc, result.selection, poly, mode)
    if name == "reduce-min":
        return reduce_min_greedy(poly, mode)
    return greedy_precision_plan(poly, mode)


def test_criterion_3_reduction_soundness(capsys):
    start = time.perf_counter()
    failures = 0
    checked = 0
    per_combo = 500
    for name in ("min-ancilla", "reduce-min", "min-precision"):
        for mode in (GadgetMode.SINGLE, GadgetMode.TRIPLE):
            rng = random.Random(f"accept3:{name}:{mode.value}:{SEED}")
            for _ in range(per_combo):
                n = rng.randint(3, 7)
                lam = rng.randint(1, min(15, math.comb(n, 3)))
                poly = random_cubic_poly(rng, n, lam)
                plan = _strategy_plan(name, poly, mode)
                reduced = apply_plan(poly, plan)
                report = verify_reduction(
                    poly, reduced, cap=reduced.total_variables()
                )
                checked += 1
                if not report.ok:
                    failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and checked == 6 * per_combo
    announce(
        capsys,
        3,
        "reduction soundness",
        ok,
        f"{checked} reductions, {failures} oracle failures, {elapsed:.1f} s",
    )
    assert failures == 0
    assert checked == 6 * per_combo


def test_criterion_4_saturation(capsys):
    start = time.perf_counter()
    expected = {5: 4, 6: 6, 7: 9, 8: 12}
    law_ok = True
    mantel_ok = True
    for n, want in expected.items():
        law_ok &= quarter_squares(n) == want
        law_ok &= verify_saturation(n)
        cover = mantel_construction(n)
        mantel_ok &= len(cover) == want
        chosen = set(cover)
        mantel_ok &= all(
            any(p in chosen for p in combinations(t, 2))
            for t in combinations(range(1, n + 1), 3)
        )
    elapsed = time.perf_counter() - start
    ok = law_ok and mantel_ok and elapsed < 120.0
    announce(
        capsys,
        4,
        "saturation law",
        ok,
        f"optima {list(expected.values())} for n=5..8, feasible covers, {elapsed:.1f} s",
    )
    assert law_ok
    assert mantel_ok
    assert elapsed < 120.0


def test_criterion_5_scaling_shape(capsys):
    start = time.perf_counter()
    n = 8
    grid = lambda_grid(n)
    points = []
    for lam in grid:
        records = run_config(
            BenchConfig(
                n=n,
                lam=lam,
                instances=100,
                seed=SEED,
                strategies=("ilp", "reduce-min"),
            )
        )
        _SCALING_RECORDS.extend(records)
        ilp = [r.ancilla_count for r in records if r.strategy == "ilp"]
        points.append((n, lam, sum(ilp) / len(ilp)))
    fit_points = [p for p in points if p[1] <= math.comb(n, 3) // 2]
    fit = fit_sqrt_scaling(fit_points)
    elapsed = time.perf_counter() - start
    ok = len(grid) == 12 and fit.r_squared >= 0.9 and elapsed < 600.0
    announce(
        capsys,
        5,
        "sqrt(n*lambda) scaling",
        ok,
        f"12-point grid, c={fit.coefficient:.3f}, R^2={fit.r_squared:.4f}, {elapsed:.1f} s",
    )
    assert len(grid) == 12
    assert fit.r_squared >= 0.9
    assert elapsed < 600.0


def test_criterion_6_optimality_sandwich(capsys):
    start = time.perf_counter()
    violations = 0
    proven = 0
    rng = random.Random(f"accept6:{SEED}")
    for _ in range(120):
        n = rng.randint(4, 6)
        lam = rng.randint(1, min(8, math.comb(n, 3)))
        poly = random_cubic_poly(rng, n, lam)
        sc = build_set_cover(poly)
        result = solve_ilp_exact(set_cover_to_ilp(sc))
        if not result.proven_optimal:
            continue
        proven += 1
        brute = brute_force_cover_minimum(sc)
        reduce_min = reduce_min_greedy(poly, GadgetMode.SINGLE).ancilla_count()
        if not (brute == result.cost <= reduce_min):
            violations += 1
    # pair up the criterion-5 sweep records per instance as well
    sweep_pairs = 0
    for ilp_rec, rm_rec in zip(_SCALING_RECORDS[0::2], _SCALING_RECORDS[1::2]):
        assert ilp_rec.strategy == "ilp" and rm_rec.strategy == "reduce-min"
        if ilp_rec.proven_optimal:
            sweep_pairs += 1
            if ilp_rec.ancilla_count > rm_rec.ancilla_count:
                violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and proven > 0
    announce(
        capsys,
        6,
        "optimality sandwich",
        ok,
        f"{proven} proven instances + {sweep_pairs} sweep pairs, "
        f"{violations} violations, {elapsed:.1f} s",
    )
    assert proven > 0
    assert violations == 0


def test_criterion_7_precision_ratio(capsys):
    start = time.perf_counter()
    config = BenchConfig(
        n=11,
        lam=50,
        include_quadratic_layer=True,
        instances=100,
        seed=SEED,
        strategies=("greedy", "arbitrary"),
        gadget_modes=("single",),
    )
    records = run_config(config)
    greedy = [r.precision_increase_pct for r in records if r.strategy == "greedy"]
    arbitrary = [
        r.precision_increase_pct for r in records if r.strategy == "arbitrary"
    ]
    ratio = (sum(greedy) / len(greedy)) / (sum(arbitrary) / len(arbitrary))
    elapsed = time.perf_counter() - start
    ok = 0.4 <= ratio <= 0.6 and elapsed < 300.0
    announce(
        capsys,
        7,
        "precision halving",
        ok,
        f"greedy/arbitrary mean-increase ratio {ratio:.3f} over 100 instances, "
        f"{elapsed:.1f} s",
    )
    assert 0.4 <= ratio <= 0.6
    assert elapsed < 300.0


def test_criterion_8_quartic_optimum(capsys):
    start = time.perf_counter()
    single = poly_of(4, {(1, 2, 3, 4): 1})
    single_result = solve_wmaxsat_exact(build_wmaxsat(single))
    single_ok = single_result.proven_optimal and single_result.cost == 2

    rng = random.Random(f"accept8:{SEED}")
    agree = 0
    mismatches = 0
    oracle_failures = 0
    while agree + mismatches < 25:
        n = rng.randint(4, 6)
        nterms = rng.randint(1, 3)
        poly = random_poly(rng, n, nterms, allow_constant=False)
        if not poly.quartic_terms():
            continue
        instance = build_wmaxsat(poly)
        if instance.num_vars > 18:
            continue
        result = solve_wmaxsat_exact(instance)
        if not result.proven_optimal:
            continue
        if result.cost != brute_force_minimum(poly, instance):
            mismatches += 1
        else:
            agree += 1
        reduced = apply_quartic_plan(poly, instance, result.selection)
        report = verify_reduction(poly, reduced, cap=reduced.total_variables())
        if not report.ok:
            oracle_failures += 1
    elapsed = time.perf_counter() - start
    ok = single_ok and mismatches == 0 and oracle_failures == 0 and elapsed < 600.0
    announce(
        capsys,
        8,
        "quartic optimum",
        ok,
        f"single-term optimum {single_result.cost}, {agree}/25 brute-force "
        f"agreements, {oracle_failures} oracle failures, {elapsed:.1f} s",
    )
    assert single_ok
    assert mismatches == 0
    assert oracle_failures == 0
    assert elapsed < 600.0


def test_criterion_9_determinism_round_trips(capsys, tmp_path):
    start = time.perf_counter()
    problems = []

    # byte-identical CLI outputs for identical (input, flags, seed)
    src = tmp_path / "ex.pubo"
    src.write_text("p pubo 5\n1 1 2 3\n1 1 4 5\n1 2 3 5\n")
    out_a = tmp_path / "a.qubo"
    out_b = tmp_path / "b.qubo"
    cli_run(["compile", str(src), "-o", str(out_a), "--seed", "3"])
    stdout_a = capsys.readouterr().out.replace(str(out_a), "OUT")
    cli_run(["compile", str(src), "-o", str(out_b), "--seed", "3"])
    stdout_b = capsys.readouterr().out.replace(str(out_b), "OUT")
    if out_a.read_bytes() != out_b.read_bytes():
        problems.append("compile output bytes differ across reruns")
    if stdout_a != stdout_b:
        problems.append("compile summaries differ across reruns")

    # .pubo round trip: parse then emit reproduces the canonical text
    rng = random.Random(f"accept9:{SEED}")
    for _ in range(50):
        n = rng.randint(3, 8)
        poly = random_cubic_poly(rng, n, rng.randint(1, min(10, math.comb(n, 3))))
        text = emit_polynomial(poly)
        if parse_polynomial(text) != poly or emit_polynomial(parse_polynomial(text)) != text:
            problems.append("pubo round trip broke")
            break

    # .qubo round trip on compiled artifacts, single and triple gadgets
    for mode in (GadgetMode.SINGLE, GadgetMode.TRIPLE):
        poly = random_cubic_poly(rng, 6, 5)
        reduced = apply_plan(poly, greedy_precision_plan(poly, mode))
        text = emit_qubo(reduced)
        again = parse_qubo(text)
        if again != reduced or emit_qubo(again) != text:
            problems.append(f"qubo round trip broke ({mode.value})")

    # WCNF round trip on a degree-4 encoding
    quartic = poly_of(5, {(1, 2, 3, 4): 2, (2, 3, 4, 5): -1, (1, 2, 3): 4})
    instance = build_wmaxsat(quartic)
    text = emit_wcnf(instance)
    again = parse_wcnf(text)
    if again != instance or emit_wcnf(again) != text:
        problems.append("wcnf round trip broke")

    # seeded planning determinism inside the library
    base = random_cubic_poly(random.Random("accept9-arb"), 7, 8)
    if arbitrary_plan(base, seed=5) != arbitrary_plan(base, seed=5):
        problems.append("arbitrary plan not reproducible")

    elapsed = time.perf_counter() - start
    ok = not problems
    announce(
        capsys,
        9,
        "determinism and round trips",
        ok,
        "; ".join(problems) if problems else f"all byte-stable, {elapsed:.1f} s",
    )
    assert not problems
