"""Tests for the benchmark's own logic (not for puboforge).

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import check  # noqa: E402
import measure  # noqa: E402
import reference  # noqa: E402
import run as bench_run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from puboforge.cli import run  # noqa: E402
from puboforge.gadgets import ReductionPlan, apply_plan, emit_qubo  # noqa: E402
from puboforge.poly import parse_polynomial  # noqa: E402


def test_same_seed_gives_byte_identical_inputs():
    for workload in WORKLOADS.values():
        for index in range(3):
            assert workload.instance(7, index) == workload.instance(7, index)
        assert workload.instance(7, 0) != workload.instance(8, 0)
        assert workload.instance(7, 0) != workload.instance(7, 1)


def test_inputs_parse_with_the_declared_shape():
    shapes = {
        "cover-exact": (13, 3, 60),
        "precision-dense": (11, 3, 40),
        "scale-greedy": (30, 3, 300),
        "quartic-maxsat": (8, 4, 4),
    }
    for name, (n, degree, count) in shapes.items():
        poly = parse_polynomial(WORKLOADS[name].instance(1, 0))
        assert poly.n == n and poly.degree() == degree
        got = len(poly.cubic_terms()) if degree == 3 else len(poly.quartic_terms())
        assert got == count


def test_verify_oracle_cubic_instances_compile_to_18_variables(tmp_path, capsys):
    workload = WORKLOADS["verify-oracle"]
    for index in (0, 1, 3, 4):
        text = workload.instance(5, index)
        poly = parse_polynomial(text)
        cubics = [set(t) for t in poly.cubic_terms()]
        assert poly.n == 14 and len(cubics) == 4
        assert len(set().union(*cubics)) == 12
        assert len(list(poly.terms_of_degree(2))) == 14 * 13 // 2
        pubo, qubo = tmp_path / "in.pubo", tmp_path / "out.qubo"
        pubo.write_text(text)
        capsys.readouterr()
        assert run(["compile", str(pubo), "-o", str(qubo), "--json"]) == 0
        assert json.loads(capsys.readouterr().out.strip().splitlines()[-1])["ancilla"] == 4
        assert check.parse_qubo(qubo.read_text()).total == 18


def test_tail_percentile_keeps_ten_samples_beyond():
    assert measure.tail_percentile(19) is None
    assert measure.tail_percentile(20) == 50
    assert measure.tail_percentile(39) == 50
    assert measure.tail_percentile(40) == 75
    assert measure.tail_percentile(99) == 75
    assert measure.tail_percentile(100) == 90
    assert measure.tail_percentile(1000) == 99
    assert measure.nearest_rank(list(range(1, 101)), 90) == (90, 10)
    assert measure.nearest_rank([5.0, 1.0, 3.0], 50) == (3.0, 1)
    for workload in WORKLOADS.values():
        assert workload.tail_pct in measure.LADDER


def test_self_time_subtracts_nested_children():
    # root 0..100 holds a 10..40 child (itself holding 15..35) and a 50..70
    # child; two overlapping children of `b` are counted once.
    recorded = [
        (0, 1, None, "root", 0, 100, None),
        (0, 2, 1, "a", 10, 40, None),
        (0, 3, 2, "a.inner", 15, 35, None),
        (0, 4, 1, "b", 50, 70, None),
        (0, 5, 4, "b.x", 52, 60, None),
        (0, 6, 4, "b.y", 58, 66, None),
    ]
    assert spans.self_times(recorded) == {1: 50, 2: 10, 3: 20, 4: 6, 5: 8, 6: 8}


def test_wrappers_link_parents_and_aggregate_per_operation():
    tracer = spans.Tracer()
    inner = tracer.spanned("poly.parse_polynomial", lambda: 1)
    outer = tracer.spanned("cli.run", lambda: inner() + 1)
    tracer.installed.update({"cli.run", "poly.parse_polynomial"})
    for k in range(2):
        with tracer.operation(k):
            assert outer() == 2
    by_id = {s[1]: s for s in tracer.spans}
    for op, _, parent, name, *_ in tracer.spans:
        if name == "poly.parse_polynomial":
            assert by_id[parent][3] == "cli.run" and by_id[parent][0] == op
        if name == "cli.run":
            assert by_id[parent][3] == "op"
    metrics = spans.layer_metrics(tracer, ops=2)
    assert set(metrics) == {"cli.run.self_ms", "poly.parse_polynomial.self_ms", "op.self_ms"}


def test_shifted_qubo_gives_exit_1(tmp_path, capsys):
    for text in ("p pubo 4\n3 1 2 3\n-2 2 3 4\n", "p pubo 4\nc 5\n3 1 2 3\n-2 2 3 4\n"):
        pubo, qubo, shifted = tmp_path / "p.pubo", tmp_path / "p.qubo", tmp_path / "s.qubo"
        pubo.write_text(text)
        assert run(["compile", str(pubo), "-o", str(qubo)]) == 0
        assert run(["verify", str(pubo), str(qubo)]) == 0
        shifted.write_text(check.shift_constant(qubo.read_text()))
        assert shifted.read_text() != qubo.read_text()
        assert run(["verify", str(pubo), str(shifted), "--json"]) == 1
        assert '"verdict": "fail"' in capsys.readouterr().out


def test_sampled_check_rejects_a_zero_penalty_weight():
    text = "p pubo 6\n-5 1 2 3\n4 1 2 4\n-3 2 5 6\n7 3 4 6\n-2 1 5 6\n1 1 2\n"
    poly = parse_polynomial(text)
    plan = ReductionPlan.from_assignment(poly, {(1, 2): {3, 4}, (5, 6): {2, 1}, (3, 4): {6}})
    good = emit_qubo(apply_plan(poly, plan))
    assert check.sampled_check(text, good, "t") is None
    for key in plan.deltas:
        weakened = ReductionPlan(plan.mode, plan.assignments, {**plan.deltas, key: 0})
        bad = emit_qubo(apply_plan(poly, weakened))
        assert check.sampled_check(text, bad, "t") is not None


def test_sampled_check_rejects_a_shifted_constant():
    text = "p pubo 4\n3 1 2 3\n-2 2 3 4\n"
    poly = parse_polynomial(text)
    plan = ReductionPlan.from_assignment(poly, {(2, 3): {1, 4}})
    qubo = emit_qubo(apply_plan(poly, plan))
    assert check.sampled_check(text, qubo, "t") is None
    assert check.sampled_check(text, check.shift_constant(qubo), "t") is not None


def test_reference_computation_is_fixed():
    assert reference.work() == reference.CHECKSUM
    assert reference.timed() > 0


def test_end_to_end_metrics_match_benchmark_json():
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["end_to_end"]
    workload = WORKLOADS["cover-exact"]
    qubo = "p qubo 4 3\nc 0\n1 1 2\n-2 3 4\n"
    results = [
        bench_run.Result(k, workload.op(k), ["compile"], 0, '{"ancilla": 1, "precision_before": 4, '
                         '"precision_after": 6}\n', "", 0.01 * (k + 1), output=qubo)
        for k in range(4)
    ]
    metrics, info = bench_run.end_to_end(workload, results, 0, [0.02, 0.02, 0.04])
    for metric in declared:
        if metric["name"] != "setup_s":
            assert metrics[metric["name"]][1] == metric["unit"]
    assert {m["name"] for m in declared} == set(metrics) | {"setup_s"}
    assert metrics["compile_p50_ref"][0] == info["compile_ms_p50"] / 20
    assert metrics["compiles_per_ref"][0] == info["compiles_per_s"] * 0.02
