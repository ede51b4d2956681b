"""puboforge benchmark: one seeded closed-loop workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
lines before it are a human-readable report.  Every run also writes
``.perfbench/results/<workload>-seed<N>-trace<T>.json`` (metrics plus the
environment, the tail percentile and its sample count, and a digest of
the emitted ``.qubo`` bytes), and a traced run writes its spans to
``.perfbench/traces/<workload>-seed<N>.json``.

With ``--trace 1`` every operation runs twice, untraced and then traced;
the difference between the two is reported as the tracing overhead.

The timing metrics of an untraced run are multiples of the run's median
time for a fixed reference computation (``reference.py``), timed between
operations all through the run; the wall times themselves are printed in
the report above the last line.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import check
import measure
import reference
import spans
from workloads import WORKLOADS, Op, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_SAMPLES = 5  # fresh interpreters timed for setup_s
STARTUP_SAMPLES = 3  # interpreter and import timings in a traced run
ORACLE_CAP = 24  # total variables the enumeration oracle accepts by default
DIGEST_OPS = 6  # leading compile outputs hashed into the byte digest
REF_EVERY_S = 0.25  # operation time between two reference timings


@dataclass
class Result:
    k: int
    op: Op
    argv: list[str]
    code: int
    stdout: str
    stderr: str
    wall_s: float
    output: str | None = None


class Runner:
    """Prepares inputs and executes operations for one workload and seed."""

    def __init__(self, workload: Workload, seed: int, workdir: Path, cli) -> None:
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.cli = cli
        self.env = {k: v for k, v in os.environ.items() if k != "PUBO_FORGE_THREADS"}
        self.env["PYTHONPATH"] = str(SRC)

    def input_path(self, index: int) -> Path:
        path = self.workdir / f"in-{index}.pubo"
        if not path.exists():
            path.write_text(self.workload.instance(self.seed, index))
        return path

    def prepare(self, k: int, op: Op, prefix: str) -> tuple[list[str], Path]:
        """Write the operation's inputs (untimed) and resolve its argv."""
        source = self.input_path(op.instance)
        if op.kind == "verify":
            out = self.workdir / f"{prefix}shift-{k}.qubo"
            original = (self.workdir / f"{prefix}out-{op.shift_of}.qubo").read_text()
            out.write_text(check.shift_constant(original))
        else:
            out = self.workdir / f"{prefix}out-{k}.qubo"
        argv = [a.replace("{in}", str(source)).replace("{out}", str(out)) for a in op.argv]
        return argv, out

    def in_process(self, k: int, op: Op, argv: list[str]) -> Result:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = self.cli.run(argv)
            except Exception:  # an operation that raises counts as failed
                traceback.print_exc()
                code = -1
            wall = time.perf_counter() - start
        return Result(k, op, argv, code, out.getvalue(), err.getvalue(), wall)

    def execute(self, k: int, op: Op, argv: list[str], tracer: spans.Tracer | None) -> Result:
        if tracer is None:
            return self.in_process(k, op, argv)
        with tracer.operation(k):
            return self.in_process(k, op, argv)

    def timed(self, k: int, op: Op, prefix: str, tracer: spans.Tracer | None) -> Result:
        argv, out = self.prepare(k, op, prefix)
        result = self.execute(k, op, argv, tracer)
        if op.kind == "compile" and out.exists():
            result.output = out.read_text()
        return result

    def closed_loop(
        self, seconds: float, tracer: spans.Tracer | None
    ) -> tuple[list[Result], list[Result], list[float]]:
        """One client, one operation at a time, until ``seconds`` have passed
        at a block boundary.  Without a tracer, the reference computation is
        timed before the first operation and again whenever the operations
        have taken ``REF_EVERY_S`` since it last ran, so its timings sample
        the host's speed over the same minutes as the operations.  With a
        tracer, each operation runs both untraced and traced, in alternating
        order, so the two lists pair up and drift of the host's speed cancels
        out of the tracing overhead."""
        plain: list[Result] = []
        traced: list[Result] = []
        refs: list[float] = []
        since_ref = REF_EVERY_S
        start = time.perf_counter()
        k = 0
        while k % self.workload.block or time.perf_counter() - start < seconds:
            if tracer is None and since_ref >= REF_EVERY_S:
                refs.append(reference.timed())
                since_ref = 0.0
            op = self.workload.op(k)
            if tracer is not None and k % 2:  # alternate which pass goes first
                traced.append(self.timed(k, op, "t-", tracer))
            plain.append(self.timed(k, op, "", None))
            since_ref += plain[-1].wall_s
            if tracer is not None and not k % 2:
                traced.append(self.timed(k, op, "t-", tracer))
            k += 1
        return plain, traced, refs

    def warmup_argv(self) -> list[str]:
        text, flags = self.workload.warmup()
        source = self.workdir / "warmup.pubo"
        source.write_text(text)
        out = self.workdir / "warmup.qubo"
        argv = ["compile", str(source), "-o", str(out), "--json", *flags]
        return [a.replace("{out}", str(out)) for a in argv]

    def setup_seconds(self) -> list[float]:
        """Fresh interpreter -> ``import puboforge`` -> one warm-up compile,
        timed from spawn to exit, several times."""
        argv = self.warmup_argv()
        samples = []
        for _ in range(SETUP_SAMPLES):
            start = time.perf_counter()
            subprocess.run(
                [sys.executable, "-m", "puboforge.cli", *argv],
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=self.env, cwd=ROOT, check=True,
            )
            samples.append(time.perf_counter() - start)
        return samples

    def startup_ms(self) -> tuple[float, float]:
        """Median interpreter start, and median ``import puboforge`` beyond it."""

        def timed(code: str) -> float:
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=self.env, cwd=ROOT, check=True)
            return time.perf_counter() - start

        interp = statistics.median(timed("pass") for _ in range(STARTUP_SAMPLES))
        imported = statistics.median(timed("import puboforge") for _ in range(STARTUP_SAMPLES))
        return interp * 1000, (imported - interp) * 1000


# ---------------------------------------------------------------------------
# Correctness, outside the timed region
# ---------------------------------------------------------------------------


def summary_of(result: Result) -> dict | None:
    lines = result.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def check_result(runner: Runner, result: Result, oracle) -> str | None:
    """None when the operation's outcome is right, else the reason."""
    op = result.op
    if result.code != op.expect_exit:
        return f"exit {result.code}, expected {op.expect_exit}: {result.stderr.strip()[-300:]}"
    summary = summary_of(result)
    if summary is None:
        return "no JSON summary on stdout"
    if op.kind == "verify":
        return None if summary.get("verdict") == "fail" else f"verdict {summary.get('verdict')!r}, expected 'fail'"
    if result.output is None:
        return "no .qubo written"
    if summary.get("ancilla") != check.ancilla_lines(result.output):
        return f"--json reports {summary.get('ancilla')} ancillas, .qubo defines {check.ancilla_lines(result.output)}"
    pubo = runner.input_path(op.instance).read_text()
    why = check.sampled_check(pubo, result.output, f"{runner.seed}:{result.k}")
    if why:
        return why
    if "--verify" in result.argv:
        return None if summary.get("verified") is True else "the operation's own --verify did not pass"
    if check.parse_qubo(result.output).total <= ORACLE_CAP and not oracle(pubo, result.output):
        return "verify_reduction rejects the reduction"
    return None


def check_all(runner: Runner, results: list[Result], oracle) -> list[str]:
    """One line per failed operation.  Operations that repeat an earlier
    one (the traced pass repeats the untraced one) must emit its bytes."""
    failures = []
    first_output: dict[tuple, str] = {}
    for r in results:
        why = check_result(runner, r, oracle)
        if why is None and r.output is not None:
            if first_output.setdefault((r.op.instance, r.op.argv), r.output) != r.output:
                why = "output differs from an earlier run of the same operation"
        if why:
            failures.append(f"op {r.k} ({r.argv[0]}): {why}")
    return failures


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def end_to_end(workload: Workload, results: list[Result], failed: int, refs: list[float]) -> tuple[dict, dict]:
    """(metrics with units, report-only information).  Timing metrics are
    in units of the median reference time ``ref``; the wall times go to the
    information."""
    compiles = [r for r in results if r.op.kind == "compile"]
    latencies = [r.wall_s * 1000 for r in compiles]
    if workload.latency_per_block:
        blocks: dict[int, list[float]] = {}
        for r in compiles:
            blocks.setdefault(r.k // workload.block, []).append(r.wall_s * 1000)
        latencies = [statistics.fmean(v) for v in blocks.values()]
    tail, beyond = measure.nearest_rank(latencies, workload.tail_pct)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    good = [(r, s) for r in compiles if r.code == 0 and r.output and (s := summary_of(r))]
    growth = [100 * (s["precision_after"] - s["precision_before"]) / s["precision_before"] for _, s in good]
    per_s = len(results) / sum(r.wall_s for r in results)
    p50 = statistics.median(latencies)
    ref_ms = statistics.median(refs) * 1000
    metrics = {
        "compiles_per_ref": (per_s * ref_ms / 1000, "1/ref"),
        "compile_p50_ref": (p50 / ref_ms, "ref"),
        "compile_tail_ref": (tail / ref_ms, "ref"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
        "ancilla_mean": (statistics.fmean(s["ancilla"] for _, s in good) if good else 0.0, "count"),
        "precision_growth_pct_mean": (statistics.fmean(growth) if growth else 0.0, "%"),
        "qubo_terms_mean": (statistics.fmean(check.term_lines(r.output) for r, _ in good) if good else 0.0, "count"),
        "ok_frac": (1 - failed / len(results), "fraction"),
    }
    info = {
        "compiles_per_s": per_s,
        "compile_ms_p50": p50,
        "compile_ms_tail": tail,
        "reference_ms_p50": ref_ms,
        "reference_samples": len(refs),
        "operations": len(results),
        "latency_samples": len(latencies),
        "tail_percentile": workload.tail_pct,
        "tail_samples_beyond": beyond,
        "tail_rule_percentile": measure.tail_percentile(len(latencies)),
        "failed_frac": failed / len(results),
        "latencies_ms": [round(x, 3) for x in latencies],
    }
    verifies = [r.wall_s * 1000 for r in results if r.op.kind == "verify"]
    if verifies:
        info["verify_ms_p50"] = statistics.median(verifies)
        info["verify_samples"] = len(verifies)
    proven = [bool(s.get("proven_optimal")) for _, s in good if s.get("strategy") == "min-ancilla"]
    if proven:
        info["proven_frac"] = sum(proven) / len(proven)
    info["qubo_sha256_first_ops"] = qubo_digest(results)
    return metrics, info


def qubo_digest(results: list[Result]) -> str:
    """sha256 of the .qubo bytes of the first compile operations; shows
    whether a change altered the program's output (information only)."""
    digest = hashlib.sha256()
    for r in [r for r in results if r.op.kind == "compile"][:DIGEST_OPS]:
        digest.update((r.output or "").encode())
    return digest.hexdigest()


def environment(seed: int) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "absent"
    commit = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    lines = {p.name: len(p.read_text().splitlines()) for p in sorted((SRC / "puboforge").glob("*.py"))}
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": commit,
        "seed": seed,
        "src_lines": lines,
        "src_lines_total": sum(lines.values()),
    }


WALL_UNITS = {  # wall-time figures that the report prints beside the metrics
    "compiles_per_s": "1/s",
    "compile_ms_p50": "ms",
    "compile_ms_tail": "ms",
    "reference_ms_p50": "ms",
}

UNITS = {
    "self_ms": "ms/op",
    "calls": "calls/op",
    "nodes": "nodes/op",
    "us_per_node": "us/node",
    "proven_frac": "fraction",
}


def per_layer(runner: Runner, tracer: spans.Tracer, untraced: list[Result], traced: list[Result]) -> tuple[dict, dict]:
    values = spans.layer_metrics(tracer, len(traced))
    metrics = {name: (value, UNITS[name.rsplit(".", 1)[1]]) for name, value in values.items()}
    interp_ms, import_ms = runner.startup_ms()
    metrics["cli.interpreter_ms"] = (interp_ms, "ms")
    metrics["cli.import_ms"] = (import_ms, "ms")
    plain = sum(r.wall_s for r in untraced)
    with_trace = sum(r.wall_s for r in traced)
    metrics["trace.overhead_ms"] = ((with_trace - plain) * 1000 / len(traced), "ms/op")
    metrics["trace.overhead_pct"] = (100 * (with_trace - plain) / plain, "%")
    op_ms = with_trace * 1000 / len(traced)
    shares = {
        name[: -len(".self_ms")]: round(100 * value / op_ms, 1)
        for name, (value, _) in metrics.items()
        if name.endswith(".self_ms") and value
    }
    return metrics, {"traced_op_ms": op_ms, "self_share_pct": shares}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def report(workload: Workload, args, metrics: dict, info: dict, env: dict) -> None:
    print(f"# puboforge benchmark: workload {workload.name}, seed {args.seed}, "
          f"{args.seconds} s, trace {args.trace}")
    print(f"# {workload.why}")
    for name, (value, unit) in metrics.items():
        extra = ""
        if name == "compile_tail_ref":
            extra = f"  (p{info['tail_percentile']}, {info['tail_samples_beyond']} of {info['latency_samples']} samples beyond)"
        print(f"{name:44s} {value:14.4f} {unit}{extra}")
    for name, value in info.items():
        if name in WALL_UNITS:
            print(f"{name:44s} {value:14.4f} {WALL_UNITS[name]}")
        elif name != "latencies_ms":  # kept for the results file only
            print(f"{name:44s} {value}")
    print("env " + json.dumps(env, sort_keys=True))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "puboforge" / "cli.py").is_file():
        print(f"error: {SRC / 'puboforge'} not found; run from a puboforge source checkout", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    os.environ.pop("PUBO_FORGE_THREADS", None)
    import puboforge.cli
    from puboforge.gadgets import parse_qubo
    from puboforge.poly import parse_polynomial
    from puboforge.verify import verify_reduction

    def oracle(pubo: str, qubo: str) -> bool:
        return verify_reduction(parse_polynomial(pubo), parse_qubo(qubo), cap=ORACLE_CAP).ok

    workload = WORKLOADS[args.workload]
    tag = f"{workload.name}-seed{args.seed}"
    workdir = OUT / "work" / f"{tag}-trace{args.trace}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(workload, args.seed, workdir, puboforge.cli)
        metrics: dict[str, tuple[float, str]] = {}
        info: dict = {}
        warmed = runner.in_process(-1, Op("compile", -1, ()), runner.warmup_argv()).code == 0
        if warmed and args.trace == 0:
            try:
                setup = runner.setup_seconds()
            except subprocess.CalledProcessError:
                warmed = False
            else:
                metrics["setup_s"] = (statistics.median(setup), "s")
                info["setup_samples_s"] = [round(s, 4) for s in setup]
        if not warmed:
            print("error: the warm-up compile failed", file=sys.stderr)
            return 1

        tracer = None
        if args.trace == 1:
            tracer = spans.Tracer()
            spans.install(tracer)
        untraced, traced, refs = runner.closed_loop(args.seconds, tracer)
        results = untraced + traced

        failures = check_all(runner, results, oracle)
        failed = len(failures)

        if args.trace == 0:
            e2e, e2e_info = end_to_end(workload, results, failed, refs)
            metrics.update(e2e)
            info.update(e2e_info)
        else:
            layer, layer_info = per_layer(runner, tracer, untraced, traced)
            metrics.update(layer)
            info["operations"] = len(results)
            info["qubo_sha256_first_ops"] = qubo_digest(untraced)
            info.update(layer_info)
            trace_path = OUT / "traces" / f"{tag}.json"
            trace_path.parent.mkdir(parents=True, exist_ok=True)
            trace_path.write_text(json.dumps({"workload": workload.name, "seed": args.seed, **spans.to_json(tracer)}))
            info["trace_file"] = str(trace_path.relative_to(ROOT))
        info["failures"] = failures[:20]
        env = environment(args.seed)

        results_path = OUT / "results" / f"{tag}-trace{args.trace}.json"
        results_path.parent.mkdir(parents=True, exist_ok=True)
        results_path.write_text(json.dumps(
            {"workload": workload.name, "why": workload.why, "metrics": metrics, "info": info, "env": env},
            indent=1, sort_keys=True,
        ))
        report(workload, args, metrics, info, env)
        print(json.dumps({
            "correct": failed == 0,
            "attempted": len(results),
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
