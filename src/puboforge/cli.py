"""Command-line frontend: compile, verify, bench, emit-wcnf, stats.

Exit codes are a stable contract: 0 success, 1 verification failure,
2 input error (unparsable files, unsupported degree, bad flag combos),
3 resource cap exceeded (the verifier's enumeration cap).  A solver that
exhausts its node budget is not an error: compile writes the best
reduction found and reports ``proven optimal: no``.

Every file written is a deterministic function of the input bytes and the
flags.  ``--json`` switches the human-readable summary to one flat JSON
object on standard output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from puboforge.bench import (
    BenchConfig,
    lambda_grid,
    run_ancilla_experiment,
    run_precision_experiment,
)
from puboforge.gadgets import GadgetMode, apply_plan, emit_qubo, parse_qubo
from puboforge.poly import (
    DEFAULT_ENUMERATION_CAP,
    CapExceededError,
    ParseError,
    Polynomial,
    PuboError,
    control_precision,
    parse_polynomial,
    text_lines,
)
from puboforge.precision import greedy_precision_plan
from puboforge.setcover import (
    build_set_cover,
    emit_lp,
    plan_from_cover,
    reduce_min_greedy,
    solve_ilp_exact,
)
from puboforge.verify import verify_reduction
from puboforge.wmaxsat import (
    apply_quartic_plan,
    build_wmaxsat,
    emit_wcnf,
    parse_model,
    selection_from_model,
    solve_wmaxsat_exact,
)

STRATEGIES = ("min-ancilla", "min-precision", "reduce-min")

BENCH_PRESETS = {
    # full quadratic-free cubic sweep at n=8: ancilla count versus term count
    "ancilla-scaling": {
        "experiment": "ancilla",
        "n": 8,
        "lambdas": None,  # filled from lambda_grid(n)
        "instances": 100,
        "quadratic_layer": False,
    },
    # dense regime with a full quadratic layer: control-precision growth
    "precision-growth": {
        "experiment": "precision",
        "n": 11,
        "lambdas": [50],
        "instances": 100,
        "quadratic_layer": True,
    },
}


def _print_summary(pairs: list[tuple[str, object]], as_json: bool) -> None:
    if as_json:
        print(json.dumps({k.replace(" ", "_"): v for k, v in pairs}, sort_keys=True))
    else:
        for key, value in pairs:
            if isinstance(value, bool):
                value = "yes" if value else "no"
            print(f"{key}: {value}")


def _format_assignment(assignment: dict) -> str:
    return " ".join(f"{var}={bit}" for var, bit in sorted(assignment.items()))


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise PuboError(f"cannot read {path}: {exc}") from exc


def _precision(poly: Polynomial, include_offset: bool) -> int:
    """Control precision, or 0 when no coefficient is left to measure."""
    if not (poly.degree() or include_offset and poly):
        return 0
    return control_precision(poly, include_offset).control_precision


def _cubic_pipeline(poly: Polynomial, args: argparse.Namespace):
    """(reduced instance, proven optimal, solver nodes or None)."""
    mode = GadgetMode(args.gadget)
    if args.strategy == "min-ancilla":
        sc = build_set_cover(poly)
        result = solve_ilp_exact(sc, args.ilp_budget)
        plan = plan_from_cover(sc, result.selection, poly, mode)
        return apply_plan(poly, plan), result.proven_optimal, result.nodes
    if args.strategy == "reduce-min":
        return apply_plan(poly, reduce_min_greedy(poly, mode)), False, None
    return apply_plan(poly, greedy_precision_plan(poly, mode)), False, None


def _quartic_pipeline(poly: Polynomial, args: argparse.Namespace):
    if args.strategy != "min-ancilla":
        raise PuboError(
            f"strategy {args.strategy} plans cubic reductions only; "
            "degree-4 input goes through the exact WMAXSAT pipeline (min-ancilla)"
        )
    if args.gadget != "single":
        raise PuboError("the triple gadget applies to cubic reductions only")
    instance = build_wmaxsat(poly)
    if args.wmaxsat_model:
        model = parse_model(_read_text(args.wmaxsat_model))
        selection = selection_from_model(instance, model)
        proven, nodes = False, None  # an external model carries no optimality proof
    else:
        result = solve_wmaxsat_exact(instance, args.ilp_budget)
        selection, proven, nodes = result.selection, result.proven_optimal, result.nodes
    if args.emit_wcnf:
        Path(args.emit_wcnf).write_text(emit_wcnf(instance))
    return apply_quartic_plan(poly, instance, selection), proven, nodes


def cmd_compile(args: argparse.Namespace) -> int:
    poly = parse_polynomial(_read_text(args.input))
    if poly.degree() == 4:
        if args.emit_lp:
            raise PuboError("lp emission belongs to the cubic set-cover pipeline")
        reduced, proven, nodes = _quartic_pipeline(poly, args)
    else:
        if args.emit_wcnf:
            raise PuboError("wcnf emission requires a degree-4 input")
        if args.wmaxsat_model:
            raise PuboError("a WMAXSAT model applies to degree-4 input only")
        if args.emit_lp:
            Path(args.emit_lp).write_text(emit_lp(build_set_cover(poly)))
        reduced, proven, nodes = _cubic_pipeline(poly, args)

    include_offset = not args.precision_ignore_offset
    before = _precision(poly, include_offset)
    after = _precision(reduced.quadratic, include_offset)

    out_path = args.output or str(Path(args.input).with_suffix(".qubo"))
    Path(out_path).write_text(emit_qubo(reduced))

    summary = [
        ("ancilla", len(reduced.registry)),
        ("precision before", before),
        ("precision after", after),
        ("strategy", args.strategy),
        ("gadget", args.gadget),
        ("proven optimal", proven),
        ("output", out_path),
    ]
    if nodes is not None:
        summary.append(("solver nodes", nodes))

    if args.verify:
        report = verify_reduction(poly, reduced, cap=args.cap)
        summary.append(("verified", report.ok))
        if not report.ok:
            if report.counterexample is not None:
                summary.append(
                    ("counterexample", _format_assignment(report.counterexample))
                )
            _print_summary(summary, args.json)
            return 1

    _print_summary(summary, args.json)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    poly = parse_polynomial(_read_text(args.input))
    reduced = parse_qubo(_read_text(args.qubo))
    report = verify_reduction(poly, reduced, cap=args.cap)
    summary = [
        ("pointwise", report.pointwise_ok),
        ("ground state", report.ground_state_ok),
        ("ancilla", report.ancilla_count),
    ]
    if report.precision_before is not None:
        summary.append(("precision before", report.precision_before.control_precision))
    if report.precision_after is not None:
        summary.append(("precision after", report.precision_after.control_precision))
    summary.append(("verdict", "pass" if report.ok else "fail"))
    if report.counterexample is not None:
        summary.append(("counterexample", _format_assignment(report.counterexample)))
    _print_summary(summary, args.json)
    return 0 if report.ok else 1


def _parse_lambdas(text: str) -> list[int]:
    try:
        values = [int(f) for f in text.replace(",", " ").split()]
    except ValueError:
        raise PuboError(f"bad lambda list {text!r}; expected integers") from None
    if not values:
        raise PuboError("empty lambda list")
    return values


def _load_config_file(path: str) -> dict:
    settings: dict = {}
    for lineno, line, _ in text_lines(_read_text(path)):
        key, sep, value = line.partition("=")
        if not sep:
            raise PuboError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key = key.strip().replace("-", "_")
        value = value.strip()
        try:
            if key in {"n", "instances", "seed", "coeff_min", "coeff_max"}:
                settings[key] = int(value)
            elif key == "lambdas":
                settings[key] = _parse_lambdas(value)
            elif key == "experiment":
                if value not in ("ancilla", "precision"):
                    raise PuboError(f"unknown experiment {value!r}")
                settings[key] = value
            elif key == "quadratic_layer":
                if value.lower() not in ("1", "true", "yes", "0", "false", "no"):
                    raise PuboError(f"quadratic_layer must be true/false/yes/no/1/0, got {value!r}")
                settings[key] = value.lower() in ("1", "true", "yes")
            else:
                raise PuboError(f"unknown key {key!r}")
        except (PuboError, ValueError) as exc:
            raise PuboError(f"{path}:{lineno}: {exc}") from None
    return settings


def cmd_bench(args: argparse.Namespace) -> int:
    settings = {
        "experiment": "ancilla",
        "n": 6,
        "lambdas": [4],
        "instances": 10,
        "seed": 0,
        "coeff_min": -8,
        "coeff_max": 8,
        "quadratic_layer": False,
    }
    if args.preset:
        settings.update(BENCH_PRESETS[args.preset])
    if args.config:
        settings.update(_load_config_file(args.config))
    for key in ("experiment", "n", "instances", "seed", "coeff_min", "coeff_max"):
        value = getattr(args, key)
        if value is not None:
            settings[key] = value
    if args.lambdas is not None:
        settings["lambdas"] = _parse_lambdas(args.lambdas)
    if args.quadratic_layer:
        settings["quadratic_layer"] = True
    if settings["lambdas"] is None:
        settings["lambdas"] = lambda_grid(settings["n"])
    if args.full:
        settings["lambdas"] = list(range(1, math.comb(settings["n"], 3) + 1))
        if not settings["lambdas"]:
            raise PuboError(f"empty lambda list: n={settings['n']} has no cubic terms for --full to sweep")

    try:
        configs = [
            BenchConfig(
                n=settings["n"],
                lam=lam,
                include_quadratic_layer=settings["quadratic_layer"],
                coeff_min=settings["coeff_min"],
                coeff_max=settings["coeff_max"],
                instances=settings["instances"],
                seed=settings["seed"],
                measure_time=args.time,
            )
            for lam in settings["lambdas"]
        ]
    except ValueError as exc:
        raise PuboError(str(exc)) from exc

    if settings["experiment"] == "ancilla":
        csv_text = run_ancilla_experiment(configs)
    else:
        csv_text = run_precision_experiment(configs)

    rows = sum(not line.startswith("n,") for _, line, _ in text_lines(csv_text))
    if args.output:
        Path(args.output).write_text(csv_text)
        _print_summary([("output", args.output), ("rows", rows)], args.json)
    elif args.json:
        _print_summary([("output", "-"), ("rows", rows)], True)
        sys.stdout.write(csv_text)
    else:
        sys.stdout.write(csv_text)
    return 0


def cmd_emit_wcnf(args: argparse.Namespace) -> int:
    poly = parse_polynomial(_read_text(args.input))
    if poly.degree() != 4:
        raise PuboError("wcnf emission requires a degree-4 input")
    instance = build_wmaxsat(poly)
    text = emit_wcnf(instance)
    if args.output:
        Path(args.output).write_text(text)
        _print_summary(
            [
                ("variables", instance.num_vars),
                ("hard", len(instance.hard)),
                ("soft", len(instance.soft)),
                ("top", instance.top),
                ("output", args.output),
            ],
            args.json,
        )
    else:
        sys.stdout.write(text)
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    poly = parse_polynomial(_read_text(args.input))
    lam = len(poly.cubic_terms())
    by_degree = {d: 0 for d in range(5)}
    for m, _ in poly:
        by_degree[len(m)] += 1
    cp = _precision(poly, not args.precision_ignore_offset)
    summary = [
        ("n", poly.n),
        ("terms", len(poly)),
        ("degree", poly.degree()),
        ("constant", by_degree[0]),
        ("linear", by_degree[1]),
        ("quadratic", by_degree[2]),
        ("cubic", by_degree[3]),
        ("quartic", by_degree[4]),
        ("lambda", lam),
        ("ratio", round(lam / poly.n, 4) if poly.n else 0.0),
        ("control precision", cp),
    ]
    _print_summary(summary, args.json)
    return 0


def _count(text: str) -> int:
    """A budget or cap flag's value: a non-negative integer."""
    if (value := int(text)) < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="puboforge",
        description="Reduce k-local integer PUBO (k <= 4) to 2-local QUBO with exact gadgets.",
    )
    sub = parser.add_subparsers(dest="command")

    p_compile = sub.add_parser("compile", help="reduce a .pubo file to a .qubo file")
    p_compile.add_argument("input", help=".pubo input path")
    p_compile.add_argument("-o", "--output", help=".qubo output path (default: input with .qubo suffix)")
    p_compile.add_argument("--strategy", choices=STRATEGIES, default="min-ancilla")
    p_compile.add_argument("--gadget", choices=[m.value for m in GadgetMode], default="single")
    p_compile.add_argument("--ilp-budget", type=_count, default=10**6, help="solver node budget")
    p_compile.add_argument("--seed", type=int, default=0, help="ignored: compile output does not depend on a seed")
    p_compile.add_argument("--verify", action="store_true", help="check the reduction against the enumeration oracle")
    p_compile.add_argument("--cap", type=_count, default=DEFAULT_ENUMERATION_CAP, help="verification variable cap")
    p_compile.add_argument("--emit-lp", metavar="PATH", help="also write the covering ILP in LP format (cubic input)")
    p_compile.add_argument("--emit-wcnf", metavar="PATH", help="also write the WMAXSAT encoding (degree-4 input)")
    p_compile.add_argument("--wmaxsat-model", metavar="FILE", help="use an external solver model (signed literals) instead of the internal solver")
    p_compile.add_argument("--precision-ignore-offset", action="store_true", help="drop the constant term from control-precision reports")
    p_compile.add_argument("--json", action="store_true")
    p_compile.set_defaults(func=cmd_compile)

    p_verify = sub.add_parser("verify", help="check a .qubo reduction against its .pubo source")
    p_verify.add_argument("input", help=".pubo input path")
    p_verify.add_argument("qubo", help=".qubo reduction path")
    p_verify.add_argument("--cap", type=_count, default=DEFAULT_ENUMERATION_CAP, help="enumeration variable cap")
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(func=cmd_verify)

    p_bench = sub.add_parser("bench", help="run an experiment sweep and emit CSV")
    p_bench.add_argument("--preset", choices=sorted(BENCH_PRESETS))
    p_bench.add_argument("--experiment", choices=["ancilla", "precision"])
    p_bench.add_argument("--n", type=int)
    p_bench.add_argument("--lambdas", help="comma-separated cubic term counts (default: a 12-point grid)")
    p_bench.add_argument("--instances", type=int)
    p_bench.add_argument("--seed", type=int)
    p_bench.add_argument("--coeff-min", type=int, dest="coeff_min")
    p_bench.add_argument("--coeff-max", type=int, dest="coeff_max")
    p_bench.add_argument("--quadratic-layer", action="store_true", help="include every quadratic term in generated instances")
    p_bench.add_argument("--config", metavar="FILE", help="key=value settings file")
    p_bench.add_argument("--full", action="store_true", help="sweep every lambda from 1 to C(n,3)")
    p_bench.add_argument("--time", action="store_true", help="record wall times (breaks byte-identical reruns)")
    p_bench.add_argument("-o", "--output", help="CSV output path (default: stdout)")
    p_bench.add_argument("--json", action="store_true")
    p_bench.set_defaults(func=cmd_bench)

    p_wcnf = sub.add_parser("emit-wcnf", help="emit the WMAXSAT encoding of a degree-4 .pubo file")
    p_wcnf.add_argument("input", help=".pubo input path")
    p_wcnf.add_argument("-o", "--output", help=".wcnf output path (default: stdout)")
    p_wcnf.add_argument("--json", action="store_true")
    p_wcnf.set_defaults(func=cmd_emit_wcnf)

    p_stats = sub.add_parser("stats", help="describe a .pubo file")
    p_stats.add_argument("input", help=".pubo input path")
    p_stats.add_argument("--precision-ignore-offset", action="store_true")
    p_stats.add_argument("--json", action="store_true")
    p_stats.set_defaults(func=cmd_stats)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (PuboError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(run())
