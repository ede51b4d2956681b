"""Paired benchmark runs of two source trees, summarized in one JSON file.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W --seeds A-B

For every seed from A to B, runs ``python3 perfbench/run.py --workload W
--seed S --seconds T --trace 0`` once in each tree, one after the other,
with T the ``run_seconds`` of this repository's BENCHMARK.json; the parent
goes first in the first pair, the change in the second, and so on, so that
a drift of the host's speed does not favour one side.  Each tree runs its
own ``perfbench/`` against its own ``src/``.

Writes ``BENCH_<workload>-<A>-<B>.json`` at the root of this repository
(``BENCH_<workload>-<A>.json`` for one seed), and refuses to start when that
file exists, so a new claim never overwrites a committed one.  It holds
every run's end-to-end metrics with its ``reference_ms_p50``, wall-time
p50, ``.qubo`` digest, ``proven_frac`` and ``wall_s`` (the whole run's wall
time, not summarized); for each metric both sides' median and q1-q3 and
the number of pairs the change wins; both trees' git commits and source
digests; and nproc.  The file is rewritten after every
pair, so an interrupted run keeps the pairs it finished.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
INFO_KEYS = ("reference_ms_p50", "compile_ms_p50", "qubo_sha256_first_ops", "proven_frac", "operations")
LOWER_IS_BETTER_INFO = ("reference_ms_p50", "compile_ms_p50")


def parse_seeds(text: str) -> list[int]:
    """'A-B', inclusive, or a single seed 'A'."""
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise ValueError(f"empty seed range {text!r}")
    return seeds


def source_digest(tree: Path) -> str:
    """sha256 over the tree's package sources, for trees that are not git checkouts."""
    digest = hashlib.sha256()
    for path in sorted((tree / "src" / "puboforge").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run in ``tree``: its last-line metrics, the
    report-only figures from its results file, and ``wall_s``, this tool's
    own clock around the run."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    start = perf_counter()
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    wall_s = perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{tree}: perfbench exited {proc.returncode}\n{proc.stderr[-2000:]}")
    last = json.loads(lines[-1])
    saved = json.loads((tree / ".perfbench" / "results" / f"{workload}-seed{seed}-trace0.json").read_text())
    run = {
        "correct": last["correct"],
        "attempted": last["attempted"],
        "failed": last["failed"],
        "metrics": {name: entry["value"] for name, entry in last["metrics"].items()},
        "commit": saved["env"]["commit"],
        "nproc": saved["env"]["nproc"],
        "wall_s": wall_s,
    }
    run.update({key: saved["info"][key] for key in INFO_KEYS if key in saved["info"]})
    return run


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def figure(run: dict, name: str) -> float | None:
    """A perfbench metric, or a report-only figure such as ``reference_ms_p50``."""
    return run["metrics"].get(name, run.get(name))


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per figure: each side's median and q1-q3, and the pairs the change wins."""
    summary = {}
    for name, direction in better.items():
        rows = [p for p in pairs if None not in (figure(p["parent"], name), figure(p["change"], name))]
        if not rows:
            continue
        values = {side: [figure(p[side], name) for p in rows] for side in SIDES}
        sign = 1 if direction == "lower" else -1
        summary[name] = {
            "better": direction,
            **{side: quartiles(values[side]) for side in SIDES},
            "change_wins": sum(sign * (c - a) < 0 for a, c in zip(values["parent"], values["change"])),
            "pairs": len(rows),
        }
    return summary


def directions() -> dict[str, str]:
    """Each summarized figure's better direction: BENCHMARK.json's end-to-end
    metrics and the report-only timings."""
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    better.update({key: "lower" for key in LOWER_IS_BETTER_INFO})
    return better


def digests_equal(pair: dict) -> bool:
    digests = [pair[side].get("qubo_sha256_first_ops") for side in SIDES]
    return digests[0] is not None and digests[0] == digests[1]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path, help="source tree of the parent commit")
    parser.add_argument("change", type=Path, help="source tree of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds, help="'A-B', inclusive")
    args = parser.parse_args(argv)
    seeds = args.seeds
    seed_range = f"{seeds[0]}-{seeds[-1]}" if len(seeds) > 1 else f"{seeds[0]}"
    out = ROOT / f"BENCH_{args.workload}-{seed_range}.json"
    if out.exists():
        parser.error(f"{out.name} exists; choose seeds that no committed claim used")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for tree in trees.values():
        if not (tree / "perfbench" / "run.py").is_file():
            parser.error(f"{tree} has no perfbench/run.py")
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    better = directions()

    pairs: list[dict] = []
    for i, seed in enumerate(seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair: dict = {"seed": seed, "first": order[0]}
        for side in order:
            print(f"pair {i + 1}/{len(seeds)} seed {seed}: {side}", file=sys.stderr, flush=True)
            pair[side] = run_once(trees[side], args.workload, seed, seconds)
        pairs.append(pair)
        result = {
            "workload": args.workload,
            "seconds": seconds,
            "command": "perfbench/run.py --workload W --seed S --seconds T --trace 0",
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "trees": {
                side: {"commit": pairs[0][side]["commit"], "src_sha256": source_digest(trees[side])}
                for side in SIDES
            },
            "all_correct": all(p[side]["correct"] for p in pairs for side in SIDES),
            "qubo_digests_equal": all(digests_equal(p) for p in pairs),
            "summary": summarize(pairs, better),
            "runs": pairs,
        }
        out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
