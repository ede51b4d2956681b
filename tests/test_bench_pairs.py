"""tools/bench_pairs.py: seed ranges, per-figure summaries and digest
checks, and the committed BENCH_*.json files it wrote."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import bench_pairs  # noqa: E402
from bench_pairs import digests_equal, directions, parse_seeds, summarize  # noqa: E402

BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_parse_seeds():
    assert parse_seeds("3-6") == [3, 4, 5, 6]
    assert parse_seeds("7") == [7]
    with pytest.raises(ValueError):
        parse_seeds("6-3")


def run(p50, ref_ms, rss, digest="d"):
    return {
        "metrics": {"compile_p50_ref": p50, "peak_rss_mb": rss},
        "reference_ms_p50": ref_ms,
        "qubo_sha256_first_ops": digest,
    }


def test_summarize_counts_wins_by_direction():
    pairs = [
        {"parent": run(3.0, 15.0, 27.0), "change": run(0.6, 16.0, 29.0)},
        {"parent": run(2.0, 17.0, 27.0), "change": run(2.5, 14.0, 26.0)},
        {"parent": run(4.0, 16.0, 27.0), "change": run(0.7, 18.0, 29.0)},
    ]
    better = {"compile_p50_ref": "lower", "peak_rss_mb": "lower", "reference_ms_p50": "lower", "ok_frac": "higher"}
    summary = summarize(pairs, better)
    assert summary["compile_p50_ref"]["change_wins"] == 2
    assert summary["compile_p50_ref"]["parent"] == {"median": 3.0, "q1": 2.5, "q3": 3.5}
    assert summary["peak_rss_mb"]["change_wins"] == 1
    assert summary["reference_ms_p50"]["change"]["median"] == 16.0
    assert summary["reference_ms_p50"]["pairs"] == 3
    assert "ok_frac" not in summary  # absent from every run


def test_digests_equal():
    assert digests_equal({"parent": run(1, 1, 1, "a"), "change": run(1, 1, 1, "a")})
    assert not digests_equal({"parent": run(1, 1, 1, "a"), "change": run(1, 1, 1, "b")})
    assert not digests_equal({"parent": run(1, 1, 1, None), "change": run(1, 1, 1, None)})


def test_refuses_to_overwrite_a_claim(tmp_path, monkeypatch, capsys):
    # The output is named from the workload and the seed range, and an
    # existing file stops the tool first.  The trees have no perfbench, so
    # the tool could never start a benchmark here either way.
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    for seeds, name in (("5-9", "BENCH_cover-exact-5-9.json"), ("5", "BENCH_cover-exact-5.json")):
        (tmp_path / name).write_text("claim")
        with pytest.raises(SystemExit) as stop:
            bench_pairs.main([str(tmp_path), str(tmp_path), "--workload", "cover-exact", "--seeds", seeds])
        assert stop.value.code == 2
        assert f"{name} exists" in capsys.readouterr().err
        assert (tmp_path / name).read_text() == "claim"


def test_run_once_records_its_wall_time(tmp_path, monkeypatch):
    results = tmp_path / ".perfbench" / "results"
    results.mkdir(parents=True)
    saved = {"env": {"commit": "abc", "nproc": 2}, "info": {"reference_ms_p50": 11.0, "operations": 40}}
    (results / "cover-exact-seed7-trace0.json").write_text(json.dumps(saved))
    last = {"correct": True, "attempted": 40, "failed": 0, "metrics": {"ok_frac": {"value": 1.0}}}
    calls = []

    def fake_run(argv, **kwargs):
        calls.append((argv, kwargs["cwd"]))
        return subprocess.CompletedProcess(argv, 0, stdout="progress\n" + json.dumps(last) + "\n", stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    monkeypatch.setattr(bench_pairs, "perf_counter", iter([10.0, 32.5]).__next__)
    run = bench_pairs.run_once(tmp_path, "cover-exact", 7, 20)
    assert calls == [([sys.executable, "perfbench/run.py", "--workload", "cover-exact", "--seed", "7",
                       "--seconds", "20", "--trace", "0"], tmp_path)]
    assert run["wall_s"] == 22.5
    assert run["metrics"] == {"ok_frac": 1.0}
    assert (run["commit"], run["reference_ms_p50"], run["operations"]) == ("abc", 11.0, 40)
    assert "wall_s" not in summarize([{"parent": run, "change": run}], directions())


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_is_whole(path):
    bench = json.loads(path.read_text())
    assert bench["all_correct"] is True
    assert bench["qubo_digests_equal"] is True
    assert len(bench["runs"]) >= 10
    assert all(digests_equal(pair) for pair in bench["runs"])
    assert bench["summary"] == summarize(bench["runs"], directions())
