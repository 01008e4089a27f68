"""tools/paired_bench.py on synthetic runs: the bound verdicts and the exit code."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "paired_bench.py"


def _load():
    spec = importlib.util.spec_from_file_location("paired_bench", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _result(wall, correct=True, failed=0):
    metrics = {"setup_s": 1.0, "wall_s": wall, "cpu_s": wall, "peak_rss_mb": 100.0}
    return {"correct": correct, "attempted": 2, "failed": failed,
            "metrics": {k: {"value": v} for k, v in metrics.items()}}


def test_within_bound_reads_the_bounds_of_the_benchmark():
    bench = _load()
    bounds = bench._bounds()
    spec = json.loads((TOOL.parent.parent / "BENCHMARK.json").read_text())
    assert bounds == {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert set(bench.METRICS) <= set(bounds)
    wall = bounds["wall_s"]
    pairs = []
    for i in range(5):
        parent = bench._row(_result(2.0 + 0.01 * i))
        change = bench._row(_result((2.0 + 0.01 * i) * (1.0 + wall) * 1.02))
        pairs.append({"parent": parent, "change": change})
    slower = bench._summary(pairs, bounds)
    assert not slower["wall_s"]["within_bound"] and not slower["cpu_s"]["within_bound"]
    assert slower["setup_s"]["within_bound"] and slower["peak_rss_mb"]["within_bound"]
    assert slower["wall_s"]["parent_wins"] == 5
    for p in pairs:
        p["change"]["wall_s"] = p["parent"]["wall_s"] * (1.0 + wall) * 0.98
    assert bench._summary(pairs, bounds)["wall_s"]["within_bound"]


def test_exit_code_is_one_when_a_run_fails(monkeypatch, tmp_path):
    bench = _load()
    monkeypatch.setattr(bench, "_export", lambda parent, into: {"parent": "p", "change": "c"})
    monkeypatch.setattr(bench, "_git", lambda *args: "abc123\n")
    cases = [(None, {}), ("other", {"correct": False}), ("other", {"failed": 1}),
             ("traced", {"failed": 1})]
    for where, bad in cases:
        def run(side, workload, seed, seconds, trace, where=where, bad=bad):
            spoilt = side == "c" and where == ("traced" if trace else workload)
            return {"nproc": 2}, _result(2.0, **(bad if spoilt else {}))

        monkeypatch.setattr(bench, "_run", run)
        out = tmp_path / "bench.json"
        code = bench.main(["--workload", "main", "--other", "other", "--pairs", "2",
                           "--traced", "--out", str(out)])
        assert code == (0 if where is None else 1)
        record = json.loads(out.read_text())
        assert record["runs_ok"] is True
        assert record["other_workloads"]["other"]["runs_ok"] is (where != "other")
