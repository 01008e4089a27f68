"""tools/paired_bench.py on synthetic runs: the bound verdicts, the set-up split and the exit code."""

import importlib.util
import json
import subprocess
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "paired_bench.py"


def _load():
    spec = importlib.util.spec_from_file_location("paired_bench", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _record(wall, correct=True, failed=0, import_s=0.2, repeats=(0.5, 0.1, 0.1)):
    """A run record as perfbench/run.py writes it, reduced to what the tool reads."""
    metrics = {"setup_s": import_s + sorted(repeats)[1], "wall_s": wall, "cpu_s": wall,
               "peak_rss_mb": 100.0}
    result = {"correct": correct, "attempted": 2, "failed": failed,
              "metrics": {k: {"value": v} for k, v in metrics.items()}}
    return {"environment": {"nproc": 2}, "import_s": import_s,
            "setup_repeats_s": list(repeats), "result": result}


def test_within_bound_reads_the_bounds_of_the_benchmark():
    bench = _load()
    bounds = bench._bounds()
    spec = json.loads((TOOL.parent.parent / "BENCHMARK.json").read_text())
    assert bounds == {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert set(bench.METRICS) <= set(bounds)
    wall = bounds["wall_s"]
    pairs = []
    for i in range(5):
        parent = bench._row(_record(2.0 + 0.01 * i))
        change = bench._row(_record((2.0 + 0.01 * i) * (1.0 + wall) * 1.02))
        pairs.append({"parent": parent, "change": change})
    slower = bench._summary(pairs, bounds)
    assert not slower["wall_s"]["within_bound"] and not slower["cpu_s"]["within_bound"]
    assert slower["setup_s"]["within_bound"] and slower["peak_rss_mb"]["within_bound"]
    assert slower["wall_s"]["parent_wins"] == 5
    for p in pairs:
        p["change"]["wall_s"] = p["parent"]["wall_s"] * (1.0 + wall) * 0.98
    assert bench._summary(pairs, bounds)["wall_s"]["within_bound"]


def _pairs_of(bench, parent_walls, change_walls):
    return [{"parent": bench._row(_record(p)), "change": bench._row(_record(c))}
            for p, c in zip(parent_walls, change_walls)]


def test_verdict_is_unresolved_where_the_parent_spreads_wider_than_the_bound():
    bench = _load()
    bounds = bench._bounds()
    wall = bounds["wall_s"]
    # the parent's IQR over its median, 0.3, exceeds the 0.25 bound: within_bound holds,
    # and so does worse by 30 %, but neither is resolved
    wide = [1.7, 1.85, 2.0, 2.45, 2.6]
    assert (2.45 - 1.85) / 2.0 > wall
    same = bench._summary(_pairs_of(bench, wide, wide), bounds)["wall_s"]
    assert same["within_bound"] and same["verdict"] == "unresolved"
    slower = bench._summary(_pairs_of(bench, wide, [1.3 * w for w in wide]), bounds)["wall_s"]
    assert not slower["within_bound"] and slower["verdict"] == "unresolved"
    # unless every change run beats every parent run
    faster = bench._summary(_pairs_of(bench, wide, [w - 1.0 for w in wide]), bounds)["wall_s"]
    assert faster["verdict"] == "within"
    touching = [1.6, 1.6, 1.6, 1.6, 1.7]  # the slowest change run ties the fastest parent run
    assert bench._summary(_pairs_of(bench, wide, touching), bounds)["wall_s"]["verdict"] == (
        "unresolved")


def test_verdict_reads_within_bound_where_the_parent_spread_is_narrow():
    bench = _load()
    bounds = bench._bounds()
    narrow = [2.0, 2.01, 2.02, 2.03, 2.04]
    same = bench._summary(_pairs_of(bench, narrow, narrow), bounds)
    assert {same[m]["verdict"] for m in bench.METRICS} == {"within"}
    slower = bench._summary(_pairs_of(bench, narrow, [1.3 * w for w in narrow]), bounds)
    assert slower["wall_s"]["verdict"] == "worse" and slower["cpu_s"]["verdict"] == "worse"
    assert slower["setup_s"]["verdict"] == "within"


def test_setup_split_reads_the_run_record(monkeypatch, tmp_path):
    bench = _load()
    runs = tmp_path / "perfbench" / "runs"
    runs.mkdir(parents=True)
    record = _record(2.0, import_s=0.3, repeats=(0.6, 0.2, 0.25))
    (runs / "fk_ellipse-seed7-trace0.json").write_text(json.dumps(record))
    calls = []
    def run(cmd, **kw):  # a process that exits 0, as subprocess.run returns it
        calls.append((cmd, kw))
        return subprocess.CompletedProcess(cmd, 0, "", "")

    monkeypatch.setattr(bench.subprocess, "run", run)
    row = bench._row(bench._run(tmp_path, "fk_ellipse", 7, 1.0, 0))
    assert calls[0][1]["cwd"] == tmp_path and calls[0][0][-7:] == [
        "fk_ellipse", "--seed", "7", "--seconds", "1.0", "--trace", "0"]
    assert row["import_s"] == 0.3 and row["setup_repeats_s"] == [0.6, 0.2, 0.25]
    assert row["setup_s"] == 0.3 + 0.25 and row["wall_s"] == 2.0
    # the import moves into the first repeat: setup_s falls, the split shows why
    pairs = [{"parent": bench._row(_record(2.0, import_s=0.5 + 0.01 * i, repeats=(0.3, 0.1, 0.1))),
              "change": bench._row(_record(2.0, import_s=0.2, repeats=(0.6 + 0.01 * i, 0.1, 0.1)))}
             for i in range(3)]
    split = bench._summary(pairs, bench._bounds())["setup_split"]
    assert split["parent"] == {"import_s": 0.51, "setup_repeats_s": [0.3, 0.1, 0.1]}
    assert split["change"] == {"import_s": 0.2, "setup_repeats_s": [0.61, 0.1, 0.1]}


def test_exit_code_is_one_when_a_run_fails(monkeypatch, tmp_path):
    bench = _load()
    monkeypatch.setattr(bench, "_export", lambda parent, into: {"parent": "p", "change": "c"})
    monkeypatch.setattr(bench, "_git", lambda *args: "abc123\n")
    cases = [(None, {}), ("other", {"correct": False}), ("other", {"failed": 1}),
             ("traced", {"failed": 1})]
    for where, bad in cases:
        def run(side, workload, seed, seconds, trace, where=where, bad=bad):
            spoilt = side == "c" and where == ("traced" if trace else workload)
            return _record(2.0, **(bad if spoilt else {}))

        monkeypatch.setattr(bench, "_run", run)
        out = tmp_path / "bench.json"
        code = bench.main(["--workload", "main", "--other", "other", "--pairs", "2",
                           "--traced", "--out", str(out)])
        assert code == (0 if where is None else 1)
        record = json.loads(out.read_text())
        assert record["runs_ok"] is True
        assert record["other_workloads"]["other"]["runs_ok"] is (where != "other")


_FAKE_RUN = """
import argparse, json, sys
from pathlib import Path

parser = argparse.ArgumentParser()
for flag in ("--workload", "--seed", "--seconds", "--trace"):
    parser.add_argument(flag)
args = parser.parse_args()
if {fail} and args.seed != "101":
    sys.stderr.write("Traceback (most recent call last):\\nRuntimeError: boom\\n")
    sys.exit(1)
runs = Path("perfbench") / "runs"
runs.mkdir(parents=True, exist_ok=True)
name = f"{{args.workload}}-seed{{args.seed}}-trace{{args.trace}}.json"
(runs / name).write_text({record!r})
"""


def test_a_run_that_exits_non_zero_is_recorded(monkeypatch, tmp_path):
    # the change side's run exits 1 on every seed but the first pair's
    bench = _load()
    sides = {}
    for name, fail in (("parent", False), ("change", True)):
        script = tmp_path / name / "perfbench" / "run.py"
        script.parent.mkdir(parents=True)
        script.write_text(_FAKE_RUN.format(fail=fail, record=json.dumps(_record(2.0))))
        sides[name] = tmp_path / name
    monkeypatch.setattr(bench, "_export", lambda parent, into: sides)
    monkeypatch.setattr(bench, "_git", lambda *args: "abc123\n")
    out = tmp_path / "bench.json"
    code = bench.main(["--workload", "main", "--pairs", "2", "--traced", "--out", str(out)])
    assert code == 1
    record = json.loads(out.read_text())
    assert record["runs_ok"] is False
    first, second = record["pairs"]
    assert first["change"]["correct"] is True and "exit_code" not in first["change"]
    failed = second["change"]
    assert failed["correct"] is False and failed["exit_code"] == 1
    assert failed["stderr_tail"].endswith("RuntimeError: boom\n")
    assert second["parent"]["correct"] is True
    assert record["summary"]["wall_s"]["change_wins"] == 0  # the first pair alone
    assert record["traced_round"]["change"]["exit_code"] == 1
    assert record["traced_round"]["parent"]["correct"] is True
