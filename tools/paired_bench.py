"""Paired benchmark runs: a parent commit against the working tree, alternating.

Run from the root of the repository:

    python3 tools/paired_bench.py --workload residual_disk --pairs 10 \
        --other fk_ellipse solve_disk --traced

Both sides run ``perfbench/run.py`` from directories of their own: the parent
commit (``--parent``, HEAD by default) exported with ``git archive``, and the
working tree's files (tracked and untracked, not ignored) copied.  Pair i runs
both sides on seed ``--seed + i``; the side that runs first switches with each
pair.  The record goes to ``BENCH_<workload>.json`` (``--out``): each side's
median and quartiles of every end-to-end metric, how many pairs each side won,
the ratio of the medians, whether that ratio is within 1 + the metric's bound
in ``BENCHMARK.json`` (``within_bound``), a ``verdict``, and every run made.
The verdict is ``unresolved`` when the parent's own spread, its IQR over its
median, is wider than the bound, unless every change run beats every parent
run: such a metric cannot tell a change from load.  Otherwise it is
``within`` or ``worse``, by ``within_bound``.  Each run also
keeps ``import_s`` and ``setup_repeats_s`` from the record it wrote, and the
summary holds their medians per side (``setup_split``): ``setup_s`` is the
import plus the median repeat, so work that moves between the import and the
first repeat shows there.  ``--other`` runs the same design on more
workloads, stored under ``other_workloads``; ``--traced`` adds one traced
round of the main workload per side (seed 1, one second).  A run whose
process exits non-zero is kept in the record with its exit code and the
tail of its stderr, counted as not correct; the summary reads the pairs
whose two runs both finished.  The exit code is 1 when any run was not
correct or had failed operations.
"""

from __future__ import annotations

import argparse
import json
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
METRICS = ("setup_s", "wall_s", "cpu_s", "peak_rss_mb")
DESIGN = (
    "alternating pairs: the side that runs first switches with each pair; each side runs from "
    "its own directory holding the files of its tree; lower is better for every metric; "
    "quartiles are numpy.percentile (linear) over the pairs"
)


def _git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout


def _export(parent: str, into: Path) -> dict:
    """Directories holding the parent commit's files and the working tree's files."""
    sides = {"parent": into / "parent", "change": into / "change"}
    archive = subprocess.run(["git", "archive", parent], cwd=ROOT, check=True,
                             capture_output=True).stdout
    sides["parent"].mkdir()
    subprocess.run(["tar", "-x", "-C", str(sides["parent"])], input=archive, check=True)
    for name in _git("ls-files", "-co", "--exclude-standard", "-z").split("\0"):
        src = ROOT / name
        if name and src.is_file():
            dst = sides["change"] / name
            dst.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dst)
    return sides


STDERR_TAIL = 2000  # characters of a failed run's stderr kept in the record


def _run(side: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The record that one perfbench/run.py process wrote under ``side``.

    A process that exits non-zero writes none: its exit code and the tail of
    its stderr stand in for the record.
    """
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=side, capture_output=True, text=True)
    if proc.returncode:
        return {"exit_code": proc.returncode, "stderr_tail": proc.stderr[-STDERR_TAIL:]}
    path = Path(side) / "perfbench" / "runs" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text())


def _failed(record: dict) -> dict:
    """The row of a run whose process failed: not correct, with its exit code and stderr."""
    return {"correct": False, "attempted": 0, "failed": 0, **record}


def _row(record: dict) -> dict:
    if "exit_code" in record:
        return _failed(record)
    result = record["result"]
    row = {key: result[key] for key in ("correct", "attempted", "failed")}
    row.update({m: result["metrics"][m]["value"] for m in METRICS})
    row.update({key: record[key] for key in ("import_s", "setup_repeats_s")})
    return row


def _quartiles(values) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": round(float(median), 4), "q1": round(float(q1), 4),
            "q3": round(float(q3), 4), "iqr": round(float(q3 - q1), 4)}


def _bounds() -> dict:
    """Each end-to-end metric's bound on how much worse the change may read, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}


def _summary(pairs: list, bounds: dict) -> dict | None:
    """Quartiles and bound verdicts over the pairs whose two runs finished; None if none did."""
    pairs = [p for p in pairs if not any("exit_code" in p[side] for side in ("parent", "change"))]
    if not pairs:
        return None
    out = {}
    for m in METRICS:
        parent = [p["parent"][m] for p in pairs]
        change = [p["change"][m] for p in pairs]
        sp, sc = _quartiles(parent), _quartiles(change)
        within = sc["median"] <= (1.0 + bounds[m]) * sp["median"]
        unresolved = sp["iqr"] > bounds[m] * sp["median"] and not max(change) < min(parent)
        out[m] = {
            "parent": sp, "change": sc,
            "change_wins": sum(c < p for p, c in zip(parent, change)),
            "parent_wins": sum(p < c for p, c in zip(parent, change)),
            "ratio_of_medians": round(sc["median"] / sp["median"], 4),
            "within_bound": within,
            "verdict": "unresolved" if unresolved else "within" if within else "worse",
        }
    out["setup_split"] = {side: {
        "import_s": round(float(np.median([p[side]["import_s"] for p in pairs])), 4),
        "setup_repeats_s": [round(float(r), 4) for r in
                            np.median([p[side]["setup_repeats_s"] for p in pairs], axis=0)],
    } for side in ("parent", "change")}
    return out


def _runs_ok(rows) -> bool:
    """Every run correct, with no failed operation."""
    return all(row["correct"] and not row["failed"] for row in rows)


def _pairs(sides: dict, workload: str, n_pairs: int, seed: int, seconds: float) -> tuple:
    pairs, env = [], {}
    for i in range(n_pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"seed": seed + i, "first": order[0]}
        for name in order:
            record = _run(sides[name], workload, seed + i, seconds, 0)
            env = record.get("environment", env)
            pair[name] = _row(record)
        pairs.append(pair)
        wall = {name: round(pair[name]["wall_s"], 3) if "wall_s" in pair[name]
                else f"exit {pair[name]['exit_code']}" for name in order}
        print(f"{workload} pair {i + 1}/{n_pairs} seed {seed + i}: wall_s {wall}", flush=True)
    summary = _summary(pairs, _bounds())
    if summary:
        print(f"{workload} verdicts: "
              + ", ".join(f"{m} {summary[m]['verdict']}" for m in METRICS), flush=True)
    return {"n_pairs": n_pairs, "summary": summary,
            "runs_ok": _runs_ok(p[side] for p in pairs for side in ("parent", "change")),
            "pairs": pairs}, env


def _machine(env: dict) -> dict:
    cpu = platform.processor() or None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    keys = ("nproc", "cpus_usable", "machine", "python", "numpy", "scipy", "blas_threads")
    return {"cpu": cpu, **{k: env.get(k) for k in keys}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--other", nargs="*", default=[], help="more workloads, same design")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=101, help="seed of the first pair")
    parser.add_argument("--parent", default="HEAD", help="the commit to compare against")
    parser.add_argument("--traced", action="store_true", help="add one traced round per side")
    parser.add_argument("--note", default="", help="a remark on the machine, stored with it")
    parser.add_argument("--out", default=None, help="default: BENCH_<workload>.json")
    args = parser.parse_args(argv)

    parent = _git("rev-parse", "--short", args.parent).strip()
    with tempfile.TemporaryDirectory(prefix="paired-bench-") as tmp:
        sides = _export(args.parent, Path(tmp))
        main_run, env = _pairs(sides, args.workload, args.pairs, args.seed, args.seconds)
        record = {
            "workload": args.workload,
            "command": f"python3 perfbench/run.py --workload {args.workload} --seed <seed> "
                       f"--seconds {args.seconds:g} --trace 0",
            "design": DESIGN,
            "parent": parent,
            "change": "the commit that adds this file",
            "machine": {**_machine(env), "note": args.note},
            **main_run,
        }
        traced = []
        if args.traced:
            record["traced_round"] = {
                "command": f"python3 perfbench/run.py --workload {args.workload} --seed 1 "
                           "--seconds 1 --trace 1",
            }
            for name in ("parent", "change"):
                run = _run(sides[name], args.workload, 1, 1.0, 1)
                row = _failed(run) if "exit_code" in run else {
                    "correct": run["result"]["correct"], "failed": run["result"]["failed"],
                    **{k: v["value"] for k, v in run["result"]["metrics"].items()},
                }
                record["traced_round"][name] = row
                traced.append(row)
        if args.other:
            record["other_workloads"] = {
                "note": "the no-regression check: same command and design with each "
                        "workload's name; every run made is listed",
            }
            for workload in args.other:
                record["other_workloads"][workload], _ = _pairs(
                    sides, workload, args.pairs, args.seed, args.seconds)
    out = Path(args.out) if args.out else ROOT / f"BENCH_{args.workload}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}")
    runs = [main_run, *(record["other_workloads"][w] for w in args.other)]
    return 0 if all(run["runs_ok"] for run in runs) and _runs_ok(traced) else 1


if __name__ == "__main__":
    sys.exit(main())
