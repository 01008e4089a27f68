"""Benchmark of reflectpde: one workload per process, closed-loop, BLAS pinned to 1 thread.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload solve_disk --seed 1 --seconds 20 --trace 0

The run sets up the workload three times and reports the median set-up
time, then repeats whole rounds of the workload's operations until the next
round would end after ``--seconds``; it always runs at least one round.
With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics (medians over rounds).  With ``--trace 1`` the run
times one round with tracing off and one with tracing on, and reports the
per-layer figures of the traced round and the gap between the two.  A full
record of each run, with the machine and version information, goes to
``perfbench/runs/``.  See perfbench/README.md.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

SETUP_REPEATS = 3
ROOT = Path.cwd()
RUNS = ROOT / "perfbench" / "runs"


def _git_sha(root: Path):
    """Commit of the checkout, read from .git without starting a process; None outside git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest(src: Path) -> str:
    """SHA-256 over the package sources, which identifies the code in a checkout without git."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _environment(np, scipy) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(ROOT),
        "source_sha256": _source_digest(ROOT / "src" / "reflectpde"),
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "machine": platform.machine(),
    }


def _machine_steal_s():
    """Time the host has taken all virtual CPUs away so far (from /proc/stat); None if unknown."""
    try:
        with open("/proc/stat") as stat:
            fields = stat.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def _run_round(workload, record):
    """One round: each operation timed alone; checks run after, untimed."""
    results, failed, wall, cpu, ops = {}, [], 0.0, 0.0, {}
    steal0 = _machine_steal_s()
    for name, op in workload.operations():
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            result = op()
        except Exception:  # an operation that raises counts as failed; the run goes on
            failed.append(name)
            record.setdefault("errors", []).append(traceback.format_exc())
            continue
        finally:
            dw, dc = time.perf_counter() - w0, time.process_time() - c0
            wall += dw
            cpu += dc
            ops[name] = {"wall_s": dw, "cpu_s": dc}
        results[name] = result
    steal1 = _machine_steal_s()
    steal = None if steal0 is None or steal1 is None else steal1 - steal0
    if failed:
        correct, details = True, "skipped: an operation failed"
    else:
        try:
            correct, details = workload.check(results)
        except (OSError, ValueError) as err:  # unreadable or malformed output is a wrong answer
            correct, details = False, f"{type(err).__name__}: {err}"
    record["rounds"].append({"wall_s": wall, "cpu_s": cpu, "machine_steal_s": steal,
                             "operations": ops,
                             "failed": failed, "correct": correct, "check": details})
    return results, wall, correct, len(failed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "reflectpde" / "__init__.py").is_file():
        print(f"no reflectpde sources under {ROOT / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    t_import = time.perf_counter()
    import numpy as np
    import scipy
    import reflectpde
    import workloads
    import_s = time.perf_counter() - t_import
    if Path(reflectpde.__file__).resolve().parent != (ROOT / "src" / "reflectpde").resolve():
        print(f"reflectpde imported from {reflectpde.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    RUNS.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = RUNS / f"{stem}-work-{os.getpid()}"
    workdir.mkdir()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": _environment(np, scipy),
              "import_s": import_s, "rounds": []}
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        if tracer is not None:
            tracer.install()
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - t0)
        record["setup_repeats_s"] = setups

        attempted = failed = 0
        correct = True
        if tracer is not None:
            tracer.uninstall()
            _, untraced_wall, ok, nf = _run_round(workload, record)
            correct &= ok
            failed += nf
            tracer.install()
            mark = tracer.mark()
            results, traced_wall, ok, nf = _run_round(workload, record)
            tracer.uninstall()
            correct &= ok
            failed += nf
            attempted = 2 * len(workload.operations())
            metrics = tracer.per_layer(mark)
            metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
            metrics["trace.traced_wall_s"] = (traced_wall, "s")
            metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
            span_ns = tracer.span_cost_ns()
            metrics["trace.span_cost_ns"] = (span_ns, "ns")
            metrics["trace.overhead_est_s"] = (metrics["trace.spans"][0] * span_ns * 1e-9, "s")
            tracer.dump(RUNS / f"{args.workload}-seed{args.seed}.spans.json")
        else:
            walls = []
            t_start = time.perf_counter()
            while True:
                results, wall, ok, nf = _run_round(workload, record)
                walls.append(wall)
                correct &= ok
                failed += nf
                attempted += len(workload.operations())
                if time.perf_counter() - t_start + wall > args.seconds:
                    break
            metrics = {
                "setup_s": (import_s + statistics.median(setups), "s"),
                "wall_s": (statistics.median(walls), "s"),
                "cpu_s": (statistics.median(r["cpu_s"] for r in record["rounds"]), "s"),
                "peak_rss_mb": (
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            }
        self_tests = workload.self_test(results) if failed == 0 else {}
        record["self_tests"] = self_tests
        correct &= all(self_tests.values())
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record["result"] = result
    with open(RUNS / f"{stem}.json", "w") as out:
        json.dump(record, out, indent=1, default=str)
    print(json.dumps({"environment": record["environment"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
