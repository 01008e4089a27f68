"""Command-line entry point.

Subcommands: solve, verify, check-conditions, simulate, bench.  Exit codes
form a stable contract: 0 success, 1 configuration error, 2 no contraction,
3 inadmissible constants, 4 a verification or self-check failed.  All
randomness flows from the single config seed (overridable with --seed);
outputs carry no timestamps, so identical config + seed reproduce
byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import picard, probeval
from .coeffexpr import InadmissibleConstants, choose_constants, validate_structure
from .config import ConfigError, RunConfig, load_config
from .mesh_fem import (
    build_mesh,
    export_field,
    export_mesh,
    import_field,
    import_mesh,
)
from .probeval import McParams
from .reflectsim import LocalTimeObserver, StarObserver, run_paths, simulate_path

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NO_CONTRACTION = 2
EXIT_INADMISSIBLE = 3
EXIT_CHECK_FAILED = 4


def _load(args) -> RunConfig:
    cfg = load_config(args.config)
    if getattr(args, "seed", None) is not None:
        cfg.solver.seed = args.seed
    if getattr(args, "override_admissibility", False):
        cfg.solver.override_admissibility = True
    return cfg


def _derived_constants(cfg: RunConfig):
    """choose_constants honoring the override flag; returns (consts, note)."""
    try:
        return (
            choose_constants(
                cfg.consts,
                variant=cfg.solver.variant,
                m1=cfg.solver.m1,
                trace_norm=cfg.trace_norm,
            ),
            "",
        )
    except InadmissibleConstants as err:
        if not cfg.solver.override_admissibility:
            raise
        return cfg.consts, f"override: running with inadmissible constants ({err})"


def _mc_params(cfg: RunConfig) -> McParams:
    return McParams(
        n_paths=cfg.solver.n_paths,
        horizon=cfg.solver.horizon,
        step=cfg.solver.step,
        seed=cfg.solver.seed,
    )


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not serializable: {type(obj)}")


def _write_summary(out_dir: Path, summary: dict):
    with open(out_dir / "summary.json", "w") as out:
        json.dump(summary, out, indent=2, sort_keys=True, default=_json_default)
        out.write("\n")


def cmd_solve(args) -> int:
    cfg = _load(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        consts, note = _derived_constants(cfg)
    except InadmissibleConstants as err:
        print(f"inadmissible constants: {err}", file=sys.stderr)
        return EXIT_INADMISSIBLE
    report = validate_structure(
        cfg.domain, cfg.coeffs, cfg.consts,
        budget=cfg.solver.validate_budget, seed=cfg.solver.seed,
    )
    mesh = build_mesh(cfg.domain, cfg.solver.mesh_h)
    try:
        trace = picard.run_picard(
            cfg.domain, cfg.coeffs, consts, cfg.solver.mesh_h,
            tol=cfg.solver.tol, max_iter=cfg.solver.max_iter,
            inner_tol=cfg.solver.inner_tol,
            override=cfg.solver.override_admissibility, mesh=mesh,
        )
        no_contraction = trace.no_contraction
    except picard.NoContraction as err:
        trace = err.trace
        no_contraction = True

    export_mesh(mesh, out_dir / "mesh.txt")
    export_field(trace.solution, out_dir / "solution.csv")
    trace.export_csv(out_dir / "trace.csv")
    summary = {
        "converged": trace.converged,
        "no_contraction": no_contraction,
        "n_iterations": trace.n_iterations,
        "increments": trace.increments,
        "squared_ratios": [r * r for r in trace.ratios],
        "gamma": None if math.isnan(trace.gamma) else trace.gamma,
        "final_weak_residual": trace.final_residual,
        "structure_report": {
            c.name: {"passed": c.passed, "violations": c.n_violations}
            for c in report.conditions
        },
        "structure_notes": report.notes + ([note] if note else []),
        "mesh": {"h_max": mesh.h_max, "nodes": mesh.n_nodes},
        "seed": cfg.solver.seed,
    }
    if cfg.solver.backend in ("stochastic-verify", "both") and trace.n_iterations > 0:
        residual = probeval.martingale_residual_test(
            cfg.domain, trace.solution, cfg.coeffs, consts, _mc_params(cfg),
            t_res=cfg.solver.residual_window,
        )
        probecmp = probeval.compare_frozen_at_probes(
            cfg.domain, trace.solution, cfg.coeffs, _mc_params(cfg)
        )
        summary["verification"] = {
            "residual_mean": residual.mean_residual,
            "residual_se": residual.se_residual,
            "residual_pass": residual.passed,
            "probe_max_gap": probecmp.max_gap,
            "probe_pass": probecmp.passed,
        }
        print(residual)
        print(probecmp)
    _write_summary(out_dir, summary)
    print(
        f"picard: converged={trace.converged} iterations={trace.n_iterations} "
        f"final increment={trace.increments[-1] if trace.increments else float('nan'):.3e} "
        f"weak residual={trace.final_residual:.3e}"
    )
    if no_contraction:
        return EXIT_NO_CONTRACTION
    return EXIT_OK if trace.converged else EXIT_NO_CONTRACTION


def cmd_verify(args) -> int:
    cfg = _load(args)
    try:
        consts, _ = _derived_constants(cfg)
    except InadmissibleConstants as err:
        print(f"inadmissible constants: {err}", file=sys.stderr)
        return EXIT_INADMISSIBLE
    field_path = Path(args.field)
    mesh_path = Path(args.mesh) if args.mesh else field_path.parent / "mesh.txt"
    try:
        mesh = import_mesh(mesh_path)
        u = import_field(field_path, mesh)
    except (OSError, ValueError) as err:
        print(f"cannot load field: {err}", file=sys.stderr)
        return EXIT_CONFIG
    params = _mc_params(cfg)
    residual = probeval.martingale_residual_test(
        cfg.domain, u, cfg.coeffs, consts, params, t_res=cfg.solver.residual_window
    )
    print(residual)
    probecmp = probeval.compare_frozen_at_probes(cfg.domain, u, cfg.coeffs, params)
    print(probecmp)
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        report = {
            "residual": {
                "mean": residual.mean_residual,
                "se": residual.se_residual,
                "variance": residual.var_residual,
                "predicted_variance": residual.predicted_variance,
                "terminal": residual.terminal,
                "pass_mean": residual.pass_mean,
                "pass_variance": residual.pass_variance,
                "pass_terminal": residual.pass_terminal,
            },
            "probes_pass": probecmp.passed,
            "seed": cfg.solver.seed,
        }
        with open(out_dir / "verify_report.json", "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True, default=_json_default)
            fh.write("\n")
        with open(out_dir / "probes.csv", "w") as fh:
            fh.write("x1,x2,fem,mc,se,pass\n")
            for p, f, m, s in zip(
                probecmp.probes, probecmp.fem_values, probecmp.mc_means, probecmp.mc_ses
            ):
                ok = abs(f - m) <= 3 * s + probecmp.allowance
                fh.write(
                    f"{float(p[0])!r},{float(p[1])!r},{float(f)!r},{float(m)!r},"
                    f"{float(s)!r},{int(ok)}\n"
                )
    return EXIT_OK if (residual.passed and probecmp.passed) else EXIT_CHECK_FAILED


def cmd_check_conditions(args) -> int:
    cfg = _load(args)
    report = validate_structure(
        cfg.domain, cfg.coeffs, cfg.consts,
        budget=cfg.solver.validate_budget, seed=cfg.solver.seed,
    )
    print(report)
    creport = probeval.check_conditions_C(cfg.domain, cfg.coeffs.q_at, _mc_params(cfg))
    print(creport)
    ok = report.passed and creport.all_clear
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_simulate(args) -> int:
    cfg = _load(args)
    n = args.n_paths
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for i in range(n):
        path = simulate_path(
            cfg.domain, args.horizon or cfg.solver.horizon,
            args.step or cfg.solver.step, cfg.solver.seed, path_index=i,
        )
        stem = out_dir / f"path_{i:04d}"
        with open(f"{stem}.csv", "w") as out:
            cols = ",".join(f"x{c + 1}" for c in range(cfg.domain.dim))
            out.write(f"step,t,{cols},dL\n")
            for j in range(path.n_steps + 1):
                xs = ",".join(repr(float(v)) for v in path.states[j])
                dl = repr(float(path.local_time_increments[j - 1])) if j > 0 else "0.0"
                out.write(f"{j},{float(path.times[j])!r},{xs},{dl}\n")
        if args.npz:
            path.save_npz(f"{stem}.npz")
        print(f"path {i}: steps={path.n_steps} L_T={path.local_time[-1]:.4f}")
    return EXIT_OK


def cmd_bench(args) -> int:
    cfg = _load(args)
    n, T, h = args.n_paths, args.horizon or 2.0, args.step or cfg.solver.step
    dom = cfg.domain
    obs_l = LocalTimeObserver()
    obs_s = StarObserver(lambda x: x)
    run_paths(dom, n, T, h, cfg.solver.seed, [obs_l, obs_s])
    rate = obs_l.estimate().scaled(1.0 / T)
    target = dom.boundary_measure / dom.volume
    print(
        f"local-time rate: {rate.mean:.4f} +/- {rate.standard_error:.4f}"
        f"  (analytic {target:.4f})"
    )
    star = obs_s.estimate()
    div = float(dom.dim)  # div(x) = dim, so the mean converges to -dim * T
    print(
        f"divergence identity for g(x)=x: {star.mean:.4f} +/- {star.standard_error:.4f}"
        f"  (analytic {-div * T:.4f})"
    )
    for name, est in (("local_time_rate", rate), ("star_g_identity", star)):
        print(json.dumps({
            "estimate": name, "mean": est.mean, "standard_error": est.standard_error,
            "n_samples": est.n_samples,
        }, sort_keys=True))
    path = simulate_path(dom, min(T, 1.0), h, cfg.solver.seed, path_index=0)
    const = np.ones(dom.dim) / math.sqrt(dom.dim)
    from .reflectsim import star_integral

    s0 = star_integral(path, lambda x: np.broadcast_to(const, x.shape))
    print(f"constant-field star integral (pathwise): {s0:.3e}")
    ok = (
        abs(rate.mean - target) <= 3.0 * rate.standard_error + 0.2
        and abs(star.mean + div * T) <= 3.0 * star.standard_error + 0.1
        and abs(s0) <= 1e-12
    )
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="reflectpde",
        description="Semilinear Neumann solver with a reflecting-diffusion verifier",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="path to the run configuration")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument(
            "--override-admissibility", action="store_true",
            help="run even when the structure constants are inadmissible",
        )

    p = sub.add_parser("solve", help="run the Picard solver")
    common(p)
    p.add_argument("--out", default="out", help="output directory")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="stochastic verification of a solution field")
    common(p)
    p.add_argument("--field", required=True, help="solution CSV written by solve")
    p.add_argument("--mesh", default=None, help="mesh file (default: mesh.txt next to the field)")
    p.add_argument("--out", default=None, help="write verify_report.json and probes.csv here")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("check-conditions", help="structure and integrability checks")
    common(p)
    p.set_defaults(func=cmd_check_conditions)

    p = sub.add_parser("simulate", help="dump reflecting paths")
    common(p)
    p.add_argument("--out", default="paths", help="output directory")
    p.add_argument("--n-paths", type=int, default=1)
    p.add_argument("--horizon", type=float, default=None)
    p.add_argument("--step", type=float, default=None)
    p.add_argument("--npz", action="store_true", help="also write binary dumps")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("bench", help="local-time rate and star-integral identity suites")
    common(p)
    p.add_argument("--n-paths", type=int, default=2000)
    p.add_argument("--horizon", type=float, default=None)
    p.add_argument("--step", type=float, default=None)
    p.set_defaults(func=cmd_bench)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except InadmissibleConstants as err:
        print(f"inadmissible constants: {err}", file=sys.stderr)
        return EXIT_INADMISSIBLE


if __name__ == "__main__":
    sys.exit(main())
