"""Command-line entry point.

Subcommands: solve, verify, check-conditions, simulate, bench.  Exit codes
form a stable contract: 0 success, 1 configuration error (among them a
coefficient undefined where it is evaluated), 2 no contraction,
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
from .coeffexpr import DomainError, InadmissibleConstants, choose_constants, validate_structure
from .config import ConfigError, RunConfig, check_seed, load_config
from .geometry import project_points
from .mesh_fem import (
    build_mesh,
    export_field,
    export_mesh,
    import_field,
    import_mesh,
)
from .probeval import McParams
from .reflectsim import (
    LocalTimeObserver, StarObserver, check_step, run_paths, simulate_paths, star_integral,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NO_CONTRACTION = 2
EXIT_INADMISSIBLE = 3
EXIT_CHECK_FAILED = 4


def _load(args) -> RunConfig:
    cfg = load_config(args.config)
    if getattr(args, "seed", None) is not None:
        cfg.solver.seed = check_seed(args.seed, f"--seed {args.seed}")
    if getattr(args, "override_admissibility", False):
        cfg.solver.override_admissibility = True
    return cfg


def _derived_constants(cfg: RunConfig, residual_test: bool):
    """choose_constants honoring the override flag; returns (consts, note).

    The flag waives admissibility for the Picard solve only: with ``residual_test``,
    whose terminal weight reads the derived lam and mu, inadmissible constants raise.
    """
    try:
        return (
            choose_constants(
                cfg.consts,
                variant=cfg.solver.variant,
                m1=cfg.solver.m1,
                sup_b=0.0 if cfg.coeffs.b_is_zero else None,
                trace_norm=cfg.trace_norm,
            ),
            "",
        )
    except InadmissibleConstants as err:
        if not cfg.solver.override_admissibility:
            raise
        if residual_test:
            raise InadmissibleConstants(
                f"{err}; --override-admissibility waives admissibility for the Picard solve "
                "only, and the residual test's terminal weight needs the derived lam and mu"
            ) from None
        return cfg.consts, f"override: running with inadmissible constants ({err})"


def _checked_step(domain, horizon: float, step: float, source: str):
    """Reject, as a config error, a step and horizon the path engine would refuse."""
    try:
        check_step(domain, horizon, step)
    except ValueError as err:
        raise ConfigError(f"{source}: {err}") from None


def _mc_params(cfg: RunConfig) -> McParams:
    """Monte-Carlo check parameters; paths run without drift, so b must be 0.

    A nonzero b, or a step the path engine refuses, is a config error.
    """
    if not cfg.coeffs.b_is_zero:
        raise ConfigError("[coefficients] Monte-Carlo checks need b = 0 (fold b into f)")
    s = cfg.solver
    where = f"[solver] step = {s.step!r}, horizon = {s.horizon!r}"
    _checked_step(cfg.domain, s.horizon, s.step, where)
    return McParams(n_paths=s.n_paths, horizon=s.horizon, step=s.step, seed=s.seed)


def _require_2d(cfg: RunConfig, command: str):
    """solve and verify read a P1 mesh, which exists on 2-d domains only."""
    if cfg.domain.dim != 2:
        raise ConfigError(f"[domain] {command} needs a 2-d domain, not dimension {cfg.domain.dim}")


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


def _verification(cfg: RunConfig, u, consts, params: McParams):
    """Run and print the martingale-residual test and the probe comparison of u."""
    residual = probeval.martingale_residual_test(
        cfg.domain, u, cfg.coeffs, consts, params, t_res=cfg.solver.residual_window
    )
    print(residual)
    probecmp = probeval.compare_frozen_at_probes(cfg.domain, u, cfg.coeffs, params)
    print(probecmp)
    return residual, probecmp


def cmd_solve(args) -> int:
    cfg = _load(args)
    _require_2d(cfg, "solve")
    params = _mc_params(cfg) if cfg.solver.backend == "both" else None
    consts, note = _derived_constants(cfg, residual_test=params is not None)
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
    except picard.NoContraction as err:
        trace = err.trace

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    export_mesh(mesh, out_dir / "mesh.txt")
    export_field(trace.solution, out_dir / "solution.csv")
    trace.export_csv(out_dir / "trace.csv")
    summary = {
        "converged": trace.converged,
        "no_contraction": trace.no_contraction,
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
    if params is not None and trace.n_iterations > 0:
        residual, probecmp = _verification(cfg, trace.solution, consts, params)
        summary["verification"] = {
            "residual_mean": residual.mean_residual,
            "residual_se": residual.se_residual,
            "residual_pass": residual.passed,
            "probe_max_gap": probecmp.max_gap,
            "probe_pass": probecmp.passed,
        }
    _write_summary(out_dir, summary)
    print(
        f"picard: converged={trace.converged} iterations={trace.n_iterations} "
        f"final increment={trace.increments[-1] if trace.increments else float('nan'):.3e} "
        f"weak residual={trace.final_residual:.3e}"
    )
    return EXIT_OK if trace.converged and not trace.no_contraction else EXIT_NO_CONTRACTION


def cmd_verify(args) -> int:
    cfg = _load(args)
    _require_2d(cfg, "verify")
    params = _mc_params(cfg)
    consts, _ = _derived_constants(cfg, residual_test=True)
    field_path = Path(args.field)
    mesh_path = Path(args.mesh) if args.mesh else field_path.parent / "mesh.txt"
    try:
        mesh = import_mesh(mesh_path)
        u = import_field(field_path, mesh)
        off = project_points(cfg.domain, mesh.nodes[mesh.boundary_edges.ravel()])[2].max(initial=0)
        if off > 1e-9 * cfg.domain.diameter:  # the mesh is not of the configured domain
            raise ValueError(f"{mesh_path}: boundary nodes lie {off:.3g} off the domain's boundary")
    except (OSError, ValueError) as err:
        print(f"cannot load field: {err}", file=sys.stderr)
        return EXIT_CONFIG
    residual, probecmp = _verification(cfg, u, consts, params)
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
            for p, f, m, s, ok in zip(
                probecmp.probes, probecmp.fem_values, probecmp.mc_means, probecmp.mc_ses,
                probecmp.verdicts,
            ):
                fh.write(
                    f"{float(p[0])!r},{float(p[1])!r},{float(f)!r},{float(m)!r},"
                    f"{float(s)!r},{int(ok)}\n"
                )
    return EXIT_OK if (residual.passed and probecmp.passed) else EXIT_CHECK_FAILED


def cmd_check_conditions(args) -> int:
    cfg = _load(args)
    params = _mc_params(cfg)
    report = validate_structure(
        cfg.domain, cfg.coeffs, cfg.consts,
        budget=cfg.solver.validate_budget, seed=cfg.solver.seed,
    )
    print(report)
    creport = probeval.check_conditions_C(cfg.domain, cfg.coeffs, params)
    print(creport)
    ok = report.passed and creport.all_clear
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _path_run(args, domain, horizon: float, step: float):
    """(n_paths, horizon, step) of a path run: the flags, else the given defaults."""
    T = horizon if args.horizon is None else args.horizon
    h = step if args.step is None else args.step
    for flag, value in (("--horizon", T), ("--step", h)):
        if not value > 0:
            raise ConfigError(f"{flag} {value!r} must be positive")
    if args.n_paths < 1:
        raise ConfigError(f"--n-paths {args.n_paths} must be at least 1")
    _checked_step(domain, T, h, f"--horizon {T!r} --step {h!r}")
    return args.n_paths, T, h


def cmd_simulate(args) -> int:
    cfg = _load(args)
    n, T, h = _path_run(args, cfg.domain, cfg.solver.horizon, cfg.solver.step)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = simulate_paths(cfg.domain, n, T, h, cfg.solver.seed)
    for i, path in enumerate(paths):
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
    n, T, h = _path_run(args, cfg.domain, 2.0, cfg.solver.step)
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
    path = simulate_paths(dom, 1, min(T, max(1.0, h)), h, cfg.solver.seed)[0]  # at least one step
    const = np.ones(dom.dim) / math.sqrt(dom.dim)
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
            help="run the Picard solve on inadmissible structure constants (not the residual "
                 "test of verify or backend = both, which needs the derived lam and mu)",
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
    except DomainError as err:
        print(f"config error: [coefficients] {err}", file=sys.stderr)
        return EXIT_CONFIG
    except InadmissibleConstants as err:
        print(f"inadmissible constants: {err}", file=sys.stderr)
        return EXIT_INADMISSIBLE
    except probeval.AdmissibilityError as err:
        print(f"verification failed: {err}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
