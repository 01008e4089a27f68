"""Run configuration: INI-style sections, fully validated before any compute."""

from __future__ import annotations

import configparser
from dataclasses import dataclass

from .coeffexpr import CoefficientSet, ExprError, StructureConstants
from .geometry import Domain

_DOMAIN_KEYS = {"kind", "radius", "dimension", "a", "b"}
_CONST_KEYS = {"alpha", "beta", "K", "M", "k", "beta_prime", "C0", "trace_norm"}
_SOLVER_KEYS = {
    "backend", "variant", "mesh_h", "tol", "max_iter", "inner_tol",
    "n_paths", "step", "horizon", "seed", "override_admissibility",
    "validate_budget", "m1", "residual_window",
}
_BACKENDS = {"fem", "stochastic-verify", "both"}
_VARIANTS = {"probabilistic", "analytic"}


class ConfigError(ValueError):
    """Malformed configuration; the message carries section/key diagnostics."""


@dataclass
class SolverOptions:
    backend: str = "fem"
    variant: str = "probabilistic"
    mesh_h: float = 0.05
    tol: float = 1e-8
    max_iter: int = 50
    inner_tol: float = 1e-10
    n_paths: int = 2000
    step: float = 1e-3
    horizon: float = 10.0           # truncation horizon for the point estimators
    residual_window: float = 0.2    # time span of the martingale-residual check
    seed: int = 0
    override_admissibility: bool = False
    validate_budget: int = 2000
    m1: float = 0.0


@dataclass
class RunConfig:
    domain: Domain
    coeffs: CoefficientSet
    consts: StructureConstants
    solver: SolverOptions
    trace_norm: float | None = None


def _get_float(section, key, default=None):
    raw = section.get(key)
    if raw is None:
        if default is None:
            raise ConfigError(f"[{section.name}] missing required key '{key}'")
        return default
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"[{section.name}] {key} = {raw!r} is not a number") from None


def _get_int(section, key, default):
    raw = section.get(key)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"[{section.name}] {key} = {raw!r} is not an integer") from None


def _get_bool(section, key, default):
    raw = section.get(key)
    if raw is None:
        return default
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"[{section.name}] {key} = {raw!r} is not a boolean")


def _strip(raw: str) -> str:
    raw = raw.strip()
    if len(raw) >= 2 and raw[0] == raw[-1] and raw[0] in "\"'":
        return raw[1:-1]
    return raw


def load_config(path) -> RunConfig:
    """Parse and fully validate a run configuration file.

    Rejects unknown sections/keys and [solver] sizes, steps and tolerances
    out of range; parses every coefficient expression so a malformed formula
    fails here with its offset diagnostic, before any compute starts.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.optionxform = str  # keys are case-sensitive (K vs k)
    try:
        read = parser.read(path)
    except configparser.Error as err:
        raise ConfigError(f"malformed config: {err}") from err
    if not read:
        raise ConfigError(f"cannot read config file {path}")

    known = {"domain", "coefficients", "constants", "solver"}
    unknown = set(parser.sections()) - known
    if unknown:
        raise ConfigError(f"unknown section(s): {sorted(unknown)}")
    for name in ("domain", "coefficients", "constants"):
        if name not in parser:
            raise ConfigError(f"missing required section [{name}]")

    dom = parser["domain"]
    bad = set(dom.keys()) - _DOMAIN_KEYS
    if bad:
        raise ConfigError(f"[domain] unknown key(s): {sorted(bad)}")
    kind = dom.get("kind", "disk").strip().lower()
    if kind == "disk":
        domain = Domain.disk(radius=_get_float(dom, "radius", 1.0))
    elif kind == "ball":
        domain = Domain.ball(
            dim=_get_int(dom, "dimension", 3), radius=_get_float(dom, "radius", 1.0)
        )
    elif kind == "ellipse":
        domain = Domain.ellipse(_get_float(dom, "a"), _get_float(dom, "b"))
    else:
        raise ConfigError(f"[domain] unknown kind {kind!r} (disk | ball | ellipse)")

    dim = domain.dim
    co = parser["coefficients"]
    g_keys = {f"g{i + 1}" for i in range(dim)}
    b_keys = {f"b{i + 1}" for i in range(dim)}
    allowed = {"f", "h", "q"} | g_keys | b_keys
    bad = set(co.keys()) - allowed
    if bad:
        raise ConfigError(
            f"[coefficients] unknown key(s) for dimension {dim}: {sorted(bad)}"
        )
    for key in ("f", "h", "q", *sorted(g_keys)):
        if key not in co:
            raise ConfigError(f"[coefficients] missing required key '{key}'")
    try:
        coeffs = CoefficientSet.from_strings(
            dim,
            f=_strip(co["f"]),
            g=[_strip(co[f"g{i + 1}"]) for i in range(dim)],
            h=_strip(co["h"]),
            q=_strip(co["q"]),
            b=[_strip(co.get(f"b{i + 1}", "0")) for i in range(dim)],
        )
    except ExprError as err:
        raise ConfigError(f"[coefficients] {err}") from err

    cs = parser["constants"]
    bad = set(cs.keys()) - _CONST_KEYS
    if bad:
        raise ConfigError(f"[constants] unknown key(s): {sorted(bad)}")
    try:
        consts = StructureConstants(
            alpha=_get_float(cs, "alpha"),
            beta=_get_float(cs, "beta"),
            K=_get_float(cs, "K"),
            M=_get_float(cs, "M"),
            k=_get_float(cs, "k"),
            beta_prime=_get_float(cs, "beta_prime"),
            C0=_get_float(cs, "C0", 0.0),
        )
    except ValueError as err:
        raise ConfigError(f"[constants] {err}") from err
    trace_norm = _get_float(cs, "trace_norm", float("nan"))
    trace_norm = None if trace_norm != trace_norm else trace_norm

    solver = SolverOptions()
    if "solver" in parser:
        sec = parser["solver"]
        bad = set(sec.keys()) - _SOLVER_KEYS
        if bad:
            raise ConfigError(f"[solver] unknown key(s): {sorted(bad)}")
        solver.backend = sec.get("backend", solver.backend).strip().lower()
        if solver.backend not in _BACKENDS:
            raise ConfigError(f"[solver] unknown backend {solver.backend!r}")
        solver.variant = sec.get("variant", solver.variant).strip().lower()
        if solver.variant not in _VARIANTS:
            raise ConfigError(f"[solver] unknown variant {solver.variant!r}")
        solver.mesh_h = _get_float(sec, "mesh_h", solver.mesh_h)
        solver.tol = _get_float(sec, "tol", solver.tol)
        solver.max_iter = _get_int(sec, "max_iter", solver.max_iter)
        solver.inner_tol = _get_float(sec, "inner_tol", solver.inner_tol)
        solver.n_paths = _get_int(sec, "n_paths", solver.n_paths)
        solver.step = _get_float(sec, "step", solver.step)
        solver.horizon = _get_float(sec, "horizon", solver.horizon)
        solver.residual_window = _get_float(sec, "residual_window", solver.residual_window)
        solver.seed = _get_int(sec, "seed", solver.seed)
        solver.override_admissibility = _get_bool(
            sec, "override_admissibility", solver.override_admissibility
        )
        solver.validate_budget = _get_int(sec, "validate_budget", solver.validate_budget)
        solver.m1 = _get_float(sec, "m1", solver.m1)
        for key in ("mesh_h", "tol", "inner_tol", "step", "horizon", "residual_window"):
            value = getattr(solver, key)
            if not value > 0:
                raise ConfigError(f"[solver] {key} = {value!r} must be positive")
        for key in ("n_paths", "max_iter", "validate_budget"):
            value = getattr(solver, key)
            if value < 1:
                raise ConfigError(f"[solver] {key} = {value} must be at least 1")

    if solver.backend in ("stochastic-verify", "both") and not coeffs.b_is_zero:
        raise ConfigError(
            "[solver] stochastic backend requested but the drift b is nonzero; "
            "fold the drift into f and set b = 0"
        )
    if domain.kind == "ball" and domain.dim != 2 and solver.backend in ("fem", "both"):
        raise ConfigError("[solver] the fem backend is 2-d only (disk or ellipse)")
    return RunConfig(
        domain=domain, coeffs=coeffs, consts=consts, solver=solver, trace_norm=trace_norm
    )
