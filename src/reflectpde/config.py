"""Run configuration: INI-style sections, fully validated before any compute."""

from __future__ import annotations

import configparser
import math
from dataclasses import MISSING, dataclass, fields

from .coeffexpr import CoefficientSet, ExprError, StructureConstants
from .geometry import Domain

# the keys each domain kind takes besides `kind`; the disk is the 2-ball
_DOMAIN_KEYS = {"disk": ("radius",), "ball": ("dimension", "radius"), "ellipse": ("a", "b")}
_VARIANTS = {"probabilistic", "analytic"}
_SEED_LIMIT = 2**63  # Philox keys seed + offset as a uint64; offsets reach 100 + grid_n - 1


class ConfigError(ValueError):
    """Malformed configuration; the message carries section/key diagnostics."""


def check_seed(seed: int, source: str) -> int:
    """``seed`` when it lies in [0, 2^63); otherwise a ConfigError naming ``source``."""
    if not 0 <= seed < _SEED_LIMIT:
        raise ConfigError(f"{source} must lie in [0, 2^63)")
    return seed


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


def _get_str(section, key, default):
    return section.get(key, default).strip().lower()


def _get_float(section, key, default=None):
    raw = section.get(key)
    if raw is None:
        if default is None:
            raise ConfigError(f"[{section.name}] missing required key '{key}'")
        return default
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"[{section.name}] {key} = {raw!r} is not a number") from None
    if not math.isfinite(value):
        raise ConfigError(f"[{section.name}] {key} = {raw!r} is not a finite number")
    return value


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


# the reader of a [solver] key is picked by the type of its SolverOptions default
_READERS = {str: _get_str, float: _get_float, int: _get_int, bool: _get_bool}


def _reject_unknown(section, known):
    bad = set(section.keys()) - set(known)
    if bad:
        raise ConfigError(f"[{section.name}] unknown key(s): {sorted(bad)}")


def _strip(raw: str) -> str:
    raw = raw.strip()
    if len(raw) >= 2 and raw[0] == raw[-1] and raw[0] in "\"'":
        return raw[1:-1]
    return raw


def load_config(path) -> RunConfig:
    """Parse and fully validate a run configuration file.

    Rejects unknown sections/keys, numbers that are not finite, and [solver]
    sizes, steps, tolerances and seeds out of range; parses every coefficient
    expression so a malformed formula fails here with its offset diagnostic,
    before any compute starts.  A command checks what it needs beyond the
    file (a 2-d domain, b = 0) itself.
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
    kind = dom.get("kind", "disk").strip().lower()
    if kind not in _DOMAIN_KEYS:
        raise ConfigError(f"[domain] unknown kind {kind!r} (disk | ball | ellipse)")
    other = sorted(set(dom.keys()) - {"kind", *_DOMAIN_KEYS[kind]})
    if other:
        raise ConfigError(f"[domain] kind = {kind} takes {list(_DOMAIN_KEYS[kind])}, not {other}")
    if kind == "ellipse":
        make, args = Domain.ellipse, (_get_float(dom, "a"), _get_float(dom, "b"))
    else:
        dim = _get_int(dom, "dimension", 3) if kind == "ball" else 2
        make, args = Domain.ball, (dim, _get_float(dom, "radius", 1.0))
    try:
        domain = make(*args)
    except ValueError as err:  # a size that is not positive, a ball below 2-d, or b > a
        raise ConfigError(f"[domain] {err}") from None

    dim = domain.dim
    co = parser["coefficients"]
    g_keys = [f"g{i + 1}" for i in range(dim)]
    b_keys = [f"b{i + 1}" for i in range(dim)]
    _reject_unknown(co, {"f", "h", "q", *g_keys, *b_keys})
    for key in ("f", "h", "q", *g_keys):
        if key not in co:
            raise ConfigError(f"[coefficients] missing required key '{key}'")
    try:
        coeffs = CoefficientSet.from_strings(
            dim,
            f=_strip(co["f"]),
            g=[_strip(co[key]) for key in g_keys],
            h=_strip(co["h"]),
            q=_strip(co["q"]),
            b=[_strip(co.get(key, "0")) for key in b_keys],
        )
    except ExprError as err:
        raise ConfigError(f"[coefficients] {err}") from err

    cs = parser["constants"]
    required = [f.name for f in fields(StructureConstants) if f.default is MISSING]
    _reject_unknown(cs, {*required, "trace_norm"})
    values = {key: _get_float(cs, key) for key in required}
    try:
        consts = StructureConstants(**values)
    except ValueError as err:
        raise ConfigError(f"[constants] {err}") from err
    trace_norm = _get_float(cs, "trace_norm") if "trace_norm" in cs else None

    solver = SolverOptions()
    if "solver" in parser:
        sec = parser["solver"]
        opts = fields(SolverOptions)
        _reject_unknown(sec, {f.name for f in opts})
        solver = SolverOptions(**{
            f.name: _READERS[type(f.default)](sec, f.name, f.default) for f in opts
        })
        if solver.backend not in ("fem", "both"):
            raise ConfigError(f"[solver] unknown backend {solver.backend!r} (fem | both)")
        if solver.variant not in _VARIANTS:
            raise ConfigError(f"[solver] unknown variant {solver.variant!r}")
        for key in ("mesh_h", "tol", "inner_tol", "step", "horizon", "residual_window"):
            value = getattr(solver, key)
            if not value > 0:
                raise ConfigError(f"[solver] {key} = {value!r} must be positive")
        for key in ("n_paths", "max_iter", "validate_budget"):
            value = getattr(solver, key)
            if value < 1:
                raise ConfigError(f"[solver] {key} = {value} must be at least 1")
        check_seed(solver.seed, f"[solver] seed = {solver.seed}")
    return RunConfig(
        domain=domain, coeffs=coeffs, consts=consts, solver=solver, trace_norm=trace_norm
    )
