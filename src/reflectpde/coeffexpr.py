"""Coefficient expressions and structure constants for the semilinear problem.

The problem data f(x, y, z), g(x, y, z), h(x, y), q(x), b(x) are given as
small arithmetic expressions over the variables ``x1..xN``, ``y``,
``z1..zN``.  This module provides the parser/evaluator for that language,
the container types for a coefficient set and its structure constants, a
sampling-based checker for the monotonicity/Lipschitz/growth conditions, and
the deterministic recipe that fills in the derived Picard constants
(eps1, eps2, eps3, lambda, mu, gamma).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .geometry import Domain, sample_uniform

_FUNCTIONS = {
    "sin": 1,
    "cos": 1,
    "exp": 1,
    "log": 1,
    "sqrt": 1,
    "abs": 1,
    "tanh": 1,
    "min": 2,
    "max": 2,
}

_UFUNCS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "tanh": np.tanh,
    "abs": np.abs,
}

ONE_OVER_TWO_ROOT_TWO = 1.0 / (2.0 * math.sqrt(2.0))


# ---------------------------------------------------------------------------
# errors


class ExprError(ValueError):
    """Base class for expression language errors."""


class ExprSyntaxError(ExprError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownIdentifier(ExprError):
    def __init__(self, name: str, offset: int):
        super().__init__(f"unknown identifier {name!r} (at offset {offset})")
        self.name = name
        self.offset = offset


class ArityMismatch(ExprError):
    def __init__(self, name: str, expected: int, got: int, offset: int):
        super().__init__(
            f"{name}() takes {expected} argument(s), got {got} (at offset {offset})"
        )
        self.offset = offset


class UnboundVariable(ExprError):
    pass


class DomainError(ExprError):
    """log/sqrt of a negative argument, or a non-real power."""


class InadmissibleConstants(ValueError):
    """Structure constants violate an admissibility inequality (named in args)."""


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    child: "Node"


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple


Node = Num | Var | Neg | BinOp | Call


@dataclass(frozen=True)
class Expr:
    """A parsed expression: immutable AST plus its declared variable set."""

    root: Node
    variables: frozenset[str]
    source: str = ""

    def __call__(self, env: dict):
        return eval_expr(self, env)

    def __str__(self) -> str:
        return print_expr(self)

    def is_zero(self) -> bool:
        """True when the expression is 0 by its form alone.

        Conservative: a number equal to 0, the negation of a zero, a sum or
        difference of zeros, and a product with a zero factor are zero;
        anything else is not known to be zero.
        """
        return _is_zero(self.root)


def _is_zero(node: Node) -> bool:
    if isinstance(node, Num):
        return node.value == 0.0
    if isinstance(node, Neg):
        return _is_zero(node.child)
    if isinstance(node, BinOp) and node.op in "+-":
        return _is_zero(node.left) and _is_zero(node.right)
    if isinstance(node, BinOp) and node.op == "*":
        return _is_zero(node.left) or _is_zero(node.right)
    return False


# ---------------------------------------------------------------------------
# parser: precedence  ^  >  unary -  >  * /  >  + -   with right-assoc ^


class _Parser:
    def __init__(self, src: str, variables):
        self.src = src
        self.pos = 0
        self.vars = frozenset(variables)

    def error(self, message):
        raise ExprSyntaxError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.src) and self.src[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.src[self.pos] if self.pos < len(self.src) else ""

    def accept(self, ch):
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def expect(self, ch):
        if not self.accept(ch):
            self.error(f"expected {ch!r}")

    def parse(self) -> Node:
        node = self.sum_()
        self.skip_ws()
        if self.pos != len(self.src):
            self.error(f"unexpected input {self.src[self.pos]!r}")
        return node

    def sum_(self) -> Node:
        node = self.term()
        while True:
            c = self.peek()
            if c and c in "+-":
                self.pos += 1
                node = BinOp(c, node, self.term())
            else:
                return node

    def term(self) -> Node:
        node = self.unary()
        while True:
            c = self.peek()
            if c and c in "*/":
                self.pos += 1
                node = BinOp(c, node, self.unary())
            else:
                return node

    def unary(self) -> Node:
        if self.accept("-"):
            return Neg(self.unary())
        return self.power()

    def power(self) -> Node:
        base = self.atom()
        if self.accept("^"):
            # right-associative; exponent may carry a unary sign
            return BinOp("^", base, self.unary())
        return base

    def atom(self) -> Node:
        c = self.peek()
        if c == "(":
            self.pos += 1
            node = self.sum_()
            self.expect(")")
            return node
        if c.isdigit() or c == ".":
            return self.number()
        if c.isalpha() or c == "_":
            return self.identifier()
        self.error("expected a number, identifier, or '('")

    def number(self) -> Node:
        start = self.pos
        s = self.src
        while self.pos < len(s) and (s[self.pos].isdigit() or s[self.pos] == "."):
            self.pos += 1
        if self.pos < len(s) and s[self.pos] in "eE":
            mark = self.pos
            self.pos += 1
            if self.pos < len(s) and s[self.pos] in "+-":
                self.pos += 1
            if self.pos < len(s) and s[self.pos].isdigit():
                while self.pos < len(s) and s[self.pos].isdigit():
                    self.pos += 1
            else:
                self.pos = mark  # not an exponent, e.g. "2e" followed by junk
        try:
            return Num(float(s[start : self.pos]))
        except ValueError:
            self.pos = start
            self.error(f"bad numeric literal {s[start:self.pos + 1]!r}")

    def identifier(self) -> Node:
        start = self.pos
        s = self.src
        while self.pos < len(s) and (s[self.pos].isalnum() or s[self.pos] == "_"):
            self.pos += 1
        name = s[start : self.pos]
        if self.peek() == "(":
            if name not in _FUNCTIONS:
                raise UnknownIdentifier(name, start)
            self.pos += 1
            args = [self.sum_()]
            while self.accept(","):
                args.append(self.sum_())
            self.expect(")")
            want = _FUNCTIONS[name]
            if len(args) != want:
                raise ArityMismatch(name, want, len(args), start)
            return Call(name, tuple(args))
        if name == "pi":
            return Num(math.pi)
        if name not in self.vars:
            raise UnknownIdentifier(name, start)
        return Var(name)


def parse_expr(src: str, variables=()) -> Expr:
    """Parse ``src`` into an :class:`Expr` over the declared variable set.

    Raises :class:`ExprSyntaxError` (with byte offset), :class:`UnknownIdentifier`,
    or :class:`ArityMismatch` on malformed input.
    """
    root = _Parser(src, variables).parse()
    return Expr(root, frozenset(variables), src)


def print_expr(expr: Expr) -> str:
    """Render an expression; parse(print(e)) is structurally identical to e."""
    return _render(expr.root, 0)


# precedence levels used for minimal parenthesization
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def _render(node: Node, min_prec: int = 0) -> str:
    """Render a node, parenthesizing whenever its level is below ``min_prec``."""
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Call):
        args = ", ".join(_render(a, 0) for a in node.args)
        return f"{node.func}({args})"
    if isinstance(node, Neg):
        p = _PREC["neg"]
        s = f"-{_render(node.child, p)}"
        return f"({s})" if p < min_prec else s
    p = _PREC[node.op]
    if node.op == "^":
        # right-associative: ties bind on the right
        s = f"{_render(node.left, p + 1)} {node.op} {_render(node.right, p)}"
    else:
        s = f"{_render(node.left, p)} {node.op} {_render(node.right, p + 1)}"
    return f"({s})" if p < min_prec else s


def eval_expr(expr: Expr, env: dict):
    """Evaluate with IEEE double semantics; env values may be scalars or arrays.

    Raises :class:`UnboundVariable` for a missing binding and
    :class:`DomainError` for sqrt/log of negatives or a NaN-producing power.
    Division follows IEEE (inf on division by zero).
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = _eval(expr.root, env)
    return out


def _eval(node: Node, env: dict):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        try:
            return env[node.name]
        except KeyError:
            raise UnboundVariable(f"variable {node.name!r} is not bound") from None
    if isinstance(node, Neg):
        return -_eval(node.child, env)
    if isinstance(node, Call):
        args = [_eval(a, env) for a in node.args]
        name = node.func
        if name in _UFUNCS:
            return _UFUNCS[name](args[0])
        if name == "sqrt":
            if np.any(np.asarray(args[0]) < 0):
                raise DomainError("sqrt of a negative argument")
            return np.sqrt(args[0])
        if name == "log":
            if np.any(np.asarray(args[0]) <= 0):
                raise DomainError("log of a non-positive argument")
            return np.log(args[0])
        if name == "min":
            return np.minimum(args[0], args[1])
        return np.maximum(args[0], args[1])
    left = _eval(node.left, env)
    right = _eval(node.right, env)
    if node.op == "+":
        return left + right
    if node.op == "-":
        return left - right
    if node.op == "*":
        return left * right
    if node.op == "/":
        return np.divide(left, right)
    out = np.power(left, right, dtype=float)
    if np.any(np.isnan(out)):
        raise DomainError("power produced a non-real value")
    return out


def variables_for(role: str, dim: int) -> tuple:
    """Variable names allowed for a coefficient role ('f', 'g', 'h', 'q', 'b')."""
    xs = tuple(f"x{i + 1}" for i in range(dim))
    zs = tuple(f"z{i + 1}" for i in range(dim))
    if role in ("f", "g"):
        return xs + ("y",) + zs
    if role == "h":
        return xs + ("y",)
    return xs


# ---------------------------------------------------------------------------
# coefficient set


def _env_x(x: np.ndarray) -> dict:
    return {f"x{i + 1}": x[:, i] for i in range(x.shape[1])}


@dataclass(frozen=True)
class CoefficientSet:
    """Problem data f, g, h, q, b as parsed expressions over dimension ``dim``."""

    dim: int
    f: Expr
    g: tuple            # N expressions
    h: Expr
    q: Expr
    b: tuple            # N expressions

    @classmethod
    def from_strings(cls, dim: int, f: str, g: list, h: str, q: str, b=None) -> "CoefficientSet":
        if len(g) != dim:
            raise ArityMismatch("g", dim, len(g), 0)
        if b is None:
            b = ["0"] * dim
        if len(b) != dim:
            raise ArityMismatch("b", dim, len(b), 0)
        return cls(
            dim=dim,
            f=parse_expr(f, variables_for("f", dim)),
            g=tuple(parse_expr(s, variables_for("g", dim)) for s in g),
            h=parse_expr(h, variables_for("h", dim)),
            q=parse_expr(q, variables_for("q", dim)),
            b=tuple(parse_expr(s, variables_for("b", dim)) for s in b),
        )

    # vectorized evaluation over point batches -----------------------------

    def f_at(self, x, y, z):
        env = _env_x(x)
        env["y"] = y
        env.update({f"z{i + 1}": z[:, i] for i in range(self.dim)})
        return np.broadcast_to(eval_expr(self.f, env), x.shape[:1]).astype(float)

    def g_at(self, x, y, z):
        env = _env_x(x)
        env["y"] = y
        env.update({f"z{i + 1}": z[:, i] for i in range(self.dim)})
        cols = [np.broadcast_to(eval_expr(e, env), x.shape[:1]) for e in self.g]
        return np.stack(cols, axis=1).astype(float)

    def h_at(self, x, y):
        env = _env_x(x)
        env["y"] = y
        return np.broadcast_to(eval_expr(self.h, env), x.shape[:1]).astype(float)

    def q_at(self, x):
        return np.broadcast_to(eval_expr(self.q, _env_x(x)), x.shape[:1]).astype(float)

    def b_at(self, x):
        env = _env_x(x)
        cols = [np.broadcast_to(eval_expr(e, env), x.shape[:1]) for e in self.b]
        return np.stack(cols, axis=1).astype(float)

    @property
    def b_is_zero(self) -> bool:
        return all(e.is_zero() for e in self.b)


# ---------------------------------------------------------------------------
# structure constants


@dataclass(frozen=True)
class StructureConstants:
    """Base constants of the coefficient conditions plus derived Picard data.

    alpha, beta: monotonicity rates of f and h in y;  K: Lipschitz constant of
    f in z;  M: growth bound;  k: Lipschitz constant of g in (y, z);
    beta_prime: Lipschitz constant of h in y;  C0: Lipschitz constant of the
    drift b.  Derived fields are filled by :func:`choose_constants`.
    """

    alpha: float
    beta: float
    K: float
    M: float
    k: float
    beta_prime: float
    C0: float = 0.0

    variant: str = ""
    eps1: float = float("nan")
    eps2: float = float("nan")
    eps3: float = float("nan")
    lam: float = float("nan")
    mu: float = float("nan")
    gamma: float = float("nan")

    def __post_init__(self):
        for name in ("alpha", "beta", "K", "M", "beta_prime"):
            if getattr(self, name) <= 0:
                raise InadmissibleConstants(f"{name} must be positive")
        if self.k < 0 or self.C0 < 0:
            raise InadmissibleConstants("k and C0 must be nonnegative")
        if self.K**2 >= 2.0 * self.alpha:
            raise InadmissibleConstants(
                f"K^2 < 2*alpha violated (K^2={self.K**2:g}, 2*alpha={2 * self.alpha:g})"
            )

    @property
    def derived_filled(self) -> bool:
        return bool(self.variant)


def choose_constants(
    consts: StructureConstants,
    variant: str = "probabilistic",
    m1: float = 0.0,
    sup_b: float | None = None,
    trace_norm: float | None = None,
) -> StructureConstants:
    """Fill the derived constants (eps1, eps2, eps3, lambda, mu, gamma).

    Probabilistic variant (requires k < 1/(2*sqrt(2)) and
    alpha > (sqrt(2)/2) k + K^2 / (1 - 2 sqrt(2) k)):

        eps1  = (1 - 2 sqrt(2) k) / 2      (midpoint of its admissible interval)
        eps2  = (1 - eps1) / 2
        lam   = -2 alpha + K^2/eps1 + (1 - eps1)/2
        mu    = -beta                       (midpoint of (-2 beta, 0))
        gamma = 2 k^2 / (eps2 (1 - eps1 - eps2))

    Analytic variant: couples eps3 = sup_b^2 * eps1 when the drift bound is
    positive (eps3 chosen freely when sup_b = 0, where the drift Young term is
    absent), sets gamma = k^2 / (eps2 (1 - sup_b^2 eps1 - eps2 - eps3)), and
    additionally checks the largeness inequality involving m1 = sup q and the
    trace-operator norm.  ``trace_norm`` must be supplied (or grid-estimated
    by the caller) for that check.

    Both variants verify lam in (-2 alpha + K^2, 0) and mu in (-2 beta, 0)
    after the fact and raise :class:`InadmissibleConstants` naming the first
    violated inequality.
    """
    a, K, k, beta = consts.alpha, consts.K, consts.k, consts.beta
    if k >= ONE_OVER_TWO_ROOT_TWO:
        raise InadmissibleConstants(
            f"k < 1/(2*sqrt(2)) ~= {ONE_OVER_TWO_ROOT_TWO:.5f} violated (k={k:g})"
        )
    if variant == "probabilistic":
        bound = (math.sqrt(2.0) / 2.0) * k + K**2 / (1.0 - 2.0 * math.sqrt(2.0) * k)
        if a <= bound:
            raise InadmissibleConstants(
                f"alpha > (sqrt(2)/2)k + K^2/(1 - 2 sqrt(2) k) violated "
                f"(alpha={a:g}, bound={bound:.6g})"
            )
        eps1 = (1.0 - 2.0 * math.sqrt(2.0) * k) / 2.0
        eps2 = (1.0 - eps1) / 2.0
        lam = -2.0 * a + K**2 / eps1 + (1.0 - eps1) / 2.0
        mu = -beta
        gamma = 2.0 * k**2 / (eps2 * (1.0 - eps1 - eps2))
        eps3 = float("nan")
    elif variant == "analytic":
        sb = consts.M if sup_b is None else sup_b
        if trace_norm is None:
            raise InadmissibleConstants("analytic variant needs a trace_norm value")
        if sb > 0:
            s = (1.0 - 2.0 * math.sqrt(2.0) * k) / 4.0
            a1 = s            # = sup_b^2 * eps1
            eps1 = s / sb**2
            eps3 = s
            eps2 = (1.0 - 2.0 * s) / 2.0
            slack = 1.0 - a1 - eps2 - eps3
            young = 1.0 / eps1 + K**2 / eps3
        else:
            s = (1.0 - 2.0 * math.sqrt(2.0) * k) / 2.0
            eps1 = float("nan")
            eps3 = s
            eps2 = (1.0 - s) / 2.0
            slack = 1.0 - eps2 - eps3
            young = K**2 / eps3
        if slack <= 0:
            raise InadmissibleConstants("1 - sup_b^2 eps1 - eps2 - eps3 > 0 violated")
        if 2.0 * k**2 >= eps2 * slack:
            raise InadmissibleConstants("2 k^2 < eps2 (1 - sup_b^2 eps1 - eps2 - eps3) violated")
        big = slack + 2.0 * (-a + m1 + consts.beta_prime * trace_norm) + young
        if big >= 0:
            raise InadmissibleConstants(
                f"alpha largeness violated: slack + 2(-alpha + m1 + beta'*||Tr||) "
                f"+ Young terms = {big:.6g} >= 0"
            )
        gamma = k**2 / (eps2 * slack)
        if gamma >= 1.0:
            raise InadmissibleConstants(f"gamma < 1 violated (gamma={gamma:.6g})")
        lam = (-2.0 * a + K**2) / 2.0
        mu = -beta
    else:
        raise ValueError(f"unknown variant {variant!r}")

    if not (-2.0 * a + K**2 < lam < 0.0):
        raise InadmissibleConstants(
            f"lambda in (-2 alpha + K^2, 0) violated (lambda={lam:.6g})"
        )
    if not (-2.0 * beta < mu < 0.0):
        raise InadmissibleConstants(f"mu in (-2 beta, 0) violated (mu={mu:.6g})")
    return replace(
        consts, variant=variant, eps1=eps1, eps2=eps2, eps3=eps3, lam=lam, mu=mu,
        gamma=gamma,
    )


# ---------------------------------------------------------------------------
# sampling-based condition checking


@dataclass
class ConditionResult:
    name: str
    description: str
    n_samples: int
    n_violations: int
    worst_margin: float          # most positive violation (<= 0 means clean)
    worst_sample: dict | None

    @property
    def passed(self) -> bool:
        return self.n_violations == 0


@dataclass
class StructureReport:
    conditions: list
    notes: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.conditions)

    def __str__(self) -> str:
        lines = []
        for c in self.conditions:
            status = "pass" if c.passed else "FAIL"
            lines.append(
                f"{c.name:18s} {status}  violations {c.n_violations}/{c.n_samples}"
                f"  worst margin {c.worst_margin:+.3e}"
            )
        lines.extend(f"note: {n}" for n in self.notes)
        return "\n".join(lines)


def _record(results, name, desc, margin, samples):
    """Fold per-sample margins (violation when > tol) into a ConditionResult."""
    tol = 1e-9 * (1.0 + np.max(np.abs(margin)))
    bad = margin > tol
    worst = int(np.argmax(margin))
    results.append(
        ConditionResult(
            name=name,
            description=desc,
            n_samples=margin.size,
            n_violations=int(bad.sum()),
            worst_margin=float(margin[worst]),
            worst_sample={k: np.asarray(v)[worst].tolist() for k, v in samples.items()}
            if bad.any()
            else None,
        )
    )


def validate_structure(
    domain: Domain,
    coeffs: CoefficientSet,
    consts: StructureConstants,
    budget: int = 2000,
    box: float = 10.0,
    seed: int = 0,
) -> StructureReport:
    """Falsification-style check of the coefficient conditions by sampling.

    Draws ``budget`` random tuples (x in the domain, y, y' in [-R, R], z, z'
    in [-R, R]^N with R = ``box``) plus an equal batch of close pairs
    (finite-difference probes of the Lipschitz/monotonicity slopes) and
    evaluates each condition.  A pass is evidence from sampling, not a proof;
    the report says so in its notes.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    rng = np.random.default_rng(seed)
    n = budget
    dim = coeffs.dim
    x = sample_uniform(domain, n, rng)
    y = rng.uniform(-box, box, n)
    yp = rng.uniform(-box, box, n)
    z = rng.uniform(-box, box, (n, dim))
    zp = rng.uniform(-box, box, (n, dim))
    # close pairs probe local slopes (e.g. tanh near 0)
    half = n // 2
    eps = 1e-3 * box
    yp[:half] = y[:half] + rng.uniform(-eps, eps, half)
    zp[:half] = z[:half] + rng.uniform(-eps, eps, (half, dim))

    a, beta, K, M, k, bp = (
        consts.alpha, consts.beta, consts.K, consts.M, consts.k, consts.beta_prime,
    )
    res: list = []
    dy = y - yp
    samples = {"x": x, "y": y, "y'": yp, "z": z, "z'": zp}

    m = dy * (coeffs.f_at(x, y, z) - coeffs.f_at(x, yp, z)) + a * dy**2
    _record(res, "f_monotone_y", "(y-y')(f(x,y,z)-f(x,y',z)) <= -alpha|y-y'|^2", m, samples)

    m = dy * (coeffs.h_at(x, y) - coeffs.h_at(x, yp)) + beta * dy**2
    _record(res, "h_monotone_y", "(y-y')(h(x,y)-h(x,y')) <= -beta|y-y'|^2", m, samples)

    dz = np.linalg.norm(z - zp, axis=1)
    m = np.abs(coeffs.f_at(x, y, z) - coeffs.f_at(x, y, zp)) - K * dz
    _record(res, "f_lipschitz_z", "|f(x,y,z)-f(x,y,z')| <= K|z-z'|", m, samples)

    # continuity probe in y: small increments produce small changes
    dsmall = 1e-7 * box
    m = np.abs(coeffs.f_at(x, y + dsmall, z) - coeffs.f_at(x, y, z)) - 1e-2 * box
    _record(res, "f_h_continuous_y", "small-increment continuity probe", m, samples)

    m = np.abs(coeffs.f_at(x, y, z)) - M * (1.0 + np.abs(y) + np.linalg.norm(z, axis=1))
    _record(res, "f_growth", "|f| <= M(1+|y|+|z|)", m, samples)
    m = np.abs(coeffs.h_at(x, y)) - M * (1.0 + np.abs(y))
    _record(res, "h_growth", "|h| <= M(1+|y|)", m, samples)
    m = np.linalg.norm(coeffs.g_at(x, y, z), axis=1) - M
    _record(res, "g_bounded", "|g| <= M", m, samples)

    m = (
        np.linalg.norm(coeffs.g_at(x, y, z) - coeffs.g_at(x, yp, zp), axis=1)
        - k * (np.abs(dy) + dz)
    )
    _record(res, "g_lipschitz", "|g(x,y,z)-g(x,y',z')| <= k(|y-y'|+|z-z'|)", m, samples)

    m = np.abs(coeffs.h_at(x, y) - coeffs.h_at(x, yp)) - bp * np.abs(dy)
    _record(res, "h_lipschitz_y", "|h(x,y)-h(x,y')| <= beta'|y-y'|", m, samples)

    notes = [
        "sampling-based falsification: a pass is evidence, not a proof",
        "the Picard admissibility bound enforced everywhere is k < 1/(2*sqrt(2)) "
        "(the weaker k < 1/2 sometimes quoted for the analytic route is not used)",
    ]
    if not coeffs.b_is_zero:
        notes.append("drift b is nonzero: stochastic backend unavailable (requires b = 0)")
    return StructureReport(conditions=res, notes=notes)
