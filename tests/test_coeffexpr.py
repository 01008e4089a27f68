import math

import numpy as np
import pytest

from reflectpde.coeffexpr import (
    ArityMismatch,
    BinOp,
    Call,
    CoefficientSet,
    DomainError,
    ExprSyntaxError,
    InadmissibleConstants,
    Neg,
    Num,
    StructureConstants,
    UnboundVariable,
    UnknownIdentifier,
    Var,
    choose_constants,
    eval_expr,
    parse_expr,
    print_expr,
    validate_structure,
)
from reflectpde.geometry import Domain

# ---------------------------------------------------------------------------
# parser and evaluator


def test_basic_eval():
    e = parse_expr("x1^2 + sin(x2)", ("x1", "x2"))
    assert eval_expr(e, {"x1": 1.0, "x2": 0.0}) == pytest.approx(1.0)


def test_unary_minus():
    e = parse_expr("-(y)", ("y",))
    assert eval_expr(e, {"y": 2.0}) == -2.0


def test_power_right_associative():
    assert eval_expr(parse_expr("2^3^2"), {}) == 512.0


def test_unary_binds_below_power():
    e = parse_expr("-x1^2", ("x1",))
    assert eval_expr(e, {"x1": 3.0}) == -9.0


def test_exp_times_var():
    e = parse_expr("exp(0)*x1", ("x1",))
    assert eval_expr(e, {"x1": 3.0}) == 3.0


def test_is_zero_decided_from_the_form():
    names = ("x1", "x2", "y")
    for src in ("0", "0.0", "-0", "0 + -(0)", "0 - 0", "0*x1", "sin(x1)*(0 - 0)"):
        assert parse_expr(src, names).is_zero(), src
    for src in ("x1 - x2", "x1 - x1", "0.1*tanh(y - x1)", "0/x1", "sin(0)", "0^2", "1e-300"):
        assert not parse_expr(src, names).is_zero(), src
    assert CoefficientSet.from_strings(2, f="0", g=["0", "0"], h="0", q="-1").b_is_zero
    drift = CoefficientSet.from_strings(2, f="0", g=["0", "0"], h="0", q="-1", b=["0", "x1*0 + x2"])
    assert not drift.b_is_zero


def test_syntax_error_offset():
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("x1 +", ("x1",))
    assert err.value.offset == 4


def test_unknown_identifier_and_arity():
    with pytest.raises(UnknownIdentifier):
        parse_expr("x1 + nope", ("x1",))
    with pytest.raises(UnknownIdentifier):
        parse_expr("foo(x1)", ("x1",))
    with pytest.raises(ArityMismatch):
        parse_expr("sin(x1, x1)", ("x1",))
    with pytest.raises(ArityMismatch):
        parse_expr("min(x1)", ("x1",))


def test_domain_errors_raised_not_nan():
    with pytest.raises(DomainError):
        eval_expr(parse_expr("sqrt(0 - 1)"), {})
    with pytest.raises(DomainError):
        eval_expr(parse_expr("log(0 - 2)"), {})
    with pytest.raises(DomainError):
        eval_expr(parse_expr("(0 - 2)^0.5"), {})


def test_unbound_variable():
    with pytest.raises(UnboundVariable):
        eval_expr(parse_expr("y", ("y",)), {})


def test_vectorized_eval():
    e = parse_expr("min(x1, 0.5) + max(x2, 0) + abs(x1)", ("x1", "x2"))
    x1 = np.array([-1.0, 1.0])
    x2 = np.array([-2.0, 2.0])
    assert eval_expr(e, {"x1": x1, "x2": x2}) == pytest.approx([0.0, 3.5])


def test_precedence_flat_chain():
    assert eval_expr(parse_expr("5 - 3 - 1"), {}) == 1.0
    assert eval_expr(parse_expr("2 * 3 ^ 2"), {}) == 18.0
    assert eval_expr(parse_expr("6 / 2 / 3"), {}) == 1.0


def _random_expr(rng, names, depth):
    roll = rng.integers(0, 6 if depth > 0 else 2)
    if roll == 0:
        return Num(float(np.round(rng.uniform(0, 9), 3)))
    if roll == 1:
        return Var(names[rng.integers(0, len(names))])
    if roll == 2:
        return Neg(_random_expr(rng, names, depth - 1))
    if roll == 3:
        fn = ["sin", "cos", "exp", "tanh", "abs"][rng.integers(0, 5)]
        return Call(fn, (_random_expr(rng, names, depth - 1),))
    if roll == 4:
        fn = ["min", "max"][rng.integers(0, 2)]
        return Call(
            fn,
            (_random_expr(rng, names, depth - 1), _random_expr(rng, names, depth - 1)),
        )
    op = "+-*/^"[rng.integers(0, 5)]
    return BinOp(op, _random_expr(rng, names, depth - 1), _random_expr(rng, names, depth - 1))


def test_print_parse_roundtrip_property():
    # 10^4 random trees: parse(print(tree)) is structurally identical
    rng = np.random.default_rng(123)
    names = ("x1", "x2", "y", "z1", "z2")
    for _ in range(10_000):
        tree = _random_expr(rng, names, 4)
        from reflectpde.coeffexpr import Expr

        text = print_expr(Expr(tree, frozenset(names)))
        assert parse_expr(text, names).root == tree


# ---------------------------------------------------------------------------
# structure constants


def test_choose_constants_matches_direct_formulas():
    consts = choose_constants(
        StructureConstants(alpha=2, beta=1, K=1, M=4, k=0.1, beta_prime=1)
    )
    # independent oracle: the recipe formulas evaluated directly
    eps1 = (1 - 2 * math.sqrt(2) * 0.1) / 2
    eps2 = (1 - eps1) / 2
    lam = -2 * 2 + 1 / eps1 + (1 - eps1) / 2
    gamma = 2 * 0.1**2 / (eps2 * (1 - eps1 - eps2))
    assert consts.eps1 == pytest.approx(eps1, abs=1e-12)
    assert consts.eps2 == pytest.approx(eps2, abs=1e-12)
    assert consts.lam == pytest.approx(lam, abs=1e-12)
    assert consts.mu == -1.0
    assert consts.gamma == pytest.approx(gamma, abs=1e-9)
    assert consts.eps1 == pytest.approx(0.35858, abs=1e-5)
    assert consts.eps2 == pytest.approx(0.32071, abs=1e-5)


def test_choose_constants_rejects_large_k():
    with pytest.raises(InadmissibleConstants) as err:
        choose_constants(
            StructureConstants(alpha=2, beta=1, K=1, M=4, k=0.4, beta_prime=1)
        )
    assert "1/(2*sqrt(2))" in str(err.value)


def test_choose_constants_k_zero_gives_zero_gamma():
    consts = choose_constants(
        StructureConstants(alpha=2, beta=1, K=1, M=4, k=0.0, beta_prime=1)
    )
    assert consts.gamma == 0.0


def test_choose_constants_invariants_random_admissible():
    rng = np.random.default_rng(5)
    for _ in range(200):
        k = rng.uniform(0, 0.34)
        K = rng.uniform(0.05, 1.5)
        bound = (math.sqrt(2) / 2) * k + K**2 / (1 - 2 * math.sqrt(2) * k)
        alpha = bound + rng.uniform(0.2, 3.0)
        # the midpoint eps1 needs a bit more headroom than the endpoint bound
        try:
            c = choose_constants(
                StructureConstants(
                    alpha=alpha, beta=rng.uniform(0.2, 3), K=K, M=4, k=k, beta_prime=1
                )
            )
        except InadmissibleConstants:
            continue
        assert 0 <= c.gamma < 1
        assert c.lam < 0 and c.mu < 0
        assert 2 * k**2 < c.eps2 * (1 - c.eps1 - c.eps2)
        # balance identity imposed by the recipe
        assert c.lam + 2 * alpha - K**2 / c.eps1 == pytest.approx(
            1 - c.eps1 - c.eps2, abs=1e-12
        )


def test_choose_constants_analytic_variant():
    base = StructureConstants(alpha=6, beta=1, K=0.5, M=0.5, k=0.1, beta_prime=1)
    c = choose_constants(base, variant="analytic", m1=0.0, trace_norm=1.5)
    assert 0 < c.gamma < 1
    assert c.lam < 0 and c.mu < 0
    with pytest.raises(InadmissibleConstants):
        choose_constants(base, variant="analytic", m1=0.0, trace_norm=None)
    with pytest.raises(InadmissibleConstants):
        # alpha too small for the largeness inequality
        choose_constants(
            StructureConstants(alpha=0.4, beta=1, K=0.5, M=0.5, k=0.1, beta_prime=1),
            variant="analytic",
            m1=0.0,
            trace_norm=1.5,
        )


def test_structure_constants_validation():
    with pytest.raises(InadmissibleConstants):
        StructureConstants(alpha=1, beta=1, K=2, M=1, k=0.1, beta_prime=1)  # K^2 >= 2a
    with pytest.raises(InadmissibleConstants):
        StructureConstants(alpha=-1, beta=1, K=0.5, M=1, k=0.1, beta_prime=1)


# ---------------------------------------------------------------------------
# sampling-based condition checking


def _coeffs(f="0 - 2*y", g=("0", "0"), h="0 - y", q="-1"):
    return CoefficientSet.from_strings(2, f=f, g=list(g), h=h, q=q)


def test_validate_structure_passes_monotone_f():
    report = validate_structure(
        Domain.disk(),
        _coeffs(f="-2*y"),
        StructureConstants(alpha=2, beta=1, K=0.5, M=25, k=0.1, beta_prime=1),
        budget=1500,
    )
    byname = {c.name: c for c in report.conditions}
    assert byname["f_monotone_y"].passed


def test_validate_structure_catches_sign_violation():
    report = validate_structure(
        Domain.disk(),
        _coeffs(f="y"),
        StructureConstants(alpha=1, beta=1, K=0.5, M=25, k=0.1, beta_prime=1),
        budget=1500,
    )
    cond = {c.name: c for c in report.conditions}["f_monotone_y"]
    assert not cond.passed
    assert cond.worst_sample is not None


def test_validate_structure_catches_lipschitz_slope():
    # tanh slope 0.3 near 0 exceeds the declared k = 0.1
    report = validate_structure(
        Domain.disk(),
        _coeffs(g=("0.3*tanh(y)", "0")),
        StructureConstants(alpha=2, beta=1, K=0.5, M=25, k=0.1, beta_prime=1),
        budget=2000,
    )
    cond = {c.name: c for c in report.conditions}["g_lipschitz"]
    assert not cond.passed


def test_validate_structure_report_notes():
    report = validate_structure(
        Domain.disk(),
        _coeffs(),
        StructureConstants(alpha=2, beta=1, K=0.5, M=25, k=0.1, beta_prime=1),
        budget=200,
    )
    text = str(report)
    assert "falsification" in text
    assert "1/(2*sqrt(2))" in text
