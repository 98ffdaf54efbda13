from fractions import Fraction

import numpy as np
import pytest

from whitney import expr
from whitney.errors import ArityMismatch, SingularPoint, UnsupportedNode
from whitney.jets import multi_indices, mi_order
from whitney.verify import finite_difference

from conftest import rand_point, rand_polynomial


def test_evaluate_polynomial():
    f = expr.polynomial(2, {(2, 0): 1, (0, 1): 1})
    assert expr.evaluate(f, (2, 1)) == 5


def test_evaluate_abs_kink_errors():
    f = expr.ExprFn(1, expr.abs_(expr.var(0)))
    with pytest.raises(SingularPoint):
        expr.evaluate(f, (0,))
    assert expr.evaluate(f, (-3,)) == 3


def test_evaluate_max_branch():
    # max(x, 2x-1) at 0.7: x wins since x > 2x-1 iff x < 1
    f = expr.ExprFn(1, expr.max_(expr.var(0),
                                 expr.sub(expr.mul(expr.const(2), expr.var(0)),
                                          expr.const(1))))
    assert expr.evaluate(f, (Fraction(7, 10),)) == Fraction(7, 10)


def test_arity_mismatch():
    f = expr.polynomial(2, {(1, 0): 1})
    with pytest.raises(ArityMismatch):
        expr.evaluate(f, (1, 2, 3))


def test_quotient_near_zero_errors():
    f = expr.ExprFn(1, expr.div(expr.const(1), expr.var(0)))
    with pytest.raises(SingularPoint):
        expr.evaluate(f, (1e-12,))
    assert expr.evaluate(f, (Fraction(1, 2),)) == 2


def test_min_tie_errors():
    f = expr.ExprFn(1, expr.min_(expr.var(0), expr.var(0)))
    with pytest.raises(SingularPoint):
        expr.evaluate(f, (1.0,))


def test_piecewise_partition():
    # sign-like: 1 for x > 0, -1 for x < 0
    f = expr.ExprFn(1, expr.piecewise([
        (expr.var(0), expr.const(1)),
        (expr.sub(expr.ZERO, expr.var(0)), expr.const(-1))]))
    assert expr.evaluate(f, (2,)) == 1
    assert expr.evaluate(f, (-2,)) == -1
    with pytest.raises(SingularPoint):
        expr.evaluate(f, (0,))


# --- row evaluation ------------------------------------------------------

def _scalar_rows(f, U):
    """``float(evaluate(f, u))`` per row, NaN and True where it raises."""
    vals, singular = [], []
    for u in U.tolist():
        try:
            vals.append(float(expr.evaluate(f, u)))
            singular.append(False)
        except SingularPoint:
            vals.append(np.nan)
            singular.append(True)
    return np.asarray(vals), np.asarray(singular)


def _assert_rows_match_scalar(f, U):
    got, singular = expr.evaluate_rows(f, U)
    want, want_singular = _scalar_rows(f, U)
    assert singular.tolist() == want_singular.tolist()
    assert got[~singular].tobytes() == want[~singular].tobytes()
    assert np.all(np.isnan(got[singular]))


def test_evaluate_rows_bitwise_on_random_polynomials(rng):
    for _ in range(40):
        arity = int(rng.integers(1, 4))
        f = rand_polynomial(rng, arity, int(rng.integers(1, 5)))
        _assert_rows_match_scalar(f, rng.uniform(-2.0, 2.0, (64, arity)))


def test_evaluate_rows_bitwise_and_singular_on_every_node_kind():
    x, y = expr.var(0), expr.var(1)
    half = expr.const(Fraction(1, 2))
    tree = expr.add(
        expr.piecewise([
            (expr.sub(x, half),
             expr.div(expr.sqrt_(y), expr.abs_(expr.sub(x, expr.ONE)))),
            (expr.sub(half, x),
             expr.mul(expr.max_(expr.min_(x, y),
                                expr.pow_(expr.sub(y, x), 3)), y))]),
        expr.div(x, expr.add(y, expr.const(2))))
    f = expr.ExprFn(2, tree)
    g = np.linspace(-2.0, 2.0, 41)      # hits every singular locus exactly
    U = np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1).reshape(-1, 2)
    _, singular = expr.evaluate_rows(f, U)
    assert 0 < np.count_nonzero(singular) < len(U)
    _assert_rows_match_scalar(f, U)


def test_evaluate_rows_bitwise_on_constant_subtrees():
    """Variable-free abs, min, max, exact sqrt and piecewise subtrees are
    folded, so the rows read the scalar evaluator's exact sums: 1/10 + 2/10
    is 0.3, not 0.1 + 0.2."""
    x, c = expr.var(0), lambda s: expr.const(Fraction(s))
    pairs = [
        (expr.abs_(c("1/10")), expr.abs_(c("-2/10"))),
        (expr.max_(c("1/10"), c(0)), expr.min_(c("2/10"), c(1))),
        (expr.sqrt_(c("1/100")), expr.sqrt_(c("4/100"))),
        (expr.piecewise([(c(1), c("1/10")), (c(-1), x)]), c("2/10")),
        (expr.sqrt_(c(2)), expr.sqrt_(c(3))),
    ]
    U = np.asarray([[0.0], [0.25], [-1.5]])
    for a, b in pairs:
        f = expr.ExprFn(1, expr.add(expr.add(a, b), x))
        _assert_rows_match_scalar(f, U)
        if f.root.args[0].op == "const":
            assert expr.evaluate_rows(f, U)[0][0] == 0.3
    for singular in (expr.abs_(c(0)), expr.max_(c(1), c(1)),
                     expr.piecewise([(c(0), x)])):
        f = expr.ExprFn(1, expr.add(singular, x))
        assert expr.evaluate_rows(f, U)[1].all()
        _assert_rows_match_scalar(f, U)


def test_evaluate_rows_singular_inactive_branch_keeps_its_row():
    x = expr.var(0)
    f = expr.ExprFn(1, expr.piecewise([(x, expr.sqrt_(x)),
                                       (expr.sub(expr.ZERO, x), x)]))
    vals, singular = expr.evaluate_rows(f, [[-1.0], [4.0], [0.0]])
    assert singular.tolist() == [False, False, True]
    assert vals[:2].tolist() == [-1.0, 2.0]


def test_evaluate_rows_arity_mismatch():
    f = expr.polynomial(2, {(1, 0): 1})
    with pytest.raises(ArityMismatch):
        expr.evaluate_rows(f, np.zeros((3, 3)))
    with pytest.raises(ArityMismatch):
        expr.evaluate_rows(f, np.zeros(2))


def test_differentiate_power_rule():
    f = expr.polynomial(1, {(3,): 1})
    d2 = expr.differentiate(f, (2,))
    assert expr.evaluate(d2, (5,)) == 30  # 6x


def test_differentiate_mixed():
    f = expr.polynomial(2, {(1, 1): 1})
    d = expr.differentiate(f, (1, 1))
    assert expr.evaluate(d, (9, -4)) == 1


def test_differentiate_sqrt_against_fd():
    # d^2/dx^2 sqrt(x) = -(1/4) x^(-3/2); at x=4 that is -1/32
    f = expr.ExprFn(1, expr.sqrt_(expr.var(0)))
    d2 = expr.differentiate(f, (2,))
    sym = expr.evaluate(d2, (4.0,))
    assert sym == pytest.approx(-1.0 / 32.0, rel=1e-12)
    fd, _ = finite_difference(lambda x: expr.evaluate(f, x), (2,), (4.0,),
                              h=1e-3)
    assert abs(sym - fd) / abs(fd) < 1e-7


def test_rational_evaluation_stays_exact():
    f = expr.polynomial(2, {(2, 1): Fraction(3, 7), (0, 0): Fraction(1, 3)})
    out = expr.evaluate(f, (Fraction(1, 2), Fraction(2, 3)))
    assert isinstance(out, Fraction)
    assert out == Fraction(3, 7) * Fraction(1, 4) * Fraction(2, 3) + Fraction(1, 3)


def test_derivatives_match_fd_on_random_polynomials(rng):
    """200 random polynomials, every |alpha| <= 3, 10 points each,
    Richardson FD oracle at relative 1e-6."""
    checked = 0
    for _ in range(200):
        arity = int(rng.integers(1, 4))
        f = rand_polynomial(rng, arity, 5)
        fn = lambda x: float(expr.evaluate(f, tuple(x)))
        points = [tuple(float(v) for v in rand_point(rng, arity))
                  for _ in range(10)]
        for alpha in multi_indices(arity, 3):
            if mi_order(alpha) == 0:
                continue
            df = expr.differentiate(f, alpha)
            for x in points:
                sym = float(expr.evaluate(df, x))
                fd, _ = finite_difference(fn, alpha, x, h=1e-2)
                scale = 1.0 + max(abs(sym), abs(fn(x)))
                assert abs(sym - fd) <= 1e-6 * scale, (alpha, x, sym, fd)
                checked += 1
    assert checked > 10_000


def test_partial_derivatives_commute(rng):
    for _ in range(40):
        f = rand_polynomial(rng, 2, 4)
        d_xy = expr.differentiate(expr.differentiate(f, (1, 0)), (0, 1))
        d_yx = expr.differentiate(expr.differentiate(f, (0, 1)), (1, 0))
        for _ in range(5):
            x = tuple(float(v) for v in rand_point(rng, 2))
            assert abs(float(expr.evaluate(d_xy, x))
                       - float(expr.evaluate(d_yx, x))) < 1e-9


def test_evaluate_deterministic():
    f = expr.polynomial(3, {(1, 2, 0): 0.37, (0, 0, 3): -1.2})
    x = (0.1234, -0.777, 2.5)
    first = expr.evaluate(f, x)
    assert all(expr.evaluate(f, x) == first for _ in range(5))


def test_abs_second_derivative_keeps_guards():
    f = expr.ExprFn(1, expr.abs_(expr.var(0)))
    d2 = expr.differentiate(f, (2,))
    assert expr.evaluate(d2, (1.0,)) == 0
    assert expr.evaluate(d2, (-1.0,)) == 0
    with pytest.raises(SingularPoint):
        expr.evaluate(d2, (0.0,))


def test_substitute_composes():
    h = expr.polynomial(1, {(2,): 1})            # y^2
    g = expr.polynomial(2, {(1, 0): 1, (0, 1): 1})  # x1 + x2
    hg = expr.substitute(h, [g])
    assert expr.evaluate(hg, (2, 3)) == 25


def test_substitute_folds_constant_subtrees():
    """Substituting 1/10 and 2/10 into x0 + x1 + x2 folds their sum to the
    exact 3/10, so the rows read 0.3 like the scalar evaluator."""
    f = expr.ExprFn(3, expr.add(expr.add(expr.var(0), expr.var(1)),
                                expr.var(2)))
    g = expr.substitute(f, [expr.constant_fn(Fraction(1, 10)),
                            expr.constant_fn(Fraction(2, 10)),
                            expr.coordinate(0, 1)])
    U = np.asarray([[0.0], [0.25], [-1.5]])
    _assert_rows_match_scalar(g, U)
    assert expr.evaluate_rows(g, U)[0][0] == 0.3


def test_serialization_roundtrip():
    obj = ["add", ["pow", ["var", 0], 3],
           ["piecewise", [["var", 1], ["const", "3/2"]],
            [["neg", ["var", 1]], ["const", 0]]]]
    f = expr.exprfn_from_json(obj, 2)
    assert expr.evaluate(f, (2, 1)) == Fraction(19, 2)


def test_unknown_op_rejected():
    with pytest.raises(UnsupportedNode):
        expr.node_from_json(["sin", ["var", 0]])
    with pytest.raises(UnsupportedNode):
        expr.node_from_json(["const", True])
    with pytest.raises(UnsupportedNode):
        expr.pow_(expr.var(0), -2)


@pytest.mark.parametrize("obj", [["pow", ["var", 0], 2.5],
                                 ["pow", ["var", 0], True],
                                 ["var", True], ["var", 1.0]])
def test_int_payloads_are_never_rounded(obj):
    """A ``var`` index and a ``pow`` exponent are ints: 2.5 is not read as
    2, nor ``true`` as 1."""
    with pytest.raises(UnsupportedNode, match="integer"):
        expr.node_from_json(obj)


def test_derivative_cache_stays_bounded():
    """Differentiating far more distinct trees than the cache holds leaves
    it at its bound, and derivatives stay exact."""
    bound = expr._d.cache_info().maxsize
    for k in range(bound // 2 + 100):
        f = expr.polynomial(2, {(3, 1): k + 1, (0, 2): Fraction(1, k + 2)})
        g = expr.differentiate(f, (1, 1))
        assert expr.evaluate(g, (1, 1)) == 3 * (k + 1)
    info = expr._d.cache_info()
    assert info.currsize <= bound and info.misses > bound
