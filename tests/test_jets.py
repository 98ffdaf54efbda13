from fractions import Fraction

import numpy as np
import pytest

from whitney import expr
from whitney.errors import (BaseMismatch, ConsistencyViolation, ShapeMismatch,
                            UnsupportedNode)
from whitney.extension import _jet_polynomial, check_stratum_consistency
from whitney.geometry import GraphCell, Interval
from whitney.jets import (FieldSpec, jet_compose, jet_from_coeffs, jet_mul,
                          jet_to_monomial, mi_order, multi_indices,
                          taylor_jet)
from whitney.verify import finite_difference

from conftest import (naive_poly_mul, naive_truncate, rand_jet, rand_point,
                      rand_polynomial)


# --- multiplication -----------------------------------------------------

def test_mul_errors():
    a = jet_from_coeffs(1, 1, (0,), {(0,): 1})
    b = jet_from_coeffs(1, 1, (1,), {(0,): 1})
    with pytest.raises(BaseMismatch):
        jet_mul(a, b)
    c = jet_from_coeffs(1, 2, (0,), {(0,): 1})
    with pytest.raises(ShapeMismatch):
        jet_mul(a, c)


def test_mul_square_of_one_plus_x():
    a = jet_from_coeffs(1, 2, (0,), {(0,): 1, (1,): 1})
    sq = jet_mul(a, a)
    assert (sq.coeffs[(0,)], sq.coeffs[(1,)], sq.coeffs[(2,)]) == (1, 2, 2)


def test_mul_truncates():
    a = jet_from_coeffs(1, 1, (0,), {(0,): 1, (1,): 1})
    sq = jet_mul(a, a)
    assert (sq.coeffs[(0,)], sq.coeffs[(1,)]) == (1, 2)


def test_mul_against_bruteforce_oracle(rng):
    for _ in range(60):
        n = int(rng.integers(1, 4))
        p = int(rng.integers(1, 5))
        a = rand_jet(rng, n, p)
        b = rand_jet(rng, n, p, base=a.base)
        got = jet_to_monomial(jet_mul(a, b))
        want = naive_truncate(naive_poly_mul(jet_to_monomial(a),
                                             jet_to_monomial(b)), p)
        assert {k: v for k, v in got.items() if v != 0} == want


# --- evaluation ---------------------------------------------------------

def _polynomial_rows(jet, offsets):
    """The product's jet polynomial of ``jet`` at the offset rows."""
    return _jet_polynomial([(a, float(c)) for a, c in jet.coeffs.items()],
                           np.asarray(offsets, dtype=float))


def test_eval_applies_inverse_factorials():
    j = jet_from_coeffs(1, 2, (3,), {(0,): 9, (1,): 6, (2,): 2})
    assert _polynomial_rows(j, [(1,), (0,)]).tolist() == [16.0, 9.0]


def test_eval_matches_monomial_sum_oracle(rng):
    for _ in range(20):
        j = rand_jet(rng, 2, 3)
        X = rand_point(rng, 2)
        mono = jet_to_monomial(j)
        want = sum(c * X[0] ** a[0] * X[1] ** a[1] for a, c in mono.items())
        got = _polynomial_rows(j, [X])[0]
        assert got == pytest.approx(float(want), rel=1e-12, abs=1e-12)


# --- composition --------------------------------------------------------

def test_compose_identity_law(rng):
    f = rand_jet(rng, 1, 3)
    ident = jet_from_coeffs(1, 3, (f.constant_term,),
                            {(0,): f.constant_term, (1,): 1})
    assert jet_compose(ident, [f]).coeffs == f.coeffs


def test_compose_worked_example():
    f = jet_from_coeffs(1, 2, (0,), {(0,): 2, (1,): 3, (2,): 4})
    h = jet_from_coeffs(1, 2, (2,), {(0,): 4, (1,): 4, (2,): 2})
    g = jet_compose(h, [f])
    assert (g.coeffs[(0,)], g.coeffs[(1,)], g.coeffs[(2,)]) == (4, 12, 34)


def test_compose_base_mismatch():
    f = jet_from_coeffs(1, 1, (0,), {(0,): 2, (1,): 1})
    h = jet_from_coeffs(1, 1, (5,), {(0,): 1})
    with pytest.raises(BaseMismatch):
        jet_compose(h, [f])


def test_compose_chain_rule(rng):
    """Composing Taylor jets equals the Taylor jet of the composition."""
    for _ in range(50):
        n = int(rng.integers(1, 3))
        p = int(rng.integers(1, 4))
        g = rand_polynomial(rng, n, 3)
        h = rand_polynomial(rng, 1, 3)
        u = rand_point(rng, n)
        tg = taylor_jet(g, p, u)
        th = taylor_jet(h, p, (tg.constant_term,))
        got = jet_compose(th, [tg])
        want = taylor_jet(expr.substitute(h, [g]), p, u)
        assert got.coeffs == want.coeffs


def test_compose_associative(rng):
    for _ in range(100):
        p = int(rng.integers(1, 4))
        f1 = rand_polynomial(rng, 1, 2)
        g1 = rand_polynomial(rng, 1, 2)
        h1 = rand_polynomial(rng, 1, 2)
        u = rand_point(rng, 1)
        F = taylor_jet(f1, p, u)
        G = taylor_jet(g1, p, (F.constant_term,))
        H = taylor_jet(h1, p, (G.constant_term,))
        left = jet_compose(jet_compose(H, [G]), [F])
        right = jet_compose(H, [jet_compose(G, [F])])
        assert left.coeffs == right.coeffs


# --- ring axioms --------------------------------------------------------

def test_ring_axioms(rng):
    for _ in range(300):
        n = int(rng.integers(1, 4))
        p = int(rng.integers(1, 5))
        a = rand_jet(rng, n, p)
        b = rand_jet(rng, n, p, base=a.base)
        c = rand_jet(rng, n, p, base=a.base)
        one = jet_from_coeffs(n, p, a.base, {(0,) * n: Fraction(1)})
        assert jet_mul(a, b).coeffs == jet_mul(b, a).coeffs
        assert jet_mul(jet_mul(a, b), c).coeffs == \
            jet_mul(a, jet_mul(b, c)).coeffs
        b_plus_c = jet_from_coeffs(n, p, a.base, {
            k: b.coeffs[k] + c.coeffs[k] for k in b.coeffs})
        ab, ac = jet_mul(a, b), jet_mul(a, c)
        assert jet_mul(a, b_plus_c).coeffs == {
            k: ab.coeffs[k] + ac.coeffs[k] for k in ab.coeffs}
        assert jet_mul(one, a).coeffs == a.coeffs


# --- Taylor jets --------------------------------------------------------

def test_taylor_square():
    f = expr.polynomial(1, {(2,): 1})
    j = taylor_jet(f, 2, (Fraction(3),))
    assert (j.coeffs[(0,)], j.coeffs[(1,)], j.coeffs[(2,)]) == (9, 6, 2)


def test_taylor_constant():
    j = taylor_jet(expr.constant_fn(Fraction(5, 2), 2), 2, (0, 0))
    assert j.constant_term == Fraction(5, 2)
    assert all(v == 0 for a, v in j.coeffs.items() if mi_order(a) > 0)


def test_taylor_matches_fd():
    f = expr.polynomial(2, {(1, 2): 1})           # x1 * x2^2
    j = taylor_jet(f, 3, (1.0, 1.0))
    fn = lambda x: float(expr.evaluate(f, tuple(x)))
    for alpha, coeff in j.coeffs.items():
        if mi_order(alpha) == 0:
            continue
        fd, _ = finite_difference(fn, alpha, (1.0, 1.0), h=1e-2)
        assert abs(float(coeff) - fd) < 1e-7 * (1 + abs(fd))


def test_taylor_functorial(rng):
    for _ in range(50):
        f = rand_polynomial(rng, 2, 2)
        g = rand_polynomial(rng, 2, 2)
        u = rand_point(rng, 2)
        p = 3
        tf, tg = taylor_jet(f, p, u), taylor_jet(g, p, u)
        f_times_g = expr.ExprFn(2, expr.mul(f.root, g.root))
        f_plus_g = expr.ExprFn(2, expr.add(f.root, g.root))
        assert jet_mul(tf, tg).coeffs == taylor_jet(f_times_g, p, u).coeffs
        assert {k: tf.coeffs[k] + tg.coeffs[k] for k in tf.coeffs} == \
            taylor_jet(f_plus_g, p, u).coeffs


# --- fields over strata -------------------------------------------------

FLAT_CELL = GraphCell(Interval(0.0, 1.0), (expr.constant_fn(0, 1),), (0, 1))


def test_field_coefficients_must_be_expressions():
    """A field holds expressions only: a callable coefficient is refused
    with an error naming the multi-index and the stratum."""
    with pytest.raises(UnsupportedNode, match=r"coefficient \(1,\) over "
                                              r"'ray' must be an expression"):
        FieldSpec(1, 1, "ray", 1, {(0,): expr.constant_fn(0, 1),
                                   (1,): lambda U: U[:, 0]})


def test_consistency_planted_defect():
    bad = FieldSpec(2, 1, "bad", 1, {
        (0, 0): expr.coordinate(0, 1),
        (1, 0): expr.constant_fn(7, 1),     # should be d/du u = 1
        (0, 1): expr.constant_fn(1, 1)})
    samples = [(0.1,), (0.5,), (0.9,)]
    with pytest.raises(ConsistencyViolation):
        check_stratum_consistency(bad, FLAT_CELL, samples)


def test_consistency_random_taylor_fields(rng):
    """Fields built from explicit functions satisfy the tangential
    compatibility identity to rounding."""
    for _ in range(10):
        g = rand_polynomial(rng, 2, 3)
        p = 2
        coeffs = {}
        for alpha in multi_indices(2, p):
            dg = expr.differentiate(g, alpha)
            coeffs[alpha] = expr.substitute(
                dg, [expr.coordinate(0, 1), expr.constant_fn(0, 1)])
        fld = FieldSpec(2, p, "t", 1, coeffs)
        samples = [(float(k) / 51,) for k in range(1, 51)]
        worst = check_stratum_consistency(fld, FLAT_CELL, samples)
        assert worst < 1e-9

