import math
from fractions import Fraction

import numpy as np
import pytest

from whitney import expr, geometry
from whitney.errors import DegenerateScales
from whitney.extension import extend_field
from whitney.expr import evaluate_rows_or_raise
from whitney.jets import jet_from_coeffs, multi_indices, taylor_jet
from whitney.verify import (check_extension, finite_difference, radial_pairs,
                            rate_fit, sampled_derivatives, straddling_pairs,
                            whitney_residual)

from conftest import load_corpus_scene, rand_point, rand_polynomial


# --- finite differences ------------------------------------------------------

def test_fd_second_derivative_of_square():
    f = lambda x: x[0] ** 2
    val, err = finite_difference(f, (2,), (0.37,), h=1e-2)
    assert val == pytest.approx(2.0, abs=1e-8)


def test_fd_cubic_at_origin():
    f = lambda x: x[0] ** 3
    val, _ = finite_difference(f, (1,), (0.0,), h=1e-2)
    assert abs(val) < 1e-9


def test_fd_matches_symbolic_on_random_polynomials(rng):
    # noise floor of an order-k central stencil at h=1e-2 is ~1e-16/h^k
    tol_by_order = {1: 1e-7, 2: 1e-7, 3: 1e-6, 4: 1e-5}
    for _ in range(100):
        arity = int(rng.integers(1, 3))
        f = rand_polynomial(rng, arity, 4)
        alpha = tuple(int(a) for a in rng.integers(0, 3, arity))
        if sum(alpha) == 0 or sum(alpha) > 4:
            continue
        x = tuple(float(v) for v in rand_point(rng, arity))
        fd, _ = finite_difference(lambda t: float(expr.evaluate(f, tuple(t))),
                                  alpha, x, h=1e-2)
        sym = float(expr.evaluate(expr.differentiate(f, alpha), x))
        scale = 1 + max(abs(sym),
                        abs(float(expr.evaluate(f, x))))
        assert abs(fd - sym) < tol_by_order[sum(alpha)] * scale


def test_fd_error_estimate_converges():
    f = lambda x: math.sin(1.3 * x[0] + 0.2) if False else \
        x[0] ** 5 - 2 * x[0] ** 3 + x[0]
    _, e1 = finite_difference(f, (1,), (0.7,), h=2e-2)
    _, e2 = finite_difference(f, (1,), (0.7,), h=1e-2)
    assert e1 / max(e2, 1e-300) >= 3.0


def test_finite_difference_is_a_row_of_the_batched_kernel(rng):
    f = rand_polynomial(rng, 2, 4)
    point = lambda x: float(expr.evaluate(f, tuple(x)))
    rows = lambda X: np.asarray([point(x) for x in X])
    X = rng.uniform(-1.0, 1.0, (6, 2))
    H = np.geomspace(1e-3, 3e-2, 6)
    for alpha in ((0, 0), (1, 0), (0, 2), (1, 1), (2, 1)):
        [(vals, errs)] = sampled_derivatives(rows, [(X, alpha, H)])
        for x, h, v, e in zip(X, H, vals, errs):
            assert finite_difference(point, alpha, tuple(x), h) == (v, e)


def test_sampled_derivatives_match_single_requests(rng):
    """Requests of several row counts and orders 0-3 (mixed partials too)
    share one call of ``fn``, one batch per width here, and equal their
    own calls."""
    calls = []

    def fn(X):
        calls.append(len(X))
        return np.cos(X[:, 0]) * np.exp(X[:, -1] / 2) + X.sum(axis=1) ** 3

    for alphas in (((0,), (1,), (3,)), ((0, 0), (1, 1), (0, 2), (2, 1)),
                   ((1, 0, 1), (0, 3, 0), (1, 1, 1))):
        requests = []
        for alpha in alphas:
            rows = int(rng.integers(1, 9))
            requests.append((rng.uniform(-1.0, 1.0, (rows, len(alpha))),
                             alpha, rng.uniform(1e-3, 3e-2, rows)))
        calls.clear()
        batched = sampled_derivatives(fn, requests)
        assert len(calls) == 1
        for (X, alpha, h), (vals, errs) in zip(requests, batched):
            [(want_vals, want_errs)] = sampled_derivatives(fn,
                                                           [(X, alpha, h)])
            assert vals.tobytes() == want_vals.tobytes()
            assert errs.tobytes() == want_errs.tobytes()


# --- compatibility residuals ---------------------------------------------------

def _taylor_jets_at(g: expr.ExprFn, p: int):
    return lambda a: taylor_jet(g, p, tuple(a))


def test_residual_zero_for_low_degree_polynomial(rng):
    """Jets of a degree <= p polynomial reproduce each other exactly."""
    for _ in range(10):
        p = int(rng.integers(1, 4))
        g = rand_polynomial(rng, 1, p)
        jets_at = _taylor_jets_at(g, p)
        pairs = [(rand_point(rng, 1), rand_point(rng, 1)) for _ in range(6)]
        for beta in [(0,), (1,)]:
            if sum(beta) > p:
                continue
            for r in whitney_residual(jets_at, (0,), beta, pairs):
                assert r.residual == 0


def test_residual_of_x_squared_is_separation_squared():
    # field of x^(p+1) with p = 1: residual collapses to (a - b)^2
    g = expr.polynomial(1, {(2,): 1})
    jets_at = _taylor_jets_at(g, 1)
    scales = [Fraction(1, 2 ** j) for j in range(1, 10)]
    pairs = radial_pairs(Fraction(0), scales)
    samples = whitney_residual(jets_at, (0,), (0,), pairs)
    for r, s in zip(samples, scales):
        a, b = r.a[0], r.b[0]
        assert r.residual == (a - b) ** 2
    fit = rate_fit([(r.separation, r.residual) for r in samples], 1)
    assert fit.passed and fit.slope == pytest.approx(2.0, abs=1e-9)


def _abs_field_jets(a):
    x = a[0]
    sign = 1 if x > 0 else -1
    return jet_from_coeffs(1, 1, (x,), {(0,): abs(x), (1,): sign})


def test_residual_flags_sign_field():
    scales = [2.0 ** -j for j in range(1, 10)]
    pairs = straddling_pairs(0.0, scales)
    samples = whitney_residual(_abs_field_jets, (0,), (1,), pairs)
    assert all(abs(float(r.residual)) == 2 for r in samples)
    fit = rate_fit([(r.separation, r.residual) for r in samples], 0)
    assert not fit.passed


# --- rate fitting ----------------------------------------------------------------

def _geom_samples(fn, lo=1e-4, hi=1e-1, k=10):
    scales = np.geomspace(hi, lo, k)
    return [(float(s), float(fn(s))) for s in scales]


def test_rate_fit_passes_quadratic_over_linear():
    fit = rate_fit(_geom_samples(lambda s: s * s), 1)
    assert fit.passed and fit.slope == pytest.approx(2.0, abs=1e-6)


def test_rate_fit_fails_exact_rate():
    fit = rate_fit(_geom_samples(lambda s: s), 1)
    assert not fit.passed


def test_rate_fit_fails_log_factor():
    fit = rate_fit(_geom_samples(lambda s: s * abs(math.log(s))), 1)
    assert not fit.passed


def test_rate_fit_scale_invariant_verdict():
    base = _geom_samples(lambda s: s ** 1.6)
    fit1 = rate_fit(base, 1)
    fit2 = rate_fit([(s, 773.0 * v) for s, v in base], 1)
    assert fit1.passed == fit2.passed
    assert fit1.slope == pytest.approx(fit2.slope, abs=1e-9)


def test_rate_fit_identically_zero_passes():
    samples = [(10.0 ** -k, 0.0) for k in range(1, 8)]
    fit = rate_fit(samples, 2)
    assert fit.passed and fit.slope == math.inf


@pytest.mark.parametrize("seed", range(24))
def test_rate_fit_slope_matches_polyfit(seed):
    """The closed-form slope is ``np.polyfit``'s over the nonzero points, on
    seeded geometric scales in shuffled order, some values 0 or negative."""
    rng = np.random.default_rng(seed)
    ratio = rng.uniform(0.3, 0.8)
    k = max(6, math.ceil(math.log(99.0) / -math.log(ratio)) + 1) + int(
        rng.integers(0, 8))
    scales = rng.uniform(1e-3, 1.0) * ratio ** np.arange(k)
    values = (rng.uniform(0.1, 1e3) * scales ** rng.uniform(0.5, 4.0)
              * np.exp(rng.normal(0.0, 0.3, k))
              * rng.choice([-1.0, 1.0], k))
    values[rng.permutation(k)[:int(rng.integers(0, k // 2))]] = 0.0
    order = rng.permutation(k)
    fit = rate_fit(list(zip(scales[order].tolist(), values[order].tolist())),
                   1.0)
    nonzero = values != 0
    want = np.polyfit(np.log10(scales[nonzero]),
                      np.log10(np.abs(values[nonzero])), 1)[0]
    assert abs(fit.slope - want) <= 1e-12 * abs(want)


def test_rate_fit_without_two_nonzero_scales_has_no_slope():
    """One nonzero point, or nonzero points at one scale only, fit no
    line: the slope is ``inf``."""
    scales = [10.0 ** -k for k in range(1, 8)]
    one = [(s, 1.0 if i == 0 else 0.0) for i, s in enumerate(scales)]
    assert rate_fit(one, 1).slope == math.inf
    tied = one + [(scales[0], 2.0)]
    assert rate_fit(tied, 1).slope == math.inf


def test_rate_fit_degenerate_scales():
    with pytest.raises(DegenerateScales):
        rate_fit([(0.1, 1), (0.09, 1), (0.08, 1), (0.07, 1), (0.06, 1),
                  (0.05, 1)], 1)
    with pytest.raises(DegenerateScales):
        rate_fit([(0.1, 1)] * 3, 1)


# --- extension agreement -----------------------------------------------------------

def test_check_extension_passes_bundled_scene():
    sf = load_corpus_scene("halfline")
    f = extend_field(sf.scene)
    rep = check_extension(f, sf.scene, tol=1e-4, samples_per_stratum=60)
    assert rep.passed


def test_check_extension_planted_defect_fails():
    sf = load_corpus_scene("halfline")
    f = extend_field(sf.scene)
    # check the correct extension against a lying field
    bad = load_corpus_scene("halfline").scene
    wrong = expr.polynomial(1, {(2,): 2})       # 2x^2 instead of 3x^2
    from whitney.jets import FieldSpec
    bad_fields = dict(bad.fields)
    bad_fields["ray"] = FieldSpec(1, 1, "ray", 1, {
        (0,): bad.fields["ray"].coeffs[(0,)], (1,): wrong})
    from whitney.extension import Scene
    bad_scene = Scene(bad.n, bad.p, bad.q, bad.strata, bad_fields,
                      bad.flat_on, bad.box)
    rep = check_extension(f, bad_scene, tol=1e-4, samples_per_stratum=40)
    assert not rep.passed


def test_check_extension_evaluates_f_once():
    """The agreement check evaluates the extension once, and each entry
    equals a stencil call of its own on the same samples and steps."""
    scene = load_corpus_scene("square").scene
    f = extend_field(scene)
    calls = []

    def counted(X):
        calls.append(len(X))
        return f(X)

    rep = check_extension(counted, scene, samples_per_stratum=30, seed=4)
    assert len(calls) == 1
    rng = np.random.default_rng(4)
    want = []
    for stratum in scene.strata:
        cell = stratum.cell
        U = np.asarray(geometry.stratum_samples(cell, 30, scene.box, rng=rng))
        X = cell.embed_rows(U)
        U = U if U.shape[1] else np.zeros((len(U), 1))
        lo, up = geometry.distance_brackets(
            scene.descriptor_for(stratum.boundary_ids), X, scene.box)
        H = np.clip(np.where(lo > 0.0, lo, up) / 10.0, 1e-7, 1e-3)
        for alpha in multi_indices(scene.n, scene.p):
            [(got, _)] = sampled_derivatives(
                f, [(X, cell.to_ambient(alpha), H)])
            expect = evaluate_rows_or_raise(
                scene.fields[stratum.id].coeffs[alpha], U)
            want.append((stratum.id, alpha, float(np.max(
                np.abs(got - expect) / (1.0 + np.abs(expect))))))
    assert [(e.stratum_id, e.alpha, e.max_rel_dev)
            for e in rep.entries] == want


def test_check_extension_stable_under_reseeding():
    sf = load_corpus_scene("points")
    f = extend_field(sf.scene)
    r1 = check_extension(f, sf.scene, tol=1e-4, seed=1)
    r2 = check_extension(f, sf.scene, tol=1e-4, seed=99)
    assert r1.passed == r2.passed
