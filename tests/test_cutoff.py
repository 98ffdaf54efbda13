import math
from fractions import Fraction

import numpy as np
import pytest

from whitney import cutoff as co
from whitney import expr
from whitney import geometry as geo
from whitney.errors import OnZ


def point_desc(*coords):
    return geo.descriptor_of(geo.PointCell(tuple(coords)))


# --- transition profile ---------------------------------------------------

def test_profile_q1_is_cubic_hermite():
    prof = co.smooth_transition(1)
    assert prof.rising == (Fraction(0), Fraction(0), Fraction(3), Fraction(-2))
    assert prof.eval_exact(Fraction(1, 2)) == Fraction(1, 2)
    assert prof(-0.5) == 1.0 and prof(1.5) == 0.0


def test_profile_q1_flat_joints():
    prof = co.smooth_transition(1)
    assert prof.derivative(0.0, 1) == 0.0
    assert prof.derivative(1.0, 1) == 0.0


@pytest.mark.parametrize("q", [1, 2, 3])
def test_profile_joint_derivatives_vanish(q):
    """Derivatives through order q vanish at both joints.

    The analytic derivative is first validated against a Richardson FD
    oracle at interior points; the joint limits are then taken with the
    validated analytic path (an FD stencil straddling a C^q joint cannot
    itself resolve 1e-7 for k = q)."""
    from whitney.verify import finite_difference
    prof = co.smooth_transition(q)
    fd_tol = {1: 1e-7, 2: 1e-6, 3: 1e-5}  # k=3 stencils sit near the
    for k in range(1, q + 1):             # double-precision noise floor
        for s0 in (0.21, 0.5, 0.83):
            fd, _ = finite_difference(lambda s: prof(s[0]), (k,), (s0,),
                                      h=1e-3)
            assert abs(fd - prof.derivative(s0, k)) < fd_tol[k] * (1 + abs(fd))
    for joint in (0.0, 1.0):
        for k in range(1, q + 1):
            assert prof.derivative(joint, k) == 0.0
            inside = joint + (1e-10 if joint == 0.0 else -1e-10)
            assert abs(prof.derivative(inside, k)) < 1e-7, (q, joint, k)


def test_profile_monotone_in_unit_range():
    prof = co.smooth_transition(3)
    s = np.linspace(-0.2, 1.2, 500)
    vals = prof(s)
    assert np.all(np.diff(vals) <= 1e-12)
    assert np.all((vals >= 0.0) & (vals <= 1.0))


# --- regularized distance ---------------------------------------------------

def test_regularized_point_exact():
    d = co.regularized_distance(point_desc(0.0, 0.0))
    assert d((3.0, 4.0)) == pytest.approx(5.0)
    assert d.c1 == 1.0


def test_regularized_point_scaling_homogeneous():
    d1 = co.regularized_distance(point_desc(0.0))
    for lam in (0.5, 2.0, 8.0):
        assert d1((lam * 0.7,)) == pytest.approx(lam * d1((0.7,)))


def test_regularized_two_points_softmin():
    desc = geo.descriptor_of(geo.PointCell((-1.0,)), geo.PointCell((1.0,)))
    d = co.regularized_distance(desc)
    val = d((0.0,))
    assert d.c1 * 1.0 <= val <= 1.0
    # comparability sampled on a grid away from the points
    for x in np.linspace(-3, 3, 61):
        if min(abs(x - 1), abs(x + 1)) < 1e-3:
            continue
        true = min(abs(x - 1.0), abs(x + 1.0))
        assert d.c1 * true - 1e-12 <= d((float(x),)) <= true + 1e-12


def test_regularized_segment_net_comparable():
    seg = geo.GraphCell(geo.Interval(0.0, 1.0), (expr.constant_fn(0, 1),),
                        (0, 1))
    d = co.regularized_distance(geo.descriptor_of(seg), box=3.0)
    desc = geo.descriptor_of(seg)
    worst_ratio = 0.0
    for x in [(0.5, 0.4), (-0.3, 0.2), (1.5, -0.7), (0.2, -1.0)]:
        true = geo.set_distance(desc, x).up
        val = d(x)
        assert val <= true + 1e-9
        worst_ratio = max(worst_ratio, true / val)
    assert worst_ratio <= 1.0 / d.c1 + 1e-9
    assert 1.0 / d.c1 <= 2.0   # c2/c1 within the target factor


def test_full_space_distance_zero():
    full = geo.identity_graph_cell(geo.Interval(None, None))
    d = co.regularized_distance(geo.descriptor_of(full))
    assert d((12.3,)) == 0.0


def _square_bottom_z():
    """Z of square's bottom edge: the other three edges (soft-minned nets)
    and the four corners (exact columns)."""
    from conftest import load_corpus_scene
    scene = load_corpus_scene("square").scene
    z = geo.descriptor_of(*(s.cell for s in scene.strata if s.id != "bottom"))
    return z, scene.box


def test_regularized_distance_is_the_flat_soft_minimum():
    z, box = _square_bottom_z()
    d = co.regularized_distance(z, box)
    corners = geo.SetDescriptor(tuple(p for p in z.pieces
                                      if isinstance(p, geo.PointCell)))
    edges = [p for p in z.pieces if isinstance(p, geo.GraphCell)]
    assert len(corners.pieces) == 4 and len(edges) == 3
    nets = [geo.piece_net(e, box, geo.DEFAULT_COARSE) for e in edges]
    g = np.linspace(-0.5, 1.5, 51) + 0.0123
    X = np.stack(np.meshgrid(g, g), -1).reshape(-1, 2)
    cols = np.concatenate(
        [geo.distance_table(corners, box, geo.DEFAULT_COARSE).exact(X)]
        + [np.linalg.norm(X[:, None, :] - net.points, axis=-1)
           for net in nets], axis=1)
    s = d.exponent
    ref = np.sum(cols ** -float(s), axis=1) ** (-1.0 / s)
    val = d(X)
    assert np.all(np.abs(val - ref) <= 1e-14 * ref)
    # below the true distance up to the nets' covering slack
    lo, up = geo.distance_brackets(z, X, box)
    slack = max(float(net.slack.max()) for net in nets)
    assert np.all(d.c1 * lo <= val) and np.all(val <= up + slack)


def test_regularized_distance_vanishes_on_its_columns_without_warnings():
    """Rows on the set (an exact piece or a net point) give exactly 0
    without forming (1/d)^s, which would overflow."""
    import warnings
    z, box = _square_bottom_z()
    d = co.regularized_distance(z, box)
    corners = [p.point for p in z.pieces if isinstance(p, geo.PointCell)]
    X = np.vstack([np.asarray(corners, dtype=float)]
                  + [net.points for net in d.nets])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.all(d(X) == 0.0)


# --- cone membership ---------------------------------------------------------

def test_cone_membership_arithmetic():
    w, z = point_desc(1.0), point_desc(0.0)
    assert co.cone_membership((0.9,), w, z, 0.2) == co.IN      # 0.1 < 0.18
    assert co.cone_membership((0.5,), w, z, 0.2) == co.OUT     # 0.5 >= 0.1
    assert co.cone_membership((1.0,), w, z, 1e-6) == co.IN     # on W
    with pytest.raises(OnZ):
        co.cone_membership((0.0,), w, z, 0.5)


def test_cone_membership_indeterminate_between_brackets():
    # net-backed piece: lower and upper brackets differ, and a ratio
    # threaded between them cannot be certified either way
    par = geo.GraphCell(geo.Interval(0.0, 1.0),
                        (expr.polynomial(1, {(2,): 1}),), (0, 1))
    w = geo.descriptor_of(par)
    z = point_desc(5.0, 5.0)
    x = (0.5, 0.35)
    dw = geo.set_distance(w, x)
    dz = geo.set_distance(z, x)
    assert dw.lo < dw.up
    eta_mid = dw.mid / dz.mid
    assert co.cone_membership(x, w, z, eta_mid) == co.INDETERMINATE


def test_cone_membership_is_a_row_of_the_batch():
    par = geo.GraphCell(geo.Interval(0.0, 1.0),
                        (expr.polynomial(1, {(2,): 1}),), (0, 1))
    w = geo.descriptor_of(par)
    z = geo.descriptor_of(geo.PointCell((0.0, 0.0)), geo.PointCell((1.0, 1.0)))
    rng = np.random.default_rng(3)
    t = rng.uniform(0.0, 1.0, 200)
    X = np.stack([t, t * t + rng.uniform(-0.3, 0.3, 200)], axis=1)
    for eta in (0.05, 0.3):
        batch, _ = co.cone_membership_batch(w, z, eta, X)
        rows = [co.cone_membership(tuple(x), w, z, eta) for x in X]
        assert rows == batch.tolist()
        assert len(set(rows)) > 1


def _segment(a, b, height):
    return geo.GraphCell(geo.Interval(a, b), (expr.constant_fn(height, 1),),
                         (0, 1))


def test_single_constant_graph_w_reads_its_exact_distance():
    w = geo.descriptor_of(_segment(0.0, 1.0, 0.0))
    z = geo.descriptor_of(geo.PointCell((0.0, 0.0)), geo.PointCell((1.0, 0.0)))
    omega = co.build_cutoff(co.CutoffSpec(w, z, 0.5, 2, box=3.0))
    X = np.random.default_rng(5).uniform(-2.0, 3.0, (300, 2))
    lo, up = geo.distance_brackets(w, X, 3.0)
    assert np.array_equal(lo, up)
    assert np.array_equal(omega.d_w(X), up)


def test_w_segment_with_endpoints_off_z_keeps_its_net():
    """The bundled segment-vs-points spec at q=2: the segment's endpoints
    are not in Z, so its exact distance would bend on the normal line x=0
    inside the transition shell (d2 omega/dx2 jumps by about 30 at
    y=0.25 and 0.3); the cutoff falls back to the soft minimum, which keeps
    it continuous."""
    import dataclasses
    from whitney.corpus import bundled_cutoff_specs
    from whitney.verify import finite_difference
    spec = dataclasses.replace(bundled_cutoff_specs()[2], q=2)
    omega = co.build_cutoff(spec)
    assert omega.d_w.nets
    for y in (0.25, 0.3):
        assert 0.0 < omega((0.0, y)) < 1.0
        left, right = (finite_difference(omega, (2, 0), (s, y), 5e-5)[0]
                       for s in (-2e-4, 2e-4))
        assert abs(left - right) < 1.0, (y, left, right)


def test_half_line_w_keeps_its_net():
    """A constant graph over (0, inf) has its clamp end at the box edge,
    which is not in Z, so the cutoff keeps the soft minimum."""
    ray = geo.GraphCell(geo.Interval(0.0, None), (expr.constant_fn(0, 1),),
                        (0, 1))
    spec = co.CutoffSpec(geo.descriptor_of(ray), point_desc(0.0, 0.0), 0.5,
                         2, box=3.0)
    assert co.build_cutoff(spec).d_w.nets


def test_cutoff_of_two_exact_w_points():
    """A W of two points has no soft-minned piece, so there is no on-set
    residual to measure: the plateau holds at both points."""
    w = geo.descriptor_of(geo.PointCell((0.0, 0.0)), geo.PointCell((1.0, 0.0)))
    spec = co.CutoffSpec(w, point_desc(0.5, 1.0), 0.5, 2, box=3.0)
    omega = co.build_cutoff(spec)
    c_ratio = min(omega.d_w.c1, omega.d_z.c1)
    assert omega.rho_prime == pytest.approx(0.9 * c_ratio * omega.rho_int)
    assert omega((0.0, 0.0)) == 1.0 and omega((1.0, 0.0)) == 1.0
    assert omega((0.5, 0.9)) == 0.0


def test_soft_minned_z_segment_keeps_the_cutoff_c2():
    """W is y=0 over (0, 2); Z is the segment y=1 over (0.5, 1) and all four
    endpoints.  An exact Z column for the segment would bend on the normal
    line x=1, inside W's transition shell, and make d2 omega/dx2 jump there
    (by about 1 at y=0.2 and 1.8 at y=0.25); the soft minimum keeps it
    continuous."""
    w = geo.descriptor_of(_segment(0.0, 2.0, 0.0))
    ends = [geo.PointCell(p) for p in ((0.0, 0.0), (2.0, 0.0), (0.5, 1.0),
                                       (1.0, 1.0))]
    z = geo.descriptor_of(_segment(0.5, 1.0, 1.0), *ends)
    omega = co.build_cutoff(co.CutoffSpec(w, z, 0.5, 2))
    from whitney.verify import finite_difference
    for y in (0.2, 0.25):
        left, right = (finite_difference(omega, (2, 0), (1.0 + s, y), 1e-4)[0]
                       for s in (-1e-3, 1e-3))
        assert abs(left - right) < 0.05, (y, left, right)


def test_regularized_distance_rejects_unknown_piece():
    from whitney.errors import UnsupportedDescriptor

    class Odd:
        pass

    with pytest.raises(UnsupportedDescriptor):
        co.regularized_distance(geo.SetDescriptor((Odd(),)))


# --- cutoff construction ------------------------------------------------------

def ball_spec(eta=0.5, q=2):
    return co.CutoffSpec(geo.descriptor_of(geo.Ball((1.0,), 0.1)),
                         point_desc(0.0), eta, q)


def test_cutoff_plateau_and_vanishing():
    omega = co.build_cutoff(ball_spec())
    assert omega((1.0,)) == 1.0          # on W the ratio is 0
    assert omega((1.05,)) == 1.0         # still inside W
    assert omega((0.1,)) == 0.0          # far outside the cone
    vals = omega(np.linspace(0.05, 2.0, 400).reshape(-1, 1))
    assert np.all((vals >= 0.0) & (vals <= 1.0))


def test_cutoff_monotone_where_ratio_monotone():
    omega = co.build_cutoff(ball_spec())
    xs = np.linspace(1.0, 0.15, 300).reshape(-1, 1)  # ratio grows toward Z
    vals = omega(xs)
    assert np.all(np.diff(vals) <= 1e-12)


def test_cutoff_empty_w_is_zero():
    spec = co.CutoffSpec(geo.EMPTY_SET, point_desc(0.0), 0.5, 2)
    omega = co.build_cutoff(spec)
    assert omega((3.0,)) == 0.0
    rep = co.verify_cutoff(omega, spec, n_samples=500, seed=3)
    assert rep.plateau_checked == 0 and rep.passed


def test_cutoff_empty_z_gives_tube():
    # empty Z: d(x, Z) = 1 by convention, so the support is a plain ball
    spec = co.CutoffSpec(point_desc(0.0), geo.EMPTY_SET, 0.5, 2)
    omega = co.build_cutoff(spec)
    assert omega((0.0,)) == 1.0
    assert omega((0.6,)) == 0.0
    assert 0.0 < omega((0.35,)) < 1.0


def test_verify_cutoff_passes_and_nests():
    spec = ball_spec()
    omega = co.build_cutoff(spec)
    rep = co.verify_cutoff(omega, spec, n_samples=4000, seed=7)
    assert rep.passed
    assert rep.plateau_checked > 50 and rep.support_checked > 500
    # nesting: every plateau point is inside the support cone
    assert omega.rho_prime < spec.eta
    rng = np.random.default_rng(0)
    xs = rng.uniform(0.05, 2.0, size=(2000, 1))
    vals = omega(xs)
    for x, v in zip(xs, vals):
        if v == 1.0:
            assert co.cone_membership(tuple(x), spec.w_desc, spec.z_desc,
                                      spec.eta) != co.OUT


def test_verify_cutoff_flags_misscaled_support():
    # cutoff built for a generous ratio, checked against a far smaller one
    omega = co.build_cutoff(ball_spec(eta=0.5))
    tight = ball_spec(eta=0.05)
    rep = co.verify_cutoff(omega, tight, n_samples=4000, seed=11)
    assert rep.support_violations > 0
    assert not rep.passed


def test_scaled_derivative_bound_finite_and_stable():
    spec = ball_spec(q=2)
    omega = co.build_cutoff(spec)
    rep = co.verify_cutoff(omega, spec, n_samples=6000, seed=5)
    for alpha, c in rep.bound_constants.items():
        assert math.isfinite(c)
    for alpha, r in rep.bound_ratios.items():
        assert r < 2.0, (alpha, r)


def test_report_formatting():
    spec = ball_spec(q=1)
    omega = co.build_cutoff(spec)
    rep = co.verify_cutoff(omega, spec, n_samples=1500, seed=2)
    text = co.format_report(rep)
    assert "plateau" in text and "C_hat" in text
    assert text.strip().endswith("PASS")


def test_cutoff_batched_matches_scalar():
    omega = co.build_cutoff(ball_spec())
    xs = np.linspace(0.05, 2.0, 97).reshape(-1, 1)
    batched = omega(xs)
    for x, v in zip(xs, batched):
        assert omega(tuple(x)) == v


def test_driver_cell_cutoffs_meet_the_contract():
    """Cutoffs the extension driver builds for its own cells (including a
    net-regularized curved cell) pass the full plateau/support/bounds
    report."""
    from conftest import load_corpus_scene
    from whitney.extension import extend_field
    sf = load_corpus_scene("parabola")
    f = extend_field(sf.scene)
    term = f.terms[0]
    rep = co.verify_cutoff(term.omega, term.omega.spec, n_samples=4000,
                           seed=21)
    assert rep.passed, co.format_report(rep)
    assert rep.plateau_checked > 0


def test_cutoff_spec_roundtrip_through_json():
    import json
    from whitney.sceneio import cutoff_spec_from_json, cutoff_spec_to_json
    spec = ball_spec(eta=0.4, q=2)
    blob = json.loads(json.dumps(cutoff_spec_to_json(spec)))
    back = cutoff_spec_from_json(blob, 1)
    assert back.eta == spec.eta and back.q == spec.q
    omega = co.build_cutoff(back)
    assert omega((1.0,)) == 1.0 and omega((0.1,)) == 0.0
