import math
from fractions import Fraction

import numpy as np
import pytest

from whitney import cutoff as co
from whitney import expr
from whitney import geometry as geo

from whitney.extension import extend_field

from conftest import load_corpus_scene, one_row


def point_desc(*coords):
    return geo.descriptor_of(geo.PointCell(tuple(coords)))


# --- transition profile ---------------------------------------------------

def ramp_derivative(prof, k):
    """Exact coefficients (low -> high) of the k-th derivative of the ramp;
    the profile is ``1 - ramp`` between its joints."""
    coeffs = list(prof.rising)
    for _ in range(k):
        coeffs = [c * (i + 1) for i, c in enumerate(coeffs[1:])]
    return coeffs


def horner(coeffs, s):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * s + c
    return acc


def test_profile_q1_is_cubic_hermite():
    prof = co.smooth_transition(1)
    assert prof.rising == (Fraction(0), Fraction(0), Fraction(3), Fraction(-2))
    assert 1 - horner(prof.rising, Fraction(1, 2)) == Fraction(1, 2)
    assert prof(-0.5) == 1.0 and prof(1.5) == 0.0


def test_profile_q1_flat_joints():
    prof = co.smooth_transition(1)
    d1 = ramp_derivative(prof, 1)
    assert horner(d1, Fraction(0)) == horner(d1, Fraction(1)) == 0


@pytest.mark.parametrize("q", [1, 2, 3])
def test_profile_joint_derivatives_vanish(q):
    """Derivatives through order q vanish at both joints, exactly: the
    derivative polynomials come from the ramp's Fraction coefficients.
    Inside the ramp they match a Richardson FD oracle on the float
    profile (an FD stencil straddling a C^q joint cannot itself resolve
    the joint for k = q)."""
    from whitney.verify import finite_difference
    prof = co.smooth_transition(q)
    fd_tol = {1: 1e-7, 2: 1e-6, 3: 1e-5}  # k=3 stencils sit near the
    for k in range(1, q + 1):             # double-precision noise floor
        dk = ramp_derivative(prof, k)
        assert horner(dk, Fraction(0)) == horner(dk, Fraction(1)) == 0
        for s0 in (0.21, 0.5, 0.83):
            fd, _ = finite_difference(lambda s: prof(s[0]), (k,), (s0,),
                                      h=1e-3)
            exact = -float(horner(dk, Fraction(s0)))
            assert abs(fd - exact) < fd_tol[k] * (1 + abs(fd))


def test_profile_monotone_in_unit_range():
    prof = co.smooth_transition(3)
    s = np.linspace(-0.2, 1.2, 500)
    vals = prof(s)
    assert np.all(np.diff(vals) <= 1e-12)
    assert np.all((vals >= 0.0) & (vals <= 1.0))


# --- regularized distance ---------------------------------------------------

def test_regularized_point_exact():
    d = co.regularized_distance(point_desc(0.0, 0.0))
    assert d._eval(np.asarray([[3.0, 4.0]]))[0] == pytest.approx(5.0)
    assert d.c1 == 1.0


def test_regularized_point_scaling_homogeneous():
    d1 = co.regularized_distance(point_desc(0.0))
    for lam in (0.5, 2.0, 8.0):
        near, far = d1._eval(np.asarray([[0.7], [lam * 0.7]]))
        assert far == pytest.approx(lam * near)


def test_regularized_two_points_softmin():
    desc = geo.descriptor_of(geo.PointCell((-1.0,)), geo.PointCell((1.0,)))
    d = co.regularized_distance(desc)
    (val,) = d._eval(np.zeros((1, 1)))
    assert d.c1 * 1.0 <= val <= 1.0
    # comparability sampled on a grid away from the points
    x = np.linspace(-3, 3, 61)
    x = x[np.minimum(np.abs(x - 1), np.abs(x + 1)) >= 1e-3]
    true = np.minimum(np.abs(x - 1.0), np.abs(x + 1.0))
    val = d._eval(x[:, None])
    assert np.all(d.c1 * true - 1e-12 <= val) and np.all(val <= true + 1e-12)


def test_regularized_segment_net_comparable():
    seg = geo.GraphCell(geo.Interval(0.0, 1.0), (expr.constant_fn(0, 1),),
                        (0, 1))
    d = co.regularized_distance(geo.descriptor_of(seg), box=3.0)
    desc = geo.descriptor_of(seg)
    worst_ratio = 0.0
    X = [(0.5, 0.4), (-0.3, 0.2), (1.5, -0.7), (0.2, -1.0)]
    for val, true in zip(d._eval(np.asarray(X)),
                         geo.distance_brackets(desc, X)[1]):
        assert val <= true + 1e-9
        worst_ratio = max(worst_ratio, true / val)
    assert worst_ratio <= 1.0 / d.c1 + 1e-9
    assert 1.0 / d.c1 <= 2.0   # c2/c1 within the target factor


def test_full_space_distance_zero():
    full = geo.identity_graph_cell(geo.Interval(None, None))
    d = co.regularized_distance(geo.descriptor_of(full))
    assert d._eval(np.asarray([[12.3]]))[0] == 0.0


def _segment(a, b, height):
    return geo.GraphCell(geo.Interval(a, b), (expr.constant_fn(height, 1),),
                         (0, 1))


def _square_bottom_z():
    """Z of square's bottom edge: the other three edges (segment columns)
    and the four corners (exact columns)."""
    from conftest import load_corpus_scene
    scene = load_corpus_scene("square").scene
    z = geo.descriptor_of(*(s.cell for s in scene.strata if s.id != "bottom"))
    return z, scene.box


def _segment_column_by_quadrature(X, a, b, j=co._SEG_J):
    """``(I / 2W_j)^(-1/(2j))`` off the segment by brute force:
    Gauss-Legendre on pieces of the segment split at the foot point and at
    dyadic offsets ``r 2^k`` from it, so that the integrand varies by a
    bounded factor on each piece, in units of the true distance ``dist``
    so that it does not overflow."""
    nodes, weights = np.polynomial.legendre.leggauss(40)
    theta = np.pi / 4 * (nodes + 1.0)
    wallis = np.pi / 4 * np.sum(weights * np.cos(theta) ** (2 * j - 1))
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    length = float(np.linalg.norm(b - a))
    axis = (b - a) / length
    out = []
    for x in np.atleast_2d(X):
        t = float((x - a) @ axis)
        r = float(np.linalg.norm(x - a - t * axis))
        # offsets from the foot point, where the integrand peaks
        first, last = -t, length - t
        foot = min(max(0.0, first), last)
        dist = math.hypot(r, foot)
        r, first, last, foot = r / dist, first / dist, last / dist, foot / dist
        cuts = {first, last, foot}
        step = max(r, 1e-12)
        while step < 2 * (last - first):
            cuts.update(c for c in (foot - step, foot + step)
                        if first < c < last)
            step *= 2.0
        cuts = sorted(cuts)
        total = 0.0
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            v = lo + (hi - lo) / 2 * (nodes + 1.0)
            total += (hi - lo) / 2 * np.sum(
                weights * (r * r + v * v) ** -(j + 0.5))
        out.append(dist * (total / (2 * wallis)) ** (-1.0 / (2 * j)))
    return np.asarray(out)


def test_segment_column_matches_quadrature():
    """The closed forms against brute-force quadrature, over the segment,
    beyond its ends, close to its line and on its axis."""
    rng = np.random.default_rng(11)
    X = np.concatenate([rng.uniform(-2.0, 3.0, (200, 2)),
                        [[x, r] for x in (-1.5, -1e-3, 0.3, 1.0 + 1e-6, 2.5)
                         for r in (0.0, 1e-12, 1e-9, 1e-4, 0.05, 1.0)]])
    X = X[~((X[:, 1] == 0.0) & (X[:, 0] >= 0.0) & (X[:, 0] <= 1.0))]
    got = co._segment_potential_distance(np.abs(X[:, 1]), X[:, 0],
                                         1.0 - X[:, 0])
    ref = _segment_column_by_quadrature(X, (0.0, 0.0), (1.0, 0.0))
    assert np.all(np.abs(got - ref) <= 1e-13 * ref)


def test_regularized_distance_is_the_flat_soft_minimum():
    z, box = _square_bottom_z()
    d = co.regularized_distance(z, box)
    corners = geo.SetDescriptor(tuple(p for p in z.pieces
                                      if isinstance(p, geo.PointCell)))
    edges = [p for p in z.pieces if isinstance(p, geo.GraphCell)]
    assert len(corners.pieces) == 4 and len(edges) == 3
    assert not d.nets and len(d.segments.length) == 3
    g = np.linspace(-0.5, 1.5, 51) + 0.0123
    X = np.stack(np.meshgrid(g, g), -1).reshape(-1, 2)
    cols = np.concatenate(
        [geo.distance_table(corners, box).exact(X)]
        + [_segment_column_by_quadrature(X, *geo.closed_form_box(e, box)[:2])
           [:, None] / kappa for e, kappa in zip(edges, d.segments.kappa)],
        axis=1)
    s = d.exponent
    ref = np.sum(cols ** -float(s), axis=1) ** (-1.0 / s)
    val = d._eval(X)
    assert np.all(np.abs(val - ref) <= 1e-12 * ref)
    lo, up = geo.distance_brackets(z, X, box)
    assert np.all(d.c1 * lo <= val * (1 + 1e-12)) and np.all(val <= up)


def test_segment_columns_are_comparable_over_the_scene_box():
    """``c1 d <= d~ <= d`` on a grid over the whole scene box, for a lone
    segment, a half-line clamped at the box edge and square's bottom Z."""
    z, box = _square_bottom_z()
    ray = geo.GraphCell(geo.Interval(0.0, None), (expr.constant_fn(1, 1),),
                        (1, 0))
    g = np.linspace(-box, box, 121)
    X = np.stack(np.meshgrid(g, g), -1).reshape(-1, 2)
    for desc in (geo.descriptor_of(_segment(0.0, 1.0, 0.0)),
                 geo.descriptor_of(ray), z):
        d = co.regularized_distance(desc, box)
        lo, up = geo.distance_brackets(desc, X, box)
        assert np.array_equal(lo, up)
        val = d._eval(X)
        assert np.all(d.c1 * up <= val * (1 + 1e-12)) and np.all(val <= up)
    lone = co.regularized_distance(
        geo.descriptor_of(_segment(0.0, 1.0, 0.0)), box)
    assert 0.9 < lone.c1 < 0.92


def test_regularized_distance_vanishes_on_its_columns_without_warnings():
    """Rows on the set (an exact piece or a segment) give exactly 0, and
    rows next to a segment or beyond its end close to its axis a positive
    value, without forming (1/d)^s or r^-2j, which would overflow."""
    import warnings
    z, box = _square_bottom_z()
    d = co.regularized_distance(z, box)
    t = np.linspace(0.0, 1.0, 101)
    on = np.concatenate([np.stack(p, axis=1) for p in
                         ((t, 0 * t + 1), (0 * t, t), (0 * t + 1, t))])
    near = np.asarray([[0.5, 1.0 + s * r] for s in (-1, 1)
                       for r in (1e-12, 1e-9, 1e-6)]
                      + [[1.0 + tau, 1.0 + r] for tau in (1e-12, 1e-6, 0.5)
                         for r in (0.0, 1e-12, 1e-9)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.all(d._eval(on) == 0.0)
        val = d._eval(near)
    lo, up = geo.distance_brackets(z, near, box)
    assert np.all(val > 0.0) and np.all(val <= up)
    assert np.all(d.c1 * up <= val * (1 + 1e-12))


# --- blocked distance kernel -------------------------------------------------

def _parabola_rows():
    """Parabola's scene, its arc descriptor and 2,601 grid rows over the
    scene box."""
    from conftest import load_corpus_scene
    scene = load_corpus_scene("parabola").scene
    arc = scene.descriptor_for(["arc"])
    g = np.linspace(-scene.box, scene.box, 51)
    X = np.stack(np.meshgrid(g, g, indexing="ij"), -1).reshape(-1, 2)
    return scene, arc, X


def _whole_matrix_distances(X, points):
    return np.sqrt(np.add.reduce((X[:, None, :] - points) ** 2, -1))


def _whole_matrix_soft_min(d, X):
    """The power mean of ``d`` over one whole matrix of columns, in the
    column order of its row blocks: exact, segment, then net columns."""
    cols = [] if d.table is None else [d.table.exact(X)]
    if d.segments is not None:
        cols.append(d.segments.columns(X))
    cols += [_whole_matrix_distances(X, net.points) for net in d.nets]
    cols = np.concatenate(cols, axis=1)
    m = cols.min(axis=1)
    r = np.where(m > 0.0, m, np.inf)[:, None] / cols
    return m * (r ** d.exponent).sum(axis=1) ** (-1.0 / d.exponent)


@pytest.mark.parametrize("budget", [1, geo._BLOCK_ENTRIES, 10 ** 9])
def test_blocked_kernels_match_the_whole_matrix_bit_for_bit(monkeypatch,
                                                            budget):
    """Row blocks of one row, of the default budget and of every row give
    the whole-matrix scan and soft minimum bit for bit: on parabola's arc
    net, and on points, a segment and the arc net together."""
    scene, arc, X = _parabola_rows()
    net = geo.piece_net(arc.pieces[0], scene.box)
    X = np.concatenate([X, net.points[::140], [[1.0, 1.0]]])
    mixed = geo.descriptor_of(*(s.cell for s in scene.strata),
                              _segment(-1.0, 0.5, -0.25))
    arc_d, mixed_d = (co.regularized_distance(desc, scene.box)
                      for desc in (arc, mixed))
    assert arc_d.table is None and arc_d.segments is None
    assert (len(mixed_d.table.lows) == 2 and len(mixed_d.segments.length) == 1
            and len(mixed_d.nets) == 1)
    d = _whole_matrix_distances(X, net.points)
    ref_scan = (np.maximum(0.0, (d - net.slack).min(axis=1)), d.min(axis=1),
                d.argmin(axis=1))
    ref_arc, ref_mixed = (_whole_matrix_soft_min(rd, X)
                          for rd in (arc_d, mixed_d))
    monkeypatch.setattr(geo, "_BLOCK_ENTRIES", budget)
    for got, ref in zip(net.scan(X), ref_scan):
        assert np.array_equal(got, ref)
    assert np.array_equal(arc_d._eval(X), ref_arc)
    assert np.array_equal(mixed_d._eval(X), ref_mixed)
    # on the set: six net points, (1, 1) and the grid's origin
    assert np.count_nonzero(ref_mixed == 0.0) == 8


def test_distance_kernels_work_in_row_blocks_under_one_mebibyte():
    """The traced peak of parabola's soft minimum and distance brackets on
    2,601 grid rows stays under 1 MiB."""
    import tracemalloc
    scene, arc, X = _parabola_rows()
    d = co.regularized_distance(arc, scene.box)
    for kernel in (lambda: d._eval(X),
                   lambda: geo.distance_brackets(arc, X, scene.box)):
        kernel()                  # the cached net and table are built once
        tracemalloc.start()
        try:
            kernel()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20


# --- cone membership ---------------------------------------------------------

def _profile_rows(omega):
    """Wrap ``omega.transition`` so the list returned collects the rows
    the cutoff sends through its profile."""
    seen, transition = [], omega.transition
    omega.transition = lambda X: seen.extend(X.tolist()) or transition(X)
    return seen


def test_cone_membership_arithmetic():
    """The cutoff's certificates, on points, where every bracket is exact
    up to the soft minimum's floor: a row far outside the cone and a row on
    Z read exactly 0, a row on W exactly 1, and only the row inside the
    transition band goes through the profile."""
    w, z = point_desc(1.0), point_desc(0.0)
    omega = co.build_cutoff(co.CutoffSpec(w, z, 0.2, 2, box=4.0))
    assert (omega.eta_int, omega.rho_int) == (0.2, 0.1)
    X = np.asarray([[0.9], [0.5], [1.0], [0.0]])
    lo_w, up_w = omega.d_w.bracket(X)
    lo_z, up_z = omega.d_z.bracket(X)
    assert up_w.tolist() == [1.0 - 0.9, 0.5, 0.0, 1.0]
    assert lo_z[3] == up_z[3] == 0.0 and np.all(lo_w <= up_w)
    seen = _profile_rows(omega)
    vals = omega(X)
    assert seen == [[0.9]]                         # 0.1 < 0.111 < 0.2
    assert 0.0 < vals[0] < 1.0 and vals[1:].tolist() == [0.0, 1.0, 0.0]


def test_cone_membership_indeterminate_between_brackets():
    # net-backed piece: lower and upper brackets differ, and a ratio
    # threaded between them cannot be certified either way, so the row
    # goes through the profile
    par = geo.GraphCell(geo.Interval(0.0, 1.0),
                        (expr.polynomial(1, {(2,): 1}),), (0, 1))
    w, z = geo.descriptor_of(par), point_desc(5.0, 5.0)
    x = np.asarray([[0.5, 0.35]])
    d_w, d_z = co.regularized_distance(w), co.regularized_distance(z)
    (lo_w,), (up_w,) = d_w.bracket(x)
    (lo_z,), (up_z,) = d_z.bracket(x)
    assert lo_w < d_w._eval(x)[0] <= up_w and lo_z <= d_z._eval(x)[0] <= up_z
    c = min(d_w.c1, d_z.c1)
    omega = co.build_cutoff(co.CutoffSpec(w, z, (lo_w + up_w) / 2 / up_z / c,
                                          2))
    assert lo_w < omega.eta_int * up_z and omega.rho_int * lo_z < up_w
    seen = _profile_rows(omega)
    omega(x)
    assert seen == x.tolist()


def test_single_constant_graph_w_is_one_segment_column():
    """A lone segment W is one potential column, returned bit for bit: 0 on
    the segment, between c1 d and d off it."""
    w = geo.descriptor_of(_segment(0.0, 1.0, 0.0))
    z = geo.descriptor_of(geo.PointCell((0.0, 0.0)), geo.PointCell((1.0, 0.0)))
    omega = co.build_cutoff(co.CutoffSpec(w, z, 0.5, 2, box=3.0))
    d_w = omega.d_w
    assert d_w.table is None and not d_w.nets and len(d_w.segments.length) == 1
    X = np.random.default_rng(5).uniform(-2.0, 3.0, (300, 2))
    val = d_w._eval(X)
    assert np.array_equal(val, d_w.segments.columns(X)[:, 0])
    lo, up = geo.distance_brackets(w, X, 3.0)
    assert np.array_equal(lo, up)
    assert np.all(d_w.c1 * up <= val * (1 + 1e-12)) and np.all(val <= up)
    on = np.stack([np.linspace(0.0, 1.0, 11), np.zeros(11)], axis=1)
    assert np.all(d_w._eval(on) == 0.0) and np.all(omega(on[1:-1]) == 1.0)


def test_w_segment_with_endpoints_off_z_keeps_the_cutoff_c2():
    """The bundled segment-vs-points spec at q=2: the segment's endpoints
    are not in Z, so its exact distance would bend on the normal line x=0
    inside the transition shell (d2 omega/dx2 would jump by about 30 at
    y=0.25 and 0.3); the segment's potential column is smooth there."""
    from conftest import bundled_cutoff_specs
    from whitney.verify import finite_difference
    bundled = bundled_cutoff_specs()[2]
    spec = co.CutoffSpec(bundled.w_desc, bundled.z_desc, bundled.eta, 2,
                         bundled.box)
    omega = co.build_cutoff(spec)
    assert not omega.d_w.nets and len(omega.d_w.segments.length) == 1
    for y in (0.25, 0.3):
        assert 0.0 < omega(np.asarray([[0.0, y]]))[0] < 1.0
        left, right = (finite_difference(one_row(omega), (2, 0), (s, y),
                                         5e-5)[0] for s in (-2e-4, 2e-4))
        assert abs(left - right) < 1.0, (y, left, right)


def test_half_line_w_is_a_segment_to_the_box_edge():
    """A constant graph over (0, inf) is the segment between its clamp
    ends, the second one on the box edge."""
    ray = geo.GraphCell(geo.Interval(0.0, None), (expr.constant_fn(0, 1),),
                        (0, 1))
    spec = co.CutoffSpec(geo.descriptor_of(ray), point_desc(0.0, 0.0), 0.5,
                         2, box=3.0)
    d_w = co.build_cutoff(spec).d_w
    assert not d_w.nets
    segments = d_w.segments
    assert np.array_equal(segments.start, [[0.0, 0.0]])
    assert np.array_equal(segments.start + segments.length[:, None]
                          * segments.axis, [[3.0, 0.0]])
    on, off = d_w._eval(np.asarray([[2.5, 0.0], [1.0, 0.5]]))
    assert on == 0.0 and off > 0.0


def test_cutoff_of_two_exact_w_points():
    """A W of two points: the plateau ratio is ``0.9 c rho_int`` and holds
    at both points."""
    w = geo.descriptor_of(geo.PointCell((0.0, 0.0)), geo.PointCell((1.0, 0.0)))
    spec = co.CutoffSpec(w, point_desc(0.5, 1.0), 0.5, 2, box=3.0)
    omega = co.build_cutoff(spec)
    c_ratio = min(omega.d_w.c1, omega.d_z.c1)
    assert omega.rho_prime == pytest.approx(0.9 * c_ratio * omega.rho_int)
    vals = omega(np.asarray([[0.0, 0.0], [1.0, 0.0], [0.5, 0.9]]))
    assert vals.tolist() == [1.0, 1.0, 0.0]


def test_parabola_arc_cutoff_keeps_its_plateau_ratio():
    """The arc's cutoff is net-backed; its ``rho_prime`` is bit for bit
    the value it had while an on-set residual probe (always 0) still
    entered it."""
    from conftest import load_corpus_scene
    from whitney.extension import extend_field
    (term,) = extend_field(load_corpus_scene("parabola").scene).terms
    assert term.stratum_id == "arc"
    omega = term.omega
    assert omega.d_w.nets and omega.d_w.segments is None
    c_ratio = min(omega.d_w.c1, omega.d_z.c1)
    assert omega.rho_prime == 0.9 * c_ratio * omega.rho_int
    assert omega.rho_prime == 0.05830716399541141


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
        left, right = (finite_difference(one_row(omega), (2, 0), (1.0 + s, y),
                                         1e-4)[0] for s in (-1e-3, 1e-3))
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
    # on W the ratio is 0; still inside W; far outside the cone
    assert omega(np.asarray([[1.0], [1.05], [0.1]])).tolist() == [1.0, 1.0,
                                                                 0.0]
    vals = omega(np.linspace(0.05, 2.0, 400).reshape(-1, 1))
    assert np.all((vals >= 0.0) & (vals <= 1.0))


def test_cutoff_monotone_where_ratio_monotone():
    omega = co.build_cutoff(ball_spec())
    xs = np.linspace(1.0, 0.15, 300).reshape(-1, 1)  # ratio grows toward Z
    vals = omega(xs)
    assert np.all(np.diff(vals) <= 1e-12)


def test_cutoff_spec_rejects_empty_w():
    """A term's W is its own cell or point, never empty."""
    with pytest.raises(ValueError, match="W must be nonempty"):
        co.CutoffSpec(geo.EMPTY_SET, point_desc(0.0), 0.5, 2)


def test_cutoff_empty_z_gives_tube():
    # empty Z: d(x, Z) = 1 by convention, so the support is a plain ball
    spec = co.CutoffSpec(point_desc(0.0), geo.EMPTY_SET, 0.5, 2)
    omega = co.build_cutoff(spec)
    center, off, shell = omega(np.asarray([[0.0], [0.6], [0.35]]))
    assert center == 1.0 and off == 0.0 and 0.0 < shell < 1.0


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
    lo_w, _ = geo.distance_brackets(spec.w_desc, xs)
    _, up_z = geo.distance_brackets(spec.z_desc, xs)
    outside = lo_w >= spec.eta * up_z
    assert outside.any() and not np.any(outside[omega(xs) == 1.0])


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


def test_cutoff_batched_matches_scalar():
    omega = co.build_cutoff(ball_spec())
    xs = np.linspace(0.05, 2.0, 97).reshape(-1, 1)
    batched = omega(xs)
    for x, v in zip(xs, batched):
        assert omega(x[None, :])[0] == v


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
    assert rep.passed, rep
    assert rep.plateau_checked > 0


# --- bracket-decided rows ----------------------------------------------------

def _term_cutoffs(f):
    """The cutoff of every term of an extension, its skeleton's included."""
    while f is not None:
        yield from (t.omega for t in f.terms)
        f = f.sub


@pytest.mark.parametrize("name", ["points", "halfline", "parabola", "square",
                                  "fullspace"])
def test_every_bundled_cutoff_is_its_profile_bit_for_bit(name):
    """At seeds 0 and 9 every term cutoff of a bundled scene equals
    ``profile(transition(X))`` bit for bit, on seeded rows within 1.5 times
    the box, on samples of every stratum (W or Z of each term), at frontier
    points and on the net points, and every regularized distance there
    lies within its bracket."""
    scene = load_corpus_scene(name).scene
    for seed in (0, 9):
        cutoffs = list(_term_cutoffs(extend_field(scene, seed=seed)))
        X = [np.random.default_rng(seed).uniform(
            -1.5 * scene.box, 1.5 * scene.box, (3000, scene.n))]
        for s in scene.strata:
            params = geo.stratum_samples(s.cell, 16, scene.box)
            X.append(s.cell.embed_rows(np.asarray(params, dtype=float)))
            if isinstance(s.cell, geo.GraphCell):
                X.append(geo.frontier_samples(s.cell, scene.box))
        X.extend(net.points for omega in cutoffs
                 for d in (omega.d_w, omega.d_z) for net in d.nets)
        X = np.vstack(X)
        for omega in cutoffs:
            got = omega(X)
            want = omega.profile(omega.transition(X))
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
            for d in (omega.d_w, omega.d_z):
                lo, up = d.bracket(X)
                value = d._eval(X)
                assert np.all(lo <= value) and np.all(value <= up)


def test_brackets_cover_every_column_kind():
    """The bundled scenes' regularized distances hold exact, segment and
    net columns, and the empty set, so the bit-for-bit test above meets
    every kind of bracket."""
    kinds = set()
    for name in ("points", "halfline", "parabola", "square", "fullspace"):
        f = extend_field(load_corpus_scene(name).scene)
        for omega in _term_cutoffs(f):
            for d in (omega.d_w, omega.d_z):
                kinds |= {kind for kind, has in (
                    ("exact", d.table is not None),
                    ("segment", d.segments is not None),
                    ("net", bool(d.nets)),
                    ("empty", (d.table, d.segments, d.nets) == (None, None,
                                                                []))) if has}
    assert kinds == {"exact", "segment", "net", "empty"}


def test_arc_cutoff_runs_its_soft_minimum_on_few_grid_rows():
    """On the default 51 x 51 ``extend`` grid of parabola (seed 9) the arc's
    cutoff sends fewer than 5% of the 2,601 rows through its soft minimum;
    its brackets decide the rest."""
    scene = load_corpus_scene("parabola").scene
    term = extend_field(scene, seed=9).terms[0]
    assert term.stratum_id == "arc"
    axis = np.linspace(-scene.box, scene.box, 51)
    P = np.stack([m.ravel() for m in np.meshgrid(axis, axis, indexing="ij")],
                 axis=1)
    seen = _profile_rows(term.omega)
    vals = term.omega(P)
    assert len(P) == 2601 and len(seen) < 0.05 * len(P)
    assert 0 < np.count_nonzero(vals) <= len(seen)
