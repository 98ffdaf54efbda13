import math

import numpy as np
import pytest

from whitney import expr
from whitney import geometry as geo
from whitney.errors import SingularPoint, UnsupportedDescriptor

from conftest import rand_polynomial


def interval_cell(lo=0.0, hi=1.0):
    return geo.identity_graph_cell(geo.Interval(lo, hi))


def parabola_cell(lo=0.0, hi=1.0):
    return geo.GraphCell(geo.Interval(lo, hi),
                         (expr.polynomial(1, {(2,): 1}),), (0, 1))


def line_cell():
    return geo.GraphCell(geo.Interval(0.0, 1.0),
                         (expr.coordinate(0, 1),), (0, 1))


def const_graph(c=2.0):
    return geo.GraphCell(geo.Interval(0.0, 1.0),
                         (expr.constant_fn(c, 1),), (0, 1))


# --- membership ---------------------------------------------------------

IN, BD, OUT = geo.INSIDE, geo.BOUNDARY, geo.OUTSIDE


def status(cell, x, tol=1e-9):
    """Membership code of one point, as a 1-row batch."""
    return int(geo.membership(cell, [x], tol)[0])


def test_contains_interval():
    assert status(interval_cell(), (0.5,)) == IN
    assert status(interval_cell(), (1.5,)) == OUT
    assert status(interval_cell(), (1.0,)) == BD


def test_contains_on_graph():
    cell = parabola_cell()
    assert status(cell, (0.5, 0.25), 1e-9) == IN
    assert status(cell, (0.5, 0.7), 1e-9) == OUT


def test_contains_triangle_cell():
    # {0 < x1 < 1, 0 < x2 < x1}
    tri = geo.Slab(geo.Interval(0.0, 1.0), expr.constant_fn(0, 1),
                   expr.coordinate(0, 1))
    assert status(tri, (0.5, 0.7)) == OUT
    assert status(tri, (0.5, 0.2)) == IN


def test_membership_table_on_a_singular_wall():
    # {-1 < x1 < 1, sqrt(x1) < x2 < 1}: the lower wall is singular for x1 <= 0
    x = expr.var(0)
    cell = geo.Slab(geo.Interval(-1.0, 1.0), expr.ExprFn(1, expr.sqrt_(x)),
                    expr.constant_fn(1, 1))
    table = [
        ((0.25, 0.75), IN),
        ((0.25, 0.5), BD),                  # on the lower wall
        ((0.25, 0.5 + 5e-10), BD),          # within tol of it
        ((0.25, 0.5 - 5e-10), BD),
        ((0.25, 0.5 - 2e-9), OUT),
        ((0.25, 1.0), BD),                  # on the upper wall
        ((0.25, 0.2), OUT),
        ((0.25, 1.5), OUT),
        ((-1.0, 0.5), BD),                  # base end, wall singular there
        ((1.5, 1.2), OUT),                  # off the base
        ((-2.0, 0.5), OUT),                 # off the base, wall singular
        ((-0.5, 0.0), BD),                  # wall singular
        ((-0.5, 7.0), BD),                  # singular beats the upper wall
        ((0.0, 0.5), BD),                   # sqrt at zero is singular
    ]
    got = geo.membership(cell, [row for row, _ in table])
    assert got.dtype == np.int8
    assert got.tolist() == [want for _, want in table]
    assert [status(cell, row) for row, _ in table] == got.tolist()


def test_membership_codim2_graph_singular_map_is_boundary():
    # (x, x, sqrt(x)) over (-1, 1) in R^3
    x = expr.var(0)
    cell = geo.GraphCell(geo.Interval(-1.0, 1.0),
                         (expr.coordinate(0, 1),
                          expr.ExprFn(1, expr.sqrt_(x))), (0, 1, 2))
    rows = [(0.25, 0.25, 0.5), (0.25, 0.25, 0.6), (0.25, 0.3, 0.5),
            (-0.5, 5.0, 0.0),               # second map singular, first off
            (1.0, 1.0, 1.0), (2.0, 2.0, 0.0)]
    assert geo.membership(cell, rows).tolist() == [IN, OUT, OUT, BD, BD,
                                                   OUT]


def test_membership_full_dimensional_graph_is_its_base():
    base = geo.Slab(geo.Interval(0.0, 1.0), expr.constant_fn(0, 1),
                    expr.coordinate(0, 1))
    cell = geo.GraphCell(base, (), (1, 0))          # coordinates swapped
    rows = [(0.2, 0.5), (0.7, 0.5), (0.5, 0.5), (0.5, 2.0)]
    assert geo.membership(cell, rows).tolist() == \
        geo.membership(base, [r[::-1] for r in rows]).tolist() == \
        [IN, OUT, BD, OUT]


def test_embed_rows_matches_embed(rng):
    phi = rand_polynomial(rng, 1, 4)
    cell = geo.GraphCell(geo.Interval(-1.0, 1.0), (phi,), (1, 0))
    U = rng.uniform(-1.0, 1.0, (50, 1))
    want = [[float(expr.evaluate(phi, u)), u[0]] for u in U.tolist()]
    assert cell.embed_rows(U).tolist() == want


def test_contains_point_cell():
    pc = geo.PointCell((1.0, 2.0))
    assert status(pc, (1.0, 2.0)) == IN
    assert status(pc, (1.0, 2.1)) == OUT


def test_membership_point_cell_at_tol():
    pc = geo.PointCell((0.0, 0.0))
    rows = [(0.0, 1e-9), (0.0, np.nextafter(1e-9, 1.0)), (-1e-9, 0.0)]
    assert geo.membership(pc, rows, 1e-9).tolist() == [IN, OUT, IN]


# --- distances ----------------------------------------------------------

def distance(desc, x, box=geo.DEFAULT_BOX_HALFWIDTH):
    """``(lo, up)`` of one point, as a 1-row batch."""
    lo, up = geo.distance_brackets(desc, [x], box)
    return float(lo[0]), float(up[0])


def test_distance_empty_set_is_one():
    assert distance(geo.EMPTY_SET, (17.0,)) == (1.0, 1.0)


def test_distance_to_point():
    lo, up = distance(geo.descriptor_of(geo.PointCell((0.0,))), (-3.0,))
    assert lo == up == 3.0


def test_distance_constant_graph_exact():
    lo, up = distance(geo.descriptor_of(const_graph(2.0)), (0.5, 2.4))
    assert abs(up - 0.4) < 1e-9 and abs(lo - 0.4) < 1e-9


def test_distance_line_cell():
    lo, up = distance(geo.descriptor_of(line_cell()), (0.5, 0.9))
    true = 0.4 / math.sqrt(2.0)
    assert lo - 1e-9 <= true <= up + 1e-9
    assert abs(up - true) < 1e-12


def test_distance_bracket_ordering_and_monotone_refinement(rng):
    lo, up = geo.distance_brackets(geo.descriptor_of(parabola_cell()),
                                   rng.uniform(-1.5, 1.5, (50, 2)))
    assert np.all(lo <= up)


def test_contains_consistent_with_distance():
    cell = parabola_cell()
    desc = geo.descriptor_of(cell)
    tau = 1e-7
    on = (0.5, 0.25)
    off = (0.5, 0.6)
    assert status(cell, on, tau) == IN
    assert distance(desc, on)[1] <= tau
    assert status(cell, off, tau) == OUT
    assert distance(desc, off)[0] > tau


# --- one distance table for every caller ----------------------------------

FULL_PLANE = geo.GraphCell(geo.Slab(geo.Interval(None, None), None, None),
                           (), (0, 1))
BOX = geo.identity_graph_cell(geo.Slab(geo.Interval(0.0, 1.0),
                                       expr.constant_fn(0, 1),
                                       expr.constant_fn(2, 1)))
FAR = (50.0, 0.0)


@pytest.mark.parametrize("piece, far_distance", [
    (geo.PointCell((0.5, -1.0)), math.hypot(49.5, 1.0)),
    (geo.Ball((0.0, 1.0), 0.5), math.hypot(50.0, 1.0) - 0.5),
    (FULL_PLANE, 0.0),
    (BOX, 49.0),
    (const_graph(2.0), math.hypot(49.0, 2.0)),
    (parabola_cell(), None),
], ids=["point", "ball", "full-space", "box", "constant-graph", "arc"])
def test_set_distance_is_a_row_of_the_batched_table(piece, far_distance):
    """A single point is a 1-row batch; closed-form rows are exact, and a
    net row's foot point never lies above the net's best point."""
    desc = geo.descriptor_of(piece)
    X = np.array([FAR, (0.5, 2.4), (-1.0, 3.0), (0.3, 0.09), (2.0, -2.0),
                  (0.5, 0.35), (0.7, 1.2)])
    lo, up = geo.distance_brackets(desc, X, box=3.0)
    assert np.all((0.0 <= lo) & (lo <= up))
    for x, row_lo, row_up in zip(X, lo, up):
        assert distance(desc, tuple(x), box=3.0) == (row_lo, row_up)
    if far_distance is None:
        net_lo, net_up, _ = geo.piece_net(piece, 3.0).scan(X)
        assert np.all(up <= net_up)
        assert np.array_equal(lo, np.minimum(net_lo, up))
    else:
        assert np.array_equal(lo, up)
        assert up[0] == pytest.approx(far_distance, rel=1e-14)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_exact_columns_are_the_clamped_norm_bit_for_bit(n, rng):
    """``DistanceTable.exact`` sums one coordinate at a time; its columns
    equal the norm of the offset to the clamped point minus the radius,
    bit for bit, for a batch and for a single point."""
    box = {1: geo.identity_graph_cell(geo.Interval(0.0, 1.0)), 2: BOX,
           3: geo.identity_graph_cell(geo.Slab(
               BOX.base, expr.constant_fn(0, 2), expr.constant_fn(1, 2)))}[n]
    pieces = (geo.PointCell((0.5,) * n), geo.Ball((-1.0,) * n, 0.25), box)
    table = geo.distance_table(geo.SetDescriptor(pieces), 3.0)
    X = rng.uniform(-4.0, 4.0, (500, n))
    Y = X[:, None, :]
    near = np.minimum(np.maximum(Y, table.lows), table.highs)
    want = np.maximum(0.0, geo._row_norms(Y - near) - table.radii)
    assert table.exact(X).tobytes() == want.tobytes()
    assert table.exact(X[7]).tobytes() == want[7].tobytes()


def normal_offsets(cell, U, rng):
    """Rows ``embed(u) + s n`` with ``n`` the unit normal of a hypersurface
    graph at ``u`` and seeded offsets ``s`` in [-0.1, 0.1]."""
    (phi,) = cell.graph
    m = U.shape[1]
    grad = np.column_stack([
        expr.evaluate_rows_or_raise(
            expr.differentiate(phi, tuple(int(j == i) for j in range(m))), U)
        for i in range(m)])
    normal = np.empty((len(U), m + 1))
    normal[:, list(cell.perm)] = np.column_stack([-grad, np.ones(len(U))])
    normal /= np.linalg.norm(normal, axis=1)[:, None]
    s = rng.uniform(-0.1, 0.1, len(U))
    return cell.embed_rows(U) + s[:, None] * normal, np.abs(s)


SURFACE = geo.GraphCell(
    geo.Slab(geo.Interval(0.0, 1.0), expr.constant_fn(0, 1),
             expr.constant_fn(1, 1)),
    (expr.polynomial(2, {(2, 0): 1, (0, 2): 1}),), (0, 1, 2))


@pytest.mark.parametrize("cell, dim", [(parabola_cell(), 1), (SURFACE, 2)],
                         ids=["arc", "surface"])
def test_foot_points_are_exact_along_normals(cell, dim, rng):
    """Within the reach of a curved graph, a point pushed off ``embed(u)``
    along the normal by ``s`` is at distance ``|s|``: the foot point finds
    it where the best net point alone is off by up to the net spacing."""
    X, want = normal_offsets(cell, rng.uniform(0.05, 0.95, (200, dim)), rng)
    lo, up = geo.distance_brackets(geo.descriptor_of(cell), X, box=3.0)
    assert np.all(np.abs(up - want) <= 1e-12)
    assert np.all(lo <= want)


def test_net_and_table_caches_are_bounded():
    for cache in (geo.piece_net, geo.distance_table):
        assert cache.cache_info().maxsize is not None
    limit = geo.piece_net.cache_info().maxsize
    for k in range(limit + 3):
        geo.piece_net(parabola_cell(0.0, 1.0 + k), 3.0)
    assert geo.piece_net.cache_info().currsize == limit


# --- sandwich inequality -------------------------------------------------

def test_sandwich_constant_graph_equality():
    cell = const_graph(2.0)
    samples = [(u, 2.0 + w) for u in (0.2, 0.5, 0.8) for w in (-0.5, 0.3)]
    rep = geo.distance_sandwich_check(cell, samples, eps=1e-9)
    assert not rep.violations
    # zero slope: the distance equals the normal offset
    _, up = geo.distance_brackets(geo.descriptor_of(cell), samples)
    for (u, w), d in zip(samples, up):
        assert abs(d - abs(w - 2.0)) < 1e-9


def test_sandwich_line_cell_lower_bound_tight():
    # slope-1 line: L = 1/sqrt(2); at (0.5, 0.9) the distance achieves it
    cell = line_cell()
    rep = geo.distance_sandwich_check(cell, [(0.5, 0.9)], eps=1e-6)
    assert not rep.violations
    d = distance(geo.descriptor_of(cell), (0.5, 0.9))[1]
    assert d == pytest.approx(0.4 / math.sqrt(2.0), abs=1e-6)


def test_sandwich_counts_only_the_samples_it_compares():
    """A sample on the kink of |u - 3/10| has a singular graph map: it is
    skipped, and ``checked`` leaves it out."""
    kink = expr.ExprFn(1, expr.abs_(expr.sub(expr.var(0),
                                             expr.const(0.3))))
    cell = geo.GraphCell(geo.Interval(0.0, 1.0), (kink,), (0, 1))
    samples = [(0.3, 0.5), (0.6, 0.1), (0.3, -0.2), (1.4, 0.2), (0.1, 0.4)]
    rep = geo.distance_sandwich_check(cell, samples, eps=1e-6)
    assert not rep.violations
    assert rep.checked == 3 < len(samples)


def test_sandwich_random_samples_no_violations(rng):
    cells = [const_graph(1.0), line_cell(), parabola_cell()]
    for cell in cells:
        samples = [(float(rng.uniform(0.05, 0.95)),
                    float(rng.uniform(-1.0, 2.0))) for _ in range(80)]
        rep = geo.distance_sandwich_check(cell, samples, eps=1e-6)
        assert not rep.violations, (cell, rep.violations[:3])


# --- Lipschitz estimate ---------------------------------------------------

def test_lipschitz_constant_map():
    rep = geo.lipschitz_estimate((expr.constant_fn(5, 1),),
                                 geo.Interval(0.0, 1.0))
    assert rep.m_hat == 0.0 and rep.l_hat == 1.0


def test_lipschitz_identity_map():
    rep = geo.lipschitz_estimate((expr.coordinate(0, 1),),
                                 geo.Interval(0.0, 1.0))
    assert rep.m_hat == pytest.approx(1.0)
    assert rep.l_hat == pytest.approx(1.0 / math.sqrt(2.0))


def test_lipschitz_against_difference_quotients(rng):
    phi = rand_polynomial(rng, 1, 3)
    base = geo.Interval(0.0, 1.0)
    rep = geo.lipschitz_estimate((phi,), base)
    ts = np.linspace(0.01, 0.99, 60)
    vals = [float(expr.evaluate(phi, (t,))) for t in ts]
    worst = max(abs(vals[i] - vals[j]) / abs(ts[i] - ts[j])
                for i in range(len(ts)) for j in range(i + 1, len(ts)))
    assert worst <= rep.m_hat * 1.05 + 1e-9



def slopes(graph, u):
    """The 1-d Jacobian column at ``u`` by the exact scalar evaluator, None
    at a singular entry."""
    out = []
    for phi in graph:
        try:
            out.append(float(expr.evaluate(expr.differentiate(phi, (1,)), u)))
        except SingularPoint:
            out.append(None)
    return out


X0 = expr.var(0)


@pytest.mark.parametrize("phi", [
    expr.polynomial(1, {(2,): 1}), expr.coordinate(0, 1),
    expr.ExprFn(1, expr.div(expr.const(1), expr.add(X0, expr.const(2)))),
    expr.ExprFn(1, expr.sqrt_(expr.add(X0, expr.const(1))))],
    ids=["parabola", "slope-one", "inverse", "sqrt"])
def test_slope_probes_match_scalar_jacobian_loops(phi):
    """Bit for bit against per-sample loops: the net bound drops a singular
    entry, the Lipschitz estimate a sample with any."""
    base = geo.Interval(-3.0, 3.0)
    graph = (phi, expr.polynomial(1, {(2,): 1}))
    net, _ = geo.cell_param_net(base)
    worst = 0.0
    for u in net[::max(1, len(net) // 64)].tolist():
        worst = max(worst, math.sqrt(sum(g ** 2 for g in slopes(graph, u)
                                         if g is not None)))
    cell = geo.GraphCell(base, graph, (0, 1, 2))
    assert geo._net_lipschitz(cell, net) == 1.5 * worst
    norms = [float(np.linalg.norm(np.array([col]).T, 2))
             for col in (slopes(graph, u) for u in geo.stratum_samples(
                 geo.identity_graph_cell(base), 400))
             if None not in col]
    assert geo.lipschitz_estimate(graph, base).m_hat == max(norms)


# --- nets and samples -------------------------------------------------------

def test_param_net_clusters_to_frontier():
    net, cov = geo.cell_param_net(geo.Interval(0.0, 1.0), box=4.0)
    ts = net[:, 0]
    assert ts.min() == 0.0 and ts.max() == 1.0
    near = np.sort(ts[ts < 1e-3])
    assert len(near) > 10          # geometric pile-up near the endpoint
    assert np.all(cov >= 0.0)


def test_higher_dim_net_unsupported():
    slab3 = geo.Slab(geo.Slab(geo.Interval(0, 1), None, None), None, None)
    with pytest.raises(UnsupportedDescriptor):
        geo.cell_param_net(geo.Slab(slab3, None, None))


# --- the slab tower walker ------------------------------------------------

def reference_interval_samples(lo, hi, lower, upper, k, rng):
    """The 1-d sampling rule, kept verbatim as the walker's reference:
    k midpoints, dyadic approaches at 2^-3..2^-10 of the span to each
    finite end, seeded jitter, a clamp, a sort."""
    span = hi - lo
    inner = list(lo + span * (np.arange(1, k + 1) - 0.5) / k)
    for j in range(3, 11):
        off = span * 2.0 ** (-j)
        if lower:
            inner.append(lo + off)
        if upper:
            inner.append(hi - off)
    if rng is not None:
        jitter = (rng.random(len(inner)) - 0.5) * (span / (4 * k))
        inner = [min(hi - 1e-9 * span, max(lo + 1e-9 * span, t + j))
                 for t, j in zip(inner, jitter)]
    return [(float(t),) for t in sorted(inner)]


def test_stratum_samples_are_float_rows_of_the_stratum_dimension():
    """A point gives one empty row, an interval ``(N, 1)`` and a slab
    ``(N, 2)`` rows, as float arrays, seeded or not."""
    from whitney.rng import SeededStream
    cells = [(geo.PointCell((1.0, 2.0)), 0),
             (geo.identity_graph_cell(geo.Interval(0.0, None)), 1),
             (geo.identity_graph_cell(UNDER_PARABOLA), 2)]
    for cell, m in cells:
        for rng in (None, SeededStream(3)):
            U = geo.stratum_samples(cell, 16, 3.0, rng=rng)
            assert isinstance(U, np.ndarray) and U.dtype == np.float64
            assert U.ndim == 2 and U.shape[1] == m
            assert len(U) == 1 if m == 0 else len(U) > 1


@pytest.mark.parametrize("k", [8, 16, 24, 100])
@pytest.mark.parametrize("lower, upper", [(0.0, 1.0), (0.0, None),
                                          (None, 2.5), (None, None)])
def test_interval_samples_keep_the_1d_rule(lower, upper, k):
    from whitney.rng import SeededStream
    cell = geo.identity_graph_cell(geo.Interval(lower, upper))
    lo, hi = geo.interval_bounds(cell.base, 4.0)
    for seed in range(64):
        mine, ref = SeededStream(seed), SeededStream(seed)
        U = geo.stratum_samples(cell, k, 4.0, rng=mine)
        assert [tuple(u) for u in U.tolist()] == reference_interval_samples(
            lo, hi, lower is not None, upper is not None, k, ref)
        assert mine.random(2).tolist() == ref.random(2).tolist()
    U = geo.stratum_samples(cell, k, 4.0)
    assert [tuple(u) for u in U.tolist()] == reference_interval_samples(
        lo, hi, lower is not None, upper is not None, k, None)


TRIANGLE = geo.Slab(geo.Interval(0.0, 1.0), expr.constant_fn(0, 1),
                    expr.coordinate(0, 1))
UNDER_PARABOLA = geo.Slab(geo.Interval(-1.0, None), None,
                          expr.polynomial(1, {(2,): 1}))


@pytest.mark.parametrize("k", [8, 16, 24, 100])
@pytest.mark.parametrize("base", [TRIANGLE, UNDER_PARABOLA],
                         ids=["triangle", "under-parabola"])
def test_2d_samples_approach_every_wall(base, k):
    """Seeded, at most 4k, INSIDE the cell, and without jitter within
    2^-10 of each finite wall of every fibre and of the base's ends.  The
    triangle's walls meet over x = 0, so a base sample the jitter clamps
    to 1e-9 of that end carries a fibre inside membership's tolerance of
    both walls: there the seeded samples are only in the closure."""
    from whitney.rng import SeededStream
    cell = geo.identity_graph_cell(base)
    draws = [np.asarray(geo.stratum_samples(cell, k, 3.0,
                                            rng=SeededStream(s)))
             for s in (0, 5)]
    assert not np.array_equal(*draws)
    U = np.asarray(geo.stratum_samples(cell, k, 3.0))
    least = geo.BOUNDARY if base is TRIANGLE else geo.INSIDE
    for S in draws + [U]:
        assert len(S) <= 4 * k
        assert np.all(geo.membership(base, S) >= least)
    assert np.all(geo.membership(base, U) == geo.INSIDE)
    lo, hi = geo.interval_bounds(base.base, 3.0)
    gaps = [(U[:, 0] - lo).min() if base.base.lower is not None else 0.0,
            (hi - U[:, 0]).min() if base.base.upper is not None else 0.0]
    assert max(gaps) <= 2.0 ** -10 * (hi - lo) * (1 + 1e-9)
    for t in np.unique(U[:, 0]):
        fibre = U[U[:, 0] == t, 1]
        w0, w1, _ = geo._walls(base, np.array([[t]]), 3.0)
        span = w1[0] - w0[0]
        if base.lower is not None:
            assert (fibre - w0[0]).min() <= 2.0 ** -10 * span * (1 + 1e-9)
        if base.upper is not None:
            assert (w1[0] - fibre).min() <= 2.0 ** -10 * span * (1 + 1e-9)


@pytest.mark.parametrize("base, shape, digest", [
    (TRIANGLE, (38385, 2), "a5c779afd4272688"),
    (UNDER_PARABOLA, (14641, 2), "33a406679d6bde52")],
    ids=["triangle", "under-parabola"])
def test_2d_nets_are_unchanged(base, shape, digest):
    """Hashes of the points and radii the 2-d nets have always had."""
    from whitney.rng import sha256
    points, cov = geo.cell_param_net(base, 3.0)
    assert points.shape == shape
    assert sha256(points.tobytes() + cov.tobytes()).hexdigest()[:16] == digest


def test_2d_boundary_pieces_are_the_walls_then_the_side_walls():
    C, x = expr.constant_fn, expr.coordinate(0, 1)
    unit = geo.Interval(0.0, 1.0)
    assert geo.boundary_pieces(TRIANGLE) == (
        geo.GraphCell(unit, (C(0, 1),), (0, 1)),
        geo.GraphCell(unit, (x,), (0, 1)),
        geo.GraphCell(geo.Interval(0.0, 0.0), (C(0.0, 1),), (1, 0)),
        geo.GraphCell(unit, (C(1.0, 1),), (1, 0)))
    assert geo.boundary_pieces(UNDER_PARABOLA) == (
        geo.GraphCell(geo.Interval(-1.0, None),
                      (expr.polynomial(1, {(2,): 1}),), (0, 1)),
        geo.GraphCell(geo.Interval(None, 1.0), (C(-1.0, 1),), (1, 0)))


def test_3d_boundary_pieces_are_the_six_faces_of_a_cube():
    C = expr.constant_fn
    cube = geo.Slab(geo.Slab(geo.Interval(0.0, 1.0), C(0, 1), C(1, 1)),
                    C(0, 2), C(1, 2))
    pieces = geo.boundary_pieces(cube)
    assert [p.intrinsic_dim for p in pieces] == [2] * 6
    for piece in pieces:
        X = piece.embed_rows(np.asarray(geo.stratum_samples(piece, 8)))
        on_face = (np.isclose(X, 0.0) | np.isclose(X, 1.0)).sum(axis=1)
        assert np.all(on_face == 1) and np.all((X >= 0.0) & (X <= 1.0))
    # the last face sits over the base's side wall x = 1, as a slab in z
    assert pieces[-1] == geo.GraphCell(
        geo.Slab(geo.Interval(0.0, 1.0), C(0, 1), C(1, 1)), (C(1.0, 2),),
        (1, 2, 0))


def test_curved_boundary_and_frontier_pieces_lie_on_the_boundary():
    """Side walls compose the walls with a slanted piece's embedding, and
    a surface's frontier lifts the base's pieces through its graph: their
    samples are on the boundary, never inside or off the closure."""
    cell = geo.Slab(TRIANGLE, expr.polynomial(2, {(1, 1): 1}),
                    expr.polynomial(2, {(0, 0): 1, (1, 0): 1}))
    pieces = geo.boundary_pieces(cell)
    assert len(pieces) == 6
    for piece in pieces:
        X = piece.embed_rows(np.asarray(geo.stratum_samples(piece, 8)))
        assert np.all(geo.membership(cell, X) == geo.BOUNDARY)
    surface = geo.GraphCell(TRIANGLE, (expr.polynomial(2, {(2, 0): 1}),),
                            (0, 2, 1))
    X = geo.frontier_samples(surface)
    assert len(X) == 4 * 24           # four 1-d pieces, 8 + 16 samples each
    assert np.all(geo.membership(surface, X) == geo.BOUNDARY)


def exact_triangle_distance(X):
    """Distance to the closed triangle with corners (0,0), (1,0), (1,1)."""
    corners = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
    best = np.full(len(X), np.inf)
    for a, b in zip(corners, np.roll(corners, -1, axis=0)):
        t = np.clip((X - a) @ (b - a) / ((b - a) @ (b - a)), 0.0, 1.0)
        best = np.minimum(best, np.linalg.norm(X - a - t[:, None] * (b - a),
                                               axis=1))
    inside = (X[:, 0] < 1.0) & (X[:, 1] > 0.0) & (X[:, 1] < X[:, 0])
    return np.where(inside, 0.0, best)


@pytest.mark.parametrize("seed", [0, 7, 11])
def test_the_frontier_closes_the_foot_point_gap(seed):
    """A foot point clamped one coordinate at a time stalls short of the
    slanted wall of a triangle; the frontier's pieces give the exact
    distance there."""
    from whitney.rng import SeededStream
    X = -2.0 + 5.0 * SeededStream(seed).random((3000, 2))
    lo, up = geo.distance_brackets(
        geo.descriptor_of(geo.identity_graph_cell(TRIANGLE)), X, box=3.0)
    exact = exact_triangle_distance(X)
    assert np.all(np.abs(up - exact) <= 1e-12)
    assert np.all(lo <= exact + 1e-12)
