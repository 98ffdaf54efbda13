import math

import numpy as np
import pytest

from whitney import expr
from whitney import geometry as geo
from whitney.errors import UnsupportedDescriptor

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

def test_contains_interval():
    assert geo.contains(interval_cell(), (0.5,)) == "inside"
    assert geo.contains(interval_cell(), (1.5,)) == "outside"
    assert geo.contains(interval_cell(), (1.0,)) == "boundary"


def test_contains_on_graph():
    cell = parabola_cell()
    assert geo.contains(cell, (0.5, 0.25), 1e-9) == "inside"
    assert geo.contains(cell, (0.5, 0.7), 1e-9) == "outside"


def test_contains_triangle_cell():
    # {0 < x1 < 1, 0 < x2 < x1}
    tri = geo.Slab(geo.Interval(0.0, 1.0), expr.constant_fn(0, 1),
                   expr.coordinate(0, 1))
    assert geo.open_cell_contains(tri, (0.5, 0.7)) == "outside"
    assert geo.open_cell_contains(tri, (0.5, 0.2)) == "inside"


def test_open_cell_outside_matches_scalar_membership():
    # {-1 < x1 < 1, sqrt(x1) < x2 < 1}: the lower wall is singular for x1 <= 0
    x = expr.var(0)
    cell = geo.Slab(geo.Interval(-1.0, 1.0), expr.ExprFn(1, expr.sqrt_(x)),
                    expr.constant_fn(1, 1))
    g = np.linspace(-1.5, 1.5, 31)
    U = np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1).reshape(-1, 2)
    want = [geo.open_cell_contains(cell, u) == "outside" for u in U.tolist()]
    assert geo.open_cell_outside(cell, U).tolist() == want


def test_embed_rows_matches_embed(rng):
    cell = geo.GraphCell(geo.Interval(-1.0, 1.0),
                         (rand_polynomial(rng, 1, 4),), (1, 0))
    U = rng.uniform(-1.0, 1.0, (50, 1))
    want = [[float(v) for v in cell.embed(u)] for u in U.tolist()]
    assert cell.embed_rows(U).tolist() == want


def test_contains_point_cell():
    pc = geo.PointCell((1.0, 2.0))
    assert geo.contains(pc, (1.0, 2.0)) == "inside"
    assert geo.contains(pc, (1.0, 2.1)) == "outside"


# --- distances ----------------------------------------------------------

def test_distance_empty_set_is_one():
    assert geo.set_distance(geo.EMPTY_SET, (17.0,)) == geo.Bracket(1.0, 1.0)


def test_distance_to_point():
    d = geo.set_distance(geo.descriptor_of(geo.PointCell((0.0,))), (-3.0,))
    assert d.lo == d.up == 3.0


def test_distance_constant_graph_exact():
    d = geo.set_distance(geo.descriptor_of(const_graph(2.0)), (0.5, 2.4))
    assert abs(d.up - 0.4) < 1e-9 and abs(d.lo - 0.4) < 1e-9


def test_distance_line_cell():
    d = geo.set_distance(geo.descriptor_of(line_cell()), (0.5, 0.9))
    true = 0.4 / math.sqrt(2.0)
    assert d.lo - 1e-9 <= true <= d.up + 1e-9
    assert abs(d.up - true) < 1e-6


def test_distance_bracket_ordering_and_monotone_refinement(rng):
    desc = geo.descriptor_of(parabola_cell())
    for _ in range(50):
        x = rng.uniform(-1.5, 1.5, size=2)
        d = geo.set_distance(desc, x)
        assert d.lo <= d.up + 1e-15


def test_contains_consistent_with_distance():
    cell = parabola_cell()
    desc = geo.descriptor_of(cell)
    tau = 1e-7
    on = (0.5, 0.25)
    off = (0.5, 0.6)
    assert geo.contains(cell, on, tau) == "inside"
    assert geo.set_distance(desc, on).up <= tau
    assert geo.contains(cell, off, tau) == "outside"
    assert geo.set_distance(desc, off).lo > tau


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
    desc = geo.descriptor_of(piece)
    X = np.array([FAR, (0.5, 2.4), (-1.0, 3.0), (0.3, 0.09), (2.0, -2.0),
                  (0.5, 0.35), (0.7, 1.2)])
    lo, up = geo.distance_brackets(desc, X, box=3.0)
    assert np.all((0.0 <= lo) & (lo <= up))
    for x, row_lo, row_up in zip(X, lo, up):
        d = geo.set_distance(desc, tuple(x), box=3.0)
        if far_distance is None:
            # the golden-section polish may only tighten a 1-d curved cell
            assert d.up <= row_up and d.lo == min(row_lo, d.up)
        else:
            assert (d.lo, d.up) == (row_lo, row_up)
    if far_distance is not None:
        assert up[0] == lo[0] == pytest.approx(far_distance, rel=1e-14)


def test_net_and_table_caches_are_bounded():
    for cache in (geo.piece_net, geo.distance_table):
        assert cache.cache_info().maxsize is not None
    limit = geo.piece_net.cache_info().maxsize
    for k in range(limit + 3):
        geo.piece_net(parabola_cell(0.0, 1.0 + k), 3.0, 9)
    assert geo.piece_net.cache_info().currsize == limit


# --- sandwich inequality -------------------------------------------------

def test_sandwich_constant_graph_equality():
    cell = const_graph(2.0)
    samples = [(u, 2.0 + w) for u in (0.2, 0.5, 0.8) for w in (-0.5, 0.3)]
    rep = geo.distance_sandwich_check(cell, samples, eps=1e-9)
    assert not rep.violations
    assert rep.max_graph_gap < 1e-9


def test_sandwich_line_cell_lower_bound_tight():
    # slope-1 line: L = 1/sqrt(2); at (0.5, 0.9) the distance achieves it
    cell = line_cell()
    rep = geo.distance_sandwich_check(cell, [(0.5, 0.9)], eps=1e-6)
    assert not rep.violations
    d = geo.set_distance(geo.descriptor_of(cell), (0.5, 0.9)).up
    assert d == pytest.approx(0.4 / math.sqrt(2.0), abs=1e-6)


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
