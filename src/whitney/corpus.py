"""Bundled verification fixtures: the cutoff specs and graph cells shared
by the test suite and the documentation examples."""
from __future__ import annotations

from . import expr, geometry as geo
from .cutoff import CutoffSpec


def bundled_cutoff_specs() -> list[CutoffSpec]:
    """Three cutoff scenarios covering the descriptor kinds: 1-d ball vs
    point, planar ball vs point, and a segment vs a point pair (its
    endpoints are not in Z; the segment's potential column is smooth
    across their normal lines all the same)."""
    ball_vs_point_1d = CutoffSpec(
        geo.descriptor_of(geo.Ball((1.0,), 0.1)),
        geo.descriptor_of(geo.PointCell((0.0,))),
        eta=0.5, q=2, box=4.0)
    ball_vs_point_2d = CutoffSpec(
        geo.descriptor_of(geo.Ball((1.0, 0.0), 0.2)),
        geo.descriptor_of(geo.PointCell((0.0, 0.0))),
        eta=0.5, q=3, box=4.0)
    segment = geo.GraphCell(geo.Interval(0.0, 1.0),
                            (expr.constant_fn(0, 1),), (0, 1))
    segment_vs_points = CutoffSpec(
        geo.descriptor_of(segment),
        geo.descriptor_of(geo.PointCell((-0.75, 0.6)),
                          geo.PointCell((1.75, 0.6))),
        eta=0.6, q=1, box=4.0)
    return [ball_vs_point_1d, ball_vs_point_2d, segment_vs_points]


def bundled_graph_cells() -> list[geo.GraphCell]:
    """Constant graph, slope-one line and parabola over the unit interval:
    the cells the distance-comparison checks run on."""
    base = geo.Interval(0.0, 1.0)
    return [
        geo.GraphCell(base, (expr.constant_fn(2.0, 1),), (0, 1)),
        geo.GraphCell(base, (expr.coordinate(0, 1),), (0, 1)),
        geo.GraphCell(base, (expr.polynomial(1, {(2,): 1}),), (0, 1)),
    ]
