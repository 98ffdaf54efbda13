"""Cell geometry: membership, bracketed distances, and the sampling probes
that validate a scene's regularity assumptions.

Cells come in three shapes.  An *open cell* lives in its own ambient space
and is either an interval or a slab between two expression walls over a
lower-dimensional open cell.  A *graph cell* is the image of an open cell
under ``u -> (u, phi(u))``, possibly after a coordinate permutation, and
has empty interior in the ambient space.  A *point cell* is a single
point.

Distances are always reported as brackets ``[lo, up]`` by one batched
table per descriptor (:class:`DistanceTable`): exact for points, balls,
the full space and constant graphs over boxes; otherwise ``up`` is the
best point of a cached embedded net (golden-section polished for single
points on 1-d cells) and ``lo`` subtracts the net's covering radius.
Every probe in this module is a sampling probe with a refinement-stability
verdict, not a proof.
"""
from __future__ import annotations

import functools
import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from . import expr
from .errors import (ConvergenceFailure, MeshDisconnected, SingularPoint,
                     UnsupportedDescriptor)
from .expr import ExprFn
from .jets import multi_indices, mi_order

DEFAULT_BOX_HALFWIDTH = 10.0
DEFAULT_COARSE = 65           # base resolution of the parameter nets

# ---------------------------------------------------------------------------
# cell descriptions


@dataclass(frozen=True)
class Interval:
    """Open interval; ``None`` bounds mean the line is unbounded there."""
    lower: Optional[float]
    upper: Optional[float]


@dataclass(frozen=True)
class Slab:
    """Open set between two walls over a lower-dimensional open cell."""
    base: "OpenCell"
    lower: Optional[ExprFn]
    upper: Optional[ExprFn]


OpenCell = Union[Interval, Slab]


@dataclass(frozen=True)
class GraphCell:
    """Graph of ``phi`` over an open parameter cell.

    Internal coordinate ``i`` is ambient coordinate ``perm[i]``; the first
    ``m`` internal coordinates are tangential (the parameter ``u``), the
    remaining ones carry the graph values.  ``graph == ()`` makes this an
    open cell used as a full-dimensional stratum.
    """
    base: OpenCell
    graph: tuple[ExprFn, ...]
    perm: tuple[int, ...]

    @property
    def ambient_dim(self) -> int:
        return len(self.perm)

    @property
    def intrinsic_dim(self) -> int:
        return self.ambient_dim - len(self.graph)

    def to_internal(self, x):
        return tuple(x[self.perm[i]] for i in range(self.ambient_dim))

    def to_ambient(self, y):
        x = [None] * self.ambient_dim
        for i, axis in enumerate(self.perm):
            x[axis] = y[i]
        return tuple(x)

    def embed(self, u):
        """Ambient point over parameter ``u``."""
        w = tuple(expr.evaluate(phi, u) for phi in self.graph)
        return self.to_ambient(tuple(u) + w)


@dataclass(frozen=True)
class PointCell:
    """A point: its frame is the ambient one, any parameter embeds to it."""
    point: tuple
    intrinsic_dim = 0

    def to_ambient(self, y):
        return tuple(y)

    def embed(self, u):
        return self.point


Cell = Union[GraphCell, PointCell]


def open_cell_dim(cell: OpenCell) -> int:
    d = 0
    while isinstance(cell, Slab):
        d += 1
        cell = cell.base
    return d + 1


def identity_graph_cell(base: OpenCell) -> GraphCell:
    n = open_cell_dim(base)
    return GraphCell(base, (), tuple(range(n)))


# ---------------------------------------------------------------------------
# membership

INSIDE, BOUNDARY, OUTSIDE = "inside", "boundary", "outside"


def contains(cell, x, tol: float = 1e-9) -> str:
    """Ternary membership; for graph and point cells "inside" means on the
    set within ``tol``."""
    if isinstance(cell, PointCell):
        d = math.dist([float(v) for v in x], [float(v) for v in cell.point])
        return INSIDE if d <= tol else OUTSIDE
    if isinstance(cell, GraphCell):
        y = cell.to_internal(x)
        m = cell.intrinsic_dim
        u, w = y[:m], y[m:]
        status = open_cell_contains(cell.base, u, tol)
        if status == OUTSIDE:
            return OUTSIDE
        try:
            offs = [abs(float(wi) - float(expr.evaluate(phi, u)))
                    for wi, phi in zip(w, cell.graph)]
        except SingularPoint:
            return BOUNDARY
        if any(o > tol for o in offs):
            return OUTSIDE
        return INSIDE if status == INSIDE else BOUNDARY
    return open_cell_contains(cell, x, tol)


def open_cell_contains(cell: OpenCell, x, tol: float = 1e-9) -> str:
    if isinstance(cell, Interval):
        (t,) = x
        t = float(t)
        lo = -math.inf if cell.lower is None else float(cell.lower)
        hi = math.inf if cell.upper is None else float(cell.upper)
        if t <= lo - tol or t >= hi + tol:
            return OUTSIDE
        if t < lo + tol or t > hi - tol:
            return BOUNDARY
        return INSIDE
    base_status = open_cell_contains(cell.base, x[:-1], tol)
    if base_status == OUTSIDE:
        return OUTSIDE
    t = float(x[-1])
    try:
        lo = (-math.inf if cell.lower is None
              else float(expr.evaluate(cell.lower, x[:-1])))
        hi = (math.inf if cell.upper is None
              else float(expr.evaluate(cell.upper, x[:-1])))
    except SingularPoint:
        return BOUNDARY
    if t <= lo - tol or t >= hi + tol:
        return OUTSIDE
    if t < lo + tol or t > hi - tol or base_status == BOUNDARY:
        return BOUNDARY
    return INSIDE


def interval_bounds(cell: Interval, box: float) -> tuple[float, float]:
    lo = -box if cell.lower is None else float(cell.lower)
    hi = box if cell.upper is None else float(cell.upper)
    if lo >= hi:
        lo, hi = min(lo, hi - 1e-9), max(hi, lo + 1e-9)
    return lo, hi


# ---------------------------------------------------------------------------
# set descriptors and bracketed distances


@dataclass(frozen=True)
class Ball:
    center: tuple
    radius: float


Piece = Union[PointCell, Ball, GraphCell]


@dataclass(frozen=True)
class SetDescriptor:
    """Finite union of cell closures, balls and points.  The empty
    descriptor has distance exactly 1 by convention."""
    pieces: tuple[Piece, ...]

    @property
    def is_empty(self) -> bool:
        return not self.pieces


EMPTY_SET = SetDescriptor(())


def descriptor_of(*pieces) -> SetDescriptor:
    return SetDescriptor(tuple(pieces))


@dataclass(frozen=True)
class Bracket:
    lo: float
    up: float

    @property
    def width(self) -> float:
        return self.up - self.lo

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.up)


def _exact(v: float) -> Bracket:
    return Bracket(v, v)


def set_distance(desc: SetDescriptor, x, tol: float = 1e-6,
                 box: float = DEFAULT_BOX_HALFWIDTH,
                 strict: bool = False,
                 coarse: int = DEFAULT_COARSE) -> Bracket:
    """Bracketed distance from ``x`` to the descriptor.  Empty set -> 1.

    One row of :func:`distance_brackets`, except that a golden-section
    search around the best net point may lower the upper bracket of 1-d
    net-backed cells.  ``coarse`` controls the candidate-net resolution
    for pieces without a closed form; finer nets can only shrink the
    upper bracket.  ``strict=True`` raises :class:`ConvergenceFailure`
    when the bracket stays wider than ``tol``; by default the wide
    bracket is returned.
    """
    if desc.is_empty:
        return _exact(1.0)
    table = distance_table(desc, box, coarse)
    x = np.array(x, dtype=float)
    lo = up = min([math.inf] + table.exact(x).tolist())
    for cell, net in table.nets:
        n_lo, n_up, nearest = net.scan(x[None, :])
        n_lo, n_up = float(n_lo[0]), float(n_up[0])
        if cell.intrinsic_dim == 1:
            t0 = float(net.params[nearest[0], 0])
            n_up = min(n_up, _polish_1d(cell, x, t0, box))
        lo, up = min(lo, n_lo, n_up), min(up, n_up)
    if strict and up - lo > tol:
        raise ConvergenceFailure(
            f"distance bracket width {up - lo:.3e} exceeds {tol:.3e}")
    return Bracket(lo, up)


def distance_brackets(desc: SetDescriptor, X,
                      box: float = DEFAULT_BOX_HALFWIDTH):
    """Lower and upper distance brackets from every row of ``X`` to the
    descriptor, as two arrays.  Empty set -> 1."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if desc.is_empty:
        return np.ones(len(X)), np.ones(len(X))
    return distance_table(desc, box, DEFAULT_COARSE)(X)


@functools.lru_cache(maxsize=64)
def distance_table(desc: SetDescriptor, box: float,
                   coarse: int) -> "DistanceTable":
    """The :class:`DistanceTable` of a non-empty descriptor, built once per
    ``(desc, box, coarse)``."""
    return DistanceTable(desc, box, coarse)


class DistanceTable:
    """Batched distance rules of a descriptor, one per piece kind.

    Pieces with a closed form are axis boxes inflated by a radius: a point
    is a degenerate box, a ball a degenerate box with its radius, the full
    space an unbounded box, and a constant graph over a constant-wall box
    an ambient box that is degenerate along the normal axes (the clamp in
    the base plus the constant normal offset).  Their brackets are exact.
    Every other cell scans its embedded :func:`piece_net`.
    """

    def __init__(self, desc: SetDescriptor, box: float, coarse: int):
        lows, highs, radii = [], [], []
        self.nets: list[tuple[GraphCell, PieceNet]] = []
        for piece in desc.pieces:
            exact = closed_form_box(piece, box)
            if exact is None:
                self.nets.append((piece, piece_net(piece, box, coarse)))
            else:
                lows.append(exact[0])
                highs.append(exact[1])
                radii.append(exact[2])
        n = len(lows[0]) if lows else self.nets[0][1].points.shape[1]
        self.lows = np.asarray(lows, dtype=float).reshape(len(lows), n)
        self.highs = np.asarray(highs, dtype=float).reshape(len(lows), n)
        self.radii = np.asarray(radii, dtype=float) if any(radii) else None
        # without extent, every box is its own nearest point
        self.extent = bool(np.any(self.lows < self.highs))

    def exact(self, X: np.ndarray) -> np.ndarray:
        """Distances from a point, or every row of ``X`` (axis 0), to every
        closed-form piece (last axis, in descriptor order)."""
        Y = X[..., None, :]
        near = (np.minimum(np.maximum(Y, self.lows), self.highs)
                if self.extent else self.lows)
        d = _row_norms(Y - near)
        return d if self.radii is None else np.maximum(0.0, d - self.radii)

    def __call__(self, X: np.ndarray):
        lo = up = self.exact(X).min(axis=1, initial=np.inf)
        for _, net in self.nets:
            n_lo, n_up, _ = net.scan(X)
            lo, up = np.minimum(lo, n_lo), np.minimum(up, n_up)
        return lo, up


def closed_form_box(piece: Piece, box: float):
    """``(lower corner, upper corner, radius)`` in ambient coordinates for
    a piece whose distance has a closed form (see :class:`DistanceTable`),
    None for a cell that needs a net."""
    if isinstance(piece, PointCell):
        return piece.point, piece.point, 0.0
    if isinstance(piece, Ball):
        return piece.center, piece.center, float(piece.radius)
    if not isinstance(piece, GraphCell):
        raise UnsupportedDescriptor(
            f"no distance rule for {type(piece).__name__}")
    if _is_full_space(piece):
        n = piece.ambient_dim
        return (-math.inf,) * n, (math.inf,) * n, 0.0
    if any(g.root.op != "const" for g in piece.graph):
        return None
    bounds = _as_box(piece.base, box)
    if bounds is None:
        return None
    walls = [(float(g.root.payload),) * 2 for g in piece.graph]
    lo, hi = zip(*piece.to_ambient(bounds + walls))
    return lo, hi, 0.0


def _row_norms(D: np.ndarray) -> np.ndarray:
    """Euclidean norms along the last axis."""
    return np.sqrt(np.add.reduce(D * D, -1))


def _distances(X: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Distances from every row of ``X`` (axis 0) to every row of ``points``
    (axis 1), summed one coordinate at a time so that each numpy pass runs
    over a whole matrix instead of a length-``n`` last axis.  Below 8
    coordinates numpy sums a last axis in order too, so this is
    ``_row_norms(X[:, None] - points)`` bit for bit."""
    acc = np.zeros((len(X), len(points)))
    for k in range(X.shape[1]):
        diff = X[:, k, None] - points[:, k]
        acc += diff * diff
    return np.sqrt(acc)


@dataclass(frozen=True, eq=False)
class PieceNet:
    """Parameter net of a cell's closure, embedded in the ambient space.

    ``cov[i]`` is the parameter-space covering radius of the i-th net
    point and ``slack[i] = cov[i] * (1 + L)`` its ambient counterpart,
    with ``L`` a sampled bound on the slope of the graph map.
    """
    params: np.ndarray
    cov: np.ndarray
    points: np.ndarray
    slack: np.ndarray

    def scan(self, X: np.ndarray):
        """``(lo, up, nearest)`` per row of ``X``: ``up = min_i d_i``,
        ``lo = max(0, min_i(d_i - slack_i))`` and the index of the best
        net point.  Rows go in chunks whose distance matrix stays near
        200,000 entries, which bounds the memory of a batched call."""
        n = len(X)
        lo, up = np.empty(n), np.empty(n)
        nearest = np.empty(n, dtype=int)
        chunk = max(1, 200_000 // len(self.points))
        for start in range(0, n, chunk):
            sl = slice(start, min(n, start + chunk))
            d = _distances(X[sl], self.points)
            nearest[sl] = np.argmin(d, axis=1)
            up[sl] = d.min(axis=1)
            lo[sl] = np.maximum(0.0, (d - self.slack).min(axis=1))
        return lo, up, nearest


@functools.lru_cache(maxsize=32)
def piece_net(cell: GraphCell, box: float, coarse: int) -> PieceNet:
    """The embedded net of ``cell``, built once per ``(cell, box, coarse)``
    and shared read-only by every caller."""
    params, cov = cell_param_net(cell.base, box, coarse=coarse)
    points = np.asarray([cell.embed(tuple(u)) for u in params],
                        dtype=float).reshape(len(params), cell.ambient_dim)
    slack = cov * (1.0 + _net_lipschitz(cell, params))
    for a in (params, cov, points, slack):
        a.setflags(write=False)
    return PieceNet(params, cov, points, slack)


def _is_full_space(cell: GraphCell) -> bool:
    if cell.graph:
        return False
    base = cell.base
    while isinstance(base, Slab):
        if base.lower is not None or base.upper is not None:
            return False
        base = base.base
    return base.lower is None and base.upper is None


def _as_box(cell: OpenCell, box: float):
    """Constant-wall open cells are axis boxes; return bounds or None."""
    bounds = []
    while isinstance(cell, Slab):
        for wall in (cell.lower, cell.upper):
            if wall is not None and wall.root.op != "const":
                return None
        lo = -box if cell.lower is None else float(cell.lower.root.payload)
        hi = box if cell.upper is None else float(cell.upper.root.payload)
        bounds.append((lo, hi))
        cell = cell.base
    lo, hi = interval_bounds(cell, box)
    bounds.append((lo, hi))
    bounds.reverse()
    return bounds


def _net_lipschitz(cell: GraphCell, net: np.ndarray) -> float:
    """Crude bound on |phi'| over the net, for covering-radius brackets."""
    if not cell.graph:
        return 0.0
    m = cell.intrinsic_dim
    worst = 0.0
    step = max(1, len(net) // 64)
    for u in net[::step]:
        row = 0.0
        for phi in cell.graph:
            for i in range(m):
                alpha = tuple(1 if j == i else 0 for j in range(m))
                try:
                    g = expr.evaluate(expr.differentiate(phi, alpha), tuple(u))
                except SingularPoint:
                    continue
                row += float(g) ** 2
        worst = max(worst, math.sqrt(row))
    return 1.5 * worst


def _polish_1d(cell: GraphCell, x: np.ndarray, t0: float, box: float) -> float:
    """Golden-section refinement of the candidate parameter for m=1 cells."""
    lo, hi = interval_bounds(_innermost_interval(cell.base), box)

    def f(t):
        try:
            p = np.asarray(cell.embed((t,)), dtype=float)
        except SingularPoint:
            return math.inf
        return float(np.linalg.norm(p - x))

    span = (hi - lo) / 64.0
    a, b = max(lo, t0 - span), min(hi, t0 + span)
    phi = (math.sqrt(5) - 1) / 2
    c, d = b - phi * (b - a), a + phi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(70):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = f(d)
    return min(fc, fd)


def _innermost_interval(cell: OpenCell) -> Interval:
    while isinstance(cell, Slab):
        cell = cell.base
    return cell


# ---------------------------------------------------------------------------
# parameter nets (embedded and cached per piece by :func:`piece_net`)


def cell_param_net(base: OpenCell, box: float = DEFAULT_BOX_HALFWIDTH,
                   coarse: int = DEFAULT_COARSE, refine_ratio: float = 0.94,
                   floor: float = 1e-9):
    """Sample net of the closure of an open cell, clustered geometrically
    toward the finite boundary so the relative covering radius stays small
    arbitrarily close to the frontier.

    Returns ``(points, cov)`` where ``cov[i]`` bounds the distance from any
    closure point in the i-th point's patch to the net, measured in
    parameter space.
    """
    dim = open_cell_dim(base)
    if dim == 1:
        lo, hi = interval_bounds(base, box)
        ts, cov = _interval_net(lo, hi, base.lower is not None,
                                base.upper is not None, coarse,
                                refine_ratio, floor)
        return ts.reshape(-1, 1), cov
    if dim == 2 and isinstance(base, Slab):
        return _slab_net_2d(base, box, coarse, refine_ratio, floor)
    raise UnsupportedDescriptor(
        f"parameter nets implemented for dimensions 1-2, got {dim}")


def _interval_net(lo, hi, lower_finite, upper_finite, coarse, ratio, floor):
    span = hi - lo
    ts = list(np.linspace(lo, hi, coarse))
    spacing = span / (coarse - 1)
    cov = [spacing / 2.0] * coarse
    for endpoint, finite, sign in ((lo, lower_finite, 1), (hi, upper_finite, -1)):
        if not finite:
            continue
        t = span / 2.0
        while t > floor * max(span, 1.0):
            nxt = t * ratio
            ts.append(endpoint + sign * t)
            cov.append((t - nxt) / 2.0 + floor * span)
            t = nxt
        ts.append(endpoint)
        cov.append(t)
    ts = np.asarray(ts)
    order = np.argsort(ts)
    return ts[order], np.asarray(cov)[order]


def _wall_interval(base: Slab, t: float, box: float) -> tuple[float, float]:
    """The fibre ``(lower wall, upper wall)`` of a slab over the base
    parameter ``t``, a missing wall read as ``-box`` or ``box``; raises
    :class:`SingularPoint` where a wall does."""
    wlo = (-box if base.lower is None
           else float(expr.evaluate(base.lower, (t,))))
    whi = (box if base.upper is None
           else float(expr.evaluate(base.upper, (t,))))
    return wlo, whi


def _slab_net_2d(base: Slab, box, coarse, ratio, floor):
    lo, hi = interval_bounds(base.base, box)
    coarse2 = max(17, coarse // 4)
    t1, cov1 = _interval_net(lo, hi, base.base.lower is not None,
                             base.base.upper is not None, coarse2,
                             max(0.85, ratio - 0.06), max(floor, 1e-6))
    pts, covs = [], []
    for t, c in zip(t1, cov1):
        try:
            wlo, whi = _wall_interval(base, t, box)
        except SingularPoint:
            continue
        if whi <= wlo:
            continue
        t2, cov2 = _interval_net(wlo, whi, base.lower is not None,
                                 base.upper is not None, coarse2,
                                 max(0.85, ratio - 0.06), max(floor, 1e-6))
        for s, c2 in zip(t2, cov2):
            pts.append((t, s))
            covs.append(math.hypot(c, c2))
    return np.asarray(pts), np.asarray(covs)


def stratum_samples(cell, k: int, box: float = DEFAULT_BOX_HALFWIDTH,
                    rng: Optional[np.random.Generator] = None):
    """Deterministic parameter samples on a stratum: uniform interior
    coverage plus dyadic approaches to each finite endpoint.  Returns a
    list of parameter tuples (empty tuple for point cells)."""
    if isinstance(cell, PointCell):
        return [()]
    base = cell.base
    dim = open_cell_dim(base)
    if dim == 1:
        lo, hi = interval_bounds(base, box)
        span = hi - lo
        inner = list(lo + span * (np.arange(1, k + 1) - 0.5) / k)
        for j in range(3, 11):
            off = span * 2.0 ** (-j)
            if base.lower is not None:
                inner.append(lo + off)
            if base.upper is not None:
                inner.append(hi - off)
        if rng is not None:
            jitter = (rng.random(len(inner)) - 0.5) * (span / (4 * k))
            inner = [min(hi - 1e-9 * span, max(lo + 1e-9 * span, t + j))
                     for t, j in zip(inner, jitter)]
        return [(float(t),) for t in sorted(inner)]
    if dim == 2 and isinstance(base, Slab):
        side = max(3, int(math.sqrt(k)))
        lo, hi = interval_bounds(base.base, box)
        out = []
        for t in np.linspace(lo, hi, side + 2)[1:-1]:
            wlo, whi = _wall_interval(base, t, box)
            for s in np.linspace(wlo, whi, side + 2)[1:-1]:
                out.append((float(t), float(s)))
        return out
    raise UnsupportedDescriptor("samples implemented for dimensions 0-2")


# ---------------------------------------------------------------------------
# boundary descriptors


def open_cell_boundary(cell: OpenCell, box: float = DEFAULT_BOX_HALFWIDTH
                       ) -> SetDescriptor:
    """Descriptor of the finite boundary of an open cell in its own space."""
    dim = open_cell_dim(cell)
    pieces: list[Piece] = []
    if isinstance(cell, Interval):
        if cell.lower is not None:
            pieces.append(PointCell((float(cell.lower),)))
        if cell.upper is not None:
            pieces.append(PointCell((float(cell.upper),)))
        return SetDescriptor(tuple(pieces))
    for wall in (cell.lower, cell.upper):
        if wall is not None:
            pieces.append(GraphCell(cell.base, (wall,), tuple(range(dim))))
    inner = open_cell_boundary(cell.base, box)
    for p in inner.pieces:
        if isinstance(p, PointCell):
            # side wall over a base boundary point: a vertical segment
            t = p.point
            try:
                wlo = (None if cell.lower is None
                       else expr.evaluate(cell.lower, t))
                whi = (None if cell.upper is None
                       else expr.evaluate(cell.upper, t))
            except SingularPoint:
                wlo = whi = None
            seg = Interval(None if wlo is None else float(wlo),
                           None if whi is None else float(whi))
            pieces.append(GraphCell(
                seg, tuple(expr.constant_fn(v, 1) for v in t),
                tuple([dim - 1] + list(range(dim - 1)))))
        else:
            raise UnsupportedDescriptor(
                "boundary descriptors implemented through dimension 2")
    return SetDescriptor(tuple(pieces))


def graph_cell_frontier(cell: GraphCell, box: float = DEFAULT_BOX_HALFWIDTH
                        ) -> SetDescriptor:
    """Closure minus cell: the graph restricted over the base boundary,
    approximated by limit points for interval bases."""
    base = cell.base
    if isinstance(base, Interval):
        lo, hi = interval_bounds(base, box)
        eps = 1e-9 * max(1.0, hi - lo)
        pieces = []
        if base.lower is not None:
            pieces.append(PointCell(cell.embed((lo + eps,))))
        if base.upper is not None:
            pieces.append(PointCell(cell.embed((hi - eps,))))
        return SetDescriptor(tuple(pieces))
    raise UnsupportedDescriptor("frontier descriptors need interval bases")


# ---------------------------------------------------------------------------
# probes


@dataclass
class RegularityReport:
    """Empirical boundary-scaled derivative constants per multi-index:
    ``c_hat[alpha] = max |D^alpha f| * d(x, boundary)^(|alpha|-1)``."""
    c_hat: dict
    witness: dict
    ratio: dict
    verdict: str
    samples: int


def _regularity_samples(cell: OpenCell, grid: int, depth: int, box: float):
    """Uniform interior samples plus dyadic approaches to each finite
    boundary wall; ``depth`` controls how close the approach gets, so a
    refinement level genuinely probes deeper into any blow-up."""
    dim = open_cell_dim(cell)
    if dim == 1:
        lo, hi = interval_bounds(cell, box)
        span = hi - lo
        ts = list(lo + span * (np.arange(1, grid + 1) - 0.5) / grid)
        for j in range(3, depth + 1):
            off = span * 2.0 ** (-j)
            if cell.lower is not None:
                ts.append(lo + off)
            if cell.upper is not None:
                ts.append(hi - off)
        return [(float(t),) for t in ts]
    if dim == 2 and isinstance(cell, Slab):
        side = max(4, int(math.sqrt(grid)))
        out = []
        for (t,) in _regularity_samples(cell.base, side, depth, box):
            try:
                wlo, whi = _wall_interval(cell, t, box)
            except SingularPoint:
                continue
            span = whi - wlo
            for s in np.linspace(wlo + span / (2 * side),
                                 whi - span / (2 * side), side):
                out.append((t, float(s)))
            for j in range(3, depth + 1):
                off = span * 2.0 ** (-j)
                if cell.lower is not None:
                    out.append((t, wlo + off))
                if cell.upper is not None:
                    out.append((t, whi - off))
        return out
    raise UnsupportedDescriptor("regularity probe implemented for dim <= 2")


def check_cell_regularity(f: ExprFn, cell: OpenCell, order: int,
                          grid: int = 120,
                          box: float = DEFAULT_BOX_HALFWIDTH
                          ) -> RegularityReport:
    """Probe whether |D^alpha f| stays below C / d(x, boundary)^(|alpha|-1)
    on the cell, for 1 <= |alpha| <= order.

    Two refinement levels, the finer one approaching the boundary four
    dyadic levels deeper; the constant is 'plausibly regular' when the
    finer level grows the observed maximum by less than 2x, and flagged
    otherwise with the witness sample."""
    n = f.arity
    boundary = open_cell_boundary(cell, box)
    levels = []
    for grid_k, depth in ((grid, 12), (grid * 2, 16)):
        samples = _regularity_samples(cell, grid_k, depth, box)
        dists = [set_distance(boundary, u, box=box).up for u in samples]
        c_hat: dict = {}
        witness: dict = {}
        for alpha in multi_indices(n, order):
            if mi_order(alpha) == 0:
                continue
            df = expr.differentiate(f, alpha)
            best, best_x = 0.0, None
            for u, d in zip(samples, dists):
                try:
                    val = abs(float(expr.evaluate(df, u)))
                except SingularPoint:
                    continue
                scaled = val * d ** (mi_order(alpha) - 1)
                if scaled > best:
                    best, best_x = scaled, u
            c_hat[alpha] = best
            witness[alpha] = best_x
        levels.append((c_hat, witness))
    coarse, fine = levels[0][0], levels[1][0]
    ratio = {a: (fine[a] / coarse[a] if coarse[a] > 0 else 1.0)
             for a in fine}
    stable = all(r < 2.0 for r in ratio.values())
    return RegularityReport(
        c_hat=fine, witness=levels[1][1], ratio=ratio,
        verdict="plausibly regular" if stable else "unbounded suspicion",
        samples=len(levels[1][1]))


@dataclass
class LipschitzReport:
    m_hat: float
    l_hat: float
    samples: int


def lipschitz_estimate(graph: Sequence[ExprFn], base: OpenCell,
                       samples: int = 400,
                       box: float = DEFAULT_BOX_HALFWIDTH) -> LipschitzReport:
    """Empirical Lipschitz constant of a graph map as the max sampled
    operator norm of its Jacobian, and the derived slope factor
    ``1/sqrt(1 + M^2)`` used by the distance sandwich."""
    if not graph:
        return LipschitzReport(0.0, 1.0, 0)
    m = graph[0].arity
    pts = stratum_samples(identity_graph_cell(base), samples, box)
    worst = 0.0
    for u in pts:
        jac = np.zeros((len(graph), m))
        ok = True
        for r, phi in enumerate(graph):
            for i in range(m):
                alpha = tuple(1 if j == i else 0 for j in range(m))
                try:
                    jac[r, i] = float(
                        expr.evaluate(expr.differentiate(phi, alpha), u))
                except SingularPoint:
                    ok = False
        if ok:
            worst = max(worst, float(np.linalg.norm(jac, 2)))
    return LipschitzReport(worst, 1.0 / math.sqrt(1.0 + worst * worst),
                           len(pts))


@dataclass
class SandwichReport:
    checked: int
    violations: list
    max_graph_gap: float


def distance_sandwich_check(cell: GraphCell, samples: Sequence,
                            eps: float = 1e-6,
                            box: float = DEFAULT_BOX_HALFWIDTH
                            ) -> SandwichReport:
    """Check the two-sided comparison between the true distance to a graph
    cell and the normal offset |w - phi(u)|, with slope factor from the
    Lipschitz probe; samples outside the parameter slab are checked against
    the frontier inequality instead."""
    m = cell.intrinsic_dim
    lip = lipschitz_estimate(cell.graph, cell.base, box=box)
    desc = descriptor_of(cell)
    frontier = graph_cell_frontier(cell, box)
    violations = []
    max_gap = 0.0
    graph_const = all(g.root.op == "const" for g in cell.graph)
    for x in samples:
        y = cell.to_internal(x)
        u, w = y[:m], y[m:]
        d = set_distance(desc, x, box=box)
        if open_cell_contains(cell.base, u) == INSIDE:
            try:
                offs = [float(wi) - float(expr.evaluate(phi, u))
                        for wi, phi in zip(w, cell.graph)]
            except SingularPoint:
                continue
            gap = math.sqrt(sum(o * o for o in offs))
            if not (lip.l_hat * gap - eps <= d.up and d.up <= gap + eps):
                violations.append((tuple(map(float, x)), d.up, gap))
            if graph_const:
                # zero slope forces equality between the distance and the
                # normal offset; record how tightly it holds
                max_gap = max(max_gap, abs(d.up - gap))
        else:
            db = set_distance(frontier, x, box=box)
            if d.up < lip.l_hat * db.lo - eps:
                violations.append((tuple(map(float, x)), d.up, db.lo))
    return SandwichReport(len(samples), violations, max_gap)


def simply_separated_probe(a_desc: SetDescriptor, b_desc: SetDescriptor,
                           intersection: SetDescriptor,
                           samples_on_a: Sequence,
                           box: float = DEFAULT_BOX_HALFWIDTH):
    """Empirical constant for ``d(x, A∩B) <= M d(x, B)`` over samples of A.

    Returns ``(m_hat, flagged)`` where ``flagged`` means the ratio doubled
    between the far and near halves of the samples sorted by distance to
    the intersection, i.e. the constant looks unbounded.
    """
    ratios = []
    for x in samples_on_a:
        d_b = set_distance(b_desc, x, box=box).mid
        d_i = set_distance(intersection, x, box=box).mid
        if d_b <= 1e-12:
            continue
        ratios.append((d_i, d_i / d_b))
    if not ratios:
        return 0.0, False
    ratios.sort(key=lambda t: t[0])
    half = max(1, len(ratios) // 2)
    near = max(r for _, r in ratios[:half])
    far = max(r for _, r in ratios[half:]) if ratios[half:] else near
    m_hat = max(near, far)
    flagged = near > 2.0 * max(far, 1e-12) and near > 4.0
    return m_hat, flagged


def quasi_convexity_probe(cell, pairs: Sequence, mesh: int = 33,
                          box: float = DEFAULT_BOX_HALFWIDTH) -> float:
    """Max over pairs of (shortest mesh path inside the cell) / (chord).

    The mesh is a uniform grid of inside points joined to axis and
    diagonal neighbours; path length is measured in the ambient space
    (through the graph map when present).
    """
    if isinstance(cell, GraphCell) and cell.graph:
        dim = cell.intrinsic_dim
        base = cell.base
        embed = lambda u: np.asarray(cell.embed(tuple(u)), dtype=float)
    else:
        base = cell.base if isinstance(cell, GraphCell) else cell
        dim = open_cell_dim(base)
        embed = lambda u: np.asarray(u, dtype=float)

    # grid nodes sit at an irrational fraction of each step so they cannot
    # land exactly on piecewise wall guards
    def offset_grid(lo, hi, count):
        return lo + (hi - lo) * (np.arange(count) + 0.381966) / count

    axes = []
    if dim == 1:
        lo, hi = interval_bounds(_innermost_interval(base), box)
        axes = [offset_grid(lo, hi, mesh)]
    elif dim == 2:
        lo, hi = interval_bounds(_innermost_interval(base), box)
        axes = [offset_grid(lo, hi, mesh), None]
    else:
        raise UnsupportedDescriptor("mesh probe implemented for dim <= 2")

    nodes = {}
    if dim == 1:
        for i, t in enumerate(axes[0]):
            if open_cell_contains(base, (t,)) == INSIDE:
                nodes[(i,)] = embed((t,))
    else:
        tlo, thi = interval_bounds(_innermost_interval(base), box)
        wlo = min(-box, tlo)
        whi = max(box, thi)
        # second axis range from wall samples
        vals = []
        for t in axes[0]:
            try:
                if isinstance(base, Slab):
                    ends = zip(_wall_interval(base, t, box),
                               (base.lower, base.upper))
                    vals.extend(w for w, wall in ends if wall is not None)
            except SingularPoint:
                pass
        if vals:
            wlo, whi = min(vals), max(vals)
        grid2 = offset_grid(wlo, whi, mesh)
        for i, t in enumerate(axes[0]):
            for j, s in enumerate(grid2):
                if open_cell_contains(base, (t, s)) == INSIDE:
                    nodes[(i, j)] = embed((t, s))

    if not nodes:
        raise MeshDisconnected("no mesh node lies inside the cell")

    neighbours = list(itertools.product((-1, 0, 1), repeat=dim))
    neighbours.remove((0,) * dim)

    def dijkstra(src, dst):
        dist = {src: 0.0}
        heap = [(0.0, src)]
        while heap:
            d, node = heapq.heappop(heap)
            if node == dst:
                return d
            if d > dist.get(node, math.inf):
                continue
            for off in neighbours:
                nb = tuple(a + o for a, o in zip(node, off))
                if nb not in nodes:
                    continue
                nd = d + float(np.linalg.norm(nodes[nb] - nodes[node]))
                if nd < dist.get(nb, math.inf):
                    dist[nb] = nd
                    heapq.heappush(heap, (nd, nb))
        raise MeshDisconnected("mesh path not found; refine the mesh")

    def nearest_node(p):
        p = np.asarray(p, dtype=float)
        return min(nodes, key=lambda k: float(np.linalg.norm(nodes[k] - p)))

    worst = 1.0
    for a, b in pairs:
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        chord = float(np.linalg.norm(a - b))
        if chord <= 1e-12:
            continue
        na, nb = nearest_node(a), nearest_node(b)
        path = dijkstra(na, nb)
        path += float(np.linalg.norm(nodes[na] - a))
        path += float(np.linalg.norm(nodes[nb] - b))
        worst = max(worst, path / chord)
    return worst
