"""Cell geometry: membership, bracketed distances, the slab tower walker
(parameter nets, samples, boundary pieces and frontiers of a cell of any
dimension), and the Lipschitz and distance-sandwich probes of graph cells.

Cells come in three shapes.  An *open cell* lives in its own ambient space
and is either an interval or a slab between two expression walls over a
lower-dimensional open cell.  A *graph cell* is the image of an open cell
under ``u -> (u, phi(u))``, possibly after a coordinate permutation, and
has empty interior in the ambient space.  A *point cell* is a single
point.

Distances are always reported as brackets ``[lo, up]`` by one batched
table per descriptor (:class:`DistanceTable`): exact for points, balls,
the full space and constant graphs over boxes; otherwise ``up`` is the
lesser of the distances to a foot point, which Newton steps refine from
the best point of a cached embedded net, and to the cell's frontier
pieces, and ``lo`` subtracts the net's covering radius.
Both probes sample; neither is a proof.
"""
from __future__ import annotations

import functools
import math
from typing import Optional, Sequence, Union

import numpy as np

from . import expr
from .errors import Record, SingularPoint, UnsupportedDescriptor
from .expr import ExprFn

DEFAULT_BOX_HALFWIDTH = 10.0

# ---------------------------------------------------------------------------
# cell descriptions


class Interval(Record):
    """Open interval; ``None`` bounds mean the line is unbounded there."""
    lower: Optional[float]
    upper: Optional[float]


class Slab(Record):
    """Open set between two walls over a lower-dimensional open cell."""
    base: "OpenCell"
    lower: Optional[ExprFn]
    upper: Optional[ExprFn]


OpenCell = Union[Interval, Slab]


class GraphCell(Record):
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

    def embed_rows(self, U: np.ndarray) -> np.ndarray:
        """Ambient points over the parameter rows ``U``; raises
        :class:`SingularPoint` where a graph map is singular."""
        X = np.empty((len(U), self.ambient_dim))
        X[:, list(self.perm)] = np.hstack(
            [U] + [expr.evaluate_rows_or_raise(phi, U)[:, None]
                   for phi in self.graph])
        return X


class PointCell(Record):
    """A point: its frame is the ambient one, any parameter embeds to it."""
    point: tuple
    intrinsic_dim = 0

    def to_ambient(self, y):
        return tuple(y)

    def embed_rows(self, U: np.ndarray) -> np.ndarray:
        return np.tile(np.asarray(self.point, dtype=float), (len(U), 1))


def open_cell_dim(cell: OpenCell) -> int:
    return 1 if isinstance(cell, Interval) else 1 + open_cell_dim(cell.base)


def identity_graph_cell(base: OpenCell) -> GraphCell:
    n = open_cell_dim(base)
    return GraphCell(base, (), tuple(range(n)))


# ---------------------------------------------------------------------------
# membership

# Ternary membership codes; for graph and point cells INSIDE means on the
# set within the tolerance.
OUTSIDE, BOUNDARY, INSIDE = 0, 1, 2


def membership(cell, X, tol: float = 1e-9) -> np.ndarray:
    """The ``int8`` membership code of every row of ``X`` in a point, graph
    or open cell.  A graph map or wall goes through
    :func:`expr.evaluate_rows` once, on the rows not yet OUTSIDE; a row
    where one is singular is on the BOUNDARY, whatever the other maps say."""
    X = np.asarray(X, dtype=float)
    if isinstance(cell, PointCell):
        d = _row_norms(X - np.asarray(cell.point, dtype=float))
        status = np.zeros(len(X), dtype=np.int8)
        status[d <= tol] = INSIDE
        return status
    if isinstance(cell, GraphCell):
        m = cell.intrinsic_dim
        Y = X[:, list(cell.perm)]
        status = membership(cell.base, Y[:, :m], tol)
        rows = np.flatnonzero(status)
        U = Y[rows, :m]
        off = np.zeros(len(rows), dtype=bool)
        singular = np.zeros(len(rows), dtype=bool)
        for j, phi in enumerate(cell.graph):
            w, s = expr.evaluate_rows(phi, U)
            off |= np.abs(Y[rows, m + j] - w) > tol
            singular |= s
        status[rows[off]] = OUTSIDE
        status[rows[singular]] = BOUNDARY
        return status
    if isinstance(cell, Interval):
        lo = -math.inf if cell.lower is None else float(cell.lower)
        hi = math.inf if cell.upper is None else float(cell.upper)
        return _fibre_status(np.full(len(X), INSIDE, dtype=np.int8),
                             X[:, 0], lo, hi, tol)
    status = membership(cell.base, X[:, :-1], tol)
    rows = np.flatnonzero(status)
    lo, hi, singular = _walls(cell, X[rows, :-1], math.inf)
    sub = _fibre_status(status[rows], X[rows, -1], lo, hi, tol)
    sub[singular] = BOUNDARY
    status[rows] = sub
    return status


def _walls(cell: OpenCell, V: np.ndarray, box: float):
    """``(lower, upper, singular)``: the walls of a slab over the base rows
    ``V``, a missing wall read as ``-box`` or ``box``, and the rows where
    one is singular; an interval's :func:`interval_bounds` over rows
    without columns."""
    if isinstance(cell, Interval):
        lo, hi = interval_bounds(cell, box)
        return (np.full(len(V), lo), np.full(len(V), hi),
                np.zeros(len(V), dtype=bool))
    walls, singular = [], np.zeros(len(V), dtype=bool)
    for wall, default in ((cell.lower, -box), (cell.upper, box)):
        w, s = ((np.full(len(V), default), False) if wall is None
                else expr.evaluate_rows(wall, V))
        walls.append(w)
        singular |= s
    return walls[0], walls[1], singular


def _fibre_status(status, t, lo, hi, tol):
    """``status`` (the base's codes) with ``t`` compared to the walls
    ``lo < t < hi``: OUTSIDE beyond a wall by ``tol``, BOUNDARY within
    ``tol`` of one."""
    status[(t < lo + tol) | (t > hi - tol)] = BOUNDARY
    status[(t <= lo - tol) | (t >= hi + tol)] = OUTSIDE
    return status


def interval_bounds(cell: Interval, box: float) -> tuple[float, float]:
    lo = -box if cell.lower is None else float(cell.lower)
    hi = box if cell.upper is None else float(cell.upper)
    if lo >= hi:
        lo, hi = min(lo, hi - 1e-9), max(hi, lo + 1e-9)
    return lo, hi


# ---------------------------------------------------------------------------
# set descriptors and bracketed distances


class Ball(Record):
    center: tuple
    radius: float


Piece = Union[PointCell, Ball, GraphCell]


class SetDescriptor(Record):
    """Finite union of cell closures, balls and points.  The empty
    descriptor has distance exactly 1 by convention."""
    pieces: tuple[Piece, ...]

    @property
    def is_empty(self) -> bool:
        return not self.pieces


EMPTY_SET = SetDescriptor(())


def descriptor_of(*pieces) -> SetDescriptor:
    return SetDescriptor(tuple(pieces))


def distance_brackets(desc: SetDescriptor, X,
                      box: float = DEFAULT_BOX_HALFWIDTH):
    """Lower and upper distance brackets from every row of ``X`` to the
    descriptor, as two arrays.  Empty set -> 1."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if desc.is_empty:
        return np.ones(len(X)), np.ones(len(X))
    return distance_table(desc, box)(X)


@functools.lru_cache(maxsize=64)
def distance_table(desc: SetDescriptor, box: float) -> "DistanceTable":
    """The :class:`DistanceTable` of a non-empty descriptor, built once per
    ``(desc, box)``."""
    return DistanceTable(desc, box)


class DistanceTable:
    """Batched distance rules of a descriptor, one per piece kind.

    Pieces with a closed form are axis boxes inflated by a radius: a point
    is a degenerate box, a ball a degenerate box with its radius, the full
    space an unbounded box, and a constant graph over a constant-wall box
    an ambient box that is degenerate along the normal axes (the clamp in
    the base plus the constant normal offset).  Their brackets are exact.
    Every other cell scans its embedded :func:`piece_net` and refines each
    row's nearest net point into a foot point (:func:`_foot_distances`);
    the upper bracket is the lesser of its distance and those to the
    cell's :func:`frontier_pieces`, exact where the foot point stalls.
    """

    def __init__(self, desc: SetDescriptor, box: float):
        self.box = box
        boxes, self.nets = [], []         # nets: (cell, net, frontier)
        for piece in desc.pieces:
            exact = closed_form_box(piece, box)
            if exact is None:
                self.nets.append((piece, piece_net(piece, box),
                                  SetDescriptor(frontier_pieces(piece, box))))
            else:
                boxes.append(exact)
        lows, highs, radii = zip(*boxes) if boxes else ((), (), ())
        n = len(lows[0]) if lows else self.nets[0][1].points.shape[1]
        self.lows = np.asarray(lows, dtype=float).reshape(len(lows), n)
        self.highs = np.asarray(highs, dtype=float).reshape(len(lows), n)
        self.radii = np.asarray(radii, dtype=float)

    def exact(self, X: np.ndarray) -> np.ndarray:
        """Distances from a point, or every row of ``X`` (axis 0), to every
        closed-form piece (last axis, in descriptor order), summed one
        coordinate at a time in axis order as :func:`_row_norms` sums."""
        sq = 0.0
        for k, (low, high) in enumerate(zip(self.lows.T, self.highs.T)):
            y = X[..., k, None]
            gap = y - np.minimum(np.maximum(y, low), high)
            sq = sq + gap * gap
        return np.maximum(0.0, np.sqrt(sq) - self.radii)

    def floor(self, X: np.ndarray) -> np.ndarray:
        """At most ``lo`` on the rows of ``X``, with no net scan: the exact
        distances, and ``|x - c| - r - s`` over each net's balls."""
        lo = self.exact(X).min(axis=1, initial=np.inf)
        for _, net, _ in self.nets:
            reach = net.ball_radius + net.ball_slack
            for rows, d in _distance_blocks(X, net.points[net.ball_start]):
                np.minimum(lo[rows], np.subtract(d, reach, out=d).min(axis=1),
                           out=lo[rows])
        return lo

    def __call__(self, X: np.ndarray):
        lo = up = self.exact(X).min(axis=1, initial=np.inf)
        for cell, net, frontier in self.nets:
            n_lo, n_up, nearest = net.scan(X)
            n_up = _foot_distances(cell, net, X, n_up, nearest, self.box)
            if not frontier.is_empty:
                n_up = np.minimum(
                    n_up, distance_table(frontier, self.box)(X)[1])
            lo = np.minimum(lo, np.minimum(n_lo, n_up))
            up = np.minimum(up, n_up)
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
    if any(g.root.op != "const" for g in piece.graph):
        return None
    bounds = _as_box(piece.base, math.inf)
    if bounds is None:
        return None
    if piece.graph or any(b != (-math.inf, math.inf) for b in bounds):
        bounds = _as_box(piece.base, box)       # all but the full space
    walls = [(float(g.root.payload),) * 2 for g in piece.graph]
    lo, hi = zip(*piece.to_ambient(bounds + walls))
    return lo, hi, 0.0


def _row_norms(D: np.ndarray) -> np.ndarray:
    """Euclidean norms along the last axis."""
    return np.sqrt(np.add.reduce(D * D, -1))


# Entries of one row block of a distance kernel: 32,768 float64 values are
# 256 KiB, which stays in a core's L2 cache across the block's passes.
_BLOCK_ENTRIES = 32_768


def _distance_blocks(X: np.ndarray, points: Optional[np.ndarray],
                     lead: int = 0):
    """Stream the distances from the rows of ``X`` to the rows of ``points``
    in row blocks of about ``_BLOCK_ENTRIES`` entries.

    Yields ``(rows, block)``: ``rows`` slices ``X`` and ``block`` is a
    ``(len(rows), lead + len(points))`` view of one reused buffer, which the
    caller may overwrite.  Its first ``lead`` columns are the caller's to
    fill; the others hold the distances (none when ``points`` is None),
    summed one coordinate at a time, which below 8 coordinates is
    ``_row_norms(X[:, None] - points)`` bit for bit."""
    n, m = len(X), 0 if points is None else len(points)
    step = max(1, min(n, _BLOCK_ENTRIES // max(1, lead + m)))
    buf, tmp = np.empty((step, lead + m)), np.empty((step, m))
    for start in range(0, n, step):
        rows = slice(start, min(n, start + step))
        block = buf[:rows.stop - start]
        if m:
            x, acc, diff = X[rows], block[:, lead:], tmp[:len(block)]
            np.subtract(x[:, 0, None], points[:, 0], out=acc)
            np.multiply(acc, acc, out=acc)
            for k in range(1, X.shape[1]):
                np.subtract(x[:, k, None], points[:, k], out=diff)
                np.multiply(diff, diff, out=diff)
                np.add(acc, diff, out=acc)
            np.sqrt(acc, out=acc)
        yield rows, block


class PieceNet(Record):
    """Parameter net of a cell's closure, embedded in the ambient space:
    ``slack[i] = cov[i] * (1 + L)`` is the ambient covering radius of the
    i-th point, ``cov[i]`` its parameter-space one (see
    :func:`cell_param_net`) and ``L`` a sampled bound on the slope of the
    graph map.  Ball ``k``, the run of points from ``ball_start[k]`` to the
    next start, is one cell of a grid with ``_BALL_GRID`` cells along the
    net's longest side; it lies within ``ball_radius[k]`` of its first
    point and ``ball_slack[k]`` is its largest slack."""
    points: np.ndarray
    slack: np.ndarray
    ball_start: np.ndarray
    ball_radius: np.ndarray
    ball_slack: np.ndarray

    __eq__, __hash__ = object.__eq__, object.__hash__

    def scan(self, X: np.ndarray):
        """``(lo, up, nearest)`` per row of ``X``: ``up = min_i d_i``,
        ``lo = max(0, min_i(d_i - slack_i))`` and the index of the best
        net point, read off the row blocks of :func:`_distance_blocks`
        (the ``- slack`` pass writes into the block)."""
        n = len(X)
        lo, up = np.empty(n), np.empty(n)
        nearest = np.empty(n, dtype=int)
        for rows, d in _distance_blocks(X, self.points):
            np.argmin(d, axis=1, out=nearest[rows])
            np.min(d, axis=1, out=up[rows])
            np.min(np.subtract(d, self.slack, out=d), axis=1, out=lo[rows])
        return np.maximum(0.0, lo, out=lo), up, nearest


_BALL_GRID = 16


@functools.lru_cache(maxsize=32)
def piece_net(cell: GraphCell, box: float) -> PieceNet:
    """The embedded net of ``cell``, built once per ``(cell, box)`` and
    shared read-only by every caller."""
    params, cov = cell_param_net(cell.base, box)
    points = cell.embed_rows(params)
    slack = cov * (1.0 + _net_lipschitz(cell, params))
    low = points.min(axis=0)
    side = float((points.max(axis=0) - low).max()) / _BALL_GRID or 1.0
    cells = np.floor((points - low) / side)
    # one ball per grid cell: cells by first appearance, net order within
    _, seen, which = np.unique(cells @ (_BALL_GRID + 1.0) ** np.arange(
        cells.shape[1]), return_index=True, return_inverse=True)
    order = np.argsort(seen[which], kind="stable")
    points, slack, cells = points[order], slack[order], cells[order]
    start = np.flatnonzero(np.r_[True, np.any(cells[1:] != cells[:-1], 1)])
    first = np.repeat(start, np.diff(np.r_[start, len(points)]))
    gap = _row_norms(points - points[first])
    # widened so that rounding cannot lift |x - c| - r above a distance
    arrays = (points, slack, start,
              np.maximum.reduceat(gap, start) * (1.0 + 1e-9),
              np.maximum.reduceat(slack, start))
    for a in arrays:
        a.setflags(write=False)
    return PieceNet(*arrays)


def _as_box(cell: OpenCell, box: float):
    """Constant-wall open cells are axis boxes; return bounds or None."""
    lo, hi = cell.lower, cell.upper
    if isinstance(cell, Slab):
        below = _as_box(cell.base, box)
        if below is None or any(w is not None and w.root.op != "const"
                                for w in (lo, hi)):
            return None
        lo, hi = (None if w is None else w.root.payload for w in (lo, hi))
    return ([] if isinstance(cell, Interval) else below) + [
        (-box if lo is None else float(lo), box if hi is None else float(hi))]


def _net_lipschitz(cell: GraphCell, net: np.ndarray) -> float:
    """Crude bound on |phi'| over the net, for covering-radius brackets; a
    singular Jacobian entry counts as 0."""
    if not cell.graph:
        return 0.0
    jac, _, _ = _jacobian_rows(cell.graph, net[::max(1, len(net) // 64)])
    sq = np.where(np.isnan(jac), 0.0, jac * jac).reshape(len(jac), -1)
    return 1.5 * float(np.sqrt(np.add.reduce(sq, 1)).max(initial=0.0))


def _jacobian_rows(graph: Sequence[ExprFn], U: np.ndarray,
                   hessian: bool = False):
    """``(jac, hess, singular)``: the ``(N, k, m)`` Jacobian of the graph
    map on the rows of ``U``, its ``(N, k, m, m)`` Hessian when ``hessian``
    (else None), NaN at a singular entry, and the rows with any."""
    n, m = len(U), U.shape[1]
    units = [tuple(1 if j == i else 0 for j in range(m)) for i in range(m)]
    jac = np.empty((n, len(graph), m))
    hess = np.empty((n, len(graph), m, m)) if hessian else None
    singular = np.zeros(n, dtype=bool)
    for r, phi in enumerate(graph):
        for i in range(m):
            d_i = expr.differentiate(phi, units[i])
            jac[:, r, i], s = expr.evaluate_rows(d_i, U)
            singular |= s
            for j in range(i + 1 if hessian else 0):
                hess[:, r, i, j], s = expr.evaluate_rows(
                    expr.differentiate(d_i, units[j]), U)
                hess[:, r, j, i] = hess[:, r, i, j]
                singular |= s
    return jac, hess, singular


_FOOT_STEPS = 32      # cap on Newton iterations, and on halvings in one
_EPS = np.finfo(float).eps


def _foot_distances(cell: GraphCell, net: PieceNet, X: np.ndarray,
                    up: np.ndarray, nearest: np.ndarray,
                    box: float) -> np.ndarray:
    """``up``, the distances from the rows of ``X`` to their ``nearest``
    net points, lowered to those of foot points on the closure of ``cell``.

    Newton steps on ``|embed(u) - x|^2`` with the exact derivatives of the
    graph map (Gauss-Newton where that Hessian is not positive definite)
    start at each row's net point, are clamped to the closed base and are
    halved until they lower the row's distance.  Only the rows that
    improved take another step; a singular row keeps its net distance."""
    m, perm = cell.intrinsic_dim, list(cell.perm)
    Y = X[:, perm]
    Z = net.points[nearest][:, perm]        # (u, phi(u)) of the net points
    up = up.copy()
    rows = np.arange(len(X))
    for _ in range(_FOOT_STEPS):
        jac, hess, singular = _jacobian_rows(cell.graph, Z[rows, :m], True)
        rows, jac, hess = rows[~singular], jac[~singular], hess[~singular]
        if not len(rows):
            break
        diff = Z[rows] - Y[rows]
        grad = diff[:, :m] + np.einsum("nki,nk->ni", jac, diff[:, m:])
        gauss = np.eye(m) + np.einsum("nki,nkj->nij", jac, jac)
        newton = gauss + np.einsum("nk,nkij->nij", diff[:, m:], hess)
        step = _newton_steps(newton, gauss, grad)
        # a step scaled by t <= 1 lowers |embed(u) - x|^2 by at least about
        # t * gain; below that value's rounding, no halving can lower it
        gain = -np.einsum("ni,ni->n", grad, step)
        improved = np.zeros(len(rows), dtype=bool)
        todo, t = np.arange(len(rows)), 1.0
        for _ in range(_FOOT_STEPS):
            todo = todo[t * gain[todo] > _EPS * up[rows[todo]] ** 2]
            if not len(todo):
                break
            r = rows[todo]
            trial = np.empty((len(r), len(perm)))
            trial[:, :m], bad = _clamp_to_base(
                cell.base, Z[r, :m] + t * step[todo], box)
            for j, phi in enumerate(cell.graph):
                trial[:, m + j], s = expr.evaluate_rows(phi, trial[:, :m])
                bad |= s
            D = np.empty_like(trial)
            D[:, perm] = trial - Y[r]
            d = _row_norms(D)
            better = ~bad & (d < up[r])
            Z[r[better]], up[r[better]] = trial[better], d[better]
            improved[todo[better]] = True
            # a step the clamp undoes stays undone when halved
            moved = np.any(trial[:, :m] != Z[r, :m], axis=1)
            todo, t = todo[~better & moved], t / 2.0
        rows = rows[improved]
    return up


def _newton_steps(newton: np.ndarray, gauss: np.ndarray,
                  grad: np.ndarray) -> np.ndarray:
    """Rows of ``-grad`` solved against ``newton`` where it is positive
    definite, else against ``gauss``.  Nets stop at 2-d bases, so a closed
    form solves each 1x1 or 2x2 system (Cramer's rule)."""
    a = newton[:, 0, 0]
    if grad.shape[1] == 1:
        return -grad / np.where(a > 0.0, a, gauss[:, 0, 0])[:, None]
    b, d = newton[:, 0, 1], newton[:, 1, 1]         # smaller eigenvalue > 0
    convex = (a + d) / 2.0 - np.hypot((a - d) / 2.0, b) > 0.0
    (p, q), (r, t) = np.moveaxis(
        np.where(convex[:, None, None], newton, gauss), 0, -1)
    return (np.column_stack([q * grad[:, 1] - t * grad[:, 0],
                             r * grad[:, 0] - p * grad[:, 1]])
            / (p * t - q * r)[:, None])


def _clamp_to_base(base: OpenCell, U: np.ndarray, box: float):
    """``(U clamped, bad)``: every row of ``U`` clamped into the closure of
    the open cell ``base``, a missing bound read as ``-box`` or ``box``,
    last coordinate first clamped between the walls over the clamped rest;
    ``bad`` marks the rows where a wall is singular or the walls cross."""
    V, bad = ((U[:, :0], np.zeros(len(U), dtype=bool))
              if isinstance(base, Interval)
              else _clamp_to_base(base.base, U[:, :-1], box))
    lo, hi, singular = _walls(base, V, box)
    bad |= singular | (lo > hi)
    return np.column_stack([V, np.clip(U[:, -1], lo, hi)]), bad


# ---------------------------------------------------------------------------
# the slab tower walker: an open cell is an interval, then slabs over it;
# each walk ends at the interval with a 1-d rule and, on a slab, applies it
# to the fibre between the walls over every row its base gave

# (coarse, ratio, floor) of each net level by cell dimension (a 3-d tensor
# net would have about 10^7 points); 0.94 - 0.06 is just below 0.88
_NET_RULES = {1: (65, 0.94, 1e-9), 2: (17, 0.94 - 0.06, 1e-6)}


def cell_param_net(cell: OpenCell, box: float = DEFAULT_BOX_HALFWIDTH):
    """``(points, cov)``: a net of the closure of an open cell, each level
    clustered geometrically toward its finite ends so the relative covering
    radius stays small arbitrarily close to the frontier.  ``cov[i]``
    bounds the parameter distance from the i-th point's patch to the net:
    ``hypot(base cov, fibre cov)`` on a slab."""
    dim = open_cell_dim(cell)
    if dim not in _NET_RULES:
        raise UnsupportedDescriptor(
            f"parameter nets implemented for dimensions 1-2, got {dim}")
    return _tower_net(cell, box, _NET_RULES[dim])


def _tower_net(cell: OpenCell, box: float, rule):
    V, base_cov = ((np.empty((1, 0)), [0.0]) if isinstance(cell, Interval)
                   else _tower_net(cell.base, box, rule))
    wlo, whi, singular = _walls(cell, V, box)
    pts, covs = [np.empty((0, V.shape[1] + 1))], []
    for v, c, w0, w1, bad in zip(V, base_cov, wlo.tolist(), whi.tolist(),
                                 singular):
        if bad or w1 <= w0:
            continue
        ts, cov = _interval_net(w0, w1, cell.lower is not None,
                                cell.upper is not None, *rule)
        pts.append(np.column_stack([np.tile(v, (len(ts), 1)), ts]))
        covs.extend(math.hypot(c, c2) for c2 in cov)
    return np.vstack(pts), np.asarray(covs)


def _interval_net(lo, hi, lower_finite, upper_finite, coarse, ratio, floor):
    span, stop = hi - lo, floor * max(hi - lo, 1.0)
    # steps toward an end: half the span, times ratio, to the first <= stop
    t = np.cumprod([span / 2.0] + [ratio] * (2 + max(0, math.ceil(
        math.log(stop / (span / 2.0), ratio)))))
    t = t[:int(np.argmin(t > stop)) + 1]
    ts = [np.linspace(lo, hi, coarse)]
    cov = [np.full(coarse, span / (coarse - 1) / 2.0)]
    for end, finite, sign in ((lo, lower_finite, 1), (hi, upper_finite, -1)):
        if finite:
            ts += [end + sign * t[:-1], [end]]
            cov += [(t[:-1] - t[1:]) / 2.0 + floor * span, t[-1:]]
    ts = np.concatenate(ts)
    order = np.argsort(ts)
    return ts[order], np.concatenate(cov)[order]


def stratum_samples(cell, k: int, box: float = DEFAULT_BOX_HALFWIDTH,
                    rng=None) -> np.ndarray:
    """``(N, m)`` float parameter rows on a stratum of dimension ``m`` (one
    empty row on a point): on each level of its tower, midpoints and
    approaches at ``2^-j`` of the span to each finite end or wall; ``k``
    midpoints and ``j = 3..10`` on an interval, else ``side^d <= 4k``
    samples in all, the ``side // 4`` deepest approaches (1 to 8) going to
    each wall.  An ``rng`` whose ``random(shape)`` gives uniform doubles (a
    :class:`whitney.rng.SeededStream`) jitters them, the interval first."""
    if isinstance(cell, PointCell):
        return np.empty((1, 0))
    dim = open_cell_dim(cell.base)
    count, depth = k, 8
    if dim > 1:
        side = int((4 * k) ** (1.0 / dim) + 1e-9)
        depth = min(8, max(1, side // 4))
        count = max(1, side - 2 * depth)
    return _tower_samples(cell.base, box, count, range(11 - depth, 11), rng)


def _tower_samples(cell: OpenCell, box: float, count: int, exponents, rng):
    """``(N, dim)`` samples: each base row, then its fibre's, jittered by
    up to an eighth of the midpoint spacing and clamped inside."""
    V = (np.empty((1, 0)) if isinstance(cell, Interval)
         else _tower_samples(cell.base, box, count, exponents, rng))
    lo, hi, singular = _walls(cell, V, box)
    if singular.any():
        raise SingularPoint("slab wall singular at u="
                            f"{tuple(V[np.argmax(singular)].tolist())}")
    lo, hi = lo[:, None], hi[:, None]
    span = hi - lo
    cols = [lo + span * (np.arange(1, count + 1) - 0.5) / count]
    for j in exponents:
        off = span * 2.0 ** (-j)
        cols += ([lo + off] if cell.lower is not None else []) + (
            [hi - off] if cell.upper is not None else [])
    T = np.hstack(cols)
    if rng is not None:
        jitter = (rng.random(T.shape) - 0.5) * (span / (4 * count))
        T = np.minimum(hi - 1e-9 * span, np.maximum(lo + 1e-9 * span,
                                                    T + jitter))
    # Python's sort: numpy's sort kernels add 0.1-0.3 MB to peak RSS
    T = np.asarray([sorted(row) for row in T.tolist()])
    return np.column_stack([np.repeat(V, T.shape[1], axis=0), T.ravel()])


def boundary_pieces(cell: OpenCell) -> tuple:
    """The pieces of the finite boundary of an open cell, in its own space:
    an interval's finite ends; a slab's present walls, as graphs over its
    base, then its side wall over every boundary piece of the base."""
    if isinstance(cell, Interval):
        return tuple(PointCell((float(b),)) for b in (cell.lower, cell.upper)
                     if b is not None)
    dim = open_cell_dim(cell)
    pieces = [GraphCell(cell.base, (wall,), tuple(range(dim)))
              for wall in (cell.lower, cell.upper) if wall is not None]
    for piece in boundary_pieces(cell.base):
        if isinstance(piece, PointCell):     # an end of an interval base
            try:      # the segment between the walls, unbounded if singular
                ends = [None if w is None
                        else float(expr.evaluate(w, piece.point))
                        for w in (cell.lower, cell.upper)]
            except SingularPoint:
                ends = [None, None]
            pieces.append(GraphCell(Interval(*ends), (expr.constant_fn(
                piece.point[0], 1),), (1, 0)))
            continue
        # a slab over the piece's base between the walls through its embedding
        r, inner = piece.intrinsic_dim, _embedding(piece)
        walls = (None if w is None else expr.substitute(w, inner)
                 for w in (cell.lower, cell.upper))
        lift = [expr.coordinate(i, r + 1) for i in range(r)]
        pieces.append(GraphCell(
            Slab(piece.base, *walls),
            tuple(expr.substitute(psi, lift) for psi in piece.graph),
            piece.perm[:r] + (dim - 1,) + piece.perm[r:]))
    return tuple(pieces)


def _embedding(piece: GraphCell) -> list:
    """Ambient coordinates of a graph piece as expressions of its parameter."""
    r = piece.intrinsic_dim
    return list(piece.to_ambient(
        [expr.coordinate(i, r) for i in range(r)] + list(piece.graph)))


def frontier_pieces(cell: GraphCell, box: float = DEFAULT_BOX_HALFWIDTH
                    ) -> tuple:
    """Pieces of the frontier (closure minus cell) of a graph cell: its graph
    over each boundary piece of its base; over an interval, the limit points
    just inside the finite ends (a graph map may be singular at an end)."""
    base, m = cell.base, cell.intrinsic_dim
    if isinstance(base, Interval):
        lo, hi = interval_bounds(base, box)
        eps = 1e-9 * max(1.0, hi - lo)
        ends = [t for t, bound in ((lo + eps, base.lower),
                                   (hi - eps, base.upper))
                if bound is not None]
        X = cell.embed_rows(np.asarray(ends, dtype=float).reshape(-1, 1))
        return tuple(PointCell(tuple(x)) for x in X.tolist())
    return tuple(GraphCell(
        piece.base,
        piece.graph + tuple(expr.substitute(phi, _embedding(piece))
                            for phi in cell.graph),
        tuple(cell.perm[a] for a in piece.perm) + cell.perm[m:])
        for piece in boundary_pieces(base))


def frontier_samples(cell: GraphCell,
                     box: float = DEFAULT_BOX_HALFWIDTH) -> np.ndarray:
    """Rows of points on the frontier of a graph cell: 8 samples of each of
    its :func:`frontier_pieces` (a limit point is its own sample)."""
    return np.vstack([np.empty((0, cell.ambient_dim))] + [
        piece.embed_rows(stratum_samples(piece, 8, box))
        for piece in frontier_pieces(cell, box)])


# ---------------------------------------------------------------------------
# probes


class LipschitzReport(Record):
    m_hat: float
    l_hat: float


def lipschitz_estimate(graph: Sequence[ExprFn],
                       base: OpenCell) -> LipschitzReport:
    """Empirical Lipschitz constant of a graph map as the max sampled
    operator norm of its Jacobian over 400 base samples, and the derived
    slope factor ``1/sqrt(1 + M^2)`` used by the distance sandwich."""
    if not graph:
        return LipschitzReport(0.0, 1.0)
    jac, _, singular = _jacobian_rows(
        graph, stratum_samples(identity_graph_cell(base), 400))
    worst = float(np.linalg.norm(jac[~singular], 2, axis=(1, 2))
                  .max(initial=0.0))
    return LipschitzReport(worst, 1.0 / math.sqrt(1.0 + worst * worst))


class SandwichReport(Record):
    checked: int
    violations: list


def distance_sandwich_check(cell: GraphCell, samples: Sequence,
                            eps: float = 1e-6) -> SandwichReport:
    """Check the two-sided comparison between the true distance to a graph
    cell and the normal offset |w - phi(u)|, with slope factor from the
    Lipschitz probe; samples outside the parameter slab are checked against
    the frontier inequality instead.  ``checked`` counts the samples
    compared: a sample where the graph map is singular is skipped."""
    m = cell.intrinsic_dim
    lip = lipschitz_estimate(cell.graph, cell.base)
    X = np.asarray(samples, dtype=float).reshape(len(samples),
                                                 cell.ambient_dim)
    Y = X[:, list(cell.perm)]
    _, up = distance_brackets(descriptor_of(cell), X)
    gap, singular = np.zeros(len(X)), np.zeros(len(X), dtype=bool)
    for j, phi in enumerate(cell.graph):
        w, s = expr.evaluate_rows(phi, Y[:, :m])
        gap += (Y[:, m + j] - w) ** 2
        singular |= s
    gap = np.sqrt(gap)
    on_base = membership(cell.base, Y[:, :m]) == INSIDE
    on, off = np.flatnonzero(on_base & ~singular), np.flatnonzero(~on_base)
    # the bound each row is compared with: its normal offset on the base,
    # its lower distance bracket to the frontier off it
    bound = gap.copy()
    bound[off], _ = distance_brackets(SetDescriptor(frontier_pieces(cell)),
                                      X[off])
    bad = np.zeros(len(X), dtype=bool)
    bad[on] = ~((lip.l_hat * gap[on] - eps <= up[on])
                & (up[on] <= gap[on] + eps))
    bad[off] = up[off] < lip.l_hat * bound[off] - eps
    violations = [(tuple(X[i].tolist()), float(up[i]), float(bound[i]))
                  for i in np.flatnonzero(bad)]
    return SandwichReport(len(on) + len(off), violations)
