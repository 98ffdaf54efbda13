"""Smooth cutoff functions supported in relative cone neighborhoods.

Given a closed set ``Z``, a set ``W`` closed away from ``Z`` and a ratio
``eta``, the neighborhood ``G_eta(W, Z) = {d(x, W) < eta * d(x, Z)}``
shrinks conically toward the points where ``W`` and ``Z`` meet at
infinitesimal separation.  :func:`build_cutoff` produces a function that
is identically 1 on a smaller cone neighborhood, vanishes outside
``G_eta``, takes values in [0, 1], and whose order-``|a|`` derivatives
stay below ``C / d(x, Z)^{|a|}`` -- checked numerically, never proved.

The construction composes a polynomial transition profile with the ratio
of two *regularized* distances (Stein's regularized distance), each one
:class:`RegularizedDistance`: a single power-mean soft minimum
``(sum_j d_j^-s)^(-1/s)`` over one exact column per point, ball,
constant-wall box or full space (the rules of :mod:`whitney.geometry`),
one potential column per constant graph over an interval (the segment
between its clamp ends), and one column per point of every other cell's
parameter net, clustered toward the cell's frontier.  It is smooth away
from the set and comparable to the true distance at the scales the
cutoff transition lives on.

Every evaluator here (:class:`TransitionProfile`, :class:`RegularizedDistance`
and :class:`CutoffFn`) takes an ``(N, n)`` array of rows and returns ``N``
values; a single point is a 1-row batch.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

import numpy as np

from . import geometry
from .errors import Record, SlackTooLarge
from .geometry import GraphCell, SetDescriptor
from .jets import multi_indices, mi_order
from .rng import SeededStream
from .verify import sampled_derivatives

# relative margin of a bracket against the rounding of the value it bounds
_MARGIN = 1e-9


# ---------------------------------------------------------------------------
# transition profile


class TransitionProfile(Record):
    """Monotone polynomial step: 1 for s <= 0, 0 for s >= 1, with
    derivatives through order ``q`` vanishing at both joints (degree
    ``2q + 1`` on the middle piece)."""

    rising: tuple  # Fraction coefficients of the degree-(2q+1) ramp, low->high

    def __call__(self, s):
        """The profile on the array ``s``, elementwise.  ``s`` is clipped to
        [-1, 2] (NaN to 2) and the ramp is evaluated by Horner there."""
        s_mid = np.clip(np.nan_to_num(np.asarray(s, dtype=float), nan=2.0,
                                      posinf=2.0, neginf=-1.0), -1.0, 2.0)
        mid = np.zeros_like(s_mid)
        for coeff in reversed([float(v) for v in self.rising]):
            mid = mid * s_mid + coeff
        # Horner rounding can overshoot the exact ramp by ~1 ulp at the
        # joints; fold it back so the range is exactly [0, 1]
        ramp = np.clip(1.0 - mid, 0.0, 1.0)
        return np.where(s_mid <= 0.0, 1.0, np.where(s_mid >= 1.0, 0.0, ramp))


def smooth_transition(q: int) -> TransitionProfile:
    """Transition profile of smoothness order ``q >= 1``.

    The ramp is the classical polynomial smoothstep: for q = 1 it is
    ``3 s^2 - 2 s^3``, so the profile is ``1 - 3 s^2 + 2 s^3``.
    """
    if q < 1:
        raise ValueError("transition order must be >= 1")
    coeffs = [Fraction(0)] * (2 * q + 2)
    for j in range(q + 1):
        c = (Fraction((-1) ** j) * math.comb(q + j, j)
             * math.comb(2 * q + 1, q - j))
        coeffs[q + 1 + j] = c
    return TransitionProfile(tuple(coeffs))


# ---------------------------------------------------------------------------
# regularized distances


# A segment's column is ``(I / 2W_j)^(-1/(2j)) / kappa``, where ``I(x)`` is
# the integral of ``|x - w|^-(2j+1)`` over the segment's arclength and
# ``W_j`` that of ``cos^(2j-1)`` over [0, pi/2]; a whole line would give
# exactly its distance.  ``kappa`` is :func:`_segment_kappa`.
_SEG_J = 15


def _segment_coefficients(j: int):
    """``(W_j, over, beyond)``: positive float coefficients (low order
    first) of the potential's two closed forms, from exact fractions.

    ``P(v) = int_0^v (1 - t^2)^(j-1) dt = v * sum_m over[m] u^(2m)`` with
    ``u^2 = 1 - v^2`` (the reduction formula for powers of cos), and the
    tail ``W_j - P(1 - w) = w^j * sum_k beyond[k] (2 - w)^(j-1-k) w^k``
    (the binomial series in ``w`` regrouped into positive terms).  Neither
    sum alternates, so neither loses digits."""
    over = []
    for m in range(j):
        c = Fraction(1, 2 * m + 1)
        for i in range(m + 1, j):
            c *= Fraction(2 * i, 2 * i + 1)
        over.append(c)
    beyond = [Fraction(math.comb(j - 1, k) * math.factorial(j - 1)
                       * math.factorial(k), math.factorial(j + k))
              for k in range(j)]
    return float(over[0]), [float(c) for c in over], [float(c) for c in beyond]


_SEG_WALLIS, _SEG_OVER, _SEG_BEYOND = _segment_coefficients(_SEG_J)


def _horner(coeffs, z):
    acc = np.full_like(z, coeffs[-1])
    for c in reversed(coeffs[:-1]):
        acc = acc * z + c
    return acc


def _segment_potential_distance(r, s_a, s_b):
    """``(I / 2W_j)^(-1/(2j))`` from the distance ``r`` to a segment's line
    and the foot point's offsets ``s_a``, ``s_b`` from its two ends
    (positive toward the segment, so ``s_a + s_b`` is its length), for
    arrays of one shape: 0 on the segment, smooth off it, and between the
    true distance and :func:`_segment_kappa` times it.

    Where the foot lies on the segment, ``I = r^-2j (P(s_a / rho_a) +
    P(s_b / rho_b))`` with ``rho = sqrt(r^2 + s^2)``.  Beyond an end by
    ``tau > 0`` it is the near end's tail minus the far end's, each
    ``Q^-j S(r^2 / Q)`` with ``Q = rho (rho + tau)`` and
    ``S(w) = sum_k beyond[k] (2 - w)^(j-1-k) w^k`` (see
    :func:`_segment_coefficients`), factored by the near end's ``Q``: then
    ``r -> 0`` on the axis neither cancels nor overflows."""
    out = np.empty_like(r)
    tau = -np.minimum(s_a, s_b)
    two_w, power = 2.0 * _SEG_WALLIS, -1.0 / (2 * _SEG_J)
    over = tau <= 0.0
    r_o, total = r[over], 0.0
    for s in (s_a[over], s_b[over]):
        rho = np.hypot(r_o, s)
        rho = np.where(rho > 0.0, rho, 1.0)   # at an end, P(0) = 0
        u = r_o / rho
        total = total + s / rho * _horner(_SEG_OVER, u * u)
    out[over] = r_o * (total / two_w) ** power
    beyond = ~over
    r_b, tau = r[beyond], tau[beyond]
    terms = []
    for t in (tau, tau + s_a[beyond] + s_b[beyond]):
        rho = np.hypot(r_b, t)
        q = rho * (rho + t)
        w = r_b * r_b / q
        terms.append((q, (2.0 - w) ** (_SEG_J - 1)
                      * _horner(_SEG_BEYOND, w / (2.0 - w))))
    (q_near, s_near), (q_far, s_far) = terms
    # a segment far beyond its length is a point: guard the difference
    total = np.maximum(s_near - (q_near / q_far) ** _SEG_J * s_far,
                       np.finfo(float).tiny)
    out[beyond] = np.sqrt(q_near) * (total / two_w) ** power
    return out


def _segment_kappa(low, high, box: float) -> float:
    """The largest ratio of :func:`_segment_potential_distance` to the true
    distance ``d`` over the box ``[-box, box]^n``, for the segment of length
    ``L`` between ``low`` and ``high`` (parallel to an axis).  By the
    triangle inequality ``I`` is at least its value on the segment's axis
    at the same ``d``, where the ratio is
    ``(4 j W_j / (1 - (d / (d + L))^(2j)))^(1/(2j))``; that grows with
    ``d``, so it is read at the box corner farthest from the segment."""
    low, high = np.asarray(low, dtype=float), np.asarray(high, dtype=float)
    far = np.maximum(0.0, np.maximum(low + box, box - high))
    d, length = math.hypot(*far), math.dist(low, high)
    j = _SEG_J
    return (4 * j * _SEG_WALLIS / (1.0 - (d / (d + length)) ** (2 * j))
            ) ** (1.0 / (2 * j))


class _Segments(Record):
    """Segment columns of a :class:`RegularizedDistance`: ends ``start``
    (S, n), unit directions ``axis`` (S, n), lengths and each column's
    :func:`_segment_kappa`."""
    start: np.ndarray
    axis: np.ndarray
    length: np.ndarray
    kappa: np.ndarray

    __eq__, __hash__ = object.__eq__, object.__hash__

    @classmethod
    def of(cls, ends, box: float) -> "_Segments":
        start = np.asarray([lo for lo, _ in ends], dtype=float)
        delta = np.asarray([hi for _, hi in ends], dtype=float) - start
        length = np.sqrt(np.add.reduce(delta * delta, -1))
        kappa = np.asarray([_segment_kappa(lo, hi, box) for lo, hi in ends])
        return cls(start, delta / length[:, None], length, kappa)

    def _frame(self, X: np.ndarray):
        """``(r, t)``: each row's distance to each segment's line and the
        foot's offset from its start, summed as in ``_distance_blocks``."""
        t = np.zeros((len(X), len(self.length)))
        for k in range(X.shape[1]):
            t += (X[:, k, None] - self.start[:, k]) * self.axis[:, k]
        r2 = np.zeros_like(t)
        for k in range(X.shape[1]):
            diff = X[:, k, None] - self.start[:, k] - t * self.axis[:, k]
            r2 += diff * diff
        return np.sqrt(r2), t

    def columns(self, X: np.ndarray) -> np.ndarray:
        """``(N, S)`` segment columns for the rows of ``X``."""
        r, t = self._frame(X)
        return _segment_potential_distance(r, t, self.length - t) / self.kappa

    def floors(self, X: np.ndarray) -> np.ndarray:
        """Lower bounds of :meth:`columns`: distance over ``kappa`` (no upper
        twin: a potential is below ``kappa`` times it only in the box)."""
        r, t = self._frame(X)
        return np.hypot(r, np.maximum(0.0, np.maximum(-t, t - self.length))
                        ) / self.kappa


class RegularizedDistance:
    """Batched smooth surrogate ``d~`` for the distance to a descriptor: the
    power-mean soft minimum ``(sum_j d_j^-s)^(-1/s)`` over the exact columns
    of ``table`` (the closed-form pieces), one potential column per segment
    in ``segments`` (the constant graphs over intervals) and every point of
    ``nets`` (the other graph cells' :class:`geometry.PieceNet`).  It lies
    between ``c1 * d`` and ``d`` (inside the box its segments were sized
    for) plus the nets' covering slack, is smooth wherever its columns are
    and none vanishes, is exactly 0 on an exact piece, a segment or a net
    point, returns a single column bit for bit, and is 1 for the empty
    set."""

    def __init__(self, table: Optional[geometry.DistanceTable],
                 segments: Optional[_Segments],
                 nets: list[geometry.PieceNet]):
        self.table = table
        self.segments = segments
        self.nets = nets
        closed = ((0 if table is None else len(table.lows))
                  + (0 if segments is None else len(segments.length)))
        total = closed + sum(len(net.points) for net in nets)
        self.exponent = max(12, 3 * math.ceil(math.log2(total + 2)))
        # d~ >= T^(-1/s) * (nearest column) for T columns, and T is at most
        # (largest net) * (#pieces), so this product is a lower factor too;
        # a segment column is at least 1/kappa of its distance
        self.c1 = (min((len(net.points) ** (-1.0 / self.exponent)
                        for net in nets), default=1.0)
                   * max(1, closed + len(nets)) ** (-1.0 / self.exponent))
        if segments is not None:
            self.c1 /= float(segments.kappa.max())
        self._points = (np.concatenate([net.points for net in nets])
                        if nets else None)
        self._exact = 0 if table is None else len(table.lows)
        self._closed = closed
        self._shrink = max(1, total) ** (-1.0 / self.exponent) * (1 - _MARGIN)
        self._balls = (np.concatenate([net.points[net.ball_start]
                                       for net in nets]) if nets else None)
        self._radius = np.concatenate([[]] + [n.ball_radius for n in nets])

    def _eval(self, X: np.ndarray) -> np.ndarray:
        """``d~`` on the rows of the ``(N, n)`` array ``X``."""
        if not self._closed and self._points is None:
            return np.ones(len(X))
        out = np.empty(len(X))
        # the exact and segment columns lead each row block, then the nets
        for rows, d in geometry._distance_blocks(X, self._points,
                                                 self._closed):
            x = X[rows]
            if self.table is not None:
                d[:, :self._exact] = self.table.exact(x)
            if self.segments is not None:
                d[:, self._exact:self._closed] = self.segments.columns(x)
            m = d.min(axis=1)
            # on the set (m == 0) every ratio is inf and d~ is exactly 0,
            # without forming (1/d)^s
            np.divide(np.where(m > 0.0, m, np.inf)[:, None], d, out=d)
            np.power(d, self.exponent, out=d)
            out[rows] = m * d.sum(axis=1) ** (-1.0 / self.exponent)
        return out

    def bracket(self, X: np.ndarray):
        """``(lo, up)`` with ``lo <= d~ <= up`` on the rows of ``X``: exact
        columns, segment :meth:`_Segments.floors` (``lo`` only) and, for the
        first point ``c`` of each net ball, ``|x - c| - r`` and ``|x - c|``;
        ``lo`` is times ``total^(-1/s)`` and shaded by ``_MARGIN``."""
        if not self._closed and self._points is None:
            return np.ones(len(X)), np.ones(len(X))
        lo, up = np.empty(len(X)), np.empty(len(X))
        for rows, d in geometry._distance_blocks(X, self._balls,
                                                 self._closed):
            x = X[rows]
            if self.table is not None:
                d[:, :self._exact] = self.table.exact(x)
            d[:, self._exact:self._closed] = np.inf
            np.min(d, axis=1, out=up[rows])
            if self.segments is not None:
                d[:, self._exact:self._closed] = self.segments.floors(x)
            d[:, self._closed:] -= self._radius
            np.min(d, axis=1, out=lo[rows])
        return np.maximum(lo, 0.0) * self._shrink, up


def regularized_distance(desc: SetDescriptor,
                         box: float = geometry.DEFAULT_BOX_HALFWIDTH
                         ) -> RegularizedDistance:
    """Smooth evaluable surrogate for ``d(x, desc)``.

    Points, balls, boxes and the full space are exact table columns; a
    constant graph over an interval is the potential column of the segment
    between its clamp ends (:func:`geometry.closed_form_box`); every other
    cell closure is soft-minned over its cached frontier-clustered net.  The
    exponent is chosen from the total column count so that ``1/c1`` stays
    near or below 2.
    """
    exact, ends, nets = [], [], []
    for piece in desc.pieces:
        corners = geometry.closed_form_box(piece, box)
        graph = isinstance(piece, GraphCell) and bool(piece.graph)
        if corners is not None and graph and piece.intrinsic_dim == 1:
            ends.append(corners[:2])
        elif corners is None or graph:
            # curved cells, and flat patches over 2-d boxes (no potential yet)
            nets.append(geometry.piece_net(piece, box))
        else:
            exact.append(piece)
    table = (geometry.distance_table(SetDescriptor(tuple(exact)), box)
             if exact else None)
    segments = _Segments.of(ends, box) if ends else None
    return RegularizedDistance(table, segments, nets)


# ---------------------------------------------------------------------------
# the cutoff itself


class CutoffSpec(Record):
    """A cutoff's data: the nonempty set ``W`` it is 1 near, the set ``Z``
    it vanishes near, the support ratio ``eta > 0`` and the smoothness
    order ``q``; an empty ``W`` or ``eta <= 0`` raises ``ValueError``."""
    w_desc: SetDescriptor
    z_desc: SetDescriptor
    eta: float
    q: int
    box: float = geometry.DEFAULT_BOX_HALFWIDTH

    def __post_init__(self):
        if self.eta <= 0:
            raise ValueError("eta must be positive")
        if self.w_desc.is_empty:
            raise ValueError("W must be nonempty")


class CutoffFn:
    """The assembled cutoff: profile composed with the regularized
    distance ratio.  Exactly 1 where the ratio is below ``rho_int``,
    exactly 0 where it reaches ``eta_int``; in between strictly inside
    (0, 1).  ``rho_prime`` is the certified plateau ratio in *true*
    distance units."""

    def __init__(self, spec: CutoffSpec, d_w: RegularizedDistance,
                 d_z: RegularizedDistance, profile: TransitionProfile,
                 eta_int: float, rho_int: float, rho_prime: float):
        self.spec = spec
        self.d_w = d_w
        self.d_z = d_z
        self.profile = profile
        self.eta_int = eta_int
        self.rho_int = rho_int
        self.rho_prime = rho_prime

    def transition(self, X: np.ndarray) -> np.ndarray:
        """The profile's argument ``(ratio - rho_int) / (eta_int - rho_int)``
        with ``ratio = d~_W / d~_Z`` (inf where ``d~_Z`` is 0): at most 0 on
        the plateau, at least 1 off the support."""
        dw, dz = self.d_w._eval(X), self.d_z._eval(X)
        ratio = np.where(dz > 0.0, dw / np.where(dz > 0.0, dz, 1.0), np.inf)
        return (ratio - self.rho_int) / (self.eta_int - self.rho_int)

    def __call__(self, X: np.ndarray) -> np.ndarray:
        """The cutoff on the rows of the ``(N, n)`` array ``X``: exactly 0
        or 1 where the distance brackets put the ratio past ``eta_int`` or
        ``rho_int`` by ``_MARGIN``, the profile on the other rows."""
        lo_w, up_w = self.d_w.bracket(X)
        lo_z, up_z = self.d_z.bracket(X)
        out = np.zeros(len(X))
        out[(lo_z > 0.0) & (up_w <= self.rho_int * lo_z * (1 - _MARGIN))] = 1.0
        rest = np.flatnonzero((out == 0.0) & (up_z > 0.0) & (
            lo_w < self.eta_int * up_z * (1 + _MARGIN)))
        out[rest] = self.profile(self.transition(X[rest]))
        return out


def build_cutoff(spec: CutoffSpec) -> CutoffFn:
    """Construct a cutoff meeting the plateau/support/derivative contract
    for ``spec``; :func:`verify_cutoff` is the authority on whether it
    does.

    Both distances are :func:`regularized_distance`: ``W`` is nonempty (see
    :class:`CutoffSpec`), and an empty ``Z`` has the constant distance 1.
    The transition starts at ``rho = eta * c^2 / 2``, with ``c`` the
    smaller ``c1``, in regularized-ratio units, so comparability slack
    cannot push the plateau past the support ratio; the certified plateau
    ``rho_prime = 0.9 c rho`` is in true-distance units.
    """
    profile = smooth_transition(max(spec.q, 4))
    d_z = regularized_distance(spec.z_desc, spec.box)
    d_w = regularized_distance(spec.w_desc, spec.box)
    c_ratio = min(d_w.c1, d_z.c1)
    if c_ratio ** 2 / 2.0 < 5e-3:
        raise SlackTooLarge(
            f"comparability ratio {c_ratio:.3f} leaves no plateau below "
            f"eta={spec.eta}")
    eta_int = spec.eta * c_ratio
    rho_int = eta_int * c_ratio / 2.0
    rho_prime = 0.9 * c_ratio * rho_int
    return CutoffFn(spec, d_w, d_z, profile, eta_int, rho_int, rho_prime)


# ---------------------------------------------------------------------------
# derivative sampling and the contract report


class CutoffReport(Record):
    plateau_checked: int
    plateau_violations: int
    support_checked: int
    support_violations: int
    bound_constants: dict          # multi-index -> scaled derivative max
    bound_ratios: dict             # refinement stability per multi-index
    in_range: bool                 # all sampled values within [0, 1]

    @property
    def passed(self) -> bool:
        return (self.plateau_violations == 0 and self.support_violations == 0
                and self.in_range
                and all(r < 2.0 for r in self.bound_ratios.values()))


def _sample_box(w_desc, z_desc, box):
    """Axis-aligned window padded around all descriptor pieces: the corners
    of every closed-form piece (:func:`geometry.closed_form_box`), widened
    by its radius, with an infinite side (the full space) read as the box
    edge, and a subsample of every other piece's net."""
    pts = []
    for desc in (w_desc, z_desc):
        for piece in desc.pieces:
            corners = geometry.closed_form_box(piece, box)
            if corners is None:
                net = geometry.piece_net(piece, box).points
                pts.extend(net[::max(1, len(net) // 32)].tolist())
                continue
            corner = np.asarray(corners[:2], dtype=float)
            corner = np.where(np.isinf(corner), np.copysign(box, corner),
                              corner)
            pts.extend([corner[0] - corners[2], corner[1] + corners[2]])
    arr = np.asarray(pts)
    lo = arr.min(axis=0)
    hi = arr.max(axis=0)
    pad = 0.75 * max(1e-3, float(np.max(hi - lo)), 1.0)
    return lo - pad, hi + pad


def verify_cutoff(omega: CutoffFn, spec: CutoffSpec,
                  n_samples: int = 10_000, seed: int = 0) -> CutoffReport:
    """Sample the three contract clauses of a cutoff.

    plateau: every sample certified inside the ``rho_prime`` cone must give
    exactly 1.  support: every sample certified outside the ``eta`` cone
    must give exactly 0.  bounds: the scaled derivative maxima
    ``max |D^a omega| * d(x,Z)^{|a|}`` must be finite and stable (ratio
    below 2) under one refinement of the sample count, for every
    ``0 < |a| <= q``.
    """
    lo, hi = _sample_box(spec.w_desc, spec.z_desc, spec.box)
    n = len(lo)
    X = lo + (hi - lo) * SeededStream(seed).random((n_samples, n))
    lo_w, up_w = geometry.distance_brackets(spec.w_desc, X, spec.box)
    lo_z, up_z = geometry.distance_brackets(spec.z_desc, X, spec.box)
    keep = up_z > 1e-6 * float(np.max(hi - lo))
    X, lo_w, up_w, lo_z, up_z = (a[keep] for a in (X, lo_w, up_w, lo_z, up_z))

    vals = omega(X)
    in_range = bool(np.all((vals >= 0.0) & (vals <= 1.0)))

    plateau_mask = up_w < omega.rho_prime * lo_z
    plateau_viol = int(np.sum(vals[plateau_mask] != 1.0))
    support_mask = lo_w >= spec.eta * up_z
    support_viol = int(np.sum(vals[support_mask] != 0.0))

    alphas = [a for a in multi_indices(n, spec.q) if mi_order(a)]
    consts, ratios = {}, {}
    for level, count in enumerate((len(X) // 2, len(X))):
        Xs, dz_up = X[:count], up_z[:count]     # the rows are i.i.d.
        t = omega.transition(Xs)
        active = (t > -1.0) & (t < 2.0) & np.isfinite(t)
        Xa, dz_a = Xs[active], dz_up[active]
        h = np.maximum(dz_a / 100.0, 1e-9)
        derivs = sampled_derivatives(omega, [(Xa, a, h) for a in alphas])
        for alpha, (d, _) in zip(alphas, derivs):
            c = float(np.max(np.abs(d) * dz_a ** mi_order(alpha),
                             initial=0.0))
            if level == 0:
                consts[alpha] = c
            else:
                prev = consts[alpha]
                ratios[alpha] = c / prev if prev > 0 else 1.0
                consts[alpha] = max(prev, c)
    return CutoffReport(
        plateau_checked=int(np.sum(plateau_mask)),
        plateau_violations=plateau_viol,
        support_checked=int(np.sum(support_mask)),
        support_violations=support_viol,
        bound_constants=consts, bound_ratios=ratios, in_range=in_range)

