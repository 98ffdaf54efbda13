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
constant-wall box or full space (the rules of :mod:`whitney.geometry`)
and one column per point of every other cell's parameter net (every graph
cell's included), clustered toward the cell's frontier.  It is smooth
away from the set and comparable to the true distance at the scales the
cutoff transition lives on.  A lone constant-graph W whose frontier lies
in Z keeps its one exact column instead.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from . import geometry
from .errors import OnZ, SlackTooLarge, UnsupportedDescriptor
from .geometry import Ball, GraphCell, PointCell, SetDescriptor
from .jets import multi_indices, mi_order
from .verify import sampled_derivative_batch

IN, OUT, INDETERMINATE = 1, 0, -1


def _point_or_batch(batch_fn, x):
    """``batch_fn`` (``(N, n)`` rows to ``N`` values) applied to ``x``: an
    ``(N, n)`` array gives the array, a point gives a float (a 1-row batch)."""
    X = np.asarray(x, dtype=float)
    if X.ndim > 1:
        return batch_fn(X)
    return float(batch_fn(np.atleast_2d(X))[0])


# ---------------------------------------------------------------------------
# transition profile


@dataclass(frozen=True)
class TransitionProfile:
    """Monotone polynomial step: 1 for s <= 0, 0 for s >= 1, with
    derivatives through ``order`` vanishing at both joints (degree
    ``2*order + 1`` on the middle piece)."""

    order: int
    rising: tuple  # Fraction coefficients of the degree-(2q+1) ramp, low->high

    def __call__(self, s):
        s_mid, mid = _clipped_horner(self.rising, s)
        # Horner rounding can overshoot the exact ramp by ~1 ulp at the
        # joints; fold it back so the range is exactly [0, 1]
        ramp = np.clip(1.0 - mid, 0.0, 1.0)
        out = np.where(s_mid <= 0.0, 1.0, np.where(s_mid >= 1.0, 0.0, ramp))
        return float(out) if np.isscalar(s) or out.ndim == 0 else out

    def eval_exact(self, s: Fraction) -> Fraction:
        if s <= 0:
            return Fraction(1)
        if s >= 1:
            return Fraction(0)
        acc = Fraction(0)
        for coeff in reversed(self.rising):
            acc = acc * s + coeff
        return 1 - acc

    def derivative(self, s, k: int):
        """k-th derivative; identically zero on both plateaus."""
        if k == 0:
            return self(s)
        coeffs = list(self.rising)
        for _ in range(k):
            coeffs = [c * (i + 1) for i, c in enumerate(coeffs[1:])]
        s_mid, mid = _clipped_horner(coeffs, s)
        out = np.where((s_mid <= 0.0) | (s_mid >= 1.0), 0.0, -mid)
        return float(out) if np.isscalar(s) or out.ndim == 0 else out


def _clipped_horner(coeffs, s):
    """``s`` clipped to [-1, 2] (NaN to 2) and ``coeffs`` by Horner there."""
    s_mid = np.clip(np.nan_to_num(np.asarray(s, dtype=float), nan=2.0,
                                  posinf=2.0, neginf=-1.0), -1.0, 2.0)
    mid = np.zeros_like(s_mid)
    for coeff in reversed([float(v) for v in coeffs]):
        mid = mid * s_mid + coeff
    return s_mid, mid


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
    return TransitionProfile(q, tuple(coeffs))


# ---------------------------------------------------------------------------
# regularized distances


class RegularizedDistance:
    """Batched smooth surrogate ``d~`` for the distance to a descriptor: the
    power-mean soft minimum ``(sum_j d_j^-s)^(-1/s)`` over the exact columns
    of ``table`` (the closed-form pieces) and every point of ``nets`` (the
    soft-minned pieces' :class:`geometry.PieceNet`).  It lies between
    ``c1 * d`` and ``d`` plus the nets' covering slack, is smooth wherever
    its columns are and none vanishes, is exactly 0 on an exact piece or a
    net point, returns a single column bit for bit, and is 1 for the empty
    set."""

    def __init__(self, table: Optional[geometry.DistanceTable],
                 nets: list[geometry.PieceNet]):
        self.table = table
        self.nets = nets
        exact = 0 if table is None else len(table.lows)
        total = exact + sum(len(net.points) for net in nets)
        self.exponent = max(12, 3 * math.ceil(math.log2(total + 2)))
        # d~ >= T^(-1/s) * (nearest column) for T columns, and T is at most
        # (largest net) * (#pieces), so this product is a lower factor too
        self.c1 = (min((len(net.points) ** (-1.0 / self.exponent)
                        for net in nets), default=1.0)
                   * max(1, exact + len(nets)) ** (-1.0 / self.exponent))
        self._points = (np.concatenate([net.points for net in nets])
                        if nets else None)
        # a row chunk's distance matrix stays near 200,000 entries
        self._chunk = max(1, 200_000 // max(1, total))

    def __call__(self, x):
        return _point_or_batch(self._eval, x)

    def _eval(self, X: np.ndarray) -> np.ndarray:
        if self.table is None and self._points is None:
            return np.ones(len(X))
        out = np.empty(len(X))
        for start in range(0, len(X), self._chunk):
            rows = X[start:start + self._chunk]
            cols = [] if self.table is None else [self.table.exact(rows)]
            if self._points is not None:
                cols.append(geometry._distances(rows, self._points))
            d = cols[0] if len(cols) == 1 else np.concatenate(cols, axis=1)
            m = d.min(axis=1)
            # on the set (m == 0) every ratio is inf and d~ is exactly 0,
            # without forming (1/d)^s
            r = np.where(m > 0.0, m, np.inf)[:, None] / d
            out[start:start + len(rows)] = (
                m * (r ** self.exponent).sum(axis=1) ** (-1.0 / self.exponent))
        return out


def regularized_distance(desc: SetDescriptor,
                         box: float = geometry.DEFAULT_BOX_HALFWIDTH
                         ) -> RegularizedDistance:
    """Smooth evaluable surrogate for ``d(x, desc)``.

    Points, balls, boxes and the full space are exact table columns. Every
    graph cell (constant graphs included: in Z their exact distance would
    bend inside W's transition shell; :func:`_exact_w` decides for W) and
    every other cell closure is soft-minned over its cached
    frontier-clustered net, with the exponent chosen from the total column
    count so that ``1/c1`` stays near or below 2.
    """
    exact, nets = [], []
    for piece in desc.pieces:
        if _soft_minned(piece, box):
            nets.append(geometry.piece_net(piece, box,
                                           geometry.DEFAULT_COARSE))
        else:
            exact.append(piece)
    table = (geometry.distance_table(SetDescriptor(tuple(exact)), box,
                                     geometry.DEFAULT_COARSE)
             if exact else None)
    return RegularizedDistance(table, nets)


def _soft_minned(piece, box: float) -> bool:
    """Whether :func:`regularized_distance` soft-mins ``piece`` over its
    net: every graph cell with a graph, and every cell without a closed
    form."""
    return isinstance(piece, GraphCell) and (
        bool(piece.graph) or geometry.closed_form_box(piece, box) is None)


def cone_membership(x, w_desc: SetDescriptor, z_desc: SetDescriptor,
                    eta: float, tau: float = 1e-12,
                    box: float = geometry.DEFAULT_BOX_HALFWIDTH) -> int:
    """Certified membership of the point ``x`` in the cone neighborhood
    ``{d(x, W) < eta * d(x, Z)}``: the 1-row :func:`cone_membership_batch`.
    Raises :class:`OnZ` within ``tau`` of Z."""
    member, up_z = cone_membership_batch(w_desc, z_desc, eta, [x], box)
    if up_z[0] <= tau:
        raise OnZ(f"point {tuple(x)} lies on the excluded set")
    return int(member[0])


def cone_membership_batch(w_desc: SetDescriptor, z_desc: SetDescriptor,
                          eta: float, X: np.ndarray,
                          box: float = geometry.DEFAULT_BOX_HALFWIDTH):
    """Membership certificates for the rows of ``X``: IN when the upper
    W-bracket beats ``eta`` times the lower Z-bracket, OUT for the reverse
    certificate, INDETERMINATE when the brackets overlap.  Returns the int
    array and the Z upper bracket for reuse."""
    lo_w, up_w = geometry.distance_brackets(w_desc, X, box)
    lo_z, up_z = geometry.distance_brackets(z_desc, X, box)
    out = np.full(len(np.atleast_2d(X)), INDETERMINATE, dtype=int)
    out[up_w < eta * lo_z] = IN
    out[lo_w >= eta * up_z] = OUT
    return out, up_z


# ---------------------------------------------------------------------------
# the cutoff itself


@dataclass(frozen=True)
class CutoffSpec:
    w_desc: SetDescriptor
    z_desc: SetDescriptor
    eta: float
    q: int
    rho: Optional[float] = None  # transition start in regularized ratio units
    box: float = geometry.DEFAULT_BOX_HALFWIDTH

    def __post_init__(self):
        if self.eta <= 0:
            raise ValueError("eta must be positive")
        if self.rho is not None and not (0 < self.rho < self.eta):
            raise ValueError("rho must lie in (0, eta)")


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

    def ratio(self, x):
        def batch(X):
            dw, dz = self.d_w._eval(X), self.d_z._eval(X)
            return np.where(dz > 0.0, dw / np.where(dz > 0.0, dz, 1.0), np.inf)
        return _point_or_batch(batch, x)

    def transition(self, x):
        """The profile's argument ``(ratio - rho_int) / (eta_int - rho_int)``:
        at most 0 on the plateau, at least 1 off the support."""
        return (self.ratio(x) - self.rho_int) / (self.eta_int - self.rho_int)

    def __call__(self, x):
        return _point_or_batch(self._eval, x)

    def _eval(self, X):
        if self.spec.w_desc.is_empty:
            return np.zeros(len(X))
        return self.profile(self.transition(X))


def _exact_w(spec: CutoffSpec) -> Optional[RegularizedDistance]:
    """W's exact table distance where :func:`regularized_distance` would
    soft-min it, or None.  It needs W to be one constant graph over an
    interval, ``eta <= 1``, and both ends of W's clamp segment (its
    frontier, or the box edge on an unbounded side) within 1e-9 of Z: the
    distance bends only where W's nearest point is such an end, and there
    ``d~_Z <= d_Z <= d_W``, so the ratio is at least ``1 >= eta_int``."""
    piece, *rest = spec.w_desc.pieces
    if (rest or spec.eta > 1.0 or not _soft_minned(piece, spec.box)
            or piece.intrinsic_dim != 1):
        return None
    ends = geometry.closed_form_box(piece, spec.box)
    if ends is None or np.any(geometry.distance_brackets(
            spec.z_desc, ends[:2], spec.box)[1] > 1e-9):
        return None
    return RegularizedDistance(geometry.distance_table(
        spec.w_desc, spec.box, geometry.DEFAULT_COARSE), [])


def build_cutoff(spec: CutoffSpec) -> CutoffFn:
    """Construct a cutoff meeting the plateau/support/derivative contract
    for ``spec``; :func:`verify_cutoff` is the authority on whether it
    does.

    ``d_w`` is :func:`regularized_distance`, or W's exact distance when
    :func:`_exact_w` allows it. The transition starts at ``rho`` (default
    ``eta * c^2 / 2`` with ``c`` the smaller ``c1``) in regularized-ratio
    units, so comparability slack cannot push the plateau past the support
    ratio; the certified plateau ``rho_prime`` in true-distance units
    additionally subtracts the surrogate's measured residual ratio at
    on-set probe points of its soft-minned pieces.
    """
    profile = smooth_transition(max(spec.q, 4))
    d_z = regularized_distance(spec.z_desc, spec.box)
    if spec.w_desc.is_empty:
        return CutoffFn(spec, regularized_distance(spec.w_desc), d_z,
                        profile, spec.eta, spec.eta / 2, spec.eta / 2)
    d_w = _exact_w(spec) or regularized_distance(spec.w_desc, spec.box)
    c_ratio = min(d_w.c1, d_z.c1)
    if c_ratio ** 2 / 2.0 < 5e-3:
        raise SlackTooLarge(
            f"comparability ratio {c_ratio:.3f} leaves no plateau below "
            f"eta={spec.eta}")
    eta_int = spec.eta * c_ratio
    rho_int = spec.rho if spec.rho is not None else eta_int * c_ratio / 2.0
    if not rho_int < eta_int:
        raise SlackTooLarge("requested rho does not clear the support ratio")
    residual = 0.0
    if d_w.nets and not spec.z_desc.is_empty:
        # net points of W's soft-minned pieces, where d~_W should vanish
        # but a soft minimum need not (exact columns vanish on their pieces)
        probes = np.vstack([net.points[::max(1, len(net.points) // 512)]
                            for net in d_w.nets])
        dz_vals = d_z._eval(probes)
        dw_vals = d_w._eval(probes)
        ok = dz_vals > 0
        if np.any(ok):
            residual = float(np.max(dw_vals[ok] / dz_vals[ok]))
    rho_prime = 0.9 * c_ratio * max(0.0, rho_int - 2.5 * residual)
    if rho_prime <= 0.0:
        raise SlackTooLarge(
            f"surrogate residual ratio {residual:.3e} swallows the plateau")
    return CutoffFn(spec, d_w, d_z, profile, eta_int, rho_int, rho_prime)


# ---------------------------------------------------------------------------
# derivative sampling and the contract report


@dataclass
class CutoffReport:
    plateau_checked: int
    plateau_violations: int
    support_checked: int
    support_violations: int
    bound_constants: dict          # multi-index -> scaled derivative max
    bound_ratios: dict             # refinement stability per multi-index
    excluded_radius: float
    in_range: bool                 # all sampled values within [0, 1]

    @property
    def passed(self) -> bool:
        return (self.plateau_violations == 0 and self.support_violations == 0
                and self.in_range
                and all(r < 2.0 for r in self.bound_ratios.values()))


def _sample_box(w_desc, z_desc, box):
    """Axis-aligned window padded around all descriptor pieces."""
    pts = []
    for desc in (w_desc, z_desc):
        for piece in desc.pieces:
            if isinstance(piece, PointCell):
                pts.append([float(v) for v in piece.point])
            elif isinstance(piece, Ball):
                c = [float(v) for v in piece.center]
                pts.append([v - piece.radius for v in c])
                pts.append([v + piece.radius for v in c])
            elif isinstance(piece, GraphCell):
                net = geometry.piece_net(piece, box,
                                         geometry.DEFAULT_COARSE).points
                pts.extend(net[::max(1, len(net) // 32)].tolist())
    arr = np.asarray(pts)
    lo = arr.min(axis=0)
    hi = arr.max(axis=0)
    pad = 0.75 * max(1e-3, float(np.max(hi - lo)), 1.0)
    return lo - pad, hi + pad


def verify_cutoff(omega: CutoffFn, spec: CutoffSpec, grid: int = 100,
                  n_samples: int = 10_000, seed: int = 0,
                  max_order: Optional[int] = None) -> CutoffReport:
    """Sample the three contract clauses of a cutoff.

    plateau: every sample certified inside the ``rho_prime`` cone must give
    exactly 1.  support: every sample certified outside the ``eta`` cone
    must give exactly 0.  bounds: the scaled derivative maxima
    ``max |D^a omega| * d(x,Z)^{|a|}`` must be finite and stable (ratio
    below 2) under one refinement of the sample count.
    """
    n = _descriptor_dim(spec)
    rng = np.random.default_rng(seed)
    lo, hi = _sample_box(spec.w_desc, spec.z_desc, spec.box)
    X = lo + (hi - lo) * rng.random((n_samples, n))
    lo_w, up_w = geometry.distance_brackets(spec.w_desc, X, spec.box)
    lo_z, up_z = geometry.distance_brackets(spec.z_desc, X, spec.box)
    scene_scale = float(np.max(hi - lo))
    exclusion = 1e-6 * scene_scale
    keep = up_z > exclusion
    X, lo_w, up_w, lo_z, up_z = (a[keep] for a in (X, lo_w, up_w, lo_z, up_z))

    vals = np.asarray(omega(X))
    in_range = bool(np.all((vals >= 0.0) & (vals <= 1.0)))

    plateau_mask = up_w < omega.rho_prime * lo_z
    plateau_viol = int(np.sum(vals[plateau_mask] != 1.0))
    support_mask = lo_w >= spec.eta * up_z
    support_viol = int(np.sum(vals[support_mask] != 0.0))

    q = spec.q if max_order is None else max_order
    consts, ratios = {}, {}
    for level, count in enumerate((len(X) // 2, len(X))):
        sel = np.arange(count) if level else rng.permutation(len(X))[:count]
        Xs, dz_up = X[sel], up_z[sel]
        t = omega.transition(Xs)
        active = (t > -1.0) & (t < 2.0) & np.isfinite(t)
        Xa, dz_a = Xs[active], dz_up[active]
        h = np.maximum(dz_a / 100.0, 1e-9)
        for alpha in multi_indices(n, q):
            if mi_order(alpha) == 0:
                continue
            if len(Xa):
                d, _ = sampled_derivative_batch(omega, Xa, alpha, h)
                c = float(np.max(np.abs(d) * dz_a ** mi_order(alpha)))
            else:
                c = 0.0
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
        bound_constants=consts, bound_ratios=ratios,
        excluded_radius=exclusion, in_range=in_range)


def _descriptor_dim(spec: CutoffSpec) -> int:
    for desc in (spec.w_desc, spec.z_desc):
        for piece in desc.pieces:
            if isinstance(piece, PointCell):
                return len(piece.point)
            if isinstance(piece, Ball):
                return len(piece.center)
            if isinstance(piece, GraphCell):
                return piece.ambient_dim
    raise UnsupportedDescriptor("cannot infer dimension from empty spec")


def format_report(rep: CutoffReport) -> str:
    """Cutoff contract report as structured text, with the scaled
    derivative constants tabulated per multi-index."""
    lines = [
        f"plateau   {rep.plateau_checked:>7} checked   "
        f"{rep.plateau_violations} violations",
        f"support   {rep.support_checked:>7} checked   "
        f"{rep.support_violations} violations",
        f"range     {'[0,1] ok' if rep.in_range else 'OUT OF RANGE'}",
        f"excluded  |d(x,Z)| < {rep.excluded_radius:.3e}",
        "alpha        C_hat          refine-ratio",
    ]
    for alpha in sorted(rep.bound_constants):
        c = rep.bound_constants[alpha]
        r = rep.bound_ratios.get(alpha, float("nan"))
        lines.append(f"{str(alpha):<12} {c:<14.6g} {r:.3f}")
    lines.append("verdict   " + ("PASS" if rep.passed else "FAIL"))
    return "\n".join(lines)
