"""Smooth cutoff functions supported in relative cone neighborhoods.

Given a closed set ``Z``, a set ``W`` closed away from ``Z`` and a ratio
``eta``, the neighborhood ``G_eta(W, Z) = {d(x, W) < eta * d(x, Z)}``
shrinks conically toward the points where ``W`` and ``Z`` meet at
infinitesimal separation.  :func:`build_cutoff` produces a function that
is identically 1 on a smaller cone neighborhood, vanishes outside
``G_eta``, takes values in [0, 1], and whose order-``|a|`` derivatives
stay below ``C / d(x, Z)^{|a|}`` -- checked numerically, never proved.

The construction composes a polynomial transition profile with the ratio
of two *regularized* distances.  Points, balls, boxes, full spaces and a
lone constant-graph W whose frontier lies in Z get the exact distance
rules of :mod:`whitney.geometry`; every other graph cell is replaced by a
power-mean soft minimum over a parameter net clustered toward the piece's
frontier, which is smooth away from the set and comparable to the true
distance at the scales the cutoff transition lives on.
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


class SmoothDistance:
    """Batched evaluable ``d~`` comparable to the distance to a descriptor:
    ``c1 * d <= d~ <= c2 * d`` away from a reported collar.  Smooth wherever
    the cutoff transition can live (bounded away from the set itself)."""

    c1: float = 1.0
    c2: float = 1.0
    collar: float = 0.0
    width: int = 1       # columns it contributes to a combined soft minimum

    def __call__(self, x):
        return _point_or_batch(self._eval, x)

    def _eval(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def columns(self, X: np.ndarray) -> np.ndarray:
        return self._eval(X)[:, None]


class _ConstantDistance(SmoothDistance):
    def __init__(self, value: float):
        self.value = value

    def _eval(self, X):
        return np.full(len(X), self.value)


class _ExactDistance(SmoothDistance):
    """Exact distances to a descriptor's closed-form pieces, one column per
    piece (:meth:`geometry.DistanceTable.exact`); standing alone it is the
    distance to its single piece.  A box or constant-graph distance is zero
    on the cell, so a cutoff plateau covers it exactly, and bends only
    where the cell's nearest point lies on its frontier.  As the W side of
    a cutoff this needs W's frontier in Z and ``eta <= 1`` (:func:`_exact_w`
    checks it for constant graphs): there the cutoff is identically 0."""

    def __init__(self, table: geometry.DistanceTable):
        self.table = table
        self.width = len(table.lows)

    def columns(self, X):
        return self.table.exact(X)

    def _eval(self, X):
        return self.table.exact(X)[:, 0]


class _NetSoftmin(SmoothDistance):
    """Power-mean soft minimum over a finite point net: always between
    ``k^(-1/s) * min_i |x - a_i|`` and ``min_i |x - a_i|``, and smooth away
    from the net points themselves."""

    def __init__(self, net: geometry.PieceNet, exponent: int):
        self.net = net
        self.exponent = exponent
        self.c1 = len(net.points) ** (-1.0 / exponent)
        self.c2 = 1.0
        self.collar = float(np.median(net.cov))

    def _eval(self, X):
        out = np.empty(len(X))
        for sl, d in self.net.distance_chunks(X):
            m = d.min(axis=1)
            safe = np.where(m > 0.0, m, 1.0)
            ratios = np.minimum(safe[:, None] / d.clip(1e-300), 1.0)
            s = np.clip((ratios ** self.exponent).sum(axis=1), 1.0, None)
            out[sl] = np.where(m > 0.0, m * s ** (-1.0 / self.exponent), 0.0)
        return out


class _CombinedDistance(SmoothDistance):
    def __init__(self, parts: list[SmoothDistance], exponent: int):
        self.parts = parts
        self.exponent = exponent
        k = sum(p.width for p in parts)
        self.c1 = min(p.c1 for p in parts) * k ** (-1.0 / exponent)
        self.c2 = max(p.c2 for p in parts)
        self.collar = max(p.collar for p in parts)

    def _eval(self, X):
        vals = np.concatenate([p.columns(X) for p in self.parts], axis=1)
        m = vals.min(axis=1)
        safe = np.where(m > 0.0, m, 1.0)
        ratios = np.minimum(safe[:, None] / vals.clip(1e-300), 1.0)
        s = np.clip((ratios ** self.exponent).sum(axis=1), 1.0, None)
        return np.where(m > 0.0, m * s ** (-1.0 / self.exponent), 0.0)


def regularized_distance(desc: SetDescriptor,
                         box: float = geometry.DEFAULT_BOX_HALFWIDTH
                         ) -> SmoothDistance:
    """Smooth evaluable surrogate for ``d(x, desc)``.

    Points, balls, boxes and the full space are exact table columns. Every
    graph cell (constant graphs included: in Z their exact distance would
    bend inside W's transition shell; :func:`_exact_w` decides for W) and
    every other cell closure becomes a soft minimum over its cached
    frontier-clustered net, with the exponent chosen from the total net
    size so that ``c2/c1`` stays near or below 2.
    """
    if desc.is_empty:
        return _ConstantDistance(1.0)
    exact, nets = [], []
    for piece in desc.pieces:
        if _soft_minned(piece, box):
            nets.append(geometry.piece_net(piece, box,
                                           geometry.DEFAULT_COARSE))
        else:
            exact.append(piece)
    parts: list[SmoothDistance] = []
    if exact:
        table = geometry.distance_table(SetDescriptor(tuple(exact)), box,
                                        geometry.DEFAULT_COARSE)
        parts.append(_ExactDistance(table))
    total = sum(len(net.points) for net in nets) + len(exact)
    exponent = max(12, 3 * math.ceil(math.log2(total + 2)))
    parts.extend(_NetSoftmin(net, exponent) for net in nets)
    if len(exact) + len(nets) == 1:
        return parts[0]
    return _CombinedDistance(parts, exponent)


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

    def __init__(self, spec: CutoffSpec, d_w: SmoothDistance,
                 d_z: SmoothDistance, profile: TransitionProfile,
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

    def __call__(self, x):
        return _point_or_batch(self._eval, x)

    def _eval(self, X):
        if self.spec.w_desc.is_empty:
            return np.zeros(len(X))
        t = (self.ratio(X) - self.rho_int) / (self.eta_int - self.rho_int)
        return self.profile(t)


def _on_set_probes(desc: SetDescriptor, box: float) -> list[np.ndarray]:
    """Net points of the soft-minned pieces of ``desc``, where the
    regularized distance should vanish but a soft minimum need not (exact
    columns vanish on their pieces); empty when nothing is soft-minned."""
    nets = [geometry.piece_net(p, box, geometry.DEFAULT_COARSE).points
            for p in desc.pieces if _soft_minned(p, box)]
    return [net[::max(1, len(net) // 512)] for net in nets]


def _exact_w(spec: CutoffSpec) -> Optional[_ExactDistance]:
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
    return _ExactDistance(geometry.distance_table(spec.w_desc, spec.box,
                                                  geometry.DEFAULT_COARSE))


def build_cutoff(spec: CutoffSpec) -> CutoffFn:
    """Construct a cutoff meeting the plateau/support/derivative contract
    for ``spec``; :func:`verify_cutoff` is the authority on whether it
    does.

    ``d_w`` is :func:`regularized_distance`, or W's exact distance when
    :func:`_exact_w` allows it. The transition starts at ``rho`` (default
    ``eta * (c1/c2)^2 / 2``) in regularized-ratio units, so comparability
    slack cannot push the plateau past the support ratio; the certified
    plateau ``rho_prime`` in true-distance units additionally subtracts
    the surrogate's measured residual ratio at on-set probe points of its
    soft-minned pieces.
    """
    profile = smooth_transition(max(spec.q, 4))
    if spec.w_desc.is_empty:
        d_w = _ConstantDistance(1.0)
        d_z = regularized_distance(spec.z_desc, spec.box)
        return CutoffFn(spec, d_w, d_z, profile, spec.eta, spec.eta / 2,
                        spec.eta / 2)
    d_w = _exact_w(spec) or regularized_distance(spec.w_desc, spec.box)
    d_z = regularized_distance(spec.z_desc, spec.box)
    c_ratio = min(d_w.c1 / d_z.c2, d_z.c1 / d_w.c2)
    if c_ratio ** 2 / 2.0 < 5e-3:
        raise SlackTooLarge(
            f"comparability ratio {c_ratio:.3f} leaves no plateau below "
            f"eta={spec.eta}")
    eta_int = spec.eta * c_ratio
    rho_int = spec.rho if spec.rho is not None else eta_int * c_ratio / 2.0
    if not rho_int < eta_int:
        raise SlackTooLarge("requested rho does not clear the support ratio")
    residual = 0.0
    nets = ([] if isinstance(d_w, _ExactDistance)
            else _on_set_probes(spec.w_desc, spec.box))
    if nets and not spec.z_desc.is_empty:
        probes = np.vstack(nets)
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
        r = np.asarray(omega.ratio(Xs))
        t = (r - omega.rho_int) / (omega.eta_int - omega.rho_int)
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
