"""Verification utilities: Richardson finite differences, the jet-field
compatibility residual, little-o rate fitting, and the extension agreement
check.

Asymptotic claims ("this quantity is o(s^e)") are operationalized two
ways, because finite sampling cannot certify a limit: the fitted log-log
slope must clear the required exponent by a margin, or the values divided
by s^e must decay monotonically below a threshold.  Both outcomes are
reported.
"""
from __future__ import annotations

import functools
import math
from typing import Callable, Sequence

import numpy as np

from . import expr, geometry
from .errors import DegenerateScales, Record, StencilOutOfDomain
from .jets import MultiIndex, _inv_factorial, mi_order, multi_indices
from .rng import SeededStream

# ---------------------------------------------------------------------------
# finite differences


_CENTRAL = {
    0: ((0, 1.0),),
    1: ((-1, -0.5), (1, 0.5)),
    2: ((-1, 1.0), (0, -2.0), (1, 1.0)),
    3: ((-2, -0.5), (-1, 1.0), (1, -1.0), (2, 0.5)),
    4: ((-2, 1.0), (-1, -4.0), (0, 6.0), (1, -4.0), (2, 1.0)),
}


@functools.lru_cache(maxsize=256)
def _tensor_stencil(alpha: MultiIndex) -> tuple:
    """Integer offsets and weights of the tensor central stencil of the
    mixed partial ``D^alpha``; divide by ``h^{|alpha|}`` after combining."""
    stencil = [((), 1.0)]
    for k in alpha:
        stencil = [(off + (o,), wt * w)
                   for off, wt in stencil for o, w in _CENTRAL[k]]
    return tuple(stencil)


def finite_difference(f: Callable, alpha: MultiIndex, x: Sequence[float],
                      h: float = 1e-3) -> tuple[float, float]:
    """``(value, error_estimate)`` of :func:`sampled_derivatives` at the
    one point ``x``, for a callable ``f`` of one point (a list of
    coordinates); a stencil point where ``f`` raises gives
    :class:`StencilOutOfDomain`."""
    def rows(P):
        out = []
        for pt in P.tolist():
            try:
                out.append(float(f(pt)))
            except Exception as exc:
                raise StencilOutOfDomain(
                    f"stencil point {tuple(pt)} not evaluable: {exc}") from exc
        return out

    X, H = np.asarray([x], dtype=float), np.asarray([h], dtype=float)
    [(d, err)] = sampled_derivatives(rows, [(X, alpha, H)])
    return float(d[0]), float(err[0])


def sampled_derivatives(fn, requests) -> list:
    """Richardson-extrapolated central differences of a batched callable:
    one ``(values, error_estimates)`` pair per ``(X, alpha, h)`` request,
    the mixed partial of order ``alpha`` at the rows of ``X`` with per-row
    steps ``h``, from a single call of ``fn``.  An estimate is the
    disagreement between the steps ``h`` and ``h/2`` scaled by the
    extrapolation factor, so for smooth inputs halving ``h`` shrinks it by
    about 4x.

    Every request's rows have one width, and ``fn`` returns one value per
    row.  The stencil rows of every request at the steps ``h`` and ``h/2``
    (its own rows once when ``alpha`` is 0) are stacked, evaluated
    together and split back; each request then combines its own values
    exactly as a call of its own would.  No rows at all make no call.
    """
    blocks, plans = [], []      # stencil rows to evaluate; their owners
    for X, alpha, h in requests:
        X = np.asarray(X, dtype=float)
        k = mi_order(alpha)
        if k == 0:
            rows, stencil, steps = [X], (), ()
        else:
            stencil = _tensor_stencil(tuple(alpha))
            offs = np.asarray([off for off, _ in stencil], dtype=float)
            steps = (h, h / 2.0)
            rows = [(X[:, None, :] + offs[None, :, :] * step[:, None, None]
                     ).reshape(-1, X.shape[1]) for step in steps]
        plans.append((len(X), k, stencil, steps,
                       range(len(blocks), len(blocks) + len(rows))))
        blocks.extend(rows)

    flat = np.concatenate(blocks)
    out = np.asarray(fn(flat) if len(flat) else (), dtype=float)
    values = np.split(out, np.cumsum([len(b) for b in blocks])[:-1])

    results = []
    for count, k, stencil, steps, parts in plans:
        vals = [values[i] for i in parts]
        if k == 0:
            results.append((vals[0], np.zeros(count)))
            continue
        wts = np.asarray([wt for _, wt in stencil])
        d1, d2 = ((v.reshape(count, len(wts)) * wts[None, :]).sum(axis=1)
                  / step ** k for v, step in zip(vals, steps))
        results.append(((4.0 * d2 - d1) / 3.0, np.abs(d2 - d1) / 3.0))
    return results


# ---------------------------------------------------------------------------
# jet-field compatibility residual


class ResidualSample(Record):
    a: tuple
    b: tuple
    residual: object     # exact when the field is rational
    separation: float


def whitney_residual(jets_at: Callable, c: Sequence, beta: MultiIndex,
                     pairs: Sequence[tuple]) -> list[ResidualSample]:
    """Compatibility residual of a jet field between pairs of points.

    ``jets_at(point)`` must return the field's jet at a point of the set
    (a :class:`~whitney.jets.PointJet`); ``pairs`` is a sequence of point
    pairs drawn near the target ``c``.  For each pair the residual is

        F^beta(a) - sum_{|alpha| <= p - |beta|} F^{alpha+beta}(b)/alpha! * (a-b)^alpha

    computed in exact arithmetic whenever the jets are rational.
    """
    out = []
    for a, b in pairs:
        ja = jets_at(a)
        jb = jets_at(b)
        p = ja.p
        diff = tuple(x - y for x, y in zip(a, b))
        acc = 0
        for alpha in multi_indices(ja.n, p - mi_order(beta)):
            coeff = jb.coeffs[tuple(x + y for x, y in zip(alpha, beta))]
            if coeff == 0:
                continue
            term = coeff * _inv_factorial(alpha, coeff)
            for d, k in zip(diff, alpha):
                if k:
                    term = term * d ** k
            acc = acc + term
        r = ja.coeffs[tuple(beta)] - acc
        sep = math.sqrt(sum(float(d) ** 2 for d in diff))
        if sep > 0:
            out.append(ResidualSample(tuple(a), tuple(b), r, sep))
    return out


def radial_pairs(c: float, scales: Sequence):
    """1-d pair generator: both points on the right of the target, the
    separation tracking the scale."""
    return [((c + s,), (c + s / 2,)) for s in scales]


def straddling_pairs(c: float, scales: Sequence):
    return [((c + s,), (c - s,)) for s in scales]


# ---------------------------------------------------------------------------
# rate fitting


class RateFit(Record):
    slope: float
    verdict: str                  # "PASS" or "FAIL"

    @property
    def passed(self) -> bool:
        return self.verdict == "PASS"


_RATE_MARGIN = 0.25           # slope excess over the required exponent
_RATE_THETA = 1e-2            # tail bound of the normalized values


def _log_log_slope(ls: np.ndarray, lv: np.ndarray) -> float:
    """Least-squares slope of ``lv`` on ``ls`` in closed form, the centred
    sums ``sum(dx * dy) / sum(dx^2)``; ``inf`` with fewer than two distinct
    ``ls``, where no line is determined."""
    if len(ls) < 2:
        return math.inf
    dx, dy = ls - ls.mean(), lv - lv.mean()
    sxx = float((dx * dx).sum())
    return float((dx * dy).sum()) / sxx if sxx > 0 else math.inf


def rate_fit(samples: Sequence[tuple], required: float) -> RateFit:
    """Decide whether ``value = o(scale^required)`` from (scale, value)
    samples at geometrically decreasing scales.

    PASS if the least-squares log-log slope over the nonzero values clears
    ``required`` plus ``_RATE_MARGIN``, or if ``value / scale^required``
    decreases monotonically below ``_RATE_THETA``.  Needs at least 6
    scales spanning two decades.  The slope is :func:`_log_log_slope`'s
    closed form and the scales are ordered by Python's sort, so a fit
    pages in neither LAPACK nor a numpy sort kernel.
    """
    if len(samples) < 6:
        raise DegenerateScales("need at least 6 scales")
    # largest scale first; equal scales in reverse input order
    pairs = sorted(((float(s), abs(float(v))) for s, v in samples),
                   key=lambda sv: sv[0])[::-1]
    scales = np.asarray([s for s, _ in pairs])
    values = np.asarray([v for _, v in pairs])
    if np.any(scales <= 0):
        raise DegenerateScales("scales must be positive")
    if scales.max() / scales.min() < 99.0:
        raise DegenerateScales("scales must span at least two decades")

    normalized = values / scales ** required
    monotone = bool(np.all(np.diff(normalized) <= 1e-12 + 0.0 * normalized[1:]))
    tail = float(normalized[-1])
    nonzero = values > 0
    if np.count_nonzero(nonzero) < len(values) / 2:
        # (near-)identically zero residuals: flat in the strongest sense
        if np.all(values <= 1e-15 * np.maximum(1.0, scales)):
            return RateFit(math.inf, "PASS")
    slope = _log_log_slope(np.log10(scales[nonzero]),
                           np.log10(values[nonzero]))
    slope_ok = slope >= required + _RATE_MARGIN
    decay_ok = monotone and tail < _RATE_THETA
    verdict = "PASS" if (slope_ok or decay_ok) else "FAIL"
    return RateFit(slope, verdict)


# ---------------------------------------------------------------------------
# extension agreement


class AgreementEntry(Record):
    stratum_id: str
    alpha: MultiIndex
    max_rel_dev: float
    samples: int
    passed: bool


class AgreementReport(Record):
    entries: list[AgreementEntry] = []

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    @property
    def worst(self) -> float:
        return max((e.max_rel_dev for e in self.entries), default=0.0)

    def lines(self):
        for e in self.entries:
            status = "PASS" if e.passed else "FAIL"
            yield (f"{status}  stratum={e.stratum_id:<14} alpha={e.alpha}  "
                   f"max_rel_dev={e.max_rel_dev:.3e}  over {e.samples} samples")


def check_extension(f: Callable, scene, tol: float = 1e-4,
                    samples_per_stratum: int = 100,
                    seed: int = 0) -> AgreementReport:
    """Compare sampled derivatives of an extension against the scene's
    declared jet coefficients on every stratum.

    Every stratum's samples, steps and expected coefficients are drawn
    first; then one :func:`sampled_derivatives` call evaluates ``f`` once
    on the stencils of all strata and multi-indices.  Deviation is
    relative to ``1 + |F^alpha|``; the step is a tenth of the bracketed
    distance to the stratum's boundary (1 without one), within [1e-7, 1e-3].
    """
    rng = SeededStream(seed)
    requests, expected = [], []
    for stratum in scene.strata:
        fld = scene.fields[stratum.id]
        cell = stratum.cell
        U = geometry.stratum_samples(cell, samples_per_stratum, scene.box,
                                     rng=rng)
        X = cell.embed_rows(U)
        if not U.shape[1]:              # a point's coefficients read u = 0
            U = np.zeros((len(U), 1))
        lo, up = geometry.distance_brackets(
            scene.descriptor_for(stratum.boundary_ids), X, scene.box)
        H = np.clip(np.where(lo > 0.0, lo, up) / 10.0, 1e-7, 1e-3)
        for alpha_int in multi_indices(scene.n, scene.p):
            requests.append((X, cell.to_ambient(alpha_int), H))
            expected.append((stratum.id, alpha_int, len(U),
                             expr.evaluate_rows_or_raise(
                                 fld.coeffs[alpha_int], U)))
    report = AgreementReport()
    for (sid, alpha_int, count, expect), (got, _) in zip(
            expected, sampled_derivatives(f, requests)):
        dev = np.abs(got - expect) / (1.0 + np.abs(expect))
        worst = float(dev.max())
        report.entries.append(AgreementEntry(
            sid, alpha_int, worst, count, worst < tol))
    return report
