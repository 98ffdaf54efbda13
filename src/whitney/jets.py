"""Truncated-jet algebra: order-p Taylor polynomials at points and fields
of jets over strata.

A :class:`PointJet` stores *derivative values* ``coeffs[alpha] = F^alpha``;
the polynomial it represents is ``sum (1/alpha!) F^alpha X^alpha`` where
``X`` is the offset from the base point.  :func:`jet_mul` (the product
truncated to total degree <= p) and :func:`jet_compose` (substitution,
truncated) are exact truncated Taylor arithmetic, and :func:`taylor_jet`
gives the exact jet of an expression.  A :class:`FieldSpec` is a jet field
over one stratum whose every coefficient is an expression:
:meth:`FieldSpec.jet_at` gives its exact jet at one parameter, and
:func:`expr.evaluate_rows_or_raise` one coefficient on a batch of
parameter rows.  All exact operations stay exact when coefficients and
points are rational.  The product evaluates jet polynomials on row
batches in :mod:`whitney.extension`, the Whitney residual in
:mod:`whitney.verify`.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, Sequence, Union

from . import expr
from .errors import (ArityMismatch, BaseMismatch, Record, ShapeMismatch,
                     UnsupportedNode)
from .expr import ExprFn

MultiIndex = tuple  # of nonnegative ints

TAU_BASE = 1e-12


def mi_order(alpha: MultiIndex) -> int:
    return sum(alpha)


def mi_factorial(alpha: MultiIndex) -> int:
    out = 1
    for k in alpha:
        out *= math.factorial(k)
    return out


def mi_add(a: MultiIndex, b: MultiIndex) -> MultiIndex:
    return tuple(x + y for x, y in zip(a, b))


def mi_key(alpha: MultiIndex):
    """Graded-lexicographic sort key: total order first, then exponents."""
    return (sum(alpha), alpha)


def multi_indices(n: int, p: int) -> list[MultiIndex]:
    """All multi-indices of length ``n`` with total order <= ``p``, in
    graded-lex order."""
    out = [()]
    for _ in range(n):
        out = [prev + (k,) for prev in out for k in range(p + 1 - sum(prev))]
    out.sort(key=mi_key)
    return out


def mi_to_string(alpha: MultiIndex) -> str:
    return ",".join(str(k) for k in alpha)


def mi_from_string(s: str) -> MultiIndex:
    return tuple(int(part) for part in s.split(","))


def _inv_factorial(alpha: MultiIndex, sample):
    """1/alpha! as a Fraction when the surrounding arithmetic is exact."""
    f = mi_factorial(alpha)
    if isinstance(sample, float):
        return 1.0 / f
    return Fraction(1, f)


class PointJet(Record):
    """One jet: order-``p`` polynomial data anchored at ``base``."""

    n: int
    p: int
    base: tuple
    coeffs: Mapping[MultiIndex, Union[int, float, Fraction]]

    def __post_init__(self):
        expected = multi_indices(self.n, self.p)
        if len(self.base) != self.n:
            raise ShapeMismatch("base point dimension != n")
        if set(self.coeffs) != set(expected):
            raise ShapeMismatch(
                f"jet needs exactly the {len(expected)} coefficients of "
                f"order <= {self.p}")

    @property
    def constant_term(self):
        return self.coeffs[(0,) * self.n]


def jet_from_coeffs(n, p, base, coeffs) -> PointJet:
    full = {a: Fraction(0) for a in multi_indices(n, p)}
    for a, c in coeffs.items():
        full[tuple(a)] = c
    return PointJet(n, p, tuple(base), full)


def _check_compatible(a: PointJet, b: PointJet):
    if a.n != b.n or a.p != b.p:
        raise ShapeMismatch(f"jet shapes differ: ({a.n},{a.p}) vs ({b.n},{b.p})")
    for x, y in zip(a.base, b.base):
        exact = not (isinstance(x, float) or isinstance(y, float))
        if exact:
            if x != y:
                raise BaseMismatch("jet base points differ")
        elif abs(x - y) > TAU_BASE:
            raise BaseMismatch("jet base points differ beyond tolerance")


def jet_to_monomial(a: PointJet) -> dict:
    """Plain polynomial coefficients ``c_alpha = F^alpha / alpha!``."""
    return {k: v * _inv_factorial(k, v) for k, v in a.coeffs.items()}


def jet_from_monomial(n, p, base, mono: Mapping) -> PointJet:
    coeffs = {}
    for alpha in multi_indices(n, p):
        c = mono.get(alpha, 0)
        fac = mi_factorial(alpha)
        coeffs[alpha] = c * fac
    return PointJet(n, p, tuple(base), coeffs)


def jet_mul(a: PointJet, b: PointJet) -> PointJet:
    """Product of two jets at one base: the polynomial product truncated
    to total degree <= p."""
    _check_compatible(a, b)
    return jet_from_monomial(a.n, a.p, a.base, _truncated_product(
        jet_to_monomial(a), jet_to_monomial(b), a.p))


# ---------------------------------------------------------------------------
# composition


def jet_compose(h: PointJet, fs: Sequence[PointJet]) -> PointJet:
    """Substitute the jets ``fs`` (m of them, over n shared variables) into
    ``h`` (over m variables) and truncate to order p.

    ``h`` must be based at the vector of constant terms of ``fs``.  The
    inner offsets have no constant part, so their powers only raise total
    degree; powers are accumulated in graded order, each from a previously
    cached one, instead of expanding every monomial from scratch.
    """
    m = h.n
    if len(fs) != m:
        raise ShapeMismatch(f"need {m} inner jets, got {len(fs)}")
    f0 = fs[0]
    n, p = f0.n, f0.p
    if h.p != p:
        raise ShapeMismatch("inner and outer jets disagree on order")
    for f in fs[1:]:
        _check_compatible(f0, f)
    consts = tuple(f.constant_term for f in fs)
    for hb, c in zip(h.base, consts):
        exact = not (isinstance(hb, float) or isinstance(c, float))
        if (hb != c) if exact else (abs(hb - c) > TAU_BASE):
            raise BaseMismatch(
                "outer jet must be based at the inner constant terms")

    # centered inner polynomials: no constant term, total degree >= 1
    ys = []
    for f in fs:
        mono = jet_to_monomial(f)
        mono[(0,) * n] = mono[(0,) * n] - f.constant_term
        ys.append({k: v for k, v in mono.items() if v != 0 and sum(k) <= p})

    hm = jet_to_monomial(h)
    powers: dict[MultiIndex, dict] = {(0,) * m: {(0,) * n: 1}}
    out: dict = {}
    for kappa in multi_indices(m, p):
        coeff = hm.get(kappa, 0)
        pw = powers.get(kappa)
        if pw is None:
            j = max(i for i, k in enumerate(kappa) if k > 0)
            prev = kappa[:j] + (kappa[j] - 1,) + kappa[j + 1:]
            pw = _truncated_product(powers[prev], ys[j], p)
            powers[kappa] = pw
        if coeff == 0:
            continue
        for k, v in pw.items():
            out[k] = out.get(k, 0) + coeff * v
    return jet_from_monomial(n, p, f0.base, out)


def _truncated_product(a: Mapping, b: Mapping, p: int) -> dict:
    out: dict = {}
    for ka, va in a.items():
        ra = p - sum(ka)
        for kb, vb in b.items():
            if sum(kb) > ra:
                continue
            k = mi_add(ka, kb)
            out[k] = out.get(k, 0) + va * vb
    return out


# ---------------------------------------------------------------------------
# Taylor jets of explicit functions


def taylor_jet(f: ExprFn, p: int, u: Sequence) -> PointJet:
    """Jet of an explicit function at ``u``: coefficients are exact
    derivatives evaluated at ``u``.  Derivative trees are built once per
    multi-index, walking up the graded order."""
    n = f.arity
    u = tuple(u)
    derivs: dict[MultiIndex, ExprFn] = {(0,) * n: f}
    coeffs = {}
    for alpha in multi_indices(n, p):
        if alpha not in derivs:
            j = max(i for i, k in enumerate(alpha) if k > 0)
            parent = alpha[:j] + (alpha[j] - 1,) + alpha[j + 1:]
            step = tuple(1 if i == j else 0 for i in range(n))
            derivs[alpha] = expr.differentiate(derivs[parent], step)
        coeffs[alpha] = expr.evaluate(derivs[alpha], u)
    return PointJet(n, p, u, coeffs)


# ---------------------------------------------------------------------------
# fields of jets over strata

class FieldSpec(Record):
    """A jet-valued field over one stratum: for every multi-index of order
    <= p (in the stratum's internal coordinate order) a coefficient
    expression of the stratum parameter ``u``.

    ``param_arity`` is the arity the coefficient expressions take; point
    strata use a single dummy parameter evaluated at 0.
    """

    n: int
    p: int
    stratum_id: str
    param_arity: int
    coeffs: Mapping[MultiIndex, ExprFn]

    _repr_skip = ("coeffs",)

    def __post_init__(self):
        expected = set(multi_indices(self.n, self.p))
        if set(self.coeffs) != expected:
            raise ShapeMismatch(
                f"field over {self.stratum_id!r} must carry all "
                f"{len(expected)} coefficient functions")
        for alpha, fn in self.coeffs.items():
            if not isinstance(fn, ExprFn):
                raise UnsupportedNode(
                    f"coefficient {alpha} over {self.stratum_id!r} must be "
                    f"an expression, got {type(fn).__name__}")
            if fn.arity != self.param_arity:
                raise ArityMismatch(
                    "coefficient arity != stratum parameter dimension")

    def jet_at(self, u: Sequence, embedded_base: Sequence) -> PointJet:
        """The exact jet at the parameter ``u`` of an expression field,
        based at ``embedded_base``; its multi-indices are in the stratum's
        internal axis order."""
        vals = {a: expr.evaluate(fn, u) for a, fn in self.coeffs.items()}
        return PointJet(self.n, self.p, tuple(embedded_base), vals)

