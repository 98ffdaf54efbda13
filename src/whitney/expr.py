"""Closed-form expression trees with exact symbolic derivatives.

An :class:`ExprFn` is a scalar function of ``arity`` real variables built
from rational/float constants, variables, field arithmetic, integer powers,
``sqrt``, ``abs``, binary ``min``/``max`` and guarded piecewise definitions.
These trees represent everything the engine treats as "given in closed
form": cell walls, graph maps, jet coefficient functions and cutoff
building blocks.

Two conventions matter throughout:

* Constants parsed from ``"p/q"`` strings or ints stay exact
  (:class:`fractions.Fraction`); evaluating at a rational point then yields
  an exact rational, which the jet-algebra tests rely on.
* Kinks and poles (abs/min/max ties, zero denominators, sqrt at 0,
  piecewise guard boundaries) are *errors* within a tolerance
  ``TAU_SING``, never silently resolved.  Derivatives of abs/min/max
  select the active branch and keep the guard, so differentiation of a
  derived tree errors on the ridge too.

:func:`evaluate` is the exact evaluator at one point.  :func:`evaluate_rows`
is the one float evaluator over a batch of rows; it turns those errors into a
row mask.  An :class:`ExprFn` is plain data: trees are combined through the
folding node builders (:func:`add`, :func:`mul`, ...), :func:`polynomial`
and :func:`substitute`, and read only through these two evaluators.
:func:`number_from_json` is the one parser of JSON numbers, for expressions
and scene files alike.
"""
from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Union

import numpy as np

from .errors import ArityMismatch, Record, SingularPoint, UnsupportedNode

Number = Union[int, float, Fraction]

TAU_SING = 1e-9

_BINARY_OPS = ("add", "sub", "mul", "div", "min", "max")
_UNARY_OPS = ("sqrt", "abs")


class Node(Record):
    """One expression node.  ``payload`` holds the constant value, the
    variable index or the integer exponent depending on ``op``."""

    op: str
    payload: object = None
    args: tuple["Node", ...] = ()


def const(value: Number) -> Node:
    if isinstance(value, str):
        value = Fraction(value)
    if isinstance(value, int):
        value = Fraction(value)
    return Node("const", value)


def var(index: int) -> Node:
    if isinstance(index, bool) or not isinstance(index, int):
        raise UnsupportedNode(f"variable index must be an integer: {index!r}")
    if index < 0:
        raise ArityMismatch(f"variable index {index} out of range")
    return Node("var", index)


ZERO = const(0)
ONE = const(1)


def _is_const(n: Node, value=None) -> bool:
    if n.op != "const":
        return False
    return value is None or n.payload == value


def add(a: Node, b: Node) -> Node:
    if _is_const(a) and _is_const(b):
        return const(a.payload + b.payload)
    if _is_const(a, 0):
        return b
    if _is_const(b, 0):
        return a
    return Node("add", None, (a, b))


def sub(a: Node, b: Node) -> Node:
    if _is_const(a) and _is_const(b):
        return const(a.payload - b.payload)
    if _is_const(b, 0):
        return a
    return Node("sub", None, (a, b))


def mul(a: Node, b: Node) -> Node:
    if _is_const(a) and _is_const(b):
        return const(a.payload * b.payload)
    if _is_const(a, 0) or _is_const(b, 0):
        return ZERO
    if _is_const(a, 1):
        return b
    if _is_const(b, 1):
        return a
    return Node("mul", None, (a, b))


def div(a: Node, b: Node) -> Node:
    if _is_const(a, 0):
        return ZERO
    if _is_const(b, 1):
        return a
    if _is_const(a) and _is_const(b) and b.payload != 0:
        return const(Fraction(a.payload) / Fraction(b.payload))
    return Node("div", None, (a, b))


def pow_(base: Node, exponent: int) -> Node:
    if (isinstance(exponent, bool) or not isinstance(exponent, int)
            or exponent < 0):
        raise UnsupportedNode("pow exponent must be a nonnegative integer")
    if exponent == 0:
        return ONE
    if exponent == 1:
        return base
    if _is_const(base):
        return const(base.payload ** exponent)
    return Node("pow", exponent, (base,))


def sqrt_(a: Node) -> Node:
    return _fold(Node("sqrt", None, (a,)))


def abs_(a: Node) -> Node:
    return _fold(Node("abs", None, (a,)))


def min_(a: Node, b: Node) -> Node:
    return _fold(Node("min", None, (a, b)))


def max_(a: Node, b: Node) -> Node:
    return _fold(Node("max", None, (a, b)))


def piecewise(branches) -> Node:
    """``branches`` is a sequence of (guard, expr) Node pairs; a branch is
    active where its guard is strictly positive, and exactly one guard may
    be positive at any queried point.  Constant guards that select one
    branch without a singularity give that branch's body."""
    flat = []
    for guard, body in branches:
        flat.append(guard)
        flat.append(body)
    guards = flat[0::2]
    if all(_is_const(g) for g in guards):
        on = [g.payload > 0 for g in guards]
        if sum(on) == 1 and all(abs(g.payload) > TAU_SING for g in guards):
            return flat[2 * on.index(True) + 1]
    return Node("piecewise", None, tuple(flat))


def _fold(node: Node) -> Node:
    """The constant :func:`evaluate` reads off ``node`` when its operands
    are constants and it is not singular there (a ``sqrt`` only when that
    value is an exact Fraction), so that :func:`evaluate_rows` reads the
    same exact value; otherwise ``node`` itself."""
    if not all(_is_const(a) for a in node.args):
        return node
    try:
        value = _eval(node, ())
    except SingularPoint:
        return node
    if node.op == "sqrt" and not isinstance(value, Fraction):
        return node
    return const(value)


class ExprFn(Record):
    arity: int
    root: Node

    def __post_init__(self):
        if self.arity < 1:
            raise ArityMismatch("arity must be >= 1")
        top = _max_var_index(self.root)
        if top >= self.arity:
            raise ArityMismatch(
                f"variable index {top} exceeds arity {self.arity}")


def _max_var_index(node: Node) -> int:
    if node.op == "var":
        return node.payload
    if node.op == "const":
        return -1
    return max((_max_var_index(a) for a in node.args), default=-1)


def constant_fn(value: Number, arity: int = 1) -> ExprFn:
    return ExprFn(arity, const(value))


def coordinate(index: int, arity: int) -> ExprFn:
    return ExprFn(arity, var(index))


# ---------------------------------------------------------------------------
# evaluation


def evaluate(f: ExprFn, x):
    """Value of ``f`` at the point ``x`` (sequence of numbers).

    Exact when all constants and coordinates are rational and the tree is
    sqrt-free.  Raises :class:`SingularPoint` within ``TAU_SING`` of any
    declared singular locus.
    """
    if len(x) != f.arity:
        raise ArityMismatch(f"expected {f.arity} coordinates, got {len(x)}")
    return _eval(f.root, tuple(x))


def _eval(node: Node, x):
    op = node.op
    if op == "const":
        return node.payload
    if op == "var":
        return x[node.payload]
    if op == "add":
        return _eval(node.args[0], x) + _eval(node.args[1], x)
    if op == "sub":
        return _eval(node.args[0], x) - _eval(node.args[1], x)
    if op == "mul":
        return _eval(node.args[0], x) * _eval(node.args[1], x)
    if op == "div":
        num = _eval(node.args[0], x)
        den = _eval(node.args[1], x)
        if abs(den) <= TAU_SING:
            raise SingularPoint(f"denominator {den} within {TAU_SING} of zero")
        return num / den
    if op == "pow":
        return _int_power(_eval(node.args[0], x), node.payload)
    if op == "sqrt":
        a = _eval(node.args[0], x)
        if a <= TAU_SING:
            raise SingularPoint(f"sqrt argument {a} within {TAU_SING} of zero")
        if isinstance(a, Fraction):
            r = _exact_sqrt(a)
            if r is not None:
                return r
        return math.sqrt(a)
    if op == "abs":
        a = _eval(node.args[0], x)
        if abs(a) <= TAU_SING:
            raise SingularPoint("abs argument on its kink")
        return a if a > 0 else -a
    if op in ("min", "max"):
        a = _eval(node.args[0], x)
        b = _eval(node.args[1], x)
        if abs(a - b) <= TAU_SING:
            raise SingularPoint(f"{op} arguments tie within {TAU_SING}")
        if op == "min":
            return a if a < b else b
        return a if a > b else b
    if op == "piecewise":
        active = None
        for i in range(0, len(node.args), 2):
            g = _eval(node.args[i], x)
            if abs(g) <= TAU_SING:
                raise SingularPoint("piecewise guard boundary")
            if g > 0:
                if active is not None:
                    raise SingularPoint("piecewise guards overlap at point")
                active = node.args[i + 1]
        if active is None:
            raise SingularPoint("no piecewise guard active at point")
        return _eval(active, x)
    raise UnsupportedNode(f"unknown node op {op!r}")


def _int_power(a, k: int):
    """``a ** k`` for an integer ``k >= 1`` by repeated multiplication: exact
    on a Fraction, and the same floats on a Python float as on an array
    (numpy's ``**`` and Python's can differ in the last bit)."""
    out = a
    for _ in range(k - 1):
        out = out * a
    return out


def evaluate_rows(f: ExprFn, U):
    """``(values, singular)`` of ``f`` on every row of the ``(N, arity)``
    float array ``U``: ``singular`` marks the rows where :func:`evaluate`
    raises :class:`SingularPoint`, and their values are NaN.  A piecewise
    body is evaluated on its active rows only.  Every other row equals
    ``float(evaluate(f, u))`` bit for bit on trees made by the builders,
    which fold every variable-free subtree that :func:`evaluate` computes
    exactly.
    """
    U = np.asarray(U, dtype=float)
    if U.ndim != 2 or U.shape[1] != f.arity:
        raise ArityMismatch(
            f"expected rows of {f.arity} coordinates, got shape {U.shape}")
    values, singular = _eval_rows(f.root, U)
    return np.where(singular, np.nan, values), singular


def evaluate_rows_or_raise(f: ExprFn, U) -> np.ndarray:
    """The values of :func:`evaluate_rows`; a singular row raises
    :class:`SingularPoint`, as :func:`evaluate` would there."""
    values, singular = evaluate_rows(f, U)
    if singular.any():
        u = tuple(np.asarray(U, dtype=float)[np.argmax(singular)].tolist())
        raise SingularPoint(f"expression singular at u={u}")
    return values


def _eval_rows(node: Node, U: np.ndarray):
    """``(values, singular)`` of a subtree on the rows of ``U``.  A singular
    operand is replaced by 1 before the operation, so no row warns."""
    op = node.op
    if op == "const":
        return np.full(len(U), float(node.payload)), np.zeros(len(U), bool)
    if op == "var":
        return U[:, node.payload], np.zeros(len(U), bool)
    if op == "piecewise":
        return _piecewise_rows(node, U)
    args = [_eval_rows(arg, U) for arg in node.args]
    bad = np.logical_or.reduce([s for _, s in args])
    a, b = args[0][0], args[-1][0]
    if op == "add":
        return a + b, bad
    if op == "sub":
        return a - b, bad
    if op == "mul":
        return a * b, bad
    if op == "div":
        near = np.abs(b) <= TAU_SING
        return a / np.where(near, 1.0, b), bad | near
    if op == "pow":
        return _int_power(a, node.payload), bad
    if op == "sqrt":
        near = a <= TAU_SING
        return np.sqrt(np.where(near, 1.0, a)), bad | near
    if op == "abs":
        return np.where(a > 0, a, -a), bad | (np.abs(a) <= TAU_SING)
    if op in ("min", "max"):
        pick = a < b if op == "min" else a > b
        return np.where(pick, a, b), bad | (np.abs(a - b) <= TAU_SING)
    raise UnsupportedNode(f"unknown node op {op!r}")


def _piecewise_rows(node: Node, U: np.ndarray):
    guards = [_eval_rows(g, U) for g in node.args[0::2]]
    bad = np.logical_or.reduce([b | (np.abs(g) <= TAU_SING)
                                for g, b in guards])
    active = np.asarray([g > 0 for g, _ in guards])
    bad |= active.sum(axis=0) != 1
    out = np.zeros(len(U))
    for on, body in zip(active, node.args[1::2]):
        rows = np.flatnonzero(on & ~bad)
        if len(rows):
            out[rows], body_bad = _eval_rows(body, U[rows])
            bad[rows] |= body_bad
    return out, bad


def _exact_sqrt(a: Fraction):
    pn = math.isqrt(a.numerator)
    pd = math.isqrt(a.denominator)
    if pn * pn == a.numerator and pd * pd == a.denominator:
        return Fraction(pn, pd)
    return None


# ---------------------------------------------------------------------------
# differentiation

@functools.lru_cache(maxsize=4096)
def _d(node: Node, i: int) -> Node:
    """``d node / d x_i``, memoized per subtree in a bounded cache."""
    return _d_raw(node, i)


def _d_raw(node: Node, i: int) -> Node:
    op = node.op
    if op == "const":
        return ZERO
    if op == "var":
        return ONE if node.payload == i else ZERO
    if op == "add":
        return add(_d(node.args[0], i), _d(node.args[1], i))
    if op == "sub":
        return sub(_d(node.args[0], i), _d(node.args[1], i))
    if op == "mul":
        a, b = node.args
        return add(mul(_d(a, i), b), mul(a, _d(b, i)))
    if op == "div":
        a, b = node.args
        return div(sub(mul(_d(a, i), b), mul(a, _d(b, i))), mul(b, b))
    if op == "pow":
        (a,) = node.args
        k = node.payload
        return mul(mul(const(k), pow_(a, k - 1)), _d(a, i))
    if op == "sqrt":
        (a,) = node.args
        return div(_d(a, i), mul(const(2), sqrt_(a)))
    if op == "abs":
        # derivative of the active branch; guard keeps the kink an error
        (a,) = node.args
        da = _d(a, i)
        return piecewise([(a, da), (sub(ZERO, a), sub(ZERO, da))])
    if op == "min":
        a, b = node.args
        return piecewise([(sub(b, a), _d(a, i)), (sub(a, b), _d(b, i))])
    if op == "max":
        a, b = node.args
        return piecewise([(sub(a, b), _d(a, i)), (sub(b, a), _d(b, i))])
    if op == "piecewise":
        branches = []
        for j in range(0, len(node.args), 2):
            branches.append((node.args[j], _d(node.args[j + 1], i)))
        return piecewise(branches)
    raise UnsupportedNode(f"no derivative rule for {op!r}")


def differentiate(f: ExprFn, alpha) -> ExprFn:
    """Exact partial derivative of multi-index ``alpha`` (sequence of
    nonnegative ints of length ``arity``)."""
    if len(alpha) != f.arity:
        raise ArityMismatch("multi-index length must equal arity")
    root = f.root
    for i, k in enumerate(alpha):
        for _ in range(k):
            root = _d(root, i)
    return ExprFn(f.arity, root)


# ---------------------------------------------------------------------------
# substitution (used for composing explicit functions in oracles)


_CONSTRUCTORS = {"add": add, "sub": sub, "mul": mul, "div": div,
                 "min": min_, "max": max_, "sqrt": sqrt_, "abs": abs_}


def substitute(f: ExprFn, inner: list[ExprFn]) -> ExprFn:
    """Replace every variable of ``f`` by the corresponding expression in
    ``inner``; all inner expressions must share one arity.  Every node is
    rebuilt through its folding constructor (``add``, ``pow_``,
    ``piecewise``, ...), so constant subtrees fold as in any other tree."""
    if len(inner) != f.arity:
        raise ArityMismatch("need one inner expression per variable of f")
    arity = inner[0].arity
    if any(g.arity != arity for g in inner):
        raise ArityMismatch("inner expressions disagree on arity")
    roots = [g.root for g in inner]

    def walk(node: Node) -> Node:
        if node.op == "var":
            return roots[node.payload]
        if node.op == "const":
            return node
        args = [walk(a) for a in node.args]
        if node.op == "pow":
            return pow_(args[0], node.payload)
        if node.op == "piecewise":
            return piecewise(zip(args[0::2], args[1::2]))
        return _CONSTRUCTORS[node.op](*args)

    return ExprFn(arity, walk(f.root))


# ---------------------------------------------------------------------------
# parsing: nested arrays, e.g. ["add", ["var", 0], ["const", "3/2"]]


def node_from_json(obj) -> Node:
    if not isinstance(obj, list) or not obj:
        raise UnsupportedNode(f"expression must be a nonempty array: {obj!r}")
    op = obj[0]
    if op == "const":
        return const(number_from_json(obj[1]))
    if op == "var":
        return var(obj[1])
    if op == "neg":
        return sub(ZERO, node_from_json(obj[1]))
    if op in _BINARY_OPS:
        return _CONSTRUCTORS[op](node_from_json(obj[1]),
                                 node_from_json(obj[2]))
    if op in _UNARY_OPS:
        return _CONSTRUCTORS[op](node_from_json(obj[1]))
    if op == "pow":
        return pow_(node_from_json(obj[1]), obj[2])
    if op == "piecewise":
        branches = [(node_from_json(b[0]), node_from_json(b[1]))
                    for b in obj[1:]]
        return piecewise(branches)
    raise UnsupportedNode(f"unknown expression op {op!r}")


def number_from_json(v) -> Number:
    """A JSON number: an int or a ``"p/q"`` (or decimal) string as an exact
    Fraction, a float as itself.  A bool, any other type or a string that
    is no rational raises :class:`UnsupportedNode`."""
    if isinstance(v, bool):
        raise UnsupportedNode(f"expected a number, got {v!r}")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, float):
        return v
    if isinstance(v, str):
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError):
            raise UnsupportedNode(f"bad rational literal {v!r}") from None
    raise UnsupportedNode(f"expected a number, got {type(v).__name__}")


def exprfn_from_json(obj, arity: int) -> ExprFn:
    return ExprFn(arity, node_from_json(obj))


# ---------------------------------------------------------------------------
# convenience builders for tests and bundled scenes


def polynomial(arity: int, terms: dict) -> ExprFn:
    """Build sum of ``coeff * x^alpha`` from ``{alpha_tuple: coeff}``."""
    root = ZERO
    for alpha, c in sorted(terms.items()):
        term = const(c)
        for i, k in enumerate(alpha):
            term = mul(term, pow_(var(i), k))
        root = add(root, term)
    return ExprFn(arity, root)
