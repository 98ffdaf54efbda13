"""Scene file schema: strata, cells, coefficient expressions and the
verification plan, serialized as JSON with exact rationals as strings.

A scene file packages the hypotheses the extension driver needs as
explicit data: ambient dimension, jet order ``p``, smoothness budget
``q``, a stratification (cells with coordinate permutations and declared
boundary relations), one coefficient expression per multi-index per
stratum, and a plan describing which checks to run with which seeds and
tolerances.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from . import expr, geometry
from .errors import SceneFormatError, UnsupportedNode
from .expr import ExprFn
from .extension import Scene, Stratum
from .geometry import GraphCell, Interval, PointCell, Slab
from .jets import FieldSpec, mi_from_string, mi_to_string, multi_indices

SCHEMA = "jetfield-scene/1"
CHECKS = ("structure", "consistency", "agreement", "whitney", "flatness")


@dataclass
class Plan:
    seed: int
    samples_per_stratum: int
    tolerance: float
    checks: tuple
    flatness: tuple
    whitney: Optional[dict]


@dataclass
class SceneFile:
    scene: Scene
    plan: Plan


def _fail(path: str, message: str):
    raise SceneFormatError(f"{path}: {message}")


def _num(value, path: str):
    """:func:`expr.number_from_json`, its error named with ``path``."""
    try:
        return expr.number_from_json(value)
    except UnsupportedNode as exc:
        _fail(path, str(exc))


def parse_seed(value, path: str) -> int:
    """A seed of the sampled certificates: a non-negative integer."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        _fail(path, f"must be a non-negative integer, got {value!r}")
    return value


def _parse_plan(raw: dict) -> Plan:
    """The verification plan, its keys typed: a bool, a non-integer count,
    a tolerance that is no positive finite number or an unknown check
    raises :class:`SceneFormatError` naming the key."""
    count = raw.get("samples_per_stratum", 100)
    if isinstance(count, bool) or not isinstance(count, int) or count < 1:
        _fail("plan.samples_per_stratum",
              f"must be a positive integer, got {count!r}")
    tol = raw.get("tolerance", 1e-4)
    if (isinstance(tol, bool) or not isinstance(tol, (int, float))
            or not 0 < tol < math.inf):
        _fail("plan.tolerance", f"must be a positive number, got {tol!r}")
    checks = raw.get("checks", ["structure", "consistency", "agreement"])
    if not isinstance(checks, list):
        _fail("plan.checks", "must be an array")
    for i, check in enumerate(checks):
        if check not in CHECKS:
            _fail(f"plan.checks[{i}]",
                  f"must be one of {', '.join(CHECKS)}, got {check!r}")
    return Plan(parse_seed(raw.get("seed", 0), "plan.seed"), count,
                float(tol), tuple(checks), tuple(raw.get("flatness", ())),
                raw.get("whitney"))


def _opt_num(value, path: str):
    return None if value is None else _num(value, path)


def parse_expr(obj, arity: int, path: str) -> ExprFn:
    try:
        return expr.exprfn_from_json(obj, arity)
    except Exception as exc:
        _fail(path, f"bad expression: {exc}")


def parse_open_cell(obj: dict, path: str):
    kind = obj.get("type")
    if kind == "interval":
        lo = _opt_num(obj.get("lower"), f"{path}.lower")
        hi = _opt_num(obj.get("upper"), f"{path}.upper")
        return Interval(None if lo is None else float(lo),
                        None if hi is None else float(hi))
    if kind == "slab":
        base = parse_open_cell(obj["base"], f"{path}.base")
        dim = geometry.open_cell_dim(base)
        lo = obj.get("lower")
        hi = obj.get("upper")
        return Slab(base,
                    None if lo is None else parse_expr(lo, dim, f"{path}.lower"),
                    None if hi is None else parse_expr(hi, dim, f"{path}.upper"))
    _fail(path, f"unknown open-cell type {kind!r}")


def parse_cell(obj: dict, n: int, path: str):
    kind = obj.get("type")
    if kind == "point":
        coords = obj.get("coords")
        if not isinstance(coords, list) or len(coords) != n:
            _fail(f"{path}.coords", f"need {n} coordinates")
        return PointCell(tuple(_num(c, f"{path}.coords[{i}]")
                               for i, c in enumerate(coords)))
    if kind in ("interval", "slab"):
        base = parse_open_cell(obj, path)
        if geometry.open_cell_dim(base) != n:
            _fail(path, "open-cell stratum must be full-dimensional")
        return geometry.identity_graph_cell(base)
    if kind == "graph":
        base = parse_open_cell(obj["base"], f"{path}.base")
        m = geometry.open_cell_dim(base)
        graph_raw = obj.get("graph", [])
        graph = tuple(parse_expr(g, m, f"{path}.graph[{i}]")
                      for i, g in enumerate(graph_raw))
        if m + len(graph) != n:
            _fail(path, f"graph cell dims {m}+{len(graph)} != ambient {n}")
        perm = tuple(obj.get("perm", range(n)))
        if sorted(perm) != list(range(n)):
            _fail(f"{path}.perm", "must be a permutation of the axes")
        return GraphCell(base, graph, perm)
    _fail(path, f"unknown cell type {kind!r}")


def parse_field(obj: dict, n: int, p: int, stratum_id: str, param_arity: int,
                path: str) -> FieldSpec:
    if not isinstance(obj, dict):
        _fail(path, "field must map multi-indices to expressions")
    expected = {mi_to_string(a) for a in multi_indices(n, p)}
    got = set(obj)
    if got != expected:
        missing = sorted(expected - got)
        extra = sorted(got - expected)
        _fail(path, f"field keys mismatch (missing {missing}, extra {extra})")
    coeffs = {}
    for key, e in obj.items():
        alpha = mi_from_string(key)
        coeffs[alpha] = parse_expr(e, param_arity, f"{path}[{key!r}]")
    return FieldSpec(n, p, stratum_id, param_arity, coeffs)


def load_scene(path) -> SceneFile:
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise SceneFormatError(f"{path}: not valid JSON ({exc})") from exc
    return parse_scene(raw)


def parse_scene(raw: dict) -> SceneFile:
    if raw.get("schema") != SCHEMA:
        _fail("schema", f"expected {SCHEMA!r}, got {raw.get('schema')!r}")
    for key in ("n", "p", "q"):
        if not isinstance(raw.get(key), int) or raw[key] < 1:
            _fail(key, "must be a positive integer")
    n, p, q = raw["n"], raw["p"], raw["q"]
    if p > q:
        _fail("p", "requires p <= q")
    box = float(raw.get("box", geometry.DEFAULT_BOX_HALFWIDTH))

    strata_raw = raw.get("strata")
    if not isinstance(strata_raw, list) or not strata_raw:
        _fail("strata", "must be a nonempty array")
    strata, fields, flat = [], {}, set()
    for i, s in enumerate(strata_raw):
        path = f"strata[{i}]"
        sid = s.get("id")
        if not isinstance(sid, str) or not sid:
            _fail(f"{path}.id", "must be a nonempty string")
        cell = parse_cell(s.get("cell", {}), n, f"{path}.cell")
        boundary = tuple(s.get("boundary", []))
        m = 0 if isinstance(cell, PointCell) else cell.intrinsic_dim
        fld = parse_field(s.get("field", {}), n, p, sid, max(1, m),
                          f"{path}.field")
        strata.append(Stratum(sid, cell, boundary))
        fields[sid] = fld
        if s.get("flat"):
            flat.add(sid)

    scene = Scene(n, p, q, tuple(strata), fields, frozenset(flat), box)
    return SceneFile(scene, _parse_plan(raw.get("plan", {})))


def dump_deterministic(obj) -> str:
    """Canonical JSON for byte-reproducible reports."""
    return json.dumps(obj, sort_keys=True, indent=1, ensure_ascii=True)

