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
from pathlib import Path
from typing import Optional

from . import expr, geometry
from .errors import InputError, Record, SceneFormatError, UnsupportedNode
from .expr import ExprFn
from .extension import Scene, Stratum
from .geometry import GraphCell, Interval, PointCell, Slab
from .jets import FieldSpec, mi_from_string, mi_to_string, multi_indices

SCHEMA = "jetfield-scene/1"
CHECKS = ("structure", "consistency", "agreement", "whitney", "flatness")


class Plan(Record):
    seed: int
    samples_per_stratum: int
    tolerance: float
    checks: tuple
    flatness: tuple
    whitney: Optional[dict]


class SceneFile(Record):
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


def _int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, f"must be an integer, got {value!r}")
    return value


def _positive(value, path: str):
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not 0 < value < math.inf):
        _fail(path, f"must be a positive number, got {value!r}")


def _vector(value, length: int, path: str):
    """A list of ``length`` finite JSON numbers (no bool, no string)."""
    if not (isinstance(value, list) and len(value) == length and all(
            not isinstance(v, bool) and isinstance(v, (int, float))
            and math.isfinite(v) for v in value)):
        _fail(path, f"must be a list of {length} numbers, got {value!r}")


def _object(value, path: str, *keys: str):
    """An object; given ``keys``, every key must be one of them.  An unknown
    key is refused by its ``path.key``, so a misspelt key never reads as
    left out."""
    if not isinstance(value, dict):
        _fail(path or "scene", f"must be an object, got {value!r}")
    for key in value:
        if keys and key not in keys:
            _fail(f"{path}.{key}" if path else key,
                  f"must be one of the keys {', '.join(keys)}")


def _scale_range(obj: dict, path: str):
    """Integers ``j0 < j1``."""
    j0, j1 = _int(obj["j0"], f"{path}.j0"), _int(obj["j1"], f"{path}.j1")
    if j1 <= j0:
        _fail(f"{path}.j1", f"must be greater than j0 ({j0}), got {j1!r}")


def _nonempty(value, path: str):
    if not isinstance(value, list) or not value:
        _fail(path, f"must be a nonempty array, got {value!r}")


def _whitney_block(cfg, scene: Scene) -> dict:
    """The ``whitney`` block with its defaults filled in: a scale range
    and either ``probes`` or ``targets`` and ``directions``, one direction
    per target."""
    path, n = "plan.whitney", scene.n
    _object(cfg, path, "j0", "j1", "targets", "directions", "probes")
    cfg = {"j0": 4, "j1": 14, **cfg}
    _scale_range(cfg, path)
    if "probes" not in cfg:
        cfg = {"targets": [[0.0] * n], "directions": [[1.0] * n], **cfg}
        for key in ("targets", "directions"):
            _nonempty(cfg[key], f"{path}.{key}")
            for i, v in enumerate(cfg[key]):
                _vector(v, n, f"{path}.{key}[{i}]")
        if len(cfg["directions"]) != len(cfg["targets"]):
            _fail(f"{path}.directions", "must hold one direction per "
                                        f"target ({len(cfg['targets'])})")
        return cfg
    if "targets" in cfg or "directions" in cfg:
        _fail(path, "must give probes or targets/directions, not both")
    _nonempty(cfg["probes"], f"{path}.probes")
    strata = {s.id: s for s in scene.strata}
    for i, probe in enumerate(cfg["probes"]):
        where = f"{path}.probes[{i}]"
        _object(probe, where)
        if "stratum" not in probe:
            _object(probe, where, "target", "direction")
            for key in ("target", "direction"):
                _vector(probe.get(key), n, f"{where}.{key}")
            continue
        _object(probe, where, "stratum", "param_target", "param_direction",
                "anchor")
        sid = probe["stratum"]
        stratum = strata.get(sid) if isinstance(sid, str) else None
        if stratum is None or stratum.dim == 0:
            _fail(f"{where}.stratum", "must name a stratum of positive "
                                      f"dimension, got {sid!r}")
        for key in ("param_target", "param_direction"):
            _vector(probe.get(key), stratum.dim, f"{where}.{key}")
        _vector(probe.get("anchor"), n, f"{where}.anchor")
    return cfg


def _flatness_items(items, scene: Scene) -> tuple:
    """The ``flatness`` items with their defaults filled in: each names a
    stratum and has an n-vector ``target`` and ``direction``, a scale
    range and positive ``cone`` and ``theta``."""
    _nonempty(items, "plan.flatness")
    ids = {s.id for s in scene.strata}
    out = []
    for i, item in enumerate(items):
        path = f"plan.flatness[{i}]"
        _object(item, path, "stratum", "target", "direction", "j0", "j1",
                "cone", "theta")
        item = {"j0": 3, "j1": 14, "cone": 0.5, "theta": 1e-2, **item}
        sid = item.get("stratum")
        if not isinstance(sid, str) or sid not in ids:
            _fail(f"{path}.stratum", f"must name a stratum, got {sid!r}")
        for key in ("target", "direction"):
            _vector(item.get(key), scene.n, f"{path}.{key}")
        _scale_range(item, path)
        for key in ("cone", "theta"):
            _positive(item[key], f"{path}.{key}")
        out.append(item)
    return tuple(out)


def _parse_plan(raw, scene: Scene) -> Plan:
    """The verification plan, its keys typed: a bool, a non-integer count,
    a tolerance that is no positive finite number, an unknown check, a
    listed ``whitney`` or ``flatness`` check without its data, or a
    malformed probe raises :class:`SceneFormatError` naming the key.  The
    probe data reach the checks with the values read and the defaults of
    the keys left out."""
    _object(raw, "plan", "seed", "samples_per_stratum", "tolerance", "checks",
            "whitney", "flatness")
    count = raw.get("samples_per_stratum", 100)
    if isinstance(count, bool) or not isinstance(count, int) or count < 1:
        _fail("plan.samples_per_stratum",
              f"must be a positive integer, got {count!r}")
    tol = raw.get("tolerance", 1e-4)
    _positive(tol, "plan.tolerance")
    checks = raw.get("checks", ["structure", "consistency", "agreement"])
    if not isinstance(checks, list):
        _fail("plan.checks", "must be an array")
    for i, check in enumerate(checks):
        if check not in CHECKS:
            _fail(f"plan.checks[{i}]",
                  f"must be one of {', '.join(CHECKS)}, got {check!r}")
    for key in ("whitney", "flatness"):
        if key in checks and key not in raw:
            _fail(f"plan.{key}", f"must be given: plan.checks lists {key}")
    whitney, flatness = None, ()
    if "whitney" in checks or raw.get("whitney") is not None:
        whitney = _whitney_block(raw["whitney"], scene)
    if "flatness" in checks or raw.get("flatness"):
        flatness = _flatness_items(raw["flatness"], scene)
    return Plan(parse_seed(raw.get("seed", 0), "plan.seed"), count,
                float(tol), tuple(checks), flatness, whitney)


def _opt_num(value, path: str):
    return None if value is None else _num(value, path)


def parse_expr(obj, arity: int, path: str) -> ExprFn:
    try:
        return expr.exprfn_from_json(obj, arity)
    except Exception as exc:
        _fail(path, f"bad expression: {exc}")


def parse_open_cell(obj: dict, path: str):
    _object(obj, path)
    kind = obj.get("type")
    if kind == "interval":
        _object(obj, path, "type", "lower", "upper")
        lo = _opt_num(obj.get("lower"), f"{path}.lower")
        hi = _opt_num(obj.get("upper"), f"{path}.upper")
        return Interval(None if lo is None else float(lo),
                        None if hi is None else float(hi))
    if kind == "slab":
        _object(obj, path, "type", "base", "lower", "upper")
        base = parse_open_cell(obj.get("base"), f"{path}.base")
        dim = geometry.open_cell_dim(base)
        lo = obj.get("lower")
        hi = obj.get("upper")
        return Slab(base,
                    None if lo is None else parse_expr(lo, dim, f"{path}.lower"),
                    None if hi is None else parse_expr(hi, dim, f"{path}.upper"))
    _fail(path, f"unknown open-cell type {kind!r}")


def parse_cell(obj: dict, n: int, path: str):
    _object(obj, path)
    kind = obj.get("type")
    if kind == "point":
        _object(obj, path, "type", "coords")
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
        _object(obj, path, "type", "base", "graph", "perm")
        base = parse_open_cell(obj.get("base"), f"{path}.base")
        m = geometry.open_cell_dim(base)
        graph_raw = obj.get("graph", [])
        if not isinstance(graph_raw, list):
            _fail(f"{path}.graph", f"must be an array, got {graph_raw!r}")
        graph = tuple(parse_expr(g, m, f"{path}.graph[{i}]")
                      for i, g in enumerate(graph_raw))
        if m + len(graph) != n:
            _fail(path, f"graph cell dims {m}+{len(graph)} != ambient {n}")
        perm = obj.get("perm", list(range(n)))
        if not (isinstance(perm, list) and all(type(k) is int for k in perm)
                and sorted(perm) == list(range(n))):
            _fail(f"{path}.perm", "must be a permutation of the axes")
        return GraphCell(base, graph, tuple(perm))
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


def read_json(path):
    """The JSON value in the file ``path``; a file that cannot be read or
    is not JSON raises :class:`InputError` naming it."""
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise InputError(f"{path}: cannot read ({exc.strerror})") from exc
    except ValueError as exc:          # not JSON, or not text
        raise InputError(f"{path}: not valid JSON ({exc})") from exc


def load_scene(path) -> SceneFile:
    return parse_scene(read_json(path))


def parse_scene(raw: dict) -> SceneFile:
    _object(raw, "", "schema", "n", "p", "q", "box", "strata", "plan")
    if raw.get("schema") != SCHEMA:
        _fail("schema", f"expected {SCHEMA!r}, got {raw.get('schema')!r}")
    for key in ("n", "p", "q"):
        value = raw.get(key)
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            _fail(key, f"must be a positive integer, got {value!r}")
    n, p, q = raw["n"], raw["p"], raw["q"]
    if p > q:
        _fail("p", "requires p <= q")
    box = raw.get("box", geometry.DEFAULT_BOX_HALFWIDTH)
    _positive(box, "box")

    strata_raw = raw.get("strata")
    if not isinstance(strata_raw, list) or not strata_raw:
        _fail("strata", "must be a nonempty array")
    strata, fields, flat = [], {}, set()
    for i, s in enumerate(strata_raw):
        path = f"strata[{i}]"
        _object(s, path, "id", "cell", "boundary", "field", "flat")
        sid = s.get("id")
        if not isinstance(sid, str) or not sid:
            _fail(f"{path}.id", "must be a nonempty string")
        cell = parse_cell(s.get("cell", {}), n, f"{path}.cell")
        boundary = s.get("boundary", [])
        if not (isinstance(boundary, list)
                and all(isinstance(b, str) for b in boundary)):
            _fail(f"{path}.boundary",
                  f"must be an array of stratum ids, got {boundary!r}")
        m = 0 if isinstance(cell, PointCell) else cell.intrinsic_dim
        fld = parse_field(s.get("field", {}), n, p, sid, max(1, m),
                          f"{path}.field")
        if not isinstance(s.get("flat", False), bool):
            _fail(f"{path}.flat", f"must be true or false, got {s['flat']!r}")
        strata.append(Stratum(sid, cell, tuple(boundary)))
        fields[sid] = fld
        if s.get("flat"):
            flat.add(sid)

    scene = Scene(n, p, q, tuple(strata), fields, frozenset(flat),
                  float(box))
    return SceneFile(scene, _parse_plan(raw.get("plan", {}), scene))


def dump_deterministic(obj) -> str:
    """Canonical JSON for byte-reproducible reports."""
    return json.dumps(obj, sort_keys=True, indent=1, ensure_ascii=True)

