"""Assembly of global extensions from jet fields on stratified scenes.

The driver works by induction on stratum dimension: point strata are glued
with ball cutoffs of disjoint support; for positive dimension the skeleton
(everything of lower dimension) is extended first, and each
top-dimensional graph cell then contributes a term ``f_j * omega_j``: the
degree-p normal polynomial of the cell's field minus the skeleton's
sampled Taylor data -- a remainder numerically flat on the skeleton --
cut off inside a cone neighborhood of the cell relative to the rest of
the scene.  Each term is identically zero wherever its cutoff vanishes,
so the assembled function is total on all of R^n.
"""
from __future__ import annotations

import functools
import json
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from . import cutoff as cutoff_mod
from . import expr, geometry, verify
from .cutoff import CutoffFn, CutoffSpec, build_cutoff
from .errors import (ConsistencyViolation, Record, SequenceLeavesCone,
                     SingularPoint, StratificationInvalid, SupportLeak,
                     WhitneyError)
from .geometry import (EMPTY_SET, INSIDE, OUTSIDE, GraphCell, PointCell,
                       SetDescriptor, membership)
from .jets import (FieldSpec, PointJet, mi_add, mi_factorial, mi_order,
                   multi_indices)
from .rng import SeededStream, sha256

# ---------------------------------------------------------------------------
# scenes


class Stratum(Record):
    id: str
    cell: object                      # PointCell | GraphCell
    boundary_ids: tuple[str, ...] = ()

    @property
    def dim(self) -> int:
        return self.cell.intrinsic_dim


_VALIDATE_SAMPLES = 24       # parameter samples per stratum in validate


class Scene(Record):
    n: int
    p: int
    q: int
    strata: tuple[Stratum, ...]
    fields: Mapping[str, FieldSpec]
    flat_on: frozenset = frozenset()
    box: float = geometry.DEFAULT_BOX_HALFWIDTH

    def __post_init__(self):
        if self.p > self.q:
            raise StratificationInvalid("scene requires p <= q")

    def stratum(self, sid: str) -> Stratum:
        for s in self.strata:
            if s.id == sid:
                return s
        raise StratificationInvalid(f"unknown stratum {sid!r}")

    def descriptor_for(self, ids: Sequence[str]) -> SetDescriptor:
        return SetDescriptor(tuple(self.stratum(sid).cell for sid in ids))

    def restrict(self, ids: Sequence[str]) -> "Scene":
        keep = [s for s in self.strata if s.id in set(ids)]
        return Scene(self.n, self.p, self.q, tuple(keep),
                     {s.id: self.fields[s.id] for s in keep},
                     self.flat_on & set(ids), self.box)

    @property
    def dim(self) -> int:
        return max((s.dim for s in self.strata), default=0)

    def validate(self) -> list[str]:
        """Structural validation, then the disjointness, chain-rule and
        flat checks on one array of ``_VALIDATE_SAMPLES`` parameter samples
        per stratum, embedded once; returns a list of human-readable
        problems (empty means the scene looks sound).  A stratum reported
        without a field, with a bad permutation or with a graph map
        singular on its frontier or samples skips the later checks."""
        problems = []
        ids = [s.id for s in self.strata]
        if len(set(ids)) != len(ids):
            problems.append("duplicate stratum ids")
        if not self.strata:
            problems.append("scene has no strata")
        sampled = []                    # (stratum, parameter rows, points)
        for s in self.strata:
            if s.id not in self.fields:
                problems.append(f"stratum {s.id!r} has no field")
            for b in s.boundary_ids:
                if b not in ids:
                    problems.append(
                        f"stratum {s.id!r} declares unknown boundary {b!r}")
                elif self.stratum(b).dim >= s.dim:
                    problems.append(
                        f"boundary {b!r} of {s.id!r} is not lower-dimensional")
            graph = isinstance(s.cell, GraphCell)
            if graph and sorted(s.cell.perm) != list(range(self.n)):
                problems.append(f"stratum {s.id!r}: bad permutation")
            elif s.id in self.fields:
                try:
                    if graph:
                        problems.extend(self._closure_check(s))
                    U = geometry.stratum_samples(s.cell, _VALIDATE_SAMPLES,
                                                 self.box)
                    sampled.append((s, U, s.cell.embed_rows(U)))
                except SingularPoint as exc:
                    problems.append(f"stratum {s.id!r}: singular graph map "
                                    f"({exc})")
        # no stratum's samples lie on another: one membership call each
        X = np.concatenate([np.empty((0, self.n))]
                           + [Xs for _, _, Xs in sampled])
        owner = np.repeat([s.id for s, _, _ in sampled],
                          [len(Xs) for _, _, Xs in sampled])
        overlaps = {}                   # stratum -> first other it meets
        for o in self.strata:
            for sid in owner[membership(o.cell, X, 1e-9) == INSIDE].tolist():
                if sid != o.id:
                    overlaps.setdefault(sid, o.id)
        problems += [f"strata {s.id!r} and {overlaps[s.id]!r} overlap"
                     for s, _, _ in sampled if s.id in overlaps]
        for s, U, _ in sampled:
            if isinstance(s.cell, GraphCell):
                try:
                    check_stratum_consistency(self.fields[s.id], s.cell, U)
                except WhitneyError as exc:
                    problems.append(f"field consistency on {s.id!r}: {exc}")
        # a flat stratum's coefficients are exactly 0 at its samples (a
        # point's read u = 0): the first that is not is reported, and where
        for s, U, Xs in sampled:
            if s.id not in self.flat_on:
                continue
            try:
                for alpha in multi_indices(self.n, self.p):
                    v = expr.evaluate_rows_or_raise(
                        self.fields[s.id].coeffs[alpha],
                        U if U.shape[1] else np.zeros((1, 1)))
                    i = int(np.argmax(v != 0.0))
                    if v[i] != 0.0:
                        x = tuple(round(float(c), 6) for c in Xs[i])
                        raise ConsistencyViolation(
                            f"coefficient {alpha} is {v[i]:.3e}, not 0, "
                            f"at {x}")
            except WhitneyError as exc:
                problems.append(f"flat stratum {s.id!r}: {exc}")
        return problems

    def _closure_check(self, s: Stratum) -> list[str]:
        """Frontier sample points must land on declared boundary strata;
        one problem per stratum names the first frontier point when none is
        declared, else the worst miss."""
        frontier = geometry.frontier_samples(s.cell, self.box)
        if not len(frontier):
            return []
        if s.boundary_ids:
            _, up = geometry.distance_brackets(
                self.descriptor_for(s.boundary_ids), frontier, self.box)
            worst = int(np.argmax(up))
            if up[worst] <= 1e-4:
                return []
            what = f"misses its declared boundary by {up[worst]:.2e}"
        else:
            worst, what = 0, "has no boundary stratum"
        x = tuple(round(float(v), 6) for v in frontier[worst])
        return [f"stratification not closed: frontier point {x} of "
                f"{s.id!r} {what}"]


# ---------------------------------------------------------------------------
# extension terms


class PointGlueTerm:
    """Jet polynomial at an isolated point times a ball cutoff."""

    def __init__(self, stratum_id: str, jet: PointJet, omega: CutoffFn):
        self.stratum_id = stratum_id
        self.jet = jet
        self.omega = omega
        self.center = np.asarray([float(v) for v in jet.base])

    def evaluate(self, X: np.ndarray):
        """``(values, leaks)`` on the rows of ``X``; a ball term never leaks."""
        w = self.omega(X)
        out = np.zeros(len(X))
        rows = np.flatnonzero(w)
        coeffs = [(a, float(c)) for a, c in self.jet.coeffs.items()]
        out[rows] = _jet_polynomial(coeffs, X[rows] - self.center) * w[rows]
        return out, np.zeros(len(X), dtype=bool)

    def trace(self) -> dict:
        return {"kind": "point", "stratum": self.stratum_id,
                "eta": self.omega.spec.eta,
                "cutoff": {"eta": self.omega.spec.eta,
                           "q": self.omega.spec.q},
                "hash": _term_hash(self.jet.coeffs)}


_SUBTRACT_STEP = 1e-4         # finite-difference step of D^alpha g


class CellTerm:
    """Normal-degree-p polynomial of a graph cell's field, cut off inside
    a cone neighborhood of the cell relative to the rest of the scene.

    With a ``skeleton`` extension ``g``, each normal coefficient
    ``F^(0,beta)`` is replaced by ``F^(0,beta) - D^(0,beta) g`` sampled on
    the cell at the step ``_SUBTRACT_STEP``: one
    :func:`verify.sampled_derivatives` call per batch reads every beta."""

    def __init__(self, stratum_id: str, cell: GraphCell,
                 normal_coeffs: Mapping, omega: CutoffFn, eta: float,
                 skeleton: Optional["ExtensionFn"] = None):
        self.stratum_id = stratum_id
        self.cell = cell
        self.normal_coeffs = dict(normal_coeffs)
        self.omega = omega
        self.eta = eta
        self.skeleton = skeleton

    def evaluate(self, X: np.ndarray):
        """``(values, leaks)`` on the rows of ``X``; ``leaks`` marks rows
        where the cutoff is nonzero off the cell, which count as zero."""
        w = self.omega(X)
        m = self.cell.intrinsic_dim
        Y = X[:, list(self.cell.perm)]           # internal coordinates
        leaks = np.zeros(len(X), dtype=bool)
        rows = np.flatnonzero(w)
        leaks[rows] = (membership(self.cell.base, Y[rows, :m], 1e-12)
                       == OUTSIDE)
        rows = rows[~leaks[rows]]
        for j, phi in enumerate(self.cell.graph):    # normal offsets
            offset, singular = expr.evaluate_rows(phi, Y[rows, :m])
            Y[rows, m + j] -= offset
            leaks[rows[singular]] = True
        out = np.zeros(len(X))
        rows = rows[~leaks[rows]]
        if len(rows):
            U = Y[rows, :m]
            coeffs = [expr.evaluate_rows_or_raise(fn, U)
                      for fn in self.normal_coeffs.values()]
            if self.skeleton is not None:
                X0 = self.cell.embed_rows(U)
                H = np.full(len(U), _SUBTRACT_STEP)
                derivs = verify.sampled_derivatives(self.skeleton, [
                    (X0, self.cell.to_ambient((0,) * m + beta), H)
                    for beta in self.normal_coeffs])
                coeffs = [c - d for c, (d, _) in zip(coeffs, derivs)]
            out[rows] = _jet_polynomial(zip(self.normal_coeffs, coeffs),
                                        Y[rows, m:]) * w[rows]
        return out, leaks

    def trace(self) -> dict:
        return {"kind": "cell", "stratum": self.stratum_id, "eta": self.eta,
                "cutoff": {"eta": self.omega.spec.eta,
                           "q": self.omega.spec.q},
                "hash": _term_hash(sorted(self.normal_coeffs))}


def _jet_polynomial(coeffs, offsets: np.ndarray) -> np.ndarray:
    """Rows of ``sum c / beta! * offsets^beta``; a zero ``c`` adds nothing."""
    total = np.zeros(len(offsets))
    for beta, c in coeffs:
        term = c / mi_factorial(beta)
        for j, k in enumerate(beta):
            if k:
                term = term * offsets[:, j] ** k
        total += np.where(c == 0.0, 0.0, term)
    return total


def _term_hash(payload) -> str:
    blob = json.dumps(repr(payload), sort_keys=True).encode()
    return sha256(blob).hexdigest()[:16]


class ExtensionFn:
    """Sum of cutoff-localized terms plus an optional sub-extension of the
    lower-dimensional skeleton.  Total on R^n; derivatives are sampled by
    finite differences."""

    def __init__(self, n: int, terms: Sequence, sub: Optional["ExtensionFn"]):
        self.n = n
        self.terms = list(terms)
        self.sub = sub

    def __call__(self, X: np.ndarray) -> np.ndarray:
        """The values on the rows of the ``(N, n)`` array ``X``."""
        return self.evaluate(X)[0]

    def evaluate(self, X: np.ndarray):
        """``(values, leaks)`` on the rows of ``X``; ``leaks`` counts the
        leaking rows of every cell term here and in the skeleton."""
        total, leaks = (self.sub.evaluate(X) if self.sub is not None
                        else (np.zeros(len(X)), 0))
        for t in self.terms:
            vals, leak = t.evaluate(X)
            total += vals
            leaks += int(np.count_nonzero(leak))
        return total, leaks

    def assembly_trace(self) -> list[dict]:
        out = [t.trace() for t in self.terms]
        if self.sub is not None:
            out.extend(self.sub.assembly_trace())
        return out


# ---------------------------------------------------------------------------
# field consistency along a graph cell


_CONSISTENCY_TOL = 1e-5      # largest relative chain-rule residual accepted


def check_stratum_consistency(fld: FieldSpec, cell: GraphCell,
                              samples: Sequence) -> float:
    """Chain-rule compatibility of a field over the graph cell
    ``{(u, phi(u))}``: for every ``|gamma| < p``, tangential axis ``i < m``
    and row ``u`` of the ``(N, m)`` parameter samples,

        D_{u_i} F^gamma = F^{gamma+e_i} + sum_j D_{u_i} phi_j F^{gamma+e_{m+j}}.

    Both sides come from :func:`expr.differentiate` and
    :func:`expr.evaluate` on the expression coefficients, so they are
    exact Fractions at rational samples.  Over a constant graph the sum
    vanishes; higher tangential orders follow by induction.  Returns the
    worst relative residual ``|lhs - rhs| / (1 + |rhs|)``; raises
    :class:`~whitney.errors.ConsistencyViolation` beyond
    ``_CONSISTENCY_TOL``.
    """
    m, n = cell.intrinsic_dim, fld.n
    unit = [tuple(int(k == i) for k in range(n)) for i in range(n)]
    rows = [tuple(u) for u in np.asarray(samples).tolist()]
    worst = 0.0
    for gamma in multi_indices(n, fld.p - 1):
        for i in range(m):
            along = unit[i][:m]
            d_fn = expr.differentiate(fld.coeffs[gamma], along)
            tangent = fld.coeffs[mi_add(gamma, unit[i])]
            normal = [(expr.differentiate(phi, along),
                       fld.coeffs[mi_add(gamma, unit[m + j])])
                      for j, phi in enumerate(cell.graph)]
            for u in rows:
                try:
                    lhs = expr.evaluate(d_fn, u)
                    rhs = expr.evaluate(tangent, u) + sum(
                        expr.evaluate(slope, u) * expr.evaluate(c, u)
                        for slope, c in normal)
                except SingularPoint as exc:
                    raise SingularPoint(
                        f"stratum {fld.stratum_id!r}: chain rule for "
                        f"coefficient {gamma} along axis {i} is singular "
                        f"at u={u} ({exc})") from exc
                resid = float(abs(lhs - rhs) / (1 + abs(rhs)))
                worst = max(worst, resid)
                if resid > _CONSISTENCY_TOL:
                    raise ConsistencyViolation(
                        f"stratum {fld.stratum_id!r}: chain rule for "
                        f"coefficient {gamma} along axis {i} deviates by "
                        f"{resid:.3e} at u={u}")
    return worst


# ---------------------------------------------------------------------------
# single-cell extension


_ETA0 = 0.5                   # first support ratio of a cell term
_MAX_HALVINGS = 20
_LEAK_SAMPLES = 2000          # uniform rows of the support leak check


def extend_on_cell(fld: FieldSpec, stratum: Stratum, z_desc: SetDescriptor,
                   scene: Scene, *, seed: int = 0,
                   skeleton: Optional[ExtensionFn] = None) -> CellTerm:
    """Extension term for one graph cell: the normal-degree-p polynomial of
    the cell's jets, less the Taylor data of the ``skeleton`` extension when
    one is given, multiplied by a cone-neighborhood cutoff.

    The support ratio starts at ``_ETA0`` and is halved until the sampled
    cone neighborhood (``up_W < eta * lo_Z``) stays inside the cell's
    parameter slab; more than ``_MAX_HALVINGS`` halvings raise
    :class:`SupportLeak`.  ``up_W`` is read once, on the rows whose W floor
    is below ``_ETA0 * lo_Z``.
    """
    cell = stratum.cell
    if not isinstance(cell, GraphCell):
        raise StratificationInvalid("extend_on_cell needs a graph cell")
    m = cell.intrinsic_dim
    normal = {}
    for beta in multi_indices(scene.n - m, scene.p):
        key = (0,) * m + beta
        normal[beta] = fld.coeffs[key]

    X = _leak_samples(cell, z_desc, scene, _LEAK_SAMPLES, seed)
    lo_z, _ = geometry.distance_brackets(z_desc, X, scene.box)
    table = geometry.distance_table(geometry.descriptor_of(cell), scene.box)
    keep = table.floor(X) < _ETA0 * lo_z
    X, lo_z = X[keep], lo_z[keep]
    (_, up_w), U = table(X), X[:, list(cell.perm[:m])]
    eta = _ETA0
    for _ in range(_MAX_HALVINGS + 1):
        inside = up_w < eta * lo_z
        if not (membership(cell.base, U[inside], 1e-9) == OUTSIDE).any():
            break
        eta /= 2.0
    else:
        raise SupportLeak(
            f"cone support of {stratum.id!r} escapes its parameter slab "
            f"even at eta={eta:.2e}")

    spec = CutoffSpec(geometry.descriptor_of(cell), z_desc, eta, scene.q,
                      box=scene.box)
    omega = build_cutoff(spec)
    return CellTerm(stratum.id, cell, normal, omega, eta, skeleton)


_SHELL_RADII = 2.0 ** -np.arange(2, 14)
_SHELL_POINTS = 16


def _leak_samples(cell: GraphCell, z_desc: SetDescriptor, scene: Scene,
                  n_samples: int, seed: int) -> np.ndarray:
    """Rows of the leak check: ``n_samples`` uniform rows of the cutoff's
    sample box, then 16 rows in each of shrinking shells around every
    :func:`geometry.frontier_samples` point, where cone support violations
    concentrate.  One draw of the seeded stream, in that order."""
    lo, hi = cutoff_mod._sample_box(geometry.descriptor_of(cell), z_desc,
                                    scene.box)
    centers = geometry.frontier_samples(cell, scene.box)
    n_shell = len(centers) * len(_SHELL_RADII) * _SHELL_POINTS
    draws = _uniform_draws(seed, n_samples + n_shell, scene.n)
    shells = draws[n_samples:].reshape(len(centers), len(_SHELL_RADII),
                                       _SHELL_POINTS, scene.n)
    shells = (centers[:, None, None, :]
              + _SHELL_RADII[:, None, None] * (shells - 0.5) * 2.0)
    return np.vstack([lo + (hi - lo) * draws[:n_samples],
                      shells.reshape(n_shell, scene.n)])


@functools.lru_cache(maxsize=8)
def _uniform_draws(seed: int, rows: int, n: int) -> np.ndarray:
    """``SeededStream(seed).random((rows, n))``, drawn once per shape and
    shared read-only: the cells of one scene mostly draw alike."""
    draws = SeededStream(seed).random((rows, n))
    draws.setflags(write=False)
    return draws


# ---------------------------------------------------------------------------
# the induction driver


def extend_field(scene: Scene, *, seed: int = 0,
                 skip_skeleton_subtraction: bool = False) -> ExtensionFn:
    """Global extension of a scene's jet field, by induction on dimension.

    ``skip_skeleton_subtraction`` builds the top-dimensional terms without
    their skeleton, so they subtract no Taylor data; it exists so tests can
    demonstrate that the subtraction is load-bearing, and must stay False
    for correct output.
    """
    problems = scene.validate()
    if problems:
        raise StratificationInvalid("; ".join(problems), problems)
    return _extend(scene, seed, skip_skeleton_subtraction)


def _extend(scene: Scene, seed: int, skip_sub: bool) -> ExtensionFn:
    top_dim = scene.dim
    if top_dim == 0:
        return _glue_points(scene)

    skeleton_ids = [s.id for s in scene.strata if s.dim < top_dim]
    top = [s for s in scene.strata if s.dim == top_dim]
    sub = (_extend(scene.restrict(skeleton_ids), seed, skip_sub)
           if skeleton_ids else None)

    terms = []
    for stratum in top:
        other_ids = [s.id for s in scene.strata if s.id != stratum.id]
        z_desc = (scene.descriptor_for(other_ids) if other_ids
                  else EMPTY_SET)
        terms.append(extend_on_cell(scene.fields[stratum.id], stratum, z_desc,
                                    scene, seed=seed,
                                    skeleton=None if skip_sub else sub))
    return ExtensionFn(scene.n, terms, sub)


def _glue_points(scene: Scene) -> ExtensionFn:
    pts = []
    for s in scene.strata:
        if not isinstance(s.cell, PointCell):
            raise StratificationInvalid(
                "dimension-0 scene may only contain point strata")
        pts.append(np.asarray([float(v) for v in s.cell.point]))
    if len(pts) > 1:
        gap = min(float(np.linalg.norm(a - b))
                  for i, a in enumerate(pts) for b in pts[i + 1:])
    else:
        gap = 4.0
    eta = gap / 4.0   # supports of radius eta stay pairwise disjoint
    terms = []
    for s in scene.strata:
        fld = scene.fields[s.id]
        jet = fld.jet_at((0,), s.cell.point)
        spec = CutoffSpec(geometry.descriptor_of(s.cell), EMPTY_SET, eta,
                          scene.q, box=scene.box)
        omega = build_cutoff(spec)
        terms.append(PointGlueTerm(s.id, jet, omega))
    return ExtensionFn(scene.n, terms, None)


# ---------------------------------------------------------------------------
# flatness rate probe


class FlatnessReport(Record):
    per_kappa: dict                 # kappa -> list of normalized values
    flat: dict                      # kappa -> bool


def flatness_rate_probe(h: Callable, z_desc: SetDescriptor,
                        cell: GraphCell, cone_constant: float, p: int,
                        points, theta: float = 1e-2,
                        box: float = geometry.DEFAULT_BOX_HALFWIDTH
                        ) -> FlatnessReport:
    """Normalized derivative decay of ``h`` along an approach sequence,
    the ``(N, n)`` rows ``points``: for each |kappa| <= p the values
    ``|D^kappa h(x_j)| * d(x_j,Z)^(|kappa|-p)`` must eventually fall below
    ``theta``.  ``h`` takes a row batch, like every evaluator; one
    :func:`verify.sampled_derivatives` call samples every kappa at every
    point, with the step ``d(x_j,Z)/20`` clamped to [1e-8, 1e-3].

    The sequence must approach within a cone ``d(x, cell) <= C d(x, Z)``.
    Points whose two distances agree (the approach hugging Z, with the
    nearest cell point realized through the target itself) satisfy the
    cone condition for every admissible constant >= 1, so the membership
    guard uses ``max(C, 1)`` with a small relative slack rather than
    rejecting such radial approaches.
    """
    X = np.asarray(points, dtype=float)
    c_eff = max(cone_constant, 1.0) * (1.0 + 1e-6)
    _, up_w = geometry.distance_brackets(geometry.descriptor_of(cell), X, box)
    lo_z, up_z = geometry.distance_brackets(z_desc, X, box)
    ratios = up_w / np.maximum(lo_z, 1e-300)
    for x, dz, ratio in zip(X.tolist(), up_z, ratios):
        if dz <= 0:
            raise SequenceLeavesCone("sequence point lies on Z")
        if ratio > c_eff:
            raise SequenceLeavesCone(
                f"point {tuple(x)} has d(x,cell)/d(x,Z) = {ratio:.3f} "
                f"> {c_eff:.3f}")
    dzs = (0.5 * (lo_z + up_z)).tolist()

    kappas = multi_indices(X.shape[1], p)
    steps = np.asarray([max(min(1e-3, dz / 20.0), 1e-8) for dz in dzs])
    derivs = verify.sampled_derivatives(h, [(X, kappa, steps)
                                            for kappa in kappas])
    per_kappa, flat = {}, {}
    for kappa, (d, _) in zip(kappas, derivs):
        vals = [abs(v) * dz ** (mi_order(kappa) - p)
                for v, dz in zip(d.tolist(), dzs)]
        per_kappa[tuple(kappa)] = vals
        tail = vals[max(0, len(vals) - max(3, len(vals) // 3)):]
        flat[tuple(kappa)] = max(tail) < theta
    return FlatnessReport(per_kappa, flat)
