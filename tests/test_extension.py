import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from whitney import expr
from whitney import geometry as geo
from whitney.cutoff import CutoffSpec, build_cutoff
from whitney.errors import (ConsistencyViolation, SequenceLeavesCone,
                            SingularPoint, StratificationInvalid)
from whitney.extension import (_ETA0, _LEAK_SAMPLES, _SUBTRACT_STEP,
                               CellTerm, Scene, Stratum, _jet_polynomial,
                               _leak_samples, check_stratum_consistency,
                               extend_field, extend_on_cell,
                               flatness_rate_probe)
from whitney.jets import FieldSpec, multi_indices
from whitney.verify import (check_extension, finite_difference,
                            sampled_derivatives)

from conftest import load_corpus_scene, one_row, rand_point, rand_polynomial

C = expr.constant_fn


def halfline_scene(f1=None):
    """E = [0, inf) with the jets of x^3, p=1 q=2."""
    ray = geo.identity_graph_cell(geo.Interval(0.0, None))
    strata = (Stratum("origin", geo.PointCell((0.0,)), ()),
              Stratum("ray", ray, ("origin",)))
    fields = {
        "origin": FieldSpec(1, 1, "origin", 1, {(0,): C(0, 1), (1,): C(0, 1)}),
        "ray": FieldSpec(1, 1, "ray", 1, {
            (0,): expr.polynomial(1, {(3,): 1}),
            (1,): f1 if f1 is not None else expr.polynomial(1, {(2,): 3})}),
    }
    return Scene(1, 1, 2, strata, fields, frozenset({"origin"}), box=4.0)


# --- consistency over curved cells -----------------------------------------


def test_stratum_consistency_random_curved_fields(rng):
    """The jets D^alpha g of a random polynomial g, restricted to a random
    curved cell (m = 1 and 2 in R^3, p = 1..3), pass the chain-rule check
    exactly at rational samples; moving one coefficient with a tangential
    index by 1/100 breaks it."""
    n = 3
    for trial in range(60):
        m, p = 1 + trial % 2, 1 + trial % 3
        base = (geo.Interval(0.0, 1.0) if m == 1
                else geo.Slab(geo.Interval(0.0, 1.0), C(0, 1), C(1, 1)))
        quartic = expr.polynomial(m, {(4,) + (0,) * (m - 1): 1}).root
        graph = tuple(expr.ExprFn(m, expr.add(rand_polynomial(rng, m, 3).root,
                                              quartic))
                      for _ in range(n - m))
        cell = geo.GraphCell(base, graph, (0, 1, 2))
        inner = [expr.coordinate(i, m) for i in range(m)] + list(graph)
        g = rand_polynomial(rng, n, p + 2)
        coeffs = {alpha: expr.substitute(expr.differentiate(g, alpha), inner)
                  for alpha in multi_indices(n, p)}
        samples = [rand_point(rng, m, 0, 1) for _ in range(5)]
        fld = FieldSpec(n, p, "c", m, coeffs)
        assert check_stratum_consistency(fld, cell, samples) == 0
        tangential = [a for a in multi_indices(n, p) if any(a[:m])]
        alpha = tangential[int(rng.integers(len(tangential)))]
        bad = dict(coeffs)
        bad[alpha] = expr.ExprFn(m, expr.add(coeffs[alpha].root,
                                             expr.const(Fraction(1, 100))))
        with pytest.raises(ConsistencyViolation, match="chain rule"):
            check_stratum_consistency(FieldSpec(n, p, "c", m, bad), cell,
                                      samples)


def test_stratum_consistency_accepts_valid_curved_field():
    sf = load_corpus_scene("parabola")
    arc = sf.scene.stratum("arc")
    samples = geo.stratum_samples(arc.cell, 16, sf.scene.box)
    worst = check_stratum_consistency(sf.scene.fields["arc"], arc.cell,
                                      samples)
    assert worst < 1e-6


def test_stratum_consistency_rejects_broken_curved_field():
    sf = load_corpus_scene("parabola")
    arc = sf.scene.stratum("arc")
    bad = FieldSpec(2, 1, "arc", 1, {(0, 0): expr.polynomial(1, {(2,): 1}),
                                     (1, 0): C(0, 1),
                                     (0, 1): C(0, 1)})   # kills the chain rule
    samples = geo.stratum_samples(arc.cell, 8, sf.scene.box)
    with pytest.raises(ConsistencyViolation):
        check_stratum_consistency(bad, arc.cell, samples)


def test_stratum_consistency_names_where_the_graph_map_is_singular():
    """A slope singular at a sample is reported with the stratum and the
    parameter, as a chain-rule deviation is."""
    sf = load_corpus_scene("defect_singular_graph")
    arc = sf.scene.stratum("arc")
    samples = geo.stratum_samples(arc.cell, 24, sf.scene.box)
    with pytest.raises(SingularPoint, match=r"stratum 'arc': .* at u=\(0\.0"):
        check_stratum_consistency(sf.scene.fields["arc"], arc.cell, samples)


# --- single-cell extension -------------------------------------------------


def test_extend_on_cell_halfline_values():
    scene = halfline_scene()
    z = scene.descriptor_for(["origin"])
    term = extend_on_cell(scene.fields["ray"], scene.stratum("ray"), z,
                          scene)
    vals, _ = term.evaluate(np.asarray([[2.0], [-1.0]]))
    assert vals.tolist() == [8.0, 0.0]


def test_extend_on_cell_fd_flat_from_left():
    scene = halfline_scene()
    z = scene.descriptor_for(["origin"])
    term = extend_on_cell(scene.fields["ray"], scene.stratum("ray"), z,
                          scene)
    value = one_row(lambda X: term.evaluate(X)[0])
    for j in range(3, 13):
        d, _ = finite_difference(value, (1,), (-2.0 ** -j,), h=2.0 ** -j / 30)
        assert abs(d) < 1e-10


def test_extend_on_cell_zero_field_is_zero():
    scene = halfline_scene()
    zero_field = FieldSpec(1, 1, "ray", 1, {(0,): C(0, 1), (1,): C(0, 1)})
    z = scene.descriptor_for(["origin"])
    term = extend_on_cell(zero_field, scene.stratum("ray"), z, scene)
    assert np.all(term.evaluate(np.linspace(-2, 3, 50)[:, None])[0] == 0.0)


def test_support_discipline():
    """The term vanishes exactly wherever the cone membership certificate
    excludes the point."""
    scene = halfline_scene()
    z = scene.descriptor_for(["origin"])
    term = extend_on_cell(scene.fields["ray"], scene.stratum("ray"), z,
                          scene)
    rng = np.random.default_rng(4)
    X = rng.uniform(-3, 3, (60, 1))
    X = X[np.abs(X[:, 0]) >= 1e-6]
    w_desc = geo.descriptor_of(scene.stratum("ray").cell)
    lo_w, _ = geo.distance_brackets(w_desc, X)
    _, up_z = geo.distance_brackets(z, X)
    outside = lo_w >= term.eta * up_z
    assert np.any(outside)
    assert np.all(term.evaluate(X[outside])[0] == 0.0)


def test_square_edge_cutoffs_vanish_around_their_endpoint_normals():
    """Each square edge's cutoff reads the edge's segment column.  On the
    normal lines through the edge's endpoints the nearest point of W is an
    endpoint, a corner stratum in Z, so the ratio is at least ``c >=
    eta_int``; there, and in a 1e-3 relative band around them, the cutoff
    is exactly 0."""
    f = extend_field(load_corpus_scene("square").scene)
    assert len(f.terms) == 4
    t = np.geomspace(1e-4, 2.0, 60)
    t = np.concatenate([t, -t])
    for term in f.terms:
        cell = term.cell
        d_w = term.omega.d_w
        assert d_w.table is None and not d_w.nets
        assert len(d_w.segments.length) == 1
        height = float(expr.evaluate(cell.graph[0], (0.5,)))
        for end in (0.0, 1.0):
            for rel in (-1e-3, 0.0, 1e-3):
                Y = np.stack([end + rel * np.abs(t), height + t], axis=1)
                X = np.empty_like(Y)
                X[:, list(cell.perm)] = Y
                assert not np.any(term.omega(X)), (term.stratum_id, end, rel)


def test_validate_reports_strata_it_cannot_check():
    """A bare 3-cell leaves no check undone: its samples, consistency and
    frontier are walked like any other cell's, and the only problem is the
    frontier it declares no boundary for."""
    cube = geo.identity_graph_cell(geo.Slab(
        geo.Slab(geo.Interval(0.0, 1.0), C(0, 1), C(1, 1)), C(0, 2), C(1, 2)))
    field = FieldSpec(3, 1, "cube", 3,
                      {a: C(0, 3) for a in multi_indices(3, 1)})
    scene = Scene(3, 1, 2, (Stratum("cube", cube, ()),), {"cube": field},
                  box=3.0)
    problems = scene.validate()
    assert problems == [
        "stratification not closed: frontier point (0.000977, 0.000977, 0.0) "
        "of 'cube' has no boundary stratum"]
    with pytest.raises(StratificationInvalid) as exc:
        extend_field(scene)
    assert exc.value.problems == problems


def _zero_field(sid, n, arity):
    return FieldSpec(n, 1, sid, arity,
                     {a: C(0, arity) for a in multi_indices(n, 1)})


def _points_scene(*strata, fields=None):
    """A 1-d scene of point strata ``(id, x, boundary ids)``, each with the
    jets of 0 unless ``fields`` names which carry one."""
    ids = [sid for sid, _, _ in strata] if fields is None else fields
    return Scene(1, 1, 2, tuple(Stratum(sid, geo.PointCell((x,)), bounds)
                                for sid, x, bounds in strata),
                 {sid: _zero_field(sid, 1, 1) for sid in ids}, box=4.0)


STRUCTURAL_PROBLEMS = {
    "duplicate-ids": (
        lambda: _points_scene(("a", 0.0, ()), ("a", 1.0, ())),
        ["duplicate stratum ids"]),
    "no-strata": (
        lambda: Scene(1, 1, 2, (), {}, box=4.0),
        ["scene has no strata"]),
    "no-field": (
        lambda: _points_scene(("x", 0.0, ()), fields=()),
        ["stratum 'x' has no field"]),
    "unknown-boundary": (
        lambda: _points_scene(("a", 0.0, ("b",))),
        ["stratum 'a' declares unknown boundary 'b'"]),
    "boundary-not-lower": (
        lambda: _points_scene(("a", 0.0, ("b",)), ("b", 1.0, ())),
        ["boundary 'b' of 'a' is not lower-dimensional"]),
    # a line of the plane whose permutation names one of its two axes
    "bad-permutation": (
        lambda: Scene(2, 1, 2, (Stratum("line", geo.GraphCell(
            geo.Interval(None, None), (), (0,)), ()),),
            {"line": _zero_field("line", 2, 1)}, box=4.0),
        ["stratum 'line': bad permutation"]),
}


@pytest.mark.parametrize("case", sorted(STRUCTURAL_PROBLEMS))
def test_validate_reports_structural_problems(case):
    """Each structural hypothesis of a hand-built scene is checked and
    reported in its own words, and is the scene's only problem."""
    build, problems = STRUCTURAL_PROBLEMS[case]
    assert build().validate() == problems


def test_validate_reports_a_graph_stratum_without_a_field_once():
    """A graph stratum with no field is reported, and the checks that read
    its field skip it rather than fail."""
    scene = halfline_scene()
    scene = Scene(1, 1, 2, scene.strata, {"origin": scene.fields["origin"]},
                  scene.flat_on, box=scene.box)
    assert scene.validate() == ["stratum 'ray' has no field"]


def complete_cube_scene():
    """The closed unit cube: the 3-cell, 6 faces, 12 edges and 8 corners,
    each carrying the jets of 0 and declaring the strata in its closure."""
    unit, square = geo.Interval(0.0, 1.0), geo.Slab(geo.Interval(0.0, 1.0),
                                                    C(0, 1), C(1, 1))
    cells = {"cube": ({}, geo.identity_graph_cell(geo.Slab(
        square, C(0, 2), C(1, 2))))}
    # (free axes, fixed axes) of the faces, edges and corners
    kinds = [((0, 1), (2,)), ((0, 2), (1,)), ((1, 2), (0,)),
             ((0,), (1, 2)), ((1,), (0, 2)), ((2,), (0, 1)), ((), (0, 1, 2))]
    for free, fixed in kinds:
        for values in np.ndindex(*(2,) * len(fixed)):
            pinned = dict(zip(fixed, values))
            sid = "".join(f"x{a}={v}" for a, v in pinned.items())
            cells[sid] = (pinned, geo.PointCell(tuple(map(float, values)))
                          if not free else geo.GraphCell(
                              square if len(free) == 2 else unit,
                              tuple(C(v, len(free)) for v in values),
                              free + fixed))
    strata = tuple(
        Stratum(sid, cell, tuple(o for o, (other, _) in cells.items()
                                 if len(other) > len(pinned)
                                 and pinned.items() <= other.items()))
        for sid, (pinned, cell) in cells.items())
    fields = {s.id: FieldSpec(3, 1, s.id, max(1, s.dim),
                              {a: C(0, max(1, s.dim))
                               for a in multi_indices(3, 1)})
              for s in strata}
    return Scene(3, 1, 2, strata, fields, box=3.0)


def test_complete_cube_leak_rows_lie_in_the_closed_form_window():
    """The cube's cutoff window comes from the closed-form boxes of its
    pieces, so its leak-check rows are built without a net of a 3-d cell,
    and every one lies in the padded unit cube [-0.75, 1.75]^3."""
    from whitney.extension import _leak_samples
    scene = complete_cube_scene()
    cube = scene.stratum("cube").cell
    z = scene.descriptor_for([s.id for s in scene.strata if s.id != "cube"])
    X = _leak_samples(cube, z, scene, 2000, 0)
    assert X.shape == (30_800, 3)
    assert np.all((X >= -0.75) & (X <= 1.75))


def test_validate_passes_the_complete_cube():
    scene = complete_cube_scene()
    assert [len(s.boundary_ids) for s in scene.strata] == \
        [26] + [8] * 6 + [2] * 12 + [0] * 8
    assert scene.validate() == []
    # a face that leaves out one of its edges misses it
    strata = tuple(s if s.id != "x2=0" else Stratum(
        s.id, s.cell, tuple(b for b in s.boundary_ids if b != "x1=0x2=0"))
        for s in scene.strata)
    assert Scene(3, 1, 2, strata, scene.fields, box=3.0).validate() == [
        "stratification not closed: frontier point (0.4375, 0.0, 0.0) of "
        "'x2=0' misses its declared boundary by 4.38e-01"]


def test_validate_samples_the_frontier_of_a_2d_cell():
    """The filled square's face is checked along its four edges: it passes
    with all of them declared and misses the undeclared top edge."""
    scene = filled_square_scene()
    assert scene.validate() == []
    face = scene.stratum("face")
    strata = tuple(s if s.id != "face" else Stratum(
        "face", face.cell, tuple(b for b in face.boundary_ids if b != "top"))
        for s in scene.strata)
    broken = Scene(2, 1, 2, strata, scene.fields, frozenset(), box=3.0)
    assert broken.validate() == [
        "stratification not closed: frontier point (0.4375, 1.0) of 'face' "
        "misses its declared boundary by 4.38e-01"]


def test_validate_propagates_unexpected_errors(monkeypatch):
    """An error of the frontier walker is a fault and reaches the caller;
    validate skips no check for it."""
    scene = load_corpus_scene("square").scene

    def broken(*args, **kwargs):
        raise RuntimeError("frontier failed")

    monkeypatch.setattr(geo, "frontier_pieces", broken)
    with pytest.raises(RuntimeError, match="frontier failed"):
        scene.validate()


def test_oversized_cone_leaks_are_reported_not_stored():
    """A cone of ratio 2 reaches x < 0, off the ray: evaluation reports
    exactly those rows as leaks, gives 0 there, and mutates nothing."""
    scene = halfline_scene()
    ray = scene.stratum("ray").cell
    spec = CutoffSpec(geo.descriptor_of(ray), scene.descriptor_for(["origin"]),
                      2.0, scene.q, box=scene.box)
    term = CellTerm("ray", ray, {(): scene.fields["ray"].coeffs[(0,)]},
                    build_cutoff(spec), 2.0)
    X = np.linspace(-2.0, 2.0, 41)[:, None]
    before = {k: (dict(v) if isinstance(v, dict) else v)
              for k, v in vars(term).items()}
    vals, leaks = term.evaluate(X)
    assert np.array_equal(leaks, X[:, 0] < 0.0)
    assert np.all(vals[leaks] == 0.0)
    assert vals[-1] == 8.0
    again = term.evaluate(X)
    assert np.array_equal(vals, again[0]) and np.array_equal(leaks, again[1])
    assert vars(term) == before


@pytest.mark.parametrize("name", ["points", "halfline", "parabola", "square",
                                  "fullspace"])
def test_batched_extension_matches_pointwise(name):
    """One (N, n) call gives, bit for bit, the values of N 1-row calls."""
    scene = load_corpus_scene(name).scene
    f = extend_field(scene)
    X = np.random.default_rng(5).uniform(-1.0, 2.0, (60, scene.n))
    batch = f(X)
    points = np.concatenate([f(X[i:i + 1]) for i in range(len(X))])
    assert batch.shape == (60,) and points.shape == (60,)
    assert batch.tobytes() == points.tobytes()


# --- Taylor-data subtraction ------------------------------------------------


def ray_term(scene, skeleton):
    return extend_on_cell(scene.fields["ray"], scene.stratum("ray"),
                          scene.descriptor_for(["origin"]), scene,
                          skeleton=skeleton)


def test_skeleton_subtraction_zero_g_keeps_field():
    """A skeleton that is 0 subtracts nothing: on the ray the term reads the
    field's x^3, bit for bit what the term without a skeleton reads."""
    scene = halfline_scene()
    X = np.asarray([[0.3], [1.7]])
    got = ray_term(scene, lambda X: np.zeros(len(X))).evaluate(X)[0]
    assert got == pytest.approx(X[:, 0] ** 3, abs=1e-12)
    assert got.tobytes() == ray_term(scene, None).evaluate(X)[0].tobytes()


def test_skeleton_subtraction_exact_extension_flattens():
    """With the scene's own extension as its skeleton, the ray term's value
    coefficient F - g is numerically 0 along the ray."""
    scene = halfline_scene()
    term = ray_term(scene, extend_field(scene))
    X = np.linspace(0.05, 2.5, 100)[:, None]
    assert np.max(np.abs(term.evaluate(X)[0])) < 1e-6


def test_skeleton_subtraction_polynomial_matches_symbolic():
    """A polynomial skeleton g is subtracted as its exact Taylor data: the
    ray term of the half-line (beta = ()) reads x^3 - g = 0, and square's
    bottom edge term (beta = (0,), (1,)) reads ``(0 - g(x, 0)) + (x -
    g_y(x, 0)) y`` times its cutoff, for g = x^3 + x y^2 + 2y."""
    scene = halfline_scene()
    g_expr = expr.polynomial(1, {(3,): 1})              # the field's own rep
    g = lambda X: np.asarray([float(expr.evaluate(g_expr, tuple(x)))
                              for x in X])
    X = np.asarray([[0.4], [1.1], [2.3]])
    assert np.all(np.abs(ray_term(scene, g).evaluate(X)[0]) <= 1e-11)

    square = load_corpus_scene("square").scene
    bottom = next(t for t in extend_field(square).terms
                  if t.stratum_id == "bottom")
    g = lambda X: X[:, 0] ** 3 + X[:, 0] * X[:, 1] ** 2 + 2.0 * X[:, 1]
    term = CellTerm("bottom", bottom.cell, bottom.normal_coeffs, bottom.omega,
                    bottom.eta, g)
    x, y = np.meshgrid(np.linspace(0.05, 0.95, 10), np.linspace(-0.2, 0.2, 9))
    X = np.stack([x.ravel(), y.ravel()], axis=1)
    want = (-X[:, 0] ** 3 + (X[:, 0] - 2.0) * X[:, 1]) * term.omega(X)
    got, leaks = term.evaluate(X)
    assert not leaks.any() and np.count_nonzero(got) > 40
    assert np.max(np.abs(got - want)) <= 1e-9


def test_square_edge_term_reads_its_skeleton_once():
    """A square edge term evaluates its skeleton once per batch, for both
    normal multi-indices, and gives bit for bit what one stencil call per
    multi-index gives."""
    scene = load_corpus_scene("square").scene
    bottom = next(t for t in extend_field(scene).terms
                  if t.stratum_id == "bottom")
    calls = []

    def counted(X):
        calls.append(len(X))
        return bottom.skeleton(X)

    term = CellTerm("bottom", bottom.cell, bottom.normal_coeffs, bottom.omega,
                    bottom.eta, counted)
    X = np.random.default_rng(3).uniform([-0.2, -0.3], [1.2, 0.3], (60, 2))
    got, leaks = term.evaluate(X)
    assert len(calls) == 1 and len(bottom.normal_coeffs) == 2

    w = term.omega(X)
    rows = np.flatnonzero((w != 0.0) & ~leaks)
    U, H = X[rows, :1], np.full(len(rows), _SUBTRACT_STEP)
    coeffs = []
    for beta, fn in bottom.normal_coeffs.items():
        [(d, _)] = sampled_derivatives(bottom.skeleton, [
            (bottom.cell.embed_rows(U), bottom.cell.to_ambient((0,) + beta),
             H)])
        coeffs.append((beta, expr.evaluate_rows_or_raise(fn, U) - d))
    want = np.zeros(len(X))
    want[rows] = _jet_polynomial(coeffs, X[rows, 1:]) * w[rows]
    assert len(rows) > 10 and got.tobytes() == want.tobytes()


# --- the induction driver ----------------------------------------------------


def test_points_scene_interpolates_jets():
    sf = load_corpus_scene("points")
    f = extend_field(sf.scene)
    assert f(np.asarray([[0.0], [1.0]])).tolist() == [0.0, 1.0]
    d0, _ = finite_difference(one_row(f), (1,), (0.0,), 1e-3)
    d1, _ = finite_difference(one_row(f), (1,), (1.0,), 1e-3)
    assert abs(d0) < 1e-10 and abs(d1 - 2.0) < 1e-10
    assert f.evaluate(np.linspace(-1.0, 2.0, 31)[:, None])[1] == 0
    kinds = {t["kind"] for t in f.assembly_trace()}
    assert kinds == {"point"}


def test_halfline_scene_agreement():
    sf = load_corpus_scene("halfline")
    f = extend_field(sf.scene)
    rep = check_extension(f, sf.scene, tol=1e-4, samples_per_stratum=60)
    assert rep.passed, [l for l in rep.lines()]


def test_parabola_scene_agreement():
    sf = load_corpus_scene("parabola")
    f = extend_field(sf.scene)
    rep = check_extension(f, sf.scene, tol=1e-4, samples_per_stratum=100)
    assert rep.passed, [l for l in rep.lines()]


@pytest.mark.parametrize("seed, eta", [(0, 0.25), (1, 0.5)])
def test_parabola_arc_support_ratio_is_seed_pinned(seed, eta):
    # the seeded support certificate halves eta once at seed 0, not at 1
    f = extend_field(load_corpus_scene("parabola").scene, seed=seed)
    (arc,) = [t for t in f.assembly_trace() if t["stratum"] == "arc"]
    assert arc["eta"] == eta


def test_fullspace_scene_uses_representative():
    sf = load_corpus_scene("fullspace")
    f = extend_field(sf.scene)
    x = np.linspace(-4, 4, 17)
    assert f(x[:, None]) == pytest.approx(x * x, abs=1e-12)
    rep = check_extension(f, sf.scene, tol=1e-4, samples_per_stratum=100)
    assert rep.passed


def filled_square_scene():
    """Closed unit square: interior 2-cell over 4 edges over 4 corners,
    carrying the jets of x1*x2 with p=1, q=2."""
    interior = geo.identity_graph_cell(
        geo.Slab(geo.Interval(0.0, 1.0), C(0, 1), C(1, 1)))
    edge = lambda c0, perm: geo.GraphCell(geo.Interval(0.0, 1.0),
                                          (C(c0, 1),), perm)
    lin = expr.coordinate(0, 1)
    corners = {"c00": (0., 0.), "c10": (1., 0.),
               "c01": (0., 1.), "c11": (1., 1.)}

    def corner_field(x1, x2):
        return FieldSpec(2, 1, "c", 1, {(0, 0): C(x1 * x2, 1),
                                        (1, 0): C(x2, 1), (0, 1): C(x1, 1)})

    strata = tuple(
        [Stratum(k, geo.PointCell(v), ()) for k, v in corners.items()] + [
            Stratum("bottom", edge(0, (0, 1)), ("c00", "c10")),
            Stratum("top", edge(1, (0, 1)), ("c01", "c11")),
            Stratum("left", edge(0, (1, 0)), ("c00", "c01")),
            Stratum("right", edge(1, (1, 0)), ("c10", "c11")),
            Stratum("face", interior, ("bottom", "top", "left", "right",
                                       "c00", "c10", "c01", "c11"))])
    fields = {
        "c00": corner_field(0, 0), "c10": corner_field(1, 0),
        "c01": corner_field(0, 1), "c11": corner_field(1, 1),
        "bottom": FieldSpec(2, 1, "bottom", 1,
                            {(0, 0): C(0, 1), (1, 0): C(0, 1), (0, 1): lin}),
        "top": FieldSpec(2, 1, "top", 1,
                         {(0, 0): lin, (1, 0): C(1, 1), (0, 1): lin}),
        "left": FieldSpec(2, 1, "left", 1,
                          {(0, 0): C(0, 1), (1, 0): C(0, 1), (0, 1): lin}),
        "right": FieldSpec(2, 1, "right", 1,
                           {(0, 0): lin, (1, 0): C(1, 1), (0, 1): lin}),
        "face": FieldSpec(2, 1, "face", 2, {
            (0, 0): expr.polynomial(2, {(1, 1): 1}),
            (1, 0): expr.coordinate(1, 2),
            (0, 1): expr.coordinate(0, 2)}),
    }
    return Scene(2, 1, 2, strata, fields, frozenset(), box=3.0)


def test_filled_square_full_dimensional_stratum():
    """A full-dimensional cell over its boundary skeleton: values land
    exactly on the interior plateau, tangential derivatives agree to the
    standard tolerance, and the normal derivatives at the edges carry the
    O(h * second-derivative-jump) bias of symmetric stencils across a
    C^1-only interface -- the extension is only promised C^p through the
    set, so the sampled check is held to a correspondingly looser bar
    there."""
    scene = filled_square_scene()
    f = extend_field(scene)
    X = np.asarray([(0.5, 0.5), (0.97, 0.02), (0.25, 0.8)])
    assert f(X) == pytest.approx(X[:, 0] * X[:, 1], abs=1e-12)
    rep = check_extension(f, scene, tol=1e-4, samples_per_stratum=60)
    by_key = {(e.stratum_id, e.alpha): e for e in rep.entries}
    for alpha in [(0, 0), (1, 0), (0, 1)]:
        assert by_key[("face", alpha)].max_rel_dev < 1e-4
    for edge in ("bottom", "top", "left", "right"):
        assert by_key[(edge, (0, 0))].max_rel_dev < 1e-4
        assert by_key[(edge, (1, 0))].max_rel_dev < 1e-4     # tangential
        assert by_key[(edge, (0, 1))].max_rel_dev < 1e-2     # normal, C^1 kink


def test_filled_square_face_gets_frontier_shells():
    """The leak check of a cell over a 2-d base samples shells around the
    base's boundary pieces, as it does around an interval's ends."""
    from whitney.extension import _leak_samples
    scene = filled_square_scene()
    edges = scene.descriptor_for(["bottom", "top", "left", "right"])
    shells = _leak_samples(scene.stratum("face").cell, edges, scene, 0, 0)
    assert shells.shape[0] > 0 and shells.shape[1] == 2
    _, up = geo.distance_brackets(edges, shells, scene.box)
    assert np.all(up <= 0.25 * np.sqrt(2.0) + 1e-12)


def test_sum_of_fields_both_extensions_agree():
    """Extension is not asserted linear (cutoff ratios differ); the guard
    is that each field's own extension meets the agreement contract."""
    s1 = halfline_scene()
    s2 = halfline_scene(f1=expr.polynomial(1, {(3,): 4}))  # jets of x^4
    fields2 = dict(s2.fields)
    fields2["ray"] = FieldSpec(1, 1, "ray", 1, {
        (0,): expr.polynomial(1, {(4,): 1}),
        (1,): expr.polynomial(1, {(3,): 4})})
    s2 = Scene(1, 1, 2, s2.strata, fields2, s2.flat_on, s2.box)
    for scene in (s1, s2):
        f = extend_field(scene)
        assert check_extension(f, scene, tol=1e-4,
                               samples_per_stratum=40).passed


def test_permuted_curved_cell_scene():
    """Sideways parabola {(u^2, u)}: the graph runs over the second
    ambient axis, so every step (consistency, cutoff, agreement) must
    route derivatives through the coordinate permutation."""
    arc = geo.GraphCell(geo.Interval(0.0, 1.0),
                        (expr.polynomial(1, {(2,): 1}),), (1, 0))
    strata = (
        Stratum("p0", geo.PointCell((0.0, 0.0)), ()),
        Stratum("p1", geo.PointCell((1.0, 1.0)), ()),
        Stratum("arc", arc, ("p0", "p1")),
    )
    # jets of g(x1, x2) = x1 in internal coords (tangent = x2, normal = x1)
    fields = {
        "p0": FieldSpec(2, 1, "p0", 1, {(0, 0): C(0, 1), (1, 0): C(1, 1),
                                        (0, 1): C(0, 1)}),
        "p1": FieldSpec(2, 1, "p1", 1, {(0, 0): C(1, 1), (1, 0): C(1, 1),
                                        (0, 1): C(0, 1)}),
        "arc": FieldSpec(2, 1, "arc", 1, {
            (0, 0): expr.polynomial(1, {(2,): 1}),
            (1, 0): C(0, 1),
            (0, 1): C(1, 1)}),
    }
    # ambient jets at the endpoints: D_x1 g = 1, D_x2 g = 0; internal
    # order is (tangent, normal) = (x2, x1), hence (1,0) -> 0? no: the
    # point strata use ambient axes, so D_x1 = 1 goes to index 0.
    fields["p0"] = FieldSpec(2, 1, "p0", 1, {(0, 0): C(0, 1),
                                             (1, 0): C(1, 1),
                                             (0, 1): C(0, 1)})
    fields["p1"] = FieldSpec(2, 1, "p1", 1, {(0, 0): C(1, 1),
                                             (1, 0): C(1, 1),
                                             (0, 1): C(0, 1)})
    scene = Scene(2, 1, 2, strata, fields, frozenset(), box=3.0)
    samples = geo.stratum_samples(arc, 12, scene.box)
    assert check_stratum_consistency(fields["arc"], arc, samples) < 1e-6
    f = extend_field(scene)
    on_arc = f(np.asarray([[0.25, 0.5]]))[0]
    assert on_arc == pytest.approx(0.25, abs=1e-12)
    rep = check_extension(f, scene, tol=1e-4, samples_per_stratum=80)
    assert rep.passed, [l for l in rep.lines() if "FAIL" in l]


def test_disconnected_scene_two_segments():
    """E = [0,1] u [2,3] with the jets of x^2: components get disjoint
    cone supports, values land exactly, and the only deviation is the
    known symmetric-stencil bias at boundary points where the extension
    is C^1 with a second-derivative jump of 2 (Richardson leaves exactly
    h/6 there; h = 1e-3 at a point stratum)."""
    seg = lambda a, b: geo.identity_graph_cell(geo.Interval(a, b))
    pts = {"e0": 0.0, "e1": 1.0, "e2": 2.0, "e3": 3.0}
    x2 = expr.polynomial(1, {(2,): 1})
    dx2 = expr.polynomial(1, {(1,): 2})
    strata = tuple(
        [Stratum(k, geo.PointCell((v,)), ()) for k, v in pts.items()] + [
            Stratum("left", seg(0.0, 1.0), ("e0", "e1")),
            Stratum("right", seg(2.0, 3.0), ("e2", "e3"))])
    fields = {k: FieldSpec(1, 1, k, 1, {(0,): C(v * v, 1),
                                        (1,): C(2 * v, 1)})
              for k, v in pts.items()}
    fields["left"] = FieldSpec(1, 1, "left", 1, {(0,): x2, (1,): dx2})
    fields["right"] = FieldSpec(1, 1, "right", 1, {(0,): x2, (1,): dx2})
    scene = Scene(1, 1, 2, strata, fields, frozenset(), box=5.0)
    f = extend_field(scene)
    left, right, gap = f(np.asarray([[0.5], [2.5], [1.5]]))
    assert left == pytest.approx(0.25, abs=1e-12)
    assert right == pytest.approx(6.25, abs=1e-12)
    assert gap == 0.0                # outside both cone supports
    rep = check_extension(f, scene, tol=1e-4, samples_per_stratum=60)
    by_key = {(e.stratum_id, e.alpha): e for e in rep.entries}
    for sid in ("left", "right"):
        assert by_key[(sid, (0,))].max_rel_dev < 1e-4
        assert by_key[(sid, (1,))].max_rel_dev < 1e-4
    for sid, v in pts.items():
        assert by_key[(sid, (0,))].max_rel_dev < 1e-10
        dev = by_key[(sid, (1,))].max_rel_dev
        assert dev * (1.0 + abs(2 * v)) == pytest.approx(1e-3 / 6, rel=1e-6)


def test_flatness_of_subtracted_cell_term_on_curve():
    """The arc term of the parabola scene (field minus skeleton data) is
    flat at the endpoints: normalized derivatives decay along the arc."""
    sf = load_corpus_scene("parabola")
    f = extend_field(sf.scene)
    term = next(t for t in f.terms if t.stratum_id == "arc")
    z = sf.scene.descriptor_for(["p0", "p1"])
    pts = [(2.0 ** -j, 4.0 ** -j) for j in range(3, 13)]
    rep = flatness_rate_probe(lambda X: term.evaluate(X)[0], z, term.cell,
                              0.5, sf.scene.p, pts, theta=1e-2)
    assert all(rep.flat.values()), rep.per_kappa


def test_driver_rejects_invalid_scene():
    ray = geo.identity_graph_cell(geo.Interval(0.0, None))
    strata = (Stratum("ray", ray, ()),)   # missing the boundary point
    fields = {"ray": FieldSpec(1, 1, "ray", 1, {
        (0,): expr.polynomial(1, {(3,): 1}),
        (1,): expr.polynomial(1, {(2,): 3})})}
    scene = Scene(1, 1, 2, strata, fields, frozenset(), box=4.0)
    with pytest.raises(StratificationInvalid):
        extend_field(scene)


# --- flatness probe -----------------------------------------------------------


def test_flatness_probe_halfline_negative_side():
    scene = halfline_scene()
    f = extend_field(scene)
    z = scene.descriptor_for(["origin"])
    pts = [(-2.0 ** -j,) for j in range(3, 15)]
    rep = flatness_rate_probe(f, z, scene.stratum("ray").cell, 0.5, 1, pts)
    assert all(rep.flat.values())
    assert all(v == 0.0 for vals in rep.per_kappa.values() for v in vals)


def test_flatness_probe_positive_side_real_decay():
    scene = halfline_scene()
    f = extend_field(scene)
    z = scene.descriptor_for(["origin"])
    pts = [(2.0 ** -j,) for j in range(3, 15)]
    rep = flatness_rate_probe(f, z, scene.stratum("ray").cell, 0.5, 1, pts)
    assert all(rep.flat.values())
    vals = rep.per_kappa[(0,)]
    # |x^3| / |x| = x^2 shrinks by 4x per dyadic step
    for a, b in zip(vals, vals[1:]):
        if a > 1e-13:
            assert b < a / 1.5


def test_flatness_probe_zero_function():
    scene = halfline_scene()
    z = scene.descriptor_for(["origin"])
    rep = flatness_rate_probe(lambda X: np.zeros(len(X)), z,
                              scene.stratum("ray").cell,
                              0.5, 1, [(-2.0 ** -j,) for j in range(3, 12)])
    assert all(rep.flat.values())


def test_flatness_probe_planted_defect():
    scene = halfline_scene()
    z = scene.descriptor_for(["origin"])
    rep = flatness_rate_probe(lambda X: X[:, 0], z,
                              scene.stratum("ray").cell, 0.5, 1,
                              [(2.0 ** -j,) for j in range(3, 12)])
    assert not rep.flat[(0,)]       # |x| * |x|^-1 = 1, never decays


def test_flatness_probe_cone_guard():
    # far stratum in Z: points near it leave every admissible cone
    seg = geo.GraphCell(geo.Interval(0.0, 1.0), (C(0, 1),), (0, 1))
    z = geo.descriptor_of(geo.PointCell((0.0, 1.0)))
    pts = [(0.5, 0.99)]   # d(cell) ~ 0.99, d(Z) ~ 0.5: ratio ~ 2
    with pytest.raises(SequenceLeavesCone):
        flatness_rate_probe(lambda x: 0.0, z, seg, 0.5, 1, pts)


def test_leibniz_flatness_product():
    """A p-flat factor times a bounded-derivative cutoff stays flat."""
    scene = halfline_scene()
    z = scene.descriptor_for(["origin"])
    w = geo.descriptor_of(geo.Ball((1.0,), 0.25))
    omega = build_cutoff(CutoffSpec(w, z, 0.5, 2))
    flat = lambda X: X[:, 0] ** 2               # rate p+1 = 2 at 0
    prod = lambda X: flat(X) * omega(X)
    pts = [(2.0 ** -j,) for j in range(3, 14)]
    rep = flatness_rate_probe(prod, z, scene.stratum("ray").cell, 0.5, 1, pts)
    assert all(rep.flat.values())


BASELINE = (Path(__file__).resolve().parent.parent / "perfbench"
            / "baseline.json")


@pytest.mark.parametrize("workload, name", [
    ("square", "square"), ("parabola", "parabola"),
    ("halfline_dense", "halfline"), ("points", "points")])
def test_assembly_traces_match_the_bench_baseline_at_every_seed(workload,
                                                                name):
    """``assembly_trace()`` at each of the 64 seeds the bench maps its own
    seeds to: every term's kind, stratum, hash, q and eta are the ones
    ``perfbench/baseline.json`` records (read here, never written)."""
    ref = json.loads(BASELINE.read_text())["assembly"][workload]
    scene = load_corpus_scene(name).scene
    terms = [(t["kind"], t["stratum"], t["hash"], t["q"])
             for t in ref["terms"]]
    assert len(ref["eta_of_seed"]) == 64
    for seed, which in enumerate(ref["eta_of_seed"]):
        got = [(t["kind"], t["stratum"], t["hash"], t["cutoff"]["q"],
                t["eta"])
               for t in extend_field(scene, seed=seed).assembly_trace()]
        want = [t + (eta,) for t, eta in zip(terms, ref["etas"][which])]
        assert got == want, f"seed {seed}"


def test_arc_leak_check_reads_w_on_few_rows_with_the_same_in_rows(
        monkeypatch):
    """On parabola's arc at seed 9, where eta halves once, W's distance
    table sees only the leak rows its floor keeps, fewer than half of the
    2,384; the floor is at most the table's lower bracket on every row, so
    every row the full brackets certify inside the cone at eta 0.5 or 0.25
    is among them."""
    scene = load_corpus_scene("parabola").scene
    arc, z = scene.stratum("arc"), scene.descriptor_for(["p0", "p1"])
    table = geo.distance_table(geo.descriptor_of(arc.cell), scene.box)
    seen, call = [], geo.DistanceTable.__call__

    def counted(self, X):
        if self is table:
            seen.append(X.copy())
        return call(self, X)

    monkeypatch.setattr(geo.DistanceTable, "__call__", counted)
    term = extend_on_cell(scene.fields["arc"], arc, z, scene, seed=9)
    monkeypatch.undo()
    X = _leak_samples(arc.cell, z, scene, _LEAK_SAMPLES, 9)
    lo_w, up_w = table(X)
    lo_z, _ = geo.distance_brackets(z, X, scene.box)
    floor = table.floor(X)
    kept = floor < _ETA0 * lo_z
    assert len(X) == 2384 and term.eta == 0.25
    assert np.all(floor <= lo_w)
    assert len(seen) == 1 and np.array_equal(seen[0], X[kept])
    assert np.count_nonzero(kept) < len(X) / 2
    for eta in (0.5, 0.25):
        inside = up_w < eta * lo_z
        assert inside.any() and not np.any(inside & ~kept)
