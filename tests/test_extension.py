from fractions import Fraction

import numpy as np
import pytest

from whitney import expr
from whitney import geometry as geo
from whitney.cutoff import CutoffSpec, build_cutoff
from whitney.errors import (ConsistencyViolation, FlatnessDeclarationMissing,
                            SequenceLeavesCone, StratificationInvalid)
from whitney.extension import (CellTerm, Scene, Stratum,
                               check_stratum_consistency,
                               extend_field, extend_on_cell,
                               flatness_rate_probe, shift_field,
                               subtract_taylor)
from whitney.jets import FieldSpec, multi_indices, taylor_jet
from whitney.verify import check_extension, finite_difference

from conftest import load_corpus_scene, rand_point, rand_polynomial

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


# --- field shifting -------------------------------------------------------


def test_shift_identity_when_graph_constant():
    cell = geo.GraphCell(geo.Interval(0.0, 1.0), (C(0, 1),), (0, 1))
    fld = FieldSpec(2, 1, "s", 1, {(0, 0): expr.coordinate(0, 1),
                                   (1, 0): C(1, 1), (0, 1): C(2, 1)})
    shifted = shift_field(fld, cell)
    for u in [(Fraction(1, 4),), (Fraction(2, 3),)]:
        for alpha in multi_indices(2, 1):
            assert shifted.coeffs[alpha](u) == expr.evaluate(
                fld.coeffs[alpha], u)


def test_shift_picks_up_graph_derivative():
    # g(x1, x2) = x2 restricted to the line w = u
    cell = geo.GraphCell(geo.Interval(0.0, 1.0),
                         (expr.coordinate(0, 1),), (0, 1))
    fld = FieldSpec(2, 1, "line", 1, {(0, 0): expr.coordinate(0, 1),
                                      (1, 0): C(0, 1), (0, 1): C(1, 1)})
    shifted = shift_field(fld, cell)
    u = (Fraction(1, 3),)
    assert shifted.coeffs[(0, 0)](u) == Fraction(1, 3)
    assert shifted.coeffs[(1, 0)](u) == 1        # chain rule: 0 + 1 * phi'
    assert shifted.coeffs[(0, 1)](u) == 1


def test_shift_matches_symbolic_composition(rng):
    """Shifting the jets of g equals the jets of g composed with the
    straightening map, coefficientwise and exactly."""
    base = geo.Interval(0.0, 1.0)
    for _ in range(20):
        p = int(rng.integers(1, 4))
        g = rand_polynomial(rng, 2, 3)
        phi = rand_polynomial(rng, 1, 3)
        cell = geo.GraphCell(base, (phi,), (0, 1))
        coeffs = {}
        for alpha in multi_indices(2, p):
            dg = expr.differentiate(g, alpha)
            coeffs[alpha] = expr.substitute(dg, [expr.coordinate(0, 1), phi])
        fld = FieldSpec(2, p, "t", 1, coeffs)
        shifted = shift_field(fld, cell)
        phi2 = expr.substitute(phi, [expr.coordinate(0, 2)])
        g_phi = expr.substitute(
            g, [expr.coordinate(0, 2),
                expr.ExprFn(2, expr.add(expr.var(1), phi2.root))])
        u0 = rand_point(rng, 1, 0, 1)
        want = taylor_jet(g_phi, p, (u0[0], Fraction(0)))
        for alpha in multi_indices(2, p):
            assert shifted.coeffs[alpha](u0) == want.coeffs[alpha]


# --- consistency over curved cells -----------------------------------------


def test_stratum_consistency_accepts_valid_curved_field():
    sf = load_corpus_scene("parabola")
    arc = sf.scene.stratum("arc")
    samples = geo.stratum_samples(arc.cell, 16, sf.scene.box)
    worst = check_stratum_consistency(sf.scene.fields["arc"], arc.cell,
                                      samples[:16])
    assert worst < 1e-6


def test_stratum_consistency_rejects_broken_curved_field():
    sf = load_corpus_scene("parabola")
    arc = sf.scene.stratum("arc")
    bad = FieldSpec(2, 1, "arc", 1, {(0, 0): expr.polynomial(1, {(2,): 1}),
                                     (1, 0): C(0, 1),
                                     (0, 1): C(0, 1)})   # kills the chain rule
    samples = geo.stratum_samples(arc.cell, 8, sf.scene.box)
    with pytest.raises(ConsistencyViolation):
        check_stratum_consistency(bad, arc.cell, samples[:8])


# --- single-cell extension -------------------------------------------------


def test_extend_on_cell_halfline_values():
    scene = halfline_scene()
    z = scene.descriptor_for(["origin"])
    term = extend_on_cell(scene.fields["ray"], scene.stratum("ray"), z,
                          scene, flat_declared=True)
    assert term((2.0,)) == 8.0
    assert term((-1.0,)) == 0.0


def test_extend_on_cell_fd_flat_from_left():
    scene = halfline_scene()
    z = scene.descriptor_for(["origin"])
    term = extend_on_cell(scene.fields["ray"], scene.stratum("ray"), z,
                          scene, flat_declared=True)
    prev = None
    for j in range(3, 13):
        d, _ = finite_difference(term, (1,), (-2.0 ** -j,), h=2.0 ** -j / 30)
        assert abs(d) < 1e-10
        prev = d


def test_extend_on_cell_zero_field_is_zero():
    scene = halfline_scene()
    zero_field = FieldSpec(1, 1, "ray", 1, {(0,): C(0, 1), (1,): C(0, 1)})
    z = scene.descriptor_for(["origin"])
    term = extend_on_cell(zero_field, scene.stratum("ray"), z, scene,
                          flat_declared=True)
    for x in np.linspace(-2, 3, 50):
        assert term((float(x),)) == 0.0


def test_extend_on_cell_requires_flat_declaration():
    scene = halfline_scene()
    z = scene.descriptor_for(["origin"])
    with pytest.raises(FlatnessDeclarationMissing):
        extend_on_cell(scene.fields["ray"], scene.stratum("ray"), z, scene,
                       flat_declared=False)


def test_support_discipline():
    """The term vanishes exactly wherever the cone membership certificate
    excludes the point."""
    scene = halfline_scene()
    z = scene.descriptor_for(["origin"])
    term = extend_on_cell(scene.fields["ray"], scene.stratum("ray"), z,
                          scene, flat_declared=True)
    from whitney.cutoff import cone_membership, OUT
    rng = np.random.default_rng(4)
    for x in rng.uniform(-3, 3, 60):
        if abs(x) < 1e-6:
            continue
        w_desc = geo.descriptor_of(scene.stratum("ray").cell)
        if cone_membership((x,), w_desc, z, term.eta) == OUT:
            assert term((float(x),)) == 0.0


def test_square_edge_cutoffs_vanish_around_their_endpoint_normals():
    """Each square edge's cutoff reads the edge's exact distance, which
    bends only on the normal lines through the edge's endpoints; there,
    and in a 1e-3 relative band around them, the cutoff is exactly 0
    because the endpoints are corner strata in Z."""
    f = extend_field(load_corpus_scene("square").scene)
    assert len(f.terms) == 4
    t = np.geomspace(1e-4, 2.0, 60)
    t = np.concatenate([t, -t])
    for term in f.terms:
        cell = term.cell
        d_w = term.omega.d_w
        assert not d_w.nets and len(d_w.table.lows) == 1
        height = float(expr.evaluate(cell.graph[0], (0.5,)))
        for end in (0.0, 1.0):
            for rel in (-1e-3, 0.0, 1e-3):
                Y = np.stack([end + rel * np.abs(t), height + t], axis=1)
                X = np.empty_like(Y)
                X[:, list(cell.perm)] = Y
                assert not np.any(term.omega(X)), (term.stratum_id, end, rel)


def test_validate_propagates_unexpected_errors(monkeypatch):
    """Only an unsupported descriptor skips a validation check; any other
    error is a fault and reaches the caller."""
    scene = load_corpus_scene("square").scene

    def broken(*args, **kwargs):
        raise RuntimeError("frontier failed")

    monkeypatch.setattr(geo, "graph_cell_frontier", broken)
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
    """One (N, n) call gives, bit for bit, the values of N point calls."""
    scene = load_corpus_scene(name).scene
    f = extend_field(scene)
    X = np.random.default_rng(5).uniform(-1.0, 2.0, (60, scene.n))
    batch = f(X)
    points = np.asarray([f(x) for x in X])
    assert batch.shape == (60,) and isinstance(f(X[0]), float)
    assert batch.tobytes() == points.tobytes()


# --- Taylor-data subtraction ------------------------------------------------


def test_subtract_taylor_zero_g_keeps_field():
    scene = halfline_scene()
    g = lambda x: 0.0
    out = subtract_taylor(scene.fields, scene, g)
    for u in [(0.3,), (1.7,)]:
        got = out["ray"].coeffs[(0,)](u)
        assert got == pytest.approx(u[0] ** 3, abs=1e-12)


def test_subtract_taylor_exact_extension_flattens():
    scene = halfline_scene()
    f = extend_field(scene)
    out = subtract_taylor(scene.fields, scene, f)
    worst = 0.0
    for u in np.linspace(0.05, 2.5, 100):
        for alpha in [(0,), (1,)]:
            worst = max(worst, abs(float(out["ray"].coeffs[alpha]((float(u),)))))
    assert worst < 1e-6


def test_subtract_taylor_polynomial_matches_symbolic():
    scene = halfline_scene()
    g_expr = expr.polynomial(1, {(3,): 1})              # the field's own rep
    g = lambda X: np.asarray([float(expr.evaluate(g_expr, tuple(x)))
                              for x in X])
    out = subtract_taylor(scene.fields, scene, g)
    for u in [(0.4,), (1.1,), (2.3,)]:
        assert out["ray"].coeffs[(0,)](u) == pytest.approx(0.0, abs=1e-11)
        assert out["ray"].coeffs[(1,)](u) == pytest.approx(0.0, abs=1e-9)


# --- the induction driver ----------------------------------------------------


def test_points_scene_interpolates_jets():
    sf = load_corpus_scene("points")
    f = extend_field(sf.scene)
    assert f((0.0,)) == 0.0 and f((1.0,)) == 1.0
    d0, _ = finite_difference(f, (1,), (0.0,), 1e-3)
    d1, _ = finite_difference(f, (1,), (1.0,), 1e-3)
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
    for x in np.linspace(-4, 4, 17):
        assert f((float(x),)) == pytest.approx(x * x, abs=1e-12)
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
    for x1, x2 in [(0.5, 0.5), (0.97, 0.02), (0.25, 0.8)]:
        assert f((x1, x2)) == pytest.approx(x1 * x2, abs=1e-12)
    rep = check_extension(f, scene, tol=1e-4, samples_per_stratum=60)
    by_key = {(e.stratum_id, e.alpha): e for e in rep.entries}
    for alpha in [(0, 0), (1, 0), (0, 1)]:
        assert by_key[("face", alpha)].max_rel_dev < 1e-4
    for edge in ("bottom", "top", "left", "right"):
        assert by_key[(edge, (0, 0))].max_rel_dev < 1e-4
        assert by_key[(edge, (1, 0))].max_rel_dev < 1e-4     # tangential
        assert by_key[(edge, (0, 1))].max_rel_dev < 1e-2     # normal, C^1 kink


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
    assert check_stratum_consistency(fields["arc"], arc, samples[:12]) < 1e-6
    f = extend_field(scene)
    assert f((0.25, 0.5)) == pytest.approx(0.25, abs=1e-12)  # on the arc
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
    assert f((0.5,)) == pytest.approx(0.25, abs=1e-12)
    assert f((2.5,)) == pytest.approx(6.25, abs=1e-12)
    assert f((1.5,)) == 0.0          # outside both cone supports
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
    rep = flatness_rate_probe(term, z, term.cell, 0.5, sf.scene.p, pts,
                              theta=1e-2)
    assert rep.all_flat, rep.per_kappa


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
    assert rep.all_flat
    assert all(v == 0.0 for vals in rep.per_kappa.values() for v in vals)


def test_flatness_probe_positive_side_real_decay():
    scene = halfline_scene()
    f = extend_field(scene)
    z = scene.descriptor_for(["origin"])
    pts = [(2.0 ** -j,) for j in range(3, 15)]
    rep = flatness_rate_probe(f, z, scene.stratum("ray").cell, 0.5, 1, pts)
    assert rep.all_flat
    vals = rep.per_kappa[(0,)]
    # |x^3| / |x| = x^2 shrinks by 4x per dyadic step
    for a, b in zip(vals, vals[1:]):
        if a > 1e-13:
            assert b < a / 1.5


def test_flatness_probe_zero_function():
    scene = halfline_scene()
    z = scene.descriptor_for(["origin"])
    rep = flatness_rate_probe(lambda x: 0.0, z, scene.stratum("ray").cell,
                              0.5, 1, [(-2.0 ** -j,) for j in range(3, 12)])
    assert rep.all_flat


def test_flatness_probe_planted_defect():
    scene = halfline_scene()
    z = scene.descriptor_for(["origin"])
    rep = flatness_rate_probe(lambda x: float(x[0]), z,
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
    flat = lambda x: float(x[0]) ** 2           # rate p+1 = 2 at 0
    prod = lambda x: flat(x) * omega(np.asarray(x, dtype=float))
    pts = [(2.0 ** -j,) for j in range(3, 14)]
    rep = flatness_rate_probe(prod, z, scene.stratum("ray").cell, 0.5, 1, pts)
    assert rep.all_flat
