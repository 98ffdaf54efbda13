"""The package's data classes derive from one record base, ``errors.Record``:
value equality and hashing over the fields (the distance and net caches key
on loaded cells), identity for the array holders, immutable attributes,
strict constructors, and no ``dataclasses`` import on the command path."""
import json
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from whitney import cutoff as co
from whitney import expr
from whitney import geometry as geo
from whitney import extension, jets, sceneio, verify
from whitney.errors import Record
from whitney.extension import FlatnessReport
from whitney.rng import SeededStream

from conftest import bundled_cutoff_specs, load_corpus_scene


def test_command_path_imports_no_dataclasses():
    """Building records generates no code, and the command table needs no
    parser library: importing ``whitney.cli`` in a fresh interpreter
    leaves ``dataclasses``, ``argparse`` and ``gettext`` unloaded."""
    script = ("import json, sys\n"
              "import whitney.cli\n"
              "print(json.dumps([m in sys.modules for m in\n"
              "                  ('dataclasses', 'argparse', 'gettext')]))\n")
    done = subprocess.run([sys.executable, "-c", script], check=True,
                          capture_output=True, text=True,
                          env=dict(os.environ,
                                   PYTHONPATH=os.pathsep.join(sys.path)))
    assert json.loads(done.stdout.splitlines()[-1]) == [False] * 3


def test_extension_draws_once_and_validation_tests_each_stratum_once(
        monkeypatch):
    """On square at seed 1, ``extend_field`` makes one seeded draw (its
    four edges draw alike), and validation makes at most one membership
    call per stratum (its own calls: ``membership`` recurses down a
    cell's slab tower) and one 24-sample ``stratum_samples`` call per
    stratum, the closure check's frontier draws counted apart."""
    scene = load_corpus_scene("square").scene
    frontier_pieces = sum(len(geo.frontier_pieces(s.cell, scene.box))
                          for s in scene.strata
                          if isinstance(s.cell, geo.GraphCell))
    calls = {"random": 0, "membership": 0, "samples": [], "frontier": 0,
             "in_frontier": False}
    random, membership = SeededStream.random, geo.membership
    stratum_samples, frontier_samples = (geo.stratum_samples,
                                         geo.frontier_samples)

    def counted_random(self, shape):
        calls["random"] += 1
        return random(self, shape)

    def counted_membership(*args, **kwargs):
        calls["membership"] += 1
        return membership(*args, **kwargs)

    def counted_samples(cell, k, *args, **kwargs):
        if calls["in_frontier"]:
            calls["frontier"] += 1
        else:
            calls["samples"].append((cell, k))
        return stratum_samples(cell, k, *args, **kwargs)

    def counted_frontier(*args, **kwargs):
        calls["in_frontier"] = True
        try:
            return frontier_samples(*args, **kwargs)
        finally:
            calls["in_frontier"] = False

    monkeypatch.setattr(SeededStream, "random", counted_random)
    monkeypatch.setattr(extension, "membership", counted_membership)
    monkeypatch.setattr(geo, "stratum_samples", counted_samples)
    monkeypatch.setattr(geo, "frontier_samples", counted_frontier)
    assert scene.validate() == []
    assert 0 < calls["membership"] <= len(scene.strata)
    assert calls["samples"] == [(s.cell, 24) for s in scene.strata]
    assert calls["frontier"] == frontier_pieces > 0
    extension._uniform_draws.cache_clear()
    extension.extend_field(scene, seed=1)
    assert calls["random"] == 1


def test_scene_loaded_twice_shares_distance_and_net_cache_entries():
    a, b = (load_corpus_scene("square").scene for _ in range(2))
    ids = [s.id for s in a.strata]
    wa, wb = a.descriptor_for(ids), b.descriptor_for(ids)
    assert wa is not wb and wa == wb and hash(wa) == hash(wb)
    hits = geo.distance_table.cache_info().hits
    assert geo.distance_table(wa, a.box) is geo.distance_table(wb, b.box)
    assert geo.distance_table.cache_info().hits > hits
    (ca, cb), = [(s.cell, t.cell) for s, t in zip(a.strata, b.strata)
                 if s.id == "bottom"]
    assert isinstance(ca, geo.GraphCell)
    assert ca is not cb and ca == cb and hash(ca) == hash(cb)
    hits = geo.piece_net.cache_info().hits
    assert geo.piece_net(ca, a.box) is geo.piece_net(cb, b.box)
    assert geo.piece_net.cache_info().hits > hits


def _net(points, slack):
    """A one-ball :class:`geo.PieceNet` over the given rows."""
    return geo.PieceNet(points, slack, np.zeros(1, dtype=int), np.zeros(1),
                        slack[:1])


def test_array_holders_compare_by_identity():
    points, slack = np.zeros((2, 2)), np.ones(2)
    net = _net(points, slack)
    assert net == net and net != _net(points, slack)
    assert hash(net) == object.__hash__(net)
    ends = [((0.0, 0.0), (1.0, 0.0))]
    seg = co._Segments.of(ends, 4.0)
    assert seg == seg and seg != co._Segments.of(ends, 4.0)
    assert hash(seg) == object.__hash__(seg)


def test_records_of_two_classes_never_compare_equal():
    """Equal field values in two classes (or in a tuple) are no match, and
    a record is no tuple: it cannot collide with another piece in a cache
    or be unpacked."""
    assert geo.Interval(0.0, 1.0) == geo.Interval(0.0, 1.0)
    assert geo.Interval(0.0, 1.0) != (0.0, 1.0)
    assert geo.Interval(0.0, 1.0) != geo.LipschitzReport(0.0, 1.0)
    assert hash(geo.Interval(0.0, 1.0)) == hash((0.0, 1.0))
    assert not isinstance(geo.Interval(0.0, 1.0), tuple)
    with pytest.raises(TypeError):
        iter(geo.Interval(0.0, 1.0))


def _one_of_each() -> list:
    """One instance of every record class of the package."""
    sf = load_corpus_scene("square")
    scene = sf.scene
    stratum = scene.stratum("bottom")
    spec = bundled_cutoff_specs()[2]
    omega = co.build_cutoff(spec)
    fn = expr.coordinate(0, 1)
    return [
        sf, sf.plan, scene, stratum, stratum.cell, stratum.cell.base,
        scene.stratum("c00").cell, scene.fields["bottom"], fn, fn.root,
        geo.Slab(geo.Interval(0.0, 1.0), None, fn), geo.Ball((0.0,), 1.0),
        spec.w_desc, _net(np.zeros((1, 1)), np.zeros(1)),
        geo.LipschitzReport(0.0, 1.0), geo.SandwichReport(0, []),
        spec, omega.profile, omega.d_w.segments,
        co.CutoffReport(0, 0, 0, 0, {}, {}, True),
        FlatnessReport({}, {}),
        jets.PointJet(1, 0, (0.0,), {(0,): Fraction(1)}),
        verify.ResidualSample((0.0,), (1.0,), Fraction(0), 1.0),
        verify.RateFit(1.0, "PASS"),
        verify.AgreementEntry("bottom", (0, 0), 0.0, 1, True),
        verify.AgreementReport(),
    ]


def test_every_record_is_immutable():
    """Assigning to or deleting any attribute of any record raises, the
    mutable-looking reports and the loaded plan included."""
    records = _one_of_each()
    assert {type(r) for r in records} == set(Record.__subclasses__())
    for r in records:
        for name in r._fields + ("unknown",):
            with pytest.raises(AttributeError):
                setattr(r, name, None)
        with pytest.raises(AttributeError):
            delattr(r, r._fields[0])


def test_piece_net_balls_are_read_only_runs_that_cover_their_points():
    """Each ball of a cached net is a run of consecutive points: its start
    indices rise from 0, every point lies within its ball's radius of the
    ball's first point, with its slack at most the ball's, and every array
    is read-only.  A ball holds more than four points on average, on the arc
    (715 points) and on a 2-d net, and each ball is one cell of the net's
    17 x 17 ball grid, so the 2-d net has at most 289 balls."""
    arc = load_corpus_scene("parabola").scene.stratum("arc").cell
    under = geo.identity_graph_cell(geo.Slab(
        geo.Interval(0.0, 1.0), None, expr.polynomial(1, {(2,): 1})))
    for cell in (arc, under):
        net = geo.piece_net(cell, 3.0)
        assert net._fields == ("points", "slack", "ball_start",
                               "ball_radius", "ball_slack")
        start = net.ball_start
        assert start[0] == 0 and np.all(np.diff(start) > 0)
        assert 4 * len(start) < len(net.points)
        assert len(start) <= (geo._BALL_GRID + 1) ** net.points.shape[1]
        first = start[np.searchsorted(start, np.arange(len(net.points)),
                                      "right") - 1]
        gap = np.linalg.norm(net.points - net.points[first], axis=1)
        ball = np.searchsorted(start, first)
        assert np.all(gap <= net.ball_radius[ball])
        assert np.all(net.slack <= net.ball_slack[ball])
        for name in net._fields:
            with pytest.raises(ValueError):
                getattr(net, name)[:1] = 0


def test_list_default_is_fresh_per_record():
    a, b = verify.AgreementReport(), verify.AgreementReport()
    a.entries.append(verify.AgreementEntry("x", (0,), 0.0, 1, True))
    assert b.entries == [] and a.entries is not b.entries
    assert verify.AgreementReport.entries == []


def test_constructor_takes_fields_by_position_or_keyword():
    cell = geo.Interval(0.0, upper=1.0)
    assert cell == geo.Interval(upper=1.0, lower=0.0)
    assert expr.Node("var", 0) == expr.Node("var", 0, ())  # defaults
    with pytest.raises(TypeError):
        geo.Interval(0.0)                       # missing
    with pytest.raises(TypeError):
        geo.Interval(0.0, 1.0, width=1.0)       # unknown
    with pytest.raises(TypeError):
        geo.Interval(0.0, 1.0, 2.0)             # too many
    with pytest.raises(TypeError):
        geo.Interval(0.0, lower=1.0)            # repeated
    with pytest.raises(ValueError):             # __post_init__ checks
        co.CutoffSpec(geo.EMPTY_SET, geo.EMPTY_SET, 0.5, 1)


def test_repr_names_the_fields_and_hides_field_coefficients():
    assert repr(geo.Interval(0.0, None)) == "Interval(lower=0.0, upper=None)"
    fld = load_corpus_scene("square").scene.fields["bottom"]
    assert repr(fld) == ("FieldSpec(n=2, p=1, stratum_id='bottom', "
                         "param_arity=1)")
    assert repr(sceneio.Plan(0, 1, 1e-4, (), (), None)) == (
        "Plan(seed=0, samples_per_stratum=1, tolerance=0.0001, checks=(), "
        "flatness=(), whitney=None)")
