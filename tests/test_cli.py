import csv
import itertools
import json
import os
import subprocess
import sys

import pytest

from whitney import cli
from whitney.cli import main
from whitney.errors import InputError, SceneFormatError
from whitney.sceneio import load_scene, parse_scene

from conftest import SCENES_DIR, scene_path


def run(*argv) -> int:
    return main([str(a) for a in argv])


# --- validate -----------------------------------------------------------------

# exit code of `validate` for every bundled scene
VALIDATE_EXIT = {
    "points": 0, "halfline": 0, "parabola": 0, "square": 0, "fullspace": 0,
    "defect_incompatible_jet": 0,      # cross-stratum defect, see verify
    "defect_missing_boundary": 2,
    "defect_inconsistent_far_end": 2,
    "defect_overlapping_strata": 2,
    "defect_singular_graph": 2,
    "defect_false_flat": 2,
}


@pytest.mark.parametrize("name",
                         sorted(p.stem for p in SCENES_DIR.glob("*.json")))
def test_validate_corpus(name):
    assert name in VALIDATE_EXIT, f"scene {name!r} has no expected exit code"
    assert run("validate", scene_path(name)) == VALIDATE_EXIT[name]


def test_validate_names_the_far_end_inconsistency(capsys):
    assert run("validate", scene_path("defect_inconsistent_far_end")) == 2
    out = capsys.readouterr().out
    assert "field consistency on 'arc'" in out and "u=(0.7" in out


def test_extend_refuses_the_far_end_inconsistency(tmp_path, capsys):
    """`extend` refuses the scenes `validate` refuses, the chain-rule check
    included: same INVALID lines, exit 2, no run directory."""
    scene, out = scene_path("defect_inconsistent_far_end"), tmp_path / "run"
    assert run("validate", scene) == 2
    invalid = capsys.readouterr().out
    assert run("extend", scene, "-o", out) == 2
    assert capsys.readouterr().out == invalid
    assert "field consistency on 'arc'" in invalid
    assert not out.exists()


def test_validate_names_the_overlapping_pair(capsys):
    assert run("validate", scene_path("defect_overlapping_strata")) == 2
    assert "strata 'A' and 'B' overlap" in capsys.readouterr().out


def test_validate_missing_boundary(capsys):
    assert run("validate", scene_path("defect_missing_boundary")) == 2
    assert "stratification not closed" in capsys.readouterr().out


def test_validate_names_the_singular_graph_map(capsys, tmp_path):
    scene = scene_path("defect_singular_graph")
    assert run("validate", scene) == 2
    out = capsys.readouterr().out.splitlines()
    assert out[0] == ("INVALID  stratum 'arc': singular graph map "
                      "(expression singular at u=(1e-09,))")
    arc = [line for line in out
           if line.startswith("INVALID") and "'arc'" in line]
    assert len(arc) == 1 and "u=" in arc[0]
    assert run("extend", scene, "-o", tmp_path / "run") == 2


def test_false_flat_declaration_is_refused(capsys, tmp_path):
    """The ray of the half-line declared flat: its x^3 is not 0 at its
    samples, so all three commands refuse the scene."""
    scene, out = scene_path("defect_false_flat"), tmp_path / "run"
    assert run("validate", scene) == 2
    assert capsys.readouterr().out == (
        "INVALID  flat stratum 'ray': coefficient (0,) is 5.960e-08, not 0, "
        "at (0.003906,)\n")
    assert run("extend", scene, "-o", out) == 2
    assert run("verify", scene, out) == 2 and not out.exists()


def test_validate_incompatible_jet_scene_is_structurally_fine():
    # the defect lives across strata; structure and per-stratum data are fine
    assert run("validate", scene_path("defect_incompatible_jet")) == 0


def test_empty_strata_rejected(tmp_path):
    bad = tmp_path / "empty.json"
    bad.write_text(json.dumps({"schema": "jetfield-scene/1", "n": 1,
                               "p": 1, "q": 1, "strata": []}))
    assert run("validate", bad) == 2


def test_schema_diagnostics_carry_path(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": "jetfield-scene/1", "n": 1,
                               "p": 1, "q": 1,
                               "strata": [{"id": "s", "cell": {"type": "odd"},
                                           "field": {}}]}))
    with pytest.raises(SceneFormatError, match=r"strata\[0\].cell"):
        load_scene(bad)


@pytest.mark.parametrize("value", ["1/0", "x", True, None, [1]])
def test_bad_number_literals_carry_their_path(tmp_path, value):
    """A point coordinate goes through the one JSON number parser; every
    bad literal, a zero denominator included, is a schema error naming
    where it is."""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": "jetfield-scene/1", "n": 1,
                               "p": 1, "q": 1,
                               "strata": [{"id": "s", "cell": {
                                   "type": "point", "coords": [value]},
                                   "field": {}}]}))
    with pytest.raises(SceneFormatError,
                       match=r"strata\[0\]\.cell\.coords\[0\]: "):
        load_scene(bad)


def test_validate_names_a_non_integer_expression_payload(tmp_path, capsys):
    raw = json.loads(scene_path("halfline").read_text())
    raw["strata"][1]["field"]["0"] = ["pow", ["var", 0], 2.5]
    scene = tmp_path / "halfline.json"
    scene.write_text(json.dumps(raw))
    assert run("validate", scene) == 2
    assert ("strata[1].field['0']: bad expression: pow exponent"
            in capsys.readouterr().err)


def _refused_by_every_command(tmp_path, capsys, raw, message):
    """``validate``, ``extend`` and ``verify`` of the scene ``raw`` each exit
    2 with ``message`` on stderr, and no run directory is written."""
    scene, out = tmp_path / "scene.json", tmp_path / "run"
    scene.write_text(json.dumps(raw))
    for argv in (("validate", scene), ("extend", scene, "-o", out),
                 ("verify", scene, out)):
        assert run(*argv) == 2
        assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, value, path", [
    ("checks", ["structure", "agreemnt"], "plan.checks[1]"),
    ("checks", "agreement", "plan.checks"),
    ("samples_per_stratum", "many", "plan.samples_per_stratum"),
    ("samples_per_stratum", 2.9, "plan.samples_per_stratum"),
    ("samples_per_stratum", True, "plan.samples_per_stratum"),
    ("samples_per_stratum", 0, "plan.samples_per_stratum"),
    ("tolerance", True, "plan.tolerance"),
    ("tolerance", "1e-4", "plan.tolerance"),
    ("tolerance", -1e-4, "plan.tolerance")])
def test_plan_keys_are_typed(tmp_path, capsys, key, value, path):
    """A plan key of the wrong type stops every command with exit 2 and
    names the key: no check is dropped, no count is truncated."""
    raw = json.loads(scene_path("points").read_text())
    raw["plan"][key] = value
    _refused_by_every_command(tmp_path, capsys, raw, f"{path}: must be")


@pytest.mark.parametrize("name, checks, drop, path", [
    ("points", ["structure", "whitney", "flatness"], None, "plan.whitney"),
    ("points", ["structure", "flatness"], None, "plan.flatness"),
    ("halfline", None, "whitney", "plan.whitney"),
    ("halfline", None, "flatness", "plan.flatness")])
def test_listed_check_without_its_data_is_refused(tmp_path, capsys, name,
                                                  checks, drop, path):
    """A plan that lists ``whitney`` or ``flatness`` without its probes is
    a schema error naming the missing key, not a check left out."""
    raw = json.loads(scene_path(name).read_text())
    if checks is not None:
        raw["plan"]["checks"] = checks
    if drop is not None:
        del raw["plan"][drop]
    _refused_by_every_command(tmp_path, capsys, raw, f"{path}: must be given")


def test_listed_flatness_with_no_items_is_refused(tmp_path, capsys):
    raw = json.loads(scene_path("halfline").read_text())
    raw["plan"]["flatness"] = []
    _refused_by_every_command(tmp_path, capsys, raw,
                              "plan.flatness: must be a nonempty array")


_DROP = object()


def _set(*keys_value):
    """A plan edit: set ``plan[k0][k1]...`` to the last argument, or delete
    that key when the last argument is ``_DROP``."""
    *keys, value = keys_value

    def edit(plan):
        for k in keys[:-1]:
            plan = plan[k]
        if value is _DROP:
            del plan[keys[-1]]
        else:
            plan[keys[-1]] = value
    return edit


@pytest.mark.parametrize("name, edit, path", [
    ("halfline", _set("flatness", ["ray"]), "plan.flatness[0]"),
    ("halfline", _set("flatness", 0, "stratum", "line"),
     "plan.flatness[0].stratum"),
    ("halfline", _set("flatness", 0, "stratum", ["ray"]),
     "plan.flatness[0].stratum"),
    ("halfline", _set("flatness", 0, "target", [0, 0]),
     "plan.flatness[0].target"),
    ("halfline", _set("flatness", 0, "direction", [True]),
     "plan.flatness[0].direction"),
    ("halfline", _set("flatness", 0, "j0", 2.5), "plan.flatness[0].j0"),
    ("halfline", _set("flatness", 0, "j1", 3), "plan.flatness[0].j1"),
    ("halfline", _set("flatness", 0, "cone", 0), "plan.flatness[0].cone"),
    ("halfline", _set("flatness", 0, "theta", True),
     "plan.flatness[0].theta"),
    ("halfline", _set("whitney", []), "plan.whitney"),
    ("halfline", _set("whitney", "j0", "4"), "plan.whitney.j0"),
    ("halfline", _set("whitney", "j1", 4), "plan.whitney.j1"),
    ("halfline", _set("whitney", "targets", [[0, 1]]),
     "plan.whitney.targets[0]"),
    ("halfline", _set("whitney", "directions", [["1"]]),
     "plan.whitney.directions[0]"),
    ("halfline", _set("whitney", "directions", [[1.0], [-1.0]]),
     "plan.whitney.directions"),
    ("square", _set("whitney", "targets", [[0, 0]]), "plan.whitney"),
    ("square", _set("whitney", "probes", []), "plan.whitney.probes"),
    ("square", _set("whitney", "probes", [{"target": [0, 0]}]),
     "plan.whitney.probes[0].direction"),
    ("square", _set("whitney", "probes", 0, "stratum", "c00"),
     "plan.whitney.probes[0].stratum"),
    ("square", _set("whitney", "probes", 0, "stratum", ["bottom"]),
     "plan.whitney.probes[0].stratum"),
    ("square", _set("whitney", "probes", 0, "param_target", [0, 0]),
     "plan.whitney.probes[0].param_target"),
    ("square", _set("whitney", "probes", 0, "param_direction", _DROP),
     "plan.whitney.probes[0].param_direction"),
    ("square", _set("whitney", "probes", 1, "anchor", [1]),
     "plan.whitney.probes[1].anchor")])
def test_plan_probe_keys_are_typed(tmp_path, capsys, name, edit, path):
    """Each key of the ``whitney`` block and the ``flatness`` items is typed:
    a wrong one stops every command with exit 2 and names it."""
    raw = json.loads(scene_path(name).read_text())
    edit(raw["plan"])
    _refused_by_every_command(tmp_path, capsys, raw, f"{path}: must")


def test_plan_that_is_no_object_is_refused(tmp_path, capsys):
    raw = json.loads(scene_path("points").read_text())
    raw["plan"] = []
    _refused_by_every_command(tmp_path, capsys, raw,
                              "plan: must be an object, got []")


@pytest.mark.parametrize("name", ["halfline", "parabola", "square"])
def test_plan_probe_data_reach_the_checks_as_read(name):
    """Typing changes no value: square's integer anchors stay integers."""
    plan = json.loads(scene_path(name).read_text())["plan"]
    parsed = load_scene(scene_path(name)).plan
    assert parsed.whitney == plan["whitney"]
    assert parsed.flatness == tuple(plan.get("flatness", ()))
    if name == "square":
        assert parsed.whitney["probes"][0]["anchor"] == [0, 0]
        assert type(parsed.whitney["probes"][0]["anchor"][0]) is int


def test_plan_probe_defaults_fill_left_out_keys():
    raw = json.loads(scene_path("halfline").read_text())
    raw["plan"]["whitney"] = {}
    raw["plan"]["flatness"] = [{"stratum": "ray", "target": [0],
                                "direction": [-1]}]
    plan = parse_scene(raw).plan
    assert plan.whitney == {"j0": 4, "j1": 14, "targets": [[0.0]],
                            "directions": [[1.0]]}
    assert plan.flatness == ({"stratum": "ray", "target": [0],
                              "direction": [-1], "j0": 3, "j1": 14,
                              "cone": 0.5, "theta": 1e-2},)


def _scene_raw(name: str) -> dict:
    return cube_scene() if name == "cube" else json.loads(
        scene_path(name).read_text())


@pytest.mark.parametrize("name, edit, path", [
    ("points", _set("comment", "x"), "comment"),
    ("halfline", _set("strata", 1, "bounds", []), "strata[1].bounds"),
    ("points", _set("strata", 0, "cell", "coord", [0]),
     "strata[0].cell.coord"),
    ("halfline", _set("strata", 1, "cell", "uper", 3), "strata[1].cell.uper"),
    ("square", _set("strata", 4, "cell", "permutation", [0, 1]),
     "strata[4].cell.permutation"),
    ("parabola", _set("strata", 2, "cell", "base", "lowr", 0),
     "strata[2].cell.base.lowr"),
    ("cube", _set("strata", 0, "cell", "lowr", ["const", 0]),
     "strata[0].cell.lowr"),
    ("cube", _set("strata", 0, "cell", "base", "uppr", ["const", 1]),
     "strata[0].cell.base.uppr"),
    ("halfline", _set("plan", "sample_per_stratum", 3),
     "plan.sample_per_stratum"),
    ("halfline", _set("plan", "whitney", "J1", 6), "plan.whitney.J1"),
    ("square", _set("plan", "whitney", "probes", 0, "anchr", [0, 0]),
     "plan.whitney.probes[0].anchr"),
    ("square", _set("plan", "whitney", "probes", [
        {"target": [0, 0], "direction": [1, 0], "anchor": [0, 0]}]),
     "plan.whitney.probes[0].anchor"),
    ("halfline", _set("plan", "flatness", 0, "thetha", 1e-9),
     "plan.flatness[0].thetha")],
    ids=["scene", "stratum", "point", "interval", "graph", "graph-base",
         "slab", "slab-base", "plan", "whitney", "probe-on-stratum",
         "probe-at-target", "flatness"])
def test_unknown_keys_are_refused(tmp_path, capsys, name, edit, path):
    """Every object of a scene knows its keys (a cell and a probe by their
    form): a misspelt or misplaced key stops every command with exit 2 and
    is named, never read as a key left out."""
    raw = _scene_raw(name)
    edit(raw)
    _refused_by_every_command(tmp_path, capsys, raw,
                              f"{path}: must be one of the keys")


@pytest.mark.parametrize("name, edit, path", [
    ("halfline", _set("box", "many"), "box"),
    ("halfline", _set("box", True), "box"),
    ("halfline", _set("box", -4), "box"),
    ("halfline", _set("n", True), "n"),
    ("halfline", _set("q", True), "q"),
    ("halfline", _set("strata", 1, "boundary", "origin"),
     "strata[1].boundary"),
    ("halfline", _set("strata", 0, "flat", "yes"), "strata[0].flat"),
    ("square", _set("strata", 4, "cell", "perm", [False, True]),
     "strata[4].cell.perm"),
    ("parabola", _set("strata", 2, "cell", "graph", 5),
     "strata[2].cell.graph")],
    ids=["box-string", "box-bool", "box-negative", "n-bool", "q-bool",
         "boundary-string", "flat-string", "perm-bools", "graph-number"])
def test_scene_values_are_typed(tmp_path, capsys, name, edit, path):
    """``box`` is a positive finite number, ``n``, ``p`` and ``q`` are
    integers and no bool, ``boundary`` an array of ids, ``flat`` a bool,
    ``perm`` a permutation of integers and ``graph`` an array: anything
    else stops every command with exit 2 and names the key."""
    raw = _scene_raw(name)
    edit(raw)
    _refused_by_every_command(tmp_path, capsys, raw, f"{path}: must")


# the jets of 0 in R^3 at p = 1
ZERO_JETS_3D = {k: ["const", 0] for k in ("0,0,0", "1,0,0", "0,1,0", "0,0,1")}


def cube_scene() -> dict:
    """The closed unit cube as a scene file: the 3-cell, 6 faces, 12 edges
    and 8 corners, each carrying the jets of 0 and declaring the strata in
    its closure (``complete_cube_scene`` of test_extension.py)."""
    unit = {"type": "interval", "lower": 0, "upper": 1}
    square = {"type": "slab", "base": unit, "lower": ["const", 0],
              "upper": ["const", 1]}
    cells = {"cube": ({}, dict(square, base=square))}
    for free, fixed in (((0, 1), (2,)), ((0, 2), (1,)), ((1, 2), (0,)),
                        ((0,), (1, 2)), ((1,), (0, 2)), ((2,), (0, 1)),
                        ((), (0, 1, 2))):
        for values in itertools.product((0, 1), repeat=len(fixed)):
            pinned = dict(zip(fixed, values))
            cell = ({"type": "graph", "base": [unit, square][len(free) - 1],
                     "graph": [["const", v] for v in values],
                     "perm": list(free + fixed)}
                    if free else {"type": "point", "coords": list(values)})
            sid = "".join(f"x{a}={v}" for a, v in pinned.items())
            cells[sid] = (pinned, cell)
    strata = [{"id": sid, "cell": cell, "field": ZERO_JETS_3D,
               "boundary": [other for other, (more, _) in cells.items()
                            if len(more) > len(pinned)
                            and pinned.items() <= more.items()]}
              for sid, (pinned, cell) in cells.items()]
    return {"schema": "jetfield-scene/1", "n": 3, "p": 1, "q": 2, "box": 3.0,
            "strata": strata}


def test_extend_builds_the_closed_cube(tmp_path):
    """A 3-cell with constant walls needs no parameter net: the cube and
    its 26 boundary strata validate and extend, 27 terms, no leak."""
    scene, out = tmp_path / "cube.json", tmp_path / "run"
    scene.write_text(json.dumps(cube_scene()))
    assert run("validate", scene) == 0
    assert run("extend", scene, "-o", out, "--grid=0.5:0.5:1") == 0
    report = json.loads((out / "report.json").read_text())
    assert len(report["assembly"]) == 27 and report["leaks"] == 0


def test_extend_refuses_a_3_cell_with_a_sloped_wall(tmp_path, capsys):
    """The half-space above the plane z = x/2 validates, but its 3-cell
    would need a 3-d parameter net, so ``extend`` exits 2."""
    plane = {"type": "slab", "base": {"type": "interval"}}
    wall = ["mul", ["const", "1/2"], ["var", 0]]
    scene = tmp_path / "above.json"
    scene.write_text(json.dumps({
        "schema": "jetfield-scene/1", "n": 3, "p": 1, "q": 2, "box": 3.0,
        "strata": [
            {"id": "wall", "field": ZERO_JETS_3D, "cell": {
                "type": "graph", "base": plane, "graph": [wall]}},
            {"id": "above", "field": ZERO_JETS_3D, "boundary": ["wall"],
             "cell": {"type": "slab", "base": plane, "lower": wall}}]}))
    assert run("validate", scene) == 0
    assert run("extend", scene, "-o", tmp_path / "run") == 2
    assert ("parameter nets implemented for dimensions 1-2, got 3"
            in capsys.readouterr().err)


def test_parse_slab_stratum(tmp_path):
    raw = {
        "schema": "jetfield-scene/1", "n": 2, "p": 1, "q": 1, "box": 2.0,
        "strata": [{
            "id": "wedge",
            "cell": {"type": "slab",
                     "base": {"type": "interval", "lower": 0, "upper": 1},
                     "lower": ["const", 0], "upper": ["var", 0]},
            "boundary": [],
            "field": {"0,0": ["const", 0], "1,0": ["const", 0],
                      "0,1": ["const", 0]}}],
    }
    p = tmp_path / "slab.json"
    p.write_text(json.dumps(raw))
    from whitney.sceneio import load_scene as ls
    sf = ls(p)
    cell = sf.scene.strata[0].cell
    assert cell.intrinsic_dim == 2 and not cell.graph
    from whitney import geometry as geo
    assert geo.membership(cell, [(0.5, 0.2), (0.5, 0.7)]).tolist() == [
        geo.INSIDE, geo.OUTSIDE]


def test_scene_roundtrip():
    sf = load_scene(scene_path("parabola"))
    again = parse_scene(json.loads(scene_path("parabola").read_text()))
    assert again.scene.n == sf.scene.n
    assert [s.id for s in again.scene.strata] == \
        [s.id for s in sf.scene.strata]


# --- extend --------------------------------------------------------------------

@pytest.mark.parametrize("spec", [
    "0:1:0", "0:1:-0.25", "0:1:nan", "0:1:inf",      # step
    "-inf:1:0.25", "0:inf:0.25", "nan:1:0.25",       # bounds
    "1:0:0.25",                                      # b < a
])
def test_extend_refuses_a_malformed_grid_before_extending(spec, tmp_path,
                                                          capsys,
                                                          monkeypatch):
    """A grid step that is not positive and finite, a bound that is not
    finite, or ``b < a`` is an input error naming the spec (exit 2), found
    before any extension is built and before the run directory exists."""
    def no_extension(*args, **kwargs):
        raise AssertionError("extend_field called before the grid parsed")

    monkeypatch.setattr(cli, "extend_field", no_extension)
    out = tmp_path / "run"
    assert run("extend", scene_path("halfline"), "-o", out,
               f"--grid={spec}") == 2
    assert repr(spec) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("scene,spec,count", [
    ("halfline", "0:1:1e-12", 1000000000001),       # np.linspace's size
    ("square", "0:1:1e-5", 100001 ** 2),             # np.meshgrid's size
])
def test_extend_refuses_an_oversized_grid_before_allocating(
        scene, spec, count, tmp_path, capsys, monkeypatch):
    """A grid of more than ``MAX_GRID_POINTS`` points is an input error
    naming its count (exit 2), found from the specs alone: before any
    array is allocated, any extension is built or the run directory
    exists."""
    def no_extension(*args, **kwargs):
        raise AssertionError("extend_field called before the grid parsed")

    monkeypatch.setattr(cli, "extend_field", no_extension)
    out = tmp_path / "run"
    assert run("extend", scene_path(scene), "-o", out, f"--grid={spec}") == 2
    err = capsys.readouterr().err
    assert f"grid of {count} points" in err
    assert f"cap of {cli.MAX_GRID_POINTS} points" in err
    assert not out.exists()


def test_grid_cap_counts_the_product_of_the_axes(monkeypatch):
    monkeypatch.setattr(cli, "MAX_GRID_POINTS", 16)
    assert [len(a) for a in cli._parse_grid(["0:3:1"], 2, 3.0)] == [4, 4]
    with pytest.raises(InputError, match="grid of 20 points"):
        cli._parse_grid(["0:3:1", "0:4:1"], 2, 3.0)


def test_extend_halfline_grid(tmp_path):
    out = tmp_path / "run"
    assert run("extend", scene_path("halfline"), "-o", out,
               "--grid=-1:1:0.01") == 0
    with open(out / "samples.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 201
    byx = {float(r["x1"]): float(r["f"]) for r in rows}
    assert byx[0.5] == pytest.approx(0.125, abs=1e-12)
    assert byx[-0.5] == 0.0
    report = json.loads((out / "report.json").read_text())
    assert report["seed"] == 0 and report["leaks"] == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert "samples.csv" in manifest["files"]


def test_extend_hashes_each_file_once(tmp_path, monkeypatch):
    """The manifest reuses the digest of samples.csv that report.json
    records; every digest is the file's SHA-256."""
    import hashlib
    from whitney import cli
    hashed, file_sha = [], cli._file_sha

    def counted(path):
        hashed.append(path.name)
        return file_sha(path)

    monkeypatch.setattr(cli, "_file_sha", counted)
    out = tmp_path / "run"
    assert run("extend", scene_path("halfline"), "-o", out,
               "--grid=0:1:0.25") == 0
    assert sorted(hashed) == ["halfline.json", "report.json", "samples.csv"]
    report = json.loads((out / "report.json").read_text())
    files = json.loads((out / "manifest.json").read_text())["files"]
    assert files == {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("report.json", "samples.csv")}
    assert files["samples.csv"] == report["samples_sha"]


def test_extend_fullspace_matches_representative(tmp_path):
    out = tmp_path / "run"
    assert run("extend", scene_path("fullspace"), "-o", out,
               "--grid=-2:2:0.5") == 0
    with open(out / "samples.csv") as fh:
        rows = list(csv.DictReader(fh))
    for r in rows:
        x = float(r["x1"])
        assert float(r["f"]) == pytest.approx(x * x, abs=1e-12)


def test_extend_rejects_invalid_scene(tmp_path):
    assert run("extend", scene_path("defect_missing_boundary"),
               "-o", tmp_path / "r") == 2


def test_extend_rejects_a_negative_seed(tmp_path, capsys):
    out = tmp_path / "run"
    assert run("extend", scene_path("halfline"), "-o", out,
               "--seed", "-1") == 2
    assert ("--seed: must be a non-negative integer, got -1"
            in capsys.readouterr().err)
    assert not out.exists()


def test_extend_rejects_a_negative_plan_seed(tmp_path, capsys):
    raw = json.loads(scene_path("halfline").read_text())
    raw["plan"]["seed"] = -1
    scene = tmp_path / "negative_seed.json"
    scene.write_text(json.dumps(raw))
    assert run("extend", scene, "-o", tmp_path / "run") == 2
    assert ("plan.seed: must be a non-negative integer, got -1"
            in capsys.readouterr().err)


# --- verify ----------------------------------------------------------------------

def test_verify_corpus_scene_passes(tmp_path):
    out = tmp_path / "run"
    assert run("extend", scene_path("halfline"), "-o", out,
               "--grid=-1:1:0.05") == 0
    assert run("verify", scene_path("halfline"), out) == 0
    rep = json.loads((out / "verify_report.json").read_text())
    assert set(rep["verdicts"].values()) == {"PASS"}
    assert rep["flatness"]


def test_verify_parabola_with_parametric_whitney_probe(tmp_path):
    out = tmp_path / "run"
    assert run("extend", scene_path("parabola"), "-o", out,
               "--grid=-0.5:1.5:0.2") == 0
    assert run("verify", scene_path("parabola"), out) == 0
    rep = json.loads((out / "verify_report.json").read_text())
    assert rep["verdicts"]["whitney"] == "PASS"
    families = {r["family"] for r in rep["whitney"]}
    assert families == {"radial", "anchored"}


def test_verify_square_whitney_through_permuted_edge(tmp_path):
    out = tmp_path / "run"
    assert run("extend", scene_path("square"), "-o", out,
               "--grid=-0.5:1.5:0.25") == 0
    assert run("verify", scene_path("square"), out) == 0
    rep = json.loads((out / "verify_report.json").read_text())
    targets = {tuple(r["target"]) for r in rep["whitney"]}
    assert (1.0, 0.0) in targets        # probe along the permuted edge


def test_verify_defect_scene_fails(tmp_path):
    out = tmp_path / "run"
    assert run("extend", scene_path("defect_incompatible_jet"), "-o", out,
               "--grid=-1:1:0.1") == 0
    assert run("verify", scene_path("defect_incompatible_jet"), out) == 1
    rep = json.loads((out / "verify_report.json").read_text())
    assert rep["verdicts"]["whitney"] == "FAIL"
    assert rep["verdicts"]["agreement"] == "FAIL"


def test_whitney_probe_off_every_stratum_fails_only_its_entries(tmp_path):
    raw = json.loads(scene_path("halfline").read_text())
    raw["plan"]["whitney"] = {"probes": [
        {"target": [0.0], "direction": [1.0]},
        {"target": [-1.0], "direction": [1.0]}]}    # x < 0: no stratum
    scene = tmp_path / "halfline_off.json"
    scene.write_text(json.dumps(raw))
    out = tmp_path / "run"
    assert run("extend", scene, "-o", out, "--grid=-1:1:0.1") == 0
    assert run("verify", scene, out) == 1
    entries = json.loads((out / "verify_report.json").read_text())["whitney"]
    on = [e for e in entries if e["target"] == [0.0]]
    off = [e for e in entries if e["target"] == [-1.0]]
    assert len(on) == len(off) == 4
    assert {e["verdict"] for e in on} == {"PASS"}
    for e in off:
        assert e["verdict"] == "FAIL" and "not on any stratum" in e["error"]


def test_verify_wrong_artifact_rejected(tmp_path):
    out = tmp_path / "run"
    run("extend", scene_path("halfline"), "-o", out, "--grid=-1:1:0.1")
    assert run("verify", scene_path("points"), out) == 2


def test_each_command_validates_the_scene_once(tmp_path, monkeypatch,
                                              capsys):
    from whitney.extension import Scene
    calls = []
    validate = Scene.validate

    def counted(self):
        calls.append(self)
        return validate(self)

    monkeypatch.setattr(Scene, "validate", counted)
    out, bad = tmp_path / "run", scene_path("defect_missing_boundary")
    for argv, code in (
            (("validate", scene_path("halfline")), 0),
            (("extend", scene_path("halfline"), "-o", out, "--grid=0:1:0.5"),
             0),
            (("verify", scene_path("halfline"), out), 0),
            (("extend", bad, "-o", tmp_path / "bad"), 2)):
        calls.clear()
        assert run(*argv) == code
        assert len(calls) == 1, argv
    assert capsys.readouterr().out.splitlines()[-1].startswith(
        "INVALID  stratification not closed")


def test_verify_stops_on_an_invalid_scene_before_any_check(tmp_path,
                                                           capsys):
    import hashlib
    scene = scene_path("defect_overlapping_strata")
    out = tmp_path / "run"
    out.mkdir()
    (out / "report.json").write_text(json.dumps(
        {"schema": "jetfield-run/1", "seed": 0,
         "scene_sha": hashlib.sha256(scene.read_bytes()).hexdigest()}))
    assert run("verify", scene, out) == 2
    assert "strata 'A' and 'B' overlap" in capsys.readouterr().err
    assert not (out / "verify_report.json").exists()


def test_verify_rejects_a_negative_recorded_seed(tmp_path, capsys):
    scene, out = scene_path("halfline"), tmp_path / "run"
    assert run("extend", scene, "-o", out, "--grid=0:1:0.5") == 0
    report = json.loads((out / "report.json").read_text())
    report["seed"] = -1
    (out / "report.json").write_text(json.dumps(report))
    assert run("verify", scene, out) == 2
    assert ("report.json seed: must be a non-negative integer, got -1"
            in capsys.readouterr().err)
    assert not (out / "verify_report.json").exists()


# --- unreadable inputs -----------------------------------------------------------

def _halfline_run(tmp_path):
    out = tmp_path / "run"
    assert run("extend", scene_path("halfline"), "-o", out,
               "--grid=0:1:0.5") == 0
    return scene_path("halfline"), out


def test_a_missing_scene_is_an_input_error(tmp_path, capsys):
    """Each command names a scene file it cannot read, exits 2 and leaves
    no run directory."""
    missing, out = tmp_path / "missing.json", tmp_path / "run"
    for argv in (("validate", missing), ("extend", missing, "-o", out),
                 ("verify", missing, out)):
        assert run(*argv) == 2
        assert capsys.readouterr().err == (
            f"input error: {missing}: cannot read (No such file or "
            "directory)\n")
    assert not out.exists()


def test_verify_names_a_report_that_is_not_json(tmp_path, capsys):
    scene, out = _halfline_run(tmp_path)
    (out / "report.json").write_text("{not json")
    assert run("verify", scene, out) == 2
    assert capsys.readouterr().err.startswith(
        f"input error: {out / 'report.json'}: not valid JSON (")
    assert not (out / "verify_report.json").exists()


def test_verify_refuses_a_report_that_is_no_object(tmp_path, capsys):
    scene, out = _halfline_run(tmp_path)
    (out / "report.json").write_text("[1, 2]")
    assert run("verify", scene, out) == 2
    assert capsys.readouterr().err == "input error: artifact schema mismatch\n"
    assert not (out / "verify_report.json").exists()


@pytest.mark.parametrize("key, named", [
    ("seed", "report.json seed: must be a non-negative integer, got None"),
    ("assembly", "assembly trace mismatch"),
])
def test_verify_refuses_a_report_without_seed_or_assembly(tmp_path, capsys,
                                                          key, named):
    scene, out = _halfline_run(tmp_path)
    report = json.loads((out / "report.json").read_text())
    del report[key]
    (out / "report.json").write_text(json.dumps(report))
    assert run("verify", scene, out) == 2
    assert named in capsys.readouterr().err
    assert not (out / "verify_report.json").exists()


def test_plotdata_names_a_verify_report_that_is_not_json(tmp_path, capsys):
    _, out = _halfline_run(tmp_path)
    (out / "verify_report.json").write_text("{")
    assert run("plotdata", out, "--select", "flatness:kappa=1") == 2
    assert capsys.readouterr().err.startswith(
        f"input error: {out / 'verify_report.json'}: not valid JSON (")


@pytest.mark.parametrize("where", ["", "sub"])
def test_extend_refuses_an_output_under_a_file_before_extending(
        tmp_path, capsys, monkeypatch, where):
    """``-o`` naming a file, or a path under one, is refused before the
    extension is built, and the file is left as it was."""
    taken = tmp_path / "taken"
    taken.write_text("keep")

    def unreachable(*args, **kwargs):
        raise AssertionError("extend_field ran")

    monkeypatch.setattr(cli, "extend_field", unreachable)
    out = taken / where
    assert run("extend", scene_path("halfline"), "-o", out) == 2
    assert capsys.readouterr().err == (
        f"input error: cannot write under {out}: {taken} is not a "
        "directory\n")
    assert taken.read_text() == "keep"


# --- argument parsing ------------------------------------------------------------

@pytest.mark.parametrize("argv,named", [
    (["frobnicate"], "invalid choice: 'frobnicate'"),
    (["extend", "<halfline>", "-o", "<out>", "--colour", "red"],
     "unrecognized arguments: --colour"),
    (["extend", "<halfline>"], "required: -o/--output"),
    (["extend", "<halfline>", "-o", "<out>", "--seed", "abc"],
     "argument --seed: invalid int value: 'abc'"),
    (["extend", "<halfline>", "-o", "<out>", "--grid"],
     "argument --grid: expected one argument"),
    (["extend", "<halfline>", "--out", "<out>"],       # no abbreviations
     "unrecognized arguments: --out"),
    (["verify", "<halfline>"], "required: artifact"),
    (["validate", "<halfline>", "extra"], "unrecognized arguments: extra"),
    ([], "required: command"),
])
def test_usage_errors_exit_2_naming_the_argument(argv, named, tmp_path,
                                                  capsys):
    """A usage error prints the command's usage line and ``whitney:
    error: ...`` naming the argument to stderr, exits 2 and runs
    nothing."""
    out = tmp_path / "run"
    fill = {"<halfline>": str(scene_path("halfline")), "<out>": str(out)}
    assert run(*[fill.get(a, a) for a in argv]) == 2
    captured = capsys.readouterr()
    usage, error = captured.err.splitlines()
    command = argv[0] if argv and argv[0] in cli.COMMANDS else None
    assert usage.startswith(f"usage: whitney {command} [-h]" if command
                            else "usage: whitney [-h] [--version]")
    assert error.startswith("whitney: error: ") and named in error
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("argv,first", [
    (["-h"], "usage: whitney [-h] [--version] "
             "{validate,extend,verify,plotdata} ..."),
    (["--help"], "usage: whitney [-h]"),
    (["extend", "-h"], "usage: whitney extend [-h] -o OUTPUT [--seed SEED] "
                       "[--grid GRID ...] scene"),
    (["verify", "<halfline>", "--help"], "usage: whitney verify [-h] scene "
                                         "artifact"),
    (["plotdata", "-h"], "usage: whitney plotdata [-h] --select SELECT "
                         "[-o OUTPUT] report"),
    (["--version"], cli.__version__),
])
def test_help_and_version_exit_0(argv, first, capsys):
    fill = {"<halfline>": str(scene_path("halfline"))}
    assert run(*[fill.get(a, a) for a in argv]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines()[0].startswith(first)
    assert captured.err == ""


def test_options_parse_in_any_order_and_form():
    """Options go before or after the positionals, as ``--opt value`` or
    ``--opt=value``; a value may start with ``-``; ``--grid`` repeats and
    ``--seed`` is an int."""
    fn, args = cli._parse_args("extend", [
        "-o", "out", "--grid", "-1:1:0.5", "scene.json", "--seed=7",
        "--grid=0:2:1"])
    assert fn is cli.cmd_extend
    assert vars(args) == {"scene": "scene.json", "output": "out", "seed": 7,
                          "grid": ["-1:1:0.5", "0:2:1"]}
    _, args = cli._parse_args("extend", ["s.json", "--output=o"])
    assert (args.seed, args.grid) == (None, [])
    fn, args = cli._parse_args("plotdata", ["run", "--select", "extension"])
    assert fn is cli.cmd_plotdata
    assert vars(args) == {"report": "run", "select": "extension",
                          "output": None}


def test_bench_argument_forms_parse_as_before():
    """The argument forms of ``perfbench/run.py`` (their outputs are rows of
    ``tests/golden_outputs.json``) give the values argparse gave."""
    _, args = cli._parse_args("extend", ["s.json", "-o", "d", "--seed", "5",
                                         "--grid=-4:4:0.001"])
    assert vars(args) == {"scene": "s.json", "output": "d", "seed": 5,
                          "grid": ["-4:4:0.001"]}
    fn, args = cli._parse_args("verify", ["s.json", "d"])
    assert fn is cli.cmd_verify
    assert vars(args) == {"scene": "s.json", "artifact": "d"}


def test_extend_takes_a_spaced_negative_grid(tmp_path):
    out = tmp_path / "run"
    assert run("extend", scene_path("halfline"), "-o", out,
               "--grid", "-1:1:0.5") == 0
    report = json.loads((out / "report.json").read_text())
    assert report["grid"] == ["-1.0:1.0:5"]


# --- plotdata ----------------------------------------------------------------------

def test_plotdata_selectors(tmp_path, capsys):
    out = tmp_path / "run"
    run("extend", scene_path("halfline"), "-o", out, "--grid=0:1:0.25")
    run("verify", scene_path("halfline"), out)
    capsys.readouterr()
    assert run("plotdata", out, "--select", "extension") == 0
    text = capsys.readouterr().out
    assert text.splitlines()[0].startswith("x1,f")
    dest = tmp_path / "flat.csv"
    assert run("plotdata", out, "--select", "flatness:kappa=1",
               "-o", dest) == 0
    lines = dest.read_text().splitlines()
    assert lines[0] == "scale_index,normalized"
    assert len(lines) > 3


def test_plotdata_unknown_selector(tmp_path):
    out = tmp_path / "run"
    run("extend", scene_path("points"), "-o", out, "--grid=0:1:0.5")
    assert run("plotdata", out, "--select", "nonsense") == 2


def test_plotdata_unmatched_kappa_header_only(tmp_path):
    out = tmp_path / "run"
    run("extend", scene_path("halfline"), "-o", out, "--grid=0:1:0.25")
    run("verify", scene_path("halfline"), out)
    dest = tmp_path / "empty.csv"
    assert run("plotdata", out, "--select", "flatness:kappa=9",
               "-o", dest) == 0
    assert dest.read_text().strip() == "scale_index,normalized"


# --- determinism -----------------------------------------------------------------

def test_reports_byte_identical_across_runs(tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert run("extend", scene_path("points"), "-o", out,
                   "--grid=-1:2:0.05", "--seed", "0") == 0
        assert run("verify", scene_path("points"), out) == 0
        outs.append(out)
    for name in ("report.json", "verify_report.json", "samples.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_main_freezes_the_collector_once():
    """The first command call moves what the process holds into the cyclic
    collector's permanent generation; later calls leave it as it is, so
    an in-process caller's garbage is not frozen call after call."""
    script = (
        "import gc, json\n"
        "from whitney.cli import main\n"
        f"scene = {str(scene_path('points'))!r}\n"
        "counts = [gc.get_freeze_count()]\n"
        "for _ in range(2):\n"
        "    codes = main(['validate', scene])\n"
        "    junk = [[] for _ in range(1000)]\n"
        "    counts.append(gc.get_freeze_count())\n"
        "print(json.dumps([codes, counts]))\n")
    done = subprocess.run([sys.executable, "-c", script], check=True,
                          capture_output=True, text=True,
                          env=dict(os.environ,
                                   PYTHONPATH=os.pathsep.join(sys.path)))
    code, (before, first, second) = json.loads(done.stdout.splitlines()[-1])
    assert code == 0 and before == 0 and first > 0 and second == first
