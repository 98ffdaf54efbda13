"""Command-line surface: scene validation, extension runs, verification
and plot-data emission.

Exit codes: 0 all checks pass, 1 a verification check failed, 2 input or
schema error, 3 engine failure (support leak, convergence failure, ...).
Reports are byte-reproducible given (scene, seed, flags); seeds are
mandatory in every report, defaulting to 0.
"""
from __future__ import annotations

import gc
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import __version__, geometry, verify
from .errors import (EngineError, InputError, StratificationInvalid,
                     WhitneyError)
from .extension import extend_field, flatness_rate_probe
from .geometry import INSIDE, OUTSIDE, PointCell
from .jets import PointJet, multi_indices
from .rng import sha256
from .sceneio import dump_deterministic, load_scene, parse_seed, read_json
from .verify import rate_fit, whitney_residual

EXIT_OK, EXIT_FAIL, EXIT_INPUT, EXIT_ENGINE = 0, 1, 2, 3
MAX_GRID_POINTS = 10 ** 7       # checked before a grid is allocated


def _file_sha(path: Path) -> str:
    """SHA-256 of a file, read in 64 KiB pieces rather than whole."""
    digest = sha256()
    with path.open("rb") as fh:
        for piece in iter(lambda: fh.read(1 << 16), b""):
            digest.update(piece)
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# validate


def cmd_validate(args) -> int:
    scene = load_scene(args.scene).scene
    problems = scene.validate()
    if problems:
        for p in problems:
            print(f"INVALID  {p}")
        return EXIT_INPUT
    print(f"VALID    {args.scene}: {len(scene.strata)} strata, "
          f"n={scene.n} p={scene.p} q={scene.q}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# extend


def _parse_grid(specs, n: int, box: float):
    if not specs:
        specs = [f"{-box}:{box}:{box / 25}"]
    if len(specs) == 1 and n > 1:
        specs = specs * n
    if len(specs) != n:
        raise InputError(f"need one --grid per axis ({n}), got {len(specs)}")
    axes = []
    for spec in specs:
        try:
            a, b, step = (float(v) for v in spec.split(":"))
        except ValueError:
            raise InputError(f"bad grid spec {spec!r}; use a:b:step")
        if not (np.isfinite([a, b, step]).all() and a <= b and step > 0.0):
            raise InputError(f"bad grid spec {spec!r}: a <= b must be "
                             "finite and the step positive and finite")
        axes.append((a, b, float(np.rint((b - a) / step)) + 1.0))  # or inf
    total = math.prod(count for _, _, count in axes)
    if total > MAX_GRID_POINTS:
        raise InputError(f"grid of {total:.0f} points is over the cap of "
                         f"{MAX_GRID_POINTS} points")
    return [np.linspace(a, b, int(count)) for a, b, count in axes]


def cmd_extend(args) -> int:
    sf = load_scene(args.scene)
    scene = sf.scene
    seed = (sf.plan.seed if args.seed is None
            else parse_seed(args.seed, "--seed"))
    axes = _parse_grid(args.grid, scene.n, scene.box)
    outdir = Path(args.output)
    nearest = next(p for p in (outdir, *outdir.parents) if p.exists())
    if not nearest.is_dir():
        raise InputError(f"cannot write under {outdir}: {nearest} is not a "
                         "directory")
    try:
        f = extend_field(scene, seed=seed)     # validates the scene first
    except StratificationInvalid as exc:
        if not exc.problems:
            raise
        for p in exc.problems:
            print(f"INVALID  {p}")
        return EXIT_INPUT
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)

    outdir.mkdir(parents=True, exist_ok=True)
    z_ids = [s.id for s in scene.strata if s.dim < scene.dim]
    lo, up = geometry.distance_brackets(scene.descriptor_for(z_ids), pts,
                                        scene.box)

    vals, leaks = f.evaluate(pts)
    samples_path = outdir / "samples.csv"
    with samples_path.open("w") as fh:
        fh.write(",".join([f"x{i + 1}" for i in range(scene.n)]
                          + ["f", "d_skel"]) + "\n")
        # row by row: one whole .tolist() would add about 1 MB at 8,001 rows
        for row in np.column_stack([pts, vals, 0.5 * (lo + up)]):
            fh.write(",".join(map(repr, row.tolist())) + "\n")

    samples_sha = _file_sha(samples_path)
    report = {
        "schema": "jetfield-run/1",
        "version": __version__,
        "scene": Path(args.scene).name,
        "scene_sha": _file_sha(Path(args.scene)),
        "seed": seed,
        "grid": [f"{a[0]}:{a[-1]}:{len(a)}" for a in axes],
        "assembly": f.assembly_trace(),
        "leaks": leaks,
        "samples_file": "samples.csv",
        "samples_sha": samples_sha,
        "sample_count": len(pts),
    }
    (outdir / "report.json").write_text(dump_deterministic(report) + "\n")
    _write_manifest(outdir, {"samples.csv": samples_sha})
    print(f"extended {args.scene}: {len(pts)} grid samples -> {outdir}")
    return EXIT_OK


def _write_manifest(outdir: Path, hashed: dict):
    """Write ``manifest.json``: the SHA-256 of every other file in
    ``outdir``, read from ``hashed`` (file name -> digest) for the files
    this command has just written and hashed."""
    entries = {}
    for p in sorted(outdir.iterdir()):
        if p.name == "manifest.json" or p.is_dir():
            continue
        entries[p.name] = hashed.get(p.name) or _file_sha(p)
    (outdir / "manifest.json").write_text(
        dump_deterministic({"files": entries}) + "\n")


# ---------------------------------------------------------------------------
# verify


def _scene_jets_at(scene, points):
    """Point -> ambient-frame jet of the scene's field at each of
    ``points``, looked up by stratum membership: the first stratum in
    scene order that holds a point gives its jet.  Looking up a point on
    no stratum, or one whose jet failed, raises that error."""
    keys = list(dict.fromkeys(tuple(x) for x in points))
    X = np.asarray(keys, dtype=float).reshape(len(keys), scene.n)
    jets = {}
    pending = np.arange(len(keys))
    for s in scene.strata:
        if isinstance(s.cell, PointCell):
            hit = geometry.membership(s.cell, X[pending], 1e-9) == INSIDE
        else:
            hit = geometry.membership(s.cell, X[pending], 1e-7) != OUTSIDE
        for k in pending[hit].tolist():
            try:
                jets[keys[k]] = _stratum_jet(s.cell, scene.fields[s.id],
                                             keys[k])
            except WhitneyError as exc:
                jets[keys[k]] = exc
        pending = pending[~hit]
    for k in pending.tolist():
        jets[keys[k]] = EngineError(f"point {keys[k]} not on any stratum")

    def jets_at(x):
        jet = jets[tuple(x)]
        if isinstance(jet, WhitneyError):
            raise jet
        return jet

    return jets_at


def _stratum_jet(cell, fld, x):
    """The ambient-frame jet of the field ``fld`` at the point ``x`` of
    ``cell``: the internal multi-indices of its jet map through
    ``cell.to_ambient``."""
    if isinstance(cell, PointCell):
        return fld.jet_at((0,), cell.point)
    jet = fld.jet_at(cell.to_internal(x)[:cell.intrinsic_dim], x)
    return PointJet(jet.n, jet.p, jet.base,
                    {cell.to_ambient(a): c for a, c in jet.coeffs.items()})


def _whitney_probes(scene, cfg):
    """Pair families per probe: points approach the target along a line
    (full-dimensional strata) or along a stratum parameterization (curved
    strata), plus pairs anchored at the target point itself -- the family
    that exposes incompatible jets on lower strata."""
    scales = [2.0 ** (-j) for j in range(cfg["j0"], cfg["j1"])]
    probes = cfg.get("probes")
    if probes is None:
        probes = [{"target": t, "direction": d}
                  for t, d in zip(cfg["targets"], cfg["directions"])]
    s = np.asarray(scales)[:, None]
    for probe in probes:
        if "stratum" in probe:
            u0 = np.asarray(probe["param_target"], dtype=float)
            du = np.asarray(probe["param_direction"], dtype=float)
            X = scene.stratum(probe["stratum"]).cell.embed_rows(
                np.vstack([u0 + du * s, u0 + du * (s / 2)]))
            anchor = probe["anchor"]
        else:
            t = np.asarray(probe["target"], dtype=float)
            d = np.asarray(probe["direction"], dtype=float)
            X, anchor = np.vstack([t + d * s, t + d * (s / 2)]), t
        X = [tuple(x) for x in X.tolist()]
        far, near = X[:len(scales)], X[len(scales):]
        target = tuple(float(v) for v in anchor)
        yield target, {"radial": list(zip(far, near)),
                       "anchored": [(x, target) for x in far]}


def _run_whitney_check(scene, plan) -> list[dict]:
    probes = list(_whitney_probes(scene, plan.whitney))
    jets_at = _scene_jets_at(scene, [x for _, families in probes
                                     for pairs in families.values()
                                     for pair in pairs for x in pair])
    results = []
    for target, families in probes:
        for beta in multi_indices(scene.n, scene.p):
            exponent = scene.p - sum(beta)
            for family, pairs in families.items():
                entry = {"target": list(target), "beta": list(beta),
                         "family": family}
                try:
                    samples = whitney_residual(jets_at, target, beta, pairs)
                    fit = rate_fit([(r.separation, r.residual)
                                    for r in samples], exponent)
                    entry.update(slope=fit.slope, verdict=fit.verdict)
                except WhitneyError as exc:
                    entry.update(verdict="FAIL", error=str(exc))
                results.append(entry)
    return results


def _run_flatness(scene, f, plan) -> list[dict]:
    out = []
    for item in plan.flatness:
        sid = item["stratum"]
        stratum = scene.stratum(sid)
        points = (np.asarray(item["target"], dtype=float)
                  + np.asarray(item["direction"], dtype=float)
                  * 2.0 ** -np.arange(item["j0"], item["j1"] + 1)[:, None])
        z_ids = [s.id for s in scene.strata if s.id != sid]
        z_desc = scene.descriptor_for(z_ids)
        report = flatness_rate_probe(
            f, z_desc, stratum.cell, item["cone"], scene.p, points,
            theta=item["theta"], box=scene.box)
        for kappa, vals in sorted(report.per_kappa.items()):
            out.append({"stratum": sid, "kappa": list(kappa),
                        "normalized": [float(v) for v in vals],
                        "flat": bool(report.flat[kappa])})
    return out


def cmd_verify(args) -> int:
    sf = load_scene(args.scene)
    scene, plan = sf.scene, sf.plan
    rundir = Path(args.artifact)
    report_path = rundir / "report.json"
    if not report_path.exists():
        raise InputError(f"no report.json under {rundir}")
    run_report = read_json(report_path)
    if (not isinstance(run_report, dict)
            or run_report.get("schema") != "jetfield-run/1"):
        raise InputError("artifact schema mismatch")
    if run_report.get("scene_sha") != _file_sha(Path(args.scene)):
        raise InputError("artifact was produced from a different scene file")

    seed = parse_seed(run_report.get("seed"), "report.json seed")
    f = extend_field(scene, seed=seed)
    if f.assembly_trace() != run_report.get("assembly"):
        raise InputError("assembly trace mismatch; artifact out of date")

    wanted = set(plan.checks)
    verdicts = {}
    details: dict = {"schema": "jetfield-verify/1", "version": __version__,
                     "seed": seed, "scene": Path(args.scene).name}

    # extend_field above validated the scene, the chain-rule check included,
    # and raised on any problem
    if "structure" in wanted:
        verdicts["structure"] = True
        details["structure"] = []
    if "consistency" in wanted:
        verdicts["consistency"] = True
    if "agreement" in wanted:
        rep = verify.check_extension(f, scene, tol=plan.tolerance,
                                     samples_per_stratum=plan.samples_per_stratum,
                                     seed=seed)
        verdicts["agreement"] = rep.passed
        details["agreement"] = [
            {"stratum": e.stratum_id, "alpha": list(e.alpha),
             "max_rel_dev": e.max_rel_dev, "pass": e.passed}
            for e in rep.entries]
    if "whitney" in wanted:
        res = _run_whitney_check(scene, plan)
        verdicts["whitney"] = all(r["verdict"] == "PASS" for r in res)
        details["whitney"] = res
    if "flatness" in wanted:
        res = _run_flatness(scene, f, plan)
        verdicts["flatness"] = all(r["flat"] for r in res)
        details["flatness"] = res

    details["verdicts"] = {k: ("PASS" if v else "FAIL")
                           for k, v in sorted(verdicts.items())}
    (rundir / "verify_report.json").write_text(
        dump_deterministic(details) + "\n")
    _write_manifest(rundir, {})
    for name, verdict in sorted(verdicts.items()):
        print(f"{'PASS' if verdict else 'FAIL'}  {name}")
    return EXIT_OK if all(verdicts.values()) else EXIT_FAIL


# ---------------------------------------------------------------------------
# plotdata


def cmd_plotdata(args) -> int:
    rundir = Path(args.report)
    selector = args.select
    out = Path(args.output) if args.output else None
    if selector == "extension":
        src = rundir / "samples.csv"
        if not src.exists():
            raise InputError(f"no samples.csv under {rundir}")
        text = src.read_text()
    elif selector.startswith("flatness:kappa="):
        key = selector.split("=", 1)[1]
        vpath = rundir / "verify_report.json"
        if not vpath.exists():
            raise InputError("flatness selector needs a verify report")
        data = read_json(vpath)
        rows = ["scale_index,normalized"]
        for item in data.get("flatness", []):
            if ",".join(str(k) for k in item["kappa"]) == key:
                for j, v in enumerate(item["normalized"]):
                    rows.append(f"{j},{v!r}")
        text = "\n".join(rows) + "\n"
    else:
        raise InputError(f"unknown selector {selector!r}")
    if out:
        out.write_text(text)
        print(f"wrote {out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


# Each command's handler, positionals and options; an option is (flags,
# dest, type, required), and type ``list`` collects its repeats.
COMMANDS = {
    "validate": (cmd_validate, ("scene",), ()),
    "extend": (cmd_extend, ("scene",),
               ((("-o", "--output"), "output", str, True),
                (("--seed",), "seed", int, False),
                (("--grid",), "grid", list, False))),
    "verify": (cmd_verify, ("scene", "artifact"), ()),
    "plotdata": (cmd_plotdata, ("report",),
                 ((("--select",), "select", str, True),
                  (("-o", "--output"), "output", str, False))),
}


def _usage(name: str) -> str:
    """The usage line of command ``name``, or of the program."""
    if name not in COMMANDS:
        return f"usage: whitney [-h] [--version] {{{','.join(COMMANDS)}}} ..."
    _, positionals, options = COMMANDS[name]
    return " ".join([f"usage: whitney {name} [-h]"] + [
        f"{flags[0]} {dest.upper()}" if required
        else f"[{flags[0]} {dest.upper()}{' ...' * (kind is list)}]"
        for flags, dest, kind, required in options] + list(positionals))


def _parse_args(name: str, argv: list):
    """``(handler, args)`` of command ``name`` and its arguments ``argv``
    by :data:`COMMANDS`; options go before or after the positionals, as
    ``--opt value`` or ``--opt=value``.  A usage error raises
    :class:`InputError`."""
    if name not in COMMANDS:
        raise InputError(f"argument command: invalid choice: {name!r}"
                         if name else "the following arguments are "
                                      "required: command")
    fn, positionals, options = COMMANDS[name]
    by_flag = {flag: opt for opt in options for flag in opt[0]}
    given, got, rest = [], {opt: [] for opt in options}, iter(argv)
    for arg in rest:
        flag, eq, value = arg.partition("=")
        if not arg.startswith("-") and len(given) < len(positionals):
            given.append(arg)
            continue
        if flag not in by_flag:             # or a positional too many
            raise InputError(f"unrecognized arguments: {arg}")
        got[by_flag[flag]].append(value if eq else next(rest, None))
        if got[by_flag[flag]][-1] is None:
            raise InputError(f"argument {flag}: expected one argument")
    args = dict(zip(positionals, given))
    missing = list(positionals[len(given):])
    for (flags, dest, kind, required), values in got.items():
        missing += ["/".join(flags)] * (required and not values)
        try:
            args[dest] = (values if kind is list
                          else kind(values[-1]) if values else None)
        except ValueError:
            raise InputError(f"argument {'/'.join(flags)}: invalid int "
                             f"value: {values[-1]!r}")
    if missing:
        raise InputError("the following arguments are required: "
                         + ", ".join(missing))
    return fn, SimpleNamespace(**args)


def main(argv=None) -> int:
    # What the process holds by now (modules, classes, functions) lives
    # until it exits, so the cyclic collector need not walk it again: not
    # in the command's collections, nor in the full collections at
    # interpreter shutdown, which take about 10 ms of a command's wall time
    if not gc.get_freeze_count():
        gc.freeze()
    argv = sys.argv[1:] if argv is None else list(argv)
    name = argv[0] if argv else ""
    if name == "--version" or "-h" in argv or "--help" in argv:
        print(__version__ if name == "--version" else _usage(name))
        return EXIT_OK
    try:
        fn, args = _parse_args(name, argv[1:])
    except InputError as exc:
        print(f"{_usage(name)}\nwhitney: error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        return fn(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except EngineError as exc:
        print(f"engine error: {exc}", file=sys.stderr)
        return EXIT_ENGINE


if __name__ == "__main__":
    sys.exit(main())
