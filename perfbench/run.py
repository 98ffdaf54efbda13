"""Benchmark: the time until a user holds a verified extension.

One iteration does what a user does: ``whitney extend`` in a fresh
process, then ``whitney verify`` on that run directory in another fresh
process.  Load is a closed loop with one client: one process at a time,
BLAS pinned to one thread.  Iterations repeat until ``--seconds`` have
passed, at least twice; every time is a median over the run's samples.
The run's seed, modulo 64, is the ``extend --seed``; ``verify`` reads it
back from ``report.json``.

    python3 perfbench/run.py --workload square --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke      # a few seconds; checks metric names
    python3 perfbench/run.py --selfcheck --workload square
                                  # traced counts at seed 0 vs baseline.json

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` runs one untraced and one traced iteration and reports the
per-layer metrics: spans recorded by ``tracer.py`` around the public
functions of each ``whitney`` module.

Outputs are checked outside the timed region (each process is timed
from spawn to exit; the checks read its files afterwards).  A non-zero
exit, a verdict other than PASS, a missing plan check, fewer than 100
agreement samples on a positive-dimension stratum, an assembly trace
other than the recorded one, non-identical reruns, or a planted defect
scene that is accepted all count as failed operations.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCENES = ROOT / "scenes"
CHILD = HERE / "child.py"
BASELINE = HERE / "baseline.json"

RUN_LIMIT_S = 170.0          # a run must end within 180 s
MIN_AGREEMENT_SAMPLES = 100
# whitney's seed is the benchmark seed modulo SEEDS: baseline.json records
# the assembly trace of every workload at each of them.
SEEDS = 64
REFUSED = (1, 2, 3)          # the CLI's own exit codes for FAIL/input/engine
# Two iterations even on square (20-25 s each) give every run two samples
# of each command, and two extends at one seed to compare byte for byte.
MIN_ITERATIONS = 2
ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
       "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}


@dataclass(frozen=True)
class Workload:
    scene: str
    samples: int                 # grid points ``extend`` must write
    extend_args: tuple = ()


# Why each workload is here: BENCHMARK.json and baseline.json.
WORKLOADS = {
    "square": Workload("square.json", 51 * 51),
    "parabola": Workload("parabola.json", 51 * 51),
    "halfline_dense": Workload("halfline.json", 8001,
                               ("--grid=-4:4:0.001",)),
}
SMOKE = "points"
SMOKE_WORKLOAD = Workload("points.json", 51)


# ---------------------------------------------------------------------------
# processes


@dataclass
class Proc:
    rc: int
    wall_s: float                # spawn to exit
    done_s: float                # spawn to the command's return
    entered_s: float             # spawn to the harness's first line
    setup_s: float | None
    maxrss_mb: float
    agreement: list | None
    trace: dict | None


def run_child(work: Path, args: list, trace: bool, deadline: float) -> Proc:
    """Run one whitney command in a fresh process and collect its result."""
    fd, out = tempfile.mkstemp(dir=work, suffix=".json")
    os.close(fd)
    env = dict(os.environ, **ENV)
    env.pop("PYTHONPATH", None)
    with open(work / "child.log", "ab") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), out, repr(spawned),
             "1" if trace else "0", "--", *args],
            cwd=ROOT, env=env, stdout=log, stderr=log)
        try:
            proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return Proc(-9, math.inf, math.inf, 0.0, None, 0.0, None, None)
        wall = time.monotonic() - spawned
    text = Path(out).read_text()
    os.unlink(out)
    if proc.returncode != 0 or not text:
        return Proc(-1, wall, wall, 0.0, None, 0.0, None, None)
    res = json.loads(text)
    return Proc(res["rc"], wall, res["done_s"], res["entered_s"],
                res["setup_s"],
                res["maxrss_mb"], res["agreement"], res.get("trace"))


# ---------------------------------------------------------------------------
# output checks (never inside a timed region)


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _assembly_ok(assembly: list, reference: dict, seed: int) -> bool:
    """The recorded trace at this seed: each term's kind, stratum, hash,
    cutoff order and support ratio (a seeded sampling certificate)."""
    etas = reference["etas"][reference["eta_of_seed"][seed]]
    if len(assembly) != len(reference["terms"]):
        return False
    for got, want, eta in zip(assembly, reference["terms"], etas):
        if any(got.get(key) != want[key] for key in ("kind", "stratum", "hash")):
            return False
        if got.get("cutoff", {}).get("q") != want["q"] or got.get("eta") != eta:
            return False
    return True


def check_extend(p: Proc, rundir: Path, wl: Workload, seed: int,
                 reference: dict) -> list[str]:
    if p.rc != 0:
        return [f"extend exited {p.rc}"]
    problems = []
    try:
        report = json.loads((rundir / "report.json").read_text())
        rows = (rundir / "samples.csv").read_text().splitlines()
    except (OSError, ValueError) as exc:
        return [f"extend artifacts unreadable: {exc}"]
    if report.get("seed") != seed:
        problems.append(f"report seed {report.get('seed')} != {seed}")
    if report.get("samples_sha") != _sha(rundir / "samples.csv"):
        problems.append("samples.csv does not match its recorded hash")
    if len(rows) - 1 != wl.samples or report.get("sample_count") != wl.samples:
        problems.append(f"{len(rows) - 1} grid samples, want {wl.samples}")
    width = len(rows[0].split(","))
    for row in rows[1:]:
        vals = row.split(",")
        if len(vals) != width or not all(math.isfinite(float(v))
                                         for v in vals):
            problems.append(f"bad sample row {row!r}")
            break
    if not _assembly_ok(report.get("assembly", []), reference, seed):
        problems.append("assembly trace differs from the recorded one")
    return problems


def expected_checks(scene: dict) -> list[str]:
    plan = scene["plan"]
    return [c for c in plan["checks"]
            if not (c == "whitney" and plan.get("whitney") is None)
            and not (c == "flatness" and not plan.get("flatness"))]


def check_verify(p: Proc, rundir: Path, scene: dict, seed: int) -> dict:
    """Verdict per plan check; a check whose output is wrong is False."""
    wanted = expected_checks(scene)
    if p.rc != 0:
        return {c: False for c in wanted}
    try:
        rep = json.loads((rundir / "verify_report.json").read_text())
    except (OSError, ValueError):
        return {c: False for c in wanted}
    verdicts = rep.get("verdicts", {})
    out = {c: verdicts.get(c) == "PASS" and rep.get("seed") == seed
           for c in wanted}
    if "agreement" in out:
        positive = {s["id"] for s in scene["strata"]
                    if s["cell"]["type"] != "point"}
        entries = p.agreement or []
        out["agreement"] = out["agreement"] and bool(entries) and all(
            n >= MIN_AGREEMENT_SAMPLES for sid, _, n in entries
            if sid in positive)
    return out


# ---------------------------------------------------------------------------
# one run


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def op(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)


class Bench:
    def __init__(self, name: str, wl: Workload, seed: int, work: Path,
                 deadline: float):
        self.name, self.wl, self.seed = name, wl, seed % SEEDS
        self.work, self.deadline = work, deadline
        self.scene_path = SCENES / wl.scene
        self.scene = json.loads(self.scene_path.read_text())
        baseline = json.loads(BASELINE.read_text())
        self.reference = baseline["assembly"][name]
        self.tally = Tally()
        self.runs = 0

    def whitney(self, args: list, trace: bool = False) -> Proc:
        return run_child(self.work, args, trace, self.deadline)

    def extend(self, trace: bool = False) -> tuple[Proc, Path]:
        self.runs += 1
        rundir = self.work / f"run{self.runs}"
        p = self.whitney(["extend", str(self.scene_path), "-o", str(rundir),
                          "--seed", str(self.seed), *self.wl.extend_args],
                         trace)
        problems = check_extend(p, rundir, self.wl, self.seed, self.reference)
        self.tally.op(not problems, "; ".join(problems))
        return p, rundir

    def verify(self, rundir: Path, trace: bool = False) -> Proc:
        p = self.whitney(["verify", str(self.scene_path), str(rundir)], trace)
        for check, ok in check_verify(p, rundir, self.scene,
                                      self.seed).items():
            self.tally.op(ok, f"plan check {check} failed")
        return p

    def defects_rejected(self):
        """Both planted defect scenes must still be refused."""
        missing = SCENES / "defect_missing_boundary.json"
        p = self.whitney(["extend", str(missing), "-o",
                          str(self.work / "defect_mb")])
        self.tally.op(p.rc in REFUSED, "defect_missing_boundary accepted")
        bad = SCENES / "defect_incompatible_jet.json"
        out = self.work / "defect_ij"
        p = self.whitney(["extend", str(bad), "-o", str(out),
                          "--grid=-1:1:0.5"])
        if p.rc == 0:
            p = self.whitney(["verify", str(bad), str(out)])
        self.tally.op(p.rc in REFUSED, "defect_incompatible_jet accepted")

    def identical(self, a: Path, b: Path):
        """Two extends at one seed write byte-identical artifacts."""
        same = all((a / f).exists() and (b / f).exists()
                   and (a / f).read_bytes() == (b / f).read_bytes()
                   for f in ("samples.csv", "report.json"))
        self.tally.op(same, "extend is not deterministic at one seed")


def end_to_end(b: Bench, seconds: float) -> dict:
    b.defects_rejected()
    extend_s, verify_s, verified_s, rss = [], [], [], []
    setup_e, setup_v = [], []          # the two commands set up differently
    first = None
    start = time.monotonic()
    while True:
        ep, rundir = b.extend()
        vp = b.verify(rundir)
        extend_s.append(ep.wall_s)
        verify_s.append(vp.wall_s)
        verified_s.append(ep.wall_s + vp.wall_s)
        setup_e.append(ep.setup_s)
        setup_v.append(vp.setup_s)
        rss += [ep.maxrss_mb, vp.maxrss_mb]
        if first is None:
            first = rundir
        else:
            b.identical(first, rundir)
            shutil.rmtree(rundir)
        elapsed = time.monotonic() - start
        done = len(verified_s)
        if ep.rc != 0 or (done >= MIN_ITERATIONS and elapsed >= seconds) \
                or time.monotonic() + 1.5 * elapsed / done > b.deadline:
            break
    if first is not None and len(verified_s) < 2:
        b.tally.op(False, "no second extend to check determinism against")
    samples = {"verified_s": verified_s, "extend_s": extend_s,
               "verify_s": verify_s, "setup_extend_s": setup_e,
               "setup_verify_s": setup_v}
    med = {}
    for name, vals in samples.items():
        vals = [v for v in vals if v is not None and math.isfinite(v)]
        med[name] = statistics.median(vals) if vals else None
        if vals:
            print(f"{name:<15} median {med[name]:.4f} s  min {min(vals):.4f}"
                  f"  max {max(vals):.4f}  n={len(vals)}")
    setup = (None if None in (med["setup_extend_s"], med["setup_verify_s"])
             else (med["setup_extend_s"] + med["setup_verify_s"]) / 2)
    return {"verified_s": (med["verified_s"], "s"),
            "extend_s": (med["extend_s"], "s"),
            "verify_s": (med["verify_s"], "s"),
            "setup_s": (setup, "s"),
            "peak_rss_mb": (max(rss), "MB"),
            "passed_ratio": (
                1.0 - b.tally.failed / max(1, b.tally.attempted), "ratio")}


# ---------------------------------------------------------------------------
# traced run


def _tot(summaries, name: str, key: str):
    return sum(s["names"].get(name, {}).get(key, 0) for s in summaries)


def _count(summaries, key: str):
    return sum(s["counts"].get(key, 0) for s in summaries)


def _self(summaries, *names):
    return sum(_tot(summaries, n, "self_s") for n in names)


def _pct(vals, q):
    if not vals:
        return 0.0
    vals = sorted(vals)
    return vals[min(len(vals) - 1, int(q * len(vals)))]


def traced(b: Bench) -> dict:
    b.defects_rejected()
    ep0, dir0 = b.extend()
    vp0 = b.verify(dir0)
    ep, rundir = b.extend(trace=True)
    vp = b.verify(rundir, trace=True)
    b.identical(dir0, rundir)
    procs = [ep, vp]
    if any(p.rc != 0 or p.trace is None for p in procs):
        return {}
    s = [p.trace for p in procs]
    v = [vp.trace]
    report = json.loads((rundir / "report.json").read_text())
    vrep = json.loads((rundir / "verify_report.json").read_text())
    cutoff, ext, fd = "cutoff.CutoffFn.__call__", \
        "extension.ExtensionFn.__call__", "verify.finite_difference"
    points = _count(s, "cutoff.points")
    ext_calls = _tot(s, ext, "calls") - _tot(s, ext, "nested")
    grid_evals = _tot(s[:1], ext, "calls") - _tot(s[:1], ext, "nested")
    fd_calls = _tot(s, fd, "calls")
    durations = [d for t in s for d in t["ext_durations"]]
    coverage = (sum(t["self_total_s"] for t in s)
                / sum(p.done_s - p.entered_s for p in procs))
    overhead = ((ep.done_s + vp.done_s) / (ep0.done_s + vp0.done_s))
    b.tally.op(0.9 <= coverage <= 1.0 + 1e-9,
               f"span self times cover {coverage:.3f} of wall time")
    m = {
        "cutoff.eval.calls": (_tot(s, cutoff, "calls"), "count"),
        "cutoff.eval.calls_in_verify": (_tot(v, cutoff, "calls"), "count"),
        "cutoff.eval.points": (points, "count"),
        "cutoff.eval.self_s": (_self(s, cutoff, "cutoff.CutoffFn.ratio",
                                     "cutoff.TransitionProfile.__call__",
                                     "cutoff.SmoothDistance.__call__"), "s"),
        "cutoff.eval.us_per_point": (
            1e6 * _tot(s, cutoff, "busy_s") / max(1, points), "us"),
        "cutoff.eval.zero_ratio": (
            _count(s, "cutoff.zero_points") / max(1, points), "ratio"),
        "cutoff.build.calls": (_tot(s, "cutoff.build_cutoff", "calls"),
                               "count"),
        "cutoff.build.busy_s": (_tot(s, "cutoff.build_cutoff", "busy_s"), "s"),
        "cutoff.membership.points": (_count(s, "membership.points"), "count"),
        "cutoff.membership.busy_s": (
            _tot(s, "cutoff.cone_membership_batch", "busy_s"), "s"),
        "extension.build.busy_s": (
            _tot(s, "extension.extend_field", "busy_s"), "s"),
        "extension.eval.calls": (ext_calls, "count"),
        "extension.eval.self_s": (_self(s, ext), "s"),
        "extension.eval.p50_us": (1e6 * _pct(durations, 0.5), "us"),
        "extension.eval.p99_us": (1e6 * _pct(durations, 0.99), "us"),
        "extension.cutoffs_per_eval": (
            _count(s[:1], "cutoffs_in_ext") / max(1, grid_evals), "ratio"),
        "extension.term.calls": (
            _tot(s, "extension.CellTerm.__call__", "calls")
            + _tot(s, "extension.PointGlueTerm.__call__", "calls"), "count"),
        "extension.term.self_s": (
            _self(s, "extension.CellTerm.__call__",
                  "extension.CellTerm.local_value",
                  "extension.PointGlueTerm.__call__"), "s"),
        "extension.subcoeff.calls": (_tot(s, "extension.subcoeff", "calls"),
                                     "count"),
        "extension.subcoeff.busy_s": (
            _tot(s, "extension.subcoeff", "busy_s"), "s"),
        "extension.eta_halvings": (sum(
            round(math.log2(0.5 / t["eta"])) for t in report["assembly"]
            if t["kind"] == "cell"), "count"),
        "extension.leaks": (report["leaks"], "count"),
        "extension.flatness.busy_s": (
            _tot(s, "extension.flatness_rate_probe", "busy_s"), "s"),
        "verify.fd.calls": (fd_calls, "count"),
        "verify.fd.calls_in_verify": (_tot(v, fd, "calls"), "count"),
        "verify.fd.nested_calls": (_tot(s, fd, "nested"), "count"),
        "verify.fd.busy_s": (_tot(s, fd, "busy_s"), "s"),
        "verify.fd.evals_per_call": (
            _count(s, "fd.evals") / max(1, fd_calls), "ratio"),
        "verify.agreement.busy_s": (
            _tot(s, "verify.check_extension", "busy_s"), "s"),
        "verify.agreement.samples": (
            sum(n for _, _, n in vp.agreement or []), "count"),
        "verify.agreement.skipped": (_count(s, "agreement.skipped"), "count"),
        "verify.agreement.worst_rel_dev": (max(
            (e["max_rel_dev"] for e in vrep.get("agreement", [])),
            default=0.0), "ratio"),
        "verify.whitney.busy_s": (_tot(s, "cli._run_whitney_check", "busy_s"),
                                  "s"),
        "geometry.set_distance.calls": (
            _tot(s, "geometry.set_distance", "calls"), "count"),
        "geometry.set_distance.self_s": (_self(s, "geometry.set_distance"),
                                         "s"),
        "geometry.contains.calls": (_tot(s, "geometry.contains", "calls"),
                                    "count"),
        "geometry.net_points": (max(t["counts"]["net_points"] for t in s),
                                "count"),
        "geometry.net_points_max": (
            max(t["counts"]["net_points_max"] for t in s), "count"),
        "expr.evaluate.calls": (_tot(s, "expr.evaluate", "calls"), "count"),
        "expr.evaluate.self_s": (_self(s, "expr.evaluate"), "s"),
        "jets.jet_at.calls": (_tot(s, "jets.FieldSpec.jet_at", "calls"),
                              "count"),
        "jets.jet_at.self_s": (_self(s, "jets.FieldSpec.jet_at"), "s"),
        "jets.jet_compose.calls": (_tot(s, "jets.jet_compose", "calls"),
                                   "count"),
        "jets.taylor_jet.calls": (_tot(s, "jets.taylor_jet", "calls"),
                                  "count"),
        "sceneio.load_scene.busy_s": (
            _tot(s, "sceneio.load_scene", "busy_s"), "s"),
        "sceneio.dump_deterministic.busy_s": (
            _tot(s, "sceneio.dump_deterministic", "busy_s"), "s"),
        "trace.overhead_ratio": (overhead, "ratio"),
        "trace.self_coverage": (coverage, "ratio"),
    }
    return m


# ---------------------------------------------------------------------------
# entry points


def run_once(name: str, wl: Workload, seed: int, seconds: float,
             trace: bool) -> dict:
    """One benchmark run; returns the result object (not yet printed)."""
    started = time.monotonic()
    workroot = ROOT / ".perfbench_work"
    workroot.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=workroot, prefix=f"{name}-"))
    try:
        b = Bench(name, wl, seed, work, started + RUN_LIMIT_S)
        metrics = traced(b) if trace else end_to_end(b, seconds)
        log = work / "child.log"
        if b.tally.failed and log.exists():
            print(log.read_text(errors="replace")[-4000:])
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            workroot.rmdir()
        except OSError:
            pass
    for note in b.tally.notes:
        print(f"FAILED  {note}")
    complete = bool(metrics) and all(v is not None and math.isfinite(v)
                                     for v, _ in metrics.values())
    return {"correct": b.tally.failed == 0 and complete,
            "attempted": b.tally.attempted, "failed": b.tally.failed,
            "metrics": {k: {"value": v if v is not None and math.isfinite(v)
                            else None, "unit": u}
                        for k, (v, u) in metrics.items()}}


def smoke() -> int:
    """A few seconds on the two-point scene: both modes run, and every
    metric named in BENCHMARK.json comes out with its unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        res = run_once(SMOKE, SMOKE_WORKLOAD, 0, 0.0, trace)
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        if got != want or not res["correct"]:
            ok = False
            print(f"smoke {key}: correct={res['correct']} "
                  f"missing={sorted(set(want) - set(got))} "
                  f"extra={sorted(set(got) - set(want))} "
                  f"units={[k for k in want if got.get(k, want[k]) != want[k]]}")
        print(json.dumps(res))
    print("smoke OK" if ok else "smoke FAILED")
    return 0 if ok else 1


def selfcheck(name: str, seed: int) -> int:
    """Traced counts at the seed commit repeat exactly (seed 0)."""
    res = run_once(name, WORKLOADS[name], seed, 0.0, True)
    recorded = json.loads(BASELINE.read_text())["workloads"].get(name, {})
    want = recorded.get("per_layer_counts_seed0", {})
    got = {k: v["value"] for k, v in res["metrics"].items()
           if v["unit"] == "count"}
    diff = {k: (want.get(k), got.get(k)) for k in set(want) | set(got)
            if want.get(k) != got.get(k)}
    print(json.dumps(got, sort_keys=True))
    for k, (w, g) in sorted(diff.items()):
        print(f"MISMATCH  {k}: recorded {w}, traced {g}")
    ok = res["correct"] and not diff
    print(f"selfcheck {name}: {'OK' if ok else 'FAILED'}")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--selfcheck", action="store_true")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "whitney" / "cli.py").is_file() \
            or not SCENES.is_dir():
        print(f"no whitney sources under {ROOT}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required")
    if args.selfcheck:
        return selfcheck(args.workload, args.seed)
    res = run_once(args.workload, WORKLOADS[args.workload], args.seed,
                   args.seconds, bool(args.trace))
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
