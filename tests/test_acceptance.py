"""Acceptance suite: every exit criterion at its stated tolerance, one
test per criterion, printing one PASS line each (run with -s to see them
live)."""
import math
import time
from fractions import Fraction

import numpy as np

from whitney import expr
from whitney import geometry as geo
from whitney.cutoff import build_cutoff, verify_cutoff
from whitney.cli import main as cli_main
from whitney.extension import extend_field, flatness_rate_probe
from whitney.jets import (jet_compose, jet_from_coeffs, jet_mul,
                          jet_to_monomial, taylor_jet)
from whitney.verify import (check_extension, radial_pairs, rate_fit,
                            straddling_pairs, whitney_residual)

# naive_poly_mul and naive_truncate are the independent brute-force
# helpers, kept free of the library's fast paths
from conftest import (bundled_cutoff_specs, bundled_graph_cells,
                      load_corpus_scene, naive_poly_mul, naive_truncate,
                      rand_jet, rand_point, rand_polynomial, scene_path)

NON_DEFECT_SCENES = ["points", "halfline", "parabola", "square", "fullspace"]


def report(criterion: str, detail: str = ""):
    print(f"ACCEPTANCE {criterion}: PASS  {detail}")


def test_criterion_1_jet_algebra_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(101)
    for _ in range(500):
        n = int(rng.integers(1, 4))
        p = int(rng.integers(1, 5))
        a = rand_jet(rng, n, p)
        b = rand_jet(rng, n, p, base=a.base)
        got = jet_to_monomial(jet_mul(a, b))
        want = naive_truncate(naive_poly_mul(jet_to_monomial(a),
                                             jet_to_monomial(b)), p)
        assert {k: v for k, v in got.items() if v != 0} == want

    for _ in range(200):
        n = int(rng.integers(1, 3))
        m = int(rng.integers(1, 3))
        p = int(rng.integers(1, 4))
        fs = [rand_jet(rng, n, p) for _ in range(m)]
        fs = [jet_from_coeffs(n, p, fs[0].base, dict(f.coeffs)) for f in fs]
        h = rand_jet(rng, m, p, base=tuple(f.constant_term for f in fs))
        got = jet_to_monomial(jet_compose(h, fs))
        # oracle: substitute centered inner polynomials into every outer
        # monomial by full expansion, truncate once at the end
        ys = []
        for f in fs:
            mono = dict(jet_to_monomial(f))
            mono[(0,) * n] = 0
            ys.append({k: v for k, v in mono.items() if v != 0})
        total: dict = {}
        hm = jet_to_monomial(h)
        for kappa, coeff in hm.items():
            if coeff == 0:
                continue
            term = {(0,) * n: Fraction(1)}
            for i, k in enumerate(kappa):
                for _ in range(k):
                    term = naive_poly_mul(term, ys[i])
            for mono_k, v in term.items():
                total[mono_k] = total.get(mono_k, 0) + coeff * v
        want = naive_truncate(total, p)
        assert {k: v for k, v in got.items() if v != 0} == want
    elapsed = time.time() - t0
    assert elapsed < 30.0
    report("1", f"500 products + 200 compositions exact in {elapsed:.1f}s")


def test_criterion_2_chain_rule():
    t0 = time.time()
    rng = np.random.default_rng(202)
    for _ in range(200):
        n = int(rng.integers(1, 4))
        p = int(rng.integers(1, 4))
        g = rand_polynomial(rng, n, 3)
        h = rand_polynomial(rng, 1, 3)
        u = rand_point(rng, n)
        tg = taylor_jet(g, p, u)
        th = taylor_jet(h, p, (tg.constant_term,))
        got = jet_compose(th, [tg])
        want = taylor_jet(expr.substitute(h, [g]), p, u)
        assert got.coeffs == want.coeffs
    elapsed = time.time() - t0
    assert elapsed < 30.0
    report("2", f"200 exact chain-rule compositions in {elapsed:.1f}s")


def test_criterion_3_whitney_condition_rates():
    t0 = time.time()
    p = 1
    g = expr.polynomial(1, {(p + 1,): 1})
    jets_at = lambda a: taylor_jet(g, p, tuple(a))
    scales = [Fraction(1, 10) / 2 ** k for k in range(11)]  # 1e-1 .. ~1e-4
    pairs = radial_pairs(Fraction(0), scales)
    samples = whitney_residual(jets_at, (0,), (0,), pairs)
    fit = rate_fit([(r.separation, r.residual) for r in samples], p)
    assert fit.slope >= p + 0.75, fit
    assert fit.passed

    def abs_jets(a):
        x = a[0]
        return jet_from_coeffs(1, 1, (x,), {(0,): abs(x),
                                            (1,): 1 if x > 0 else -1})

    bad_pairs = straddling_pairs(0.0, [float(s) for s in scales])
    bad = whitney_residual(abs_jets, (0,), (1,), bad_pairs)
    bad_fit = rate_fit([(r.separation, r.residual) for r in bad], p - 1)
    assert not bad_fit.passed
    elapsed = time.time() - t0
    assert elapsed < 10.0
    report("3", f"slope {fit.slope:.2f} >= {p + 0.75}; sign field flagged "
                f"({elapsed:.1f}s)")


def test_criterion_4_extension_agreement_on_corpus():
    t0 = time.time()
    worst = {}
    for name in NON_DEFECT_SCENES:
        sf = load_corpus_scene(name)
        f = extend_field(sf.scene, seed=sf.plan.seed)
        rep = check_extension(f, sf.scene, tol=1e-4,
                              samples_per_stratum=100, seed=sf.plan.seed)
        assert rep.passed, (name, [l for l in rep.lines() if "FAIL" in l])
        dims = {s.id: s.dim for s in sf.scene.strata}
        for e in rep.entries:
            # a point stratum has exactly one sample; curves carry >= 100
            assert e.samples >= (100 if dims[e.stratum_id] > 0 else 1)
        worst[name] = rep.worst
    elapsed = time.time() - t0
    assert elapsed < 120.0
    detail = ", ".join(f"{k}={v:.1e}" for k, v in worst.items())
    report("4", f"max rel dev {detail} ({elapsed:.1f}s)")


def test_criterion_5_cutoff_contract():
    t0 = time.time()
    for i, spec in enumerate(bundled_cutoff_specs()):
        assert spec.q <= 3
        omega = build_cutoff(spec)
        rep = verify_cutoff(omega, spec, n_samples=10_000, seed=13 + i)
        assert rep.plateau_checked > 0 and rep.plateau_violations == 0, i
        assert rep.support_checked > 0 and rep.support_violations == 0, i
        assert rep.in_range
        for alpha, c in rep.bound_constants.items():
            assert math.isfinite(c), (i, alpha)
        for alpha, r in rep.bound_ratios.items():
            assert r < 2.0, (i, alpha, r)
    elapsed = time.time() - t0
    assert elapsed < 120.0
    report("5", f"3 specs, 10^4 samples each, bounds stable ({elapsed:.1f}s)")


def test_criterion_6_flatness_rate_halfline():
    t0 = time.time()
    sf = load_corpus_scene("halfline")
    assert sf.scene.p == 1 and sf.scene.q == 2
    f = extend_field(sf.scene, seed=sf.plan.seed)
    z = sf.scene.descriptor_for(["origin"])
    cell = sf.scene.stratum("ray").cell
    pts = [(-2.0 ** -j,) for j in range(3, 15)]
    rep = flatness_rate_probe(f, z, cell, 0.5, sf.scene.p, pts, theta=1e-2)
    for kappa in [(0,), (1,)]:
        assert rep.flat[kappa], (kappa, rep.per_kappa[kappa])
        assert rep.per_kappa[kappa][-1] < 1e-2
    elapsed = time.time() - t0
    assert elapsed < 10.0
    report("6", f"normalized decay below 1e-2 for kappa in {{0,1}} "
                f"({elapsed:.1f}s)")


def test_criterion_7_distance_sandwich():
    t0 = time.time()
    rng = np.random.default_rng(77)
    for cell in bundled_graph_cells():
        samples = [(float(rng.uniform(-0.5, 1.5)),
                    float(rng.uniform(-1.0, 3.0))) for _ in range(1000)]
        rep = geo.distance_sandwich_check(cell, samples, eps=1e-6)
        assert not rep.violations, (cell, rep.violations[:3])
        assert rep.checked == 1000
    const_cell = bundled_graph_cells()[0]
    rows = [(0.3, 2.7), (0.8, 1.1), (0.5, 2.0001)]
    _, up = geo.distance_brackets(geo.descriptor_of(const_cell), rows)
    for (u, w), d in zip(rows, up):
        assert abs(d - abs(w - 2.0)) < 1e-9
    elapsed = time.time() - t0
    assert elapsed < 60.0
    report("7", f"0 violations at 10^3 samples/cell, constant graph exact "
                f"({elapsed:.1f}s)")


def test_criterion_8_induction_driver_subtraction_is_load_bearing():
    t0 = time.time()
    sf = load_corpus_scene("square")
    f_good = extend_field(sf.scene, seed=0)
    rep_good = check_extension(f_good, sf.scene, tol=1e-4,
                               samples_per_stratum=100, seed=0)
    assert rep_good.passed, [l for l in rep_good.lines() if "FAIL" in l]

    f_bad = extend_field(sf.scene, seed=0, skip_skeleton_subtraction=True)
    rep_bad = check_extension(f_bad, sf.scene, tol=1e-4,
                              samples_per_stratum=100, seed=0)
    assert not rep_bad.passed
    elapsed = time.time() - t0
    assert elapsed < 120.0
    report("8", f"with subtraction worst={rep_good.worst:.1e}; without "
                f"worst={rep_bad.worst:.1e} ({elapsed:.1f}s)")


def test_criterion_9_determinism(tmp_path):
    outs = []
    for tag in ("first", "second"):
        out = tmp_path / tag
        assert cli_main(["extend", str(scene_path("halfline")), "-o",
                         str(out), "--grid=-1:1:0.02", "--seed", "0"]) == 0
        assert cli_main(["verify", str(scene_path("halfline")),
                         str(out)]) == 0
        outs.append(out)
    for name in ("report.json", "verify_report.json", "samples.csv",
                 "manifest.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
    report("9", "extend+verify reports byte-identical across reruns")
