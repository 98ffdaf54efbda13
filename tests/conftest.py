"""Shared generators for randomized oracle tests, and the bundled cutoff
specs and graph cells that the acceptance gate and the cutoff tests check.

Randomness is always driven by an explicit numpy Generator so every test
is reproducible; rational coefficients keep the algebraic oracles exact.
"""
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from whitney import expr
from whitney import geometry as geo
from whitney.cutoff import CutoffSpec
from whitney.jets import PointJet, jet_from_coeffs, multi_indices

SCENES_DIR = Path(__file__).resolve().parent.parent / "scenes"


def scene_path(name: str) -> Path:
    return SCENES_DIR / f"{name}.json"


def load_corpus_scene(name: str):
    from whitney.sceneio import load_scene
    return load_scene(scene_path(name))


def bundled_cutoff_specs() -> list[CutoffSpec]:
    """Three cutoff scenarios covering the descriptor kinds: 1-d ball vs
    point, planar ball vs point, and a segment vs a point pair (its
    endpoints are not in Z; the segment's potential column is smooth
    across their normal lines all the same)."""
    ball_vs_point_1d = CutoffSpec(
        geo.descriptor_of(geo.Ball((1.0,), 0.1)),
        geo.descriptor_of(geo.PointCell((0.0,))),
        eta=0.5, q=2, box=4.0)
    ball_vs_point_2d = CutoffSpec(
        geo.descriptor_of(geo.Ball((1.0, 0.0), 0.2)),
        geo.descriptor_of(geo.PointCell((0.0, 0.0))),
        eta=0.5, q=3, box=4.0)
    segment = geo.GraphCell(geo.Interval(0.0, 1.0),
                            (expr.constant_fn(0, 1),), (0, 1))
    segment_vs_points = CutoffSpec(
        geo.descriptor_of(segment),
        geo.descriptor_of(geo.PointCell((-0.75, 0.6)),
                          geo.PointCell((1.75, 0.6))),
        eta=0.6, q=1, box=4.0)
    return [ball_vs_point_1d, ball_vs_point_2d, segment_vs_points]


def bundled_graph_cells() -> list[geo.GraphCell]:
    """Constant graph, slope-one line and parabola over the unit interval:
    the cells the distance-comparison checks run on."""
    base = geo.Interval(0.0, 1.0)
    return [
        geo.GraphCell(base, (expr.constant_fn(2.0, 1),), (0, 1)),
        geo.GraphCell(base, (expr.coordinate(0, 1),), (0, 1)),
        geo.GraphCell(base, (expr.polynomial(1, {(2,): 1}),), (0, 1)),
    ]


def one_row(batch_fn):
    """``batch_fn`` (``(N, n)`` rows to ``N`` values) as a function of one
    point, through a 1-row batch: the form :func:`finite_difference` calls."""
    return lambda x: float(batch_fn(np.asarray([x], dtype=float))[0])


def naive_poly_mul(a: dict, b: dict) -> dict:
    """Full product of two monomial-coefficient maps, by brute force."""
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = tuple(x + y for x, y in zip(ka, kb))
            out[k] = out.get(k, 0) + va * vb
    return out


def naive_truncate(mono: dict, p: int) -> dict:
    """The nonzero monomials of total degree <= p."""
    return {k: v for k, v in mono.items() if sum(k) <= p and v != 0}


def rand_fraction(rng, lo=-6, hi=7, den=4) -> Fraction:
    return Fraction(int(rng.integers(lo, hi)), int(rng.integers(1, den)))


def rand_polynomial(rng, arity: int, degree: int) -> expr.ExprFn:
    """Random polynomial with rational coefficients, sparse-ish support."""
    terms = {}
    n_terms = int(rng.integers(2, 7))
    for _ in range(n_terms):
        alpha = tuple(int(k) for k in rng.integers(0, degree + 1, arity))
        if sum(alpha) > degree:
            continue
        terms[alpha] = rand_fraction(rng)
    if not terms:
        terms[(0,) * arity] = Fraction(1)
    return expr.polynomial(arity, terms)


def rand_jet(rng, n: int, p: int, base=None) -> PointJet:
    base = base if base is not None else tuple(
        rand_fraction(rng) for _ in range(n))
    coeffs = {a: rand_fraction(rng) for a in multi_indices(n, p)}
    return jet_from_coeffs(n, p, base, coeffs)


def rand_point(rng, arity: int, lo=-2, hi=2):
    return tuple(Fraction(int(rng.integers(lo * 8, hi * 8 + 1)), 8)
                 for _ in range(arity))


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)
