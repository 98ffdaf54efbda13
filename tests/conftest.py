"""Shared generators for randomized oracle tests.

Randomness is always driven by an explicit numpy Generator so every test
is reproducible; rational coefficients keep the algebraic oracles exact.
"""
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from whitney import expr
from whitney.jets import PointJet, jet_from_coeffs, multi_indices

SCENES_DIR = Path(__file__).resolve().parent.parent / "scenes"


def scene_path(name: str) -> Path:
    return SCENES_DIR / f"{name}.json"


def load_corpus_scene(name: str):
    from whitney.sceneio import load_scene
    return load_scene(scene_path(name))


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
