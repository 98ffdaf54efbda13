"""Reproducible bits without heavy imports: the seeded uniform stream of
every sampled certificate, and SHA-256 for term hashes and manifests.

:class:`SeededStream` reproduces ``numpy.random.default_rng(seed).random``
bit for bit: the seed's 32-bit words are hash-mixed into a pool of four
(NumPy's ``SeedSequence``, NEP 19), the pool yields four 64-bit words,
and these seed O'Neill's PCG64 ("PCG: A family of simple fast
space-efficient statistically good algorithms for random number
generation", 2014), a 128-bit LCG with XSL-RR output; each double is
``(x >> 11) * 2**-53``.  A Python-int loop steps the LCG through the
first states of a draw; the rest follow in numpy ``uint64`` pairs (high,
low) by jump-ahead, the states so far mapped by the LCG's m-fold step
``s -> A_m s + C_m (mod 2**128)`` to the next m, doubling each pass.  The
output mixing also runs in numpy, so ``numpy.random``, which loads
``secrets`` and through it OpenSSL, is never imported.

``sha256`` is CPython's builtin ``_sha2`` (3.12+) or ``_sha256`` (3.10,
3.11), imported as ``random.py`` imports ``_sha512``; the OpenSSL-backed
module is only the fallback.
"""
from __future__ import annotations

import math
import operator

import numpy as np

try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

_M32 = (1 << 32) - 1
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
# SeedSequence's hash constants and PCG64's default 128-bit multiplier
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_words(seed: int) -> list[int]:
    """``SeedSequence(seed).generate_state(4, uint64)`` as Python ints."""
    entropy = [seed & _M32]
    while seed >> 32:
        seed >>= 32
        entropy.append(seed & _M32)
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    def mix(x, y):
        r = (_MIX_L * x - _MIX_R * y) & _M32
        return r ^ r >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))

    hash_const, state = _INIT_B, []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * _MULT_B & _M32
        value = value * hash_const & _M32
        state.append(value ^ value >> 16)
    return [state[2 * k] | state[2 * k + 1] << 32 for k in range(4)]


class SeededStream:
    """The uniform doubles of ``numpy.random.default_rng(seed).random``;
    the state carries over between calls.  A negative seed raises
    ``ValueError``, as NumPy does."""

    def __init__(self, seed: int):
        seed = operator.index(seed)
        if seed < 0:
            raise ValueError("expected non-negative integer")
        # words (high, low) of the initial state, then of ``initseq``;
        # PCG's srandom steps from 0 (giving ``inc``), adds the initial
        # state and steps again
        w = _seed_words(seed)
        self._inc = ((w[2] << 64 | w[3]) << 1 | 1) & _M128
        state = self._inc + (w[0] << 64 | w[1])
        self._state = (state * _PCG_MULT + self._inc) & _M128

    def random(self, shape) -> np.ndarray:
        """Doubles in [0, 1) of the given shape, in C order."""
        count = math.prod(shape) if isinstance(shape, tuple) else shape
        hi, lo = _states(self._state, self._inc, count)
        if count:
            self._state = int(hi[-1]) << 64 | int(lo[-1])
        x, rot = hi ^ lo, hi >> 58                        # XSL-RR
        x = (x >> rot) | (x << ((64 - rot) & 63))
        return ((x >> 11).astype(np.float64) * 2.0 ** -53).reshape(shape)


def _states(s: int, inc: int, count: int):
    """The 64-bit halves (high, low) of the ``count`` LCG states after
    ``s``: the first 64 stepped as Python ints, the rest by jump-ahead,
    each pass mapping the first m states to the next m."""
    head = []
    for _ in range(min(count, 64)):
        s = (s * _PCG_MULT + inc) & _M128
        head.append(s)
    hi = np.array([v >> 64 for v in head], dtype=np.uint64)
    lo = np.array([v & _M64 for v in head], dtype=np.uint64)
    # (A, C) of 2**6 = 64 steps from those of one: the map of m steps
    # composed with itself is the map of 2m
    a, c = _PCG_MULT, inc
    for _ in range(6):
        a, c = a * a & _M128, (a * c + c) & _M128
    while len(lo) < count:
        m = min(len(lo), count - len(lo))
        hi_m, lo_m = _affine(hi[:m], lo[:m], a, c)
        hi, lo = np.concatenate((hi, hi_m)), np.concatenate((lo, lo_m))
        a, c = a * a & _M128, (a * c + c) & _M128
    return hi, lo


def _affine(hi, lo, a: int, c: int):
    """``(a * s + c) mod 2**128`` of the states ``s = hi * 2**64 + lo``,
    as (high, low) halves; the high half of ``lo * (a mod 2**64)`` comes
    from four 32-bit partial products."""
    a_lo, c_lo = np.uint64(a & _M64), np.uint64(c & _M64)
    a0, a1 = np.uint64(a & _M32), np.uint64(a >> 32 & _M32)
    x0, x1 = lo & _M32, lo >> 32
    p01, p10 = x0 * a1, x1 * a0
    mid = (x0 * a0 >> 32) + (p01 & _M32) + (p10 & _M32)
    carry = x1 * a1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
    low = lo * a_lo + c_lo
    high = (carry + lo * np.uint64(a >> 64) + hi * a_lo
            + np.uint64(c >> 64) + (low < c_lo))
    return high, low
