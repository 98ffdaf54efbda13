"""Reproducible bits without heavy imports: the seeded uniform stream of
every sampled certificate, and SHA-256 for term hashes and manifests.

:class:`SeededStream` reproduces ``numpy.random.default_rng(seed).random``
bit for bit: the seed's 32-bit words are hash-mixed into a pool of four
(NumPy's ``SeedSequence``, NEP 19), the pool yields four 64-bit words,
and these seed O'Neill's PCG64 ("PCG: A family of simple fast
space-efficient statistically good algorithms for random number
generation", 2014), a 128-bit LCG with XSL-RR output; each double is
``(x >> 11) * 2**-53``.  The LCG runs as a Python-int loop and the output
mixing in numpy ``uint64``, so ``numpy.random``, which loads ``secrets``
and through it OpenSSL, is never imported.

``sha256`` is CPython's builtin ``_sha2`` (3.12+) or ``_sha256`` (3.10,
3.11), imported as ``random.py`` imports ``_sha512``; the OpenSSL-backed
module is only the fallback.
"""
from __future__ import annotations

import math
import operator
from itertools import repeat

import numpy as np

try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

_M32 = (1 << 32) - 1
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
        s, inc = self._state, self._inc
        states = [s := (s * _PCG_MULT + inc) & _M128
                  for _ in repeat(None, count)]
        self._state = s
        # the (low, high) uint64 halves of each 128-bit state
        halves = np.frombuffer(b"".join(map(
            int.to_bytes, states, repeat(16), repeat("little"))),
            dtype="<u8").astype(np.uint64).reshape(count, 2)
        lo, hi = halves[:, 0], halves[:, 1]
        x, rot = hi ^ lo, hi >> 58                        # XSL-RR
        x = (x >> rot) | (x << ((64 - rot) & 63))
        return ((x >> 11).astype(np.float64) * 2.0 ** -53).reshape(shape)
