"""The seeded stream and SHA-256 of the command path are bit-identical to
numpy's ``default_rng(seed).random`` and to ``hashlib.sha256``, which stay
here as references; the commands import neither module."""
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from whitney.rng import SeededStream, sha256

from conftest import scene_path

SEEDS = list(range(64)) + [2 ** 32, 2 ** 64 + 5, 2 ** 128 + 3]
SHAPES = [(0,), (7,), (2000, 2)]


@pytest.mark.parametrize("seed", SEEDS)
def test_stream_matches_numpy_default_rng(seed):
    """Consecutive calls of each shape give numpy's doubles bit for bit."""
    want, got = np.random.default_rng(seed), SeededStream(seed)
    for shape in SHAPES + SHAPES:
        a, b = want.random(shape), got.random(shape)
        assert b.shape == a.shape and b.dtype == a.dtype
        assert b.tobytes() == a.tobytes(), (seed, shape)


def test_stream_rejects_a_negative_seed():
    with pytest.raises(ValueError):
        np.random.default_rng(-1)
    with pytest.raises(ValueError):
        SeededStream(-1)


@pytest.mark.parametrize("blob", [b"", b"abc", bytes(range(256)) * 300])
def test_sha256_matches_hashlib(blob):
    digest = sha256()
    digest.update(blob[:100])
    digest.update(blob[100:])
    assert sha256(blob).hexdigest() == hashlib.sha256(blob).hexdigest()
    assert digest.hexdigest() == hashlib.sha256(blob).hexdigest()


def test_extend_and_verify_import_neither_numpy_random_nor_openssl(tmp_path):
    """``numpy.random`` loads ``secrets``, ``hashlib`` and OpenSSL's
    ``_hashlib``; the command path needs none of them."""
    heavy = ["numpy.random", "hashlib", "_hashlib"]
    script = (
        "import json, sys\n"
        "from whitney.cli import main\n"
        f"scene, out = {str(scene_path('parabola'))!r}, {str(tmp_path)!r}\n"
        "codes = [main(['extend', scene, '-o', out]),"
        " main(['verify', scene, out])]\n"
        f"print(json.dumps([codes, [m for m in {heavy!r}"
        " if m in sys.modules]]))\n")
    done = subprocess.run([sys.executable, "-c", script], check=True,
                          capture_output=True, text=True,
                          env=dict(os.environ,
                                   PYTHONPATH=os.pathsep.join(sys.path)))
    codes, loaded = json.loads(done.stdout.splitlines()[-1])
    assert codes == [0, 0] and loaded == []
