"""The seeded stream and SHA-256 of the command path are bit-identical to
numpy's ``default_rng(seed).random`` and to ``hashlib.sha256``, which stay
here as references; the commands import neither module, and they make no
LAPACK call."""
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from whitney.rng import SeededStream, sha256

from conftest import SCENES_DIR, scene_path

SEEDS = list(range(64)) + [2 ** 32, 2 ** 64 + 5, 2 ** 128 + 3]
# within the Python-stepped head of a draw, just past it, and far past it
SHAPES = [(0,), (7,), (65,), (3, 43), (2000, 2)]


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


# numpy's LAPACK-backed entry points, and ``polyfit``, which holds its own
# reference to ``lstsq``
LAPACK = ("lstsq", "svd", "solve", "inv", "pinv", "eig", "eigh", "eigvals",
          "eigvalsh", "qr", "cholesky", "det", "slogdet", "matrix_rank")


def test_commands_make_no_lapack_call(tmp_path):
    """With every LAPACK-backed numpy function replaced by one that raises,
    each bundled scene's ``validate``, ``extend`` and ``verify`` (a fresh
    process, like the commands) return the exit codes of the golden
    table; a valid scene's ``validate`` exits 0."""
    table = json.loads((Path(__file__).parent / "golden_outputs.json")
                       .read_text())
    want = {}
    for path in sorted(SCENES_DIR.glob("*.json")):
        row = table.get(f"defect {path.stem}") or [{"exit": 0}] + table[
            f"extend <scenes>/{path.stem}.json -o <run> --seed 0"]
        want[path.stem] = [r["exit"] for r in row]
    script = (
        "import json, sys\n"
        "import numpy as np\n"
        "import numpy.linalg\n"
        "impl = (sys.modules.get('numpy.linalg._linalg')\n"
        "        or sys.modules['numpy.linalg.linalg'])    # numpy 2, 1\n"
        "def raiser(name):\n"
        "    def call(*args, **kwargs):\n"
        "        raise AssertionError(f'LAPACK call: {name}')\n"
        "    return call\n"
        "np.polyfit = raiser('polyfit')\n"
        f"for name in {LAPACK!r}:\n"
        "    setattr(numpy.linalg, name, raiser(name))\n"
        "    setattr(impl, name, raiser(name))\n"
        "from whitney.cli import main\n"
        "def code(argv):\n"
        "    try:\n"
        "        return main(argv)\n"
        "    except Exception as exc:\n"
        "        return repr(exc)\n"
        "got = {}\n"
        f"for name in {sorted(want)!r}:\n"
        f"    scene = f'{SCENES_DIR}/{{name}}.json'\n"
        f"    out = f'{tmp_path}/{{name}}'\n"
        "    got[name] = [code(['validate', scene]),"
        " code(['extend', scene, '-o', out, '--seed', '0']),"
        " code(['verify', scene, out])]\n"
        "print(json.dumps(got))\n")
    done = subprocess.run([sys.executable, "-c", script], check=True,
                          capture_output=True, text=True,
                          env=dict(os.environ,
                                   PYTHONPATH=os.pathsep.join(sys.path)))
    assert json.loads(done.stdout.splitlines()[-1]) == want
