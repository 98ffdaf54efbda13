"""Golden outputs: the bundled scenes' command results stay byte-identical.

``golden_outputs.json`` holds, for each command line below, its exit code,
its stdout and stderr (run and scene directories replaced by ``<run>`` and
``<scenes>``) and the SHA-256 of every artifact it leaves in the run
directory.  A refactor that must not change output keeps this test
passing; a change that moves output on purpose re-records the table with

    PYTHONPATH=src python tests/test_golden_outputs.py --record

and says in its change note which rows moved and why.
"""
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from whitney.cli import main
from whitney.rng import sha256

from conftest import SCENES_DIR

TABLE = Path(__file__).resolve().parent / "golden_outputs.json"
ARTIFACTS = ("samples.csv", "report.json", "verify_report.json")
SCENES = ("points", "halfline", "parabola", "square", "fullspace")
DEFECTS = sorted(p.stem for p in SCENES_DIR.glob("defect_*.json"))


def _cases():
    """``(key, [argv, ...])``: each case's commands share one run directory."""
    for name in SCENES:
        grids = [[], ["--grid=-4:4:0.001"]] if name == "halfline" else [[]]
        for seed in (0, 1):
            for grid in grids:
                extend = ["extend", f"<scenes>/{name}.json", "-o", "<run>",
                          "--seed", str(seed)] + grid
                yield " ".join(extend), [
                    extend, ["verify", f"<scenes>/{name}.json", "<run>"]]
    for name in DEFECTS:
        scene = f"<scenes>/{name}.json"
        yield f"defect {name}", [["validate", scene],
                                 ["extend", scene, "-o", "<run>"],
                                 ["verify", scene, "<run>"]]
    missing = "<scenes>/missing.json"
    yield "input missing scene", [["validate", missing],
                                  ["extend", missing, "-o", "<run>"],
                                  ["verify", missing, "<run>"]]
    # the samples written over report.json leave a report that is not JSON
    points = "<scenes>/points.json"
    yield "input report.json not JSON", [
        ["extend", points, "-o", "<run>"],
        ["plotdata", "<run>", "--select", "extension",
         "-o", "<run>/report.json"],
        ["verify", points, "<run>"]]


def _run_case(commands) -> list[dict]:
    with tempfile.TemporaryDirectory() as tmp:
        run = Path(tmp) / "run"
        subs = (("<scenes>", str(SCENES_DIR)), ("<run>", str(run)))

        def fill(text):
            for mark, path in subs:
                text = text.replace(mark, path)
            return text

        def blank(text):
            for mark, path in reversed(subs):
                text = text.replace(path, mark)
            return text

        out = []
        for argv in commands:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                code = main([fill(a) for a in argv])
            shas = {name: sha256((run / name).read_bytes()).hexdigest()
                    for name in ARTIFACTS if (run / name).exists()}
            out.append({"argv": " ".join(argv), "exit": code,
                        "stdout": blank(stdout.getvalue()),
                        "stderr": blank(stderr.getvalue()), "sha256": shas})
        return out


CASES = dict(_cases())


@pytest.mark.parametrize("key", sorted(CASES))
def test_outputs_match_the_golden_table(key):
    table = json.loads(TABLE.read_text())
    assert key in table, f"no golden row for {key!r}"
    assert _run_case(CASES[key]) == table[key]


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    TABLE.write_text(json.dumps({k: _run_case(v) for k, v in CASES.items()},
                                indent=1, sort_keys=True) + "\n")
