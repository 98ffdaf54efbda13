"""Run one ``whitney`` command in this (fresh) process and write what the
benchmark needs to know about it as JSON.

Usage: child.py RESULT.json SPAWN_TIME TRACE -- whitney-args...

``SPAWN_TIME`` is the parent's ``time.monotonic()`` just before it started
this process; ``CLOCK_MONOTONIC`` is shared by all processes, so times
below count interpreter start-up.  ``TRACE`` is 0 or 1.  ``entered_s``
marks where this file starts running: spans can cover only what follows.

Untraced, only two functions are wrapped, each called once per command:
``extend_field`` (its return marks the end of set-up) and
``check_extension`` (its per-entry sample counts feed an output check).
"""
from __future__ import annotations

import time

ENTERED = time.monotonic()      # before any import this harness adds

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    out_path, spawned, trace = sys.argv[1], float(sys.argv[2]), sys.argv[3]
    argv = sys.argv[sys.argv.index("--") + 1:]
    sys.path.insert(0, str(ROOT / "src"))
    tracer = None
    if trace == "1":
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer
        tracer = Tracer()
        cli = tracer.span("setup.import", _import_cli)()
        tracer.install(_whitney_modules())
        tracer.count_fd_evals(sys.modules["whitney.verify"])
    else:
        cli = _import_cli()

    marks = {}
    extend_field = cli.extend_field

    def timed_extend_field(*args, **kwargs):
        f = extend_field(*args, **kwargs)
        marks.setdefault("setup", time.monotonic())
        return f

    cli.extend_field = timed_extend_field
    verify_mod = sys.modules["whitney.verify"]
    check_extension = verify_mod.check_extension

    def recorded_check_extension(*args, **kwargs):
        rep = check_extension(*args, **kwargs)
        marks["agreement"] = [[e.stratum_id, list(e.alpha), e.samples]
                              for e in rep.entries]
        return rep

    verify_mod.check_extension = recorded_check_extension
    try:
        rc = cli.main(argv)       # traced as "cli.main" when tracing
    except SystemExit as exc:            # argparse usage errors
        rc = exc.code if isinstance(exc.code, int) else 2
    done = time.monotonic()
    result = {
        "rc": rc,
        "setup_s": marks["setup"] - spawned if "setup" in marks else None,
        "entered_s": ENTERED - spawned,
        "done_s": done - spawned,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "agreement": marks.get("agreement"),
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
    Path(out_path).write_text(json.dumps(result))
    return 0


def _import_cli():
    import whitney.cli
    return whitney.cli


def _whitney_modules() -> list:
    import importlib
    import pkgutil

    import whitney
    return [importlib.import_module(f"whitney.{m.name}")
            for m in pkgutil.iter_modules(whitney.__path__)]


if __name__ == "__main__":
    sys.exit(main())
