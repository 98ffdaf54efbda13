"""In-process tracer for one whitney command.

It wraps, from outside, the public functions of every ``whitney`` module
and the public methods (plus ``__call__``) of every public class, and
records one span per call: name, start, end and parent span.  A handful of
hooks also count the work a call did (points evaluated, zero cutoff values,
stencil evaluations, net sizes).  Spans live in flat arrays while the
command runs; :meth:`Tracer.summary` reduces them to per-name totals after
it returns, so nothing is written while the command is timed.

Nothing under ``src/`` changes: wrappers replace module and class
attributes, including names one module imported from another.
"""
from __future__ import annotations

import functools
import inspect
from array import array
from time import monotonic

# Names (as ``module.Qualname``) whose spans feed the per-layer metrics.
CUTOFF_CALL = "cutoff.CutoffFn.__call__"
EXT_CALL = "extension.ExtensionFn.__call__"
FD_CALL = "verify.finite_difference"
SUBCOEFF = "extension.subcoeff"
AGREEMENT = "verify.check_extension"

# Private entry points the metrics need in addition to the public surface.
EXTRA = {"cli": ("_run_whitney_check",)}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.raised = array("B")
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.nets: dict[int, int] = {}

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        i = self.ids.get(name)
        if i is None:
            i = self.ids[name] = len(self.names)
            self.names.append(name)
        return i

    def span(self, name: str, fn, hook=None):
        """``fn`` wrapped so that each call records a span.  ``hook(result)``
        runs after the span closes, to count the work the call did."""
        nid = self._id(name)
        stack, names, start, end = self.stack, self.name, self.start, self.end
        parent, raised = self.parent, self.raised

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parent.append(stack[-1] if stack else -1)
            raised.append(0)
            end.append(0.0)
            stack.append(idx)
            start.append(monotonic())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised[idx] = 1
                raise
            finally:
                end[idx] = monotonic()
                stack.pop()
            if hook is not None:
                hook(result)
            return result

        return wrapper

    def add(self, key: str, value: int = 1):
        self.counts[key] = self.counts.get(key, 0) + value

    # -- installation ------------------------------------------------------

    def install(self, modules) -> None:
        """Wrap the public surface of ``modules`` (whitney submodules)."""
        hooks = self._hooks()
        replaced = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            extra = EXTRA.get(short, ())
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and (not attr.startswith("_")
                                                or attr in extra):
                    name = f"{short}.{attr}"
                    replaced[obj] = self.span(name, obj, hooks.get(name))
                elif inspect.isclass(obj) and not attr.startswith("_"):
                    for meth, fn in list(vars(obj).items()):
                        if inspect.isfunction(fn) and (
                                meth == "__call__" or not meth.startswith("_")):
                            name = f"{short}.{attr}.{meth}"
                            setattr(obj, meth,
                                    self.span(name, fn, hooks.get(name)))
        # rebind every module-level reference, including ``from x import y``
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(mod, attr, replaced[obj])

    def _hooks(self) -> dict:
        import numpy as np      # after the traced import, so it is counted

        def cutoff(result):
            vals = np.atleast_1d(np.asarray(result))
            self.add("cutoff.points", vals.size)
            self.add("cutoff.zero_points", int(np.count_nonzero(vals == 0.0)))

        def membership(result):
            self.add("membership.points", len(result[0]))

        def net(result):
            self.nets[id(result[0])] = len(result[0])

        def subtract(result):
            # the coefficient callables of the subtracted fields become spans
            for fld in result.values():
                for alpha, fn in list(fld.coeffs.items()):
                    fld.coeffs[alpha] = self.span(SUBCOEFF, fn)

        return {CUTOFF_CALL: cutoff,
                "cutoff.cone_membership_batch": membership,
                "geometry.cell_param_net": net,
                "extension.subtract_taylor": subtract}

    def count_fd_evals(self, verify_mod) -> None:
        """Count the function evaluations each finite difference makes by
        wrapping the callable it receives (after :meth:`install`)."""
        traced_fd = verify_mod.finite_difference

        def fd(f, *args, **kwargs):
            def counted(x):
                self.add("fd.evals")
                return f(x)
            return traced_fd(counted, *args, **kwargs)

        verify_mod.finite_difference = fd

    # -- reduction ---------------------------------------------------------

    def summary(self) -> dict:
        """Per-name totals: calls, inclusive busy time of outermost calls
        (no ancestor of the same name), self time, nested calls and calls
        that raised; plus the counters, the outermost ``ExtensionFn``
        durations and the cutoff calls made inside an ``ExtensionFn``."""
        n = len(self.name)
        names, parent = self.name, self.parent
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * n
        mask = [0] * n
        ext_bit = 1 << self.ids[EXT_CALL] if EXT_CALL in self.ids else 0
        agree = self.ids.get(AGREEMENT, -1)
        per = {}
        ext_durations = []
        cutoffs_in_ext = 0
        skipped = 0
        for i in range(n):
            p = parent[i]
            nid = names[i]
            bit = 1 << nid
            if p >= 0:
                child[p] += dur[i]
                mask[i] = mask[p] | (1 << names[p])
            rec = per.get(nid)
            if rec is None:
                rec = per[nid] = [0, 0.0, 0.0, 0, 0]
            rec[0] += 1
            if mask[i] & bit:
                rec[3] += 1
            else:
                rec[1] += dur[i]
            rec[4] += self.raised[i]
            if self.names[nid] == EXT_CALL and not mask[i] & bit:
                ext_durations.append(dur[i])
            elif self.names[nid] == CUTOFF_CALL and mask[i] & ext_bit:
                cutoffs_in_ext += 1
            elif (self.names[nid] == FD_CALL and self.raised[i]
                  and p >= 0 and names[p] == agree):
                skipped += 1
        for i in range(n):
            per[names[i]][2] += dur[i] - child[i]
        return {
            "names": {self.names[k]: {"calls": v[0], "busy_s": v[1],
                                      "self_s": v[2], "nested": v[3],
                                      "raised": v[4]}
                      for k, v in per.items()},
            "counts": dict(self.counts,
                           **{"cutoffs_in_ext": cutoffs_in_ext,
                              "agreement.skipped": skipped,
                              "net_points": sum(self.nets.values()),
                              "net_points_max": max(self.nets.values(),
                                                    default=0)}),
            "ext_durations": ext_durations,
            "self_total_s": sum(v[2] for v in per.values()),
        }
