"""In-memory span recorder that wraps lqmatern's public functions.

``Tracer.install`` replaces every public function of the package's modules
at each name a caller binds it under (``lqmatern.estimate.total_lq``,
``lqmatern.gauss_lik.build_cov``, ``lqmatern.cli_io.fit_profile``, ...) with
a wrapper that records one span per call: name, start, end, parent span,
the operation it belongs to, and an outcome code.  ``uninstall`` puts the
original functions back, so untraced operations pay nothing.

Spans live in flat ``array`` columns (a traced n=100 sweep produces a few
hundred thousand) and are written out once, at the end of the run.  The
package itself is not edited: only module attributes are swapped.
"""

import functools
import importlib
import inspect
import math
import time
from array import array

import numpy as np

# the modules whose public functions become layer boundaries, in layer order
MODULES = ("specfun", "matern", "gauss_lik", "estimate", "asymptotics",
           "qselect", "simulate", "variogram", "cli_io")

# span outcome codes
OK, RAISED, NONFINITE, JITTERED = 0, 1, 2, 3

# calls whose return value is kept for the per-layer counts
_KEEP_RESULT = ("estimate.fit", "qselect.select_q_kappa")


def _outcome(name, result):
    if name == "gauss_lik.chol_factor" and result.jittered:
        return JITTERED
    if isinstance(result, float) and not math.isfinite(result):
        return NONFINITE
    return OK


class Tracer:
    """Collects spans from wrapped lqmatern functions; single-threaded."""

    def __init__(self):
        self.names = []
        self._name_id = {}
        self.name = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.outcome = array("b")
        self.results = {key: [] for key in _KEEP_RESULT}
        self.current_op = -1
        self._stack = []
        self._saved = []      # (module, attribute, original) to restore
        self._wrappers = {}   # original function -> its wrapper

    def _wrap(self, fn, name):
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        nid = self._name_id[name]
        keep = self.results.get(name)
        clock = time.perf_counter
        stack = self._stack
        cols = (self.name, self.t0, self.t1, self.parent, self.op, self.outcome)
        name_col, t0_col, t1_col, parent_col, op_col, out_col = cols

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(t0_col)
            name_col.append(nid)
            parent_col.append(stack[-1] if stack else -1)
            op_col.append(self.current_op)
            out_col.append(OK)
            t1_col.append(0.0)
            stack.append(i)
            t0_col.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1_col[i] = clock()
                stack.pop()
                out_col[i] = RAISED
                raise
            t1_col[i] = clock()
            stack.pop()
            out_col[i] = _outcome(name, result)
            if keep is not None:
                keep.append(result)
            return result

        return traced

    def install(self):
        """Swap every public lqmatern function for its traced wrapper."""
        if self._saved:
            return
        mods = [importlib.import_module("lqmatern")]
        mods += [importlib.import_module("lqmatern." + m) for m in MODULES]
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = obj.__module__
                if not home.startswith("lqmatern."):
                    continue
                if obj not in self._wrappers:
                    span = "%s.%s" % (home.rsplit(".", 1)[1], obj.__name__)
                    self._wrappers[obj] = self._wrap(obj, span)
                self._saved.append((mod, attr, obj))
                setattr(mod, attr, self._wrappers[obj])

    def uninstall(self):
        """Restore the original functions."""
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved = []

    def arrays(self):
        """The span columns as numpy arrays, plus duration and self time.

        A span's self time is its duration minus the durations of its
        direct children; children of one span never overlap because the
        program is single-threaded.
        """
        n = len(self.t0)
        name = np.frombuffer(self.name, dtype=np.int32, count=n).copy()
        t0 = np.frombuffer(self.t0, dtype=np.float64, count=n).copy()
        t1 = np.frombuffer(self.t1, dtype=np.float64, count=n).copy()
        parent = np.frombuffer(self.parent, dtype=np.int32, count=n).copy()
        op = np.frombuffer(self.op, dtype=np.int32, count=n).copy()
        outcome = np.frombuffer(self.outcome, dtype=np.int8, count=n).copy()
        dur = t1 - t0
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return {"name": name, "t0": t0, "t1": t1, "parent": parent, "op": op,
                "outcome": outcome, "dur": dur, "self": dur - child}

    def save(self, path):
        """Write all spans to a compressed .npz file."""
        cols = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), **cols)
