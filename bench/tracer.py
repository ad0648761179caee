"""Spans around calls into the xmodal layers, recorded from outside the package.

`Tracer.install()` replaces every public xmodal function with a wrapper, in
every xmodal module namespace that holds it, so that calls made through
`from .numerics import pairwise_distances` are caught where they are made.
Each wrapper appends one span (name, start, end, parent, run id) to flat
typed arrays; aggregation waits until the run is over.
`uninstall()` puts the original functions back, so untraced rounds pay no
wrapper cost at all.
"""

import functools
import time
import types
from array import array

import numpy as np

LAYERS = ("data", "encoder", "losses", "numerics", "evaluation", "harness")

# Work counted at the span boundary: span name -> [(counter, f(args, result))].
COUNTERS = {
    "numerics.pairwise_distances": [
        ("pairs", lambda args, r: r.shape[0] * r.shape[1])],
    "encoder.encode": [
        ("rows", lambda args, r: np.shape(args[2])[0])],
    "numerics.finite_diff_grad": [
        ("evals", lambda args, r: 2 * np.size(args[1]))],
    "evaluation.evaluate_features": [
        ("queries", lambda args, r: np.shape(args[0])[0]),
        ("skipped", lambda args, r: r.skipped_queries)],
}


def _modules():
    from xmodal import data, encoder, evaluation, harness, losses, numerics
    return {"data": data, "encoder": encoder, "losses": losses,
            "numerics": numerics, "evaluation": evaluation, "harness": harness}


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.run_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = {}
        self._stack = [-1]
        self._run = -1
        self._patches = []  # (namespace dict, attribute, original)

    # -- recording ---------------------------------------------------------

    def _intern(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def begin_run(self, run):
        """Open the root span of one measured round; spans below share `run`."""
        self._run = run
        return self._open(self._intern("round"))

    def end_run(self, index):
        self._close(index)
        self._run = -1

    def _open(self, nid):
        index = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.run_id.append(self._run)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def _close(self, index):
        self.end[index] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name):
        nid = self._intern(name)
        counters = [(f"{name}.{what}", f) for what, f in COUNTERS.get(name, ())]
        counts = self.counts
        tracer_open, tracer_close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer_open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer_close(index)
            for key, f in counters:
                counts[key] = counts.get(key, 0) + int(f(args, result))
            return result

        return traced

    # -- patching ----------------------------------------------------------

    def install(self):
        """Wrap every public xmodal function, and each gradcheck component."""
        modules = _modules()
        wrappers = {}
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not isinstance(obj, types.FunctionType)
                        or not obj.__module__.startswith("xmodal.")):
                    continue
                layer = obj.__module__.split(".", 1)[1]
                if layer not in LAYERS:
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(obj, f"{layer}.{obj.__name__}")
                self._patches.append((vars(mod), attr, obj))
                vars(mod)[attr] = wrappers[obj]
        components = modules["harness"].GRADCHECK_COMPONENTS
        for name, check in list(components.items()):
            self._patches.append((components, name, check))
            components[name] = self._wrap(check, f"harness.gradcheck.{name}")

    def uninstall(self):
        for namespace, attr, original in reversed(self._patches):
            namespace[attr] = original
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def arrays(self):
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "run_id": np.frombuffer(self.run_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def summary(self):
        """Per span name: calls, busy (inclusive) seconds and self seconds.

        Self time is a span's duration minus the part its child spans cover;
        spans are strictly nested because every call is on one thread.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        own = dur - child
        n = len(self.names)
        return {
            name: {"calls": int(c), "busy_s": float(b), "self_s": float(s)}
            for name, c, b, s in zip(
                self.names,
                np.bincount(a["name_id"], minlength=n),
                np.bincount(a["name_id"], weights=dur, minlength=n),
                np.bincount(a["name_id"], weights=own, minlength=n))
        }

    def ancestors_of(self, name, prefix):
        """Indices of the nearest spans named `prefix...` above each `name` span."""
        if name not in self._name_ids:
            return set()
        is_prefixed = [n.startswith(prefix) for n in self.names]
        found = set()
        for index in np.flatnonzero(self.arrays()["name_id"] == self._name_ids[name]):
            up = self.parent[index]
            while up >= 0 and not is_prefixed[self.name_id[up]]:
                up = self.parent[up]
            if up >= 0:
                found.add(up)
        return found

    def write(self, path):
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
