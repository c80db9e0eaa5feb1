"""Spans around gridfreq's public functions, set from outside the package.

A :class:`Tracer` replaces every public function that a gridfreq module
defines or imports, in that module's namespace, with a wrapper that records
one span per call: the span's name, its start and end on the perf_counter
clock, and the span that was open when it started (its parent).  Public
methods of classes defined in gridfreq (``CostModel.grad`` and the like)
are wrapped on the class.  A span is named after the module that defines the
function, so ``gridfreq.training.eval_u`` and ``gridfreq.dynamics.eval_u``
both record ``controller.eval_u``: the controller layer does the work,
whichever module called it.

Spans are kept in memory and analysed or saved when the run ends.
``uninstall`` puts every wrapped name back as it was.
"""

from __future__ import annotations

import functools
import time
import types

import numpy as np


class Tracer:
    """Records nested spans of calls into the given gridfreq modules."""

    def __init__(self, modules):
        self.modules = tuple(modules)
        self.names = []          # distinct span names; spans store the index
        self._name_index = {}
        self.name = []           # per span: index into self.names
        self.parent = []         # per span: index of the enclosing span, or -1
        self.start = []
        self.end = []
        self._stack = [-1]
        self._saved = []         # (owner, attribute, original) while installed

    # ------------------------------------------------------------------
    # wrapping
    # ------------------------------------------------------------------

    def targets(self):
        """Yield (owner, attribute, function, span name) for every wrap point."""
        module_names = {m.__name__ for m in self.modules}
        for mod in self.modules:
            for attr, val in sorted(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(val, types.FunctionType) and val.__module__ in module_names:
                    layer = val.__module__.rsplit(".", 1)[-1]
                    yield mod, attr, val, f"{layer}.{val.__name__}"
                elif isinstance(val, type) and val.__module__ == mod.__name__:
                    layer = mod.__name__.rsplit(".", 1)[-1]
                    for meth, fn in sorted(vars(val).items()):
                        if not meth.startswith("_") and isinstance(fn, types.FunctionType):
                            yield val, meth, fn, f"{layer}.{val.__name__}.{meth}"

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, fn, span in list(self.targets()):
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, span))

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _wrap(self, fn, span):
        idx = self._name_index.setdefault(span, len(self.names))
        if idx == len(self.names):
            self.names.append(span)
        name, parent, start, end = self.name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name.append(idx)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------

    def __len__(self):
        return len(self.start)

    def spans(self, lo=0, hi=None):
        """Spans lo..hi-1 as a dict of arrays: name (str), parent, start, end,
        duration and self time.  Parent indices are relative to lo; spans
        whose parent lies before lo are treated as top-level."""
        hi = len(self.start) if hi is None else hi
        start = np.array(self.start[lo:hi])
        end = np.array(self.end[lo:hi])
        parent = np.array(self.parent[lo:hi], dtype=np.int64) - lo
        parent[parent < 0] = -1
        dur = end - start
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent],
                                 minlength=len(dur))
        names = np.array(self.names, dtype=object)[np.array(self.name[lo:hi], dtype=np.intp)]
        return {"name": names, "parent": parent, "start": start, "end": end,
                "duration": dur, "self": dur - child_time,
                "root": _roots(parent)}

    def save(self, path):
        """Write every span recorded so far to an .npz file."""
        np.savez(path, names=np.array(self.names),
                 name=np.array(self.name, dtype=np.int32),
                 parent=np.array(self.parent, dtype=np.int64),
                 start=np.array(self.start), end=np.array(self.end))


def _roots(parent):
    """Index of each span's top-level ancestor (itself when top-level)."""
    root = np.where(parent >= 0, parent, np.arange(len(parent)))
    while True:
        nxt = np.where(parent[root] >= 0, parent[root], root)
        if np.array_equal(nxt, root):
            return root
        root = nxt
