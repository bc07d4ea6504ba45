"""Span tracer that wraps public library functions from outside the library.

``Tracer.install`` replaces a function object in every ``wsatlab`` module
namespace that refers to it (a name imported with ``from .x import f`` is a
separate binding, so patching only the defining module would miss calls).
``Tracer.remove`` puts the originals back.

Each call records one span: layer id, start, end and the index of the
enclosing span.  Spans live in compact arrays in memory and are written out
by ``save`` when the run ends.  A layer's self time is its span time minus the
time covered by its child spans.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from functools import wraps
from pathlib import Path
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.layers: list[str] = []
        self.layer = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: dict[str, Counter] = {}
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, fn, observe):
        if layer not in self.layers:
            self.layers.append(layer)
            self.counts[layer] = Counter()
        lid = self.layers.index(layer)
        counts = self.counts[layer]
        stack = self.stack

        @wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.layer.append(lid)
            self.parent.append(stack[-1] if stack else -1)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if observe is not None:
                observe(counts, args, out)
            return out

        return traced

    def install(self, targets) -> None:
        """``targets``: (module, attribute, layer, observe) tuples, where
        ``observe(counter, args, result)`` adds input properties and counts."""
        mods = [m for name, m in sys.modules.items()
                if m is not None and (name == "wsatlab" or name.startswith("wsatlab."))]
        for module, attr, layer, observe in targets:
            fn = getattr(module, attr)
            wrapper = self._wrap(layer, fn, observe)
            for mod in mods:
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        self._patched.append((mod, name, fn))
                        setattr(mod, name, wrapper)

    def remove(self) -> None:
        for mod, name, fn in reversed(self._patched):
            setattr(mod, name, fn)
        self._patched.clear()

    # -- analysis ------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "layer": np.frombuffer(self.layer, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def summary(self) -> tuple[dict[str, dict], float]:
        """Per layer: calls, self seconds and call durations; and the time
        covered by top-level spans."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        nested = a["parent"] >= 0
        child = np.bincount(a["parent"][nested], weights=dur[nested],
                            minlength=len(dur))
        own = dur - child
        out = {}
        for lid, layer in enumerate(self.layers):
            sel = a["layer"] == lid
            out[layer] = {
                "calls": int(sel.sum()),
                "self_s": float(own[sel].sum()),
                "durations": dur[sel],
            }
        return out, float(dur[~nested].sum())

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.layers), **self.arrays())
