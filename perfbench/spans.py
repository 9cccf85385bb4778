"""Span recorder for the traced benchmark run.

`SpanRecorder.installed(modules)` replaces every public module-level
function of the given modules (and every alias of it in those modules,
such as a name brought in with ``from .riccati import morse_y``) with a
wrapper that records one span per call, then puts the originals back.
Calls a module makes to its own functions go through the module
globals, so they are recorded too.

A span is (layer, start, end, parent span, workload unit). Spans are
kept in flat typed arrays, about 28 bytes each, so a verify pass with a
few hundred thousand calls stays small; `save` writes them out once the
run ends, and `layer_totals` derives calls and self time from them.
Counts taken from arguments (distinct points, asymptotic tricomi_u
calls) and the typed errors leaving specfun are kept per unit beside
the spans.
"""

from __future__ import annotations

import collections
import contextlib
import inspect
import time
from array import array
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

# Layer names whose wrapper also looks at the call's arguments.
DERIVS = "morse.wavefunction_derivs"
LAGUERRE_FORM = "morse.wavefunction_laguerre_form"
TRICOMI = "specfun.tricomi_u"
# z at and above which a tricomi_u call counts as asymptotic
TRICOMI_ASYMPTOTIC_Z = 20.0


def _point_key(args: tuple, kwargs: dict):
    """(params, sector, pmap, x) of a morse wavefunction call."""
    params, sector, pmap, x = args + tuple(kwargs.values())
    return params, sector, pmap, float(x)


class SpanRecorder:
    """Spans and argument-derived counts of one traced run."""

    def __init__(self) -> None:
        self.layers: list[str] = []
        self._layer_ids: dict[str, int] = {}
        self.layer = array("i")
        self.parent = array("i")
        self.unit = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.unit_id = -1
        # Per unit: distinct points requested of each morse wavefunction
        # layer, and tricomi_u calls on the asymptotic side of the switch.
        self.points: dict[str, dict[int, set]] = {
            DERIVS: collections.defaultdict(set),
            LAGUERRE_FORM: collections.defaultdict(set),
        }
        self.asymptotic: collections.Counter[int] = collections.Counter()
        # Typed errors leaving specfun for a caller outside it, by class name.
        self.specfun_errors: collections.Counter[str] = collections.Counter()

    def layer_id(self, name: str) -> int:
        if name not in self._layer_ids:
            self._layer_ids[name] = len(self.layers)
            self.layers.append(name)
        return self._layer_ids[name]

    def wrap(self, name: str, fn: Callable) -> Callable:
        """A wrapper of fn that records one span per call under `name`."""
        lid = self.layer_id(name)
        layer, parent, unit = self.layer, self.parent, self.unit
        start, end, stack = self.start, self.end, self._stack
        layers = self.layers
        clock = time.perf_counter
        in_specfun = name.startswith("specfun.")
        points = self.points.get(name)
        is_tricomi = name == TRICOMI
        errors = self.specfun_errors

        def wrapper(*args, **kwargs):
            sid = len(start)
            up = stack[-1] if stack else -1
            layer.append(lid)
            parent.append(up)
            unit.append(self.unit_id)
            end.append(0.0)
            if points is not None:
                points[self.unit_id].add(_point_key(args, kwargs))
            elif is_tricomi and float(args[2]) >= TRICOMI_ASYMPTOTIC_Z:
                self.asymptotic[self.unit_id] += 1
            stack.append(sid)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                caller_in_specfun = up >= 0 and layers[layer[up]].startswith("specfun.")
                if in_specfun and not caller_in_specfun:
                    errors[type(exc).__name__] += 1
                raise
            finally:
                end[sid] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    @contextlib.contextmanager
    def installed(self, modules: Iterable, registries: Iterable[tuple[str, dict]] = ()):
        """Record calls to the public functions of `modules` inside the block.

        Each registry is (prefix, dict of callables); its values are wrapped
        under `<prefix>.<key>`. Every patched attribute and entry is
        restored on exit, even when the block raises.
        """
        modules = list(modules)
        originals: dict[int, tuple[str, Callable]] = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, fn in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__
                ):
                    originals[id(fn)] = (f"{short}.{fn.__name__}", fn)
        wrappers = {key: self.wrap(name, fn) for key, (name, fn) in originals.items()}
        patched: list[tuple[object, str, Callable]] = []
        try:
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if id(value) in wrappers and originals[id(value)][1] is value:
                        patched.append((mod, attr, value))
                        setattr(mod, attr, wrappers[id(value)])
            for prefix, registry in registries:
                for key, fn in list(registry.items()):
                    patched.append((registry, key, fn))
                    registry[key] = self.wrap(f"{prefix}.{key}", fn)
            yield self
        finally:
            for owner, attr, value in reversed(patched):
                if isinstance(owner, dict):
                    owner[attr] = value
                else:
                    setattr(owner, attr, value)

    def truncate(self, count: int, units: range) -> None:
        """Drop every span after the first `count`, and the argument
        counts of `units`."""
        for column in (self.layer, self.parent, self.unit, self.start, self.end):
            del column[count:]
        for unit in units:
            for by_unit in self.points.values():
                by_unit.pop(unit, None)
            self.asymptotic.pop(unit, None)

    def arrays(self) -> dict[str, np.ndarray]:
        """Copies of the span columns (a view would stop the arrays growing)."""
        return {
            "layer": np.array(self.layer, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "unit": np.array(self.unit, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
        }

    def save(self, path: Path) -> None:
        """Write every span and the layer-name table as one .npz file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, layers=np.array(self.layers), **self.arrays())


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    dur = end - start
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    return dur - child


def layer_totals(
    spans: dict[str, np.ndarray], layers: list[str], units: range
) -> dict[str, tuple[int, float, float]]:
    """(calls, self seconds, span seconds) per layer, restricted to `units`.

    Self time is computed on all spans first, so a span's children are
    subtracted even if the selection cut between them (it never does:
    a child inherits its parent's unit).
    """
    own = self_times(spans["start"], spans["end"], spans["parent"])
    dur = spans["end"] - spans["start"]
    sel = (spans["unit"] >= units.start) & (spans["unit"] < units.stop)
    ids = spans["layer"][sel]
    n = len(layers)
    calls = np.bincount(ids, minlength=n)
    self_s = np.bincount(ids, weights=own[sel], minlength=n)
    span_s = np.bincount(ids, weights=dur[sel], minlength=n)
    return {
        name: (int(calls[i]), float(self_s[i]), float(span_s[i]))
        for i, name in enumerate(layers)
    }
