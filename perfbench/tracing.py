"""Span tracing of the gicap layers, installed from outside the package.

A :class:`Tracer` wraps every public function of the layer modules
(``channel``, ``hk``, ``bounds``, ``region``, ``gap``, ``gdof``, ``cli``).
Modules import each other's functions by name (``from .channel import
classify`` gives ``gicap.gap`` its own ``classify`` binding), so the
wrapper is put on every ``gicap`` module attribute that holds the
function; calls are then seen whichever module makes them.  Nothing under
``src/`` is edited.

Each call becomes a span ``(name_id, start_ns, end_ns, parent)`` kept in
memory in one flat int64 array (``parent`` is the offset of the parent
span in that array, or -1); :meth:`Tracer.dump` writes them out when the
run ends and :func:`summarize` derives per-function calls, inclusive time
and self time (a span's duration minus the time covered by its child
spans).  ``region.sigfig`` is left unwrapped: it rounds every emitted
float, up to a thousand times per query, so a span around it would cost
more than the call and would move output formatting out of ``cli``.

Two counters ride along: the number of ``rng.random()`` draws the sweep
makes (through a stand-in for the ``random`` module inside ``gicap.gap``)
and the number of distinct region objects passed to ``region.vertices``.
"""

from __future__ import annotations

import importlib
import inspect
import random
import sys
import time
from array import array

LAYERS = ("channel", "hk", "bounds", "region", "gap", "gdof", "cli")
UNTRACED = {"region.sigfig"}
_PENDING = array("q", (0, 0, 0, -1))


class _CountingRandomModule:
    """Stands in for ``random`` inside ``gicap.gap``; counts ``rng.random()``."""

    def __init__(self, tracer: "Tracer") -> None:
        class CountingRandom(random.Random):
            def random(self) -> float:
                tracer.draws += 1
                return super().random()

        self.Random = CountingRandom

    def __getattr__(self, name):
        return getattr(random, name)


class Tracer:
    """Wraps the public functions of the gicap layers and records spans."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans = array("q")
        self.draws = 0
        # Strong references keep region ids unique for the life of the run.
        self.regions: dict[int, object] = {}
        self._stack: list[int] = []
        self._wrappers: dict[int, tuple[object, object]] = {}
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        regions = self.regions if name == "region.vertices" else None

        def traced(*args, **kwargs):
            if regions is not None:
                region = args[0] if args else kwargs["region"]
                regions.setdefault(id(region), region)
            offset = len(spans)
            spans.extend(_PENDING)
            parent = stack[-1] if stack else -1
            stack.append(offset)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[offset] = name_id
                spans[offset + 1] = start
                spans[offset + 2] = end
                spans[offset + 3] = parent

        return traced

    def install(self) -> None:
        """Put the wrappers on every gicap module attribute bound to a layer function."""
        if not self._wrappers:
            for layer in LAYERS:
                module = importlib.import_module(f"gicap.{layer}")
                for attr in module.__all__:
                    fn = getattr(module, attr)
                    name = f"{layer}.{attr}"
                    if (
                        inspect.isfunction(fn)
                        and fn.__module__ == module.__name__
                        and name not in UNTRACED
                    ):
                        self._wrappers[id(fn)] = (fn, self._wrap(fn, name))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "gicap" and not mod_name.startswith("gicap."):
                continue
            for attr, value in list(vars(module).items()):
                hit = self._wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, hit[1])
        self._patch(sys.modules["gicap.gap"], "random", _CountingRandomModule(self))

    def uninstall(self) -> None:
        """Restore every attribute :meth:`install` replaced."""
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _patch(self, module, attr: str, value) -> None:
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def dump(self, spans_path: str) -> dict:
        """Write the spans to ``spans_path``; return the rest, JSON-ready."""
        with open(spans_path, "wb") as fh:
            self.spans.tofile(fh)
        return {
            "names": self.names,
            "spans_path": spans_path,
            "draws": self.draws,
            "distinct_regions": len(self.regions),
        }


def summarize(trace: dict) -> dict:
    """Per-function ``[calls, inclusive_ns, self_ns]`` plus run totals.

    ``root_ns`` is the summed duration of spans without a parent (the
    ``cli.main`` calls); ``gdof_ns`` is the time inside the gdof layer,
    counting only gdof spans whose parent is not itself a gdof span.
    """
    names = trace["names"]
    spans = array("q")
    with open(trace["spans_path"], "rb") as fh:
        spans.frombytes(fh.read())
    ids, starts, ends, parents = (spans[i::4] for i in range(4))
    child_ns = [0] * len(ids)
    for start, end, parent in zip(starts, ends, parents):
        if parent >= 0:
            child_ns[parent // 4] += end - start
    gdof_ids = {i for i, name in enumerate(names) if name.startswith("gdof.")}
    totals = [[0, 0, 0] for _ in names]
    root_ns = gdof_ns = 0
    for name_id, start, end, parent, nested in zip(ids, starts, ends, parents, child_ns):
        duration = end - start
        entry = totals[name_id]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - nested
        if parent < 0:
            root_ns += duration
        if name_id in gdof_ids and (parent < 0 or ids[parent // 4] not in gdof_ids):
            gdof_ns += duration
    funcs = {name: entry for name, entry in zip(names, totals) if entry[0]}
    return {
        "funcs": funcs,
        "root_ns": root_ns,
        "gdof_ns": gdof_ns,
        "draws": trace["draws"],
        "distinct_regions": trace["distinct_regions"],
    }


def merge(total: dict | None, part: dict) -> dict:
    """Add one :func:`summarize` result into a running total."""
    if total is None:
        return {**part, "funcs": {k: list(v) for k, v in part["funcs"].items()}}
    for name, (calls, incl, self_ns) in part["funcs"].items():
        entry = total["funcs"].setdefault(name, [0, 0, 0])
        entry[0] += calls
        entry[1] += incl
        entry[2] += self_ns
    for key in ("root_ns", "gdof_ns", "draws", "distinct_regions"):
        total[key] += part[key]
    return total
