"""Per-layer span tracer for the traced benchmark pass.

The tracer wraps functions of the simulator's packages from the outside;
no simulator source changes.  It is installed once, in a fresh benchmark
child process, before any simulator object is built, and never removed.

What gets a span:

* every public function defined on a class of a layer module, and every
  public module-level function (references imported into other modules
  are re-pointed at the wrapper);
* every callback handed to the engine through ``at``/``after``/``defer``
  on the class ``Simulator()`` actually returns.  The callback is
  attributed to the layer of the module that defines it, so a kernel
  timer fired by the run loop counts as kernel time, not engine time.

Spans are not kept one by one: a 4096-rank run makes tens of millions of
calls.  Each wrapper folds its span into per-function counters (calls,
total time) and into its layer's self time as it closes, which keeps the
trace in O(functions) memory.  A layer's self time is the time its spans
were open minus the time their child spans were open.  Time outside any
span, and spans of code outside the layers (workload programs, experiment
glue), is ``other``.
"""

from __future__ import annotations

import enum
import functools
import importlib
import pkgutil
import sys
import types
from time import perf_counter
from typing import Dict, List

#: The simulator packages measured as layers, in report order.
LAYERS = (
    "simcore",
    "kernel",
    "power5",
    "hpcsched",
    "mpi",
    "cluster",
    "trace",
    "campaign",
)
OTHER = "other"


def layer_of(module: str) -> str:
    """The layer a module name belongs to (``other`` when none)."""
    parts = module.split(".")
    if len(parts) >= 2 and parts[0] == "repro" and parts[1] in LAYERS:
        return parts[1]
    return OTHER


class Tracer:
    """Span accounting for one traced run phase."""

    def __init__(self) -> None:
        self.names: List[str] = list(LAYERS) + [OTHER]
        self._index = {name: i for i, name in enumerate(self.names)}
        #: Per-layer self time, indexed like :attr:`names`.
        self.self_s: List[float] = [0.0] * len(self.names)
        #: ``"<layer>:<qualname>" -> [calls, total seconds]``.
        self.stats: Dict[str, List[float]] = {}
        #: Child time of each open span (innermost last).
        self._stack: List[float] = []
        #: Summed duration of outermost spans.
        self._top = [0.0]
        #: ``Simulator.at``/``after`` calls, set-up included (events
        #: scheduled while building are delivered in the run).
        self.scheduled = 0
        #: Instances of the classes named in :meth:`capture`.
        self.instances: Dict[str, list] = {}
        #: One span wrapper per (layer, callback name).
        self._callbacks: Dict[tuple, object] = {}

    # -- span wrappers ------------------------------------------------
    def span(self, fn, layer: str, key: str):
        """``fn`` wrapped in a span of ``layer``, counted under ``key``."""
        li = self._index[layer]
        stat = self.stats.setdefault(f"{layer}:{key}", [0, 0.0])
        stack = self._stack
        self_s = self.self_s
        top = self._top
        clock = perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                self_s[li] += dur - stack.pop()
                stat[0] += 1
                stat[1] += dur
                if stack:
                    stack[-1] += dur
                else:
                    top[0] += dur

        functools.update_wrapper(wrapper, fn)
        wrapper._perfbench_span = True
        return wrapper

    def _callback(self, fn):
        """Wrap an engine callback in a span of its defining layer."""
        target = getattr(fn, "__func__", fn)
        if getattr(target, "_perfbench_span", False):
            return fn  # already a traced public method
        while isinstance(target, functools.partial):
            target = target.func
        module = getattr(target, "__module__", None) or ""
        layer = layer_of(module)
        if layer == "simcore":
            return fn  # engine-internal sentinel: engine self time
        key = "callback:" + getattr(target, "__qualname__", type(target).__name__)
        wrapped = self._callbacks.get((layer, key))
        if wrapped is None:
            wrapped = self._callbacks[(layer, key)] = self.span(_call, layer, key)
        return functools.partial(wrapped, fn)

    # -- installation -------------------------------------------------
    def install(self) -> None:
        """Wrap every layer; call before any simulator object exists."""
        from repro.simcore import Simulator
        from repro.simcore.engine import Simulator as BaseSimulator

        originals: Dict[int, object] = {}
        for layer in LAYERS:
            pkg = importlib.import_module(f"repro.{layer}")
            for info in pkgutil.iter_modules(pkg.__path__):
                module = importlib.import_module(f"{pkg.__name__}.{info.name}")
                self._wrap_module(module, layer, originals)
        self._repoint_imports(originals)

        sim_cls = type(Simulator())
        for cls in {sim_cls, BaseSimulator}:
            self._wrap_scheduling(cls)
        self.capture(sim_cls, "sims")

    def _wrap_module(self, module, layer: str, originals) -> None:
        for attr, value in list(vars(module).items()):
            if attr.startswith("_"):
                continue
            if isinstance(value, types.FunctionType):
                if value.__module__ == module.__name__:
                    wrapped = self.span(value, layer, value.__qualname__)
                    setattr(module, attr, wrapped)
                    originals[id(value)] = (value, wrapped)
            elif (
                isinstance(value, type)
                and value.__module__ == module.__name__
                and not issubclass(value, (enum.Enum, BaseException))
            ):
                self._wrap_class(value, layer)

    def _wrap_class(self, cls: type, layer: str) -> None:
        from repro.simcore.engine import Simulator

        # The engine's scheduling calls get their own wrappers.
        skip = ("at", "after", "defer") if issubclass(cls, Simulator) else ()
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") or attr in skip:
                continue
            if isinstance(value, types.FunctionType):
                setattr(cls, attr, self.span(value, layer, f"{cls.__qualname__}.{attr}"))

    def _repoint_imports(self, originals) -> None:
        """Point ``from x import f`` references at the wrapper."""
        for name, module in list(sys.modules.items()):
            if not name.startswith("repro.") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def _wrap_scheduling(self, cls: type) -> None:
        """Span ``at``/``after``/``defer`` and wrap the callbacks they take."""
        tracer = self
        for attr in ("at", "after"):
            orig = vars(cls).get(attr)
            if orig is None:
                continue

            def schedule(sim, when, fn, *args, _orig=orig, **kwargs):
                tracer.scheduled += 1
                return _orig(sim, when, tracer._callback(fn), *args, **kwargs)

            setattr(cls, attr, self.span(schedule, "simcore", f"{cls.__qualname__}.{attr}"))
        orig_defer = vars(cls).get("defer")
        if orig_defer is not None:

            def defer(sim, fn, _orig=orig_defer):
                return _orig(sim, tracer._callback(fn))

            setattr(cls, "defer", self.span(defer, "simcore", f"{cls.__qualname__}.defer"))

    def capture(self, cls: type, name: str) -> None:
        """Keep every instance of ``cls`` built from now on."""
        bucket = self.instances.setdefault(name, [])
        orig = cls.__init__

        @functools.wraps(orig)
        def init(obj, *args, **kwargs):
            orig(obj, *args, **kwargs)
            bucket.append(obj)

        cls.__init__ = init

    # -- results ------------------------------------------------------
    def reset(self) -> None:
        """Zero the accounting (at the start of the measured phase)."""
        for i in range(len(self.self_s)):
            self.self_s[i] = 0.0
        for stat in self.stats.values():
            stat[0] = 0
            stat[1] = 0.0
        self._top[0] = 0.0

    def calls(self, layer: str, *suffixes: str) -> int:
        """Calls of functions in ``layer`` whose name ends in a suffix."""
        total = 0
        prefix = f"{layer}:"
        for key, stat in self.stats.items():
            if key.startswith(prefix) and key.endswith(suffixes):
                total += int(stat[0])
        return total

    def mean_span_s(self, key: str) -> float:
        """Mean duration of the spans counted under ``key``."""
        calls, total = self.stats.get(key, (0, 0.0))
        return total / calls if calls else 0.0

    def layer_self(self, wall_s: float) -> Dict[str, float]:
        """Self time per layer; ``other`` also holds the time outside
        every span, so the values sum to ``wall_s``."""
        out = {name: self.self_s[i] for i, name in enumerate(self.names)}
        out[OTHER] += wall_s - self._top[0]
        return out


def _call(fn):
    return fn()
