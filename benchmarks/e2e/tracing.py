"""Instruments for the packet path, all installed from outside the program.

:class:`SpanTracer` — structure and exact counts, through two public seams:

* ``Simulator.profiler.dispatch(fn, args)``: the tracer is installed as
  the active observation's profiler (``observe_job`` → ``run_dumbbell``
  copies it onto the simulator), so every event callback runs through
  :meth:`SpanTracer.dispatch`, which counts it and times it as a root
  span (name = ``fn.__qualname__``, layer from ``fn.__module__``);
* class-level wrappers around each layer's entry points
  (:data:`WRAPPED`), restored on exit even when the run raises.  Every
  call is counted; inside one event in :attr:`SpanTracer.period` per
  callback name the wrappers also record full spans (name, layer, start,
  end, parent), a bounded sample of which goes to ``--spans-out``.

With a profiler attached the engine never batches link departures
inline; the simulated statistics are unchanged (the digest is checked).

:class:`StackSampler` — time.  Wrapper spans are *not* the source of the
``*_share`` metrics: around functions that run for a microsecond a Python
wrapper costs as much as the function and books most of that cost to the
*parent* span, so the layer that makes the most wrapped calls read 28 %
when a stack profile says 13 % (``sim.link`` on ``packet.endhost``;
subtracting a calibrated per-call cost still left a factor of two).  A
layer's self time is instead the share of ``SIGPROF`` ticks whose
innermost ``repro`` frame lies in that layer, taken over plain
repetitions with no wrapper and no profiler installed — the same
quantity (time in the layer's own frames, children excluded) without the
instrument in the picture.

:func:`count_calls` — exact Python and C call counts of a shorter pass
under ``sys.setprofile``, again with nothing else installed, so the
engine's inline path stays on.
"""

from __future__ import annotations

import json
import signal
import sys
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.core.response import GentleRedCurve, PiResponse
from repro.core.srtt import EwmaRtt
from repro.obs.runtime import ObsFlags, observe_job
from repro.sim.engine import get_engine_class
from repro.sim.link import Link
from repro.sim.node import Node
from repro.sim.queues.base import QueueDiscipline
from repro.tcp.base import TcpSender, TcpSink
from repro.traffic.web import WebSession

#: module prefix (below ``repro.``) → layer name, first match wins
_LAYERS = (
    ("sim.engine", "sim.engine"), ("sim.link", "sim.link"), ("sim.jitter", "sim.link"),
    ("sim.node", "sim.node"), ("sim.queues", "sim.queues"),
    ("sim.monitors", "sim.monitors"), ("sim.packet", "sim.packet"),
    ("tcp", "tcp.base"), ("core", "core"), ("traffic", "traffic"),
)
#: what a source path of the program under test contains
_SRC = "/src/repro/"
LAYERS = tuple(dict.fromkeys(layer for _prefix, layer in _LAYERS))

#: (base class, method, also wrap the base's own definition?) — the method
#: is wrapped on every class of the base's subclass tree that defines it
WRAPPED = (
    (Link, "send", True),
    (QueueDiscipline, "enqueue", True),
    (QueueDiscipline, "dequeue", True),
    (Node, "receive", True),
    (Node, "send", True),
    (TcpSender, "receive", True),
    (TcpSink, "receive", True),
    (TcpSender, "on_ack", False),  # the base hook is an empty method
    (GentleRedCurve, "probability", True),
    (PiResponse, "update", True),
    (EwmaRtt, "update", True),
)


def layer_of(module: Optional[str]) -> str:
    """Layer a module's time is booked under (``other`` outside the table)."""
    name = (module or "").removeprefix("repro.")
    for prefix, layer in _LAYERS:
        if name == prefix or name.startswith(prefix + "."):
            return layer
    return "other"


def _subclass_tree(base: type) -> List[type]:
    out, todo = [], [base]
    while todo:
        cls = todo.pop()
        out.append(cls)
        todo.extend(cls.__subclasses__())
    return out


class SpanTracer:
    """Profiler-seam dispatcher plus the state the wrappers write into."""

    def __init__(self, period: int = 8, keep_trees: int = 200):
        self.period = period
        self.keep_trees = keep_trees
        #: calls per wrapped method (with its layer) and events per callback
        #: name (exact)
        self.calls: Dict[str, int] = {}
        self.call_layer: Dict[str, str] = {}
        self.events: Dict[str, int] = {}
        #: callback name → [layer, inclusive seconds over all its events]
        self.roots: Dict[str, List[Any]] = {}
        #: span trees of sampled events; a span is a dict with name, layer,
        #: start, end and parent (children are listed before their parent)
        self.trees: List[List[dict]] = []
        #: the tree being recorded and its open-span names, else ``None``
        self._tree: Optional[List[dict]] = None
        self._open: List[str] = []
        #: every sender / web session started (for exact end-of-run counters)
        self.senders: List[TcpSender] = []
        self.sessions: List[WebSession] = []

    # -- the profiler seam ------------------------------------------------
    def dispatch(self, fn: Callable, args: tuple) -> None:
        name = getattr(fn, "__qualname__", None) or type(fn).__name__
        root = self.roots.get(name)
        if root is None:
            root = self.roots[name] = [layer_of(getattr(fn, "__module__", None)), 0.0]
            self.events[name] = 0
        n = self.events[name] = self.events[name] + 1
        record = n % self.period == 0 and len(self.trees) < self.keep_trees
        if record:
            self._tree, self._open = [], [name]
        t0 = perf_counter()
        try:
            fn(*args)
        finally:
            t1 = perf_counter()
            root[1] += t1 - t0
            if record:
                self._tree.append({"name": name, "layer": root[0], "start": t0,
                                   "end": t1, "parent": None})
                self.trees.append(self._tree)
                self._tree = None

    # -- class-level wrappers ---------------------------------------------
    def wrap(self, cls: type, attr: str) -> Callable:
        orig = cls.__dict__[attr]
        name = f"{cls.__name__}.{attr}"
        layer = layer_of(cls.__module__)
        calls = self.calls
        calls[name] = 0
        self.call_layer[name] = layer
        tracer = self

        def wrapper(*args, **kwargs):
            calls[name] += 1
            tree = tracer._tree
            if tree is None:
                return orig(*args, **kwargs)
            open_spans = tracer._open
            parent = open_spans[-1]
            open_spans.append(name)
            t0 = perf_counter()
            try:
                return orig(*args, **kwargs)
            finally:
                t1 = perf_counter()
                open_spans.pop()
                tree.append({"name": name, "layer": layer, "start": t0,
                             "end": t1, "parent": parent})

        wrapper.__name__ = attr
        wrapper.__qualname__ = name
        wrapper.__module__ = cls.__module__
        wrapper.__wrapped__ = orig
        return wrapper

    @staticmethod
    def _collect(cls: type, attr: str, bucket: list) -> Callable:
        orig = cls.__dict__[attr]

        def wrapper(obj, *args, **kwargs):
            bucket.append(obj)
            return orig(obj, *args, **kwargs)

        wrapper.__wrapped__ = orig
        return wrapper

    @contextmanager
    def installed(self) -> Iterator["SpanTracer"]:
        """Wrap the layers and become the active profiler for the block."""
        undo: List[Tuple[type, str, Any]] = []

        def patch(cls, attr, new):
            undo.append((cls, attr, cls.__dict__[attr]))
            setattr(cls, attr, new)

        engine = get_engine_class()
        try:
            for base, attr, include_base in WRAPPED:
                for cls in _subclass_tree(base):
                    if attr in cls.__dict__ and (include_base or cls is not base):
                        patch(cls, attr, self.wrap(cls, attr))
            for attr in ("schedule", "schedule_at", "schedule_fire", "schedule_fire1"):
                if attr in engine.__dict__:
                    patch(engine, attr, self.wrap(engine, attr))
            patch(TcpSender, "start", self._collect(TcpSender, "start", self.senders))
            patch(WebSession, "start", self._collect(WebSession, "start", self.sessions))
            with observe_job(ObsFlags()) as obs:
                obs.profiler = self
                yield self
        finally:
            for cls, attr, orig in reversed(undo):
                setattr(cls, attr, orig)

    def write_trees(self, path: str) -> None:
        """One JSON line per sampled event: its spans, children first."""
        with open(path, "w", encoding="utf-8") as fh:
            for tree in self.trees:
                fh.write(json.dumps(tree) + "\n")


class StackSampler:
    """Self time per layer from ``SIGPROF`` ticks (main thread, CPU time)."""

    def __init__(self, interval: float = 0.001):
        self.interval = interval
        self.ticks: Dict[str, int] = {}

    def _tick(self, _signum, frame) -> None:
        while frame is not None:
            path = frame.f_code.co_filename
            at = path.rfind(_SRC)
            if at >= 0:
                layer = layer_of(path[at + len(_SRC):-3].replace("/", "."))
                break
            frame = frame.f_back
        else:
            layer = "other"
        self.ticks[layer] = self.ticks.get(layer, 0) + 1

    @contextmanager
    def running(self) -> Iterator["StackSampler"]:
        previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0.0)
            signal.signal(signal.SIGPROF, previous)

    def shares(self) -> Dict[str, float]:
        total = sum(self.ticks.values())
        return {layer: n / total for layer, n in self.ticks.items()} if total else {}


def count_calls(fn: Callable[[], Any]) -> Tuple[Any, Dict[Tuple[str, str], int], Dict[str, int]]:
    """Run *fn* under ``sys.setprofile``; returns its result and exact counts.

    Python calls are keyed ``(module below repro, qualified name)`` (files
    outside ``repro`` are dropped), C calls by the builtin's name.
    """
    py: Dict[Any, int] = {}
    cc: Dict[Any, int] = {}

    def prof(frame, event, arg):
        if event == "call":
            code = frame.f_code
            py[code] = py.get(code, 0) + 1
        elif event == "c_call":
            cc[arg] = cc.get(arg, 0) + 1

    sys.setprofile(prof)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
    py_named: Dict[Tuple[str, str], int] = {}
    for code, n in py.items():
        path = code.co_filename
        if _SRC not in path:
            continue
        module = path.rsplit(_SRC, 1)[1].removesuffix(".py").replace("/", ".")
        key = (module, getattr(code, "co_qualname", code.co_name))
        py_named[key] = py_named.get(key, 0) + n
    c_named: Dict[str, int] = {}
    for builtin, n in cc.items():
        key = getattr(builtin, "__qualname__", repr(builtin))
        c_named[key] = c_named.get(key, 0) + n
    return result, py_named, c_named
