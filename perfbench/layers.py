"""Per-layer wall-time attribution, recorded from outside the program.

The traced run wraps the public entry point of each layer of the
toolkit (the table in :data:`LAYER_ENTRY_POINTS`) with a span
recorder.  Nothing in ``src/`` is edited: the wrappers are installed
on the classes and modules at run time and removed again, so a traced
block and an untraced block of the same run execute the same program.

A span is ``(name, start_ns, end_ns, parent, op)``.  Spans are kept in
memory (up to :data:`SPAN_KEEP`) and written out when the run ends.
Self time is computed as each span's duration minus the time its
child spans cover, as the spans close.

Thread awareness: every thread keeps its own span stack.  The socket
transport runs the X server on a ``ServerHost`` thread while the
client thread blocks for the reply; a span that opens at the bottom of
the server thread's stack belongs to the single op in flight (the
closed loop has one) and its duration counts as covered time of the
span the client thread is blocked in.  Per-layer self times plus the
explicit ``other`` remainder therefore sum to the traced op time.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

#: Layer -> (owner, attribute) pairs whose calls are that layer's work.
#: Owners are ``"module.path:Class"`` or ``"module.path"`` strings,
#: resolved at install time.
LAYER_ENTRY_POINTS: Dict[str, List[Tuple[str, str]]] = {
    "tcl": [("repro.tcl.interp:Interp", "eval"),
            ("repro.tcl.interp:Interp", "eval_top"),
            ("repro.tcl.interp:Interp", "call_proc")],
    "tk.dispatch": [("repro.tk.dispatch:EventDispatcher", "do_one_event")],
    "tk.bind": [("repro.tk.bind:BindingTable", "dispatch")],
    "tk.pack": [("repro.tk.pack:Packer", "arrange")],
    "tk.send": [("repro.tk.send:SendManager", "send"),
                ("repro.tk.send:SendManager", "maybe_handle")],
    "x11.display": [("repro.x11.display:Display", "flush")],
    "x11.wire": [("repro.x11.wire", "frame_size"),
                 ("repro.x11.wire", "encode_frame"),
                 ("repro.x11.wire", "decode_frame"),
                 ("repro.x11.wire", "decode_frame_ex")],
    "x11.transport": [
        ("repro.x11.transport:LoopbackTransport", "deliver_batch"),
        ("repro.x11.transport:LoopbackTransport", "request"),
        ("repro.x11.transport:LoopbackTransport", "oneway"),
        ("repro.x11.transport:SocketTransport", "deliver_batch"),
        ("repro.x11.transport:SocketTransport", "request"),
        ("repro.x11.transport:SocketTransport", "oneway")],
    "x11.xserver": [("repro.x11.xserver:XServer", "deliver_batch"),
                    ("repro.x11.xserver:XServer", "press_key"),
                    ("repro.x11.xserver:XServer", "release_key"),
                    ("repro.x11.xserver:XServer", "press_button"),
                    ("repro.x11.xserver:XServer", "release_button"),
                    ("repro.x11.xserver:XServer", "warp_pointer")],
    "obs": [("repro.obs.metrics:MetricsRegistry", "counter"),
            ("repro.obs.metrics:MetricsRegistry", "gauge"),
            ("repro.obs.metrics:MetricsRegistry", "histogram"),
            ("repro.fleet.telemetry:FleetTelemetry", "rollup"),
            ("repro.fleet.telemetry:FleetTelemetry", "update_gauges")],
    "fleet": [("repro.fleet.harness:FleetSession", "step")],
}

#: Layers in report order; ``widgets`` is filled in from the widget
#: classes that define their own ``draw``.
LAYERS = ["tcl", "tk.dispatch", "tk.bind", "tk.pack", "tk.send",
          "widgets", "x11.display", "x11.wire", "x11.transport",
          "x11.xserver", "obs", "fleet"]

#: Every public request handler of the X server is x11.xserver work.
#: These are the names a client can ask the server to run (the wire's
#: REQUEST/ONEWAY frames and the batch entries name them).
XSERVER_REQUESTS = (
    "create_window", "destroy_window", "map_window", "unmap_window",
    "configure_window", "raise_window", "lower_window", "select_input",
    "get_geometry", "query_tree", "set_window_background", "intern_atom",
    "get_atom_name", "change_property", "get_property", "delete_property",
    "set_property_access", "set_selection_owner", "get_selection_owner",
    "convert_selection", "send_event", "set_input_focus",
    "alloc_named_color", "load_font", "create_cursor", "create_bitmap",
    "create_gc", "free_resource", "clear_window", "fill_rectangle",
    "draw_rectangle", "draw_line", "draw_string", "sync", "window_exists")

#: The client-side blocking read of the socket transport.  Its self
#: time (blocked time minus server-thread span time) is the transport
#: wait; it is booked to x11.transport and not counted as a call.
WAIT_ENTRY = ("repro.x11.transport:SocketTransport", "_await_reply")

#: Calls that are counted but not timed: every event the server hands
#: to a client connection.
COUNTED = {"x11.xserver.events": [("repro.x11.xserver:Client", "enqueue"),
                                  ("repro.x11.xserver:Client",
                                   "deliver_direct")]}

#: Layers whose truthy return values are tallied: a binding fired.
FIRED = {"tk.bind": "tk.bind.fired"}

#: Spans kept in memory for the trace file; counts and self times
#: keep accumulating past this.
SPAN_KEEP = 50000


def _resolve(owner: str):
    import importlib
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


def entry_points() -> List[Tuple[str, object, str, bool]]:
    """(layer, owner object, attribute, is_wait) for every wrapped call."""
    points = []
    for layer, pairs in LAYER_ENTRY_POINTS.items():
        for owner, attr in pairs:
            points.append((layer, _resolve(owner), attr, False))
    server = _resolve("repro.x11.xserver:XServer")
    for name in XSERVER_REQUESTS:
        points.append(("x11.xserver", server, name, False))
    from repro.widgets import WIDGET_TYPES
    for cls in WIDGET_TYPES.values():
        if "draw" in cls.__dict__:
            points.append(("widgets", cls, "draw", False))
    owner, attr = WAIT_ENTRY
    points.append(("x11.transport", _resolve(owner), attr, True))
    return points


class _Frame:
    """One open span on a thread's stack."""

    __slots__ = ("sid", "child_ns")

    def __init__(self, sid: int):
        self.sid = sid
        self.child_ns = 0


class SpanRecorder:
    """Thread-aware span stacks with per-layer self-time totals."""

    def __init__(self):
        self.main_ident = threading.get_ident()
        #: thread ident -> list of open _Frame
        self._stacks: Dict[int, List[_Frame]] = {}
        #: id of the op in flight; spans outside an op are not recorded
        self.op: Optional[int] = None
        #: time covered by server-thread spans while the client thread
        #: had no span open (booked against the op itself)
        self.op_covered_ns = 0
        self.calls: Dict[str, int] = {}
        self.self_ns: Dict[str, int] = {}
        self.wait_ns = 0
        self.errors: Dict[str, int] = {}
        #: counted calls (COUNTED) and tallied results (FIRED)
        self.tally: Dict[str, int] = {}
        #: layer -> the exception last counted, so an error unwinding
        #: through nested spans of one layer counts once
        self._last_error: Dict[str, BaseException] = {}
        self.spans: List[tuple] = []
        self.dropped = 0
        self._sids = itertools.count(1)
        self._names: Dict[str, int] = {}
        self._lock = threading.Lock()

    def _name_id(self, name: str) -> int:
        index = self._names.get(name)
        if index is None:
            index = self._names[name] = len(self._names)
        return index

    def count(self, key: str, func: Callable) -> Callable:
        """A wrapper that only counts calls made during an op."""
        recorder = self

        def counted(*args, **kwargs):
            if recorder.op is not None:
                recorder.tally[key] = recorder.tally.get(key, 0) + 1
            return func(*args, **kwargs)

        counted.__wrapped__ = func
        return counted

    def wrap(self, layer: str, name: str, func: Callable,
             wait: bool = False, errors: Tuple[type, ...] = ()
             ) -> Callable:
        recorder = self
        stacks = self._stacks
        clock = time.perf_counter_ns
        get_ident = threading.get_ident
        sids = self._sids
        name_id = self._name_id(name)
        fired = FIRED.get(layer)

        def traced(*args, **kwargs):
            op = recorder.op
            if op is None:
                return func(*args, **kwargs)
            ident = get_ident()
            stack = stacks.get(ident)
            if stack is None:
                stack = stacks[ident] = []
            frame = _Frame(next(sids))
            parent = stack[-1].sid if stack else 0
            stack.append(frame)
            start = clock()
            try:
                result = func(*args, **kwargs)
            except errors as error:
                if recorder._last_error.get(layer) is not error:
                    recorder._last_error[layer] = error
                    recorder.errors[layer] = \
                        recorder.errors.get(layer, 0) + 1
                raise
            finally:
                end = clock()
                stack.pop()
                recorder._close(layer, name_id, wait, ident, stack,
                                frame, parent, op, start, end)
            if fired and result:
                recorder.tally[fired] = recorder.tally.get(fired, 0) + 1
            return result

        traced.__wrapped__ = func
        return traced

    def _close(self, layer, name_id, wait, ident, stack, frame, parent,
               op, start, end) -> None:
        duration = end - start
        # Both threads close spans while a socket op is in flight (the
        # client decodes event frames while the server still works), so
        # the shared totals and the client's open frames are updated
        # under one lock.
        with self._lock:
            self_ns = duration - frame.child_ns
            if wait:
                self.wait_ns += self_ns
            else:
                self.calls[layer] = self.calls.get(layer, 0) + 1
            self.self_ns[layer] = self.self_ns.get(layer, 0) + self_ns
            if stack:
                stack[-1].child_ns += duration
            elif ident != self.main_ident:
                # A root span on the server thread: the client thread
                # is blocked in a transport call for this op's reply,
                # so the span's time is covered time of whatever span
                # the client thread has open (or of the op itself).
                main = self._stacks.get(self.main_ident)
                if main:
                    main[-1].child_ns += duration
                    parent = main[-1].sid
                else:
                    self.op_covered_ns += duration
            if len(self.spans) < SPAN_KEEP:
                self.spans.append((frame.sid, name_id, start, end, parent,
                                   op))
            else:
                self.dropped += 1

    def write(self, path: str) -> None:
        """Write the kept spans as one JSON document."""
        names = sorted(self._names, key=self._names.get)
        with open(path, "w") as handle:
            json.dump({"fields": ["id", "name", "start_ns", "end_ns",
                                  "parent", "op"],
                       "names": names, "spans": self.spans,
                       "dropped": self.dropped}, handle)
            handle.write("\n")


class Instrumentation:
    """Installs and removes the layer wrappers (and the planted delay)."""

    def __init__(self, recorder: Optional[SpanRecorder] = None,
                 plant_pack_us: float = 0.0):
        self.recorder = recorder
        self.plant_pack_us = plant_pack_us
        self._saved: List[Tuple[object, str, object]] = []
        self.installed = False

    def install(self) -> None:
        if self.installed:
            return
        from repro.tcl.errors import TclError
        from repro.x11.xserver import XProtocolError
        error_types = {"tcl": (TclError,), "x11.xserver": (XProtocolError,)}
        if self.plant_pack_us:
            self._patch(_resolve("repro.tk.pack:Packer"), "arrange",
                        _planted_delay(self.plant_pack_us))
        if self.recorder is not None:
            for layer, owner, attr, wait in entry_points():
                name = "%s.%s" % (getattr(owner, "__name__", owner), attr)
                self._patch(owner, attr, lambda func, layer=layer,
                            name=name, wait=wait: self.recorder.wrap(
                                layer, name, func, wait,
                                error_types.get(layer, ())))
            for key, pairs in COUNTED.items():
                for owner, attr in pairs:
                    self._patch(_resolve(owner), attr,
                                lambda func, key=key: self.recorder.count(
                                    key, func))
        self.installed = True

    def _patch(self, owner, attr: str, make: Callable) -> None:
        # Only attributes the owner defines itself: restoring one it
        # inherits would leave a copy behind in the subclass.
        original = vars(owner)[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []
        self.installed = False


def _planted_delay(microseconds: float) -> Callable:
    """A wrapper factory adding a fixed busy-wait to every call."""
    delay_ns = int(microseconds * 1000)

    def make(func):
        clock = time.perf_counter_ns

        def slowed(*args, **kwargs):
            until = clock() + delay_ns
            while clock() < until:
                pass
            return func(*args, **kwargs)

        slowed.__wrapped__ = func
        return slowed

    return make
