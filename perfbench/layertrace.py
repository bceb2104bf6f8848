"""Outside-in host-time tracing of each layer's public entry points.

``LayerTrace.install()`` replaces a fixed list of public functions with
timing wrappers by patching class attributes (or, for ``fast_deepcopy``,
the module globals it is bound to) and ``uninstall()`` puts the
originals back.  Nothing under ``src/`` is edited.

Most entry points are generator coroutines driven by the simulation
engine, so a call returns a generator at once and does its work over
several later resumptions.  The wrapper therefore times each
*resumption* of the generator as one span, and counts the call once.
Spans nest: a resumption of ``DiscProcess.serve_request`` that calls
``ProcessPair.checkpoint_multi`` which calls ``fast_deepcopy`` yields
three spans, and each span's *self* time is its duration minus the
spans nested in it.  Host time spent outside every span is the engine
residual (the engine's ``run()`` inlines ``step()``, so it cannot be
wrapped itself).

Wrappers forward ``send``/``throw``/``close`` exactly as ``yield from``
would, so the simulated history of a traced run is identical to an
untraced one; the benchmark checks that it is.
"""

from __future__ import annotations

import gzip
import os
from array import array
from collections import Counter
from time import perf_counter_ns
from types import SimpleNamespace
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

import repro.core.rollforward as _rollforward
import repro.discprocess.volume as _volume
import repro.guardian.pair as _pair
import repro.sim.fastcopy as _fastcopy
from repro.core import AuditProcess, TmfNode
from repro.core.backout import BackoutProcess
from repro.core.tmp import TmpProcess
from repro.discprocess import DiscProcess
from repro.encompass import TerminalControlProcess
from repro.guardian import MessageSystem, ProcessPair
from repro.hardware import Cpu, MirroredVolume

__all__ = ["LAYERS", "LayerTrace"]

#: the layers of the import DAG, bottom to top; a span key's layer is
#: the text before its first dot.
LAYERS = ("sim", "hardware", "guardian", "discprocess", "core", "encompass")

#: modules whose global name ``fast_deepcopy`` is the copy entry point
#: (checkpoint images, DISCPROCESS replies and audit images, recovery).
_FASTCOPY_SITES = (_pair, _volume, _rollforward)

#: at most this many spans are kept for the span file; aggregates are
#: always exact.
SPAN_CAP = 400_000


def _payload_kind(args: Tuple[Any, ...], index: int) -> str:
    return type(args[index].payload).__name__


class LayerTrace:
    """Wraps the layers' entry points and aggregates host time per key."""

    def __init__(self) -> None:
        self.active = False
        self._stack: List[List[Any]] = []
        self._patches: List[Tuple[Any, str, Any]] = []  # (owner, name, own value)
        #: key -> nanoseconds of self / inclusive time, and call counts
        self.self_ns: Counter = Counter()
        self.incl_ns: Counter = Counter()
        self.calls: Counter = Counter()
        #: deterministic side counts (payload kinds, records, cpu ms)
        self.counts: Counter = Counter()
        self.cpu_charged_ms = 0.0
        #: host ns covered by outermost spans (everything but the engine)
        self.top_ns = 0
        self._key_ids: Dict[str, int] = {}
        self._next_call = 0
        # span columns: call id, key id, start, end, enclosing call id
        self.spans = [array("q") for _ in range(5)]
        self.spans_dropped = 0

    # ------------------------------------------------------------------
    # Span bookkeeping
    # ------------------------------------------------------------------
    def _open(self, key: str, call: int) -> List[Any]:
        frame = [key, call, perf_counter_ns(), 0]
        self._stack.append(frame)
        return frame

    def _close(self, frame: List[Any]) -> None:
        end = perf_counter_ns()
        stack = self._stack
        stack.pop()
        if not self.active:
            return
        key, call, start, nested = frame
        elapsed = end - start
        self.incl_ns[key] += elapsed
        self.self_ns[key] += elapsed - nested
        if stack:
            parent = stack[-1]
            parent[3] += elapsed
            parent_call = parent[1]
        else:
            self.top_ns += elapsed
            parent_call = -1
        if len(self.spans[0]) < SPAN_CAP:
            key_id = self._key_ids.setdefault(key, len(self._key_ids))
            for column, value in zip(self.spans, (call, key_id, start, end, parent_call)):
                column.append(value)
        else:
            self.spans_dropped += 1

    def _new_call(self, key: str) -> int:
        self._next_call += 1
        if self.active:
            self.calls[key] += 1
        return self._next_call

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def _timed_generator(self, key: str, call: int, generator: Any) -> Any:
        value: Any = None
        error: Optional[BaseException] = None
        while True:
            frame = self._open(key, call)
            try:
                if error is None:
                    target = generator.send(value)
                else:
                    thrown, error = error, None
                    target = generator.throw(thrown)
            except StopIteration as stop:
                self._close(frame)
                return stop.value
            except BaseException:
                self._close(frame)
                raise
            self._close(frame)
            try:
                value = yield target
            except GeneratorExit:
                generator.close()
                raise
            except BaseException as exc:  # noqa: BLE001 - forwarded as yield from would
                error, value = exc, None

    def wrap_generator(self, fn: Callable, key: Union[str, Callable[..., str]],
                       note: Optional[Callable[..., None]] = None) -> Callable:
        """Wrap generator function ``fn``; ``key`` may be computed per call."""
        trace = self
        key_of = key if callable(key) else (lambda *args: key)

        def traced(*args: Any, **kwargs: Any) -> Any:
            key = key_of(*args)
            call = trace._new_call(key)
            if note is not None and trace.active:
                note(*args, **kwargs)
            return trace._timed_generator(key, call, fn(*args, **kwargs))

        traced.__wrapped__ = fn
        return traced

    def wrap_call(self, fn: Callable, key: str,
                  note: Optional[Callable[..., None]] = None) -> Callable:
        trace = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            call = trace._new_call(key)
            if note is not None and trace.active:
                note(*args, **kwargs)
            frame = trace._open(key, call)
            try:
                return fn(*args, **kwargs)
            finally:
                trace._close(frame)

        traced.__wrapped__ = fn
        return traced

    def _counter(self, label: str) -> Callable[..., None]:
        def note(*args: Any, **kwargs: Any) -> None:
            self.counts[label] += 1

        return note

    def _patch(self, owner: Any, name: str, replacement: Any) -> None:
        # An inherited attribute (``Cpu.fail`` is ``Component.fail``) is
        # shadowed on ``owner`` and deleted again on uninstall.
        own = vars(owner).get(name)
        self._patches.append((owner, name, own))
        setattr(owner, name, replacement)

    # ------------------------------------------------------------------
    # The traced entry points
    # ------------------------------------------------------------------
    def install(self, extra: Optional[Callable[["LayerTrace"], None]] = None) -> None:
        """Patch every traced entry point (``extra`` may add more first)."""
        if self._patches:
            raise RuntimeError("LayerTrace is already installed")
        if extra is not None:
            extra(self)
        counts = self.counts

        def note_request(ms, caller, dest_node, dest_name, payload, *rest, **kw):
            counts[f"request.{type(payload).__name__}"] += 1
            if dest_node != caller.node_name:
                counts["request.inter_node"] += 1

        def note_audit(audit, proc, message):
            payload = message.payload
            records = getattr(payload, "records", None)
            if records is not None:
                counts["audit.append_records"] += len(records)

        def note_tmp(tmp, proc, message):
            if message.source_node != tmp.node_name:
                counts["tmp.inter_node"] += 1

        def note_charge(cpu, ms):
            self.cpu_charged_ms += ms

        gen = self.wrap_generator
        self._patch(MessageSystem, "request", gen(
            MessageSystem.request, "guardian.request", note_request))
        for name in ("checkpoint", "checkpoint_update", "checkpoint_multi"):
            self._patch(ProcessPair, name, gen(
                getattr(ProcessPair, name), "guardian.checkpoint",
                self._counter(f"checkpoint.{name}")))
        self._patch(DiscProcess, "serve_request", gen(
            DiscProcess.serve_request, "discprocess.serve"))
        self._patch(AuditProcess, "serve_request", gen(
            AuditProcess.serve_request,
            lambda *a: f"core.audit.{_payload_kind(a, 2)}", note_audit))
        self._patch(TmpProcess, "serve_request", gen(
            TmpProcess.serve_request,
            lambda *a: f"core.tmp.{_payload_kind(a, 2)}", note_tmp))
        self._patch(BackoutProcess, "serve_request", gen(
            BackoutProcess.serve_request, "core.backout"))
        self._patch(TmfNode, "begin", gen(TmfNode.begin, "core.begin"))
        self._patch(TmfNode, "end", gen(TmfNode.end, "core.end"))
        self._patch(TerminalControlProcess, "serve_request", gen(
            TerminalControlProcess.serve_request, "encompass.unit"))
        self._patch(MirroredVolume, "read_block", self.wrap_call(
            MirroredVolume.read_block, "hardware.read_block"))
        self._patch(MirroredVolume, "write_block", self.wrap_call(
            MirroredVolume.write_block, "hardware.write_block"))
        self._patch(Cpu, "charge", self.wrap_call(
            Cpu.charge, "hardware.charge", note_charge))
        # A CPU failure runs every takeover it causes synchronously.
        self._patch(Cpu, "fail", self.wrap_call(Cpu.fail, "guardian.takeover"))
        fastcopy = self.wrap_call(_fastcopy.fast_deepcopy, "sim.fastcopy")
        for module in _FASTCOPY_SITES:
            self._patch(module, "fast_deepcopy", fastcopy)
        fallback = SimpleNamespace(deepcopy=self.wrap_call(
            _fastcopy.copy.deepcopy, "sim.deepcopy_fallback"))
        self._patch(_fastcopy, "copy", fallback)

    def wrap_servers(self, system: Any) -> None:
        """Time the application server handlers of a built system."""
        for server_class in system.server_classes.values():
            server_class.handler = self.wrap_generator(
                server_class.handler, "encompass.server"
            )

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            if original is None:
                delattr(owner, name)
            else:
                setattr(owner, name, original)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def layer_self_ns(self) -> Dict[str, int]:
        totals = {layer: 0 for layer in LAYERS}
        for key, ns in self.self_ns.items():
            totals[key.split(".", 1)[0]] += ns
        return totals

    def self_of(self, prefix: str) -> int:
        return sum(ns for key, ns in self.self_ns.items() if key.startswith(prefix))

    def calls_of(self, prefix: str) -> int:
        return sum(n for key, n in self.calls.items() if key.startswith(prefix))

    def deterministic_counts(self) -> Dict[str, Any]:
        """Every count the trace made (identical across same-seed runs)."""
        counts = {f"calls.{key}": n for key, n in self.calls.items()}
        counts.update(self.counts)
        counts["cpu_charged_ms"] = self.cpu_charged_ms
        return dict(sorted(counts.items()))

    def write_spans(self, path: str) -> int:
        """Write the kept spans as gzip'd CSV; returns the row count."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        names = {key_id: key for key, key_id in self._key_ids.items()}
        calls, keys, starts, ends, parents = self.spans
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("call,key,start_ns,end_ns,parent_call\n")
            for row in zip(calls, keys, starts, ends, parents):
                out.write(f"{row[0]},{names[row[1]]},{row[2]},{row[3]},{row[4]}\n")
        return len(calls)
