"""Outside-in span tracer for splitstream.

``Tracer.install()`` replaces the public functions and methods listed in
``SPANS`` with wrappers that record one span per call, at every name a
caller looks them up by: a function imported into several modules (say
``codec.encode``, bound in ``codec``, ``pipeline`` and the package root) is
patched in each of them, and methods are patched on their class.
``uninstall()`` puts the originals back.  Nothing under ``src/`` changes.

A span is (name, start, end, parent, op): times from ``perf_counter_ns``,
the parent is the index of the enclosing span (-1 at top level) and ``op``
is the operation id the benchmark set before the call.  Spans are kept in
flat arrays in memory and written out once, at the end (``save``).  Calls
run on one thread and nest strictly, so a span's self time is its duration
minus the durations of its direct children.

Some wrappers also feed counters from the call's arguments and result
(``COUNTERS``); ``Simulator.at`` is only counted, not spanned, because the
event count is the number that matters and it is called per packet.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter

import numpy as np

from splitstream import (codec, concealment, model, netsim, pipeline,
                         protocol, quantizer, tensor, tiling)

# (owner, attribute, span name).  The first component of a span name is the
# layer its self time is charged to.
SPANS = [
    (model.SplitModel, "__init__", "model.init"),
    (model.SplitModel, "generate_input", "model.generate_input"),
    (model.SplitModel, "forward_client", "model.forward_client"),
    (model.SplitModel, "forward_server", "model.forward_server"),
    (tensor, "collect_stats", "tensor.collect_stats"),
    (quantizer, "quantize", "quantizer.quantize"),
    (quantizer, "dequantize", "quantizer.dequantize"),
    (tiling, "tile", "tiling.tile"),
    (tiling, "detile", "tiling.detile"),
    (tiling, "layout_for", "tiling.layout_for"),
    (codec, "encode", "codec.encode"),
    (codec, "decode", "codec.decode"),
    (codec, "decode_prefix", "codec.decode_prefix"),
    (codec, "encode_to_target", "codec.encode_to_target"),
    (codec, "undecoded_plane_mask", "codec.undecoded_plane_mask"),
    (codec, "rate_fidelity_curve", "codec.rate_fidelity_curve"),
    (concealment, "conceal", "concealment.conceal"),
    (concealment, "apply_mask", "concealment.apply_mask"),
    (concealment, "side_channel_means", "concealment.side_channel_means"),
    (protocol, "encode_message", "protocol.wire"),
    (protocol, "make_control", "protocol.control"),
    (protocol, "parse_control", "protocol.control"),
    (protocol, "may_send", "protocol.may_send"),
    (protocol, "should_process_frame", "protocol.drop_rule"),
    (protocol, "frame_deadline_us", "protocol.deadline"),
    (protocol.SendBuffer, "enqueue", "protocol.send_buffer"),
    (protocol.SendBuffer, "peek", "protocol.send_buffer"),
    (protocol.SendBuffer, "pop_next", "protocol.send_buffer"),
    (protocol.FrameAssembler, "add", "protocol.reassembly"),
    (protocol.FrameAssembler, "payload", "protocol.reassembly"),
    (netsim.Simulator, "run_until", "netsim.run_until"),
    (netsim.Link, "send", "netsim.link"),
    (pipeline, "run_session", "pipeline.session"),
    (pipeline, "corpus_stats", "pipeline.corpus_stats"),
] + [
    (protocol.BandwidthEstimator, meth, "protocol.estimator")
    for meth in ("record_sent", "process_confirmation", "record_received",
                 "estimate_bandwidth", "expected_lost_bytes",
                 "unreceived_bytes", "outstanding_bytes")
]


def _count_may_send(tr, args, result, _state):
    tr.counters["protocol.may_send.refused"] += not result


def _count_decode_prefix(tr, args, result, _state):
    _plane, done, total = result
    tr.counters["codec.blocks_decoded"] += done
    tr.counters["codec.blocks_in_prefix_streams"] += total


def _count_conceal(tr, args, result, _state):
    tr.counters["concealment.elements_concealed"] += int(args[1].missing.sum())


def _count_dequantize(tr, args, result, _state):
    tr.counters["quantizer.elements_dequantized"] += result.data.size


def _inside_encode_to_target(tr, args):
    return tr.open_span_name() == "codec.encode_to_target"


def _count_encode(tr, args, result, in_target):
    # an encode inside encode_to_target is an attempt; its caller records
    # the stream that is kept
    if not in_target:
        tr.counters["codec.frames_encoded"] += 1
        tr.counters["codec.bytes_encoded"] += len(result)
    else:
        tr.counters["codec.encodes_in_target"] += 1


def _count_encode_to_target(tr, args, result, _state):
    tr.counters["codec.frames_encoded"] += 1
    tr.counters["codec.bytes_encoded"] += len(result[0])


def _link_dropped_before(tr, args):
    return args[0].dropped


def _count_link_send(tr, args, result, dropped_before):
    tr.counters["netsim.link.sends"] += 1
    tr.counters["netsim.link.drops"] += args[0].dropped > dropped_before


# span name -> (before(tracer, args) -> state, after(tracer, args, result, state))
COUNTERS = {
    "protocol.may_send": (None, _count_may_send),
    "codec.decode_prefix": (None, _count_decode_prefix),
    "concealment.conceal": (None, _count_conceal),
    "quantizer.dequantize": (None, _count_dequantize),
    "codec.encode": (_inside_encode_to_target, _count_encode),
    "codec.encode_to_target": (None, _count_encode_to_target),
    "netsim.link": (_link_dropped_before, _count_link_send),
}


def _bindings(owner, attr):
    """Every (namespace, attribute) under which callers reach owner.attr."""
    if isinstance(owner, type):
        return owner.__dict__[attr], [(owner, attr)]
    original = getattr(owner, attr)
    found = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "splitstream"
                               or mod_name.startswith("splitstream.")):
            continue
        for name, value in vars(mod).items():
            if value is original:
                found.append((mod, name))
    return original, found


class Tracer:
    """Span recorder; ``install``/``uninstall`` switch the wrappers."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.name = array("i")
        self.op = array("q")
        self.op_id = -1
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open_span_name(self) -> str | None:
        """Name of the innermost open span."""
        return self.names[self.name[self._stack[-1]]] if self._stack else None

    def _wrap(self, fn, span_name: str):
        nid = self.name_id(span_name)
        before, after = COUNTERS.get(span_name, (None, None))
        start, end, parent, name, op = (self.start, self.end, self.parent,
                                        self.name, self.op)
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            state = before(tracer, args) if before is not None else None
            idx = len(start)
            parent.append(stack[-1] if stack else -1)
            name.append(nid)
            op.append(tracer.op_id)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(tracer, args, result, state)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", span_name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _count_events(self, fn):
        counters = self.counters

        def counted(*args, **kwargs):
            counters["netsim.events"] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- switching

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, span_name in SPANS:
            original, where = _bindings(owner, attr)
            wrapped = self._wrap(original, span_name)
            for ns, name in where:
                self._saved.append((ns, name, original))
                setattr(ns, name, wrapped)
        at = netsim.Simulator.__dict__["at"]
        self._saved.append((netsim.Simulator, "at", at))
        netsim.Simulator.at = self._count_events(at)

    def uninstall(self) -> None:
        for ns, name, original in reversed(self._saved):
            setattr(ns, name, original)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- reading

    def __len__(self) -> int:
        return len(self.start)

    def arrays(self) -> dict[str, np.ndarray]:
        """Zero-copy views of the span columns.  While a view is alive the
        tracer cannot record (the columns cannot grow), so read spans only
        once recording is over."""
        if self._stack:
            raise RuntimeError("spans still open")
        return {
            "start": np.frombuffer(self.start, dtype=np.int64),
            "end": np.frombuffer(self.end, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "name": np.frombuffer(self.name, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int64),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def self_times_ns(spans: dict[str, np.ndarray]) -> np.ndarray:
    """Duration minus the time covered by direct children, per span."""
    dur = spans["end"] - spans["start"]
    has_parent = spans["parent"] >= 0
    covered = np.bincount(spans["parent"][has_parent],
                          weights=dur[has_parent].astype(np.float64),
                          minlength=len(dur))
    return dur - covered.astype(np.int64)


def span_table(spans, self_ns, names, lo: int, hi: int) -> dict[str, dict]:
    """Per span name over spans[lo:hi]: calls, self ns, durations ns."""
    dur = spans["end"] - spans["start"]
    out: dict[str, dict] = {}
    ids = spans["name"][lo:hi]
    for nid in np.unique(ids):
        sel = np.flatnonzero(ids == nid) + lo
        out[names[nid]] = {
            "calls": int(len(sel)),
            "self_ns": int(self_ns[sel].sum()),
            "dur_ns": dur[sel],
        }
    return out
