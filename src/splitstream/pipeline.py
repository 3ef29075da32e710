"""End-to-end split-inference sessions over the simulated network.

``run_session`` plays a whole capture-compress-stream-infer loop between a
client endpoint and a server endpoint on one ``Simulator``, with
``codec.pack`` and ``codec.unpack`` the whole frame path:

    MODEL_SWITCH -> MODEL_READY, then per frame
    generate -> forward_client -> pack -> packetize -> (simulated link)
    -> reassemble -> unpack -> forward_server -> RESULT

The client paces DATA packets through the ``may_send`` gate: while the
gate is shut it polls it every ``pacing_us`` with ``Simulator.poll``,
which skips the idle polls (those before ``_Client.idle_until``) rather
than running them.  It skips frames via ``should_process_frame`` when it
is falling behind; the drain time fed to that rule covers the unsent
backlog as well as in-flight bytes, so a persistent bottleneck surfaces
as recorded frame drops rather than queue growth.  The server confirms
every DATA message, waits for stragglers until the frame deadline, then
processes whatever arrived, concealing what the missing bytes carried
(under strategy ``"none"`` a damaged frame fails).

Lost payload is never retransmitted (concealment covers it), but frame
existence is made reliable: if no confirmation for a frame has come back
well after its last packet went out, the client resends a zero-payload
end marker so the server can conceal the frame outright instead of never
learning it existed.

Both links carry wire bytes: every message is sent as
``encode_message(msg)`` and every receiver starts with ``decode_message``.
Both ends take the session (cut, quantizer, concealment strategy, top-k)
from one parser, ``_parse_session``: the server from the MODEL_SWITCH
body (``ProtocolError`` if malformed), ``run_session`` from its config's
body before any set-up (``SessionError``).  The per-channel side means
are the one modelled out-of-band channel, assumed lossless and free;
dataset statistics are the shared model's own ``corpus_stats``, so both
ends agree without transmission.  Seeded draws and integer simulated time
make a config (link seed included) reproduce its report byte for byte.

Inference off the simulated path runs beside it where a second core is
usable (``_OffPath``): a helper process, forked at the first kept frame of
a model's first session and kept for its later ones, computes each kept
frame's clean argmax, the agreement oracle that fills in ``agree`` when
the report is built, and the server's scores of the stream as submitted.
The helper is a byte-keyed cache of the server's pure function,
``_server_scores``, not a channel: the server takes its scores only for a
frame that arrived with no gap and exactly the submitted bytes, under its
own session and stats, reads them in order, blocking, and computes every
other frame itself.  So the report is the same bytes with a helper or
without one.
"""

from __future__ import annotations

import functools
import math
import statistics
import time
from collections import deque
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import codec
from .codec import TargetInfeasibleError, pack, quality_table, unpack
from .concealment import STRATEGIES, side_channel_means
from .model import (CLASS_NAMES, CUT_POINTS, MODEL_NAME, CutPoint, SplitModel,
                    corpus_stats, cut_point, keep_helper, take_helper)
from .netsim import Link, LinkConfig, Simulator
from .protocol import (BandwidthEstimator, Confirmation, FrameAssembler,
                       MsgType, ProtocolError, SendBuffer, WireMessage,
                       decode_message, encode_message, frame_deadline_us,
                       gate_shut_until, make_control, may_send, parse_control,
                       should_process_frame)
from .quantizer import QuantizerSpec
from .strategy import StrategyProfile
from .tensor import FeatureTensor, TensorStats, collect_stats

__all__ = [
    "LinkScenario",
    "PipelineConfig",
    "SessionError",
    "run_session",
    "measure_profiles",
    "corpus_stats",
]

encode = codec.encode   # never called here; a tracer test checks this binding

FRAME_ROW_KEYS = ("frameNumber", "sentBytes", "dropped", "concealedRanges",
                  "latency_us", "agree", "status")


class SessionError(Exception):
    pass


@dataclass(frozen=True)
class LinkScenario:
    """Network scenario shared by both link directions."""

    bandwidth_bps: float = 1e6
    rtt_us: int = 20_000
    loss_prob: float = 0.0
    jitter_us: int = 0
    seed: int = 1
    duration_us: int = 0          # 0 = long enough for all frames plus drain


@dataclass(frozen=True)
class PipelineConfig:
    cut: str = "stage2"
    levels: int = 256
    clip_width: float = 3.0
    quant_mode: str = "aggregate"
    quality: int = 85
    target_bytes: int = 0         # nonzero switches encode to rate targeting
    conceal: str = "dataset_mean"  # or zero/channel_mean/hybrid/none
    frames: int = 30
    frame_interval_us: int = 33_333
    mss: int = 1400
    top_k: int = 5
    server_rate_limit_us: int = 0
    client_process_us: int = 15_000
    server_process_us: int = 10_000
    handshake_timeout_us: int = 2_000_000
    handshake_retry_us: int = 250_000
    pacing_us: int = 1_000
    downlink_loss_prob: float = 0.0
    stats_images: int = 64
    model_seed: int = 0x5EED
    invert_drop_rule: bool = False
    link: LinkScenario = field(default_factory=LinkScenario)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "PipelineConfig":
        if not isinstance(d, dict):
            raise TypeError(f"a config is a JSON object, not {type(d).__name__}")
        d = dict(d)
        link = d.pop("link", {})
        if isinstance(link, dict):
            link = LinkScenario(**link)
        return cls(link=link, **d)


# the types a scalar field of either config dataclass takes, by annotation
_SCALAR_TYPES = {
    "int": ((int,), "an integer"),
    "float": ((int, float), "a number"),
    "bool": ((bool,), "true or false"),
    "str": ((str,), "a string"),
}

# the least value of each bounded integer field; a zero pacing or retry
# period, or a zero RTT (the lost-frame re-announce period is 2 RTT), would
# reschedule at the same simulated instant forever
_LEAST_VALUES = {
    "mss": 1, "top_k": 1, "stats_images": 2, "pacing_us": 1,
    "handshake_retry_us": 1, "rtt_us": 1, "frames": 0, "frame_interval_us": 0,
    "target_bytes": 0, "server_rate_limit_us": 0, "client_process_us": 0,
    "server_process_us": 0, "handshake_timeout_us": 0, "duration_us": 0,
}

# the greatest value of each integer field whose cost grows with its value:
# a session schedules every frame at MODEL_READY, and corpus_stats holds its
# whole corpus at the cut while collect_stats reduces it (ReLU zeros packed
# away short of the last cut, all float32 at it)
_MOST_VALUES = {"frames": 100_000, "stats_images": 1024}

# a failed handshake resends MODEL_SWITCH every retry period until its
# deadline, and the event log keeps every send
_MOST_HANDSHAKE_RETRIES = 20_000

@dataclass(frozen=True)
class _Session:
    """What one MODEL_SWITCH sets up, at the client and at the server."""

    cut: CutPoint
    spec: QuantizerSpec
    conceal: str
    top_k: int

    @functools.cached_property
    def max_stream(self) -> int:
        """Bytes of the largest stream the cut can produce."""
        return codec.max_stream_size(self.cut.height, self.cut.width, self.cut.channels)


def _switch_body(cfg: PipelineConfig) -> dict:
    """The MODEL_SWITCH body a client with this config sends."""
    return {"model": MODEL_NAME, "cut": cfg.cut, "levels": cfg.levels,
            "clipWidth": cfg.clip_width, "mode": cfg.quant_mode,
            "conceal": cfg.conceal, "topK": cfg.top_k}


def _parse_session(body: dict) -> _Session:
    """The session a MODEL_SWITCH body asks for; the only place its rules are
    checked.  A malformed body raises ``ValueError``; a missing field reads
    as None, which every rule refuses."""
    model, conceal, top_k = body.get("model"), body.get("conceal"), body.get("topK")
    if model != MODEL_NAME:
        raise ValueError(f"unknown model {model!r}")
    spec = QuantizerSpec(body.get("levels"), body.get("clipWidth"), body.get("mode"))
    cut = cut_point(body.get("cut"))
    if conceal not in STRATEGIES + ("none",):
        raise ValueError(f"unknown concealment strategy {conceal!r}")
    if type(top_k) is not int or top_k < 1:
        raise ValueError(f"top-k must be an integer of at least 1, got {top_k!r}")
    return _Session(cut, spec, conceal, top_k)


def _frame_row(k: int) -> dict:
    """Report row of a frame that nothing has happened to yet."""
    return {
        "frameNumber": k, "sentBytes": 0, "dropped": False,
        "concealedRanges": 0, "latency_us": None, "agree": None,
        "status": "incomplete",
    }


def _server_scores(model: SplitModel, session: _Session, stats: TensorStats,
                   data: bytes, gaps=(), side=None) -> np.ndarray:
    """The server's class scores for a frame's bytes: the one routine the
    server runs inline and the helper runs ahead, on intact streams."""
    return model.forward_server(
        unpack(data, session.spec, stats, gaps, session.conceal, side),
        session.cut.name)


def _off_path_work(model: SplitModel, requests, reply):
    """A helper's loop over its model's sessions, one after another: for
    each kept frame, the server's scores of its stream as submitted, then
    its clean argmax; at a session's end (None), all its argmaxes."""
    argmax = {}
    for request in requests:
        if request is None:
            reply(argmax)
            argmax = {}
            continue
        k, clean, bits, context = request
        if context is not None:         # a session's first kept frame
            session, stats = context
        reply(_server_scores(model, session, stats, bits))
        argmax[k] = model.argmax(clean, session.cut.name)


class _OffPath:
    """Each kept frame's inference off the simulated path: its clean argmax
    (the agreement oracle), and the server's scores of its intact stream.

    Where a second core is usable, a helper (``model.take_helper``) runs
    both in submission order while this process simulates: for each frame,
    the server's scores of the stream as submitted, then the clean argmax,
    all of which it returns at the end.  The helper is forked at the first
    kept frame of the model's first session and kept for its later ones
    (a model never changes once built), so a warm session forks nothing.
    The server takes the helper's scores only for a frame that arrives
    with no gap and exactly the submitted bytes, under the session and
    stats they were computed for, so the helper is a byte-keyed cache of
    ``_server_scores``, a pure function, and not a channel; and it reads
    them in order, blocking, so which process computed a result never
    depends on timing.  Where no helper runs, the argmax is taken here at
    capture and the server computes every frame's scores itself.
    """

    def __init__(self, model: SplitModel, session: _Session, stats: TensorStats):
        self.model = model
        self.session = session
        self.stats = stats
        self.helper = None
        self.started = False
        self.argmax: dict[int, int] = {}
        self.streams: dict[int, bytes] = {}     # submitted, scores unclaimed
        self.unread: deque[int] = deque()       # frames whose scores are unread
        self.ready: dict[int, np.ndarray] = {}  # read ahead of their claim

    def submit(self, k: int, clean: FeatureTensor, bits: bytes):
        context = None
        if not self.started:
            self.started = True
            self.helper = take_helper(
                self.model, functools.partial(_off_path_work, self.model))
            context = (self.session, self.stats)
        if self.helper is None:
            self.argmax[k] = self.model.argmax(clean, self.session.cut.name)
            return
        self.helper.submit((k, clean, bits, context))
        self.streams[k] = bits
        self.unread.append(k)

    def scores(self, k: int, data: bytes, gaps, session: _Session,
               stats: TensorStats) -> np.ndarray | None:
        """The helper's scores of frame ``k`` if it arrived intact as
        submitted and the server's session and stats are those they were
        computed under, else None; either way the frame's stream is let
        go."""
        if (gaps or self.streams.get(k) != data or session != self.session
                or stats is not self.stats):
            self.streams.pop(k, None)
            self.ready.pop(k, None)
            return None
        while k not in self.ready:
            self._read()
        del self.streams[k]
        return self.ready.pop(k)

    def _read(self):
        k = self.unread.popleft()
        scores = self.helper.reply()
        if k in self.streams:
            self.ready[k] = scores

    def argmaxes(self) -> dict[int, int]:
        """Every kept frame's clean argmax.  A helper's last reply; the
        helper is then kept for the model's next session."""
        if self.helper is not None:
            self.streams.clear()
            self.helper.submit(None)
            while self.unread:
                self._read()
            self.argmax = self.helper.reply()
            keep_helper(self.model, self.helper)
            self.helper = None
        return self.argmax

    def close(self):
        """Ends a helper not kept by ``argmaxes``: the session failed, and
        the helper may be mid-request."""
        if self.helper is not None:
            self.helper.close()


class _Client:
    def __init__(self, sim: Simulator, cfg: PipelineConfig, session: _Session,
                 model: SplitModel, stats: TensorStats, uplink: Link,
                 offpath: _OffPath):
        self.sim = sim
        self.cfg = cfg
        self.session = session
        self.model = model
        self.stats = stats
        self.uplink = uplink
        self.offpath = offpath
        self.est = BandwidthEstimator(rtt_us=cfg.link.rtt_us)
        self.buffer = SendBuffer()
        self.ready = False
        self.failed: str | None = None
        self.next_slot_us = -math.inf   # server slot of the next frame
        self._pacing_scheduled = False
        self._announced: set[int] = set()
        self.heard: set[int] = set()   # frames with any CONFIRM back
        self.side_store: dict[int, np.ndarray] = {}
        self.frames: dict[int, dict] = {}
        self.max_gauge_excess = float("-inf")
        self.max_queue_bytes = 0

    # -- handshake

    def start(self):
        self._switch_msg = make_control(MsgType.MODEL_SWITCH, 0,
                                        _switch_body(self.cfg))
        self._send_switch()
        self.sim.at(self.cfg.handshake_timeout_us, self._handshake_deadline)

    def _send_switch(self):
        if self.ready or self.failed:
            return
        self.sim.log_event("model_switch", 0, 0, len(self._switch_msg.payload))
        self.uplink.send(encode_message(self._switch_msg))
        self.sim.after(self.cfg.handshake_retry_us, self._send_switch)

    def _handshake_deadline(self):
        if not self.ready:
            self.failed = "handshake timeout"

    def on_downlink(self, data: bytes):
        msg = decode_message(data)
        if msg.msg_type == MsgType.MODEL_READY:
            if not self.ready:
                self.ready = True
                self.sim.log_event("model_ready")
                base = self.sim.now_us
                for k in range(self.cfg.frames):
                    self.sim.at(base + k * self.cfg.frame_interval_us,
                                lambda k=k: self._capture(k))
        elif msg.msg_type == MsgType.CONFIRM:
            conf = Confirmation.unpack(msg.payload)
            self.sim.log_event("confirm", conf.frame_id, conf.packet_offset,
                               int(conf.cumulative_bytes))
            self.heard.add(conf.frame_id)
            self.est.process_confirmation(conf, self.sim.now_us)
            self._drain()
        elif msg.msg_type == MsgType.RESULT:
            self._on_result(msg)

    # -- frames

    def _capture(self, k: int):
        now = self.sim.now_us
        self.sim.log_event("frame_capture", k)
        rec = _frame_row(k)
        rec["capture_us"] = now
        self.frames[k] = rec

        server_remain = self.next_slot_us - now
        bw = self.est.estimate_bandwidth(now)
        # drain time covers queued-but-unsent bytes too, else a bottleneck
        # could never trigger drops and the queue would grow without bound
        backlog = max(self.est.unreceived_bytes(now), 0.0) + self.buffer.pending_bytes
        keep = should_process_frame(
            float(self.cfg.client_process_us), float(server_remain),
            backlog * 1e6 / bw,
        ) != self.cfg.invert_drop_rule
        if keep:
            cut = self.session.cut.name
            t = self.model.forward_client(self.model.generate_input(k), cut)
            try:
                bits = pack(t, self.session.spec, self.stats, self.cfg.quality,
                            self.cfg.target_bytes)[0]
            except TargetInfeasibleError:   # no quality fits the target
                keep = False
        if not keep:
            rec["dropped"] = True
            rec["status"] = "dropped"
            self.sim.log_event("frame_drop", k)
            return
        self.offpath.submit(k, t, bits)
        self.side_store[k] = side_channel_means(t)
        rec["sentBytes"] = len(bits)

        def _enqueue():
            self.buffer.enqueue(k, bits)
            self.max_queue_bytes = max(self.max_queue_bytes,
                                       self.buffer.pending_bytes)
            self._drain()

        self.sim.after(self.cfg.client_process_us, _enqueue)

    def _drain(self):
        now = self.sim.now_us
        while True:
            peek = self.buffer.peek()
            if peek is None:
                return
            if not may_send(self.est, now, self._slot_us(peek[1])):
                self._schedule_pacing()
                return
            msg = self.buffer.pop_next(self.cfg.mss)
            if msg.offset == 0:
                self.next_slot_us = now + self.cfg.server_rate_limit_us
            self.est.record_sent(msg.frame_id, msg.offset, len(msg.payload), now)
            gauge = self.est.outstanding_bytes()
            bound = self.est.expected_lost_bytes(now) + self.cfg.mss
            self.max_gauge_excess = max(self.max_gauge_excess, gauge - bound)
            self.sim.log_event("send", msg.frame_id, msg.offset, len(msg.payload))
            self.uplink.send(encode_message(msg))
            if msg.end_of_tensor:
                self.sim.after(5 * self.cfg.link.rtt_us,
                               lambda m=msg: self._lost_check(m.frame_id,
                                                             m.total_len))

    def _schedule_pacing(self):
        if self._pacing_scheduled:
            return
        self._pacing_scheduled = True

        def _tick():
            self._pacing_scheduled = False
            self._drain()

        self.sim.poll(self.cfg.pacing_us, _tick, self.idle_until)

    def _slot_us(self, offset: int) -> float:
        """The server slot the gate holds a packet at this offset to: only a
        frame's first packet waits for it."""
        return self.next_slot_us if offset == 0 else -math.inf

    def idle_until(self, now: int) -> float:
        """A time before which a pacing tick would only refuse, if nothing
        but the clock moves: ``now`` when the queue is empty, else the head
        packet's ``gate_shut_until``."""
        peek = self.buffer.peek()
        if peek is None:
            return now
        return gate_shut_until(self.est, now, self._slot_us(peek[1]))

    def _lost_check(self, k: int, total_len: int):
        """Re-announce a frame the server has never once confirmed."""
        if k in self.heard:
            return
        # zero-payload DATA at offset == total_len: announces existence + length
        marker = WireMessage(MsgType.DATA, k, total_len, total_len)
        if k not in self._announced:
            self._announced.add(k)
            self.est.record_sent(k, total_len, 0, self.sim.now_us)
        self.sim.log_event("announce", k, total_len, 0)
        left_us = self.uplink.send(encode_message(marker))
        # never re-announce while this announce still waits in the uplink
        self.sim.at(max(self.sim.now_us + 2 * self.cfg.link.rtt_us, left_us),
                    lambda: self._lost_check(k, total_len))

    def _on_result(self, msg: WireMessage):
        body = parse_control(msg)
        k = body["frameNumber"]
        rec = self.frames.get(k)
        if rec is None or rec["latency_us"] is not None:
            return
        rec["latency_us"] = self.sim.now_us - rec["capture_us"]
        rec["concealedRanges"] = body.get("concealedRanges", 0)
        # agree is filled in from the clean argmax when the report is built
        rec["top"] = body["predictions"][0]["name"] if body["predictions"] else ""
        rec["status"] = "ok"
        self.sim.log_event("result", k, 0, msg.total_len)


class _Server:
    def __init__(self, sim: Simulator, cfg: PipelineConfig, model: SplitModel,
                 downlink: Link, side_store: dict[int, np.ndarray],
                 offpath: _OffPath):
        self.sim = sim
        self.cfg = cfg
        self.model = model
        self.downlink = downlink
        self.side_store = side_store
        self.offpath = offpath
        # set by the first well-formed MODEL_SWITCH, from its body alone
        self.session: _Session | None = None
        self.stats: TensorStats | None = None
        self.est = BandwidthEstimator(rtt_us=cfg.link.rtt_us)
        self.assemblers: dict[int, FrameAssembler] = {}
        self.last_arrival: dict[int, int] = {}
        self.processed: set[int] = set()
        self.failed_frames: set[int] = set()
        self.results_sent = 0

    def on_uplink(self, data: bytes):
        msg = decode_message(data)
        if msg.msg_type == MsgType.MODEL_SWITCH:
            self._on_switch(msg)
        elif msg.msg_type == MsgType.DATA:
            self._on_data(msg)
        else:
            raise ProtocolError(f"unexpected uplink message {msg.msg_type}")

    def _on_switch(self, msg: WireMessage):
        body = parse_control(msg)
        if self.session is None:
            try:
                self.session = _parse_session(body)
            except ValueError as exc:
                raise ProtocolError(f"malformed MODEL_SWITCH body: {exc}") from None
            self.stats = corpus_stats(self.model, self.session.cut.name,
                                      self.cfg.stats_images)
            self.sim.log_event("model_switch_recv")
        ready = make_control(MsgType.MODEL_READY, 0,
                             {"status": "ready", "cut": self.session.cut.name})
        self.downlink.send(encode_message(ready))

    def _on_data(self, msg: WireMessage):
        if self.session is None:
            raise ProtocolError("DATA before MODEL_SWITCH handshake")
        if msg.total_len > self.session.max_stream:
            raise ProtocolError(f"DATA declares {msg.total_len} bytes, above "
                                f"the cut's largest stream, {self.session.max_stream}")
        now = self.sim.now_us
        fid = msg.frame_id
        if fid not in self.processed:
            asm = self.assemblers.get(fid)
            if asm is None:
                asm = self.assemblers[fid] = FrameAssembler(fid)
            added = asm.add(msg)
            self.est.record_received(added, now)
            # progress watchdog: each arrival restarts the gap deadline, so
            # gate-paced trickle on a clean link never times a frame out
            self.last_arrival[fid] = now
            window = frame_deadline_us(
                msg.total_len, self.est.estimate_bandwidth(now),
                self.cfg.link.rtt_us,
            )
            self.sim.at(now + window, lambda fid=fid, t=now: self._deadline(fid, t))
        self.sim.log_event("recv", fid, msg.offset, len(msg.payload))
        asm = self.assemblers.get(fid)
        cumulative = asm.bytes_received if asm is not None else msg.total_len
        conf = Confirmation(fid, msg.offset, cumulative, now)
        self.downlink.send(encode_message(conf.message()))
        if fid not in self.processed and self.assemblers[fid].complete:
            self._process(fid)

    def _deadline(self, fid: int, scheduled_at: int):
        # superseded if anything for the frame arrived after scheduling
        if fid in self.processed or self.last_arrival.get(fid) != scheduled_at:
            return
        self.sim.log_event("deadline", fid)
        self._process(fid)

    def _process(self, fid: int):
        self.processed.add(fid)
        asm = self.assemblers.pop(fid)
        data, gaps = asm.payload()
        scores = self.offpath.scores(fid, data, gaps, self.session, self.stats)

        if gaps and self.session.conceal == "none":
            self.failed_frames.add(fid)
            self.sim.log_event("frame_fail", fid, 0, len(gaps))
            return

        if scores is None:
            scores = _server_scores(self.model, self.session, self.stats, data,
                                    gaps, self.side_store.get(fid))
        order = np.argsort(scores)[::-1][: self.session.top_k]
        body = {
            "frameNumber": fid,
            "inferenceTime": self.cfg.server_process_us,
            "predictions": [
                {"name": CLASS_NAMES[i], "score": float(scores[i])}
                for i in order
            ],
            "concealedRanges": len(gaps),
        }

        def _reply():
            result = make_control(MsgType.RESULT, fid, body)
            self.results_sent += 1
            self.sim.log_event("result_sent", fid, 0, result.total_len)
            self.downlink.send(encode_message(result))

        self.sim.after(self.cfg.server_process_us, _reply)


def run_session(config: PipelineConfig,
                model: SplitModel | None = None) -> dict:
    """Simulate a whole session and return the report dict.

    The report is deterministic for a given config (link seed included);
    serialize with sort_keys for stable bytes.  Whether it returns or
    raises, the session's simulator, endpoints and links are freed on
    return by reference counting, with no wait for the cyclic collector.
    """
    cfg = config
    if not isinstance(cfg.link, LinkScenario):
        raise SessionError(f"link must be a LinkScenario, got {cfg.link!r}")
    # a JSON config can put any value anywhere: each scalar field takes only
    # its annotated type (a float field an int too, but never a bool), and
    # no bounded field a value below its least
    for part in (cfg, cfg.link):
        for f in fields(part):
            value = getattr(part, f.name)
            if f.type in _SCALAR_TYPES:
                types, noun = _SCALAR_TYPES[f.type]
                if type(value) not in types:
                    raise SessionError(f"{f.name} must be {noun}, got {value!r}")
            if f.name in _LEAST_VALUES and value < _LEAST_VALUES[f.name]:
                raise SessionError(f"{f.name} must be at least "
                                   f"{_LEAST_VALUES[f.name]}, got {value}")
            if f.name in _MOST_VALUES and value > _MOST_VALUES[f.name]:
                raise SessionError(f"{f.name} must be at most "
                                   f"{_MOST_VALUES[f.name]}, got {value}")
    retries = cfg.handshake_timeout_us // cfg.handshake_retry_us
    if retries > _MOST_HANDSHAKE_RETRIES:
        raise SessionError(
            f"handshake_timeout_us / handshake_retry_us must be at most "
            f"{_MOST_HANDSHAKE_RETRIES}, got {retries}")
    try:
        quality_table(cfg.quality)
        session = _parse_session(_switch_body(cfg))
        up_cfg = LinkConfig(
            bandwidth_bps=cfg.link.bandwidth_bps,
            one_way_delay_us=cfg.link.rtt_us // 2,
            loss_prob=cfg.link.loss_prob,
            jitter_us=cfg.link.jitter_us,
            seed=cfg.link.seed,
        )
        down_cfg = LinkConfig(
            bandwidth_bps=cfg.link.bandwidth_bps,
            one_way_delay_us=cfg.link.rtt_us - cfg.link.rtt_us // 2,
            loss_prob=cfg.downlink_loss_prob,
            jitter_us=cfg.link.jitter_us,
            seed=cfg.link.seed + 1,
        )
    except ValueError as exc:
        raise SessionError(str(exc)) from None
    duration = cfg.link.duration_us or (
        cfg.handshake_timeout_us + cfg.frames * cfg.frame_interval_us
        + 5_000_000
    )
    # no event runs past the horizon, and a CONFIRM carries its receive
    # time in a u64
    if duration >= 1 << 64:
        raise SessionError(f"session horizon {duration} us does not fit a "
                           "CONFIRM's 64-bit receive time")
    if model is None:
        model = SplitModel(cfg.model_seed)
    elif model.seed != cfg.model_seed:
        # the report's config must describe the model that produced it
        raise SessionError(f"model seed {model.seed} does not match "
                           f"model_seed {cfg.model_seed}")
    stats = corpus_stats(model, session.cut.name, cfg.stats_images)

    sim = Simulator()
    uplink = Link(sim, up_cfg, "up")
    downlink = Link(sim, down_cfg, "down")

    offpath = _OffPath(model, session, stats)
    client = _Client(sim, cfg, session, model, stats, uplink, offpath)
    server = _Server(sim, cfg, model, downlink, client.side_store, offpath)
    uplink.deliver = server.on_uplink
    downlink.deliver = client.on_downlink

    try:
        client.start()
        # a failed handshake ends the session at its deadline
        sim.run_until(min(cfg.handshake_timeout_us, duration))
        if client.failed:
            raise SessionError(client.failed)
        sim.run_until(duration)
        clean_argmax = offpath.argmaxes()
    finally:
        # the links join client and server in a ring, and pending events
        # point back at both: cut both so the session is freed on return
        uplink.deliver = downlink.deliver = None
        sim.close()
        offpath.close()

    frames = []
    for k in range(cfg.frames):
        rec = client.frames.get(k) or _frame_row(k)
        if k in server.failed_frames:
            rec["status"] = "failed"
        elif rec["status"] == "ok":
            rec["agree"] = rec["top"] == CLASS_NAMES[clean_argmax[k]]
        frames.append({key: rec[key] for key in FRAME_ROW_KEYS})

    completed = [f for f in frames if f["status"] == "ok"]
    agreements = [f["agree"] for f in completed]
    summary = {
        "frames_total": cfg.frames,
        "frames_dropped": sum(f["dropped"] for f in frames),
        "frames_failed": sum(f["status"] == "failed" for f in frames),
        "frames_completed": len(completed),
        "agreement": (sum(agreements) / len(agreements)) if agreements else None,
        "mean_latency_us": (
            sum(f["latency_us"] for f in completed) / len(completed)
        ) if completed else None,
        "bytes_sent": sum(f["sentBytes"] for f in frames if not f["dropped"]),
        "packets_sent": uplink.sent,
        "packets_dropped": uplink.dropped,
        "results_sent": server.results_sent,
        "max_gauge_excess_bytes": client.max_gauge_excess,
        "max_queue_bytes": client.max_queue_bytes,
    }
    return {
        "config": cfg.to_dict(),
        "frames": frames,
        "summary": summary,
        "event_log": sim.log,
    }


def measure_profiles(model: SplitModel) -> list[StrategyProfile]:
    """Wall-clock cost profiles for the client-only, server-only and per-cut
    split strategies: medians over 20 frames, compressed with the quantizer,
    quality and dataset statistics of the default ``PipelineConfig``."""
    cfg = PipelineConfig()
    spec = QuantizerSpec(cfg.levels, cfg.clip_width, cfg.quant_mode)
    inputs = [model.generate_input(i) for i in range(20)]
    med = statistics.median

    def timed(samples: list, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        samples.append(time.perf_counter() - t0)
        return out

    t_full = []
    for x in inputs:
        timed(t_full, model.predict, x)
    profiles = [StrategyProfile(
        name="client_only", kind="client_only", client_infer_s=med(t_full),
    )]

    # server_only ships the raw input through the same compression path as
    # a split cut ships its tensor, with no client-side stages before it
    for cut in [None] + [c.name for c in CUT_POINTS]:
        if cut is None:
            stats = collect_stats(inputs, label="inputs")
            infer = model.predict
        else:
            stats = corpus_stats(model, cut, cfg.stats_images)
            infer = functools.partial(model.forward_server, cut=cut)
        cli_t, enc_t, dec_t, inf_t, sizes = [], [], [], [], []
        for x in inputs:
            t = x if cut is None else timed(cli_t, model.forward_client, x, cut)
            bits = timed(enc_t, lambda: pack(t, spec, stats, cfg.quality)[0])
            sizes.append(len(bits))
            t_hat = timed(dec_t, unpack, bits, spec, stats)
            timed(inf_t, infer, t_hat)
        profiles.append(StrategyProfile(
            name="server_only" if cut is None else f"split_{cut}",
            kind="server_only" if cut is None else "split", cut=cut or "",
            client_infer_s=med(cli_t) if cli_t else 0.0,
            client_encode_s=med(enc_t), server_decode_s=med(dec_t),
            server_infer_s=med(inf_t), payload_bytes=float(med(sizes)),
        ))
    return profiles
