"""End-to-end split-inference sessions over the simulated network.

``run_session`` plays a whole capture-compress-stream-infer loop between a
client endpoint and a server endpoint on one ``Simulator``:

    MODEL_SWITCH -> MODEL_READY, then per frame
    generate -> forward_client -> quantize -> tile -> encode -> packetize
    -> (simulated link) -> reassemble -> decode -> detile -> dequantize
    -> conceal gaps -> forward_server -> RESULT

The client paces DATA packets through the ``may_send`` gate and skips
frames via ``should_process_frame`` when it is falling behind; the drain
time fed to that rule covers the unsent backlog as well as in-flight
bytes, so a persistent bottleneck surfaces as recorded frame drops rather
than queue growth.  The server confirms every DATA message, waits for
stragglers until the frame deadline, then processes whatever arrived,
mapping missing bitstream bytes to missing tensor elements for
concealment.

Lost payload is never retransmitted (concealment covers it), but frame
existence is made reliable: if no confirmation for a frame has come back
well after its last packet went out, the client resends a zero-payload
end marker so the server can conceal the frame outright instead of never
learning it existed.

Per-channel side means ride an out-of-band channel that is assumed
lossless and free; dataset statistics come from the shared calibration
recipe, so both ends agree without transmission.  Everything is driven by
integer simulated time plus seeded draws: a config (link seed included)
reproduces its report byte for byte.
"""

from __future__ import annotations

import functools
import statistics
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .codec import (CodecError, decode, decode_prefix, encode,
                    encode_to_target, undecoded_plane_mask)
from .concealment import (STRATEGIES, LossMask, SideChannelMeans, conceal,
                          side_channel_means)
from .model import CLASS_NAMES, CUT_POINTS, SplitModel, cut_point
from .netsim import Link, LinkConfig, Simulator
from .protocol import (FLAG_END_OF_TENSOR, BandwidthEstimator, Confirmation,
                       FrameAssembler, MsgType, ProtocolError, SendBuffer,
                       WireMessage, encode_message, frame_deadline_us,
                       make_control, may_send, parse_control,
                       should_process_frame)
from .quantizer import QuantizerSpec, dequantize, quantize
from .strategy import StrategyProfile
from .tensor import TensorStats, collect_stats
from .tiling import (TileLayout, TiledPlane, channel_tiles, detile,
                     layout_for, tile)

__all__ = [
    "LinkScenario",
    "PipelineConfig",
    "SessionError",
    "run_session",
    "measure_profiles",
    "corpus_stats",
]

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
        d = dict(d)
        link = d.pop("link", {})
        if isinstance(link, dict):
            link = LinkScenario(**link)
        return cls(link=link, **d)


_STATS_CACHE: dict[tuple, TensorStats] = {}


def corpus_stats(model: SplitModel, cut: str, n_images: int) -> TensorStats:
    """Dataset statistics at a cut, shared by client and server."""
    key = (model.seed, cut, n_images)
    if key not in _STATS_CACHE:
        _STATS_CACHE[key] = collect_stats(
            model.corpus(range(n_images), cut), label=f"{cut}-{n_images}")
    return _STATS_CACHE[key]


def _confirm_message(conf: Confirmation) -> WireMessage:
    payload = conf.pack()
    return WireMessage(
        msg_type=MsgType.CONFIRM, frame_id=conf.frame_id, offset=0,
        total_len=len(payload), payload=payload, flags=FLAG_END_OF_TENSOR,
    )


def _frame_row(k: int) -> dict:
    """Report row of a frame that nothing has happened to yet."""
    return {
        "frameNumber": k, "sentBytes": 0, "dropped": False,
        "concealedRanges": 0, "latency_us": None, "agree": None,
        "status": "incomplete",
    }


def _end_marker(frame_id: int, total_len: int) -> WireMessage:
    # zero-payload DATA at offset == total_len: announces existence + length
    return WireMessage(
        msg_type=MsgType.DATA, frame_id=frame_id, offset=total_len,
        total_len=total_len, payload=b"", flags=FLAG_END_OF_TENSOR,
    )


class _Client:
    def __init__(self, sim: Simulator, cfg: PipelineConfig, model: SplitModel,
                 stats: TensorStats, uplink: Link):
        self.sim = sim
        self.cfg = cfg
        self.model = model
        self.stats = stats
        self.uplink = uplink
        self.spec = QuantizerSpec(cfg.levels, cfg.clip_width, cfg.quant_mode)
        self.est = BandwidthEstimator(rtt_us=cfg.link.rtt_us)
        self.buffer = SendBuffer()
        self.ready = False
        self.failed: str | None = None
        self.last_request_us = -(10 ** 15)
        self._pacing_scheduled = False
        self._announced: set[int] = set()
        self.heard: set[int] = set()   # frames with any CONFIRM back
        self.side_store: dict[int, SideChannelMeans] = {}
        self.frames: dict[int, dict] = {}
        self.clean_argmax: dict[int, int] = {}
        self.max_gauge_excess = float("-inf")
        self.max_queue_bytes = 0

    # -- handshake

    def start(self):
        self._switch_msg = make_control(
            MsgType.MODEL_SWITCH, 0, {
                "model": "stub3",
                "cut": self.cfg.cut,
                "levels": self.cfg.levels,
                "clipWidth": self.cfg.clip_width,
                "mode": self.cfg.quant_mode,
                "conceal": self.cfg.conceal,
                "topK": self.cfg.top_k,
            },
        )
        self._send_switch()
        self.sim.at(self.cfg.handshake_timeout_us, self._handshake_deadline)

    def _send_switch(self):
        if self.ready:
            return
        self.sim.log_event("model_switch", 0, 0, len(self._switch_msg.payload))
        self.uplink.send(len(encode_message(self._switch_msg)), self._switch_msg)
        self.sim.after(self.cfg.handshake_retry_us, self._send_switch)

    def _handshake_deadline(self):
        if not self.ready:
            self.failed = "handshake timeout"

    def on_downlink(self, msg: WireMessage):
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

        server_remain = (self.last_request_us + self.cfg.server_rate_limit_us) - now
        bw = self.est.estimate_bandwidth(now)
        # drain time covers queued-but-unsent bytes too, else a bottleneck
        # could never trigger drops and the queue would grow without bound
        backlog = max(self.est.unreceived_bytes(now), 0.0) + self.buffer.pending_bytes
        keep = should_process_frame(
            float(self.cfg.client_process_us), float(server_remain),
            backlog * 1e6 / bw, invert=self.cfg.invert_drop_rule,
        )
        if not keep:
            rec["dropped"] = True
            rec["status"] = "dropped"
            self.sim.log_event("frame_drop", k)
            return

        t = self.model.forward_client(self.model.generate_input(k), self.cfg.cut)
        self.clean_argmax[k] = int(
            np.argmax(self.model.forward_server(t, self.cfg.cut))
        )
        self.side_store[k] = side_channel_means(t)
        plane = tile(quantize(t, self.spec, self.stats))
        if self.cfg.target_bytes:
            bits, _quality = encode_to_target(plane, self.cfg.target_bytes)
        else:
            bits = encode(plane, self.cfg.quality)
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
            _frame_id, offset = peek
            new_frame = offset == 0
            last_req = self.last_request_us if new_frame else -(10 ** 15)
            if not may_send(self.est, now, last_req, self.cfg.server_rate_limit_us):
                self._schedule_pacing()
                return
            msg = self.buffer.pop_next(self.cfg.mss)
            if new_frame:
                self.last_request_us = now
            self.est.record_sent(msg.frame_id, msg.offset, len(msg.payload), now)
            gauge = self.est.outstanding_bytes()
            bound = self.est.expected_lost_bytes(now) + self.cfg.mss
            self.max_gauge_excess = max(self.max_gauge_excess, gauge - bound)
            self.sim.log_event("send", msg.frame_id, msg.offset, len(msg.payload))
            self.uplink.send(len(encode_message(msg)), msg)
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

        self.sim.after(self.cfg.pacing_us, _tick)

    def _lost_check(self, k: int, total_len: int):
        """Re-announce a frame the server has never once confirmed."""
        if k in self.heard:
            return
        marker = _end_marker(k, total_len)
        if k not in self._announced:
            self._announced.add(k)
            self.est.record_sent(k, total_len, 0, self.sim.now_us)
        self.sim.log_event("announce", k, total_len, 0)
        self.uplink.send(len(encode_message(marker)), marker)
        self.sim.after(2 * self.cfg.link.rtt_us,
                       lambda: self._lost_check(k, total_len))

    def _on_result(self, msg: WireMessage):
        body = parse_control(msg)
        k = body["frameNumber"]
        rec = self.frames.get(k)
        if rec is None or rec["latency_us"] is not None:
            return
        rec["latency_us"] = self.sim.now_us - rec["capture_us"]
        rec["concealedRanges"] = body.get("concealedRanges", 0)
        top = body["predictions"][0]["name"] if body["predictions"] else ""
        rec["agree"] = top == CLASS_NAMES[self.clean_argmax[k]]
        rec["status"] = "ok"
        self.sim.log_event("result", k, 0, msg.total_len)


class _Server:
    def __init__(self, sim: Simulator, cfg: PipelineConfig, model: SplitModel,
                 stats: TensorStats, downlink: Link,
                 side_store: dict[int, SideChannelMeans]):
        self.sim = sim
        self.cfg = cfg
        self.model = model
        self.stats = stats
        self.downlink = downlink
        self.side_store = side_store
        self.session: dict | None = None
        self.spec: QuantizerSpec | None = None
        self.layout: TileLayout | None = None
        self.est = BandwidthEstimator(rtt_us=cfg.link.rtt_us)
        self.assemblers: dict[int, FrameAssembler] = {}
        self.last_arrival: dict[int, int] = {}
        self.processed: set[int] = set()
        self.failed_frames: set[int] = set()
        self.results_sent = 0

    def on_uplink(self, msg: WireMessage):
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
                spec = QuantizerSpec(body["levels"], body["clipWidth"],
                                     body["mode"])
                cut = cut_point(body["cut"])
            except (KeyError, TypeError, ValueError) as exc:
                raise ProtocolError(
                    f"malformed MODEL_SWITCH body: {exc!r}") from None
            self.session, self.spec = body, spec
            self.layout = layout_for(cut.height, cut.width, cut.channels)
            self.sim.log_event("model_switch_recv")
        ready = make_control(MsgType.MODEL_READY, 0,
                             {"status": "ready", "cut": self.session["cut"]})
        self.downlink.send(len(encode_message(ready)), ready)

    def _on_data(self, msg: WireMessage):
        if self.session is None:
            raise ProtocolError("DATA before MODEL_SWITCH handshake")
        now = self.sim.now_us
        fid = msg.frame_id
        if fid not in self.processed:
            asm = self.assemblers.setdefault(fid, FrameAssembler(fid))
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
        conf = _confirm_message(Confirmation(fid, msg.offset, cumulative, now))
        self.downlink.send(len(encode_message(conf)), conf)
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

        if gaps and self.cfg.conceal == "none":
            self.failed_frames.add(fid)
            self.sim.log_event("frame_fail", fid, 0, len(gaps))
            return

        plane, mask_plane = self._decode_with_gaps(data, gaps)
        t_hat = dequantize(detile(plane, self.spec), self.stats)
        if mask_plane.any():
            elem_mask = channel_tiles(mask_plane, plane.layout)
            mask = LossMask(elem_mask, "by_element", float(elem_mask.mean()))
            t_final = conceal(t_hat, mask, self.cfg.conceal,
                              stats=self.stats, side=self.side_store.get(fid))
        else:
            t_final = t_hat

        scores = self.model.forward_server(t_final, self.session["cut"])
        order = np.argsort(scores)[::-1][: self.cfg.top_k]
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
            self.downlink.send(len(encode_message(result)), result)

        self.sim.after(self.cfg.server_process_us, _reply)

    def _decode_with_gaps(self, data: bytes,
                          gaps) -> tuple[TiledPlane, np.ndarray]:
        """Plane plus a boolean mask of plane pixels needing concealment.

        Only the prefix before the first missing byte is trustworthy; all
        blocks at or beyond it count as undecoded.  When not even the
        stream header survived, the whole plane is synthesized as missing.
        """
        if not gaps:
            plane = decode(data)
            layout = plane.layout
            return plane, np.zeros((layout.plane_h, layout.plane_w), dtype=bool)
        try:
            plane, blocks_ok, _total = decode_prefix(data[: gaps[0][0]])
        except CodecError:
            mid = np.full((self.layout.plane_h, self.layout.plane_w),
                          self.spec.levels // 2, dtype=np.uint8)
            return TiledPlane(mid, self.layout, self.spec.levels), np.ones(
                (self.layout.plane_h, self.layout.plane_w), dtype=bool
            )
        return plane, undecoded_plane_mask(plane.layout, blocks_ok)


def run_session(config: PipelineConfig,
                model: SplitModel | None = None) -> dict:
    """Simulate a whole session and return the report dict.

    The report is deterministic for a given config (link seed included);
    serialize with sort_keys for stable bytes.
    """
    cfg = config
    if cfg.conceal not in STRATEGIES + ("none",):
        raise SessionError(f"unknown concealment strategy {cfg.conceal!r}")
    if not isinstance(cfg.link, LinkScenario):
        raise SessionError(f"link must be a LinkScenario, got {cfg.link!r}")
    if not 1 <= cfg.quality <= 100:
        raise SessionError(f"quality must be 1..100, got {cfg.quality}")
    if cfg.mss < 1:
        raise SessionError(f"mss must be at least 1, got {cfg.mss}")
    if cfg.frames < 0:
        raise SessionError(f"frames must be non-negative, got {cfg.frames}")
    if cfg.top_k < 1:
        raise SessionError(f"top_k must be at least 1, got {cfg.top_k}")
    if cfg.frame_interval_us < 0 or cfg.target_bytes < 0:
        raise SessionError("frame_interval_us and target_bytes must be "
                           "non-negative")
    # a zero period would reschedule at the same simulated instant forever
    if cfg.pacing_us < 1 or cfg.handshake_retry_us < 1:
        raise SessionError("pacing_us and handshake_retry_us must be at "
                           "least 1")
    try:
        cut_point(cfg.cut)
    except ValueError as exc:
        raise SessionError(str(exc)) from None
    if model is None:
        model = SplitModel(cfg.model_seed)
    stats = corpus_stats(model, cfg.cut, cfg.stats_images)

    sim = Simulator()
    uplink = Link(sim, LinkConfig(
        bandwidth_bps=cfg.link.bandwidth_bps,
        one_way_delay_us=cfg.link.rtt_us // 2,
        loss_prob=cfg.link.loss_prob,
        jitter_us=cfg.link.jitter_us,
        seed=cfg.link.seed,
    ), "up")
    downlink = Link(sim, LinkConfig(
        bandwidth_bps=cfg.link.bandwidth_bps,
        one_way_delay_us=cfg.link.rtt_us - cfg.link.rtt_us // 2,
        loss_prob=cfg.downlink_loss_prob,
        jitter_us=cfg.link.jitter_us,
        seed=cfg.link.seed + 1,
    ), "down")

    client = _Client(sim, cfg, model, stats, uplink)
    server = _Server(sim, cfg, model, stats, downlink, client.side_store)
    uplink.deliver = server.on_uplink
    downlink.deliver = client.on_downlink

    client.start()
    duration = cfg.link.duration_us or (
        cfg.handshake_timeout_us + cfg.frames * cfg.frame_interval_us
        + 5_000_000
    )
    sim.run_until(duration)

    if client.failed:
        raise SessionError(client.failed)

    frames = []
    for k in range(cfg.frames):
        rec = client.frames.get(k) or _frame_row(k)
        if k in server.failed_frames:
            rec["status"] = "failed"
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
            bits = timed(enc_t, lambda: encode(tile(quantize(t, spec, stats)),
                                               cfg.quality))
            sizes.append(len(bits))
            t_hat = timed(dec_t, lambda: dequantize(detile(decode(bits), spec),
                                                    stats))
            timed(inf_t, infer, t_hat)
        profiles.append(StrategyProfile(
            name="server_only" if cut is None else f"split_{cut}",
            kind="server_only" if cut is None else "split", cut=cut or "",
            client_infer_s=med(cli_t) if cli_t else 0.0,
            client_encode_s=med(enc_t), server_decode_s=med(dec_t),
            server_infer_s=med(inf_t), payload_bytes=float(med(sizes)),
        ))
    return profiles
