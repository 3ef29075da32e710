import contextlib
import copy
import dataclasses
import gc
import itertools
import json
import math
import os
import re
import signal
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import cut_tensors, no_child_left
import splitstream.codec as codec
import splitstream.model as sm
import splitstream.pipeline as pl
from splitstream import (BandwidthEstimator, Link, LinkConfig, MsgType,
                         ProtocolError, SimulationError, Simulator,
                         SplitModel, WireMessage,
                         collect_stats, rate_fidelity_curve,
                         decode_message, encode, encode_message, make_control,
                         parse_control, quantize, tile)
from splitstream.concealment import STRATEGIES
from splitstream.model import CUT_POINTS
from splitstream.pipeline import (FRAME_ROW_KEYS, LinkScenario, PipelineConfig,
                                  SessionError, corpus_stats, measure_profiles,
                                  run_session)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from timeline import check_latencies, frame_timeline  # noqa: E402

CLEAN = PipelineConfig(frames=8, frame_interval_us=150_000,
                       link=LinkScenario(seed=1))
LOSSY = PipelineConfig(frames=25, frame_interval_us=150_000,
                       link=LinkScenario(loss_prob=0.1, seed=42))

# regression pins from seeded runs; any drift means behavior changed
CLEAN_LATENCIES_US = [132006, 132486, 153514, 153975,
                      131713, 131925, 110863, 153950]


def _events(report):
    return [line.split(",")[1] for line in report["event_log"]]


def _switch_body(**changes) -> dict:
    """The default config's MODEL_SWITCH body, with fields changed."""
    return {"model": "stub3", "cut": "stage2", "levels": 256,
            "clipWidth": 3.0, "mode": "aggregate", "conceal": "dataset_mean",
            "topK": 5, **changes}


def _switch_wire(**changes) -> bytes:
    body = _switch_body(**changes)
    return encode_message(make_control(MsgType.MODEL_SWITCH, 0, body))


def _server(model) -> tuple["pl._Server", list[bytes]]:
    """A default-config server with no session yet, and the list its
    downlink delivers into."""
    sim = Simulator()
    downlink = Link(sim, LinkConfig(bandwidth_bps=1e6), "down")
    replies = []
    downlink.deliver = replies.append
    server = pl._Server(sim, PipelineConfig(stats_images=4), model, downlink,
                        {}, pl._OffPath(model, None, None))
    return server, replies


def _assert_handshake_precedes_data(report):
    events = _events(report)
    assert "model_ready" in events
    ready_at = events.index("model_ready")
    assert "send" not in events[:ready_at]


@pytest.fixture(scope="module")
def clean_report(model):
    return run_session(CLEAN, model)


@pytest.fixture(scope="module")
def lossy_report(model):
    return run_session(LOSSY, model)


class TestConfig:
    def test_round_trips_through_dict(self):
        cfg = PipelineConfig(cut="stage3", quality=40, frames=3,
                             link=LinkScenario(loss_prob=0.2, seed=11))
        assert PipelineConfig.from_dict(cfg.to_dict()) == cfg

    def test_from_dict_accepts_plain_link_mapping(self):
        cfg = PipelineConfig.from_dict(
            {"frames": 2, "link": {"bandwidth_bps": 5e5}})
        assert cfg.frames == 2
        assert cfg.link == LinkScenario(bandwidth_bps=5e5)


class TestCleanSession:
    def test_every_frame_completes(self, clean_report):
        s = clean_report["summary"]
        assert s["frames_completed"] == s["frames_total"] == 8
        assert s["frames_dropped"] == s["frames_failed"] == 0
        assert s["agreement"] == 1.0
        assert all(f["status"] == "ok" for f in clean_report["frames"])
        assert all(f["concealedRanges"] == 0 for f in clean_report["frames"])

    def test_frame_rows_have_contract_keys(self, clean_report):
        for row in clean_report["frames"]:
            assert tuple(row) == FRAME_ROW_KEYS

    def test_pinned_latencies(self, clean_report):
        lat = [f["latency_us"] for f in clean_report["frames"]]
        assert lat == CLEAN_LATENCIES_US
        s = clean_report["summary"]
        assert s["mean_latency_us"] == pytest.approx(sum(lat) / len(lat))

    def test_pinned_traffic(self, clean_report):
        s = clean_report["summary"]
        assert (s["packets_sent"], s["packets_dropped"]) == (43, 0)
        assert s["max_queue_bytes"] == 8297
        assert s["max_gauge_excess_bytes"] <= 0.0

    def test_handshake_precedes_data(self, clean_report):
        _assert_handshake_precedes_data(clean_report)

    def test_report_echoes_config(self, clean_report):
        assert clean_report["config"] == CLEAN.to_dict()

    def test_deterministic_report_bytes(self, model, clean_report):
        again = run_session(CLEAN, model)
        assert json.dumps(again, sort_keys=True) == \
            json.dumps(clean_report, sort_keys=True)


class TestByteExactTransport:
    def test_clean_link_delivers_bitstreams_verbatim(self, model, monkeypatch,
                                                     cores):
        # on one core the server decodes every stream itself, here; a
        # helper would decode the submitted streams in its own process
        cores(1)
        sent, received = [], []
        real_encode, real_decode = codec.encode, codec.decode

        def spy_encode(plane, quality):
            bits = real_encode(plane, quality)
            sent.append(bits)
            return bits

        def spy_decode(data):
            received.append(data)
            return real_decode(data)

        monkeypatch.setattr(codec, "encode", spy_encode)
        monkeypatch.setattr(codec, "decode", spy_decode)
        cfg = PipelineConfig(frames=4, frame_interval_us=150_000, quality=100,
                             link=LinkScenario(bandwidth_bps=1e7,
                                               rtt_us=2_000, seed=1))
        report = run_session(cfg, model)
        assert report["summary"]["frames_completed"] == 4
        assert len(sent) == len(received) == 4
        assert sent == received
        assert report["summary"]["agreement"] == 1.0

    def test_links_carry_wire_bytes(self, model, monkeypatch):
        crossed = []
        real_send = pl.Link.send

        def spy_send(link, data):
            crossed.append((link.name, data))
            real_send(link, data)

        monkeypatch.setattr(pl.Link, "send", spy_send)
        cfg = PipelineConfig(frames=6, frame_interval_us=150_000,
                             downlink_loss_prob=0.1,
                             link=LinkScenario(loss_prob=0.2, seed=4))
        assert run_session(cfg, model)["summary"]["frames_completed"] > 0
        assert {name for name, _ in crossed} == {"up", "down"}
        for _, data in crossed:
            assert type(data) is bytes
            assert encode_message(decode_message(data)) == data
        assert {decode_message(data).msg_type for _, data in crossed} == \
            set(MsgType)


class TestLossySession:
    def test_pinned_outcome(self, lossy_report):
        s = lossy_report["summary"]
        assert s["frames_completed"] == 19
        assert s["frames_dropped"] == 6
        assert s["frames_failed"] == 0
        assert s["agreement"] == pytest.approx(17 / 19)
        assert (s["packets_sent"], s["packets_dropped"]) == (118, 4)
        assert s["max_queue_bytes"] == 11080

    def test_concealment_used_yet_session_completes(self, lossy_report):
        concealed = [f for f in lossy_report["frames"]
                     if f["status"] == "ok" and f["concealedRanges"] > 0]
        assert len(concealed) == 4

    def test_row_consistency(self, lossy_report):
        for f in lossy_report["frames"]:
            if f["status"] == "ok":
                assert f["latency_us"] > 0 and f["agree"] in (True, False)
            if f["dropped"]:
                assert f["sentBytes"] == 0 and f["latency_us"] is None

    def test_handshake_precedes_data(self, lossy_report):
        _assert_handshake_precedes_data(lossy_report)


class TestAnnounce:
    def test_announces_do_not_pile_up_behind_a_busy_uplink(self, model):
        # each frame is one packet that takes far longer than 2 RTT to
        # serialize; a frame is re-announced only once its earlier
        # announce has left the uplink
        cfg = PipelineConfig.from_dict({"frames": 3, "stats_images": 4,
                                        "mss": 2 ** 64, "link": {"rtt_us": 1}})
        report = run_session(cfg, model)
        assert report["summary"]["frames_completed"] == 3
        assert _events(report).count("announce") <= 3 * 5


class TestBackpressure:
    def test_starved_link_drops_instead_of_queueing(self, model):
        cfg = PipelineConfig(frames=30, frame_interval_us=33_333,
                             target_bytes=10_000,
                             link=LinkScenario(bandwidth_bps=1e5, seed=9))
        s = run_session(cfg, model)["summary"]
        assert s["frames_dropped"] == 26
        assert s["frames_completed"] == 4
        assert s["max_gauge_excess_bytes"] <= 0.0
        # bounded queue: never even three frames deep despite 3x oversubscription
        assert s["max_queue_bytes"] == 18077 < 3 * 10_000


# the long_rtt_target benchmark scenario at 60 frames
LONG_RTT = PipelineConfig(cut="stage2", target_bytes=10_000, frames=60,
                          link=LinkScenario(bandwidth_bps=1e5, rtt_us=300_000,
                                            loss_prob=0.02))

PACING_CASES = {
    # frames wait for the server slot with nothing in flight
    "rate_limit": PipelineConfig(
        frames=20, frame_interval_us=30_000, server_rate_limit_us=200_000,
        client_process_us=180_000, link=LinkScenario(loss_prob=0.2, seed=3)),
    # late confirmations lower loss_ewma
    "jitter": PipelineConfig(
        frames=12, link=LinkScenario(jitter_us=30_000, loss_prob=0.1, seed=5)),
    # whole frames go unconfirmed, so the client announces them
    "downlink_loss": PipelineConfig(
        frames=20, quality=5, downlink_loss_prob=0.6,
        link=LinkScenario(loss_prob=0.1, seed=7)),
    "pacing_1us": PipelineConfig(
        frames=4, pacing_us=1,
        link=LinkScenario(rtt_us=4_000, loss_prob=0.1, seed=2)),
    "pacing_7ms": PipelineConfig(
        frames=12, pacing_us=7_000, link=LinkScenario(loss_prob=0.1, seed=4)),
    "long_rtt": LONG_RTT,
}


class TestPacingPoll:
    @pytest.mark.parametrize("name", sorted(PACING_CASES))
    def test_same_report_as_a_tick_every_period(self, model, monkeypatch, name):
        cfg = PACING_CASES[name]
        polled = json.dumps(run_session(cfg, model), sort_keys=True)
        # the reference: a plain tick every pacing_us, idle or not
        monkeypatch.setattr(Simulator, "poll",
                            lambda self, d, fn, idle: self.after(d, fn))
        report = run_session(cfg, model)
        assert polled == json.dumps(report, sort_keys=True)
        if name == "downlink_loss":
            assert "announce" in _events(report)

    def test_gate_is_asked_only_when_it_can_open(self, model, monkeypatch):
        calls = 0
        real = pl.may_send

        def counted(*args):
            nonlocal calls
            calls += 1
            return real(*args)

        monkeypatch.setattr(pl, "may_send", counted)
        run_session(LONG_RTT, model)
        # 24 packets go out; a tick every 1 ms would ask 6636 times
        assert calls < 200


class _ScanCountingDict(dict):
    """A pending-packet dict that counts the passes made over it."""

    scans = 0

    def items(self):
        self.scans += 1
        return super().items()

    def values(self):
        self.scans += 1
        return super().values()

    def __iter__(self):
        self.scans += 1
        return super().__iter__()


class TestSendGateWork:
    def test_pending_packets_are_scanned_only_when_the_view_can_change(
            self, model, monkeypatch):
        # long_rtt_target's shape: dropped captures and idle polls read the
        # gate thousands of times, yet the loss view moves only at a send, a
        # confirmation, or one of each packet's two agings
        made = []

        class Counted(BandwidthEstimator):
            sends = confirmations = 0

            def __init__(self, rtt_us):
                super().__init__(rtt_us)
                self._pending = _ScanCountingDict()
                made.append(self)

            def record_sent(self, *args):
                self.sends += 1
                super().record_sent(*args)

            def process_confirmation(self, *args):
                self.confirmations += 1
                super().process_confirmation(*args)

        monkeypatch.setattr(pl, "BandwidthEstimator", Counted)
        cfg = dataclasses.replace(LONG_RTT, frames=100,
                                  frame_interval_us=33_333)
        s = run_session(cfg, model)["summary"]
        assert s["frames_dropped"] > 80
        client, server = made
        assert client.sends > 0 and server.sends == 0
        for est in made:
            assert est._pending.scans <= 3 * est.sends + est.confirmations + 1


class TestZeroRateEstimate:
    @pytest.mark.parametrize("seed,loss", [(2, 0.9), (3, 0.9), (5, 0.9),
                                           (3, 0.95)])
    def test_window_of_end_markers_ends_in_a_report(self, model, seed, loss):
        # a window holding only zero-byte re-announce receipts once read as
        # 0 bytes/s, and the drop rule divided the backlog by it
        cfg = PipelineConfig(frames=60, stats_images=4, quality=5,
                             cut="stage3",
                             link=LinkScenario(loss_prob=loss, seed=seed))
        report = run_session(cfg, model)
        assert len(report["frames"]) == 60
        assert report["summary"]["max_gauge_excess_bytes"] <= 0


class TestInvertDropRule:
    def test_inverted_rule_drops_everything_on_idle_link(self, model):
        cfg = PipelineConfig(frames=5, frame_interval_us=50_000,
                             invert_drop_rule=True, link=LinkScenario(seed=3))
        report = run_session(cfg, model)
        s = report["summary"]
        assert s["frames_dropped"] == 5 and s["frames_completed"] == 0
        assert s["agreement"] is None and s["mean_latency_us"] is None
        assert s["bytes_sent"] == 0


class TestConcealmentDisabled:
    def test_gappy_frames_fail_rather_than_decode(self, model):
        cfg = PipelineConfig(frames=12, frame_interval_us=150_000,
                             conceal="none",
                             link=LinkScenario(loss_prob=0.15, seed=0))
        report = run_session(cfg, model)
        s = report["summary"]
        assert s["frames_failed"] == 6
        assert s["frames_completed"] == 2
        assert s["results_sent"] == 2
        for f in report["frames"]:
            if f["status"] == "failed":
                assert f["agree"] is None and f["latency_us"] is None


class TestHandshake:
    def test_timeout_raises(self, model):
        cfg = PipelineConfig(frames=1, handshake_timeout_us=300_000,
                             handshake_retry_us=100_000,
                             downlink_loss_prob=0.999,
                             link=LinkScenario(seed=1, duration_us=400_000))
        with pytest.raises(SessionError, match="handshake"):
            run_session(cfg, model)

    def test_retries_stop_at_the_deadline(self, model, monkeypatch):
        # a lost handshake resent every 100 us stops resending once the
        # deadline has failed it, not at the session horizon
        sends = []
        log_event = Simulator.log_event

        def counting(sim, event, *args, **kwargs):
            sends.append(event == "model_switch")
            log_event(sim, event, *args, **kwargs)

        monkeypatch.setattr(Simulator, "log_event", counting)
        cfg = PipelineConfig(frames=1, handshake_retry_us=100,
                             link=LinkScenario(loss_prob=0.9999999))
        with pytest.raises(SessionError, match="^handshake timeout$"):
            run_session(cfg, model)
        assert sum(sends) <= (cfg.handshake_timeout_us
                              // cfg.handshake_retry_us + 1)

    def test_failed_handshake_ends_the_session_at_its_deadline(
            self, model, monkeypatch):
        # at one byte per second MODEL_SWITCH never arrives in time; no
        # event runs past the deadline, however far the horizon lies
        sims = []

        class Recorded(Simulator):
            def __init__(self):
                super().__init__()
                sims.append(self)

        monkeypatch.setattr(pl, "Simulator", Recorded)
        cfg = PipelineConfig.from_dict({
            "frames": 3, "stats_images": 4,
            "link": {"bandwidth_bps": 1, "duration_us": 2 ** 63}})
        with pytest.raises(SessionError, match="^handshake timeout$"):
            run_session(cfg, model)
        [sim] = sims
        assert sim.now_us == cfg.handshake_timeout_us
        assert max(int(line.split(",")[0]) for line in sim.log) \
            <= cfg.handshake_timeout_us

    def test_lost_switch_is_retransmitted(self, model):
        cfg = PipelineConfig(frames=2, frame_interval_us=150_000,
                             link=LinkScenario(loss_prob=0.5, seed=3))
        report = run_session(cfg, model)
        assert _events(report).count("model_switch") >= 2
        assert report["summary"]["frames_completed"] == 2
        _assert_handshake_precedes_data(report)

    @pytest.mark.parametrize("body", [
        {},
        {"cut": "stage2", "levels": "256", "clipWidth": 3.0,
         "mode": "aggregate"},
        {"cut": "stage9", "levels": 256, "clipWidth": 3.0,
         "mode": "aggregate"},
        _switch_body(levels=3.5),
        _switch_body(conceal="wishful"),
        _switch_body(conceal=None),
        _switch_body(topK=0),
        _switch_body(topK=2.5),
        _switch_body(topK="5"),
        _switch_body(topK=True),
        _switch_body(clipWidth=True),
        _switch_body(clipWidth=math.inf),
        _switch_body(clipWidth=1e300),
        _switch_body(model="stub4"),
    ])
    def test_malformed_switch_is_a_protocol_error(self, model, body):
        # a malformed body is refused before the server replies downlink
        server = pl._Server(Simulator(), PipelineConfig(), model, None, {},
                            pl._OffPath(model, None, None))
        with pytest.raises(ProtocolError, match="MODEL_SWITCH"):
            server.on_uplink(encode_message(
                make_control(MsgType.MODEL_SWITCH, 0, body)))
        assert server.session is None

    def test_session_comes_from_the_switch_body(self, model):
        # the config says stage2 and top-5; the switch says stage3 and top-2
        server, replies = _server(model)
        server.on_uplink(_switch_wire(cut="stage3", topK=2))
        assert server.stats is corpus_stats(model, "stage3", 4)
        t = model.forward_client(model.generate_input(0), "stage3")
        bits = encode(tile(quantize(t, server.session.spec, server.stats)), 85)
        server.on_uplink(encode_message(WireMessage(
            MsgType.DATA, 0, 0, len(bits), bits)))
        server.sim.run_until(1_000_000)
        results = [m for m in map(decode_message, replies)
                   if m.msg_type == MsgType.RESULT]
        assert len(results) == 1
        assert len(parse_control(results[0])["predictions"]) == 2

    def test_data_longer_than_the_cut_allows_is_refused(self, model,
                                                        traced_peak):
        # a DATA header may declare any u32 length; the server would
        # allocate it at the frame's deadline
        server = _server(model)[0]
        server.on_uplink(_switch_wire(cut="stage2"))
        largest = codec.max_stream_size(16, 16, 32)

        def forged(total_len):
            return encode_message(WireMessage(
                MsgType.DATA, 0, 0, total_len, bytes(99)))

        def refuse(total_len):
            with pytest.raises(ProtocolError, match=f"largest stream, {largest}"):
                server.on_uplink(forged(total_len))
            server.sim.run_until(server.sim.now_us + 60_000_000)

        for total_len in (largest + 1, 400_000_000, 2 ** 32 - 1):
            assert traced_peak(refuse, total_len) < 2 ** 20
        assert server.assemblers == {} and server.processed == set()
        # a frame at the bound is taken, and concealed at its deadline
        server.on_uplink(forged(largest))
        server.sim.run_until(server.sim.now_us + 60_000_000)
        assert server.processed == {0}

    @given(edits=st.lists(st.tuples(st.integers(0, 10 ** 4), st.integers(0, 255)),
                          min_size=1, max_size=4),
           keep=st.integers(0, 10 ** 4))
    def test_mutated_switch_raises_only_protocol_errors(self, model, edits,
                                                        keep):
        wire = bytearray(_switch_wire())
        for pos, value in edits:
            wire[pos % len(wire)] = value
        for data in (bytes(wire), _switch_wire()[:keep % len(wire)]):
            try:
                _server(model)[0].on_uplink(data)
            except ProtocolError:
                pass


class _SetUpBegan(Exception):
    pass


def _set_up_began(*args):
    raise _SetUpBegan


def _run_session_refuses(cfg: PipelineConfig) -> bool:
    """Whether run_session refuses cfg before set-up; set-up is stubbed out
    as the CLI test does, so an accepted config stops where it begins."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pl, "SplitModel", _set_up_began)
        mp.setattr(pl, "corpus_stats", _set_up_began)
        try:
            run_session(cfg)
        except SessionError:
            return True
        except _SetUpBegan:
            return False
    raise AssertionError("run_session neither refused nor began set-up")


def _server_refuses(model, wire: bytes) -> bool:
    server = _server(model)[0]
    try:
        server.on_uplink(wire)
    except ProtocolError:
        assert server.session is None
        return True
    return False


# values for each session field, valid and not, the ones the two validators
# once disagreed on (a bool or non-finite clip width) included
_SESSION_FIELDS = st.fixed_dictionaries({
    "cut": st.sampled_from([c.name for c in CUT_POINTS] + ["stage9", ""]),
    "levels": st.one_of(st.integers(-1, 300),
                        st.sampled_from([3.5, True, "256"])),
    "clip_width": st.one_of(
        st.floats(allow_nan=True, allow_infinity=True), st.integers(-2, 5),
        st.sampled_from([True, False, math.inf, -math.inf, math.nan, "3"])),
    "quant_mode": st.sampled_from(["aggregate", "per_neuron", "psycho"]),
    "conceal": st.sampled_from(STRATEGIES + ("none", "wishful")),
    "top_k": st.one_of(st.integers(-1, 12), st.sampled_from([True, 2.5, "5"])),
})


class TestOneSessionValidator:
    @settings(max_examples=200)
    @given(fields=_SESSION_FIELDS)
    @example(fields={})
    @example(fields={"clip_width": True})
    @example(fields={"clip_width": math.inf})
    def test_run_session_and_server_refuse_the_same_sessions(self, model,
                                                             fields):
        cfg = PipelineConfig(**fields)
        wire = encode_message(make_control(MsgType.MODEL_SWITCH, 0,
                                           pl._switch_body(cfg)))
        assert _run_session_refuses(cfg) == _server_refuses(model, wire)

    @pytest.mark.parametrize("cut, conceal, mode", itertools.product(
        [c.name for c in CUT_POINTS], STRATEGIES + ("none",),
        ["aggregate", "per_neuron"]))
    def test_server_parses_the_session_run_session_validated(
            self, model, monkeypatch, cut, conceal, mode):
        validated, uplink = [], []

        def recording_parse(body, parse=pl._parse_session):
            validated.append(parse(body))
            return validated[-1]

        def capture_send(link, data):
            uplink.append(data)
            raise _SetUpBegan

        # the session run_session validated, then the first bytes its
        # client puts on the uplink: the MODEL_SWITCH
        monkeypatch.setattr(pl, "_parse_session", recording_parse)
        monkeypatch.setattr(pl.Link, "send", capture_send)
        cfg = PipelineConfig(cut=cut, conceal=conceal, quant_mode=mode,
                             stats_images=4)
        with pytest.raises(_SetUpBegan):
            run_session(cfg, model)
        monkeypatch.undo()
        server = _server(model)[0]
        server.on_uplink(uplink[0])
        assert server.session == validated[0]
        assert (server.session.cut.name, server.session.conceal,
                server.session.spec.mode) == (cut, conceal, mode)


class TestValidation:
    def test_unknown_concealment(self, model):
        cfg = PipelineConfig(conceal="wishful")
        with pytest.raises(SessionError, match="concealment"):
            run_session(cfg, model)

    def test_unknown_cut(self, model):
        cfg = PipelineConfig(cut="stage9")
        with pytest.raises(SessionError, match="cut"):
            run_session(cfg, model)

    def test_model_must_have_the_configured_seed(self, model, monkeypatch):
        # the report's config.model_seed names the model behind its tensors
        def unreachable(*args):
            raise AssertionError("model checked after the stats were built")

        monkeypatch.setattr(pl, "corpus_stats", unreachable)
        with pytest.raises(SessionError, match="model_seed"):
            run_session(PipelineConfig(model_seed=7, frames=2), model)

    def test_zero_rtt_is_refused_before_set_up(self):
        # the lost-frame re-announce period is 2 RTT: at zero it would
        # re-announce at one simulated instant forever
        cfg = PipelineConfig.from_dict({"frames": 1, "link": {"rtt_us": 0}})
        assert _run_session_refuses(cfg)
        assert not _run_session_refuses(
            PipelineConfig.from_dict({"frames": 1, "link": {"rtt_us": 1}}))
        with pytest.raises(SessionError,
                           match="^rtt_us must be at least 1, got 0$"):
            run_session(cfg)


@contextlib.contextmanager
def _no_cyclic_garbage():
    """Require that what the block leaves behind is freed by reference
    counting alone: with automatic collection off during the block, a full
    collection after it finds nothing unreachable."""
    gc.collect()
    gc.disable()
    try:
        yield
        assert gc.collect() == 0
    finally:
        gc.enable()


# a long_rtt_target session cut down to a few frames: slow lossy link,
# stop-and-wait polling and rate targeting
LONG_RTT = PipelineConfig(
    cut="stage2", target_bytes=10_000, frames=4,
    link=LinkScenario(bandwidth_bps=1e5, rtt_us=300_000, loss_prob=0.02,
                      seed=3))


class TestSessionTeardown:
    """A finished session is freed when ``run_session`` returns or raises:
    the client-server link ring and the events still queued at the horizon
    would otherwise keep it for the cyclic collector."""

    def test_report(self, model):
        with _no_cyclic_garbage():
            report = run_session(LONG_RTT, model)
        assert report["summary"]["frames_completed"] > 0

    def test_failed_handshake(self, model):
        # at 1 byte/s no MODEL_SWITCH arrives before the handshake deadline
        cfg = PipelineConfig.from_dict({
            "frames": 3, "stats_images": 4,
            "link": {"bandwidth_bps": 1, "duration_us": 2 ** 40}})
        with _no_cyclic_garbage():
            with pytest.raises(SessionError, match="handshake timeout"):
                run_session(cfg, model)

    def test_model_and_corpus_stats(self):
        with _no_cyclic_garbage():
            corpus_stats(SplitModel(), "stage2", 4)

    def test_rate_fidelity_curve(self, model):
        stats = corpus_stats(model, "stage2", 8)
        with _no_cyclic_garbage():
            rate_fidelity_curve(model, [0, 1], "stage2", [20, 80], stats)

    def test_repeated_sessions_hold_no_memory(self, model):
        # every dead session kept would add its queue, logs and buffers
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            run_session(LONG_RTT, model)
            after_first = tracemalloc.get_traced_memory()[0]
            for _ in range(5):
                run_session(LONG_RTT, model)
            after_six = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
            gc.enable()
        assert abs(after_six - after_first) <= 64 * 1024


# the extremes of each field's type that a JSON config can carry
_EXTREMES = st.sampled_from([-1, 0, 1, 2 ** 63, 2 ** 64, math.nan, math.inf,
                             -math.inf, True, "x", {}, None, 1e-320, 1e308])
_LINK_FIELDS = [f.name for f in dataclasses.fields(LinkScenario)]
_TOP_FIELDS = [f.name for f in dataclasses.fields(PipelineConfig)
               if f.name != "link"]


class TestAnyConfig:
    @settings(max_examples=60, deadline=None)
    @given(drawn=st.dictionaries(st.sampled_from(_TOP_FIELDS + _LINK_FIELDS),
                                 _EXTREMES, min_size=1, max_size=3))
    @example(drawn={"rtt_us": 0})
    def test_every_config_ends_in_a_report_or_session_error(self, model,
                                                            drawn):
        # frames and stats_images are held small only to bound the runtime;
        # a drawn value of either is refused or no larger
        d = {"frames": 3, "stats_images": 4, "link": {}}
        for name, value in drawn.items():
            (d["link"] if name in _LINK_FIELDS else d)[name] = value
        cfg = PipelineConfig.from_dict(d)
        with _no_cyclic_garbage():
            try:
                report = run_session(
                    cfg, model if cfg.model_seed == model.seed else None)
            except SessionError:
                report = None
        if report is None:
            return
        assert len(report["frames"]) == cfg.frames
        assert report["summary"]["max_gauge_excess_bytes"] <= 0
        assert check_latencies(report, frame_timeline(report)) == []


class TestUpperBounds:
    @pytest.mark.parametrize("name, most", [("frames", 100_000),
                                            ("stats_images", 1024)])
    def test_bound_is_accepted_and_one_past_refused(self, name, most):
        # fields whose cost grows with their value are refused before set-up
        assert not _run_session_refuses(PipelineConfig(**{name: most}))
        assert _run_session_refuses(PipelineConfig(**{name: most + 1}))
        with pytest.raises(SessionError, match=f"^{name} must be at most "
                                               f"{most}, got {most + 1}$"):
            run_session(PipelineConfig(**{name: most + 1}))

    def test_handshake_retries_are_bounded(self):
        # a failed handshake sends once per retry period until its deadline
        at_bound = {"frames": 1, "handshake_retry_us": 100,
                    "handshake_timeout_us": 2_000_000}
        assert not _run_session_refuses(PipelineConfig.from_dict(at_bound))
        cfg = PipelineConfig.from_dict({"frames": 1, "handshake_retry_us": 1,
                                        "handshake_timeout_us": 200_000})
        assert _run_session_refuses(cfg)
        with pytest.raises(SessionError, match="^handshake_timeout_us / "
                           "handshake_retry_us must be at most 20000, "
                           "got 200000$"):
            run_session(cfg)


class TestInfeasibleTarget:
    def test_frames_below_the_smallest_stream_are_dropped(self, model):
        # no quality reaches 1 byte: each frame is dropped at capture and
        # the session still completes
        cfg = PipelineConfig(target_bytes=1, frames=3)
        report = run_session(cfg, model)
        assert report["summary"]["frames_dropped"] == 3
        assert report["summary"]["bytes_sent"] == 0
        for row in report["frames"]:
            assert row["dropped"] and row["status"] == "dropped"
            assert row["sentBytes"] == 0
        assert _events(report).count("frame_drop") == 3
        assert "send" not in _events(report)


class TestNarrowAlphabet:
    @pytest.mark.parametrize("levels", [16, 64, 255])
    def test_session_completes(self, model, levels):
        # lossy decodes overshoot a narrow alphabet unless the decoder
        # clamps to it; 10% loss also runs the prefix decode
        cfg = PipelineConfig(levels=levels, frames=10,
                             link=LinkScenario(loss_prob=0.1, seed=0))
        s = run_session(cfg, model)["summary"]
        assert s["frames_completed"] + s["frames_dropped"] == 10
        assert s["frames_completed"] > 0


def _held_bytes(model) -> int:
    """Bytes of the masks and values of the corpus a model holds."""
    return sum(bits.nbytes + values.nbytes
               for bits, values in model._held_corpus[2]._packed)


class TestCorpusStats:
    """Corpus stats belong to the model that computed them."""

    @pytest.fixture
    def fresh(self):
        """A default-seed model with no stats and no held corpus yet."""
        return SplitModel()

    def test_twin_model_gives_bitwise_equal_stats(self, model):
        twin = SplitModel(model.seed)
        got, want = corpus_stats(twin, "stage2", 8), corpus_stats(model, "stage2", 8)
        assert got is not want
        assert got.per_neuron_mean.tobytes() == want.per_neuron_mean.tobytes()
        assert got.per_neuron_std.tobytes() == want.per_neuron_std.tobytes()
        assert (got.aggregate_mean, got.aggregate_std, got.sample_count,
                got.label) == (want.aggregate_mean, want.aggregate_std,
                               want.sample_count, want.label)

    def test_keyed_by_image_count(self, model):
        small = corpus_stats(model, "stage2", 8)
        assert small is not corpus_stats(model, "stage2", 64)
        assert small.sample_count == 8
        assert small is corpus_stats(model, "stage2", 8)

    def test_keyed_by_seed(self, model):
        other = SplitModel(model.seed + 1)
        stats = corpus_stats(other, "stage2", 4)
        assert stats is not corpus_stats(model, "stage2", 4)
        want = collect_stats(cut_tensors(other, range(4), "stage2"))
        assert np.array_equal(stats.per_neuron_mean, want.per_neuron_mean)

    @pytest.mark.parametrize("order", [
        ("stage1", "stage3"), ("stage3", "stage1"), ("stage2", "stage3"),
        ("stage1", "stage2", "stage3")])
    def test_continued_corpus_gives_the_same_stats(self, fresh, order):
        for cut in order:
            got = corpus_stats(fresh, cut, 6)
            want = collect_stats(cut_tensors(fresh, range(6), cut))
            assert got.per_neuron_mean.tobytes() == want.per_neuron_mean.tobytes()
            assert got.per_neuron_std.tobytes() == want.per_neuron_std.tobytes()
            assert (got.aggregate_mean, got.aggregate_std, got.sample_count) == (
                want.aggregate_mean, want.aggregate_std, want.sample_count)

    def test_each_stage_runs_once_per_image(self, fresh, monkeypatch):
        calls = {"generate": 0, "conv": 0}
        generate_input, conv3x3 = SplitModel.generate_input, sm._conv3x3

        def counting_generate(self, *args):
            calls["generate"] += 1
            return generate_input(self, *args)

        def counting_conv(*args):
            calls["conv"] += 1
            return conv3x3(*args)

        monkeypatch.setattr(SplitModel, "generate_input", counting_generate)
        monkeypatch.setattr(sm, "_conv3x3", counting_conv)
        corpus_stats(fresh, "stage1", 5)
        corpus_stats(fresh, "stage3", 5)
        assert calls == {"generate": 5, "conv": 3 * 5}

    def test_held_corpus_is_keyed_by_model_and_image_count(self, fresh):
        # another model's call leaves this model's corpus held; another image
        # count here builds from the inputs and drops it
        corpus_stats(fresh, "stage1", 4)
        held = fresh._held_corpus
        assert held[:2] == (4, 1) and len(held[2]) == 4
        other = SplitModel(fresh.seed + 1)
        for m, n in ((other, 4), (fresh, 5)):
            got = corpus_stats(m, "stage3", n)
            want = collect_stats(cut_tensors(m, range(n), "stage3"))
            assert np.array_equal(got.per_neuron_mean, want.per_neuron_mean)
            assert fresh._held_corpus is (held if m is other else None)
        assert len(held[2]) == 4
        assert other._held_corpus is None

    @pytest.mark.parametrize("order", [("stage3",), ("stage1", "stage3"),
                                       ("stage2", "stage1", "stage3")])
    def test_nothing_is_held_after_the_last_cut(self, fresh, order):
        for cut in order:
            corpus_stats(fresh, cut, 4)
        assert fresh._held_corpus is None

    def test_fan_out_gives_the_same_stats_as_one_core(self, cores, monkeypatch):
        # every cut from the inputs, and stage1 and stage2 continued to stage3
        def stats_at(m):
            got = []
            for n in (2, 7, 9, 64):
                for order in (("stage1", "stage3"), ("stage2", "stage3"), ("stage3",)):
                    m._stats.clear()
                    for cut in order:
                        s = corpus_stats(m, cut, n)
                        got.append((cut, n, s.per_neuron_mean.tobytes(),
                                    s.per_neuron_std.tobytes(), s.aggregate_mean,
                                    s.aggregate_std, s.sample_count, s.label))
            return got

        cores(1)
        one = stats_at(SplitModel())
        # 2 cores as they split, then 3 with every image count split, the
        # odd ones too
        for n_cores, min_chunk_images in ((2, sm._MIN_CHUNK_IMAGES), (3, 1)):
            cores(n_cores)
            monkeypatch.setattr(sm, "_MIN_CHUNK_IMAGES", min_chunk_images)
            assert stats_at(SplitModel()) == one
            no_child_left()

    def test_continuing_never_holds_both_corpora(self, fresh):
        # each stage1 tensor is dropped once its stage3 tensor is made, so
        # continuing peaks below the size of the stage3 corpus it builds
        stage3_bytes = 64 * CUT_POINTS[2].raw_bytes     # 1 MiB of float32
        tracemalloc.start()
        try:
            corpus_stats(fresh, "stage1", 64)
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            corpus_stats(fresh, "stage3", 64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fresh._held_corpus is None
        assert peak - before < stage3_bytes

    def test_a_stage1_corpus_peaks_below_its_float32_bytes(self, fresh,
                                                             traced_peak):
        # the held corpus is packed as it is built, about half the 4 MiB of
        # its float32 tensors, so no moment holds all of those
        float32_bytes = 64 * CUT_POINTS[0].raw_bytes
        assert traced_peak(corpus_stats, fresh, "stage1", 64) < float32_bytes
        assert _held_bytes(fresh) < 0.6 * float32_bytes

    def test_a_cached_call_frees_the_held_corpus(self, fresh):
        # a session's own corpus_stats call is a cached hit after set-up
        # built the same stats; it must not keep the corpus for the
        # process's life
        tracemalloc.start()
        try:
            stats = corpus_stats(fresh, "stage2", 64)
            corpus_bytes = _held_bytes(fresh)
            held = tracemalloc.get_traced_memory()[0]
            assert corpus_stats(fresh, "stage2", 64) is stats
            left = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert fresh._held_corpus is None
        assert held - left >= corpus_bytes

    def test_another_image_count_never_leaves_two_corpora(self, fresh):
        # the held 64-image stage1 corpus is dropped before the 32-image
        # stage2 corpus is built, so the build peaks below where it began
        built_bytes = 32 * CUT_POINTS[1].raw_bytes      # 1 MiB of float32
        tracemalloc.start()
        try:
            corpus_stats(fresh, "stage1", 64)
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            corpus_stats(fresh, "stage2", 32)
            now, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert fresh._held_corpus[:2] == (32, 2)
        assert peak - before < built_bytes
        assert now < before

    def test_held_corpus_is_freed_with_its_model(self):
        # built here, not by a fixture, so that nothing else refers to it
        model = SplitModel()
        tracemalloc.start()
        try:
            stats = corpus_stats(model, "stage1", 64)
            corpus_bytes = _held_bytes(model)
            held = tracemalloc.get_traced_memory()[0]
            del model
            gc.collect()
            left = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert stats.sample_count == 64
        assert held >= corpus_bytes
        assert left < corpus_bytes / 4


class TestMeasureProfiles:
    def test_structure_and_stability(self, model):
        measure_profiles(model)          # warm caches before timing runs
        p1 = measure_profiles(model)
        p2 = measure_profiles(model)

        assert [p.name for p in p1] == [
            "client_only", "server_only",
            "split_stage1", "split_stage2", "split_stage3"]
        by_name = {p.name: p for p in p1}
        assert by_name["client_only"].payload_bytes == 0.0
        assert by_name["client_only"].client_infer_s > 0
        assert by_name["server_only"].payload_bytes > 0
        sizes = [by_name[f"split_stage{i}"].payload_bytes for i in (1, 2, 3)]
        assert sizes[0] > sizes[1] > sizes[2]  # deeper cut, smaller payload

        for a, b in zip(p1, p2):
            assert a.payload_bytes == b.payload_bytes
            for field in ("client_infer_s", "client_encode_s",
                          "server_decode_s", "server_infer_s"):
                x, y = getattr(a, field), getattr(b, field)
                # Wall-clock medians swing with machine load; a loose ratio
                # band still catches unit mistakes and swapped fields.
                if min(x, y) >= 1e-3:
                    assert max(x, y) <= 4.0 * min(x, y)


class TestResultContract:
    def test_predictions_sorted_and_sized(self, model, monkeypatch):
        bodies = []
        real = pl.make_control

        def spy(mtype, frame_id, body):
            if mtype is MsgType.RESULT:
                bodies.append(body)
            return real(mtype, frame_id, body)

        monkeypatch.setattr(pl, "make_control", spy)
        cfg = PipelineConfig(frames=3, frame_interval_us=150_000, top_k=7,
                             link=LinkScenario(seed=1))
        run_session(cfg, model)
        assert len(bodies) == 3
        for body in bodies:
            assert {"frameNumber", "inferenceTime", "predictions"} <= set(body)
            scores = [p["score"] for p in body["predictions"]]
            assert len(scores) == 7
            assert scores == sorted(scores, reverse=True)


def _report_bytes(cfg, model) -> bytes:
    return json.dumps(run_session(cfg, model), sort_keys=True).encode()


def _in_helper(parent: int, act):
    """A stand-in for ``pl._server_scores`` that runs ``act()`` where it
    runs in a helper, and the real routine where it runs in ``parent``."""
    real = pl._server_scores

    def scores(*args):
        if os.getpid() != parent:
            act()
        return real(*args)

    return scores


class UnpicklableError(Exception):
    def __init__(self, reason, detail):
        super().__init__(f"{reason}: {detail}")


def _raise(error):
    raise error


class TestHelper:
    """A session's helper computes the clean argmax and the server's scores
    of intact streams in a forked child; the report is the same bytes."""

    @pytest.mark.parametrize("cfg", [
        CLEAN,
        dataclasses.replace(LOSSY, frames=12, cut="stage1"),
        dataclasses.replace(LOSSY, frames=12, cut="stage3"),
        dataclasses.replace(LONG_RTT, frames=40),
        dataclasses.replace(LOSSY, frames=12, conceal="none"),
        dataclasses.replace(LOSSY, frames=12, conceal="channel_mean"),
        dataclasses.replace(LOSSY, frames=12, downlink_loss_prob=0.3),
    ], ids=["clean", "stage1", "stage3", "target_bytes", "conceal_none",
            "channel_mean", "downlink_loss"])
    def test_same_report_as_one_core(self, model, cores, monkeypatch, cfg):
        # and the server's inline forwards fall to the damaged frames alone
        parent, calls = os.getpid(), []
        real = SplitModel.forward_server
        monkeypatch.setattr(SplitModel, "forward_server", lambda self, *a: (
            calls.append(os.getpid() == parent) or real(self, *a)))
        corpus_stats(model, cfg.cut, cfg.stats_images)
        cores(1)
        one = _report_bytes(cfg, model)
        inline = calls.count(True)
        calls.clear()
        cores(2)
        assert _report_bytes(cfg, model) == one
        assert _report_bytes(cfg, model) == one     # with the kept helper
        report = json.loads(one)
        intact = [f for f in report["frames"]
                  if f["status"] == "ok" and not f["concealedRanges"]]
        assert calls.count(True) <= 2 * (inline - 2 * len(intact))
        if cfg is CLEAN:
            assert calls.count(True) == 0

    def test_a_failing_fork_gives_the_same_report(self, model, cores,
                                                  monkeypatch):
        cores(1)
        one = _report_bytes(LOSSY, model)
        cores(2)

        def no_fork():
            raise OSError("fork refused")

        monkeypatch.setattr(os, "fork", no_fork)
        assert _report_bytes(LOSSY, model) == one

    @pytest.mark.parametrize("cfg", [
        PipelineConfig(target_bytes=1, frames=3),
        PipelineConfig(frames=5, frame_interval_us=50_000,
                       invert_drop_rule=True, link=LinkScenario(seed=3)),
    ], ids=["infeasible_target", "all_dropped"])
    def test_a_session_with_no_kept_frame_forks_nothing(self, model, cores,
                                                        monkeypatch, cfg):
        corpus_stats(model, cfg.cut, cfg.stats_images)
        cores(2)
        forks = []
        real = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real())
        report = run_session(cfg, model)
        assert report["summary"]["frames_completed"] == 0
        assert forks == []

    def test_one_helper_per_model(self, model, cores, monkeypatch):
        # kept between the model's sessions, and forked again once ended
        corpus_stats(model, LOSSY.cut, LOSSY.stats_images)
        cores(2)
        forks = []
        real = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real())
        run_session(LOSSY, model)
        run_session(dataclasses.replace(LOSSY, cut="stage3"), model)
        assert forks == [1]
        sm.end_helpers()
        no_child_left()
        run_session(LOSSY, model)
        assert forks == [1, 1]

    def test_scores_only_for_their_session_and_stats(self, model, cores):
        # the server's own session and stats, parsed from MODEL_SWITCH,
        # must be those the helper scored the stream under
        cfg = LOSSY
        session = pl._parse_session(pl._switch_body(cfg))
        stats = corpus_stats(model, cfg.cut, cfg.stats_images)
        other = pl._parse_session(pl._switch_body(
            dataclasses.replace(cfg, top_k=3)))
        t = model.forward_client(model.generate_input(0), cfg.cut)
        bits = codec.pack(t, session.spec, stats, cfg.quality)[0]
        cores(2)
        for session_seen, stats_seen in [(other, stats),
                                         (session, copy.copy(stats))]:
            offpath = pl._OffPath(model, session, stats)
            offpath.submit(0, t, bits)
            assert offpath.helper is not None
            assert offpath.scores(0, bits, (), session_seen, stats_seen) is None
            assert offpath.argmaxes() == {0: model.argmax(t, cfg.cut)}
        offpath = pl._OffPath(model, session, stats)
        offpath.submit(0, t, bits)
        assert np.array_equal(offpath.scores(0, bits, (), session, stats),
                              pl._server_scores(model, session, stats, bits))
        offpath.argmaxes()

    @pytest.mark.parametrize("act, error, match", [
        (lambda: _raise(ValueError("broke in the helper")), ValueError,
         "broke in the helper"),
        (lambda: _raise(UnpicklableError("odd", "state")), RuntimeError,
         "a forked helper raised"),
        (lambda: os._exit(3), RuntimeError, "exited with code 3 "),
        (lambda: os.kill(os.getpid(), signal.SIGKILL), RuntimeError,
         "exited with code -9 "),
    ], ids=["raises", "raises_unpicklable", "exits", "killed"])
    def test_a_failing_helper_fails_the_session(self, model, cores,
                                                monkeypatch, act, error,
                                                match):
        cores(2)
        monkeypatch.setattr(pl, "_server_scores", _in_helper(os.getpid(), act))
        # the simulator names the event whose callback read the failure
        with pytest.raises(SimulationError) as info:
            run_session(LOSSY, model)
        assert type(info.value.__cause__) is error
        assert re.search(match, str(info.value.__cause__))
        no_child_left()

    def test_an_interrupted_session_ends_its_helper(self, model, cores,
                                                    monkeypatch):
        # an interrupt while the helper runs, here at the third kept frame
        cores(2)
        captures = []
        real = pl.side_channel_means

        def interrupted(t):
            captures.append(1)
            if len(captures) == 3:
                raise KeyboardInterrupt
            return real(t)

        monkeypatch.setattr(pl, "side_channel_means", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_session(LOSSY, model)
        no_child_left()
