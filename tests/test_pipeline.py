import json

import numpy as np
import pytest

import splitstream.pipeline as pl
from splitstream import (MsgType, ProtocolError, Simulator, SplitModel,
                         collect_stats, make_control)
from splitstream.pipeline import (FRAME_ROW_KEYS, LinkScenario, PipelineConfig,
                                  SessionError, corpus_stats, measure_profiles,
                                  run_session)

CLEAN = PipelineConfig(frames=8, frame_interval_us=150_000,
                       link=LinkScenario(seed=1))
LOSSY = PipelineConfig(frames=25, frame_interval_us=150_000,
                       link=LinkScenario(loss_prob=0.1, seed=42))

# regression pins from seeded runs; any drift means behavior changed
CLEAN_LATENCIES_US = [132006, 132486, 153514, 153975,
                      131713, 131925, 110863, 153950]


def _events(report):
    return [line.split(",")[1] for line in report["event_log"]]


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
    def test_clean_link_delivers_bitstreams_verbatim(self, model, monkeypatch):
        sent, received = [], []
        real_encode, real_decode = pl.encode, pl.decode

        def spy_encode(plane, quality):
            bits = real_encode(plane, quality)
            sent.append(bits)
            return bits

        def spy_decode(data):
            received.append(data)
            return real_decode(data)

        monkeypatch.setattr(pl, "encode", spy_encode)
        monkeypatch.setattr(pl, "decode", spy_decode)
        cfg = PipelineConfig(frames=4, frame_interval_us=150_000, quality=100,
                             link=LinkScenario(bandwidth_bps=1e7,
                                               rtt_us=2_000, seed=1))
        report = run_session(cfg, model)
        assert report["summary"]["frames_completed"] == 4
        assert len(sent) == len(received) == 4
        assert sent == received
        assert report["summary"]["agreement"] == 1.0


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
    ])
    def test_malformed_switch_is_a_protocol_error(self, model, body):
        # a malformed body is refused before the server replies downlink
        server = pl._Server(Simulator(), PipelineConfig(), model, None, None,
                            {})
        with pytest.raises(ProtocolError, match="MODEL_SWITCH"):
            server.on_uplink(make_control(MsgType.MODEL_SWITCH, 0, body))
        assert server.session is None


class TestValidation:
    def test_unknown_concealment(self, model):
        cfg = PipelineConfig(conceal="wishful")
        with pytest.raises(SessionError, match="concealment"):
            run_session(cfg, model)

    def test_unknown_cut(self, model):
        cfg = PipelineConfig(cut="stage9")
        with pytest.raises(SessionError, match="cut"):
            run_session(cfg, model)


class TestCorpusStats:
    def test_cache_is_shared_across_model_objects(self, model):
        twin = SplitModel(model.seed)
        assert corpus_stats(model, "stage2", 64) is corpus_stats(twin, "stage2", 64)

    def test_keyed_by_image_count(self, model):
        small = corpus_stats(model, "stage2", 8)
        assert small is not corpus_stats(model, "stage2", 64)
        assert small.sample_count == 8

    def test_keyed_by_seed(self, model):
        other = SplitModel(model.seed + 1)
        stats = corpus_stats(other, "stage2", 4)
        assert stats is not corpus_stats(model, "stage2", 4)
        want = collect_stats(other.corpus(range(4), "stage2"))
        assert np.array_equal(stats.per_neuron_mean, want.per_neuron_mean)


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
