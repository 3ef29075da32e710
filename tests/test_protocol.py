import copy
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import assembler_reference
import estimator_reference
from splitstream import (WIRE_HEADER, BandwidthEstimator, Confirmation,
                         FrameAssembler, MsgType, ProtocolError,
                         ReassemblyError, SendBuffer, WireMessage,
                         decode_message, encode_message, frame_deadline_us,
                         gate_shut_until, make_control, may_send, parse_control,
                         process_send_buffer, reassemble,
                         should_process_frame)


def _replay(rtt, history):
    """An estimator after a drawn history of (time step, confirm?, size):
    each step sends a packet or confirms one still unconfirmed.  Returns
    (estimator, time of the last step)."""
    est = BandwidthEstimator(rtt_us=rtt)
    now, unconfirmed = 0, []
    for i, (step, confirm, size) in enumerate(history):
        now += step
        if confirm and unconfirmed:
            key = unconfirmed.pop(size % len(unconfirmed))
            est.process_confirmation(Confirmation(*key, 0, now), now)
        else:
            est.record_sent(i, 0, size, now)
            unconfirmed.append((i, 0))
    return est, now


def _data_msg(frame_id, offset, payload, total):
    return WireMessage(msg_type=MsgType.DATA, frame_id=frame_id,
                       offset=offset, total_len=total, payload=payload)


def _reference_payload(self) -> tuple[bytes, list[tuple[int, int]]]:
    """``FrameAssembler.payload`` as it was first written, with a per-byte
    coverage map and gap walk; the oracle for the interval-based version."""
    if self.total_len is None:
        raise ReassemblyError("no segments received")
    buf = bytearray(self.total_len)
    have = bytearray(self.total_len)
    for off in sorted(self._segments):
        seg = self._segments[off]
        buf[off:off + len(seg)] = seg
        have[off:off + len(seg)] = b"\x01" * len(seg)
    gaps = []
    pos = 0
    while pos < self.total_len:
        if have[pos]:
            pos += 1
            continue
        start = pos
        while pos < self.total_len and not have[pos]:
            pos += 1
        gaps.append((start, pos))
    return bytes(buf), gaps


@st.composite
def _segment_sets(draw):
    """(total_len, [(offset, payload)]) with no two segments overlapping:
    the pieces between random cut points, each kept or left as a gap, plus
    empty segments at cut points where no kept piece starts."""
    total = draw(st.integers(0, 300))
    cuts = sorted(set(draw(st.lists(st.integers(0, total), max_size=12)))
                  | {0, total})
    segs = [(a, draw(st.binary(min_size=b - a, max_size=b - a)))
            for a, b in zip(cuts, cuts[1:]) if draw(st.booleans())]
    starts = {a for a, _ in segs}
    segs += [(c, b"") for c in cuts if c not in starts and draw(st.booleans())]
    if not segs:
        segs = [(0, b"")]
    return total, draw(st.permutations(segs))


class TestWireMessage:
    def test_header_is_19_bytes(self):
        assert WIRE_HEADER.size == 19

    @pytest.mark.parametrize("offset, flag_byte", [
        (0, 0x01),    # END_OF_TENSOR on a chunk that does not end the frame
        (50, 0x00),   # none on the chunk that does
        (0, 0x02),    # bits 1-7 are never set
        (50, 0x03),
    ])
    def test_end_flag_must_match_geometry(self, offset, flag_byte):
        wire = bytearray(encode_message(_data_msg(0, offset, b"x" * 50, 100)))
        wire[WIRE_HEADER.size - 3] = flag_byte
        with pytest.raises(ProtocolError, match="END_OF_TENSOR"):
            decode_message(bytes(wire))

    def test_end_of_tensor_property(self):
        msg = _data_msg(1, 60, b"y" * 40, 100)
        assert msg.end_of_tensor
        assert not _data_msg(1, 0, b"y" * 40, 100).end_of_tensor

    def test_payload_length_capped_at_u16(self):
        with pytest.raises(ProtocolError, match="u16"):
            _data_msg(0, 0, b"z" * 0x10000, 0x10000)

    @given(
        st.sampled_from(list(MsgType)),
        st.integers(0, 2 ** 32 - 1),
        st.integers(0, 2 ** 20),
        st.binary(max_size=300),
        st.integers(0, 5),
    )
    def test_round_trip_identity(self, mtype, frame_id, offset, payload, slack):
        total = offset + len(payload) + slack
        msg = WireMessage(msg_type=mtype, frame_id=frame_id, offset=offset,
                          total_len=total, payload=payload)
        wire = encode_message(msg)
        assert len(wire) == WIRE_HEADER.size + len(payload)
        assert decode_message(wire) == msg

    def test_decode_rejects_short_buffer(self):
        with pytest.raises(ProtocolError, match="shorter"):
            decode_message(b"\x54\x46\x01")

    def test_decode_rejects_bad_magic(self):
        wire = bytearray(encode_message(_data_msg(0, 0, b"abc", 3)))
        wire[0] = 0x00
        with pytest.raises(ProtocolError, match="magic"):
            decode_message(bytes(wire))

    def test_decode_rejects_bad_version(self):
        wire = bytearray(encode_message(_data_msg(0, 0, b"abc", 3)))
        wire[2] = 9
        with pytest.raises(ProtocolError, match="version"):
            decode_message(bytes(wire))

    def test_decode_rejects_unknown_type(self):
        wire = bytearray(encode_message(_data_msg(0, 0, b"abc", 3)))
        wire[3] = 77
        with pytest.raises(ProtocolError, match="type"):
            decode_message(bytes(wire))

    def test_decode_rejects_length_mismatch(self):
        wire = encode_message(_data_msg(0, 0, b"abc", 3))
        with pytest.raises(ProtocolError, match="payload_len"):
            decode_message(wire + b"!")
        with pytest.raises(ProtocolError, match="payload_len"):
            decode_message(wire[:-1])


class TestWireFuzz:
    @given(st.sampled_from(list(MsgType)), st.integers(0, 2 ** 32 - 1),
           st.binary(max_size=300),
           st.lists(st.tuples(st.integers(0, 10 ** 6), st.integers(0, 255)),
                    min_size=1, max_size=8),
           st.integers(0, 10 ** 6))
    def test_mutated_messages_raise_only_protocol_errors(
            self, mtype, frame_id, payload, edits, keep):
        msg = WireMessage(msg_type=mtype, frame_id=frame_id, offset=0,
                          total_len=len(payload), payload=payload)
        wire = bytearray(encode_message(msg))
        for pos, value in edits:
            wire[pos % len(wire)] = value
        for data in (bytes(wire), bytes(wire[:keep % (len(wire) + 1)])):
            try:
                parse_control(decode_message(data))
            except ProtocolError:
                pass

    @given(st.binary(max_size=300))
    def test_arbitrary_bytes_raise_only_protocol_errors(self, data):
        try:
            parse_control(decode_message(data))
        except ProtocolError:
            pass


class TestControlMessages:
    def test_round_trip(self):
        obj = {"cut": "stage2", "levels": 256, "clip": 3.0}
        msg = make_control(MsgType.MODEL_SWITCH, 7, obj)
        assert msg.end_of_tensor
        assert parse_control(decode_message(encode_message(msg))) == obj

    def test_payload_is_canonical_json(self):
        a = make_control(MsgType.RESULT, 0, {"b": 1, "a": 2})
        b = make_control(MsgType.RESULT, 0, {"a": 2, "b": 1})
        assert a.payload == b.payload

    def test_parse_rejects_garbage(self):
        junk = _data_msg(0, 0, b"\xff\xfe{", 3)
        with pytest.raises(ProtocolError, match="control"):
            parse_control(junk)

    @pytest.mark.parametrize("payload", [
        b"[" * 60000,                 # deeper than the parser recurses
        b'{"n": ' + b"1" * 5000 + b"}",  # more digits than int() converts
    ])
    def test_parse_rejects_payloads_beyond_parser_limits(self, payload):
        # both fit the u16 payload length
        with pytest.raises(ProtocolError, match="control"):
            parse_control(_data_msg(0, 0, payload, len(payload)))

    @pytest.mark.parametrize("payload", [b"[]", b"3", b'"ready"', b"null"])
    def test_parse_rejects_non_objects(self, payload):
        with pytest.raises(ProtocolError, match="not an object"):
            parse_control(_data_msg(0, 0, payload, len(payload)))


class TestConfirmation:
    def test_pack_unpack(self):
        conf = Confirmation(frame_id=9, packet_offset=2800,
                            cumulative_bytes=4200, recv_time_us=123456)
        packed = conf.pack()
        assert len(packed) == 24
        assert Confirmation.unpack(packed) == conf

    def test_unpack_size_checked(self):
        with pytest.raises(ProtocolError, match="24"):
            Confirmation.unpack(b"\x00" * 23)


class TestSendBuffer:
    def test_full_frame_packetizes_with_flush(self):
        buf = SendBuffer()
        data = bytes(range(250)) * 1  # 2.5 x mss for mss=100
        buf.enqueue(3, data)
        msgs = process_send_buffer(buf, mss=100)
        assert [len(m.payload) for m in msgs] == [100, 100, 50]
        assert [m.offset for m in msgs] == [0, 100, 200]
        assert all(m.total_len == 250 for m in msgs)
        assert [m.end_of_tensor for m in msgs] == [False, False, True]
        assert b"".join(m.payload for m in msgs) == data
        assert buf.peek() is None and buf.pending_bytes == 0

    def test_empty_frame_refused(self):
        buf = SendBuffer()
        with pytest.raises(ValueError, match="empty"):
            buf.enqueue(1, b"")
        assert buf.peek() is None and buf.pending_bytes == 0

    def test_empty_buffer(self):
        buf = SendBuffer()
        assert process_send_buffer(buf, mss=100) == []
        assert buf.peek() is None

    def test_peek_matches_pop(self):
        buf = SendBuffer()
        buf.enqueue(4, b"x" * 120)
        assert buf.peek() == (4, 0)
        msg = buf.pop_next(100)
        assert (msg.frame_id, msg.offset) == (4, 0)
        assert buf.peek() == (4, 100)

    def test_frames_drain_fifo(self):
        buf = SendBuffer()
        buf.enqueue(1, b"a" * 150)
        buf.enqueue(2, b"b" * 80)
        msgs = process_send_buffer(buf, mss=100)
        assert [(m.frame_id, m.offset, len(m.payload)) for m in msgs] == [
            (1, 0, 100), (1, 100, 50), (2, 0, 80)]

    def test_mss_validated(self):
        buf = SendBuffer()
        with pytest.raises(ValueError, match="mss"):
            buf.pop_next(0)

    @given(st.lists(st.one_of(st.binary(min_size=1, max_size=300),
                              st.integers(1, 120)), max_size=30))
    def test_pending_bytes_is_the_unsent_sum(self, ops):
        # a frame's bytes (enqueue) or an MSS (pop_next), in any order: the
        # running count is the sum of every queued frame's unsent bytes
        buf = SendBuffer()
        for i, op in enumerate(ops):
            if isinstance(op, bytes):
                buf.enqueue(i, op)
            else:
                buf.pop_next(op)
            assert buf.pending_bytes == sum(len(f.data) - f.next_offset
                                            for f in buf._frames)


class TestBandwidthEstimator:
    def test_rtt_validated(self):
        with pytest.raises(ValueError, match="rtt"):
            BandwidthEstimator(rtt_us=-1)

    def test_initial_state(self):
        est = BandwidthEstimator(rtt_us=10_000)
        assert est.loss_ewma == 1.0
        assert est.bytes_sent == est.bytes_confirmed == 0

    def test_cold_estimate_is_prior(self):
        est = BandwidthEstimator(rtt_us=10_000)
        assert est.estimate_bandwidth(0) == 1e6
        est.record_received(100, 0)
        est.record_received(100, 10)
        est.record_received(100, 20)
        assert est.estimate_bandwidth(30) == 1e6  # below min samples

    def test_windowed_estimate(self):
        est = BandwidthEstimator(rtt_us=10_000)
        for t in (900_000, 933_333, 966_666, 1_000_000):
            est.record_received(25_000, t)
        assert est.estimate_bandwidth(1_000_000) == pytest.approx(1e6)

    def test_estimate_distinct_from_prior(self):
        est = BandwidthEstimator(rtt_us=10_000)
        for t in (900_000, 933_333, 966_666, 1_000_000):
            est.record_received(50_000, t)
        assert est.estimate_bandwidth(1_000_000) == pytest.approx(2e6)

    def test_zero_byte_window_reads_one_byte_per_second(self):
        # re-announces are confirmed as zero-byte receipts; a window of
        # nothing else must not read as a zero rate, which callers divide by
        est = BandwidthEstimator(rtt_us=10_000)
        for t in (0, 10, 20, 30):
            est.record_received(0, t)
        assert est.estimate_bandwidth(40) == 1.0

    def test_stale_samples_expire(self):
        est = BandwidthEstimator(rtt_us=10_000)
        for t in (0, 10, 20, 30):
            est.record_received(50_000, t)
        assert est.estimate_bandwidth(2_000_000) == 1e6

    @given(st.lists(st.tuples(st.sampled_from(["recv", "confirm", "estimate"]),
                              st.integers(0, 400_000), st.integers(0, 200_000),
                              st.integers(0, 1400)), max_size=40))
    def test_window_total_is_the_sum_of_its_samples(self, ops):
        # the running total gives the estimate a full re-sum of the window
        # would give
        est = BandwidthEstimator(rtt_us=10_000)
        now = 0
        for i, (op, step, lag, size) in enumerate(ops):
            now += step
            if op == "recv":
                est.record_received(size, now)
            elif op == "confirm":
                # a confirmation's receive time may precede earlier samples'
                est.record_sent(i, 0, size, now)
                est.process_confirmation(Confirmation(i, 0, size, now - lag), now)
            else:
                kept = list(est._samples)
                while kept and kept[0][0] < now - est.WINDOW_US:
                    kept.pop(0)
                span = now - kept[0][0] if kept else 0
                want = (est.PRIOR_BW if len(kept) < est.MIN_SAMPLES or span <= 0
                        else max(sum(n for _, n in kept) * 1e6 / span, 1.0))
                assert est.estimate_bandwidth(now) == want
            assert est._window_bytes == sum(n for _, n in est._samples)

    def test_duplicate_send_rejected(self):
        est = BandwidthEstimator(rtt_us=10_000)
        est.record_sent(1, 0, 100, now_us=0)
        with pytest.raises(ProtocolError, match="duplicate send"):
            est.record_sent(1, 0, 100, now_us=5)

    def test_unknown_confirmation_rejected(self):
        est = BandwidthEstimator(rtt_us=10_000)
        with pytest.raises(ProtocolError, match="unknown packet"):
            est.process_confirmation(Confirmation(1, 0, 100, 50), now_us=50)

    def test_duplicate_confirmation_is_noop(self):
        est = BandwidthEstimator(rtt_us=10_000)
        est.record_sent(1, 0, 100, now_us=0)
        conf = Confirmation(1, 0, 100, 5_000)
        est.process_confirmation(conf, now_us=5_000)
        est.process_confirmation(conf, now_us=6_000)
        assert est.bytes_confirmed == 100

    def test_prompt_confirmation_keeps_loss_estimate(self):
        est = BandwidthEstimator(rtt_us=10_000)
        est.record_sent(1, 0, 100, now_us=0)
        est.process_confirmation(Confirmation(1, 0, 100, 9_000), now_us=9_000)
        assert est.loss_ewma == 1.0

    def test_late_confirmation_lowers_loss_estimate(self):
        est = BandwidthEstimator(rtt_us=10_000)
        est.record_sent(1, 0, 200, now_us=0)
        est.process_confirmation(Confirmation(1, 0, 200, 25_000),
                                 now_us=25_000)
        assert est.loss_ewma == pytest.approx(0.9)

    def test_declared_loss_and_recovery(self):
        est = BandwidthEstimator(rtt_us=10_000)
        est.record_sent(1, 0, 500, now_us=0)
        assert est.expected_lost_bytes(40_001) == 500.0
        assert est.bytes_declared_lost == 500
        est.process_confirmation(Confirmation(1, 0, 500, 50_000),
                                 now_us=50_000)
        assert est.bytes_declared_lost == 0
        assert est.bytes_confirmed == 500
        assert est.loss_ewma == pytest.approx(0.9)
        assert est.unreceived_bytes(50_000) == 0.0

    def test_outstanding_bytes(self):
        est = BandwidthEstimator(rtt_us=10_000)
        est.record_sent(1, 0, 300, now_us=0)
        assert est.outstanding_bytes() == 300
        est.process_confirmation(Confirmation(1, 0, 300, 100), now_us=100)
        assert est.outstanding_bytes() == 0

    def test_next_change_is_the_first_aging(self):
        est = BandwidthEstimator(rtt_us=10_000)
        assert est.next_change_us(0) == math.inf
        est.record_sent(1, 0, 100, now_us=0)
        est.record_sent(1, 100, 100, now_us=5_000)
        assert est.next_change_us(0) == 20_000        # first presumed lost
        assert est.next_change_us(20_000) == 25_000   # second presumed lost
        assert est.next_change_us(25_000) == 40_001   # first declared lost
        assert est.next_change_us(45_001) == math.inf

    @given(rtt=st.integers(0, 5_000),
           history=st.lists(st.tuples(st.integers(0, 12_000), st.booleans(),
                                      st.integers(0, 1400)), max_size=25),
           interior=st.lists(st.integers(0, 2 ** 32)))
    # a late confirmation, then a declared loss as the next change
    @example(rtt=1_000, history=[(0, False, 100), (5_000, True, 0),
                                 (0, False, 100), (2_002, False, 50)],
             interior=[])
    def test_unreceived_holds_until_next_change(self, rtt, history, interior):
        est, now = _replay(rtt, history)
        change = est.next_change_us(now)
        assert change > now
        last = now + 30 * rtt + 1 if change == math.inf else change - 1
        points = {now, last} | {now + x % (last - now + 1) for x in interior}
        # each reader sweeps the estimator, so each point reads a copy
        values = {copy.deepcopy(est).unreceived_bytes(t) for t in points}
        assert len(values) == 1

    @settings(max_examples=300)
    @given(rtt=st.one_of(st.integers(0, 6), st.integers(0, 20_000)),
           ops=st.lists(st.tuples(
               st.sampled_from(["send", "marker", "confirm", "duplicate",
                                "unknown", "lost", "unreceived", "next"]),
               st.one_of(st.integers(0, 30), st.integers(0, 100_000)),
               st.integers(0, 2 ** 16), st.integers(1, 1400)), max_size=60))
    # a packet read just before, at and after each of its two agings
    @example(rtt=1, ops=[("send", 0, 0, 100), ("next", 1, 0, 1),
                         ("next", 1, 0, 1), ("lost", 1, 0, 1),
                         ("lost", 1, 0, 1), ("confirm", 1, 0, 1)])
    # four confirmed zero-byte markers fill the window: 1 byte/s, not zero
    @example(rtt=0, ops=[("marker", 0, 0, 1)] * 4 + [("confirm", 0, 0, 1)]
             + [("send", 0, 0, 1)] * 9 + [("send", 1, 0, 1)]
             + [("confirm", 0, 0, 1)] * 3)
    def test_matches_reference(self, rtt, ops):
        # sends (some of zero-byte markers), prompt, late, declared,
        # duplicate and unknown confirmations, and reads, at non-decreasing
        # times: the kept view reads as the estimator that re-scanned its
        # pending packets on every read
        new = BandwidthEstimator(rtt_us=rtt)
        ref = estimator_reference.BandwidthEstimator(rtt_us=rtt)
        now, sent, confirmed = 0, [], []
        for i, (op, step, pick, size) in enumerate(ops):
            now += step
            if op in ("send", "marker"):
                key = (i, size) if op == "marker" else (i, 0)
                for est in (new, ref):
                    est.record_sent(*key, 0 if op == "marker" else size, now)
                sent.append(key)
            elif op in ("confirm", "duplicate", "unknown"):
                pool = {"confirm": sent, "duplicate": confirmed}.get(op)
                key = pool[pick % len(pool)] if pool else (-1, pick)
                conf = Confirmation(*key, 0, now)
                assert (_outcome(lambda: new.process_confirmation(conf, now))
                        == _outcome(lambda: ref.process_confirmation(conf, now)))
                if op == "confirm" and pool:
                    confirmed.append(sent.pop(pick % len(sent)))
            else:
                reader = {"lost": "expected_lost_bytes",
                          "unreceived": "unreceived_bytes",
                          "next": "next_change_us"}[op]
                assert getattr(new, reader)(now) == getattr(ref, reader)(now)
            for reader in ("expected_lost_bytes", "unreceived_bytes",
                           "next_change_us", "estimate_bandwidth"):
                assert getattr(new, reader)(now) == getattr(ref, reader)(now)
            assert (new.loss_ewma, new.bytes_declared_lost,
                    new.outstanding_bytes()) == (ref.loss_ewma,
                                                 ref.bytes_declared_lost,
                                                 ref.outstanding_bytes())

    def test_an_earlier_read_is_not_served_from_a_later_view(self):
        # a packet presumed lost at 20 ms was still in flight at 10 ms
        new = BandwidthEstimator(rtt_us=10_000)
        ref = estimator_reference.BandwidthEstimator(rtt_us=10_000)
        for est in (new, ref):
            est.record_sent(1, 0, 100, now_us=0)
        for now in (20_000, 10_000, 30_000, 0):
            assert ((new.expected_lost_bytes(now), new.next_change_us(now))
                    == (ref.expected_lost_bytes(now), ref.next_change_us(now)))
        assert new.expected_lost_bytes(10_000) == 0.0


class TestMaySend:
    def test_rate_limit_blocks(self):
        est = BandwidthEstimator(rtt_us=10_000)
        assert not may_send(est, now_us=5, slot_us=10)
        assert may_send(est, now_us=10, slot_us=10)

    def test_unconfirmed_bytes_block(self):
        est = BandwidthEstimator(rtt_us=10_000)
        est.record_sent(1, 0, 100, now_us=0)
        assert not may_send(est, now_us=100, slot_us=0)
        est.process_confirmation(Confirmation(1, 0, 100, 5_000), now_us=5_000)
        assert may_send(est, now_us=5_000, slot_us=0)

    def test_single_loss_releases_gate_at_presumption_age(self):
        est = BandwidthEstimator(rtt_us=10_000)
        for i in range(10):
            est.record_sent(0, i * 100, 100, now_us=0)
        for i in range(10):
            if i == 3:
                continue  # the lost packet
            est.process_confirmation(
                Confirmation(0, i * 100, (i + 1) * 100, 10_000),
                now_us=10_000)
        assert not may_send(est, 15_000, 0)
        assert may_send(est, 20_000, 0)  # within 2 RTT < 3 RTT bound

    @given(history=st.lists(st.tuples(st.integers(0, 30_000), st.booleans(),
                                      st.integers(0, 1400)), max_size=12),
           slot_offset=st.integers(-50_000, 80_000),
           interior=st.lists(st.integers(0, 2 ** 32), max_size=8))
    @example(history=[(0, False, 100)], slot_offset=0, interior=[])
    @example(history=[], slot_offset=40_000, interior=[])
    def test_gate_stays_shut_until_it_says(self, history, slot_offset,
                                           interior):
        """``may_send`` passes exactly when ``gate_shut_until`` is now, and
        refuses at every point of [now, gate_shut_until(now))."""
        rtt = 10_000
        est, now = _replay(rtt, history)
        slot = now + slot_offset
        # each reader sweeps the estimator, so each point reads a copy
        shut = gate_shut_until(copy.deepcopy(est), now, slot)
        assert shut >= now
        assert may_send(copy.deepcopy(est), now, slot) == (shut == now)
        if shut == now:
            return
        last = now + 30 * rtt if shut == math.inf else shut - 1
        points = {now, last} | {now + x % (last - now + 1) for x in interior}
        assert not any(may_send(copy.deepcopy(est), t, slot) for t in points)


class TestShouldProcessFrame:
    def test_idle_server_and_link_keep(self):
        assert should_process_frame(10_000, 0, 0)

    def test_busy_server_drops(self):
        assert not should_process_frame(10_000, 50_000, 0)

    def test_backlogged_link_drops(self):
        assert not should_process_frame(10_000, 0, 50_000)

    def test_slow_client_keeps(self):
        assert should_process_frame(50_000, 10_000, 10_000)

    def test_equality_keeps(self):
        assert should_process_frame(10_000, 10_000, 10_000)


@st.composite
def _arrivals(draw):
    """(offset, payload, total_len) of DATA messages for one frame: the
    pieces of a ``_segment_sets`` frame, shuffled in among duplicates of
    them, payloads that conflict with them, segments that start or end
    within two bytes of one of them or anywhere (so they may overlap or run
    past the end), empty ones among those, and conflicting total lengths."""
    total, segs = draw(_segment_sets())
    msgs = [(off, seg, total) for off, seg in segs]
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(
            ["duplicate", "conflict", "near", "random", "empty", "total"]))
        off, seg, _ = draw(st.sampled_from(msgs))
        if kind == "conflict":
            seg = draw(st.binary(max_size=8).filter(lambda b: b != seg))
        elif kind in ("near", "random", "empty"):
            new = draw(st.binary(max_size=0 if kind == "empty" else 40))
            if kind == "random":
                off = draw(st.integers(0, total + 2))
            else:
                edge = draw(st.sampled_from([off, off + len(seg)]))
                edge += draw(st.integers(-2, 2))
                off = max(0, edge - len(new) if draw(st.booleans()) else edge)
            seg = new
        msgs.insert(draw(st.integers(0, len(msgs))),
                    (off, seg, total + (kind == "total")))
    return msgs


def _outcome(call):
    try:
        return "ok", call()
    except ProtocolError as exc:
        return type(exc), str(exc)


class _CountingDict(dict):
    """A segment dict that counts the segments read through it."""

    visits = 0

    def __getitem__(self, key):
        self.visits += 1
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.visits += 1
        return super().get(key, default)

    def items(self):
        self.visits += len(self)
        return super().items()

    def values(self):
        self.visits += len(self)
        return super().values()

    def __iter__(self):
        self.visits += len(self)
        return super().__iter__()


class TestFrameAssembler:
    @given(_arrivals())
    @example([(0, b"abc", 5), (1, b"", 5)])        # empty inside a segment
    @example([(2, b"", 5), (0, b"abc", 5)])        # segment around an empty
    @example([(3, b"", 5), (0, b"abc", 5)])        # empty at a segment's end
    @example([(0, b"ab", 5), (0, b"", 5)])         # empty conflicts at offset
    @example([(1, b"ab", 5), (0, b"abcd", 5)])     # overlap from the left
    @example([(0, b"ab", 5), (4, b"xy", 5)])       # past the end
    @example([(0, b"ab", 5), (2, b"xy", 6)])       # total_len conflict
    def test_matches_reference(self, msgs):
        # every return value, error and payload as the assembler that
        # compared each segment with every other one
        new, ref = FrameAssembler(3), assembler_reference.FrameAssembler(3)
        for off, seg, total in msgs:
            msg = _data_msg(3, off, seg, total)
            assert (_outcome(lambda: new.add(msg))
                    == _outcome(lambda: ref.add(msg)))
            assert (new.bytes_received, new.complete) == (ref.bytes_received,
                                                          ref.complete)
        assert _outcome(new.payload) == _outcome(ref.payload)

    @pytest.mark.parametrize("cls", [FrameAssembler,
                                     assembler_reference.FrameAssembler],
                             ids=["neighbours", "reference"])
    def test_add_visits_a_bounded_number_of_segments(self, cls):
        # a 2000-packet frame in random order, with duplicates, conflicts
        # and overlaps; each add, and the reads of bytes_received and complete
        # the server makes after it, visit at most 3 segments however many
        # the frame holds, where the reference visits all of them
        n = 2000
        order = list(range(n))
        random.Random(5).shuffle(order)
        asm = cls(1)
        asm._segments = _CountingDict()
        most = 0
        for i, off in enumerate(order):
            msgs = [_data_msg(1, off, bytes([off % 256]), n)]
            if i % 7 == 0:
                msgs += [msgs[0], _data_msg(1, off, b"", n),
                         _data_msg(1, max(off - 1, 0), b"xy", n)]
            for msg in msgs:
                before = asm._segments.visits
                try:
                    asm.add(msg)
                except ReassemblyError:
                    pass
                asm.bytes_received, asm.complete
                most = max(most, asm._segments.visits - before)
        assert asm.complete and asm.payload() == (bytes(i % 256 for i in range(n)), [])
        if cls is FrameAssembler:
            assert most <= 3
        else:
            assert most >= n

    def test_in_order_assembly(self):
        asm = FrameAssembler(5)
        added = asm.add(_data_msg(5, 0, b"a" * 100, 150))
        added += asm.add(_data_msg(5, 100, b"b" * 50, 150))
        assert added == 150
        assert asm.complete
        data, gaps = asm.payload()
        assert data == b"a" * 100 + b"b" * 50
        assert gaps == []

    def test_duplicates_do_not_double_count(self):
        asm = FrameAssembler(1)
        msg = _data_msg(1, 0, b"x" * 80, 200)
        assert asm.add(msg) == 80
        assert asm.add(msg) == 0
        assert asm.bytes_received == 80

    def test_conflicting_total_len(self):
        asm = FrameAssembler(1)
        asm.add(_data_msg(1, 0, b"x" * 50, 200))
        with pytest.raises(ReassemblyError, match="total_len"):
            asm.add(_data_msg(1, 50, b"y" * 50, 300))

    def test_conflicting_payload(self):
        asm = FrameAssembler(1)
        asm.add(_data_msg(1, 0, b"x" * 50, 200))
        with pytest.raises(ReassemblyError, match="conflicting payload"):
            asm.add(_data_msg(1, 0, b"y" * 50, 200))

    def test_overlapping_segment(self):
        asm = FrameAssembler(1)
        asm.add(_data_msg(1, 0, b"x" * 50, 200))
        with pytest.raises(ReassemblyError, match="overlap"):
            asm.add(_data_msg(1, 25, b"y" * 50, 200))

    def test_segment_past_frame_end(self):
        asm = FrameAssembler(1)
        with pytest.raises(ReassemblyError, match="past declared"):
            asm.add(_data_msg(1, 180, b"x" * 50, 200))

    def test_wrong_frame_or_type(self):
        asm = FrameAssembler(1)
        with pytest.raises(ReassemblyError, match="frame 2"):
            asm.add(_data_msg(2, 0, b"x", 1))
        with pytest.raises(ReassemblyError, match="DATA"):
            asm.add(make_control(MsgType.RESULT, 1, {}))

    def test_gap_reporting(self):
        asm = FrameAssembler(9)
        asm.add(_data_msg(9, 0, b"a" * 100, 250))
        asm.add(_data_msg(9, 150, b"b" * 50, 250))
        data, gaps = asm.payload()
        assert gaps == [(100, 150), (200, 250)]
        assert data[:100] == b"a" * 100
        assert data[100:150] == b"\x00" * 50
        assert data[150:200] == b"b" * 50
        assert data[200:] == b"\x00" * 50
        assert not asm.complete

    @given(_segment_sets())
    @example((10, [(0, b"a" * 10)]))                   # no gap
    @example((10, [(4, b"b" * 6)]))                    # leading gap
    @example((10, [(0, b"c" * 4)]))                    # trailing gap
    @example((10, [(3, b"d" * 2), (7, b""), (9, b"")]))  # empties in a gap
    @example((0, [(0, b"")]))
    def test_gaps_match_reference(self, case):
        total, segs = case
        asm = FrameAssembler(3)
        for off, seg in segs:
            asm.add(_data_msg(3, off, seg, total))
        assert asm.payload() == _reference_payload(asm)

    @pytest.mark.parametrize("packets", [40, 1], ids=["complete", "one_packet"])
    def test_payload_holds_one_frame_buffer(self, traced_peak, packets):
        # the zero-filled buffer is the payload itself, not copied again
        total = 40_000
        asm = FrameAssembler(2)
        for i in range(packets):
            asm.add(_data_msg(2, 1000 * i, bytes([i]) * 1000, total))
        assert traced_peak(asm.payload) < 1.5 * total

    def test_payload_requires_metadata(self):
        with pytest.raises(ReassemblyError, match="no segments"):
            FrameAssembler(0).payload()

    def test_reassemble_requires_messages(self):
        with pytest.raises(ReassemblyError, match="no messages"):
            reassemble([])

    @given(st.binary(min_size=1, max_size=2000),
           st.integers(1, 700), st.integers(0, 2 ** 32 - 1))
    def test_any_arrival_order_reconstructs(self, data, mss, seed):
        buf = SendBuffer()
        buf.enqueue(12, data)
        msgs = process_send_buffer(buf, mss=mss)
        assert all(len(m.payload) == mss for m in msgs[:-1])
        assert msgs[-1].end_of_tensor
        random.Random(seed).shuffle(msgs)
        assert reassemble(msgs) == (data, [])


class TestFrameDeadline:
    def test_known_value(self):
        assert frame_deadline_us(100_000, 2e6, 10_000) == 120_000

    def test_dead_bandwidth_floored(self):
        # bw 0 is floored to 1 B/s rather than dividing by zero
        assert frame_deadline_us(10, 0.0, 0) == 10 * 10 ** 6 + 50_000
