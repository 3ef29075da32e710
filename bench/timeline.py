"""Per-frame simulated timeline derived from a session report's event log.

Each log line is ``time_us,event,frame_id,offset,length``.  A frame's spans
are read off its own lines: ``frame_capture``, the first ``send``, the last
``recv``, ``deadline`` and ``result``.  A lost uplink packet shows up as an
``up_drop`` line logged by the link right after the ``send`` line of the
packet it drops (same time, length = wire header + payload), and carries no
frame id of its own, so its bytes are charged to the frame of that ``send``.
``announce`` and ``model_switch`` lines also precede uplink sends; a drop
after them loses no DATA bytes.
"""

from __future__ import annotations

from splitstream.protocol import WIRE_HEADER


def _frame(frames: dict, fid: int) -> dict:
    if fid not in frames:
        frames[fid] = {
            "capture_us": None, "dropped": False, "first_send_us": None,
            "last_recv_us": None, "deadline_us": None, "result_us": None,
            "bytes_sent": 0, "bytes_lost": 0,
        }
    return frames[fid]


def frame_timeline(report: dict) -> dict[int, dict]:
    """Frame id -> simulated spans and DATA byte counts."""
    frames: dict[int, dict] = {}
    prev = None
    for line in report["event_log"]:
        t_s, event, fid_s, _off, length_s = line.split(",")
        t, fid, length = int(t_s), int(fid_s), int(length_s)
        if event == "frame_capture":
            _frame(frames, fid)["capture_us"] = t
        elif event == "frame_drop":
            _frame(frames, fid)["dropped"] = True
        elif event == "send":
            f = _frame(frames, fid)
            if f["first_send_us"] is None:
                f["first_send_us"] = t
            f["bytes_sent"] += length
        elif event == "recv":
            _frame(frames, fid)["last_recv_us"] = t
        elif event == "deadline":
            _frame(frames, fid)["deadline_us"] = t
        elif event == "result":
            _frame(frames, fid)["result_us"] = t
        elif event == "up_drop" and prev is not None and prev[1] == "send":
            p_t, _, p_fid, p_len = prev
            if p_t != t or length != p_len + WIRE_HEADER.size:
                raise ValueError(f"up_drop at {t} does not match send {prev}")
            frames[p_fid]["bytes_lost"] += p_len
        prev = (t, event, fid, length)
    return frames


def check_latencies(report: dict, timeline: dict[int, dict]) -> list[str]:
    """Problems where the derived capture-to-result time disagrees with the
    report row's ``latency_us`` (empty when every row matches)."""
    problems = []
    for row in report["frames"]:
        f = timeline.get(row["frameNumber"])
        if row["status"] == "ok":
            derived = None if f is None or f["result_us"] is None \
                else f["result_us"] - f["capture_us"]
            if derived != row["latency_us"]:
                problems.append(f"frame {row['frameNumber']}: timeline "
                                f"{derived} us != report {row['latency_us']} us")
        elif row["dropped"] != (f is not None and f["dropped"]):
            problems.append(f"frame {row['frameNumber']}: drop flag disagrees")
    return problems


def buffer_waits_us(timeline: dict[int, dict], client_process_us: int) -> list[int]:
    """Send-buffer wait per sent frame: the frame is enqueued
    ``client_process_us`` after capture and waits there until its first
    packet is released."""
    return [f["first_send_us"] - (f["capture_us"] + client_process_us)
            for f in timeline.values() if f["first_send_us"] is not None]
