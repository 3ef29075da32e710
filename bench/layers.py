"""Per-layer metrics of a traced run.

Times are per pass of the workload's operation list, as the median over the
traced passes; counts and ratios are the same on every pass, so they come
from the first.  Set-up times come from the traced set-up in the workload
process.  Figures about frames and lost bytes are derived from the session
reports' event logs (see ``timeline``).
"""

from __future__ import annotations

import statistics

import numpy as np

from timeline import buffer_waits_us, frame_timeline
from tracer import self_times_ns, span_table


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def span_tables(spans, names, ranges) -> list[dict[str, dict]]:
    """``span_table`` for each (first span, end span) range."""
    self_ns = self_times_ns(spans)
    return [span_table(spans, self_ns, names, lo, hi) for lo, hi in ranges]


def layer_metrics(setup, tables, passes, workload, outputs) -> dict:
    """Per-layer values from the set-up's and each traced pass's span
    table; ``passes`` holds (span range, counters, wall seconds) for each
    traced pass."""
    first, counters = tables[0], passes[0][1]

    def calls(name):
        return first[name]["calls"] if name in first else 0

    def self_ms(name):
        return statistics.median(t[name]["self_ns"] if name in t else 0
                                 for t in tables) / 1e6

    def p50_ms(name):
        durs = [t[name]["dur_ns"] for t in tables if name in t]
        return float(np.median(np.concatenate(durs))) / 1e6 if durs else 0.0

    def setup_s(name):
        return float(setup[name]["dur_ns"].sum()) / 1e9 if name in setup else 0.0

    values = {}
    for name in ("model.forward_client", "model.forward_server", "codec.encode",
                 "codec.decode"):
        values[f"{name}.calls"] = calls(name)
        values[f"{name}.self_ms"] = self_ms(name)
        values[f"{name}.p50_ms"] = p50_ms(name)
    for name in ("model.generate_input", "quantizer.quantize",
                 "quantizer.dequantize", "tiling.tile", "tiling.detile",
                 "codec.encode_to_target", "codec.decode_prefix",
                 "concealment.conceal", "protocol.estimator",
                 "protocol.reassembly", "protocol.wire", "netsim.run_until",
                 "pipeline.session"):
        values[f"{name}.self_ms"] = self_ms(name)
    for name in ("codec.encode_to_target", "codec.decode_prefix",
                 "concealment.conceal", "protocol.estimator", "protocol.may_send"):
        values[f"{name}.calls"] = calls(name)

    reports = outputs if workload.unit == "frames" else []
    timelines = [frame_timeline(r) for r in reports]
    frames = [f for tl in timelines for f in tl.values()]
    waits = [w for r, tl in zip(reports, timelines)
             for w in buffer_waits_us(tl, r["config"]["client_process_us"])]
    concealed = _ratio(counters["concealment.elements_concealed"],
                       counters["quantizer.elements_dequantized"])
    bytes_lost = _ratio(sum(f["bytes_lost"] for f in frames),
                        sum(f["bytes_sent"] for f in frames))
    frames_total = sum(r["summary"]["frames_total"] for r in reports)

    values.update({
        "model.init_s": setup_s("model.init"),
        "tensor.collect_stats_s": setup_s("tensor.collect_stats"),
        "pipeline.corpus_stats_s": setup_s("pipeline.corpus_stats"),
        "codec.encodes_per_target": _ratio(counters["codec.encodes_in_target"],
                                           calls("codec.encode_to_target")),
        "codec.blocks_decoded_ratio": _ratio(counters["codec.blocks_decoded"],
                                             counters["codec.blocks_in_prefix_streams"]),
        "codec.bytes_per_frame": _ratio(counters["codec.bytes_encoded"],
                                        counters["codec.frames_encoded"]),
        "concealment.elements_concealed_ratio": concealed,
        "concealment.amplification": _ratio(concealed, bytes_lost),
        "protocol.may_send.refused_ratio": _ratio(counters["protocol.may_send.refused"],
                                                  calls("protocol.may_send")),
        "netsim.events": counters["netsim.events"],
        "netsim.link.sends": counters["netsim.link.sends"],
        "netsim.link.drop_ratio": _ratio(counters["netsim.link.drops"],
                                         counters["netsim.link.sends"]),
        "pipeline.max_queue_bytes": max(
            (r["summary"]["max_queue_bytes"] for r in reports), default=0),
        "pipeline.frames_dropped_ratio": _ratio(
            sum(r["summary"]["frames_dropped"] for r in reports), frames_total),
        "pipeline.sim_buffer_wait_ms_p50": statistics.median(waits) / 1000.0
        if waits else 0.0,
    })
    return values


def layer_shares(tables, passes) -> dict[str, float]:
    """Self time per layer over traced wall time, median over passes; the
    rest of the wall time is outside every span (benchmark loop, wrappers)."""
    per_pass = []
    for table, (_r, _c, traced_wall) in zip(tables, passes):
        shares: dict[str, float] = {}
        for name, row in table.items():
            layer = name.split(".")[0]
            shares[layer] = shares.get(layer, 0.0) + row["self_ns"] / 1e9 / traced_wall
        shares["(outside spans)"] = 1.0 - sum(shares.values())
        per_pass.append(shares)
    layers = sorted({k for s in per_pass for k in s},
                    key=lambda k: -per_pass[0].get(k, 0.0))
    return {k: statistics.median(s.get(k, 0.0) for s in per_pass) for k in layers}
