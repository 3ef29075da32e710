"""The three workloads, their operations and the output checks.

Every workload is a closed loop: one operation (a whole ``run_session``, or
one ``rate_fidelity_curve`` call) starts only after the previous one ended.
A workload seed fixes the operation list.  For sessions it derives the link
seeds (a session's image ids are its frame numbers, chosen by the program);
for the sweep it derives the image ids.  The model always has the default
seed 0x5EED.

A run repeats the operation list in whole passes, so every pass does the
same work and the simulated metrics come from one pass: they depend on the
seed only, never on how many passes the machine managed.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, replace

from splitstream import codec, pipeline
from splitstream.pipeline import LinkScenario, PipelineConfig

from reference import reference_s, scaled
from timeline import check_latencies, frame_timeline


def derive(seed: int, *tags) -> int:
    """64-bit value from a workload seed and tags, stable across Pythons."""
    data = repr((seed,) + tags).encode()
    return int.from_bytes(hashlib.sha256(data).digest()[:8], "little")


def digest(output) -> str:
    return hashlib.sha256(json.dumps(output, sort_keys=True).encode()).hexdigest()


@dataclass(frozen=True)
class Op:
    op_id: int        # session link seed, or sweep call index
    items: int        # simulated frames offered, or (image, quality) points
    args: object      # PipelineConfig, or (cut, image ids)


class SessionWorkload:
    unit = "frames"

    def __init__(self, name: str, template: PipelineConfig, sessions: int):
        self.name = name
        self.template = template
        self.sessions = sessions
        self.cuts = [(template.cut, template.stats_images)]

    def ops(self, seed: int) -> list[Op]:
        out = []
        for i in range(self.sessions):
            link_seed = derive(seed, self.name, "link", i) % 2 ** 31
            cfg = replace(self.template,
                          link=replace(self.template.link, seed=link_seed))
            out.append(Op(link_seed, cfg.frames, cfg))
        return out

    def run(self, op: Op, model, stats) -> dict:
        return pipeline.run_session(op.args, model)

    def check(self, op: Op, report: dict) -> list[str]:
        s = report["summary"]
        problems = check_latencies(report, frame_timeline(report))
        if len(report["frames"]) != op.items or s["frames_total"] != op.items:
            problems.append("frame rows do not match the configured frames")
        if s["frames_completed"] != sum(f["status"] == "ok" for f in report["frames"]):
            problems.append("frames_completed disagrees with the rows")
        if s["frames_failed"]:
            problems.append(f"{s['frames_failed']} frames failed")
        if s["max_gauge_excess_bytes"] > 0:
            problems.append("in-flight gauge exceeded expected lost + 1 MSS")
        return problems

    def summarize(self, ops: list[Op], reports: list[dict]) -> dict:
        """Simulated end-to-end figures over one pass (deterministic)."""
        completed = [f for r in reports for f in r["frames"] if f["status"] == "ok"]
        n = len(completed)
        total = sum(r["summary"]["frames_total"] for r in reports)
        latency_ms = [f["latency_us"] / 1000.0 for f in completed]
        span_s = sum(op.args.frames * op.args.frame_interval_us for op in ops) / 1e6
        return {
            "sim_completed_ratio": n / total,
            "sim_agreement": sum(f["agree"] for f in completed) / n if n else 0.0,
            "sim_latency_p50_ms": statistics.median(latency_ms) if n else 0.0,
            "sim_latency_p90_ms": statistics.quantiles(latency_ms, n=10)[8]
            if n > 1 else 0.0,
            "sim_goodput_kBps": sum(f["sentBytes"] for f in completed) / 1000.0 / span_s,
            "sim_latency_samples": n,
        }


class SweepWorkload:
    unit = "points"

    def __init__(self, name: str, cuts: tuple[str, ...], qualities: tuple[int, ...],
                 stats_images: int, images: int, images_per_op: int):
        self.name = name
        self.cut_names = cuts
        self.qualities = qualities
        self.images = images
        self.images_per_op = images_per_op
        self.cuts = [(cut, stats_images) for cut in cuts]

    def image_ids(self, seed: int) -> list[int]:
        return [derive(seed, self.name, "image", j) % 2 ** 20
                for j in range(self.images)]

    def ops(self, seed: int) -> list[Op]:
        ids = self.image_ids(seed)
        chunks = [tuple(ids[i:i + self.images_per_op])
                  for i in range(0, len(ids), self.images_per_op)]
        args = [(cut, chunk) for cut in self.cut_names for chunk in chunks]
        return [Op(k, len(chunk) * len(self.qualities), (cut, chunk))
                for k, (cut, chunk) in enumerate(args)]

    def run(self, op: Op, model, stats) -> list[dict]:
        cut, ids = op.args
        return codec.rate_fidelity_curve(model, ids, cut, self.qualities, stats[cut])

    def check(self, op: Op, rows: list[dict]) -> list[str]:
        if [r["quality"] for r in rows] != list(self.qualities):
            return ["rows do not cover the configured qualities"]
        return [f"bad row {r}" for r in rows
                if not (r["mean_bytes"] > 0 and 0.0 <= r["agreement"] <= 1.0)]

    def summarize(self, ops: list[Op], outputs: list[list[dict]]) -> dict:
        rows = [r for rs in outputs for r in rs]
        return {"agreement": sum(r["agreement"] for r in rows) / len(rows)}


WORKLOADS = {w.name: w for w in (
    # criterion 11's scenario, run longer: 10% uplink loss at 1 MB/s, 20 ms
    SessionWorkload("lossy_stream", PipelineConfig(
        cut="stage2", quality=85, conceal="dataset_mean", frames=100,
        frame_interval_us=150_000,
        link=LinkScenario(bandwidth_bps=1e6, rtt_us=20_000, loss_prob=0.1)),
        sessions=3),
    # rate-targeted frames over a slow long-RTT link: pacing-bound
    SessionWorkload("long_rtt_target", PipelineConfig(
        cut="stage2", target_bytes=10_000, frames=1000,
        frame_interval_us=33_333,
        link=LinkScenario(bandwidth_bps=1e5, rtt_us=300_000, loss_prob=0.02)),
        sessions=8),
    # criterion 12's shape on seed-drawn images: no link, no protocol
    SweepWorkload("rate_sweep", cuts=("stage1", "stage3"),
                  qualities=(2, 5, 10, 20, 40, 70, 95), stats_images=256,
                  images=32, images_per_op=8),
)}


class Runner:
    """Runs operations and checks every output.

    An output must pass the workload's check the first time its operation
    runs, match the recorded digest when one exists for the seed, and hash
    identically on every repeat.  An operation that raises or fails a check
    counts as failed; the run goes on.
    """

    def __init__(self, workload, model, stats, expected: dict | None):
        self.workload = workload
        self.model = model
        self.stats = stats
        self.expected = expected
        self.reference: dict[int, str] = {}
        self.outputs: dict[int, object] = {}
        self.attempted = 0
        self.failed = 0
        self.raw_items = 0
        self.raw_wall_s = 0.0

    def run_pass(self, ops: list[Op], tracer=None) -> list[float | None]:
        """Scaled wall seconds of each operation (see ``reference``); None
        where it failed.  The reference loop runs between operations, so
        each operation is bracketed by two of its timings."""
        walls: list[float | None] = []
        ref_before = reference_s()
        for op in ops:
            if tracer is not None:
                tracer.op_id = op.op_id
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                out = self.workload.run(op, self.model, self.stats)
            except Exception:
                walls.append(None)
                self.failed += 1
                print(f"operation {op.op_id} raised:", file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
                ref_before = reference_s()
                continue
            wall = time.perf_counter() - t0
            ref_after = reference_s()
            self.raw_wall_s += wall
            self.raw_items += op.items
            problems = self._verify(op, out)
            for p in problems:
                print(f"operation {op.op_id}: {p}", file=sys.stderr)
            self.failed += bool(problems)
            walls.append(None if problems else
                         scaled(wall, (ref_before + ref_after) / 2))
            ref_before = ref_after
        return walls

    def _verify(self, op: Op, out) -> list[str]:
        d = digest(out)
        if op.op_id in self.reference:
            if d != self.reference[op.op_id]:
                return [f"output digest {d} differs from the first run's"]
            return []
        problems = self.workload.check(op, out)
        if self.expected is not None and self.expected.get(str(op.op_id)) != d:
            problems.append(f"output digest {d} differs from the recorded one")
        if not problems:
            self.reference[op.op_id] = d
            self.outputs[op.op_id] = out
        return problems

    def summary(self, ops: list[Op]) -> dict:
        """The workload's simulated or sweep figures over one pass."""
        good = [op for op in ops if op.op_id in self.outputs]
        if not good:
            return {}
        return self.workload.summarize(good, [self.outputs[op.op_id] for op in good])


def items_per_s(ops: list[Op], passes: list[list[float | None]]) -> float:
    """Items of one pass over the sum of each operation's median scaled
    wall time.

    The median over repeats drops repeats the reference loop tracked badly;
    summing per operation keeps the pass's mix of cheap and costly
    operations.  An operation that never succeeded contributes nothing.
    """
    items, wall = 0, 0.0
    for i, op in enumerate(ops):
        walls = [p[i] for p in passes if p[i] is not None]
        if walls:
            items += op.items
            wall += statistics.median(walls)
    return items / wall if wall else 0.0
