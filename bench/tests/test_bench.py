"""Tests of the benchmark itself: python3 -m pytest bench/tests -q"""

import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from splitstream import codec, pipeline  # noqa: E402
from splitstream.model import SplitModel  # noqa: E402

import run  # noqa: E402
from timeline import check_latencies, frame_timeline  # noqa: E402
from tracer import Tracer, self_times_ns  # noqa: E402
from workloads import WORKLOADS, Runner, SessionWorkload, items_per_s  # noqa: E402


@pytest.fixture(scope="module")
def model():
    return SplitModel()


def _small_session_ops(name, frames, seed=3):
    w = WORKLOADS[name]
    small = SessionWorkload(name, replace(w.template, frames=frames), sessions=2)
    return small, small.ops(seed)


def _dump(output) -> str:
    return json.dumps(output, sort_keys=True)


def test_tracer_leaves_outputs_byte_identical(model):
    lossy, lossy_ops = _small_session_ops("lossy_stream", 20)
    rtt, rtt_ops = _small_session_ops("long_rtt_target", 150)
    sweep = WORKLOADS["rate_sweep"]
    stats = {cut: pipeline.corpus_stats(model, cut, 64) for cut in ("stage1", "stage3")}
    sweep_op = replace(sweep.ops(3)[0], args=("stage3", (11, 12)))
    cases = [(lossy, op, None) for op in lossy_ops] \
        + [(rtt, op, None) for op in rtt_ops] + [(sweep, sweep_op, stats)]

    plain = [_dump(w.run(op, model, st)) for w, op, st in cases]
    tracer = Tracer()
    with tracer:
        traced = [_dump(w.run(op, model, st)) for w, op, st in cases]
    assert traced == plain
    assert len(tracer) > 0 and tracer.counters["netsim.events"] > 0
    # uninstall restores every binding the wrappers replaced
    assert pipeline.encode is codec.encode and not hasattr(codec.encode, "__wrapped__")
    assert not hasattr(SplitModel.forward_client, "__wrapped__")


def test_spans_nest_and_self_times_are_non_negative(model):
    w, ops = _small_session_ops("lossy_stream", 20)
    tracer = Tracer()
    with tracer:
        for op in ops:
            tracer.op_id = op.op_id
            w.run(op, model, None)
    spans = tracer.arrays()
    assert (self_times_ns(spans) >= 0).all()
    child = np.flatnonzero(spans["parent"] >= 0)
    parent = spans["parent"][child]
    assert (spans["start"][parent] <= spans["start"][child]).all()
    assert (spans["end"][child] <= spans["end"][parent]).all()
    assert set(np.unique(spans["op"])) == {op.op_id for op in ops}
    names = set(tracer.names[i] for i in np.unique(spans["name"]))
    assert {"pipeline.session", "netsim.run_until", "codec.encode",
            "protocol.may_send"} <= names


def test_workload_seed_regenerates_identical_inputs():
    for w in WORKLOADS.values():
        assert w.ops(7) == w.ops(7)
        assert w.ops(7) != w.ops(8)
    assert WORKLOADS["rate_sweep"].image_ids(7) == WORKLOADS["rate_sweep"].image_ids(7)


def test_timeline_matches_report_rows(model):
    w, ops = _small_session_ops("lossy_stream", 30)
    for op in ops:
        report = w.run(op, model, None)
        timeline = frame_timeline(report)
        assert check_latencies(report, timeline) == []
        lost = sum(f["bytes_lost"] for f in timeline.values())
        assert lost > 0 and lost < sum(f["bytes_sent"] for f in timeline.values())


class _RaisingOnce(SessionWorkload):
    def run(self, op, model, stats):
        if op.op_id == self.bad:
            raise RuntimeError("injected failure")
        return super().run(op, model, stats)


def test_raising_session_is_counted_and_run_goes_on(model):
    w, _ = _small_session_ops("lossy_stream", 10)
    bad = _RaisingOnce(w.name, w.template, sessions=3)
    ops = bad.ops(5)
    bad.bad = ops[1].op_id
    runner = Runner(bad, model, None, expected=None)
    passes = [runner.run_pass(ops) for _ in range(2)]
    assert runner.attempted == 6 and runner.failed == 2
    assert [p[1] for p in passes] == [None, None]
    assert all(p[0] and p[2] for p in passes)
    assert set(runner.outputs) == {ops[0].op_id, ops[2].op_id}
    assert items_per_s(ops, passes) > 0


def test_recorded_digest_mismatch_is_a_failure(model):
    w, ops = _small_session_ops("lossy_stream", 10)
    runner = Runner(w, model, None, expected={str(ops[0].op_id): "0" * 64})
    runner.run_pass(ops[:1])
    assert runner.failed == 1 and runner.outputs == {}


def test_benchmark_json_lists_what_run_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == run.PER_LAYER
