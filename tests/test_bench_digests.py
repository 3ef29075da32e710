"""Output drift guard: the first operation of each benchmark workload, for
seed 0, reproduces the digest recorded in ``bench/digests.json``.

The benchmark checks every recorded digest when it runs; this test checks
one per workload in the tier-1 suite, so a change to any output fails here
too.  It only reads ``bench/``.
"""

import json
import sys
from pathlib import Path

import pytest

from splitstream.pipeline import corpus_stats

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS, digest  # noqa: E402

RECORDED = json.loads((BENCH / "digests.json").read_text())["0"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_first_operation_matches_recorded_digest(model, name):
    workload = WORKLOADS[name]
    op = workload.ops(0)[0]
    stats = {cut: corpus_stats(model, cut, n) for cut, n in workload.cuts}
    assert digest(workload.run(op, model, stats)) == RECORDED[name][str(op.op_id)]
