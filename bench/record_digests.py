"""Record the output digests the benchmark checks against.

    python3 bench/record_digests.py 0 15     # seeds 0..15, all workloads

Runs each workload's operation list once per seed, checks every output, and
writes ``bench/digests.json``: seed -> workload -> operation id -> SHA-256 of
the output serialized with ``sort_keys``.  Re-record only when a change is
meant to alter the outputs; otherwise a mismatch is a behaviour change.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from splitstream import model, pipeline  # noqa: E402

from workloads import WORKLOADS, digest  # noqa: E402


def main() -> int:
    first, last = int(sys.argv[1]), int(sys.argv[2])
    m = model.SplitModel()
    out: dict = {}
    for seed in range(first, last + 1):
        for w in WORKLOADS.values():
            stats = {cut: pipeline.corpus_stats(m, cut, n) for cut, n in w.cuts}
            for op in w.ops(seed):
                result = w.run(op, m, stats)
                problems = w.check(op, result)
                if problems:
                    print(f"seed {seed} {w.name} op {op.op_id}: {problems}",
                          file=sys.stderr)
                    return 1
                out.setdefault(str(seed), {}).setdefault(w.name, {})[
                    str(op.op_id)] = digest(result)
        print(f"seed {seed} recorded", flush=True)
    (BENCH / "digests.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
