"""Set-up of a workload: the model with its calibration, then corpus stats.

``build`` is what a workload process runs before its first operation.  Run
as a script, it times that set-up cold, in the fresh interpreter it starts
in, and prints the seconds:

    python3 bench/coldstart.py stage2:64            # cut:stats_images ...

The clock starts before ``import splitstream``, so work a change moves into
import time still counts; numpy is imported first and untimed, because it is
not part of the program under test.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def build(cuts):
    """Default-seed model plus ``corpus_stats`` for each (cut, n_images)."""
    from splitstream import model, pipeline

    m = model.SplitModel()
    stats = {cut: pipeline.corpus_stats(m, cut, n) for cut, n in cuts}
    return m, stats


def parse_cuts(specs):
    return [(spec.split(":")[0], int(spec.split(":")[1])) for spec in specs]


if __name__ == "__main__":
    from reference import reference_s  # imports numpy, untimed

    sys.path.insert(0, str(SRC))
    ref_before = reference_s()
    t0 = time.perf_counter()
    build(parse_cuts(sys.argv[1:]))
    wall = time.perf_counter() - t0
    print(f"{wall:.9f} {(ref_before + reference_s()) / 2:.9f}")
