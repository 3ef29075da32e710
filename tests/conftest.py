"""Shared fixtures: one calibrated model per session, memoized corpora."""

import tracemalloc

import pytest
from hypothesis import settings

from splitstream import SplitModel, collect_stats

settings.register_profile("suite", deadline=None, max_examples=50)
settings.load_profile("suite")

# acceptance-criteria verdicts, printed in the terminal summary
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES,
                           key=lambda l: int(l.split()[1].rstrip(":"))):
            terminalreporter.write_line(line)


def cut_tensors(model, image_ids, cut: str) -> list:
    """Reference corpus: each image's cut tensor, in id order."""
    return [model.forward_client(model.generate_input(i), cut) for i in image_ids]


@pytest.fixture(scope="session")
def model():
    """Default-seed model; calibration is expensive, build it once."""
    return SplitModel()


@pytest.fixture(scope="session")
def corpus_at(model):
    """Memoized (tensors, stats) per (cut, n_images)."""
    cache = {}

    def get(cut: str, n: int):
        key = (cut, n)
        if key not in cache:
            tensors = cut_tensors(model, range(n), cut)
            cache[key] = (tensors, collect_stats(tensors, label=cut))
        return cache[key]

    return get


@pytest.fixture
def traced_peak():
    """Bytes a call allocates at its peak beyond what was allocated before
    it, as tracemalloc sees them (numpy reports its array buffers to it)."""

    def peak(fn, *args) -> int:
        was_tracing = tracemalloc.is_tracing()
        if not was_tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            fn(*args)
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            if not was_tracing:
                tracemalloc.stop()

    return peak
