"""Shared fixtures: one calibrated model per session, memoized corpora."""

import os
import tracemalloc

import pytest
from hypothesis import settings

from splitstream import SplitModel, collect_stats
from splitstream.model import end_helpers

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


def no_child_left():
    """This process has no child, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(autouse=True)
def reaped():
    """Ends the helpers that models keep between sessions after each test,
    then fails the test if it left any other child process behind."""
    yield
    end_helpers()
    no_child_left()


@pytest.fixture(scope="session")
def model():
    """Default-seed model; calibration is expensive, build it once."""
    return SplitModel()


@pytest.fixture
def cores(monkeypatch):
    """Sets how many cores the process may use, as the model's fan-out
    sees them, so a test can pin a sweep, a calibration or a corpus to one
    process or fan it out."""

    def pin(n: int):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                            raising=False)

    return pin


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
