import multiprocessing
import threading

import pytest

from hspolymer import experiments


class _CountedPool(experiments.ThreadPoolExecutor):
    """The run layer's pool, counting how many are started."""
    started = 0

    def __init__(self, *args, **kwargs):
        type(self).started += 1
        super().__init__(*args, **kwargs)


@pytest.fixture
def counted_pools(monkeypatch):
    monkeypatch.setattr(_CountedPool, "started", 0)
    monkeypatch.setattr(experiments, "ThreadPoolExecutor", _CountedPool)
    return _CountedPool


@pytest.fixture
def no_worker_left(monkeypatch):
    """A check that no thread started since the fixture was set up is still
    alive and that no child process was started in that time."""
    before = set(threading.enumerate())
    children = []
    start = multiprocessing.process.BaseProcess.start

    def recorded_start(self):
        children.append(self)
        start(self)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                        recorded_start)

    def check():
        assert set(threading.enumerate()) <= before
        assert children == []

    return check
