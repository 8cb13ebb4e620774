import pytest

from hspolymer import experiments


class _CountedPool(experiments.ProcessPoolExecutor):
    """The run layer's pool, counting how many are started."""
    started = 0

    def __init__(self, *args, **kwargs):
        type(self).started += 1
        super().__init__(*args, **kwargs)


@pytest.fixture
def counted_pools(monkeypatch):
    monkeypatch.setattr(_CountedPool, "started", 0)
    monkeypatch.setattr(experiments, "ProcessPoolExecutor", _CountedPool)
    return _CountedPool
