import pytest

from eviq import cores


@pytest.fixture(params=[1, 2], ids=["one_cpu", "two_cpus"])
def cpus(request, monkeypatch):
    """The number of CPUs eviq.cores sees in the affinity mask, 1 or 2."""
    monkeypatch.setattr(cores.os, "sched_getaffinity",
                        lambda pid: set(range(request.param)))
    return request.param
