"""Request-object validation tests."""

import pytest

from repro.kernel.policies import SchedPolicy
from repro.kernel.syscalls import (
    Compute,
    SetScheduler,
    Sleep,
)


def test_compute_rejects_negative():
    for work in (-1.0, float("nan")):
        with pytest.raises(ValueError):
            Compute(work)
    assert Compute(0.0).work == 0.0


def test_sleep_rejects_negative():
    for duration in (-0.1, float("nan")):
        with pytest.raises(ValueError):
            Sleep(duration)


def test_sleep_zero_continues_immediately(quiet_kernel):
    k = quiet_kernel

    def prog():
        yield Sleep(0.0)
        yield Compute(0.01)

    t = k.spawn("t", prog(), cpu=0)
    end = k.run()
    assert end < 0.1


def test_setscheduler_validates_rt_priority():
    with pytest.raises(ValueError):
        SetScheduler(SchedPolicy.FIFO, rt_priority=0)
    SetScheduler(SchedPolicy.NORMAL)  # no rt priority required
    SetScheduler(SchedPolicy.HPC)


def test_sleep_reason_labels():
    assert Sleep(0.1).sleep_reason == "sleep"
    assert SetScheduler(SchedPolicy.HPC).sleep_reason == "setscheduler"


def test_requests_not_marked_as_mpi_waits():
    assert not Sleep(0.1).is_wait
    assert not Compute(1.0).__class__.__dict__.get("is_wait", False)
