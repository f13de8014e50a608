"""OS-noise daemon tests."""

import pytest

from repro.kernel.policies import SchedPolicy
from repro.workloads.noise import NoiseDaemons, spawn_noise
from tests.conftest import pure_compute_program


def test_duty_cycle():
    cfg = NoiseDaemons(period=0.01, burst=0.0005)
    assert cfg.duty == pytest.approx(0.05)


def test_one_daemon_per_cpu(quiet_kernel):
    daemons = spawn_noise(quiet_kernel)
    assert len(daemons) == 4
    assert {d.cpu for d in daemons} == {0, 1, 2, 3}
    assert all(getattr(d, "daemon") for d in daemons)
    assert all(d.policy == SchedPolicy.NORMAL for d in daemons)


def test_daemons_pinned(quiet_kernel):
    daemons = spawn_noise(quiet_kernel, cpus=[1, 3])
    assert [d.cpu for d in daemons] == [1, 3]


def test_daemons_steal_roughly_duty_cycle(quiet_kernel):
    k = quiet_kernel
    cfg = NoiseDaemons(period=0.01, burst=0.0005, jitter=0.0)
    daemons = spawn_noise(k, cfg, cpus=[0])
    worker = k.spawn("w", pure_compute_program(1.0), cpu=0)
    end = k.run()
    daemon_time = daemons[0].sum_exec_runtime
    # burst is expressed in work units; wall occupancy shrinks when the
    # daemon runs in ST mode (up to 2.1x), so the observed duty sits
    # between duty/2.1 and duty.
    observed = daemon_time / end
    assert cfg.duty / 3.0 < observed <= cfg.duty * 1.1


def test_noise_slows_colocated_worker(quiet_kernel):
    k = quiet_kernel
    spawn_noise(k, NoiseDaemons(period=0.01, burst=0.001), cpus=[0])
    k.spawn("w", pure_compute_program(0.5), cpu=0)
    end_noisy = k.run()

    from repro.experiments.common import build_kernel

    k2 = build_kernel()
    k2.spawn("w", pure_compute_program(0.5), cpu=0)
    end_clean = k2.run()
    assert end_noisy > end_clean


def test_run_terminates_despite_daemons(quiet_kernel):
    """Daemons are infinite loops; the run must still end."""
    k = quiet_kernel
    spawn_noise(k)
    k.spawn("w", pure_compute_program(0.05), cpu=0)
    end = k.run()
    assert end < 1.0
