"""Launcher and RankSpec tests."""

import pytest

from repro.kernel.policies import SchedPolicy
from repro.workloads import MetBench, launch_workload
from repro.workloads.base import RankSpec, Workload


def test_launch_binds_ranks_in_order(quiet_kernel):
    wl = MetBench(iterations=1)
    launched = launch_workload(quiet_kernel, wl)
    assert set(launched.tasks) == {"master", "P1", "P2", "P3", "P4"}
    # rank 0 is the master, workers follow
    assert launched.runtime.tasks[0] is launched.tasks["master"]
    assert launched.runtime.tasks[1] is launched.tasks["P1"]


def test_launch_pins_ranks(quiet_kernel):
    launched = launch_workload(quiet_kernel, MetBench(iterations=1))
    assert launched.tasks["P1"].cpu == 0
    assert launched.tasks["P4"].cpu == 3


def test_launch_without_hpc_keeps_normal_policy(quiet_kernel):
    launched = launch_workload(quiet_kernel, MetBench(iterations=1))
    quiet_kernel.sim.run(until=0.001)
    assert launched.tasks["P1"].policy == SchedPolicy.NORMAL


def test_launch_with_hpc_optin(quiet_kernel):
    from repro.hpcsched import attach_hpcsched

    attach_hpcsched(quiet_kernel)
    launched = launch_workload(quiet_kernel, MetBench(iterations=1), use_hpc=True)
    quiet_kernel.sim.run(until=0.001)
    # the wrapper's first action moved every rank into SCHED_HPC
    assert launched.tasks["P1"].policy == SchedPolicy.HPC
    assert launched.tasks["master"].policy == SchedPolicy.HPC


def test_workload_measured_names_excludes_master():
    wl = MetBench(iterations=1)
    assert wl.measured_names() == ["P1", "P2", "P3", "P4"]


def test_rank_without_a_cpu_rejected(quiet_kernel):
    """A task runs where it starts, so a rank must name its CPU."""
    from repro.kernel.syscalls import Compute

    def factory(mpi):
        def prog():
            yield Compute(0.01)

        return prog()

    class Solo(Workload):
        name = "solo"

        def rank_specs(self):
            return [RankSpec(name="only", factory=factory)]

    with pytest.raises(ValueError, match="'only'"):
        launch_workload(quiet_kernel, Solo())
