"""Runtime invariant oracles: installation, checks, violation paths."""

import pytest

from repro.kernel.core_sched import Kernel
from repro.kernel.syscalls import Compute, Sleep
from repro.power5 import decode
from repro.power5.machine import Machine, MachineTopology
from repro.power5.perfmodel import TableDrivenModel
from repro.validate.invariants import (
    InvariantViolation,
    KernelOracles,
    install,
    maybe_install,
    validation_enabled,
)


def make_kernel():
    return Kernel(machine=Machine(MachineTopology(), TableDrivenModel()))


@pytest.fixture
def oracles():
    kernel = make_kernel()
    yield install(kernel)
    decode.disable_validation()


# ----------------------------------------------------------------------
# Enablement plumbing
# ----------------------------------------------------------------------
def test_env_flag_parsing(monkeypatch):
    for value in ("1", "true", "yes", "on"):
        monkeypatch.setenv("REPRO_VALIDATE", value)
        assert validation_enabled()
    for value in ("", "0", "no", "off"):
        monkeypatch.setenv("REPRO_VALIDATE", value)
        assert not validation_enabled()


def test_production_kernel_has_no_oracles(monkeypatch):
    monkeypatch.delenv("REPRO_VALIDATE", raising=False)
    assert make_kernel().oracles is None


def test_env_flag_installs_oracles_on_new_kernels(monkeypatch):
    monkeypatch.setenv("REPRO_VALIDATE", "1")
    try:
        kernel = make_kernel()
        assert isinstance(kernel.oracles, KernelOracles)
        assert kernel.sim.oracle is kernel.oracles
        assert decode._VALIDATE
    finally:
        decode.disable_validation()


def test_maybe_install_respects_disabled_flag(monkeypatch):
    monkeypatch.setenv("REPRO_VALIDATE", "0")
    assert maybe_install(make_kernel()) is None


# ----------------------------------------------------------------------
# End-to-end: oracles ride along a real run and stay silent
# ----------------------------------------------------------------------
def test_oracles_run_clean_on_real_workload(monkeypatch):
    monkeypatch.setenv("REPRO_VALIDATE", "1")
    try:
        kernel = make_kernel()

        def prog(work, pause):
            def gen():
                for _ in range(3):
                    yield Compute(work)
                    yield Sleep(pause)

            return gen()

        kernel.spawn("a", prog(0.01, 0.002), cpu=0)
        kernel.spawn("b", prog(0.02, 0.001), cpu=1)
        kernel.run()
        oracles = kernel.oracles
        assert oracles.checks > 0
        assert oracles.violations == 0
        assert sum(oracles.cpu_busy.values()) > 0.0
    finally:
        decode.disable_validation()


def test_oracles_run_clean_on_differential_scenarios(monkeypatch):
    """Fluid runs of the differential harness pass every oracle."""
    monkeypatch.setenv("REPRO_VALIDATE", "1")
    try:
        from repro.validate.fuzz import generate_scenario
        from repro.validate.scenario import build_kernel_run

        for i in range(5):
            build_kernel_run(generate_scenario(7, i))
    finally:
        decode.disable_validation()


# ----------------------------------------------------------------------
# Violation paths (each oracle actually bites)
# ----------------------------------------------------------------------
def test_on_account_rejects_negative_delta(oracles):
    task = oracles.kernel.spawn("t", iter(()), cpu=0)
    with pytest.raises(InvariantViolation, match="negative occupancy"):
        oracles.on_account(0, task, -1e-3, now=1.0)


def test_on_account_rejects_overfull_cpu(oracles):
    task = oracles.kernel.spawn("t", iter(()), cpu=0)
    with pytest.raises(InvariantViolation, match="conservation"):
        oracles.on_account(0, task, delta=2.0, now=1.0)


def test_on_account_rejects_task_outrunning_wall_clock(oracles):
    task = oracles.kernel.spawn("t", iter(()), cpu=0)
    task.sum_exec_runtime = 5.0
    with pytest.raises(InvariantViolation, match="charged"):
        oracles.on_account(0, task, delta=0.5, now=1.0)


def test_on_run_end_audits_accumulated_busy(oracles):
    oracles.cpu_busy[0] = 2.0
    with pytest.raises(InvariantViolation, match="accumulated"):
        oracles.on_run_end(end=1.0)


def test_on_event_rejects_cancelled_delivery(oracles):
    ev = oracles.kernel.sim.queue.push(1.0, lambda: None)
    ev.cancel()
    with pytest.raises(InvariantViolation, match="cancelled"):
        oracles.on_event(ev)


def test_on_event_rejects_time_travel(oracles):
    late = oracles.kernel.sim.queue.push(2.0, lambda: None)
    early = oracles.kernel.sim.queue.push(1.0, lambda: None)
    oracles.on_event(late)
    with pytest.raises(InvariantViolation, match="backwards"):
        oracles.on_event(early)


def test_on_event_rejects_live_count_desync(oracles):
    """The run loop counts each delivery as it happens, so the oracle
    sees a corrupted live counter at the very next delivery, inside the
    same instant."""
    sim = oracles.kernel.sim
    fired = []

    def corrupt():
        fired.append("corrupt")
        sim.queue._delivered += 1

    sim.at(1.0, corrupt, priority=0)
    sim.at(1.0, lambda: fired.append("next"), priority=1)
    sim.at(1.0, lambda: fired.append("last"), priority=2)
    with pytest.raises(InvariantViolation, match="live count out of sync"):
        sim.run()
    assert fired == ["corrupt"]
    assert sim.now == 1.0
    assert oracles.violations == 1


def test_on_vruntime_rejects_regression(oracles):
    task = oracles.kernel.spawn("t", iter(()), cpu=0)
    task.vruntime = 2.0
    oracles.on_vruntime(task)
    task.vruntime = 1.0
    with pytest.raises(InvariantViolation, match="vruntime"):
        oracles.on_vruntime(task)


def test_on_vruntime_placed_rebaselines(oracles):
    task = oracles.kernel.spawn("t", iter(()), cpu=0)
    task.vruntime = 2.0
    oracles.on_vruntime(task)
    task.vruntime = 3.5  # wake placement raised it
    oracles.on_vruntime_placed(task)
    oracles.on_vruntime(task)  # no violation


def test_on_min_vruntime_rejects_regression(oracles):
    oracles.on_min_vruntime(0, 2.0)
    with pytest.raises(InvariantViolation, match="min_vruntime"):
        oracles.on_min_vruntime(0, 1.0)


def test_on_iteration_rejects_out_of_range_utilization(oracles):
    task = oracles.kernel.spawn("t", iter(()), cpu=0)
    oracles.on_iteration(task, 0.0)
    oracles.on_iteration(task, 1.0)
    with pytest.raises(InvariantViolation, match="utilization"):
        oracles.on_iteration(task, 1.5)
    with pytest.raises(InvariantViolation, match="utilization"):
        oracles.on_iteration(task, -0.5)


class _StubDetector:
    """Duck-typed detector carrying just what the oracle reads."""

    def __init__(self, state, current_prio):
        self.state = state
        self.mechanism = self

    def read(self, task):
        return getattr(self, "_prio", None)


def _detector(state, current_prio=None):
    d = _StubDetector(state, current_prio)
    d._prio = current_prio
    return d


def test_on_priority_apply_rejects_frozen_action(oracles):
    task = oracles.kernel.spawn("t", iter(()), cpu=0)
    with pytest.raises(InvariantViolation, match="FROZEN"):
        oracles.on_priority_apply(_detector("frozen"), task, 4)


def test_on_priority_apply_rejects_out_of_range(oracles):
    task = oracles.kernel.spawn("t", iter(()), cpu=0)
    hi = oracles.kernel.tunables.get("hpcsched/max_prio")
    with pytest.raises(InvariantViolation, match="outside"):
        oracles.on_priority_apply(_detector("adjusting"), task, hi + 1)


def test_on_priority_apply_rejects_upward_while_observing(oracles):
    task = oracles.kernel.spawn("t", iter(()), cpu=0)
    with pytest.raises(InvariantViolation, match="OBSERVING"):
        oracles.on_priority_apply(_detector("observing", 4), task, 6)
    # downward corrections while observing are legal:
    oracles.on_priority_apply(_detector("observing", 6), task, 4)


def test_live_detector_never_trips_the_oracle(monkeypatch):
    """The adaptive experiment, oracles on: every detector decision is
    legal by construction — and the iteration oracle sees real data."""
    monkeypatch.setenv("REPRO_VALIDATE", "1")
    try:
        from repro.experiments import metbench

        metbench.run_one("adaptive", iterations=4, keep_trace=False)
    finally:
        decode.disable_validation()


# ----------------------------------------------------------------------
# Decode-share self-checks
# ----------------------------------------------------------------------
def test_decode_validation_accepts_all_normal_pairs():
    decode.enable_validation()
    try:
        for pa in range(8):
            for pb in range(8):
                fa, fb = decode.decode_shares(pa, pb)
                assert 0.0 <= fa <= 1.0 and 0.0 <= fb <= 1.0
    finally:
        decode.disable_validation()


def test_decode_validation_catches_bad_background_share(monkeypatch):
    decode.enable_validation()
    try:
        monkeypatch.setattr(decode, "BACKGROUND_SHARE", 1.5)
        with pytest.raises(decode.DecodeShareError):
            decode.decode_shares(1, 4)
    finally:
        decode.disable_validation()


def test_decode_checks_cost_nothing_when_disabled(monkeypatch):
    """With validation off the self-check must not even run (production
    pays nothing): a corrupted constant goes unnoticed here on purpose."""
    decode.disable_validation()
    monkeypatch.setattr(decode, "BACKGROUND_SHARE", 1.5)
    decode.decode_shares(1, 4)  # no raise: the check is pay-for-use
