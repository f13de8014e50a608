"""The per-run tunables record: defaults, checks, immutability, sharing."""

import dataclasses
import re
from pathlib import Path

import pytest

from repro.kernel.core_sched import Kernel
from repro.kernel.tunables import DEFAULT_TUNABLES, Tunables, TunableError

DOC = Path(__file__).resolve().parents[2] / "docs" / "TUNABLES.md"


@pytest.fixture
def tun():
    return Tunables()


def test_defaults_match_paper(tun):
    assert tun.high_util == 85.0
    assert tun.low_util == 65.0
    assert tun.min_prio == 4
    assert tun.max_prio == 6
    assert tun.adaptive_g == pytest.approx(0.10)
    assert tun.adaptive_l == pytest.approx(0.90)


def test_kernel_defaults_are_2624_era(tun):
    assert tun.sched_latency == pytest.approx(0.020)
    assert tun.tick_period == pytest.approx(0.001)


def test_set_and_get_roundtrip():
    assert Tunables(high_util=90.0).high_util == 90.0


def test_int_promoted_to_float():
    tun = Tunables(high_util=80)
    assert tun.high_util == 80.0
    assert type(tun.high_util) is float


def test_unknown_path_rejected(tun):
    with pytest.raises(TypeError):
        Tunables(nope=1)
    with pytest.raises(AttributeError):
        tun.nope


def test_type_mismatch_rejected():
    with pytest.raises(TunableError):
        Tunables(min_prio="six")
    with pytest.raises(TunableError):
        Tunables(high_util="85")


def test_range_validation():
    with pytest.raises(TunableError):
        Tunables(min_prio=9)
    with pytest.raises(TunableError):
        Tunables(high_util=150.0)
    with pytest.raises(TunableError):
        Tunables(tick_period=-0.1)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"min_prio": 6, "max_prio": 4},
        {"low_util": 90.0, "high_util": 80.0},
    ],
    ids=["prio", "util"],
)
def test_inverted_window_rejected(kwargs):
    # Each bound alone is in range; together they would swap the
    # bands' meaning (a 95%-busy task demoted to max_prio).
    with pytest.raises(TunableError):
        Tunables(**kwargs)


def test_degenerate_window_accepted():
    tun = Tunables(min_prio=5, max_prio=5, low_util=70.0, high_util=70.0)
    assert (tun.min_prio, tun.max_prio) == (5, 5)


def test_writing_a_field_raises(tun):
    with pytest.raises(dataclasses.FrozenInstanceError):
        tun.high_util = 90.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        DEFAULT_TUNABLES.tick_period = 0.004


def test_fields_are_the_fifteen_knobs():
    assert [f.name for f in dataclasses.fields(Tunables)] == [
        "sched_latency",
        "sched_min_granularity",
        "sched_wakeup_granularity",
        "sched_rr_timeslice",
        "context_switch_cost",
        "tick_period",
        "high_util",
        "low_util",
        "min_prio",
        "max_prio",
        "adaptive_g",
        "adaptive_l",
        "hpc_rr_timeslice",
        "rebalance_delta",
        "min_iter_time",
    ]


def test_kernels_share_the_default_record():
    assert Kernel().tunables is DEFAULT_TUNABLES
    custom = Tunables(max_prio=5)
    assert Kernel(tunables=custom).tunables is custom


def test_cluster_nodes_share_one_default_record():
    from repro.cluster.cluster import Cluster

    cluster = Cluster(n_nodes=4)
    records = {id(node.kernel.tunables) for node in cluster.nodes}
    assert records == {id(DEFAULT_TUNABLES)}


def test_doc_table_matches_the_record():
    rows = re.findall(r"^\| `(\w+)` \| `([^`]+)` \|", DOC.read_text(), re.M)
    assert rows == [
        (f.name, repr(f.default)) for f in dataclasses.fields(Tunables)
    ]
