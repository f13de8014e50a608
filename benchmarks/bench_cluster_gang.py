"""Extension bench: cluster-level gang scheduling (paper §VI).

Full-size version of the future-work experiment: an 8-rank ladder
application on a 2-node cluster under the four combinations of
placement strategy x local HPCSched.  Asserts the composition story:
gang placement fixes the inter-node/heavy-heavy imbalance the local
scheduler cannot touch, and the local HPCSched then absorbs each core
pair's remaining ~7x imbalance.
"""

import pytest

from repro.cluster.experiment import run_cluster


def _run_matrix():
    return {
        (strategy, hpc): run_cluster(strategy, iterations=10, use_hpc=hpc)
        for strategy in ("block", "gang")
        for hpc in (False, True)
    }


def test_cluster_gang_scheduling():
    out = _run_matrix()
    print()
    print(f"{'placement':<10}{'HPCSched':>10}{'exec':>10}{'node loads':>22}")
    for (strategy, hpc), res in out.items():
        loads = "/".join(f"{v:.1f}" for _, v in sorted(res.node_loads.items()))
        print(f"{strategy:<10}{str(hpc):>10}{res.exec_time:>9.2f}s{loads:>22}")

    block_plain = out[("block", False)].exec_time
    block_hpc = out[("block", True)].exec_time
    gang_plain = out[("gang", False)].exec_time
    gang_hpc = out[("gang", True)].exec_time

    assert gang_plain < 0.7 * block_plain
    assert block_hpc == pytest.approx(block_plain, rel=0.02)
    assert gang_hpc < gang_plain
    assert gang_hpc < 0.55 * block_plain
