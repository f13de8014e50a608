"""Ablation: decomposing SIESTA's gain (paper §V-D).

Three bars: CFS baseline, the HPC class with the Null mechanism (the
scheduling-policy gain only: class ordering beats the OS daemons), and
full HPCSched (policy + balancing).  The paper's claim is that the
improvement "does not come from load imbalance reduction but from ...
the scheduler policy" — so the middle bar must carry most of the gain.
"""

from repro.experiments.ablations import ablation_latency


def test_ablation_latency_decomposition():
    out = ablation_latency()
    print()
    print(f"cfs baseline:        {out['cfs']:.2f}s")
    print(f"HPC policy only:     {out['hpc_policy_only']:.2f}s "
          f"({out['policy_gain_pct']:.1f}% gain)")
    print(f"full HPCSched:       {out['hpcsched_full']:.2f}s "
          f"({out['full_gain_pct']:.1f}% gain)")

    assert out["hpc_policy_only"] < out["cfs"]
    assert out["hpcsched_full"] < out["cfs"]
    # the policy alone provides the bulk of the improvement
    assert out["policy_gain_pct"] > 0.6 * out["full_gain_pct"]
