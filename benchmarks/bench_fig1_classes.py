"""Figure 1: scheduling-class diagrams of both kernels."""

from repro.experiments.figures import figure1


def test_fig1_scheduling_classes():
    out = figure1()
    print()
    print(out["standard"])
    print(out["hpcsched"])
    assert out["order_standard"] == ["rt", "fair", "idle"]
    assert out["order_hpcsched"] == ["rt", "hpc", "fair", "idle"]
