"""Characterization bench: the reference-[4] priority-pair sweep.

Regenerates the ISCA'08-style speed matrix for the CPU-bound profile
and cross-checks the two faces of the performance model: the PMU's
measured decode shares must equal the Table I arithmetic, and the
measured speeds must equal the calibrated profile table.
"""

from repro.experiments.characterization import run_characterization


def test_characterization_sweep():
    out = run_characterization()
    print()
    print(out["rendered"])
    print(f"max decode-share error: {out['max_share_error']:.2e}")
    print(f"max speed error:        {out['max_speed_error']:.2e}")
    assert out["max_share_error"] < 1e-9
    assert out["max_speed_error"] < 1e-9
