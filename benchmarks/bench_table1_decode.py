"""Table I / II: decode-slot arithmetic and privilege rules.

Regenerates both tables from the POWER5 model and checks exactness —
these are the only experiments expected to match the paper bit-for-bit.
"""

from repro.experiments.table1 import run_table1


def test_table1_decode():
    out = run_table1()
    print()
    print(out["rendered"])
    assert out["table1_exact"], "Table I mismatch"
    assert out["table2_exact"], "Table II mismatch"
