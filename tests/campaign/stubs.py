"""Stub experiment runners injected into campaigns by the tests.

Referenced by dotted path (``tests.campaign.stubs:<fn>``) in a
``RunSpec.runner`` override, so worker processes import them exactly
like real experiments.
"""

from __future__ import annotations

import os
import time


def ok_run(seed: int = 0, value: float = 1.0, tag: str = "x") -> dict:
    """Deterministic success: a pure function of its arguments."""
    return {"seed": seed, "value": value * 2 + seed, "tag": tag}


def crash_run(seed: int = 0, message: str = "injected crash") -> dict:
    """Always raises (the executor must record the traceback)."""
    raise RuntimeError(f"{message} (seed={seed})")


def hang_run(seed: int = 0, forever: float = 3600.0) -> dict:
    """Blocks far past any test timeout (simulates a hung simulation)."""
    time.sleep(forever)
    return {"seed": seed}


def die_run(seed: int = 0) -> dict:
    """Kills its worker process outright (a segfault-like death)."""
    os._exit(3)
