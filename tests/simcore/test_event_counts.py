"""Exact event counts for the two ``tools/hotpath_count.py`` scenarios.

``scheduled`` is every push the engine accepted (``queue._seq``) and
``delivered`` every event it fired (``events_processed``), summed over
the simulators a scenario runs.  Both are properties of the simulated
schedule, not of the host or the Python version, so a change that adds
or drops an event push shows here exactly, untraced and in well under
a second.  A change that removes wasted pushes lowers ``scheduled`` and
updates the pin with its reason.
"""

import importlib.util
from pathlib import Path

import pytest

from repro.simcore.engine import Simulator

_TOOL = Path(__file__).resolve().parents[2] / "tools" / "hotpath_count.py"


def _scenarios():
    spec = importlib.util.spec_from_file_location("hotpath_count", _TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.SCENARIOS


@pytest.mark.parametrize(
    "name, delivered, scheduled",
    [("cluster", 5_674, 9_258), ("siesta", 17_875, 22_605)],
)
def test_hotpath_scenario_event_counts(monkeypatch, name, delivered, scheduled):
    sims = {}
    run = Simulator.run

    def recording_run(self, *args, **kwargs):
        sims[id(self)] = self
        return run(self, *args, **kwargs)

    monkeypatch.setattr(Simulator, "run", recording_run)
    _scenarios()[name]()
    assert sum(s.events_processed for s in sims.values()) == delivered
    assert sum(s.queue._seq for s in sims.values()) == scheduled
