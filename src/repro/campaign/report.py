"""Campaign progress and reporting.

Two consumers:

* :class:`ProgressPrinter` — plugged into the executor's ``on_event``
  hook for live ``[done/total]`` lines with per-run wall time and
  cache annotations;
* :func:`render_status` / :func:`render_report` — offline views over a
  :class:`~repro.campaign.store.CampaignStore`: status is the run
  table plus totals (counts, wall time, cache-hit ratio), report adds
  the paper-style aggregate tables by reconstructing
  :class:`~repro.experiments.common.ExperimentResult` objects from the
  stored payloads and reusing :mod:`repro.analysis.tables`.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, List, Optional, TextIO

from repro.campaign.spec import iter_experiment_results
from repro.campaign.store import STATUS_FAILED, STATUS_OK, CampaignStore, RunRecord


class ProgressPrinter:
    """Executor event hook rendering one line per run outcome."""

    def __init__(self, total: int, out: Optional[TextIO] = None) -> None:
        self.total = total
        self.done = 0
        self.out = out or sys.stdout

    def _line(self, text: str) -> None:
        print(text, file=self.out, flush=True)

    def __call__(self, kind: str, **info: Any) -> None:
        """Handle one executor event (the ``on_event`` signature)."""
        run_id = info.get("run_id", "?")
        if kind == "cached":
            self.done += 1
            self._line(f"[{self.done}/{self.total}] {run_id:<36} OK (cached)")
        elif kind == "ok":
            self.done += 1
            wall = info.get("wall", 0.0)
            self._line(f"[{self.done}/{self.total}] {run_id:<36} OK {wall:6.2f}s")
        elif kind == "failed":
            self.done += 1
            first = (info.get("error") or "").strip().splitlines()
            why = first[-1] if first else "unknown error"
            self._line(
                f"[{self.done}/{self.total}] {run_id:<36} FAILED — {why}"
            )
        elif kind == "verified":
            self._line(f"verified {run_id}: parallel == serial")


def summarize_records(records: List[RunRecord]) -> Dict[str, Any]:
    """Totals over final run records (counts, wall, cache ratio)."""
    ok = [r for r in records if r.status == STATUS_OK]
    failed = [r for r in records if r.status == STATUS_FAILED]
    hits = sum(1 for r in records if r.cache_hit)
    return {
        "runs": len(records),
        "ok": len(ok),
        "failed": len(failed),
        "cache_hits": hits,
        "cache_hit_ratio": hits / len(records) if records else 0.0,
        "wall_time": sum(r.wall_time for r in records),
    }


def render_status(store: CampaignStore) -> str:
    """The ``campaign status`` view: run table + totals."""
    manifest = store.load_manifest()
    finals = store.final_records()
    lines = []
    name = manifest.get("campaign", {}).get("name", store.root.name)
    lines.append(f"campaign: {name}  [{manifest.get('status', 'unknown')}]")
    if manifest.get("source_digest"):
        lines.append(f"source:   {manifest['source_digest'][:12]}")
    lines.append(
        f"{'run':<38}{'status':<10}{'wall':>8}  {'attempt':>7}  cache"
    )
    lines.append("-" * 72)
    for rec in finals.values():
        cache = "hit" if rec.cache_hit else "miss"
        lines.append(
            f"{rec.run_id:<38}{rec.status:<10}{rec.wall_time:>7.2f}s"
            f"  {rec.attempt:>7}  {cache}"
        )
    totals = summarize_records(list(finals.values()))
    lines.append("-" * 72)
    lines.append(
        f"{totals['ok']}/{totals['runs']} OK, {totals['failed']} failed, "
        f"cache-hit ratio {totals['cache_hit_ratio']:.0%}, "
        f"total run wall {totals['wall_time']:.2f}s"
    )
    return "\n".join(lines)


def render_report(store: CampaignStore) -> str:
    """The ``campaign report`` view: status + paper-style tables.

    Any run whose payload contains reconstructable experiment results
    gets a Table III-VI style block; failures print their last error
    line.
    """
    from repro.analysis.tables import format_characterization_table

    lines = [render_status(store), ""]
    for run_id, rec in store.final_records().items():
        if rec.status == STATUS_FAILED:
            last = (rec.error or "").strip().splitlines()
            lines.append(f"== {run_id}: FAILED — {last[-1] if last else '?'}")
            lines.append("")
            continue
        raw = store.read_payload(run_id)
        if raw is None:
            continue
        payload = json.loads(raw)
        results = list(iter_experiment_results(payload))
        if results:
            lines.append(format_characterization_table(results, title=f"== {run_id}"))
            lines.append("")
    return "\n".join(lines).rstrip() + "\n"
