"""Campaign artifact store.

One directory per campaign::

    <root>/
      manifest.json        campaign spec + environment + final totals
      runs.jsonl           one JSON record per run outcome
      results/<run_id>.json   canonical result payload of each OK run

``runs.jsonl`` is append-only — each campaign pass into the directory
adds one record per run, and the *last* record for a run id is
authoritative (:meth:`CampaignStore.final_records` collapses the log).  Everything is
machine-readable so ``campaign status`` / ``campaign report`` can be
answered from disk long after the process exited.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

#: Terminal statuses a run record can carry.
STATUS_OK = "OK"
STATUS_FAILED = "FAILED"


@dataclass
class RunRecord:
    """Outcome of one run in one campaign pass (one ``runs.jsonl`` line).

    ``attempt`` is 1 for an executed run and 0 for a cache hit; logs
    written by older versions, which retried runs, may hold more.
    """

    run_id: str
    experiment: str
    status: str
    attempt: int = 1
    wall_time: float = 0.0
    cache_hit: bool = False
    cache_key: str = ""
    seed: Optional[int] = None
    params: Dict[str, Any] = field(default_factory=dict)
    error: Optional[str] = None
    payload_path: Optional[str] = None
    finished_at: float = 0.0

    def to_json(self) -> str:
        """One JSON-lines record."""
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "RunRecord":
        """Inverse of :meth:`to_json`."""
        return cls(**json.loads(line))


class CampaignStore:
    """Filesystem-backed run log + payload store for one campaign."""

    def __init__(self, root: Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        (self.root / "results").mkdir(exist_ok=True)

    # -- manifest ------------------------------------------------------

    @property
    def manifest_path(self) -> Path:
        """Path of ``manifest.json``."""
        return self.root / "manifest.json"

    @property
    def runs_path(self) -> Path:
        """Path of ``runs.jsonl``."""
        return self.root / "runs.jsonl"

    def write_manifest(self, manifest: Dict[str, Any]) -> None:
        """(Re)write the campaign manifest atomically."""
        tmp = self.manifest_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(manifest, indent=2, sort_keys=True))
        tmp.replace(self.manifest_path)

    def load_manifest(self) -> Dict[str, Any]:
        """The manifest, or ``{}`` when none has been written."""
        try:
            return json.loads(self.manifest_path.read_text())
        except OSError:
            return {}

    # -- run records ---------------------------------------------------

    def append(self, record: RunRecord) -> None:
        """Append one record to ``runs.jsonl``."""
        if not record.finished_at:
            record.finished_at = time.time()
        with self.runs_path.open("a") as fh:
            fh.write(record.to_json() + "\n")

    def records(self) -> List[RunRecord]:
        """Every record, in append order."""
        try:
            lines = self.runs_path.read_text().splitlines()
        except OSError:
            return []
        return [RunRecord.from_json(line) for line in lines if line.strip()]

    def final_records(self) -> Dict[str, RunRecord]:
        """Last (authoritative) record per run id, in first-seen order."""
        out: Dict[str, RunRecord] = {}
        for rec in self.records():
            out[rec.run_id] = rec
        return out

    # -- payloads ------------------------------------------------------

    def write_payload(self, run_id: str, payload: bytes) -> str:
        """Store a run's canonical result bytes; returns the rel path."""
        rel = f"results/{run_id}.json"
        path = self.root / rel
        tmp = path.with_suffix(".tmp")
        tmp.write_bytes(payload)
        tmp.replace(path)
        return rel

    def read_payload(self, run_id: str) -> Optional[bytes]:
        """A run's stored payload bytes, or ``None``."""
        try:
            return (self.root / "results" / f"{run_id}.json").read_bytes()
        except OSError:
            return None
