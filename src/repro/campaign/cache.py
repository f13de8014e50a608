"""Content-addressed result cache.

A run's cache key is the SHA-256 of three ingredients:

1. the :class:`~repro.campaign.spec.RunSpec` identity (experiment id,
   parameter overrides, seed, runner override),
2. the ``repro`` package version,
3. a digest of the git-tracked source tree (every ``.py`` file under
   the package).

Because every experiment is bit-reproducible from its spec, equal keys
imply equal results — so a campaign re-run recomputes only the cells
whose spec *or* whose code changed.  Payloads are stored as the exact
canonical-JSON bytes the executor produced, which keeps the
parallel-equals-serial byte comparison valid across cache hits.
"""

from __future__ import annotations

import hashlib
import subprocess
from pathlib import Path
from typing import Dict, Optional

import repro
from repro.campaign.spec import RunSpec, canonical_json

_digest_memo: Dict[str, str] = {}


def _package_root() -> Path:
    """Directory containing the ``repro`` package sources."""
    return Path(repro.__file__).resolve().parent


def _git_tracked_sources(pkg_root: Path) -> Optional[list]:
    """Git-tracked files under the package, or ``None`` off-git."""
    try:
        out = subprocess.run(
            ["git", "-C", str(pkg_root), "ls-files", "--full-name", "*.py"],
            capture_output=True,
            text=True,
            timeout=30,
            check=True,
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return None
    top = subprocess.run(
        ["git", "-C", str(pkg_root), "rev-parse", "--show-toplevel"],
        capture_output=True,
        text=True,
        timeout=30,
        check=True,
    ).stdout.strip()
    paths = [Path(top) / line for line in out.splitlines() if line]
    inside = [p for p in paths if pkg_root in p.parents or p.parent == pkg_root]
    return inside or None


def source_digest(refresh: bool = False) -> str:
    """SHA-256 digest of the repro source tree (memoized per process).

    Prefers ``git ls-files`` (so untracked scratch files don't churn
    the cache); falls back to walking the installed package directory.
    """
    pkg_root = _package_root()
    memo_key = str(pkg_root)
    if not refresh and memo_key in _digest_memo:
        return _digest_memo[memo_key]
    files = _git_tracked_sources(pkg_root)
    if files is None:
        files = sorted(pkg_root.rglob("*.py"))
    h = hashlib.sha256()
    for path in sorted(files):
        try:
            content = path.read_bytes()
        except OSError:
            continue
        rel = path.name if pkg_root not in path.parents else str(
            path.relative_to(pkg_root)
        )
        h.update(rel.encode("utf-8"))
        h.update(b"\0")
        h.update(hashlib.sha256(content).digest())
        h.update(b"\0")
    digest = h.hexdigest()
    _digest_memo[memo_key] = digest
    return digest


class ResultCache:
    """Filesystem cache mapping run keys to canonical result bytes.

    Layout: ``<root>/<key[:2]>/<key>.json``.  ``source_token``
    defaults to :func:`source_digest` and exists as a parameter so
    tests can exercise invalidation without editing source files.
    """

    def __init__(
        self,
        root: Path,
        enabled: bool = True,
        source_token: Optional[str] = None,
    ) -> None:
        self.root = Path(root)
        self.enabled = enabled
        self._source_token = source_token
        self.hits = 0
        self.misses = 0

    @property
    def source_token(self) -> str:
        """The code-version ingredient of every cache key."""
        if self._source_token is None:
            self._source_token = source_digest()
        return self._source_token

    def key_for(self, spec: RunSpec) -> str:
        """Content address of a run: SHA-256(spec + version + source)."""
        material = canonical_json(
            {
                "spec": spec.identity(),
                "version": repro.__version__,
                "source": self.source_token,
            }
        )
        return hashlib.sha256(material.encode("utf-8")).hexdigest()

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[bytes]:
        """Cached payload bytes for ``key``, or ``None`` (a miss)."""
        if not self.enabled:
            self.misses += 1
            return None
        path = self._path(key)
        try:
            data = path.read_bytes()
        except OSError:
            self.misses += 1
            return None
        self.hits += 1
        return data

    def put(self, key: str, payload: bytes) -> None:
        """Store ``payload`` under ``key`` (atomic rename)."""
        if not self.enabled:
            return
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_bytes(payload)
        tmp.replace(path)
