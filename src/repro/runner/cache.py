"""Content-addressed on-disk cache of run results.

Each completed spec stores its scalar result (a
:class:`~repro.runner.spec.RunResult` or, for a fleet, a
:class:`~repro.fleet.spec.FleetRunResult`) as one small JSON file named
by the spec's fingerprint (sharded by the first two hex digits, git-object
style).  A hit skips the simulation entirely — the simulator is
seed-deterministic, so a stored result is exactly what a re-run would
produce under the same package version.

Robustness rules:

* writes are atomic (temp file + ``os.replace``) so a killed process
  never leaves a half-written entry;
* unreadable/malformed entries are **discarded on read** and treated as
  misses — a corrupted cache can cost time, never correctness;
* the cache location comes from ``REPRO_CACHE_DIR`` or defaults to
  ``~/.cache/repro/results``; ``REPRO_NO_CACHE=1`` disables caching
  process-wide (see :mod:`repro.runner.executor`).
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping

import repro
from repro.runner.spec import RunResult

__all__ = ["ResultCache", "CacheStats", "default_cache_dir"]

#: Environment variable overriding the cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` or ``~/.cache/repro/results``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "results"


@dataclass(frozen=True)
class CacheStats:
    """Snapshot of the cache directory plus this process's hit counters."""

    root: Path
    entries: int
    total_bytes: int
    hits: int
    misses: int


class ResultCache:
    """Fingerprint-keyed store of result payloads."""

    def __init__(self, root: Path | str | None = None):
        self.root = Path(root) if root is not None else default_cache_dir()
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    def _path(self, fp: str) -> Path:
        return self.root / fp[:2] / f"{fp}.json"

    def get(
        self,
        fp: str,
        decode: Callable[[Mapping[str, Any]], Any] = RunResult.from_payload,
    ) -> Any | None:
        """The cached result for fingerprint ``fp``, or ``None`` on miss.

        ``decode`` rebuilds the stored payload (fleet specs use
        ``FleetRunResult.from_payload``).  Any malformed entry (truncated
        JSON, wrong schema, fingerprint mismatch, decode failure) is
        deleted and reported as a miss.
        """
        path = self._path(fp)
        try:
            payload = json.loads(path.read_text())
            if payload.get("fingerprint") != fp:
                raise ValueError("fingerprint mismatch")
            result = decode(payload["result"])
        except FileNotFoundError:
            self.misses += 1
            return None
        except (ValueError, KeyError, TypeError, OSError):
            # Corrupted entry: discard, never fail the sweep over it.
            try:
                path.unlink()
            except OSError:
                pass
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, fp: str, result: Any) -> Path:
        """Store ``result`` (anything with ``to_payload()``) atomically."""
        path = self._path(fp)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "fingerprint": fp,
            "version": repro.__version__,
            "result": result.to_payload(),
        }
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(payload, handle)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path

    # ------------------------------------------------------------------
    def _entry_paths(self) -> list[Path]:
        if not self.root.is_dir():
            return []
        return [
            p
            for p in self.root.glob("??/*.json")
            if not p.name.startswith(".tmp-")
        ]

    def stats(self) -> CacheStats:
        """Entry count and size on disk, plus this process's hit/miss."""
        paths = self._entry_paths()
        total = 0
        for p in paths:
            try:
                total += p.stat().st_size
            except OSError:
                pass
        return CacheStats(
            root=self.root,
            entries=len(paths),
            total_bytes=total,
            hits=self.hits,
            misses=self.misses,
        )

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for p in self._entry_paths():
            try:
                p.unlink()
                removed += 1
            except OSError:
                pass
        return removed
