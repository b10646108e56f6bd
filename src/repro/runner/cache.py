"""Content-addressed on-disk cache for sweep-point results.

The simulations are deterministic: a point's result is a pure function
of its configuration, the machine's cost-model constants, and the
package version.  :func:`point_key` hashes exactly those inputs
(SHA-256 over canonical JSON), so a cached entry is valid forever —
there is no TTL and no invalidation protocol; changing any input
changes the key.

Entries are JSON files under ``<root>/<key[:2]>/<key>.json`` holding
the key, the point's canonical description (for humans and audit), and
the result payload.  Writes are atomic (temp file + ``os.replace``);
a corrupted or mismatched entry is treated as a miss and discarded, so
a damaged cache degrades to recomputation, never to a crash or a wrong
result.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Union

from ..obs import get as _obs_get
from .point import SweepPoint

__all__ = ["point_key", "ResultCache", "default_cache_dir"]

#: Environment variable overriding the default cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def _package_version() -> str:
    # Imported lazily: repro/__init__ imports this package, so a
    # module-level "from .. import __version__" would be circular.
    from .. import __version__

    return __version__


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` or ``~/.cache/repro/sweep``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "sweep"


def point_key(point: SweepPoint, version: Optional[str] = None) -> str:
    """Stable SHA-256 key of one sweep point.

    Hashes the canonicalized point (which embeds every cost-model
    constant of its machine) plus the package version, so results
    survive across processes and runs but never across a cost-model
    ablation or a release that may change the simulation.
    """
    doc = {
        "point": point.canonical(),
        "version": version if version is not None else _package_version(),
    }
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class ResultCache:
    """Directory of content-addressed sweep results."""

    #: Backend name reported by repr/telemetry (subclasses override).
    backend_name = "directory"

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        #: Corrupt entries silently turned into misses so far — surfaced
        #: via the ``runner.cache_corrupt_discards`` obs counter and the
        #: sweep telemetry summary instead of vanishing without a trace.
        self.corrupt_discards = 0

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def _count_corrupt(self) -> None:
        self.corrupt_discards += 1
        registry = _obs_get()
        if registry.enabled:
            registry.inc("runner.cache_corrupt_discards")

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored entry for ``key``, or None on miss *or* corruption.

        A corrupted entry (unreadable, invalid JSON, wrong shape, or a
        key that does not match its filename) is deleted so the slot is
        clean for the recomputed result; each discard is counted.
        """
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                entry = json.load(fh)
        except FileNotFoundError:
            return None
        except (OSError, ValueError, UnicodeDecodeError):
            self._discard(path)
            self._count_corrupt()
            return None
        if (
            not isinstance(entry, dict)
            or entry.get("key") != key
            or "payload" not in entry
        ):
            self._discard(path)
            self._count_corrupt()
            return None
        return entry

    def put(
        self,
        key: str,
        point: SweepPoint,
        payload: Any,
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Atomically store ``payload`` for ``key``."""
        entry = {
            "key": key,
            "version": _package_version(),
            "point": point.canonical(),
            "payload": payload,
        }
        if meta:
            entry["meta"] = meta
        self._write(key, entry)

    def _write(self, key: str, entry: Dict[str, Any]) -> None:
        """Atomically store the entry document ``entry`` under ``key``:
        a temp file beside the entry, then ``os.replace``."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=f".{key[:8]}-", suffix=".tmp",
                                   dir=path.parent)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(entry))
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def _iter_paths(self) -> Iterator[Path]:
        if not self.root.is_dir():
            return
        # Interrupted writes can leave ".<key>-*.tmp" droppings next to
        # the entries; anything dot-prefixed is not an entry.
        for path in self.root.glob("??/*.json"):
            if not path.name.startswith("."):
                yield path

    def __len__(self) -> int:
        return sum(1 for _ in self._iter_paths())

    def __contains__(self, key: str) -> bool:
        """True only if :meth:`get` would hit.

        A bare ``is_file()`` check would report a corrupted entry as
        present while ``get`` discards it and returns None; containment
        therefore validates (and, like ``get``, discards) the entry.
        """
        return self.get(key) is not None

    def clear(self) -> int:
        """Remove every entry (and stale temp files); returns how many
        entries were removed."""
        n = 0
        for path in list(self._iter_paths()):
            self._discard(path)
            n += 1
        if self.root.is_dir():
            for tmp in self.root.glob("??/.*.tmp"):
                self._discard(tmp)
        return n

    @staticmethod
    def _discard(path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass

    def __repr__(self) -> str:
        # O(1) on purpose: logging a runner must never walk the cache
        # directory (``len(self)`` scans every entry).
        return f"<{type(self).__name__} {self.backend_name}:{self.root}>"
