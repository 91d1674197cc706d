"""Content-addressed artifact cache with checksum manifests.

Built spanners (and anything else the service wants to persist) are stored
under the sha256 of their *request* — the canonical JSON of (workload
description, builder chain, stretch, params) — so a million identical
queries cost one build.  Every artifact directory holds exactly two files::

    <root>/objects/<key[:2]>/<key>/payload.json    the artifact bytes
    <root>/objects/<key[:2]>/<key>/manifest.json   sha256 + size of payload

Both are written atomically (payload first, manifest last), so a crash
mid-``put`` leaves either nothing visible (no manifest → a miss) or a fully
committed artifact — never a torn write that reads as truth.

**Integrity on read is non-negotiable**: :meth:`ArtifactCache.get` re-hashes
the payload bytes against the manifest on every hit.  A mismatch (bit rot, a
truncated copy, the bench's injected bit-flip) or a manifest that does not
parse quarantines the artifact directory under ``<root>/quarantine/`` and
raises :class:`~repro.errors.ArtifactIntegrityError` — a corrupted artifact
is rebuilt and re-verified, never served.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import time
from pathlib import Path
from typing import Callable, Optional

from repro.errors import ArtifactIntegrityError
from repro.graph.io import atomic_write_json

SCHEMA_VERSION = 1

#: The digest recorded for a manifest that does not parse (never a sha256).
UNREADABLE_MANIFEST = "(unreadable manifest)"


def canonical_request(
    workload: dict, chain: tuple[str, ...] | list[str], stretch: float, params: dict
) -> dict:
    """The exact dictionary the artifact key hashes (kept in the manifest)."""
    return {
        "workload": dict(workload),
        "chain": list(chain),
        "stretch": float(stretch),
        "params": dict(params),
    }


def artifact_key(
    workload: dict,
    chain: tuple[str, ...] | list[str],
    stretch: float,
    params: Optional[dict] = None,
) -> str:
    """sha256 of the canonical request JSON: the content address."""
    request = canonical_request(workload, chain, stretch, params or {})
    canonical = json.dumps(request, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class ArtifactCache:
    """The verified store under ``<root>/objects``."""

    def __init__(
        self, root: str | Path, *, clock: Callable[[], float] = time.time
    ) -> None:
        self.root = Path(root)
        self.objects_dir = self.root / "objects"
        self.quarantine_dir = self.root / "quarantine"
        self.objects_dir.mkdir(parents=True, exist_ok=True)
        #: ``hits`` / ``misses`` / ``corrupt_quarantined`` / ``puts`` — the
        #: counters the service bench and CLI report.
        self.counters: dict[str, int] = {
            "hits": 0,
            "misses": 0,
            "corrupt_quarantined": 0,
            "puts": 0,
        }
        self.clock = clock

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def _dir(self, key: str) -> Path:
        return self.objects_dir / key[:2] / key

    def payload_path(self, key: str) -> Path:
        """Where the artifact bytes live (exposed for the corruption tests)."""
        return self._dir(key) / "payload.json"

    def manifest_path(self, key: str) -> Path:
        return self._dir(key) / "manifest.json"

    # ------------------------------------------------------------------
    # Store / fetch
    # ------------------------------------------------------------------
    def put(self, key: str, payload: dict, *, request: Optional[dict] = None) -> dict:
        """Commit ``payload`` under ``key``; returns the manifest.

        Payload first, manifest last — the manifest's existence is the
        commit point, so a reader racing a writer sees a miss, never a
        payload without its checksum.
        """
        directory = self._dir(key)
        directory.mkdir(parents=True, exist_ok=True)
        atomic_write_json(self.payload_path(key), payload)
        data = self.payload_path(key).read_bytes()
        manifest = {
            "schema": SCHEMA_VERSION,
            "key": key,
            "sha256": _sha256_bytes(data),
            "size_bytes": len(data),
            "created_at": self.clock(),
        }
        if request is not None:
            manifest["request"] = request
        atomic_write_json(self.manifest_path(key), manifest)
        self.counters["puts"] += 1
        return manifest

    def _manifest_sha256(self, key: str) -> str:
        """The payload sha256 the manifest records.

        A manifest that does not parse records :data:`UNREADABLE_MANIFEST`,
        which no digest equals, so its artifact fails verification.
        """
        try:
            manifest = json.loads(self.manifest_path(key).read_bytes().decode("utf-8"))
        except ValueError:  # JSONDecodeError and UnicodeDecodeError
            return UNREADABLE_MANIFEST
        if not isinstance(manifest, dict):
            return UNREADABLE_MANIFEST
        return str(manifest.get("sha256", ""))

    def get(self, key: str) -> Optional[dict]:
        """Return the verified payload, ``None`` on a miss.

        Raises :class:`ArtifactIntegrityError` — after quarantining — when
        the payload bytes do not hash to the manifest's sha256, or the
        manifest does not parse.
        """
        manifest_path = self.manifest_path(key)
        payload_path = self.payload_path(key)
        if not manifest_path.exists() or not payload_path.exists():
            self.counters["misses"] += 1
            return None
        expected = self._manifest_sha256(key)
        data = payload_path.read_bytes()
        actual = _sha256_bytes(data)
        if actual != expected:
            self.quarantine(key)
            self.counters["corrupt_quarantined"] += 1
            raise ArtifactIntegrityError(key, expected, actual)
        self.counters["hits"] += 1
        return json.loads(data.decode("utf-8"))

    def quarantine(self, key: str) -> Path:
        """Move an artifact directory out of the serving tree.

        Quarantined copies are kept (numbered, never overwritten) for
        forensics; the serving path reads as a miss afterwards, which is
        what forces the rebuild.
        """
        self.quarantine_dir.mkdir(parents=True, exist_ok=True)
        source = self._dir(key)
        sequence = 0
        while True:
            target = self.quarantine_dir / f"{key}-{sequence:04d}"
            if not target.exists():
                break
            sequence += 1
        shutil.move(str(source), str(target))
        return target

    # ------------------------------------------------------------------
    # Inventory / audit
    # ------------------------------------------------------------------
    def keys(self) -> list[str]:
        """All committed artifact keys (manifest present), sorted."""
        return sorted(
            path.parent.name for path in self.objects_dir.glob("*/*/manifest.json")
        )

    def verify_all(self) -> dict[str, dict]:
        """Audit every artifact without serving it.

        Returns ``{key: {"ok": bool, "expected": ..., "actual": ...}}``;
        corrupt entries are quarantined exactly as a serving read would.
        """
        report: dict[str, dict] = {}
        for key in self.keys():
            expected = self._manifest_sha256(key)
            payload_path = self.payload_path(key)
            if not payload_path.exists():
                entry = {"ok": False, "expected": expected, "actual": "(missing)"}
                self.quarantine(key)
                self.counters["corrupt_quarantined"] += 1
            else:
                actual = _sha256_bytes(payload_path.read_bytes())
                entry = {"ok": actual == expected, "expected": expected, "actual": actual}
                if not entry["ok"]:
                    self.quarantine(key)
                    self.counters["corrupt_quarantined"] += 1
            report[key] = entry
        return report

    def quarantined(self) -> list[str]:
        """Names of quarantined artifact copies (``<key>-<n>``), sorted."""
        if not self.quarantine_dir.exists():
            return []
        return sorted(path.name for path in self.quarantine_dir.iterdir())
