"""Content-addressed artifact cache with checksum manifests.

Built spanners (and anything else the service wants to persist) are stored
under the sha256 of their *request* — the canonical JSON of (workload
description, builder chain, stretch, params) — so a million identical
queries cost one build.  Every artifact directory holds exactly two files::

    <root>/objects/<key[:2]>/<key>/payload.json    the artifact bytes
    <root>/objects/<key[:2]>/<key>/manifest.json   checksums and the head

The payload is compact JSON.  The manifest (schema 2) records the payload's
``sha256`` and ``size_bytes``, its *head* (the top-level scalar fields) and
``head_sha256`` (of the head's canonical JSON).  Both are written atomically
(payload first, manifest last), so a crash mid-``put`` leaves either nothing
visible (no manifest → a miss) or a fully committed artifact — never a torn
write that reads as truth.

**Integrity on read is non-negotiable**: :meth:`ArtifactCache.get` re-hashes
the payload bytes against the manifest and the head against ``head_sha256``
on every hit.  A mismatch (bit rot, a truncated copy, the bench's injected
bit-flip) or a manifest that does not parse quarantines the artifact
directory under ``<root>/quarantine/`` and raises
:class:`~repro.errors.ArtifactIntegrityError` — a corrupted artifact is
rebuilt and re-verified, never served.  ``get(key, head=True)`` serves the
verified head without parsing the payload (the service's warm path never
decodes the edge list).  A schema-1 manifest (no head) reads as a miss.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import time
from pathlib import Path
from typing import Callable, NoReturn, Optional

from repro.errors import ArtifactIntegrityError
from repro.graph.io import atomic_write_json, atomic_write_text

SCHEMA_VERSION = 2

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
    return _canonical_sha256(canonical_request(workload, chain, stretch, params or {}))


def _sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _canonical_sha256(document: object) -> str:
    canonical = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return _sha256_bytes(canonical.encode("utf-8"))


def _bytes_or_none(path: Path) -> Optional[bytes]:
    """The file's bytes; ``None`` if it is absent or vanishes mid-read."""
    try:
        return path.read_bytes()
    except FileNotFoundError:
        return None


def _payload_head(payload: dict) -> dict:
    """The payload's top-level scalar fields: what a head read serves."""
    scalar = (str, bool, int, float, type(None))
    return {name: value for name, value in payload.items() if isinstance(value, scalar)}


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
        payload without its checksum.  The payload is compact (json's C
        encoder), the manifest indented.
        """
        directory = self._dir(key)
        directory.mkdir(parents=True, exist_ok=True)
        text = json.dumps(payload, sort_keys=True) + "\n"
        atomic_write_text(self.payload_path(key), text)
        data = text.encode("utf-8")
        head = _payload_head(payload)
        manifest = {
            "schema": SCHEMA_VERSION,
            "key": key,
            "sha256": _sha256_bytes(data),
            "size_bytes": len(data),
            "created_at": self.clock(),
            "head": head,
            "head_sha256": _canonical_sha256(head),
        }
        if request is not None:
            manifest["request"] = request
        atomic_write_json(self.manifest_path(key), manifest)
        self.counters["puts"] += 1
        return manifest

    def _read(self, key: str) -> tuple[Optional[bytes], Optional[bytes]]:
        """The manifest and payload bytes; ``None`` for a file that is absent."""
        return _bytes_or_none(self.manifest_path(key)), _bytes_or_none(self.payload_path(key))

    def _fence(self, key: str, expected: str, actual: str, part: str) -> NoReturn:
        self.quarantine(key)
        self.counters["corrupt_quarantined"] += 1
        raise ArtifactIntegrityError(key, expected, actual, part)

    def _verified(self, key: str, manifest_bytes: bytes, data: Optional[bytes]) -> Optional[dict]:
        """The manifest once the payload bytes and the head match their
        sha256; ``None`` for a stale (other schema) manifest.  Quarantines
        and raises :class:`ArtifactIntegrityError` otherwise."""
        actual = "(missing)" if data is None else _sha256_bytes(data)
        try:
            manifest = json.loads(manifest_bytes.decode("utf-8"))
        except ValueError:  # JSONDecodeError and UnicodeDecodeError
            manifest = None
        if not isinstance(manifest, dict):
            self._fence(key, UNREADABLE_MANIFEST, actual, "payload")
        if manifest.get("schema") != SCHEMA_VERSION:
            return None
        if actual != manifest.get("sha256"):
            self._fence(key, str(manifest.get("sha256", "")), actual, "payload")
        head = manifest.get("head")
        head_actual = _canonical_sha256(head)
        if not isinstance(head, dict) or head_actual != manifest.get("head_sha256"):
            self._fence(key, str(manifest.get("head_sha256", "")), head_actual, "head")
        return manifest

    def get(self, key: str, *, head: bool = False) -> Optional[dict]:
        """Return the verified payload (``head=True``: its head), ``None`` on a miss.

        Every hit hashes the payload bytes and the head; a head read only
        skips parsing the payload.  An absent file or a stale manifest is a
        miss.  Raises :class:`ArtifactIntegrityError` — after quarantining —
        when a checksum does not match or the manifest does not parse.
        """
        manifest_bytes, data = self._read(key)
        manifest = None
        if manifest_bytes is not None and data is not None:
            manifest = self._verified(key, manifest_bytes, data)
        if manifest is None:
            self.counters["misses"] += 1
            return None
        self.counters["hits"] += 1
        if head:
            return manifest["head"]
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

        Returns ``{key: {"ok", "stale", "part", "expected", "actual"}}``
        (a stale entry holds only the first two).  Beyond a serving read's
        checks, each payload is parsed and its scalar fields must equal the
        head.  Corrupt entries are quarantined as a serving read would; a
        stale manifest is reported and left for the rebuild.
        """
        report: dict[str, dict] = {}
        for key in self.keys():
            manifest_bytes, data = self._read(key)
            if manifest_bytes is None:
                continue  # quarantined or moved since keys() listed it
            entry = {"ok": False, "stale": False}
            try:
                manifest = self._verified(key, manifest_bytes, data)
                if manifest is None:
                    entry["stale"] = True
                else:
                    try:
                        actual = _canonical_sha256(_payload_head(json.loads(data)))
                    except (ValueError, AttributeError):  # not JSON, or not an object
                        actual = "(unparseable payload)"
                    if actual != manifest["head_sha256"]:
                        self._fence(key, manifest["head_sha256"], actual, "payload head")
                    sha = manifest["sha256"]
                    entry.update(ok=True, part="payload", expected=sha, actual=sha)
            except ArtifactIntegrityError as error:
                entry.update(part=error.part, expected=error.expected, actual=error.actual)
            report[key] = entry
        return report

    def quarantined(self) -> list[str]:
        """Names of quarantined artifact copies (``<key>-<n>``), sorted."""
        if not self.quarantine_dir.exists():
            return []
        return sorted(path.name for path in self.quarantine_dir.iterdir())
