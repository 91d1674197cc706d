"""Integrity laws of the content-addressed artifact cache.

The non-negotiable one: a corrupted artifact is quarantined and rebuilt,
never served — the bit-flip tests below inject the corruption and assert
every path (serving read, audit, rebuild) honours it.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import ArtifactIntegrityError
from repro.service.cache import ArtifactCache, artifact_key, canonical_request

WORKLOAD = {"kind": "geometric", "n": 10, "radius": 0.2, "seed": 3, "stretch": 1.5}
CHAIN = ("greedy-parallel", "mst")
PAYLOAD = {"tier": "greedy-parallel", "edges": [["a", "b", 1.0]], "verified": True}


@pytest.fixture()
def cache(tmp_path):
    return ArtifactCache(tmp_path / "cache")


def key() -> str:
    return artifact_key(WORKLOAD, CHAIN, 1.5, {})


def test_put_get_roundtrip(cache):
    manifest = cache.put(key(), PAYLOAD, request=canonical_request(WORKLOAD, CHAIN, 1.5, {}))
    assert manifest["key"] == key()
    assert cache.get(key()) == PAYLOAD
    assert cache.counters == {"hits": 1, "misses": 0, "corrupt_quarantined": 0, "puts": 1}


def test_miss_returns_none(cache):
    assert cache.get(key()) is None
    assert cache.counters["misses"] == 1


def test_artifact_key_is_order_invariant():
    shuffled = dict(reversed(list(WORKLOAD.items())))
    assert artifact_key(WORKLOAD, CHAIN, 1.5, {}) == artifact_key(shuffled, list(CHAIN), 1.5, {})


def test_artifact_key_separates_requests():
    assert artifact_key(WORKLOAD, CHAIN, 1.5, {}) != artifact_key(WORKLOAD, CHAIN, 2.0, {})
    assert artifact_key(WORKLOAD, CHAIN, 1.5, {}) != artifact_key(WORKLOAD, ("mst",), 1.5, {})


def test_bit_flip_quarantines_and_never_serves(cache):
    cache.put(key(), PAYLOAD)
    payload_path = cache.payload_path(key())
    data = bytearray(payload_path.read_bytes())
    data[len(data) // 2] ^= 0xFF
    payload_path.write_bytes(bytes(data))

    with pytest.raises(ArtifactIntegrityError) as excinfo:
        cache.get(key())
    assert key() in str(excinfo.value)
    assert cache.counters["corrupt_quarantined"] == 1
    # The corrupted artifact is out of the serving tree: the next read is a
    # miss (forcing a rebuild), never a stale serve.
    assert cache.get(key()) is None
    assert cache.quarantined() == [f"{key()}-0000"]
    # The rebuild recommits cleanly and serves again.
    cache.put(key(), PAYLOAD)
    assert cache.get(key()) == PAYLOAD


def test_quarantined_copies_are_kept_numbered(cache):
    for _ in range(2):
        cache.put(key(), PAYLOAD)
        payload_path = cache.payload_path(key())
        payload_path.write_bytes(b"garbage")
        with pytest.raises(ArtifactIntegrityError):
            cache.get(key())
    assert cache.quarantined() == [f"{key()}-0000", f"{key()}-0001"]


def test_payload_without_manifest_reads_as_miss(cache):
    # A crash between the payload write and the manifest write must leave a
    # miss, not a half-committed artifact.
    cache.put(key(), PAYLOAD)
    cache.manifest_path(key()).unlink()
    assert cache.get(key()) is None


def test_verify_all_audits_and_quarantines(cache):
    good_key = key()
    bad_key = artifact_key(WORKLOAD, CHAIN, 2.0, {})
    cache.put(good_key, PAYLOAD)
    cache.put(bad_key, PAYLOAD)
    cache.payload_path(bad_key).write_bytes(b"{}")
    report = cache.verify_all()
    assert report[good_key]["ok"] is True
    assert report[bad_key]["ok"] is False
    assert report[bad_key]["expected"] != report[bad_key]["actual"]
    assert cache.counters["corrupt_quarantined"] == 1
    assert cache.keys() == [good_key]


def test_keys_lists_committed_artifacts_sorted(cache):
    keys = [artifact_key(WORKLOAD, CHAIN, stretch, {}) for stretch in (1.5, 2.0, 3.0)]
    for k in keys:
        cache.put(k, PAYLOAD)
    assert cache.keys() == sorted(keys)


def test_manifest_checksum_matches_bytes_on_disk(cache):
    cache.put(key(), PAYLOAD)
    manifest = json.loads(cache.manifest_path(key()).read_text())
    data = cache.payload_path(key()).read_bytes()
    assert manifest["size_bytes"] == len(data)
    import hashlib

    assert manifest["sha256"] == hashlib.sha256(data).hexdigest()


def test_truncated_manifest_fails_closed(cache):
    for _ in range(2):
        cache.put(key(), PAYLOAD)
        manifest_path = cache.manifest_path(key())
        data = manifest_path.read_bytes()
        manifest_path.write_bytes(data[: len(data) // 2])
    # The audit reports the unreadable manifest instead of raising.
    report = cache.verify_all()
    assert report[key()]["ok"] is False
    assert cache.get(key()) is None
    # So does a serving read of a freshly truncated one.
    cache.put(key(), PAYLOAD)
    cache.manifest_path(key()).write_bytes(b'{"sha256": ')
    with pytest.raises(ArtifactIntegrityError):
        cache.get(key())
    assert cache.counters["corrupt_quarantined"] == 2
    assert cache.quarantined() == [f"{key()}-0000", f"{key()}-0001"]
