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


# ---------------------------------------------------------------------------
# The verified head (manifest schema 2)
# ---------------------------------------------------------------------------
HEADED = {
    "tier": "greedy",
    "degraded": False,
    "verified": True,
    "spanner_edges": 2,
    "stretch_bound": 1.5,
    "measured_stretch": None,
    "edges": [["a", "b", 1.0], ["b", "c", 2.0]],
    "metadata": {"edges": 2.0},
}


def rewrite_manifest(cache, edit) -> None:
    path = cache.manifest_path(key())
    manifest = json.loads(path.read_text())
    edit(manifest)
    path.write_text(json.dumps(manifest, indent=2))


def as_schema_1(manifest) -> None:
    manifest["schema"] = 1
    del manifest["head"], manifest["head_sha256"]


def test_head_read_equals_the_scalar_subset_of_the_payload(cache):
    cache.put(key(), HEADED)
    full = cache.get(key())
    assert full == HEADED
    scalars = {name: value for name, value in full.items() if name not in ("edges", "metadata")}
    assert cache.get(key(), head=True) == scalars
    assert cache.counters["hits"] == 2


def test_head_read_never_parses_the_payload(cache, monkeypatch):
    cache.put(key(), HEADED)
    payload_bytes = cache.payload_path(key()).read_bytes()
    parsed = []
    real_loads = json.loads

    def spy(text, *args, **kwargs):
        parsed.append(text)
        return real_loads(text, *args, **kwargs)

    monkeypatch.setattr(json, "loads", spy)
    assert cache.get(key(), head=True)["spanner_edges"] == 2
    assert len(parsed) == 1, "one parse: the manifest"
    assert parsed[0] not in (payload_bytes, payload_bytes.decode("utf-8"))
    cache.get(key())
    assert payload_bytes.decode("utf-8") in parsed


def test_payload_is_compact_and_the_manifest_indented(cache):
    manifest = cache.put(key(), HEADED)
    text = cache.payload_path(key()).read_text()
    assert text == json.dumps(HEADED, sort_keys=True) + "\n"
    assert manifest["size_bytes"] == len(text.encode("utf-8"))
    assert manifest["head"]["spanner_edges"] == 2
    assert cache.manifest_path(key()).read_text().startswith('{\n  "created_at"')


def test_payload_bit_flip_is_caught_by_a_head_read(cache):
    cache.put(key(), HEADED)
    payload_path = cache.payload_path(key())
    data = bytearray(payload_path.read_bytes())
    data[len(data) // 2] ^= 0x01
    payload_path.write_bytes(bytes(data))
    with pytest.raises(ArtifactIntegrityError) as excinfo:
        cache.get(key(), head=True)
    assert excinfo.value.part == "payload"
    assert cache.quarantined() == [f"{key()}-0000"]
    assert cache.get(key(), head=True) is None


def flip_head_byte(cache) -> None:
    """Flip one bit of a letter inside the head's ``tier`` value."""
    path = cache.manifest_path(key())
    data = bytearray(path.read_bytes())
    at = data.index(b'"tier": "greedy"') + len(b'"tier": "g')
    data[at] ^= 0x01  # 'r' -> 's': still valid JSON, a different head
    path.write_bytes(bytes(data))
    assert json.loads(bytes(data))["head"]["tier"] == "gseedy"


def drop_head_sha256(cache) -> None:
    rewrite_manifest(cache, lambda manifest: manifest.pop("head_sha256"))


@pytest.mark.parametrize("corrupt", [flip_head_byte, drop_head_sha256])
@pytest.mark.parametrize("head", [True, False])
def test_corrupt_head_quarantines_on_every_read(cache, corrupt, head):
    cache.put(key(), HEADED)
    corrupt(cache)
    with pytest.raises(ArtifactIntegrityError) as excinfo:
        cache.get(key(), head=head)
    assert excinfo.value.part == "head"
    assert "head sha256" in str(excinfo.value)
    assert cache.counters["corrupt_quarantined"] == 1
    assert cache.quarantined() == [f"{key()}-0000"]
    assert cache.get(key(), head=True) is None


def test_schema_1_manifest_reads_as_a_miss_and_the_put_overwrites_it(cache):
    cache.put(key(), HEADED)
    rewrite_manifest(cache, as_schema_1)
    assert cache.get(key(), head=True) is None
    assert cache.get(key()) is None
    assert cache.counters["misses"] == 2
    assert cache.counters["corrupt_quarantined"] == 0
    assert cache.quarantined() == []
    # The audit reports it stale and leaves it for the rebuild.
    assert cache.verify_all() == {key(): {"ok": False, "stale": True}}
    assert cache.keys() == [key()]
    cache.put(key(), HEADED)
    assert cache.get(key(), head=True)["tier"] == "greedy"


def test_verify_all_requires_the_head_to_equal_the_payload_scalars(cache):
    from repro.service.cache import _canonical_sha256

    cache.put(key(), HEADED)

    def forge(manifest) -> None:
        # A head whose own checksum holds but that no longer describes the
        # payload: a serving read cannot tell, the audit must.
        manifest["head"]["spanner_edges"] = 3
        manifest["head_sha256"] = _canonical_sha256(manifest["head"])

    rewrite_manifest(cache, forge)
    report = cache.verify_all()
    assert report[key()]["ok"] is False
    assert report[key()]["part"] == "payload head"
    assert cache.quarantined() == [f"{key()}-0000"]
    assert cache.keys() == []


@pytest.mark.parametrize("vanishing", ["manifest", "payload"])
def test_a_file_that_vanishes_mid_read_is_a_miss(cache, tmp_path, monkeypatch, vanishing):
    """A concurrent quarantine (another worker's cache over the same root)
    moves the artifact away between this reader's look and its read."""
    cache.put(key(), HEADED)
    other = ArtifactCache(tmp_path / "cache")
    manifest_path = cache.manifest_path(key())
    real_read_bytes = type(manifest_path).read_bytes

    def racing_read_bytes(path):
        if path == manifest_path and cache.manifest_path(key()).exists():
            if vanishing == "manifest":
                other.quarantine(key())
            else:
                data = real_read_bytes(path)
                other.quarantine(key())
                return data
        return real_read_bytes(path)

    monkeypatch.setattr(type(manifest_path), "read_bytes", racing_read_bytes)
    assert cache.get(key(), head=True) is None
    assert cache.counters == {"hits": 0, "misses": 1, "corrupt_quarantined": 0, "puts": 1}
