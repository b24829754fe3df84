"""Tests for the persistable reference-index artifact (detection/index.py)."""

import hashlib
import json
import pickle
import struct
import tempfile

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from oracles.reference_prepare import offset_directory
from repro.detection import index as index_module
from repro.detection.index import (
    INDEX_FORMAT_VERSION,
    INDEX_MAGIC,
    IndexKey,
    MmapPreparedReferences,
    ReferenceIndexStore,
    build_reference_index,
    cached_reference_index,
    encode_index,
    key_for,
    reference_list_hash,
)
from repro.detection.shamfinder import REFERENCE_SEPARATOR, PreparedReferences, ShamFinder
from repro.detection.skeleton import PACK_SEPARATOR, SkeletonIndex
from repro.homoglyph.database import SOURCE_UC, HomoglyphDatabase
from repro.idn.idna_codec import to_ascii_label


@pytest.fixture()
def small_finder():
    db = HomoglyphDatabase(name="idx-test")
    db.add_pair("o", "о", source=SOURCE_UC)   # Cyrillic о
    db.add_pair("a", "а", source=SOURCE_UC)   # Cyrillic а
    db.add_pair("e", "е", source=SOURCE_UC)   # Cyrillic е
    return ShamFinder(db)


REFERENCE = ["google.com", "amazon.com", "paypal.com", "apple.net", "google.net"]

HOMOGRAPHS = [
    to_ascii_label("gооgle") + ".com",
    to_ascii_label("аmazon") + ".com",
    to_ascii_label("applе") + ".net",
]


def _detect(finder, prepared):
    detections, idn_count, skipped = finder.detect_prepared(HOMOGRAPHS + ["benign.com"], prepared)
    return [d.as_dict() for d in detections], idn_count, skipped


# -- fingerprinting -----------------------------------------------------------


def test_reference_hash_tracks_content_and_order():
    assert reference_list_hash(["a.com", "b.com"]) == reference_list_hash(["a.com", "b.com"])
    assert reference_list_hash(["a.com"]) != reference_list_hash(["a.com", "b.com"])
    # Order-sensitive by design: a reordered list rebuilds (safe, just not free).
    assert reference_list_hash(["a.com", "b.com"]) != reference_list_hash(["b.com", "a.com"])


def test_key_changes_with_database_and_references(small_finder):
    key = key_for(small_finder, REFERENCE)
    assert key == key_for(small_finder, list(REFERENCE))
    assert key != key_for(small_finder, REFERENCE[:-1])

    other_db = HomoglyphDatabase(name="other")
    other_db.add_pair("o", "о", source=SOURCE_UC)
    assert key != key_for(ShamFinder(other_db), REFERENCE)


def test_database_digest_ignores_name_but_not_pairs():
    first = HomoglyphDatabase(name="one")
    second = HomoglyphDatabase(name="two")
    for db in (first, second):
        db.add_pair("o", "о", source=SOURCE_UC)
    assert first.content_digest() == second.content_digest()
    second.add_pair("a", "а", source=SOURCE_UC)
    assert first.content_digest() != second.content_digest()


# -- round trip ---------------------------------------------------------------


def test_store_load_round_trip_is_detection_identical(tmp_path, small_finder):
    store = ReferenceIndexStore(tmp_path)
    built, hit = cached_reference_index(small_finder, REFERENCE, store)
    assert not hit and not built.from_cache and built.mapped   # written, then attached

    loaded, hit = cached_reference_index(small_finder, REFERENCE, store)
    assert hit and loaded.from_cache and loaded.mapped
    assert loaded.fingerprint == built.fingerprint
    assert loaded.domain_count == built.domain_count
    assert sorted(loaded.prepared.labels) == sorted(built.prepared.labels)
    assert _detect(small_finder, loaded.prepared) == _detect(small_finder, built.prepared)


def test_loaded_references_are_canonical(tmp_path, small_finder):
    store = ReferenceIndexStore(tmp_path)
    store.store(build_reference_index(small_finder, REFERENCE))
    loaded = store.load_mmap(key_for(small_finder, REFERENCE), small_finder, verify=True)
    refs = [ref for label in loaded.prepared.labels
            for ref in loaded.prepared.references_for(label)]
    assert sorted(refs) == sorted(REFERENCE)
    # tld filtering (used by detect_prepared) must survive the round trip
    assert {r.rpartition(".")[2] for r in refs} == {"com", "net"}


def test_store_none_degrades_to_in_memory_build(small_finder):
    index, hit = cached_reference_index(small_finder, REFERENCE, None)
    assert not hit and not index.from_cache and not index.mapped
    assert index.domain_count == len(REFERENCE)


def test_force_rebuild_skips_read_but_refreshes(tmp_path, small_finder):
    store = ReferenceIndexStore(tmp_path)
    first, _ = cached_reference_index(small_finder, REFERENCE, store)
    path = store.path_for(first.key)
    before = path.stat().st_mtime_ns
    forced, hit = cached_reference_index(small_finder, REFERENCE, store, force=True)
    assert not hit and not forced.from_cache
    assert path.stat().st_mtime_ns >= before
    # And the refreshed artifact still loads.
    assert store.load_mmap(first.key, small_finder, verify=True) is not None


# -- corruption -> rebuild ----------------------------------------------------


def _stored_path(tmp_path, finder):
    store = ReferenceIndexStore(tmp_path)
    index = build_reference_index(finder, REFERENCE)
    return store, index, store.store(index)


def test_missing_artifact_is_a_miss(tmp_path, small_finder):
    store = ReferenceIndexStore(tmp_path)
    assert store.load_mmap(key_for(small_finder, REFERENCE), small_finder, verify=True) is None


def test_truncated_artifact_is_a_miss(tmp_path, small_finder):
    store, index, path = _stored_path(tmp_path, small_finder)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    assert store.load_mmap(index.key, small_finder, verify=True) is None
    # cached_reference_index transparently rebuilds, re-persists and attaches
    rebuilt, hit = cached_reference_index(small_finder, REFERENCE, store)
    assert not hit and rebuilt.mapped
    assert _detect(small_finder, rebuilt.prepared) == _detect(small_finder, index.prepared)
    assert store.load_mmap(index.key, small_finder, verify=True) is not None


def test_garbage_header_is_a_miss(tmp_path, small_finder):
    store, index, path = _stored_path(tmp_path, small_finder)
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("not json at all\n" + "\n".join(lines[1:]) + "\n", encoding="utf-8")
    assert store.load_mmap(index.key, small_finder, verify=True) is None


def test_wrong_magic_or_version_is_a_miss(tmp_path, small_finder):
    store, index, path = _stored_path(tmp_path, small_finder)
    lines = path.read_text(encoding="utf-8").splitlines()
    header = json.loads(lines[0])

    header["magic"] = "something-else"
    path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n", encoding="utf-8")
    assert store.load_mmap(index.key, small_finder, verify=True) is None

    header["magic"] = "shamfinder-reference-index"
    header["version"] = INDEX_FORMAT_VERSION + 1
    path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n", encoding="utf-8")
    assert store.load_mmap(index.key, small_finder, verify=True) is None


def test_mismatched_key_is_a_miss(tmp_path, small_finder):
    store, index, path = _stored_path(tmp_path, small_finder)
    other_key = IndexKey(database_digest="0" * 16, reference_hash=index.key.reference_hash)
    # Pretend the same file answers for a different key (e.g. copied around).
    path.rename(store.path_for(other_key))
    assert store.load_mmap(other_key, small_finder, verify=True) is None


def test_label_count_mismatch_is_a_miss(tmp_path, small_finder):
    store, index, path = _stored_path(tmp_path, small_finder)
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")  # drop one entry
    assert store.load_mmap(index.key, small_finder, verify=True) is None


def test_unwritable_store_degrades_to_a_warning(tmp_path, small_finder):
    target = tmp_path / "blocked"
    target.write_text("a file, not a directory", encoding="utf-8")
    store = ReferenceIndexStore(target)
    with pytest.warns(UserWarning, match="could not persist reference index"):
        index, hit = cached_reference_index(small_finder, REFERENCE, store)
    # Attached to its artifact bytes in memory: the same query type, no file.
    assert not hit and not index.mapped and not index.from_cache
    assert isinstance(index.prepared, MmapPreparedReferences)
    assert index.prepared.path is None and index.prepared.index_dir is None
    assert index.domain_count == len(REFERENCE)
    assert _detect(small_finder, index.prepared) == _detect(
        small_finder, cached_reference_index(small_finder, REFERENCE,
                                             ReferenceIndexStore(tmp_path / "ok"))[0].prepared)
    index.prepared.close()   # nothing to release, and still probes
    assert index.prepared.references_for("google") == ("google.com", "google.net")


def test_entries_and_clear(tmp_path, small_finder):
    store, index, path = _stored_path(tmp_path, small_finder)
    assert store.entries() == [path]
    assert store.clear() == 1
    assert store.entries() == []


# -- mmap load path (format v2) ----------------------------------------------


def test_mmap_load_is_detection_identical(tmp_path, small_finder):
    store, index, path = _stored_path(tmp_path, small_finder)
    mapped = store.load_mmap(index.key, small_finder, verify=True)
    assert mapped is not None and mapped.mapped and mapped.from_cache
    assert mapped.fingerprint == index.fingerprint
    assert isinstance(mapped.prepared, MmapPreparedReferences)
    assert mapped.prepared.path == path

    # Same label/bucket content through the mapping view...
    assert sorted(mapped.prepared.labels) == sorted(index.prepared.labels)
    assert mapped.label_count == index.label_count
    assert mapped.domain_count == index.domain_count
    for label in index.prepared.labels:
        assert label in mapped.prepared.labels
        assert mapped.prepared.references_for(label) == tuple(
            index.prepared.references_for(label))
    assert "no-such-label" not in mapped.prepared.labels
    assert mapped.prepared.references_for("no-such-label") == ()

    # ...and byte-identical detections through the probe surface.
    assert _detect(small_finder, mapped.prepared) == _detect(small_finder, index.prepared)
    mapped.prepared.close()


def test_mmap_skeleton_index_probe_surface(tmp_path, small_finder):
    store, index, path = _stored_path(tmp_path, small_finder)
    mapped = store.load_mmap(index.key, small_finder)
    probe = mapped.prepared.index
    assert len(probe) == len(index.prepared.index)
    assert probe.bucket_count == len(dict(index.prepared.index.buckets()))
    assert dict(probe.buckets()) == dict(index.prepared.index.buckets())
    # candidates_for goes through skeletonize + binary search on the map.
    for label in index.prepared.labels:
        assert sorted(probe.candidates_for(label)) == sorted(
            index.prepared.index.candidates_for(label))
    assert probe.candidates_for("zzzzzz-unbucketed") == []
    mapped.prepared.close()


def test_load_path_takes_key_from_header(tmp_path, small_finder):
    store, index, path = _stored_path(tmp_path, small_finder)
    mapped = store.load_path(path, small_finder)
    assert mapped is not None and mapped.mapped
    assert mapped.key == index.key
    assert store.load_path(tmp_path / "refindex-missing.idx", small_finder) is None


def test_mmap_structural_corruption_is_a_miss(tmp_path, small_finder):
    store, index, path = _stored_path(tmp_path, small_finder)
    data = path.read_bytes()

    path.write_bytes(data[:-3])               # truncated: section math breaks
    assert store.load_mmap(index.key, small_finder) is None

    # A directory whose terminal offset disagrees with its section length
    # (the file ends with the high byte of the last directory's final
    # uint64 entry).
    corrupted = bytearray(data)
    corrupted[-1] = ord("9") if corrupted[-1] != ord("9") else ord("8")
    path.write_bytes(bytes(corrupted))
    assert store.load_mmap(index.key, small_finder) is None


def test_mmap_verify_catches_bit_rot(tmp_path, small_finder):
    store, index, path = _stored_path(tmp_path, small_finder)
    data = bytearray(path.read_bytes())
    # Flip one letter inside the first label record: structurally sound,
    # so only the checksum pass can notice.
    body_at = data.find(b"\n") + 1
    data[body_at] = ord("q") if data[body_at] != ord("q") else ord("z")
    path.write_bytes(bytes(data))
    assert store.load_mmap(index.key, small_finder, verify=True) is None
    # Without verification the open trusts the structure — that is the
    # documented tradeoff that makes worker attach O(header).
    lax = store.load_mmap(index.key, small_finder, verify=False)
    assert lax is not None
    lax.prepared.close()


def test_cached_reference_index_mmap_load(tmp_path, small_finder):
    # Every build through a store is written, then attached as a map.
    store = ReferenceIndexStore(tmp_path)
    built, hit = cached_reference_index(small_finder, REFERENCE, store)
    assert not hit and built.mapped and not built.from_cache
    again, hit = cached_reference_index(small_finder, REFERENCE, store)
    assert hit and again.mapped and again.from_cache
    assert again.fingerprint == built.fingerprint
    expected = _detect(small_finder, build_reference_index(small_finder, REFERENCE).prepared)
    assert _detect(small_finder, again.prepared) == _detect(small_finder, built.prepared) == expected


def test_prepared_references_carry_their_index_dir(tmp_path, small_finder):
    # The fold-table sidecar lives beside the artifact: every index attached
    # from a store says which directory that is; an in-memory build has none.
    store = ReferenceIndexStore(tmp_path / "idx")
    assert small_finder.prepare_references(REFERENCE).index_dir is None
    unstored = cached_reference_index(small_finder, REFERENCE, None)[0]
    assert unstored.prepared.index_dir is None
    for force in (True, False):   # fresh build, then a cache hit
        index, hit = cached_reference_index(small_finder, REFERENCE, store, force=force)
        assert hit is not force and index.mapped
        assert index.prepared.index_dir == store.index_dir
    blocked = tmp_path / "blocked"
    blocked.write_text("a file, not a directory", encoding="utf-8")
    with pytest.warns(UserWarning):
        index, _ = cached_reference_index(small_finder, REFERENCE, ReferenceIndexStore(blocked))
    assert index.prepared.index_dir is None   # never persisted


def test_close_releases_the_map_after_probes(tmp_path, small_finder):
    store, index, path = _stored_path(tmp_path, small_finder)
    mapped = store.load_mmap(index.key, small_finder, verify=True).prepared
    assert _detect(small_finder, mapped) == _detect(small_finder, index.prepared)
    assert list(mapped.labels) and mapped.index.skeletons() and list(mapped.index.buckets())
    assert mapped.labels.get("google") and "google" in mapped.labels
    mapped.close()
    assert mapped._buf.closed   # the key maps hold copies, not views of the map
    mapped.close()              # idempotent


# -- key maps against the builder's state ---------------------------------------

#: Label characters: confusable pairs (so skeletons collide and buckets hold
#: several members), a multi-byte letter, and both section separators.
_KEY_ALPHABET = "aаoоbé\x1f\x1e"
_SEPARATORS = (PACK_SEPARATOR, "\x1e")


def _attached_both_ways(directory, finder, built, key):
    """*built* encoded, attached to its bytes and mapped from a stored file."""
    data = encode_index(built, key)
    in_memory = index_module._attach(data, None, finder.matcher.classes, key, verify=True)
    store = ReferenceIndexStore(directory)
    store.store(in_memory)
    return [in_memory.prepared, store.load_mmap(key, finder, verify=True).prepared]


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])   # the finder is read-only
@given(st.dictionaries(st.text(_KEY_ALPHABET, max_size=5),
                       st.lists(st.sampled_from(["com", "net", "org"]), min_size=1, max_size=3),
                       max_size=12),
       st.lists(st.text(_KEY_ALPHABET, max_size=5), max_size=6))
# Labels holding a section separator (no IDNA label does) are refused by
# the encoder rather than written to read back split.
@example(groups={"apple": ["com"], "g\x1foogle": ["net"], "google": ["com", "org"]},
         probes=["gооgle"])
@example(groups={"\x1f": ["com"], "\x1e": ["net"]}, probes=[""])
@example(groups={"g\x1eoogle": ["com"]}, probes=[])
@example(groups={}, probes=["a"])
def test_key_mapped_index_matches_the_builder(small_finder, groups, probes):
    labels = {label: REFERENCE_SEPARATOR.join(f"x{n}.{tld}" for n, tld in enumerate(tlds))
              for label, tlds in groups.items()}
    skeleton_index = SkeletonIndex(small_finder.matcher.classes)
    skeleton_index.extend(labels)
    built = PreparedReferences(labels=labels, index=skeleton_index,
                               domain_count=sum(map(len, groups.values())))
    key = key_for(small_finder, sorted(groups))
    held = [label for label in labels if any(sep in label for sep in _SEPARATORS)]
    if held:
        with pytest.raises(ValueError, match="holds its section separator"):
            encode_index(built, key)
        return
    with tempfile.TemporaryDirectory() as directory:
        for mapped in _attached_both_ways(directory, small_finder, built, key):
            try:
                assert len(mapped.labels) == len(built.labels)
                assert list(mapped.labels) == sorted(built.labels)
                for label in [*labels, *probes]:
                    assert (label in mapped.labels) == (label in built.labels)
                    assert mapped.labels.get(label) == built.labels.get(label)
                    group = built.labels.get(label)
                    assert mapped.references_for(label) == (
                        tuple(group.split(REFERENCE_SEPARATOR)) if group else ())
                    assert mapped.index.candidates_for(label) == built.index.candidates_for(label)
                assert mapped.index.skeletons() == sorted(dict(built.index.buckets()))
                assert dict(mapped.index.buckets()) == dict(built.index.buckets())
                assert len(mapped.index) == len(built.index)
                assert mapped.index.bucket_count == built.index.bucket_count
                assert mapped.domain_count == built.domain_count
            finally:
                mapped.close()


def test_a_key_holding_its_separator_reads_as_unsound(tmp_path, small_finder, monkeypatch):
    # An artifact whose key section splits into more records than its
    # header counts (as an encoder without the separator check would
    # write one) must read as a miss, never as a mis-split index.
    skeleton_index = SkeletonIndex(small_finder.matcher.classes)
    skeleton_index.extend(["g\x1foogle", "apple"])
    built = PreparedReferences(labels={"g\x1foogle": "g.com", "apple": "apple.com"},
                               index=skeleton_index, domain_count=2)
    monkeypatch.setattr(index_module, "_offset_directory",
                        lambda records, _section, _separator:
                        struct.pack(f"<{len(records)}Q", *offset_directory(records)))
    key = key_for(small_finder, ["g.com", "apple.com"])
    store = ReferenceIndexStore(tmp_path)
    store.path_for(key).write_bytes(encode_index(built, key))
    assert store.load_mmap(key, small_finder, verify=True) is None
    assert store.load_path(store.path_for(key), small_finder) is None


# -- the pickle rule -----------------------------------------------------------


def test_pickling_re_attaches_by_path_or_carries_the_bytes(tmp_path, small_finder):
    stored = cached_reference_index(small_finder, REFERENCE, ReferenceIndexStore(tmp_path))[0]
    in_memory = build_reference_index(small_finder, REFERENCE)
    body = stored.prepared.path.read_bytes()
    assert stored.mapped and not in_memory.mapped

    # File-backed: the pickle names the artifact, it does not carry it.
    payload = pickle.dumps(stored)
    assert str(stored.prepared.path).encode() in payload
    assert INDEX_MAGIC.encode() not in payload and body[-64:] not in payload
    # Bytes-backed: the pickle carries exactly the artifact bytes.
    assert body in pickle.dumps(in_memory)

    for index in (stored, in_memory):
        again = pickle.loads(pickle.dumps(index))
        assert again.key == index.key and again.mapped == index.mapped
        assert again.prepared.path == index.prepared.path
        assert _detect(small_finder, again.prepared) == _detect(small_finder, index.prepared)
        again.prepared.close()


def test_pickled_file_backed_index_whose_file_is_gone_fails_to_attach(tmp_path, small_finder):
    stored = cached_reference_index(small_finder, REFERENCE, ReferenceIndexStore(tmp_path))[0]
    payload = pickle.dumps(stored.prepared)
    stored.prepared.path.unlink()
    with pytest.raises(RuntimeError, match="could not attach reference index"):
        pickle.loads(payload)


# -- format-version-1 artifacts ------------------------------------------------


def _write_v1_artifact(store: ReferenceIndexStore, finder, reference):
    """Write a pre-mmap four-section artifact exactly as PR 5 stored it."""
    index = build_reference_index(finder, reference)
    prepared = index.prepared
    labels = list(prepared.labels)
    groups = [prepared.labels.get(label) for label in labels]
    buckets = dict(prepared.index.buckets())
    sections = [
        PACK_SEPARATOR.join(labels),
        "\x1e".join(groups),
        PACK_SEPARATOR.join(buckets),
        "\x1e".join(PACK_SEPARATOR.join(members) for members in buckets.values()),
    ]
    body = "\n".join(sections)
    v1_key = IndexKey(database_digest=index.key.database_digest,
                      reference_hash=index.key.reference_hash, format_version=1)
    header = {
        "magic": INDEX_MAGIC,
        "version": 1,
        "key": v1_key.as_dict(),
        "label_count": len(labels),
        "bucket_count": len(buckets),
        "entry_count": sum(len(members) for members in buckets.values()),
        "domain_count": prepared.domain_count,
        "body_sha256": hashlib.sha256(body.encode("utf-8")).hexdigest(),
    }
    store.index_dir.mkdir(parents=True, exist_ok=True)
    path = store.path_for(v1_key)
    path.write_text(json.dumps(header, ensure_ascii=False) + "\n" + body,
                    encoding="utf-8")
    return index, path


def test_v1_artifact_reads_as_a_miss_and_is_rebuilt(tmp_path, small_finder):
    store = ReferenceIndexStore(tmp_path)
    built, v1_path = _write_v1_artifact(store, small_finder, REFERENCE)
    key = key_for(small_finder, REFERENCE)
    assert store.load_mmap(key, small_finder, verify=True) is None

    index, hit = cached_reference_index(small_finder, REFERENCE, store)
    assert not hit and index.mapped
    assert index.key == key
    assert store.path_for(key).exists() and v1_path.exists()
    assert _detect(small_finder, index.prepared) == _detect(small_finder, built.prepared)
    index.prepared.close()


def _write_v2_artifact(store: ReferenceIndexStore, finder, reference):
    """Write a text-directory artifact exactly as format version 2 stored it."""
    index = build_reference_index(finder, reference)
    prepared = index.prepared
    labels = sorted(prepared.labels)
    groups = [prepared.labels.get(label) for label in labels]
    buckets = dict(prepared.index.buckets())
    bucket_keys = sorted(buckets)
    bucket_values = [PACK_SEPARATOR.join(buckets[key]) for key in bucket_keys]
    data = [labels, groups, bucket_keys, bucket_values]
    sections = [PACK_SEPARATOR.join(labels), "\x1e".join(groups),
                PACK_SEPARATOR.join(bucket_keys), "\x1e".join(bucket_values)]
    sections += ["".join(f"{end:010d}" for end in offset_directory(records)) for records in data]
    encoded = [section.encode("utf-8") for section in sections]
    body = b"\n".join(encoded)
    v2_key = IndexKey(database_digest=index.key.database_digest,
                      reference_hash=index.key.reference_hash, format_version=2)
    header = {
        "magic": INDEX_MAGIC,
        "version": 2,
        "key": v2_key.as_dict(),
        "label_count": len(labels),
        "bucket_count": len(bucket_keys),
        "entry_count": len(prepared.index),
        "domain_count": prepared.domain_count,
        "section_bytes": [len(section) for section in encoded],
        "body_sha256": hashlib.sha256(body).hexdigest(),
    }
    store.index_dir.mkdir(parents=True, exist_ok=True)
    path = store.path_for(v2_key)
    path.write_bytes((json.dumps(header, ensure_ascii=False) + "\n").encode("utf-8") + body)
    return index, path


def test_v2_artifact_reads_as_a_miss_and_is_rebuilt(tmp_path, small_finder):
    store = ReferenceIndexStore(tmp_path)
    built, v2_path = _write_v2_artifact(store, small_finder, REFERENCE)
    key = key_for(small_finder, REFERENCE)
    assert store.load_mmap(key, small_finder, verify=True) is None
    # Under the current name (as if renamed in place) it is still a miss.
    current = store.path_for(key)
    v2_path.rename(current)
    assert store.load_mmap(key, small_finder, verify=True) is None
    assert store.load_path(current, small_finder) is None

    index, hit = cached_reference_index(small_finder, REFERENCE, store)
    assert not hit and index.mapped and index.key == key
    assert _detect(small_finder, index.prepared) == _detect(small_finder, built.prepared)
    index.prepared.close()
