"""Tests for the online query service (detection/service.py), including
concurrent-reader behaviour of the shared SkeletonIndex."""

import threading

import pytest

from repro.detection.algorithm import HomographMatcher, fold_label
from repro.detection.batchfold import BatchFoldKernel, FoldTable
from repro.detection.index import (
    ReferenceIndexStore,
    build_reference_index,
    cached_reference_index,
)
from repro.detection.service import OnlineDetector
from repro.detection.shamfinder import ShamFinder
from repro.homoglyph.database import SOURCE_UC, HomoglyphDatabase
from repro.idn.idna_codec import to_ascii_label


def _small_finder() -> ShamFinder:
    db = HomoglyphDatabase(name="svc-test")
    db.add_pair("o", "о", source=SOURCE_UC)
    db.add_pair("a", "а", source=SOURCE_UC)
    db.add_pair("e", "е", source=SOURCE_UC)
    return ShamFinder(db)


@pytest.fixture()
def small_finder():
    return _small_finder()


REFERENCE = ["google.com", "amazon.com", "paypal.com", "google.net"]


@pytest.fixture()
def detector(small_finder):
    return OnlineDetector.from_references(small_finder, REFERENCE)


def _homograph(label: str, tld: str = "com") -> str:
    return f"{to_ascii_label(label)}.{tld}"


# -- verdicts -----------------------------------------------------------------


def test_query_matches_batch_detection(small_finder, detector):
    domains = [_homograph("gооgle"), _homograph("аmazon"), "benign.com", _homograph("pаypаl")]
    prepared = small_finder.prepare_references(REFERENCE)
    batch, _count, _skipped = small_finder.detect_prepared(domains, prepared)
    online = [d for v in detector.query_many(domains) for d in v.detections]
    assert [d.as_dict() for d in online] == [d.as_dict() for d in batch]


def test_query_filters_by_tld(detector):
    assert detector.query(_homograph("gооgle", "com")).is_homograph
    assert detector.query(_homograph("gооgle", "net")).is_homograph
    assert not detector.query(_homograph("gооgle", "org")).is_homograph


def test_query_unparsable_domain_reports_error(detector):
    verdict = detector.query("..")
    assert verdict.error is not None
    assert not verdict.is_homograph
    assert verdict.as_dict() == {"domain": "..", "is_homograph": False, "error": verdict.error}
    assert detector.stats()["errors"] == 1


def test_a_trailing_ideographic_dot_queries_like_the_root_dot(detector):
    homograph = _homograph("gооgle")
    expected = detector.query(homograph + ".")
    assert expected.is_homograph and expected.error is None
    for dot in ("。", "．", "｡"):
        verdict = detector.query(homograph + dot)
        assert verdict.error is None
        assert [d.as_dict() for d in verdict.detections] == [
            d.as_dict() for d in expected.detections]


def test_identical_label_is_not_a_homograph(detector):
    assert not detector.query("google.com").is_homograph


def test_revert_target_inlined_when_enabled(small_finder):
    detector = OnlineDetector.from_references(small_finder, REFERENCE, include_revert=True)
    verdict = detector.query(_homograph("gооgle"))
    assert verdict.revert == "google.com"
    payload = verdict.as_dict()
    assert payload["revert"] == "google.com"
    # benign ASCII input: no revert, and the key is omitted entirely
    assert "revert" not in detector.query("benign.com").as_dict()


def test_verdict_json_round_trips(detector):
    import json

    verdict = detector.query(_homograph("gооgle"))
    payload = json.loads(json.dumps(verdict.as_dict(), ensure_ascii=False))
    assert payload["is_homograph"] is True
    assert payload["detections"][0]["reference"] == "google.com"


# -- the LRU cache ------------------------------------------------------------


def test_cache_hits_counted_and_shared_across_case(detector):
    upper = _homograph("gооgle").upper()
    detector.query(_homograph("gооgle"))
    detector.query(upper)                      # same folded label -> hit
    stats = detector.stats()
    assert stats["queries"] == 2
    assert stats["cache_hits"] == 1
    assert stats["cached_labels"] == 1


def test_cache_eviction_keeps_size_bounded(small_finder):
    detector = OnlineDetector.from_references(small_finder, REFERENCE, cache_size=2)
    for i in range(10):
        detector.query(f"label{i}.com")
    assert detector.stats()["cached_labels"] <= 2


def test_cache_disabled_with_size_zero(small_finder):
    detector = OnlineDetector.from_references(small_finder, REFERENCE, cache_size=0)
    detector.query(_homograph("gооgle"))
    detector.query(_homograph("gооgle"))
    stats = detector.stats()
    assert stats["cache_hits"] == 0
    assert stats["cached_labels"] == 0


def test_negative_cache_size_rejected(small_finder):
    index = build_reference_index(small_finder, REFERENCE)
    with pytest.raises(ValueError):
        OnlineDetector(small_finder, index, cache_size=-1)


def test_reload_index_invalidates_cache_on_fingerprint_change(small_finder, detector):
    detector.query(_homograph("gооgle"))
    assert detector.stats()["cached_labels"] == 1

    same = build_reference_index(small_finder, REFERENCE)
    assert detector.reload_index(same) is False          # same fingerprint: cache kept
    assert detector.stats()["cached_labels"] == 1

    changed = build_reference_index(small_finder, REFERENCE + ["new.com"])
    assert detector.reload_index(changed) is True        # new fingerprint: cache dropped
    assert detector.stats()["cached_labels"] == 0
    assert detector.stats()["index_fingerprint"] == changed.fingerprint


def test_reload_mid_query_does_not_reseed_cache_with_old_index(small_finder):
    # A query that computed its matches against the old index must not
    # insert them after reload_index() swapped the index and cleared the
    # cache — that would serve retired-reference verdicts indefinitely.
    detector = OnlineDetector.from_references(small_finder, REFERENCE)
    changed = build_reference_index(small_finder, REFERENCE + ["other.com"])
    original = detector.finder.join_label

    def reload_mid_join(label, prepared, tld=None):
        result = original(label, prepared, tld)
        detector.reload_index(changed)
        return result

    detector.finder.join_label = reload_mid_join
    try:
        assert detector.query(_homograph("gооgle")).is_homograph
    finally:
        del detector.finder.join_label
    assert detector.stats()["cached_labels"] == 0    # dropped, not stale-seeded
    # And the next query re-joins against the new index and caches normally.
    assert detector.query(_homograph("gооgle")).is_homograph
    assert detector.stats()["cached_labels"] == 1


def test_detector_from_store_cold_start(tmp_path, small_finder):
    store = ReferenceIndexStore(tmp_path)
    OnlineDetector.from_references(small_finder, REFERENCE, store=store)  # builds + persists
    warm = OnlineDetector.from_references(small_finder, REFERENCE, store=store)
    assert warm.index.from_cache
    assert warm.query(_homograph("gооgle")).is_homograph


# -- concurrency --------------------------------------------------------------


def _run_threads(worker, thread_count=8):
    errors: list[BaseException] = []
    barrier = threading.Barrier(thread_count)

    def wrapped(seed: int) -> None:
        try:
            barrier.wait()
            worker(seed)
        except BaseException as exc:   # noqa: BLE001 - surfaced to the test
            errors.append(exc)

    threads = [threading.Thread(target=wrapped, args=(i,)) for i in range(thread_count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors, errors


def test_skeleton_index_safe_under_concurrent_readers(small_finder):
    matcher = HomographMatcher(small_finder.database)
    labels = [f"label{i}" for i in range(50)] + ["google", "amazon", "paypal"]
    index = matcher.build_skeleton_index(labels)
    expected = {label: matcher.match_with_skeleton_index(fold_label(label), index)
                for label in ("gооgle", "аmazon", "benign", "pаypаl")}

    def worker(seed: int) -> None:
        for _ in range(200):
            for label, want in expected.items():
                got = matcher.match_with_skeleton_index(fold_label(label), index)
                assert got == want

    _run_threads(worker)


def test_online_detector_concurrent_queries_match_serial(small_finder):
    detector = OnlineDetector.from_references(small_finder, REFERENCE, cache_size=3)
    domains = [_homograph("gооgle"), _homograph("аmazon"), "benign.com",
               _homograph("pаypаl"), _homograph("gооgle", "net"), "other.net"]
    serial = {d: detector.query(d).as_dict() for d in domains}

    def worker(seed: int) -> None:
        ordered = domains[seed % len(domains):] + domains[: seed % len(domains)]
        for _ in range(50):
            for domain in ordered:
                assert detector.query(domain).as_dict() == serial[domain]

    _run_threads(worker)
    stats = detector.stats()
    assert stats["queries"] == 8 * 50 * len(domains) + len(domains)
    assert stats["cached_labels"] <= 3


def test_concurrent_reload_does_not_corrupt_results(small_finder):
    detector = OnlineDetector.from_references(small_finder, REFERENCE)
    grown = build_reference_index(small_finder, REFERENCE + ["extra.com"])
    original = build_reference_index(small_finder, REFERENCE)
    stop = threading.Event()

    def reloader() -> None:
        while not stop.is_set():
            detector.reload_index(grown)
            detector.reload_index(original)

    flipper = threading.Thread(target=reloader)
    flipper.start()
    try:
        for _ in range(300):
            verdict = detector.query(_homograph("gооgle"))
            # Whichever index the query grabbed, the verdict is well-formed
            # and google.com is a member of both reference sets.
            assert verdict.is_homograph
            assert verdict.detections[0].reference == "google.com"
    finally:
        stop.set()
        flipper.join()


def test_drain_waits_for_a_batch_the_kernel_is_still_proving(detector, monkeypatch):
    """A batch counts as in flight from entry to return, including while
    the kernel proves fast misses that never reach the scalar join."""
    entered, release = threading.Event(), threading.Event()
    original = BatchFoldKernel.domain_misses

    def blocking(self, texts, **kwargs):
        entered.set()
        release.wait(timeout=10)
        return original(self, texts, **kwargs)

    monkeypatch.setattr(BatchFoldKernel, "domain_misses", blocking)
    domains = [f"site{i}.com" for i in range(20)]
    results = []
    worker = threading.Thread(target=lambda: results.append(detector.query_many(domains)))
    worker.start()
    try:
        assert entered.wait(timeout=10)
        assert detector.drain(timeout=0.05) is False
        assert detector.stats()["inflight"] == len(domains)
    finally:
        release.set()
        worker.join(timeout=10)
    assert not worker.is_alive()
    assert detector.drain(timeout=1) is True
    assert detector.stats()["inflight"] == 0
    assert [v.is_homograph for v in results[0]] == [False] * len(domains)


# -- fold-table sidecar ---------------------------------------------------------


@pytest.mark.parametrize("reopen_store", [False, True])
def test_second_detector_over_a_warm_index_dir_reads_the_fold_table(tmp_path, monkeypatch,
                                                                    reopen_store):
    builds = []
    build = FoldTable.build.__func__

    def counting_build(cls, *args, **kwargs):
        builds.append(1)
        return build(cls, *args, **kwargs)

    monkeypatch.setattr(FoldTable, "build", classmethod(counting_build))
    store = ReferenceIndexStore(tmp_path / "idx")
    # enough domains for the batch kernel (MIN_KERNEL_BATCH)
    batch = [_homograph("gооgle"), _homograph("аmazon")] + [f"benign{n}.com" for n in range(10)]
    # Fresh finders, as in two server processes: nothing is shared in memory.
    first = OnlineDetector.from_references(_small_finder(), REFERENCE, store=store)
    assert first.index.mapped
    cold = first.query_many(batch)
    assert len(builds) == 1 and list(store.index_dir.glob("foldtable-*.bin"))
    # Built the way `serve` and `query` build theirs: from the loaded index alone.
    # A second process opens its own store over the same directory.
    if reopen_store:
        store = ReferenceIndexStore(tmp_path / "idx")
    finder = _small_finder()
    index, hit = cached_reference_index(finder, REFERENCE, store)
    assert hit and index.mapped
    assert OnlineDetector(finder, index).query_many(batch) == cold
    assert len(builds) == 1
