"""Tests for the start-method-aware pool plumbing (repro/parallel/pool.py).

The contract under test: every parallel engine in the repo runs *parallel*
under every start method — fork inherits state, spawn rebuilds it from
picklable specs — and none silently degrades to serial the way the old
fork-only gate did.
"""

from __future__ import annotations

import json
import multiprocessing
import os

import pytest

from repro.detection.index import ReferenceIndexStore, cached_reference_index
from repro.detection.service import OnlineDetector
from repro.detection.shamfinder import ShamFinder
from repro.detection.stream import StreamingScanner, read_sink
from repro.homoglyph.database import SOURCE_UC, HomoglyphDatabase
from repro.idn.domain import DomainName
from repro.parallel.pool import (
    pool_context,
    resolve_start_method,
    worker_pids,
)
from repro.serving import WorkerPool, verdict_reply

REFERENCES = ["google.com", "amazon.com", "apple.com"]


@pytest.fixture(scope="module")
def pool_finder():
    db = HomoglyphDatabase(name="pool-test")
    db.add_pair("o", "о", source=SOURCE_UC)
    db.add_pair("a", "а", source=SOURCE_UC)
    return ShamFinder(db)


# -- context resolution -------------------------------------------------------

def test_resolve_start_method_explicit_and_invalid():
    for method in multiprocessing.get_all_start_methods():
        assert resolve_start_method(method) == method
    with pytest.raises(ValueError):
        resolve_start_method("teleport")


def test_resolve_start_method_honours_platform_default():
    method = resolve_start_method()
    assert method in multiprocessing.get_all_start_methods()
    # Resolving must not pin the global context as a side effect.
    assert resolve_start_method() == method


def test_pool_context_never_none():
    assert pool_context() is not None
    assert pool_context("spawn").get_start_method() == "spawn"


def test_pool_context_does_not_pin_global_start_method():
    before = multiprocessing.get_start_method(allow_none=True)
    pool_context()
    pool_context("spawn")
    assert multiprocessing.get_start_method(allow_none=True) == before


# -- demonstrable parallelism -------------------------------------------------

@pytest.mark.parametrize("method", ["spawn", "fork"])
def test_pool_runs_distinct_workers(method):
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"{method} unavailable on this platform")
    with pool_context(method).Pool(2) as pool:
        pids = worker_pids(pool, 4)
    assert len(pids) == 4
    assert len(set(pids)) >= 2
    assert os.getpid() not in pids


# -- streaming scan under spawn ----------------------------------------------

def test_streaming_scan_spawn_identical_to_serial(pool_finder, tmp_path):
    lines = []
    for i in range(40):
        lines.append(DomainName("gоogle.com").ascii if i % 8 == 0 else f"plain{i}.com")
    input_path = tmp_path / "domains.txt"
    input_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    serial_out = tmp_path / "serial.jsonl"
    serial_stats = StreamingScanner(
        pool_finder, REFERENCES, chunk_size=10, jobs=1,
    ).scan_file(input_path, serial_out)

    spawn_out = tmp_path / "spawn.jsonl"
    spawn_stats = StreamingScanner(
        pool_finder, REFERENCES, chunk_size=10, jobs=2, start_method="spawn",
    ).scan_file(input_path, spawn_out)

    assert read_sink(spawn_out) == read_sink(serial_out)
    assert spawn_stats.detection_count == serial_stats.detection_count > 0
    assert spawn_stats.skipped_count == serial_stats.skipped_count


# -- serving worker pool under spawn ------------------------------------------

def test_worker_pool_serves_under_spawn(pool_finder, tmp_path):
    store = ReferenceIndexStore(tmp_path)
    built, _hit = cached_reference_index(pool_finder, REFERENCES, store)
    index = store.load_path(store.path_for(built.key), pool_finder)
    assert index is not None

    domains = [DomainName("gоogle.com").ascii, "benign.com",
               DomainName("аmаzon.com").ascii, "plain.com"]
    ids = list(range(len(domains)))
    detector = OnlineDetector(pool_finder, index, cache_size=0)
    expected = [
        json.dumps(
            verdict_reply(verdict.as_dict(), index.fingerprint, request_id),
            ensure_ascii=False,
        )
        for verdict, request_id in zip(
            detector.query_many(domains, index=index), ids)
    ]

    pool = WorkerPool(
        pool_finder, index.prepared.path, index.fingerprint,
        workers=2, start_method="spawn",
    )
    try:
        pool.warm(hold_seconds=0.05)
        replies = pool.submit(domains, ids, index.fingerprint, pool.index_path).result()
    finally:
        pool.close()
    assert replies == expected
    assert any('"is_homograph": true' in line or '"detections"' in line
               for line in replies)
