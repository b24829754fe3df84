"""Bench — skeleton-index matcher vs. the legacy pairwise scan.

The paper's Step III compares every extracted IDN against every same-length
reference domain.  This bench builds a synthetic 100k-candidate corpus over
a homoglyph database with chained (non-transitive) classes and runs both
one-vs-many strategies:

* the legacy length-index scan (``find_homographs_pairwise``, the test
  oracle in ``tests/oracles/pairwise_matcher.py``) — Algorithm 1
  against every same-length reference;
* the skeleton hash-join (``find_homographs``) — union-find closure,
  canonical skeletons, exact re-check of bucket hits.

The two paths must return the identical (candidate, reference) match list
and the skeleton index must win by at least 5x.  A second section streams
the same corpus through the chunked scan pipeline to report end-to-end
throughput including IDN extraction and sink writes.  A third streams a
CT-log-shaped zone (over 99% plain ASCII names, a few comments and blank
lines, well under 1% ``xn--`` names), where the scan is bound by chunking,
Step II and commits rather than by matching.  A fourth streams an
IDN-dense zone (half ``xn--`` names), where Step III dominates and the
batch kernel decodes and proves most A-labels matchless without parsing
them one at a time.  A fifth re-issues that zone as daily snapshots with
1% churn, where each scan process answers a name it has already matched
from its outcome memo.
"""

from __future__ import annotations

import os
import random
import resource
import time
from unittest import mock

from bench_util import print_table, record_bench

from oracles.pairwise_matcher import find_homographs_pairwise
from repro.detection import batchfold, stream
from repro.detection.algorithm import HomographMatcher
from repro.detection.batchfold import kernel_for
from repro.detection.shamfinder import ShamFinder
from repro.detection.stream import (
    StreamingScanner,
    _sink_lines,
    _step_ii,
    is_idn_candidate,
    read_sink,
)
from repro.homoglyph.database import SOURCE_SIMCHAR, SOURCE_UC, HomoglyphDatabase
from repro.idn.idna_codec import to_ascii_label
from repro.parallel.pool import pool_context, worker_pids

CANDIDATE_COUNT = 100_000
REFERENCE_COUNT = 200
MIN_SPEEDUP = 5.0

#: Latin letters with their Cyrillic/Greek lookalikes, chained so the
#: union-find closure is strictly coarser than the database (a~b, b~c
#: without a~c) and the exact re-check actually has work to do.
_CONFUSABLES = {
    "a": "аα",
    "o": "оο",
    "e": "е",
    "p": "р",
    "c": "с",
    "y": "у",
    "x": "х",
    "i": "і",
    "s": "ѕ",
    "j": "ј",
}


def _database() -> HomoglyphDatabase:
    db = HomoglyphDatabase(name="bench")
    for latin, lookalikes in _CONFUSABLES.items():
        for twin in lookalikes:
            db.add_pair(latin, twin, source=SOURCE_UC)
    # Chains between the lookalikes themselves: same class, not a pair.
    db.add_pair("а", "ӓ", source=SOURCE_SIMCHAR)
    db.add_pair("о", "ӧ", source=SOURCE_SIMCHAR)
    return db


def _corpus(seed: int = 20190917) -> tuple[list[str], list[str]]:
    """(candidates, references) — deterministic synthetic Step III corpus."""
    rng = random.Random(seed)
    alphabet = "aoepcyxisjbdgklmnrtu"
    references = []
    seen = set()
    while len(references) < REFERENCE_COUNT:
        label = "".join(rng.choice(alphabet) for _ in range(rng.randint(5, 9)))
        if label not in seen:
            seen.add(label)
            references.append(label)

    candidates = []
    for _ in range(CANDIDATE_COUNT):
        if rng.random() < 0.15:
            # Mutate a reference with 1-2 homoglyph substitutions.
            label = list(rng.choice(references))
            for _ in range(rng.randint(1, 2)):
                position = rng.randrange(len(label))
                twins = _CONFUSABLES.get(label[position])
                if twins:
                    label[position] = rng.choice(twins)
            candidates.append("".join(label))
        else:
            candidates.append(
                "".join(rng.choice(alphabet) for _ in range(rng.randint(5, 9)))
            )
    return candidates, references


def test_skeleton_index_speedup():
    db = _database()
    matcher = HomographMatcher(db)
    candidates, references = _corpus()

    start = time.perf_counter()
    legacy = find_homographs_pairwise(matcher, candidates, references)
    legacy_seconds = time.perf_counter() - start

    start = time.perf_counter()
    indexed = matcher.find_homographs(candidates, references)
    indexed_seconds = time.perf_counter() - start

    speedup = legacy_seconds / indexed_seconds
    print_table(
        f"Step III one-vs-many: {CANDIDATE_COUNT:,} candidates x "
        f"{REFERENCE_COUNT} references, {len(legacy)} matches",
        [
            ("legacy length-index scan", f"{legacy_seconds:.3f} s", "1.0x"),
            ("skeleton hash-join", f"{indexed_seconds:.3f} s", f"{speedup:.1f}x"),
        ],
        headers=("path", "time", "speedup"),
    )

    record_bench("scan", {
        "candidates": CANDIDATE_COUNT,
        "references": REFERENCE_COUNT,
        "matches": len(legacy),
        "legacy_seconds": round(legacy_seconds, 4),
        "indexed_seconds": round(indexed_seconds, 4),
        "skeleton_speedup": round(speedup, 2),
    })

    assert [(m.candidate, m.reference) for m in indexed] == [
        (m.candidate, m.reference) for m in legacy
    ]
    assert legacy == indexed            # full MatchResults, substitutions included
    assert speedup >= MIN_SPEEDUP


def test_streaming_scan_throughput(tmp_path):
    db = _database()
    finder = ShamFinder(db)
    candidates, references = _corpus()
    reference_domains = [f"{label}.com" for label in references]

    input_path = tmp_path / "domains.txt"
    with open(input_path, "w", encoding="utf-8") as handle:
        for label in candidates:
            try:
                ascii_label = to_ascii_label(label)
            except Exception:
                continue
            handle.write(f"{ascii_label}.com\n")

    scanner = StreamingScanner(finder, reference_domains, chunk_size=10_000, jobs=2)
    output_path = tmp_path / "results.jsonl"
    start = time.perf_counter()
    stats = scanner.scan_file(input_path, output_path)
    seconds = time.perf_counter() - start

    report = read_sink(output_path)
    rate = stats.domains_seen / seconds if seconds else 0.0
    print_table("Streaming scan pipeline (chunked, 2 workers, JSONL sink)", [
        ("domains", f"{stats.domains_seen:,}"),
        ("IDNs matched", f"{stats.idn_count:,}"),
        ("detections", f"{stats.detection_count:,}"),
        ("chunks", f"{stats.chunks_done}"),
        ("throughput", f"{rate:,.0f} domains/s"),
    ])

    assert stats.detection_count == len(report)
    assert stats.detection_count > 0
    assert stats.skipped_count == 0


def test_streaming_scan_spawn_parallel(tmp_path):
    """Spawn start method: real worker processes, byte-identical results.

    Spawn platforms (macOS, Windows) used to silently fall back to a
    serial scan; ``repro.parallel.pool`` re-creates worker state from
    picklable initargs, so a forced-spawn scan must both (a) produce the
    identical sink and (b) actually run on distinct worker processes.
    """
    db = _database()
    finder = ShamFinder(db)
    candidates, references = _corpus()
    reference_domains = [f"{label}.com" for label in references]

    input_path = tmp_path / "domains.txt"
    with open(input_path, "w", encoding="utf-8") as handle:
        for label in candidates:
            try:
                ascii_label = to_ascii_label(label)
            except Exception:
                continue
            handle.write(f"{ascii_label}.com\n")

    serial_path = tmp_path / "serial.jsonl"
    serial = StreamingScanner(finder, reference_domains, chunk_size=10_000, jobs=1)
    serial_stats = serial.scan_file(input_path, serial_path)

    spawn_path = tmp_path / "spawn.jsonl"
    spawn = StreamingScanner(
        finder, reference_domains, chunk_size=10_000, jobs=2, start_method="spawn"
    )
    start = time.perf_counter()
    spawn_stats = spawn.scan_file(input_path, spawn_path)
    spawn_seconds = time.perf_counter() - start

    assert read_sink(spawn_path) == read_sink(serial_path)
    assert spawn_stats.detection_count == serial_stats.detection_count > 0

    # The pool abstraction itself must hand out distinct worker processes
    # under spawn — the old behaviour was a silent serial fallback.
    with pool_context("spawn").Pool(2) as pool:
        pids = worker_pids(pool, 4)
    assert len(set(pids)) >= 2
    assert os.getpid() not in pids

    rate = spawn_stats.domains_seen / spawn_seconds if spawn_seconds else 0.0
    print_table("Streaming scan, forced spawn start method (2 workers)", [
        ("domains", f"{spawn_stats.domains_seen:,}"),
        ("detections", f"{spawn_stats.detection_count:,}"),
        ("throughput", f"{rate:,.0f} domains/s"),
        ("distinct worker pids", f"{len(set(pids))}"),
    ])
    record_bench("scan_spawn", {
        "domains": spawn_stats.domains_seen,
        "detections": spawn_stats.detection_count,
        "spawn_seconds": round(spawn_seconds, 4),
        "spawn_domains_per_second": round(rate, 1),
        "distinct_worker_pids": len(set(pids)),
        "identical_to_serial": True,
    })


def _cpu_seconds(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def _scan_runs(finder, reference_domains, input_path, tmp_path, name):
    """Scan *input_path* with one and with two workers.

    Returns ``{jobs: (stats, seconds, sink bytes)}`` and the CPU seconds
    of the two-worker run's parent and of its workers (the workers count
    once they have been joined, which the scan does before it returns).
    """
    runs, split = {}, {}
    for jobs in (1, 2):
        scanner = StreamingScanner(finder, reference_domains, chunk_size=2000, jobs=jobs)
        output_path = tmp_path / f"{name}-{jobs}.jsonl"
        parent = _cpu_seconds(resource.RUSAGE_SELF)
        workers = _cpu_seconds(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        stats = scanner.scan_file(input_path, output_path)
        seconds = time.perf_counter() - start
        if jobs == 2:
            split = {
                "jobs2_parent_cpu_s": round(_cpu_seconds(resource.RUSAGE_SELF) - parent, 3),
                "jobs2_worker_cpu_s": round(_cpu_seconds(resource.RUSAGE_CHILDREN) - workers, 3),
            }
        runs[jobs] = (stats, seconds, output_path.read_bytes())
    return runs, split


CTLOG_LINES = 300_000
#: One ``xn--`` name in this many lines (CT logs carry well under 1% IDNs).
CTLOG_IDN_EVERY = 150


def _ctlog_zone(path, seed: int = 20191017) -> int:
    """Write a CT-log-shaped domain list; returns the count of ``xn--`` lines."""
    rng = random.Random(seed)
    candidates, _references = _corpus()
    idns = [f"{to_ascii_label(label)}.com" for label in candidates if not label.isascii()]
    idn_lines = 0
    with open(path, "w", encoding="utf-8") as handle:
        for number in range(CTLOG_LINES):
            if number % CTLOG_IDN_EVERY == 0:
                handle.write(rng.choice(idns) + "\n")
                idn_lines += 1
            elif number % 50_000 == 1:
                handle.write("# ct-log batch boundary\n\n")
            else:
                host = f"h{rng.randrange(10**6)}." if rng.random() < 0.7 else ""
                handle.write(f"{host}site{rng.randrange(10**7)}.com\n")
    return idn_lines


def test_ctlog_shaped_scan(tmp_path):
    db = _database()
    finder = ShamFinder(db)
    _candidates, references = _corpus()
    reference_domains = [f"{label}.com" for label in references]
    input_path = tmp_path / "ctlog.txt"
    idn_lines = _ctlog_zone(input_path)

    runs, cpu_split = _scan_runs(finder, reference_domains, input_path, tmp_path, "ctlog")
    serial, pooled = runs[1], runs[2]
    assert pooled[2] == serial[2]
    assert serial[0].idn_count == idn_lines
    assert serial[0].detection_count > 0
    plain_share = 1 - idn_lines / serial[0].lines_done
    assert plain_share >= 0.99
    rows, metrics = [], {"lines": serial[0].lines_done, "plain_ascii_share": round(plain_share, 4),
                         "idn_lines": idn_lines, "identical_across_jobs": True, **cpu_split}
    for jobs, (stats, seconds, _sink) in runs.items():
        rate = stats.domains_seen / seconds if seconds else 0.0
        rows.append((f"jobs={jobs}", f"{rate:,.0f} domains/s", f"{stats.chunks_done}",
                     f"{stats.commits}"))
        metrics[f"jobs{jobs}_domains_per_second"] = round(rate, 1)
        metrics[f"jobs{jobs}_chunks"] = stats.chunks_done
        metrics[f"jobs{jobs}_commits"] = stats.commits
    print_table(f"CT-log-shaped scan: {serial[0].lines_done:,} lines, "
                f"{plain_share:.1%} plain ASCII, {idn_lines:,} xn-- names; jobs=2 CPU "
                f"{cpu_split['jobs2_parent_cpu_s']:.2f} s parent, "
                f"{cpu_split['jobs2_worker_cpu_s']:.2f} s workers",
                rows, headers=("workers", "throughput", "chunks", "commits"))
    record_bench("scan_ctlog", metrics)


IDN_DENSE_LINES = 200_000
#: Letters of the synthetic population IDNs: Latin plus accented Latin,
#: Cyrillic and CJK, so labels are non-ASCII and mostly match nothing.
_IDN_LETTERS = "abcdeklmnorstuüéñßабвгджкл日本語中文"


def _idn_dense_zone(path, seed: int = 20191017) -> tuple[int, int]:
    """Write an IDN-dense domain list: every other line an ``xn--`` name
    (mostly population IDNs, one in ten a homoglyph twin of a reference,
    a few undecodable), the rest plain ASCII.  Returns the counts of
    ``xn--`` lines and of undecodable ones."""
    rng = random.Random(seed)
    candidates, _references = _corpus()
    twins = [to_ascii_label(label) for label in candidates if not label.isascii()]
    idn_lines = junk = 0
    with open(path, "w", encoding="utf-8") as handle:
        for number in range(IDN_DENSE_LINES):
            if number % 2:
                host = "www." if rng.random() < 0.2 else ""
                handle.write(f"{host}site{rng.randrange(10**7)}.com\n")
                continue
            idn_lines += 1
            roll = rng.random()
            if roll < 0.1:
                label = rng.choice(twins)
            elif roll < 0.102:
                label, junk = "xn--" + rng.choice(("abc-", "w", "99999999")), junk + 1
            else:
                label = ""
                while not label.startswith("xn--"):     # an all-ASCII draw is no IDN
                    label = to_ascii_label("".join(
                        rng.choice(_IDN_LETTERS) for _ in range(rng.randint(3, 12))))
            handle.write(f"{label}.{rng.choice(('com', 'net'))}\n")
    return idn_lines, junk


def _hit_row_us_per_detection(finder, prepared, batches) -> float:
    """The bucket-hit rows' cost per detection, best of three, timed on the
    path a rendering scan chunk runs for the names it has not seen
    (``stream._process_chunk``): the join of every label the kernel did not
    prove matchless, under its name's TLD, and the sink lines rendered from
    the hit rows.  Every candidate of *batches* is joined here; a scan
    process answers a repeated name from its outcome memo, so a repeated
    name no longer reaches the join there."""
    joins, hits = [], []
    join_label = finder.join_label

    def recording_join(label, prepared, tld=None):
        joins.append((label, tld))
        return join_label(label, prepared, tld)

    with mock.patch.object(finder, "join_label", recording_join):
        for candidates in batches:
            hits += finder.hit_rows(candidates, prepared)[0]
    best = float("inf")
    for _ in range(3):
        begin = time.perf_counter()
        for label, tld in joins:
            join_label(label, prepared, tld)
        lines = _sink_lines(hits)
        best = min(best, time.perf_counter() - begin)
    assert lines
    return 1e6 * best / len(lines)


def test_idn_dense_scan(tmp_path):
    db = _database()
    finder = ShamFinder(db)
    _candidates, references = _corpus()
    reference_domains = [f"{label}.com" for label in references]
    input_path = tmp_path / "idn-dense.txt"
    idn_lines, junk = _idn_dense_zone(input_path)

    runs, cpu_split = _scan_runs(finder, reference_domains, input_path, tmp_path, "idn-dense")
    serial, pooled = runs[1], runs[2]
    assert pooled[2] == serial[2]
    assert (serial[0].idn_count, serial[0].skipped_count) == (idn_lines - junk, junk)
    assert serial[0].detection_count > 0

    # The share of candidates the domain-level kernel pass proves
    # matchless, chunk by chunk as the scan sees them, with the two layers
    # an IDN-dense chunk spends most on timed on their own: Step II per
    # chunk and the batch A-label decode per batch it runs on.
    prepared = finder.prepare_references(reference_domains)
    kernel = kernel_for(finder.matcher, prepared)
    with open(input_path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    decode_seconds = []

    def timed_decode(*args):
        start = time.perf_counter()
        decoded = decode_batch(*args)
        decode_seconds.append(time.perf_counter() - start)
        return decoded

    decode_batch = batchfold.decode_batch
    proved, step_ii_seconds, batches = 0, [], []
    with mock.patch.object(batchfold, "decode_batch", timed_decode):
        for start in range(0, len(lines), 2000):
            chunk = lines[start:start + 2000]
            begin = time.perf_counter()
            candidates, _seen = _step_ii("\n".join(chunk), True)
            step_ii_seconds.append(time.perf_counter() - begin)
            assert candidates == [line for line in chunk if is_idn_candidate(line)]
            proved += int(kernel.domain_certain_miss(candidates).sum())
            batches.append(candidates)
    proved_share = proved / idn_lines
    step_ii_us = 1e6 * sum(step_ii_seconds) / len(step_ii_seconds)
    decode_ms = 1e3 * sum(decode_seconds) / len(decode_seconds) if decode_seconds else 0.0
    hit_us = _hit_row_us_per_detection(finder, prepared, batches)

    rows, metrics = [], {"lines": serial[0].lines_done, "idn_lines": idn_lines,
                         "kernel_proved_share": round(proved_share, 4),
                         "identical_across_jobs": True,
                         "step_ii_us_per_chunk": round(step_ii_us, 1),
                         "decode_batch_ms_per_idn_batch": round(decode_ms, 3),
                         "hit_row_us_per_detection": round(hit_us, 2),
                         "idn_decode_batches": len(decode_seconds), **cpu_split}
    for jobs, (stats, seconds, _sink) in runs.items():
        rate = stats.domains_seen / seconds if seconds else 0.0
        rows.append((f"jobs={jobs}", f"{rate:,.0f} domains/s", f"{stats.chunks_done}",
                     f"{proved_share:.1%}"))
        metrics[f"jobs{jobs}_domains_per_second"] = round(rate, 1)
        metrics[f"jobs{jobs}_chunks"] = stats.chunks_done
    print_table(f"IDN-dense scan: {serial[0].lines_done:,} lines, "
                f"{idn_lines:,} xn-- names ({junk} undecodable); Step II "
                f"{step_ii_us:,.0f} us/chunk, decode_batch {decode_ms:.2f} ms/batch, "
                f"hit rows {hit_us:.1f} us/detection "
                f"over {len(decode_seconds)} batches; jobs=2 CPU "
                f"{cpu_split['jobs2_parent_cpu_s']:.2f} s parent, "
                f"{cpu_split['jobs2_worker_cpu_s']:.2f} s workers",
                rows, headers=("workers", "throughput", "chunks", "kernel-proved"))
    record_bench("scan_idn", metrics)


SCAN_DAYS = 8
#: Share of one day's lines replaced by new names on the next day.
DAY_CHURN = 0.01


def _idn_days(path, day_path, pool_path) -> list[str]:
    """Write the IDN-dense zone re-issued as :data:`SCAN_DAYS` daily
    snapshots, each the day before with :data:`DAY_CHURN` of its lines
    replaced by lines of a second IDN-dense zone.  Returns the days' texts."""
    rng = random.Random(20191017)
    _idn_dense_zone(day_path)
    _idn_dense_zone(pool_path, seed=20191018)
    day = day_path.read_text(encoding="utf-8").splitlines()
    pool = iter(pool_path.read_text(encoding="utf-8").splitlines())
    texts = []
    for number in range(SCAN_DAYS):
        if number:
            for position in rng.sample(range(len(day)), int(len(day) * DAY_CHURN)):
                day[position] = next(pool)
        texts.append("\n".join(day) + "\n")
    path.write_text("".join(texts), encoding="utf-8")
    return texts


def _worker_peak_rss(reference_domains, input_path, output_path, memo_names, conn) -> None:
    """In a fresh process: scan with two fork workers whose outcome memo
    holds at most *memo_names* names, and send the workers' peak RSS in kB."""
    finder = ShamFinder(_database())
    scanner = StreamingScanner(finder, reference_domains, chunk_size=2000, jobs=2,
                               start_method="fork")
    with mock.patch.object(stream, "_MEMO_NAMES", memo_names):
        scanner.scan_file(input_path, output_path)
    conn.send(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def test_multi_day_idn_scan(tmp_path):
    db = _database()
    finder = ShamFinder(db)
    _candidates, references = _corpus()
    reference_domains = [f"{label}.com" for label in references]
    input_path = tmp_path / "idn-days.txt"
    texts = _idn_days(input_path, tmp_path / "day.txt", tmp_path / "pool.txt")
    candidates = [name for text in texts for name in _step_ii(text, True)[0]]
    repeat_share = 1 - len(set(candidates)) / len(candidates)

    runs, cpu_split = _scan_runs(finder, reference_domains, input_path, tmp_path, "idn-days")
    serial, pooled = runs[1], runs[2]
    assert pooled[2] == serial[2]
    assert serial[0].idn_count + serial[0].skipped_count == len(candidates)
    assert serial[0].detection_count > 0

    # The workers' peak RSS, read in a spawned process whose only children
    # are the scan's two workers (this process's RUSAGE_CHILDREN holds
    # every child it waited for, and a fork worker of this process would
    # count its corpus too): once with the memo's bound as it is, once with
    # a bound of 0, where the memo keeps no name.
    context = pool_context("spawn")
    worker_kb = {}
    for memo_names in (stream._MEMO_NAMES, 0):
        ours, theirs = context.Pipe(duplex=False)
        child = context.Process(target=_worker_peak_rss, args=(
            reference_domains, input_path, tmp_path / "idn-days-rss.jsonl", memo_names, theirs))
        child.start()
        worker_kb[memo_names] = ours.recv()
        child.join()
        assert child.exitcode == 0
    worker_mb, empty_memo_mb = (worker_kb[stream._MEMO_NAMES] / 1024, worker_kb[0] / 1024)

    metrics = {"days": SCAN_DAYS, "lines": serial[0].lines_done, "candidates": len(candidates),
               "distinct_candidates": len(set(candidates)),
               "repeat_share": round(repeat_share, 4), "identical_across_jobs": True,
               "memo_bound_names": stream._MEMO_NAMES,
               "jobs2_worker_maxrss_mb": round(worker_mb, 1),
               "jobs2_worker_maxrss_mb_empty_memo": round(empty_memo_mb, 1), **cpu_split}
    rows = []
    for jobs, (stats, seconds, _sink) in runs.items():
        rate = stats.domains_seen / seconds if seconds else 0.0
        rows.append((f"jobs={jobs}", f"{rate:,.0f} domains/s", f"{stats.chunks_done}"))
        metrics[f"jobs{jobs}_domains_per_second"] = round(rate, 1)
    print_table(f"IDN-dense zone over {SCAN_DAYS} days ({DAY_CHURN:.0%} churn): "
                f"{serial[0].lines_done:,} lines, {len(candidates):,} candidates, "
                f"{repeat_share:.1%} repeats; jobs=2 worker peak RSS "
                f"{worker_mb:.1f} MB ({empty_memo_mb:.1f} MB with an empty memo)",
                rows, headers=("workers", "throughput", "chunks"))
    record_bench("scan_days", metrics)
