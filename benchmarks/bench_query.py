"""Bench — online query service vs. batch matching, and warm-index cold start.

The paper frames ShamFinder as a framework others can query
("IdentifyHomographs").  This bench exercises the serving layer on a
synthetic 100k-domain reference corpus (a realistic brand-protection mix:
three quarters ASCII labels, one quarter internationalized labels with
accented characters):

* **cold start** — a full ``prepare_references`` build (per-reference IDNA
  parse + case fold + skeletonisation) vs. attaching the persisted
  ``ReferenceIndex`` artifact.  The warm attach must win by at least 10x.
  The first ``query_many`` batch after a fresh attach is timed on its own
  (``first_query_ms``): it pays the key maps and the batch kernel the
  attach leaves for first use.
* **verdict identity** — ``OnlineDetector.query`` must return byte-identical
  matches (reference, substitutions and all) to
  ``HomographMatcher.find_homographs`` over the same references, and to the
  batch ``detect_prepared`` path.
* **query latency** — µs per query through the LRU cache and without it,
  with a p50/p99 distribution over the scalar path.
* **batch kernel** — ``query_many`` with the vectorized codepoint-fold
  kernel (``detection/batchfold.py``) must beat a scalar ``query`` loop by
  at least 10x on a mostly-miss corpus at 100k references, with
  byte-identical verdicts.

Headline numbers land in ``BENCH_query.json`` (see ``bench_util.record_bench``)
so CI tracks the trajectory across PRs.
"""

from __future__ import annotations

import random
import statistics
import time

from bench_util import print_table, record_bench

from repro.detection.algorithm import HomographMatcher, fold_label
from repro.detection.index import ReferenceIndexStore, cached_reference_index
from repro.detection.service import OnlineDetector
from repro.detection.shamfinder import ShamFinder
from repro.homoglyph.database import SOURCE_SIMCHAR, SOURCE_UC, HomoglyphDatabase
from repro.idn.idna_codec import to_ascii_label

REFERENCE_COUNT = 100_000
CANDIDATE_COUNT = 5_000
BATCH_QUERY_COUNT = 20_000
BATCH_HIT_SHARE = 0.002          # mostly-miss, like a live CT-log feed (the
                                 # paper finds ~8.5k homographs in 134M .com
                                 # domains); hits exist to prove identity
IDN_REFERENCE_SHARE = 4          # every 4th reference label carries an accent
MIN_COLD_START_SPEEDUP = 10.0
FIRST_BATCH = 256                # serve's default max_batch
MIN_BATCH_SPEEDUP = 10.0

#: Latin letters with Cyrillic/Greek lookalikes, chained so the union-find
#: closure is coarser than the database and the exact re-check has work to do.
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

_ALPHABET = "aoepcyxisjbdgklmnrtu"
_ACCENTS = "áàâäéèêëíìîïóòôöúùûü"


def _database() -> HomoglyphDatabase:
    db = HomoglyphDatabase(name="bench")
    for latin, lookalikes in _CONFUSABLES.items():
        for twin in lookalikes:
            db.add_pair(latin, twin, source=SOURCE_UC)
    db.add_pair("а", "ӓ", source=SOURCE_SIMCHAR)
    db.add_pair("о", "ӧ", source=SOURCE_SIMCHAR)
    return db


def _reference_corpus(seed: int = 20190917) -> list[str]:
    """Deterministic 100k reference domains, one quarter internationalized."""
    rng = random.Random(seed)
    refs: list[str] = []
    seen: set[str] = set()
    while len(refs) < REFERENCE_COUNT:
        length = rng.randint(5, 12)
        label = "".join(rng.choice(_ALPHABET) for _ in range(length))
        if len(refs) % IDN_REFERENCE_SHARE == 0:
            position = rng.randrange(length)
            label = label[:position] + rng.choice(_ACCENTS) + label[position + 1:]
        if label in seen:
            continue
        seen.add(label)
        refs.append(label + ".com")
    return refs


def _candidate_labels(references: list[str], seed: int = 7) -> list[str]:
    """Candidate labels: ~30% homoglyph mutations of ASCII references, rest noise."""
    rng = random.Random(seed)
    ascii_refs = [r[:-4] for r in references if all(ord(ch) < 0x80 for ch in r)]
    candidates: list[str] = []
    for _ in range(CANDIDATE_COUNT):
        if rng.random() < 0.3:
            label = list(rng.choice(ascii_refs))
            for _ in range(rng.randint(1, 2)):
                position = rng.randrange(len(label))
                twins = _CONFUSABLES.get(label[position])
                if twins:
                    label[position] = rng.choice(twins)
            candidates.append("".join(label))
        else:
            candidates.append(
                "".join(rng.choice(_ALPHABET) for _ in range(rng.randint(5, 12)))
            )
    return candidates


def test_warm_index_cold_start_and_verdict_identity(tmp_path):
    db = _database()
    references = _reference_corpus()

    # -- cold start: full prepare_references build (best of 2) ---------------
    cold_seconds = float("inf")
    for _ in range(2):
        finder_cold = ShamFinder(db)
        start = time.perf_counter()
        prepared = finder_cold.prepare_references(references)
        cold_seconds = min(cold_seconds, time.perf_counter() - start)

    # -- warm start: load the persisted artifact (best of 3) -----------------
    store = ReferenceIndexStore(tmp_path)
    built, hit = cached_reference_index(ShamFinder(db), references, store)
    assert not hit
    warm_seconds = float("inf")
    for _ in range(3):
        finder_warm = ShamFinder(db)           # fresh process stand-in
        start = time.perf_counter()
        index, hit = cached_reference_index(finder_warm, references, store)
        warm_seconds = min(warm_seconds, time.perf_counter() - start)
        assert hit and index.from_cache
    speedup = cold_seconds / warm_seconds

    # -- identity: online verdicts == find_homographs == detect_prepared ----
    candidates = _candidate_labels(references)
    matcher = HomographMatcher(db)
    batch_matches = matcher.find_homographs(candidates, [r[:-4] for r in references])

    detector = OnlineDetector(finder_warm, index)
    domains = [to_ascii_label(label) + ".com" for label in candidates]

    uncached_start = time.perf_counter()
    verdicts = detector.query_many(domains)
    uncached_us = (time.perf_counter() - uncached_start) / len(domains) * 1e6

    cached_start = time.perf_counter()
    verdicts_cached = detector.query_many(domains)
    cached_us = (time.perf_counter() - cached_start) / len(domains) * 1e6

    online = [
        (fold_label(candidate), detection.reference[:-4], detection.substitutions)
        for candidate, verdict in zip(candidates, verdicts)
        for detection in verdict.detections
    ]
    batch = [(m.candidate, m.reference, m.substitutions) for m in batch_matches]
    assert online == batch                     # byte-identical matches
    assert [v.as_dict() for v in verdicts_cached] == [v.as_dict() for v in verdicts]

    prepared_detections, _count, _skipped = finder_cold.detect_prepared(domains, prepared)
    loaded_detections, _count, _skipped = finder_warm.detect_prepared(domains, index.prepared)
    online_detections = [d for v in verdicts for d in v.detections]
    assert [d.as_dict() for d in online_detections] == [d.as_dict() for d in prepared_detections]
    assert [d.as_dict() for d in loaded_detections] == [d.as_dict() for d in prepared_detections]

    # -- first batch after a warm attach: the key maps and the batch kernel
    # are built on first use, so their cost lands here, not in the attach.
    first_finder = ShamFinder(db)
    first_index, hit = cached_reference_index(first_finder, references, store)
    assert hit
    first_detector = OnlineDetector(first_finder, first_index)
    start = time.perf_counter()
    first_verdicts = first_detector.query_many(domains[:FIRST_BATCH])
    first_query_ms = (time.perf_counter() - start) * 1e3
    assert [v.as_dict() for v in first_verdicts] == [v.as_dict() for v in verdicts[:FIRST_BATCH]]

    artifact_bytes = store.path_for(built.key).stat().st_size
    print_table(
        f"Online query service: {REFERENCE_COUNT:,} references, "
        f"{len(domains):,} queries, {len(online_detections)} detections",
        [
            ("cold start (prepare_references)", f"{cold_seconds:.3f} s", "1.0x"),
            ("warm start (index artifact attach)", f"{warm_seconds:.3f} s", f"{speedup:.1f}x"),
            (f"first query_many ({FIRST_BATCH}) after attach", f"{first_query_ms:.1f} ms", ""),
            ("artifact size", f"{artifact_bytes / 1e6:.1f} MB", ""),
            ("query latency (uncached)", f"{uncached_us:.0f} µs", ""),
            ("query latency (LRU cached)", f"{cached_us:.0f} µs", ""),
        ],
        headers=("path", "time", "speedup"),
    )
    record_bench("query", {
        "reference_count": REFERENCE_COUNT,
        "query_count": len(domains),
        "detections": len(online_detections),
        "cold_start_seconds": round(cold_seconds, 4),
        "warm_start_seconds": round(warm_seconds, 4),
        "cold_start_speedup": round(speedup, 2),
        "artifact_bytes": artifact_bytes,
        "query_us_uncached": round(uncached_us, 1),
        "query_us_cached": round(cached_us, 1),
        "first_query_ms": round(first_query_ms, 2),
        "verdicts_identical_to_batch": True,
    })

    assert speedup >= MIN_COLD_START_SPEEDUP


_SUBDOMAINS = ["www", "mail", "api", "cdn", "shop", "m", "login", "static"]


def _batch_query_corpus(references: list[str], seed: int = 11) -> list[str]:
    """Mostly-miss query corpus shaped like a live certificate-transparency
    feed: mostly subdomained ASCII domains that match nothing, a ~0.2%
    sprinkle of homoglyph mutations (the paper finds ~8.5k homographs among
    134M ``.com`` domains — real feeds are even more miss-heavy).

    Noise labels are longer (8-14 chars) than the reference labels' 5-12 so
    accidental bucket collisions stay negligible; mutated labels punycode to
    ``xn--`` and deliberately exercise the scalar fallback.
    """
    rng = random.Random(seed)
    ascii_refs = [r[:-4] for r in references if all(ord(ch) < 0x80 for ch in r)]
    corpus: list[str] = []
    for _ in range(BATCH_QUERY_COUNT):
        if rng.random() < BATCH_HIT_SHARE:
            label = list(rng.choice(ascii_refs))
            position = rng.randrange(len(label))
            twins = _CONFUSABLES.get(label[position])
            if twins:
                label[position] = rng.choice(twins)
            corpus.append(to_ascii_label("".join(label)) + ".com")
        else:
            label = "".join(rng.choice(_ALPHABET) for _ in range(rng.randint(8, 14)))
            if rng.random() < 0.7:
                corpus.append(f"{rng.choice(_SUBDOMAINS)}.{label}.com")
            else:
                corpus.append(label + ".com")
    return corpus


def test_batch_kernel_speedup_and_identity(tmp_path):
    """The vectorized kernel must beat the scalar loop ≥10x, byte-identically."""
    db = _database()
    references = _reference_corpus()
    finder = ShamFinder(db)
    store = ReferenceIndexStore(tmp_path)
    detector_scalar = OnlineDetector.from_references(finder, references, store=store)
    detector_batch = OnlineDetector.from_references(finder, references, store=store)

    corpus = _batch_query_corpus(references)

    # Warm both paths: the batch side builds the fold table + kernel once
    # (a one-time cost amortised over the process lifetime, exactly like the
    # index build the cold-start section measures); the scalar side warms
    # interned caches.  64 domains << the 20k timed corpus.
    detector_batch.query_many(corpus[:64])
    for domain in corpus[:64]:
        detector_scalar.query(domain)

    # Best-of-N on both sides: a cyclic-GC pass over the 100k-reference
    # object graph can land anywhere and costs tens of ms, so single-shot
    # timings of either path are noisy.
    scalar_us: list[float] = []
    scalar_verdicts = []
    scalar_seconds = float("inf")
    for attempt in range(2):
        run_us: list[float] = []
        run_verdicts = []
        run_start = time.perf_counter()
        for domain in corpus:
            started = time.perf_counter()
            run_verdicts.append(detector_scalar.query(domain))
            run_us.append((time.perf_counter() - started) * 1e6)
        run_seconds = time.perf_counter() - run_start
        if run_seconds < scalar_seconds:
            scalar_seconds, scalar_us, scalar_verdicts = run_seconds, run_us, run_verdicts

    batch_seconds = float("inf")
    batch_verdicts = []
    for attempt in range(3):
        run_start = time.perf_counter()
        run_verdicts = detector_batch.query_many(corpus)
        run_seconds = time.perf_counter() - run_start
        if run_seconds < batch_seconds:
            batch_seconds, batch_verdicts = run_seconds, run_verdicts

    # Byte-identical verdicts: the kernel only ever proves *misses*; every
    # possible hit (and anything undecidable) re-runs exact Algorithm 1.
    assert [v.as_dict() for v in batch_verdicts] == [v.as_dict() for v in scalar_verdicts]
    detections = sum(len(v.detections) for v in batch_verdicts)
    assert detections > 0                      # the hit share actually hit

    batch_speedup = scalar_seconds / batch_seconds
    scalar_p50 = statistics.median(scalar_us)
    scalar_p99 = statistics.quantiles(scalar_us, n=100)[98]
    batch_us = batch_seconds / len(corpus) * 1e6

    print_table(
        f"Batch query kernel: {REFERENCE_COUNT:,} references, "
        f"{len(corpus):,} queries, {detections} detections",
        [
            ("scalar query loop", f"{scalar_seconds:.3f} s", "1.0x"),
            ("batch kernel (query_many)", f"{batch_seconds:.3f} s", f"{batch_speedup:.1f}x"),
            ("scalar per-query p50", f"{scalar_p50:.1f} µs", ""),
            ("scalar per-query p99", f"{scalar_p99:.1f} µs", ""),
            ("batch per-query (amortised)", f"{batch_us:.2f} µs", ""),
        ],
        headers=("path", "time", "speedup"),
    )
    record_bench("query_batch", {
        "reference_count": REFERENCE_COUNT,
        "query_count": len(corpus),
        "detections": detections,
        "scalar_seconds": round(scalar_seconds, 4),
        "batch_seconds": round(batch_seconds, 4),
        "batch_speedup": round(batch_speedup, 2),
        "scalar_query_us_p50": round(scalar_p50, 1),
        "scalar_query_us_p99": round(scalar_p99, 1),
        "batch_us_per_query": round(batch_us, 2),
        "verdicts_identical_to_scalar": True,
    })

    assert batch_speedup >= MIN_BATCH_SPEEDUP
