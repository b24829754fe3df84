"""Per-layer timings of the traced run.

Each function below times calls into one layer's public API on the
workload's own inputs, from the benchmark's side; nothing inside the
program is instrumented.  Timed calls are repeated :data:`REPEATS` times
and the median is kept.  The serving-layer counters come from ``GET
/stats`` deltas of the traced server run (see ``serve.py``).
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path

import numpy as np

REPEATS = 3


def _median_seconds(call, repeats: int = REPEATS) -> float:
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        call()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def _batches(items: list, size: int) -> list[list]:
    return [items[i:i + size] for i in range(0, len(items), size)]


def serving_layers(finder, index, sample: list[str], mean_batch: float,
                   references: list[str]) -> dict[str, float]:
    """protocol, batchfold, service, idn and algorithm layers."""
    from repro.detection.batchfold import kernel_for
    from repro.detection.service import OnlineDetector
    from repro.detection.shamfinder import ShamFinder
    from repro.idn.domain import DomainName
    from repro.idn.idna_codec import IDNAError, fold_label
    from repro.serving.protocol import encode_reply, parse_line, verdict_reply

    metrics: dict[str, float] = {}
    count = len(sample)
    batches = _batches(sample, max(1, round(mean_batch)))

    lines = [domain + "\n" for domain in sample]
    metrics["protocol.parse_line_us"] = _median_seconds(
        lambda: [parse_line(line) for line in lines]) / count * 1e6
    verdicts = OnlineDetector(finder, index, cache_size=0).query_many(sample, index=index)
    fingerprint = index.fingerprint
    metrics["protocol.reply_encode_us"] = _median_seconds(
        lambda: [encode_reply(verdict_reply(v.as_dict(), fingerprint)) for v in verdicts]
    ) / count * 1e6

    kernel = kernel_for(finder.matcher, index.prepared)
    table = finder.invisible_table
    metrics["batchfold.certain_miss_us_per_q"] = _median_seconds(
        lambda: [kernel.domain_certain_miss(b, invisible_table=table) for b in batches]
    ) / count * 1e6
    miss = np.concatenate([kernel.domain_certain_miss(b, invisible_table=table)
                           for b in batches])
    metrics["batchfold.miss_share"] = float(miss.mean())
    cold = ShamFinder(finder.database, invisible_table=table,
                      source_config=finder.source_config)
    cold_prepared = cold.prepare_references(references)
    started = time.perf_counter()
    kernel_for(cold.matcher, cold_prepared)
    metrics["batchfold.kernel_for_s"] = time.perf_counter() - started

    def serve_batches() -> None:
        detector = OnlineDetector(finder, index)
        for batch in batches:
            detector.query_many(batch, index=index)

    metrics["service.query_many_us_per_q"] = _median_seconds(serve_batches) / count * 1e6
    metrics["service.scalar_share"] = 1.0 - metrics["batchfold.miss_share"]

    def parse_all() -> list:
        labels = []
        for domain in sample:
            try:
                labels.append(DomainName(domain).registrable_unicode)
            except (IDNAError, ValueError):
                pass
        return labels

    metrics["idn.parse_us"] = _median_seconds(parse_all) / count * 1e6

    scalar_labels = []
    for domain, certain_miss in zip(sample, miss.tolist()):
        if certain_miss:
            continue
        try:
            scalar_labels.append(DomainName(domain).registrable_unicode)
        except (IDNAError, ValueError):
            pass
    skeleton_index = index.prepared.index
    matcher = finder.matcher
    if scalar_labels:
        metrics["algorithm.match_us"] = _median_seconds(
            lambda: [matcher.match_with_skeleton_index(label, skeleton_index)
                     for label in scalar_labels]) / len(scalar_labels) * 1e6
    else:
        metrics["algorithm.match_us"] = 0.0
    bucket_hits = confirmed = 0
    for label in scalar_labels:
        try:
            folded = fold_label(label)
        except IDNAError:
            continue
        if skeleton_index.candidates_for(folded):
            bucket_hits += 1
            confirmed += bool(matcher.match_with_skeleton_index(label, skeleton_index))
    metrics["algorithm.confirmed_share"] = confirmed / bucket_hits if bucket_hits else 0.0
    return metrics


def index_layer(finder, references: list[str], artifact: Path) -> dict[str, float]:
    from repro.detection.index import ReferenceIndexStore, build_reference_index

    store = ReferenceIndexStore(artifact.parent)
    return {
        "index.build_s": _median_seconds(lambda: build_reference_index(finder, references)),
        "index.attach_ms": _median_seconds(
            lambda: store.load_path(artifact, finder), repeats=5) * 1e3,
        "index.artifact_mb": artifact.stat().st_size / 2**20,
    }


def simchar_layer() -> dict[str, float]:
    """The three SimChar build steps, cold, with the default font and jobs."""
    from repro.homoglyph.simchar import SimCharBuilder

    builder = SimCharBuilder()
    repertoire = builder.repertoire()
    started = time.perf_counter()
    glyphs = builder.step_render(repertoire)
    rendered = time.perf_counter()
    raw_pairs = builder.step_pairwise(glyphs)
    paired = time.perf_counter()
    kept, _sparse = builder.step_filter_sparse(raw_pairs, glyphs)
    filtered = time.perf_counter()
    return {
        "simchar.render_s": rendered - started,
        "simchar.pairwise_s": paired - rendered,
        "simchar.filter_s": filtered - paired,
        "simchar.pairs": float(len(kept)),
    }


def zone_layers(finder, references: list[str], prepared, day1: list[str],
                snapshots: list[tuple[str, Path]], state_dir: Path) -> dict[str, float]:
    """stream, zonediff and longitudinal layers over the run's snapshots."""
    from repro.detection.stream import StreamingScanner, is_idn_candidate
    from repro.dns.zonediff import diff_delegations, read_delegations
    from repro.measurement.longitudinal import LongitudinalTracker

    marks = [time.perf_counter()]
    scanner = StreamingScanner(finder, references, chunk_size=2000, jobs=1,
                               prepared=prepared)
    _report, stats = scanner.scan_to_report(day1, progress=lambda _s: marks.append(
        time.perf_counter()))
    metrics = {
        "stream.chunk_ms": statistics.median(np.diff(marks).tolist()) * 1e3,
        "stream.idn_share": stats.idn_count / max(1, stats.domains_seen),
        "stream.detections": float(stats.detection_count),
    }

    diff_seconds, added = [], []
    previous = read_delegations(snapshots[0][1], domain_filter=is_idn_candidate)
    for _date, path in snapshots[1:]:
        started = time.perf_counter()
        current = read_delegations(path, domain_filter=is_idn_candidate)
        delta = diff_delegations(previous, current)
        diff_seconds.append(time.perf_counter() - started)
        added.append(len(delta.added))
        previous = current
    metrics["zonediff.diff_s"] = statistics.median(diff_seconds)
    metrics["zonediff.added"] = statistics.mean(added)

    days = [time.perf_counter()]
    tracker = LongitudinalTracker(finder, references, state_dir, prepared=prepared)
    result = tracker.track(snapshots, progress=lambda _r: days.append(time.perf_counter()))
    metrics["track.day_s"] = statistics.median(np.diff(days[1:]).tolist())
    metrics["track.domains_scanned"] = float(result.stats.domains_scanned)
    return metrics
