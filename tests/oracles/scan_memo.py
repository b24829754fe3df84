"""Reference scan without the outcome memo: every chunk pays Step III for
every candidate.

``repro.detection.stream`` keeps, in each process that renders chunks, the
outcome of every candidate it has matched, and sends only the names it
has not seen to Step III.  This module is the scan that replaced: each
chunk of raw lines goes through the list-of-lines Step II of
:mod:`oracles.stream_chunks`, all its candidates through
``ShamFinder.hit_rows`` as one batch, and its sink lines come from
``stream._sink_lines``.  A differential test pins the two to the same sink
bytes and counters.
"""

from __future__ import annotations

from typing import Sequence

from oracles.stream_chunks import chunked, step_ii

from repro.detection.stream import _sink_lines

__all__ = ["scan"]


def scan(finder, prepared, lines: Sequence[str], chunk_size: int,
         idn_only: bool = True) -> tuple[str, dict]:
    """``(sink text, counters)`` of a scan of *lines* in chunks of
    *chunk_size* lines; the counters are ``ScanStats``' less its timings,
    commits and resume fields."""
    text: list[str] = []
    counts = dict.fromkeys(("domains_seen", "idn_count", "skipped_count", "detection_count",
                            "chunks_done", "lines_done"), 0)
    for chunk in chunked(lines, chunk_size):
        candidates, domains_seen, raw_lines = step_ii(chunk, idn_only)
        hits, idn_count, skipped = finder.hit_rows(candidates, prepared)
        rendered = _sink_lines(hits)
        text += rendered
        counts["domains_seen"] += domains_seen
        counts["idn_count"] += idn_count
        counts["skipped_count"] += len(skipped)
        counts["detection_count"] += len(rendered)
        counts["chunks_done"] += 1
        counts["lines_done"] += raw_lines
    return "".join(text), counts
