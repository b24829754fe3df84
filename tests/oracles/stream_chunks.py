"""Reference scan chunking: lists of lines, Step II one line at a time.

``repro.detection.stream`` cuts its input into ``(text, raw_lines)``
chunks and runs Step II over each chunk's text with whole-string
operations.  This module is the list-of-lines pipeline that replaced:
:func:`chunked` groups input lines into lists and :func:`process_chunk`
strips, filters and tests each line on its own.  A differential test pins
the two to the same candidates, counts and sink bytes.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from repro.detection.stream import is_idn_candidate

__all__ = ["chunked", "step_ii", "process_chunk"]


def chunked(lines: Iterable[str], chunk_size: int) -> Iterator[list[str]]:
    """*lines* grouped into lists of *chunk_size* (the last may be shorter)."""
    chunk: list[str] = []
    for line in lines:
        chunk.append(line)
        if len(chunk) >= chunk_size:
            yield chunk
            chunk = []
    if chunk:
        yield chunk


def step_ii(lines: Sequence[str], idn_only: bool) -> tuple[list[str], int, int]:
    """``(candidates, domains_seen, raw_lines)`` of one chunk of raw lines."""
    domains = []
    for raw in lines:
        text = raw.strip()
        if not text or text.startswith("#"):
            continue
        domains.append(text)
    candidates = [d for d in domains if is_idn_candidate(d)] if idn_only else domains
    return candidates, len(domains), len(lines)


def process_chunk(finder, prepared, lines: Sequence[str], idn_only: bool):
    """Steps II + III over one chunk of raw input lines, as the scan worker
    returns them: ``(detections, raw_lines, domains_seen, idn_count, skipped)``."""
    candidates, domains_seen, raw_lines = step_ii(lines, idn_only)
    detections, idn_count, skipped = finder.detect_prepared(candidates, prepared)
    return detections, raw_lines, domains_seen, idn_count, skipped
