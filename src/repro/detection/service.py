"""Online homograph query service (the paper's "IdentifyHomographs" API).

Batch scans answer "which of these millions of domains are homographs?";
a serving layer answers "is *this* domain a homograph?" — many times, from
many threads, in microseconds.  :class:`OnlineDetector` layers that on the
skeleton hash-join:

* the reference state is a load-once :class:`~.index.ReferenceIndex`
  (the ``refindex`` artifact attached in place: built in-process and held
  in memory, or ``mmap``-ed from a :class:`~.index.ReferenceIndexStore`
  file), shared read-only by every query;
* per-label match results are memoised in a small thread-safe LRU keyed by
  the *folded* registrable label, so repeated queries for the same label —
  the common case for a service fronting live traffic — skip the join
  entirely; the cache is invalidated when the index fingerprint changes;
* verdicts are exactly what the batch path produces: the detection list is
  byte-identical to :meth:`ShamFinder.detect_prepared` over the same
  references (``benchmarks/bench_query.py`` asserts this against
  :meth:`HomographMatcher.find_homographs`), with the optional Section 6.4
  revert target inlined.

The network layer on top of this class lives in :mod:`repro.serving`; the
hooks it relies on are :meth:`OnlineDetector.reload_index` (hot index
swap without dropping in-flight queries) and :meth:`~OnlineDetector.drain`
(graceful shutdown barrier).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..idn.domain import DomainName, unicode_from_decoded
from ..idn.idna_codec import fold_label
from .index import (
    ReferenceIndex,
    ReferenceIndexStore,
    cached_reference_index,
)
from .report import HomographDetection
from .shamfinder import LabelMatches, ShamFinder

__all__ = ["QueryVerdict", "OnlineDetector"]


@dataclass(frozen=True)
class QueryVerdict:
    """The answer to one ``query(domain)`` call."""

    domain: str                     # input as given
    ascii: str | None = None        # canonical ASCII form (None when unparsable)
    unicode: str | None = None      # Unicode form
    is_idn: bool = False            # registrable label is an A-label
    detections: tuple[HomographDetection, ...] = ()
    revert: str | None = None       # Section 6.4 recovered original (optional)
    error: str | None = None        # parse failure, when the input was junk

    @property
    def is_homograph(self) -> bool:
        """True when the domain imitates at least one reference domain."""
        return bool(self.detections)

    def as_dict(self) -> dict:
        """JSON-friendly representation (one ``serve`` output line)."""
        payload: dict = {
            "domain": self.domain,
            "is_homograph": self.is_homograph,
        }
        if self.error is not None:
            payload["error"] = self.error
            return payload
        payload["ascii"] = self.ascii
        payload["unicode"] = self.unicode
        payload["is_idn"] = self.is_idn
        payload["detections"] = [d.as_dict() for d in self.detections]
        if self.revert is not None:
            payload["revert"] = self.revert
        return payload


def _fast_miss_verdict(text: str) -> QueryVerdict:
    """Exactly what :meth:`OnlineDetector.query` returns for a non-IDN
    fast miss: canonical forms equal the input, no detections, no revert.

    Built by writing the three non-default fields straight into the
    instance dict — the dataclass machinery (seven ``object.__setattr__``
    calls through the frozen guard) costs ~1.2µs per verdict, which at
    batch-kernel throughput would dominate the whole pipeline.  Every
    dataclass protocol still works: the remaining fields resolve to the
    class-level defaults, so equality, ``as_dict`` and pickling are
    indistinguishable from a normally-constructed verdict.
    """
    verdict = QueryVerdict.__new__(QueryVerdict)
    state = verdict.__dict__
    state["domain"] = text
    state["ascii"] = text
    state["unicode"] = text
    return verdict


@dataclass
class _ServiceStats:
    """Shared counters; every field below is guarded by :attr:`lock`.

    The ``_GUARDED_BY`` map is the machine-readable form of that
    sentence: ``repro-lint``'s lock-discipline rule flags any
    ``<stats>.queries``-style access outside a ``with <stats>.lock:``
    block (see ``docs/LINT.md#lock-discipline``).
    """

    queries: int = 0
    cache_hits: int = 0
    errors: int = 0
    reloads: int = 0
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    _GUARDED_BY = {
        "queries": "lock", "cache_hits": "lock",
        "errors": "lock", "reloads": "lock",
    }


class OnlineDetector:
    """Load-once, query-many homograph detector, safe for concurrent readers.

    The underlying index is immutable after construction; the only mutable
    state is the LRU cache, the counters, and the in-flight gauge — all
    lock-protected — so one detector instance can back a thread pool (or
    the :mod:`repro.serving` asyncio frontend) serving live traffic.

    Hot reload: :meth:`reload_index` swaps the index atomically.  A query
    pins whichever :class:`~.index.ReferenceIndex` object it started with,
    so every verdict is computed against exactly one index generation —
    never a torn mix — and the LRU is cleared when the fingerprint
    changes.  :meth:`drain` waits for in-flight queries, which is what a
    graceful server shutdown sequences on.
    """

    def __init__(
        self,
        finder: ShamFinder,
        index: ReferenceIndex,
        *,
        cache_size: int = 4096,
        include_revert: bool = False,
    ) -> None:
        if cache_size < 0:
            raise ValueError("cache_size must be >= 0")
        self.finder = finder
        self.index = index
        self.cache_size = cache_size
        self.include_revert = include_revert
        # The `# guarded-by:` annotations are enforced by repro-lint's
        # lock-discipline rule: accessing an annotated attribute outside a
        # `with <lock>:` block is a lint error (docs/LINT.md#lock-discipline).
        self._cache: OrderedDict[str, LabelMatches] = OrderedDict()  # guarded-by: _cache_lock
        self._cache_lock = threading.Lock()
        self._stats = _ServiceStats()
        self._inflight = 0  # guarded-by: _idle
        self._idle = threading.Condition()

    # -- construction -------------------------------------------------------

    @classmethod
    def from_references(
        cls,
        finder: ShamFinder,
        reference: Sequence[str | DomainName],
        *,
        store: ReferenceIndexStore | None = None,
        force_rebuild: bool = False,
        cache_size: int = 4096,
        include_revert: bool = False,
    ) -> "OnlineDetector":
        """Build a detector, going through the artifact *store* when given.

        With a store, a warm start attaches the stored index in place
        instead of re-running ``prepare_references`` — the cold-start path
        ``benchmarks/bench_query.py`` measures.
        """
        index, _hit = cached_reference_index(finder, reference, store, force=force_rebuild)
        return cls(finder, index, cache_size=cache_size, include_revert=include_revert)

    # -- queries ------------------------------------------------------------

    def query(
        self,
        domain: str | DomainName,
        *,
        index: ReferenceIndex | None = None,
    ) -> QueryVerdict:
        """Answer "is this one domain a homograph?" — a batch of one."""
        return self.query_many([domain], index=index)[0]

    def query_many(
        self,
        domains: Iterable[str | DomainName],
        *,
        index: ReferenceIndex | None = None,
    ) -> list[QueryVerdict]:
        """One verdict per domain, in input order.

        *index* pins the batch to a specific index generation (the serving
        layer uses this to keep a whole batch on one fingerprint across a
        concurrent :meth:`reload_index`); by default the current index is
        snapshotted once at entry.

        The batch runs through :meth:`ShamFinder.join_batch` with the
        LRU-backed :meth:`_matches_for` as the join: a fast miss gets its
        (empty) verdict built directly, and only labels the kernel passes
        cannot rule out pay the join.  The kernel's fold-table sidecar lives
        in the index's own directory when it has one.  The whole batch counts
        as in flight until it returns.
        """
        snapshot = index if index is not None else self.index
        items = domains if isinstance(domains, list) else list(domains)
        with self._idle:
            self._inflight += len(items)
        try:
            batch = self.finder.join_batch(
                items, snapshot.prepared,
                lambda label, _name: self._matches_for(label, snapshot),
                cache_dir=snapshot.prepared.index_dir,
            )
            verdicts = []
            errors = 0
            joined = iter(batch.joined)
            # str() on a str returns it untouched, on a DomainName its ASCII form.
            for position, (text, fast) in enumerate(zip(map(str, items), batch.fast.tolist())):
                if fast:
                    label = batch.decoded.get(position)
                    verdicts.append(_fast_miss_verdict(text) if label is None
                                    else self._decoded_verdict(text, label))
                    continue
                name, label, matches, error = next(joined)
                if error is not None:
                    errors += 1
                    verdicts.append(QueryVerdict(domain=text, error=str(error)))
                    continue
                if not isinstance(name, DomainName):
                    verdicts.append(self._decoded_verdict(text, label, matches))
                    continue
                is_idn = name.has_idn_registrable_label
                verdicts.append(QueryVerdict(
                    domain=text, ascii=name.ascii, unicode=name.unicode, is_idn=is_idn,
                    detections=tuple(self.finder.detections_for(name.ascii, name.unicode,
                                                                matches)),
                    revert=self._revert(label, name.tld) if is_idn else None,
                ))
            with self._stats.lock:
                self._stats.queries += len(items)
                self._stats.errors += errors
            return verdicts
        finally:
            with self._idle:
                self._inflight -= len(items)
                if self._inflight == 0:
                    self._idle.notify_all()

    def _revert(self, label: str, tld: str) -> str | None:
        """The Section 6.4 revert target of an IDN's registrable *label*,
        when the detector inlines one."""
        if not self.include_revert:
            return None
        original = self.finder.reverter.best_original(label)
        if original is None or original == label:
            return None
        return f"{original}.{tld}"

    def _decoded_verdict(self, text: str, label: str, matches: LabelMatches = ()) -> QueryVerdict:
        """The verdict of an IDN whose registrable A-label the kernel
        decoded, with its label's *matches* (none for a fast miss): *text*
        is its ASCII form and *label* the U-label, which replaces the
        registrable A-label in the Unicode form."""
        unicode = unicode_from_decoded(text, label)
        return QueryVerdict(
            domain=text, ascii=text, unicode=unicode, is_idn=True,
            detections=tuple(self.finder.detections_for(text, unicode, matches)),
            revert=self._revert(label, text.rpartition(".")[2]),
        )

    # -- the per-label join cache -------------------------------------------

    def _matches_for(self, label: str, index: ReferenceIndex) -> LabelMatches:
        """Skeleton-join outcome for one registrable label, memoised.

        Keyed by the *folded* label: two labels differing only in case fold
        to the same key and — because the matcher folds before joining —
        produce identical match lists, so sharing the entry is sound.  The
        LRU only serves and admits entries for the *current* index: a query
        pinned to a retired generation bypasses it entirely.
        """
        folded = fold_label(label)
        current = index.fingerprint == self.index.fingerprint
        if self.cache_size and current:
            with self._cache_lock:
                cached = self._cache.get(folded)
                if cached is not None:
                    self._cache.move_to_end(folded)
            if cached is not None:
                # Counter taken outside the cache lock: stats() grabs the two
                # locks in the opposite order, so nesting them would deadlock.
                with self._stats.lock:
                    self._stats.cache_hits += 1
                return cached
        matches = self.finder.join_label(label, index.prepared)
        if self.cache_size and current:
            with self._cache_lock:
                # A reload_index() may have swapped the index (and cleared the
                # cache) while this join ran; inserting would then re-seed the
                # cache with a retired index's results, so drop the entry.
                if self.index.fingerprint == index.fingerprint:
                    self._cache[folded] = matches
                    self._cache.move_to_end(folded)
                    while len(self._cache) > self.cache_size:
                        self._cache.popitem(last=False)
        return matches

    # -- index lifecycle ----------------------------------------------------

    def reload_index(self, index: ReferenceIndex) -> bool:
        """Swap in a new index; clears the result cache when it changed.

        Returns True when the fingerprint differed (cache invalidated).
        Queries running concurrently keep using whichever index object they
        pinned — the swap is atomic from their point of view, and none are
        dropped or torn across generations.
        """
        changed = index.fingerprint != self.index.fingerprint
        self.index = index
        if changed:
            with self._cache_lock:
                self._cache.clear()
            with self._stats.lock:
                self._stats.reloads += 1
        return changed

    def drain(self, timeout: float | None = None) -> bool:
        """Wait until no queries are in flight; True when idle was reached.

        New queries are *not* blocked — the caller (e.g. the serving layer
        on shutdown) is expected to stop submitting first, then drain.
        """
        with self._idle:
            return self._idle.wait_for(lambda: self._inflight == 0, timeout=timeout)

    # -- introspection ------------------------------------------------------

    def stats(self) -> dict:
        """Service counters plus index identity (the ``--stats`` payload)."""
        with self._stats.lock:
            queries, hits, errors, reloads = (
                self._stats.queries, self._stats.cache_hits,
                self._stats.errors, self._stats.reloads,
            )
        with self._cache_lock:
            cached = len(self._cache)
        return {
            "queries": queries,
            "cache_hits": hits,
            "errors": errors,
            "reloads": reloads,
            "cached_labels": cached,
            "cache_size": self.cache_size,
            # lint: allow-lock-discipline(racy int read for a stats gauge; torn values are impossible under the GIL)
            "inflight": self._inflight,
            "index_fingerprint": self.index.fingerprint,
            "index_from_cache": self.index.from_cache,
            "index_mapped": self.index.mapped,
            "reference_domains": self.index.domain_count,
            "reference_labels": self.index.label_count,
        }
