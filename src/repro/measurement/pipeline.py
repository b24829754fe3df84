"""Pluggable concurrent enrichment pipeline (paper Sections 5-6).

The paper's measurement study enriches every detected IDN homograph
through a fixed sequence of probes; this module turns that sequence into a
pipeline of pluggable **enrichment stages**, each mapping to one of the
paper's result tables:

===========  ==================  ==========================================
stage        paper result        probe
===========  ==================  ==========================================
dns          Table 10 (funnel)   NS/A resolution of detected homographs
portscan     Table 10            TCP/80 + TCP/443 scan of addressed ones
popularity   Table 11            passive-DNS resolution ranking
classify     Tables 12-13        website category + redirect intent
blacklist    Table 14            hits per blacklist feed and homoglyph DB
revert       Section 6.4         homoglyph-reverted original domains
===========  ==================  ==========================================

A stage is anything satisfying :class:`EnrichmentStage`: a ``name``,
declared ``dependencies`` on other stages, and a batched
``enrich(batch) -> records`` probe.  :class:`PipelineRunner`

* topologically orders the stages and validates the dependency graph;
* executes independent stages *and* the batches within a stage
  concurrently on one shared bounded thread pool (``jobs`` workers) —
  probes are I/O-shaped, so overlapping them is where zone-scale wall
  time goes;
* consumes detections either from an in-memory
  :class:`~repro.detection.report.DetectionReport` or **streamed
  chunk-by-chunk from a PR-2 JSONL scan sink**
  (:meth:`DetectionSummary.from_sink`), so the full report never needs to
  be resident;
* optionally persists every stage's records to a JSONL sink with an
  atomic checkpoint after each durable batch, and resumes an interrupted
  run exactly like the streaming scanner does (validated sink, truncated
  trailing damage dropped, damage inside the checkpointed prefix refused);
* memoizes per-domain probe results behind a generation-aware cache
  (:class:`GenerationCache`) so repeated probes of the same name are free
  until the backing store actually changes.

Stage records must be JSON-native (dicts of strings/numbers/bools/lists):
a resumed run re-reads them from the sink, and both paths must feed
``finalize`` identical values.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from collections import Counter
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Callable,
    Iterable,
    Protocol,
    Sequence,
    runtime_checkable,
)

from ..detection.report import DetectionReport, HomographDetection
from ..detection.stream import iter_sink
from ..durable import Checkpoint, CheckpointedLog

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from .results import StudyResults

__all__ = [
    "STAGE_CHECKPOINT_VERSION",
    "PipelineError",
    "StageResumeError",
    "DetectionSummary",
    "GenerationCache",
    "EnrichmentStage",
    "StageCheckpoint",
    "StageEvent",
    "StageTiming",
    "PipelineContext",
    "PipelineRunner",
    "split_batches",
    "topological_order",
    "select_stages",
    "stage_input_fingerprint",
]

#: Bump when the stage checkpoint layout changes; old checkpoints then
#: refuse to resume.
STAGE_CHECKPOINT_VERSION = 1


class PipelineError(RuntimeError):
    """The stage graph is invalid (duplicate names, unknown deps, cycles)."""


class StageResumeError(PipelineError):
    """Resuming a stage is unsafe (input changed or its sink is damaged)."""


# ---------------------------------------------------------------------------
# detection input
# ---------------------------------------------------------------------------


@dataclass
class DetectionSummary:
    """Compact, order-preserving view of a detection run.

    Everything the enrichment stages need from Step III, foldable from a
    stream of detection chunks in O(unique IDNs) memory — the full
    :class:`DetectionReport` never has to be resident.
    """

    detected_idns: tuple[str, ...] = ()                 # sorted unique
    database_flags: dict[str, tuple[bool, bool]] = field(default_factory=dict)
    homograph_map: dict[str, str] = field(default_factory=dict)
    reference_counts: Counter = field(default_factory=Counter)
    detection_count: int = 0

    def count_by_database(self) -> dict[str, int]:
        """Unique IDNs per homoglyph database (Table 8 shape)."""
        uc = sum(1 for flags in self.database_flags.values() if flags[0])
        simchar = sum(1 for flags in self.database_flags.values() if flags[1])
        union = sum(1 for flags in self.database_flags.values() if flags[0] or flags[1])
        return {"UC": uc, "SimChar": simchar, "UC ∪ SimChar": union}

    def top_targets(self, limit: int = 5) -> list[tuple[str, int]]:
        """Reference domains with the most homographs (Table 9)."""
        return self.reference_counts.most_common(limit)

    @classmethod
    def from_chunks(cls, chunks: Iterable[Sequence[HomographDetection]]) -> "DetectionSummary":
        """Fold a stream of detection chunks into a summary."""
        summary = cls()
        unique: set[str] = set()
        for chunk in chunks:
            for detection in chunk:
                summary.detection_count += 1
                unique.add(detection.idn)
                uc, simchar = summary.database_flags.get(detection.idn, (False, False))
                summary.database_flags[detection.idn] = (
                    uc or detection.uses_uc, simchar or detection.uses_simchar,
                )
                summary.homograph_map.setdefault(detection.idn, detection.reference)
                summary.reference_counts[detection.reference] += 1
        summary.detected_idns = tuple(sorted(unique))
        return summary

    @classmethod
    def from_report(cls, report: DetectionReport) -> "DetectionSummary":
        """Summary of an in-memory detection report."""
        return cls.from_chunks([report.detections])

    @classmethod
    def from_sink(cls, path: str | os.PathLike, *, chunk_size: int = 2000) -> "DetectionSummary":
        """Summary streamed chunk-by-chunk from a PR-2 JSONL scan sink."""
        return cls.from_chunks(iter_sink(path, chunk_size=chunk_size))


# ---------------------------------------------------------------------------
# caching
# ---------------------------------------------------------------------------


class GenerationCache:
    """Per-key probe memo invalidated when a backing store's generation moves.

    ``generation_source`` is polled on every access (e.g.
    ``lambda: store.generation``); when it differs from the generation the
    cached entries were filled under, the whole cache is dropped.  Without
    a source the cache never self-invalidates (static backends).
    """

    def __init__(self, generation_source: Callable[[], int] | None = None) -> None:
        self._generation_source = generation_source
        self._generation: int | None = None
        self._data: dict = {}
        self.invalidations = 0

    def _validate(self) -> None:
        if self._generation_source is None:
            return
        generation = self._generation_source()
        if generation != self._generation:
            if self._data:
                self.invalidations += 1
            self._data.clear()
            self._generation = generation

    def get(self, key, default=None):
        """Cached value for *key*, or *default*."""
        self._validate()
        return self._data.get(key, default)

    def put(self, key, value) -> None:
        """Store a probe result."""
        self._validate()
        self._data[key] = value

    def __len__(self) -> int:
        self._validate()
        return len(self._data)


# ---------------------------------------------------------------------------
# stage protocol
# ---------------------------------------------------------------------------


@dataclass
class PipelineContext:
    """Everything a stage may read: the detection summary, the results
    object being filled, and the records of already-finished stages."""

    summary: DetectionSummary
    results: "StudyResults"
    records: dict[str, list[dict]] = field(default_factory=dict)


@runtime_checkable
class EnrichmentStage(Protocol):
    """One pluggable probe of the measurement pipeline.

    ``prepare`` runs once in the runner thread and returns the stage's
    deterministic, JSON-serialisable input items (usually domain names);
    ``enrich`` is called concurrently with batches of those items and must
    be thread-safe and return one JSON-native record per item;
    ``finalize`` runs once in the runner thread with every record in input
    order and folds them into ``context.results``.
    """

    name: str
    dependencies: tuple[str, ...]
    #: ``False`` for stages needing their whole input in one batch (global
    #: rankings); the runner then never splits their items.
    batchable: bool

    def prepare(self, context: PipelineContext) -> Sequence: ...

    def enrich(self, batch: Sequence) -> list[dict]: ...

    def finalize(self, context: PipelineContext, records: list[dict]) -> None: ...


# ---------------------------------------------------------------------------
# graph utilities
# ---------------------------------------------------------------------------


def topological_order(stages: Sequence[EnrichmentStage]) -> list[EnrichmentStage]:
    """Order stages so every dependency precedes its dependents.

    Deterministic: stages become ready in waves and each wave keeps the
    caller's declaration order.  Raises :class:`PipelineError` on duplicate
    names, unknown dependencies, or cycles.
    """
    by_name: dict[str, EnrichmentStage] = {}
    for stage in stages:
        if stage.name in by_name:
            raise PipelineError(f"duplicate stage name {stage.name!r}")
        by_name[stage.name] = stage
    for stage in stages:
        for dep in stage.dependencies:
            if dep not in by_name:
                raise PipelineError(
                    f"stage {stage.name!r} depends on unknown stage {dep!r}"
                )
    order: list[EnrichmentStage] = []
    done: set[str] = set()
    remaining = list(stages)
    while remaining:
        ready = [s for s in remaining if set(s.dependencies) <= done]
        if not ready:
            names = sorted(s.name for s in remaining)
            raise PipelineError(f"dependency cycle among stages {names}")
        order.extend(ready)
        done.update(s.name for s in ready)
        remaining = [s for s in remaining if s.name not in done]
    return order


def select_stages(
    stages: Sequence[EnrichmentStage], wanted: Iterable[str],
) -> list[EnrichmentStage]:
    """Subset of *stages* covering *wanted* plus their transitive deps.

    Keeps the original declaration order; unknown names raise
    :class:`PipelineError`.
    """
    by_name = {stage.name: stage for stage in stages}
    selected: set[str] = set()
    stack = list(wanted)
    while stack:
        name = stack.pop()
        if name not in by_name:
            raise PipelineError(
                f"unknown stage {name!r}; available: {sorted(by_name)}"
            )
        if name in selected:
            continue
        selected.add(name)
        stack.extend(by_name[name].dependencies)
    return [stage for stage in stages if stage.name in selected]


def split_batches(items: Sequence, batch_size: int) -> list[list]:
    """Split *items* into consecutive batches of at most *batch_size*."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    return [list(items[i:i + batch_size]) for i in range(0, len(items), batch_size)]


def stage_input_fingerprint(items: Sequence, *, batch_size: int | None) -> str:
    """Identity of a stage's input (items + batching) for safe resumes."""
    hasher = hashlib.sha256()
    hasher.update(str(batch_size).encode("ascii"))
    hasher.update(json.dumps(list(items), ensure_ascii=False).encode("utf-8"))
    return hasher.hexdigest()[:16]


# ---------------------------------------------------------------------------
# durability
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StageCheckpoint(Checkpoint):
    """Durable progress marker of one stage, written after every batch."""

    stage: str
    batches_done: int
    batch_count: int
    records_written: int
    input_fingerprint: str
    complete: bool = False
    version: int = STAGE_CHECKPOINT_VERSION


@dataclass(frozen=True)
class StageEvent:
    """Progress notification after each durable batch of a stage."""

    stage: str
    batches_done: int
    batch_count: int
    records_written: int


@dataclass(frozen=True)
class StageTiming:
    """Wall time and volume of one executed stage."""

    name: str
    seconds: float
    batches: int
    records: int
    resumed: bool = False

    def as_dict(self) -> dict:
        """JSON-friendly representation (CLI ``--json`` output)."""
        return asdict(self)


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------


class _StageRun:
    """Book-keeping of one in-flight stage."""

    def __init__(
        self,
        stage: EnrichmentStage,
        batches: list[list],
        *,
        sink: CheckpointedLog[StageCheckpoint] | None,
        fingerprint: str,
        prefix_records: list[dict],
        batches_done: int,
        resumed: bool,
    ) -> None:
        self.stage = stage
        self.batches = batches
        self.sink = sink
        self.fingerprint = fingerprint
        self.records: list[dict] = list(prefix_records)
        self.batches_done = batches_done          # durable (flushed) prefix
        self.next_to_write = batches_done
        self.pending: dict[Future, int] = {}
        self.buffered: dict[int, list[dict]] = {}
        self.resumed = resumed
        self.started = time.perf_counter()

    @property
    def finished(self) -> bool:
        return self.next_to_write >= len(self.batches)

    def commit(self, records: list[dict]) -> None:
        """Persist *records* (may be empty) and checkpoint the progress."""
        if self.sink is None:
            return
        self.sink.commit(
            [json.dumps(record, ensure_ascii=False) + "\n" for record in records],
            StageCheckpoint(
                stage=self.stage.name,
                batches_done=self.batches_done,
                batch_count=len(self.batches),
                records_written=len(self.records),
                input_fingerprint=self.fingerprint,
                complete=self.finished,
            ),
        )

    def close(self) -> None:
        if self.sink is not None:
            self.sink.close()


class PipelineRunner:
    """Executes an enrichment stage graph over one detection summary.

    ``jobs`` bounds the shared executor that all stages' batches run on;
    ``batch_size`` is the intra-stage split (and the checkpoint
    granularity).  With an ``output_dir`` every stage appends its records
    to ``stage_<name>.jsonl`` and checkpoints after each batch; ``resume``
    then continues an interrupted run, skipping completed stages entirely
    and completed batches within the interrupted stage.
    """

    def __init__(
        self,
        stages: Sequence[EnrichmentStage],
        *,
        jobs: int = 1,
        batch_size: int = 256,
        output_dir: str | os.PathLike | None = None,
        resume: bool = False,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if resume and output_dir is None:
            raise ValueError("resume requires an output_dir to resume from")
        #: Declaration order (used for reporting); scheduling follows the
        #: validated topological order.
        self.stages = list(stages)
        self._order = topological_order(stages)
        self.jobs = jobs
        self.batch_size = batch_size
        self.output_dir = Path(output_dir) if output_dir is not None else None
        self.resume = resume
        self.timings: list[StageTiming] = []

    # -- paths ---------------------------------------------------------------

    def stage_sink_path(self, name: str) -> Path | None:
        """JSONL sink of a stage (``None`` for in-memory runs)."""
        if self.output_dir is None:
            return None
        return self.output_dir / f"stage_{name}.jsonl"

    def stage_checkpoint_path(self, name: str) -> Path | None:
        """Checkpoint file of a stage (``None`` for in-memory runs)."""
        sink = self.stage_sink_path(name)
        return None if sink is None else sink.with_name(sink.name + ".checkpoint")

    # -- execution -----------------------------------------------------------

    def run(
        self,
        summary: DetectionSummary,
        results: "StudyResults",
        *,
        progress: Callable[[StageEvent], None] | None = None,
    ) -> "StudyResults":
        """Execute every stage and fold the records into *results*."""
        if self.output_dir is not None:
            self.output_dir.mkdir(parents=True, exist_ok=True)
        context = PipelineContext(summary=summary, results=results)
        self.timings = []
        timing_by_name: dict[str, StageTiming] = {}
        pending = {stage.name: stage for stage in self._order}
        done: set[str] = set()
        runs: dict[str, _StageRun] = {}

        try:
            with ThreadPoolExecutor(max_workers=self.jobs) as executor:
                while pending or runs:
                    for name in [n for n, s in pending.items()
                                 if set(s.dependencies) <= done]:
                        run = self._start_stage(pending.pop(name), context, executor)
                        if run.finished:
                            timing_by_name[name] = self._finish_stage(run, context)
                            done.add(name)
                        else:
                            runs[name] = run
                    if not runs:
                        continue
                    all_pending = [f for run in runs.values() for f in run.pending]
                    wait(all_pending, return_when=FIRST_COMPLETED)
                    for name, run in list(runs.items()):
                        self._absorb(run, progress)
                        if run.finished:
                            timing_by_name[name] = self._finish_stage(run, context)
                            done.add(name)
                            del runs[name]
        finally:
            for run in runs.values():
                run.close()

        self.timings = [timing_by_name[s.name] for s in self.stages
                        if s.name in timing_by_name]
        results.stage_timings = list(self.timings)
        return results

    # -- stage lifecycle -----------------------------------------------------

    def _start_stage(
        self,
        stage: EnrichmentStage,
        context: PipelineContext,
        executor: ThreadPoolExecutor,
    ) -> _StageRun:
        items = list(stage.prepare(context))
        batchable = getattr(stage, "batchable", True)
        batch_size = self.batch_size if batchable else None
        batches = split_batches(items, batch_size) if batchable else (
            [items] if items else []
        )
        fingerprint = stage_input_fingerprint(items, batch_size=batch_size)
        sink_path = self.stage_sink_path(stage.name)

        sink: CheckpointedLog[StageCheckpoint] | None = None
        checkpoint: StageCheckpoint | None = None
        prefix_records: list[dict] = []
        batches_done = 0
        if sink_path is not None:
            sink = CheckpointedLog(
                sink_path, self.stage_checkpoint_path(stage.name), StageCheckpoint,
                count_field="records_written", error=StageResumeError,
            )
            checkpoint = sink.load(resume=self.resume)
            if checkpoint is not None and (
                checkpoint.stage != stage.name or checkpoint.input_fingerprint != fingerprint
            ):
                raise StageResumeError(
                    f"stage {stage.name!r} input changed since the checkpoint at "
                    f"{sink.checkpoint_path} was written; re-run without --resume to "
                    "start over"
                )
            sink.open(checkpoint)
            if checkpoint is not None:
                with open(sink_path, "rb") as handle:
                    prefix_records = [json.loads(line) for line in handle]
                batches_done = min(checkpoint.batches_done, len(batches))

        run = _StageRun(
            stage, batches, sink=sink, fingerprint=fingerprint,
            prefix_records=prefix_records, batches_done=batches_done,
            resumed=checkpoint is not None,
        )
        if run.finished:
            return run
        for index in range(run.batches_done, len(batches)):
            run.pending[executor.submit(stage.enrich, batches[index])] = index
        return run

    def _absorb(
        self,
        run: _StageRun,
        progress: Callable[[StageEvent], None] | None,
    ) -> None:
        finished = [future for future in run.pending if future.done()]
        for future in finished:
            index = run.pending.pop(future)
            run.buffered[index] = future.result()   # re-raises stage errors
        while run.next_to_write in run.buffered:
            records = run.buffered.pop(run.next_to_write)
            run.records.extend(records)
            run.next_to_write += 1
            run.batches_done = run.next_to_write
            run.commit(records)
            if progress is not None:
                progress(StageEvent(
                    stage=run.stage.name,
                    batches_done=run.batches_done,
                    batch_count=len(run.batches),
                    records_written=len(run.records),
                ))

    def _finish_stage(self, run: _StageRun, context: PipelineContext) -> StageTiming:
        run.commit([])
        run.close()
        context.records[run.stage.name] = run.records
        run.stage.finalize(context, run.records)
        return StageTiming(
            name=run.stage.name,
            seconds=time.perf_counter() - run.started,
            batches=len(run.batches),
            records=len(run.records),
            resumed=run.resumed,
        )
