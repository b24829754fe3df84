"""Unit tests for the enrichment pipeline runner (measurement/pipeline.py).

Covers the stage-graph utilities (topological ordering, subset selection,
batch splitting), the generation-aware probe cache, and the durability
guarantees (per-stage JSONL sinks, checkpoint after every batch, resume
after a kill, refusal on damaged or changed inputs).
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.measurement.pipeline import (
    DetectionSummary,
    GenerationCache,
    PipelineError,
    PipelineRunner,
    StageCheckpoint,
    StageResumeError,
    select_stages,
    split_batches,
    stage_input_fingerprint,
    topological_order,
)
from repro.measurement.results import StudyResults


class AddOneStage:
    """Test stage: consumes ints (or a dependency's records) and adds one."""

    batchable = True

    def __init__(self, name, *, deps=(), items=None, batchable=True):
        self.name = name
        self.dependencies = tuple(deps)
        self.batchable = batchable
        self._items = items
        self.enriched_batches: list[list] = []
        self.final_records: list[dict] | None = None

    def prepare(self, context):
        if self._items is not None:
            return list(self._items)
        return [r["value"] for r in context.records[self.dependencies[0]]]

    def enrich(self, batch):
        self.enriched_batches.append(list(batch))
        return [{"value": value + 1} for value in batch]

    def finalize(self, context, records):
        self.final_records = records


def _run(stages, **kwargs):
    progress = kwargs.pop("progress", None)
    runner = PipelineRunner(stages, **kwargs)
    runner.run(DetectionSummary(), StudyResults(), progress=progress)
    return runner


# -- graph utilities ----------------------------------------------------------


def test_topological_order_keeps_declaration_order_within_waves():
    a = AddOneStage("a", items=[])
    b = AddOneStage("b", items=[])
    c = AddOneStage("c", deps=("a", "b"))
    d = AddOneStage("d", deps=("c",))
    order = [s.name for s in topological_order([d, a, b, c])]
    assert order == ["a", "b", "c", "d"]


def test_topological_order_rejects_duplicates_unknowns_and_cycles():
    with pytest.raises(PipelineError, match="duplicate"):
        topological_order([AddOneStage("x", items=[]), AddOneStage("x", items=[])])
    with pytest.raises(PipelineError, match="unknown"):
        topological_order([AddOneStage("x", deps=("ghost",), items=[])])
    x = AddOneStage("x", deps=("y",), items=[])
    y = AddOneStage("y", deps=("x",), items=[])
    with pytest.raises(PipelineError, match="cycle"):
        topological_order([x, y])


def test_select_stages_pulls_transitive_dependencies():
    a = AddOneStage("a", items=[])
    b = AddOneStage("b", deps=("a",))
    c = AddOneStage("c", deps=("b",))
    other = AddOneStage("other", items=[])
    selected = select_stages([a, b, c, other], ["c"])
    assert [s.name for s in selected] == ["a", "b", "c"]
    with pytest.raises(PipelineError, match="unknown stage"):
        select_stages([a], ["nope"])


def test_split_batches():
    assert split_batches([1, 2, 3, 4, 5], 2) == [[1, 2], [3, 4], [5]]
    assert split_batches([], 3) == []
    assert split_batches([1], 10) == [[1]]
    with pytest.raises(ValueError):
        split_batches([1], 0)


def test_stage_input_fingerprint_tracks_items_and_batching():
    base = stage_input_fingerprint(["a", "b"], batch_size=2)
    assert stage_input_fingerprint(["a", "b"], batch_size=2) == base
    assert stage_input_fingerprint(["a", "c"], batch_size=2) != base
    assert stage_input_fingerprint(["a", "b"], batch_size=3) != base
    assert stage_input_fingerprint(["a", "b"], batch_size=None) != base


# -- generation cache ---------------------------------------------------------


def test_generation_cache_invalidates_on_generation_change():
    generation = [0]
    cache = GenerationCache(lambda: generation[0])
    cache.put("k", 1)
    assert cache.get("k") == 1
    generation[0] += 1
    assert cache.get("k") is None
    assert cache.invalidations == 1
    cache.put("k", 2)
    assert len(cache) == 1


def test_generation_cache_without_source_never_invalidates():
    cache = GenerationCache()
    cache.put("k", 1)
    assert cache.get("k") == 1
    assert cache.invalidations == 0


# -- checkpoint ---------------------------------------------------------------


def test_stage_checkpoint_roundtrip(tmp_path):
    path = tmp_path / "cp"
    checkpoint = StageCheckpoint(
        stage="dns", batches_done=3, batch_count=5,
        records_written=700, input_fingerprint="abc", complete=False,
    )
    checkpoint.save(path)
    assert StageCheckpoint.load(path) == checkpoint
    assert StageCheckpoint.load(tmp_path / "missing") is None
    path.write_text("not json")
    assert StageCheckpoint.load(path) is None
    path.write_text(json.dumps({"version": 999, "stage": "dns"}))
    assert StageCheckpoint.load(path) is None


def test_stage_checkpoint_with_a_wrong_typed_field_reads_as_missing(tmp_path):
    path = tmp_path / "cp"
    StageCheckpoint(stage="dns", batches_done=3, batch_count=5, records_written=700,
                    input_fingerprint="abc").save(path)
    assert StageCheckpoint.load(path) is not None
    for field, value in (("records_written", "700"), ("complete", "false"),
                         ("stage", None), ("batches_done", [3])):
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload[field] = value
        damaged = tmp_path / f"{field}.json"
        damaged.write_text(json.dumps(payload), encoding="utf-8")
        assert StageCheckpoint.load(damaged) is None, field


# -- execution ----------------------------------------------------------------


def test_records_stay_in_input_order_under_concurrency():
    stage = AddOneStage("a", items=list(range(100)))
    _run([stage], jobs=8, batch_size=7)
    assert stage.final_records == [{"value": v + 1} for v in range(100)]
    assert len(stage.enriched_batches) == 15


def test_dependent_stage_sees_upstream_records():
    a = AddOneStage("a", items=[1, 2, 3])
    b = AddOneStage("b", deps=("a",))
    _run([b, a], jobs=4, batch_size=2)
    assert b.final_records == [{"value": 3}, {"value": 4}, {"value": 5}]


def test_unbatchable_stage_gets_whole_input_in_one_batch():
    stage = AddOneStage("a", items=list(range(10)), batchable=False)
    _run([stage], batch_size=2)
    assert stage.enriched_batches == [list(range(10))]


def test_empty_input_stage_finalizes_with_no_records(tmp_path):
    stage = AddOneStage("a", items=[])
    _run([stage], output_dir=tmp_path)
    assert stage.final_records == []
    assert (tmp_path / "stage_a.jsonl").read_bytes() == b""
    checkpoint = StageCheckpoint.load(tmp_path / "stage_a.jsonl.checkpoint")
    assert checkpoint is not None and checkpoint.complete


def test_independent_stages_share_the_executor_concurrently():
    barrier = threading.Barrier(2, timeout=10)

    class MeetingStage(AddOneStage):
        def enrich(self, batch):
            barrier.wait()   # only passes when both stages are in flight
            return super().enrich(batch)

    a = MeetingStage("a", items=[1])
    b = MeetingStage("b", items=[2])
    _run([a, b], jobs=2)
    assert a.final_records and b.final_records


def test_intra_stage_batches_run_concurrently():
    barrier = threading.Barrier(2, timeout=10)

    class MeetingStage(AddOneStage):
        def enrich(self, batch):
            barrier.wait()
            return super().enrich(batch)

    stage = MeetingStage("a", items=[1, 2])
    _run([stage], jobs=2, batch_size=1)
    assert stage.final_records == [{"value": 2}, {"value": 3}]


def test_stage_error_propagates():
    class BoomStage(AddOneStage):
        def enrich(self, batch):
            raise RuntimeError("boom")

    with pytest.raises(RuntimeError, match="boom"):
        _run([BoomStage("a", items=[1])])


def test_timings_recorded_in_stage_order():
    a = AddOneStage("a", items=[1])
    b = AddOneStage("b", deps=("a",))
    runner = _run([a, b], batch_size=1)
    assert [t.name for t in runner.timings] == ["a", "b"]
    assert all(t.seconds >= 0 for t in runner.timings)
    assert runner.timings[0].records == 1


# -- durability + resume ------------------------------------------------------


class _Killed(Exception):
    pass


def _kill_when(stage_name, batches_done):
    def bomb(event):
        if event.stage == stage_name and event.batches_done >= batches_done:
            raise _Killed
    return bomb


def test_resume_after_kill_matches_uninterrupted_run(tmp_path):
    items = list(range(20))
    clean_dir = tmp_path / "clean"
    _run([AddOneStage("a", items=items)], batch_size=4, output_dir=clean_dir)

    resumable = tmp_path / "resumable"
    with pytest.raises(_Killed):
        _run([AddOneStage("a", items=items)], batch_size=4,
             output_dir=resumable, progress=_kill_when("a", 2))
    checkpoint = StageCheckpoint.load(resumable / "stage_a.jsonl.checkpoint")
    assert checkpoint is not None and checkpoint.batches_done == 2

    stage = AddOneStage("a", items=items)
    _run([stage], batch_size=4, output_dir=resumable, resume=True)
    # Only the 3 unfinished batches ran; the durable prefix was loaded.
    assert len(stage.enriched_batches) == 3
    assert stage.final_records == [{"value": v + 1} for v in items]
    assert (resumable / "stage_a.jsonl").read_bytes() == \
        (clean_dir / "stage_a.jsonl").read_bytes()


def test_resume_skips_completed_stage_entirely(tmp_path):
    items = [1, 2, 3]
    _run([AddOneStage("a", items=items)], output_dir=tmp_path)
    stage = AddOneStage("a", items=items)
    runner = _run([stage], output_dir=tmp_path, resume=True)
    assert stage.enriched_batches == []
    assert stage.final_records == [{"value": v + 1} for v in items]
    assert runner.timings[0].resumed


def test_resume_drops_uncheckpointed_trailing_lines(tmp_path):
    items = list(range(8))
    with pytest.raises(_Killed):
        _run([AddOneStage("a", items=items)], batch_size=2,
             output_dir=tmp_path, progress=_kill_when("a", 1))
    sink = tmp_path / "stage_a.jsonl"
    # Simulate a flush that the kill cut off mid-line, past the checkpoint.
    with open(sink, "a", encoding="utf-8") as handle:
        handle.write('{"value": 99}\n{"val')
    stage = AddOneStage("a", items=items)
    _run([stage], batch_size=2, output_dir=tmp_path, resume=True)
    assert stage.final_records == [{"value": v + 1} for v in items]
    lines = sink.read_text(encoding="utf-8").splitlines()
    assert json.loads(lines[1]) == {"value": 2}
    assert len(lines) == len(items)


def test_resume_refuses_damage_inside_checkpointed_prefix(tmp_path):
    items = list(range(8))
    _run([AddOneStage("a", items=items)], batch_size=2, output_dir=tmp_path)
    sink = tmp_path / "stage_a.jsonl"
    sink.write_text("garbage\n", encoding="utf-8")
    with pytest.raises(StageResumeError, match="damaged inside"):
        _run([AddOneStage("a", items=items)], batch_size=2,
             output_dir=tmp_path, resume=True)


def test_resume_refuses_lost_checkpoint_with_nonempty_sink(tmp_path):
    items = [1, 2]
    _run([AddOneStage("a", items=items)], output_dir=tmp_path)
    (tmp_path / "stage_a.jsonl.checkpoint").unlink()
    before = (tmp_path / "stage_a.jsonl").read_bytes()
    with pytest.raises(StageResumeError, match="no usable checkpoint"):
        _run([AddOneStage("a", items=items)], output_dir=tmp_path, resume=True)
    assert (tmp_path / "stage_a.jsonl").read_bytes() == before


def test_resume_refuses_changed_input(tmp_path):
    _run([AddOneStage("a", items=[1, 2, 3])], batch_size=1, output_dir=tmp_path)
    with pytest.raises(StageResumeError, match="input changed"):
        _run([AddOneStage("a", items=[1, 2, 4])], batch_size=1,
             output_dir=tmp_path, resume=True)


def test_resume_requires_output_dir():
    with pytest.raises(ValueError, match="resume requires"):
        PipelineRunner([AddOneStage("a", items=[])], resume=True)


def test_fresh_run_clears_stale_checkpoint(tmp_path):
    _run([AddOneStage("a", items=[1, 2])], output_dir=tmp_path)
    # A fresh (non-resume) run overwrites the sink and the old checkpoint
    # can never pair with the new sink.
    stage = AddOneStage("a", items=[9])
    _run([stage], output_dir=tmp_path)
    assert stage.final_records == [{"value": 10}]
    checkpoint = StageCheckpoint.load(tmp_path / "stage_a.jsonl.checkpoint")
    assert checkpoint is not None and checkpoint.records_written == 1
