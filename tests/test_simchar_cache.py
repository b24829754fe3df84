"""Tests for the SimChar build cache (fingerprinting, persistence, parallel identity)."""

import json

import pytest

from repro.detection.shamfinder import ShamFinder
from repro.fonts.synthetic import SyntheticFont
from repro.homoglyph import cache as cache_module
from repro.homoglyph.cache import (
    CACHE_DIR_ENV,
    SimCharCache,
    cached_build,
    font_fingerprint,
    key_for_builder,
    resolve_cache,
)
from repro.homoglyph.simchar import SimCharBuilder

REPERTOIRE = [ord(ch) for ch in "aoebc"] + [0x0430, 0x043E, 0x0435, 0x03BF, 0x00E9]


@pytest.fixture
def builder(font):
    return SimCharBuilder(font, repertoire=REPERTOIRE, jobs=1)


@pytest.fixture
def cache(tmp_path):
    return SimCharCache(tmp_path / "cache")


def test_cold_build_stores_and_warm_build_hits(builder, cache):
    cold, cold_hit = cached_build(builder, cache)
    assert not cold_hit
    assert cache.path_for(key_for_builder(builder)).is_file()

    warm, warm_hit = cached_build(builder, cache)
    assert warm_hit
    assert warm.from_cache and not cold.from_cache


def test_round_trip_equals_to_json(builder, cache):
    cold, _ = cached_build(builder, cache)
    warm, hit = cached_build(builder, cache)
    assert hit
    assert warm.database.to_json() == cold.database.to_json()
    assert warm.repertoire_size == cold.repertoire_size
    assert warm.raw_pair_count == cold.raw_pair_count
    assert warm.sparse_character_count == cold.sparse_character_count


def test_fingerprint_invalidation(font, builder):
    base = key_for_builder(builder)
    changed_threshold = SimCharBuilder(font, repertoire=REPERTOIRE, threshold=2, jobs=1)
    changed_repertoire = SimCharBuilder(font, repertoire=REPERTOIRE[:-1], jobs=1)
    changed_sparse = SimCharBuilder(font, repertoire=REPERTOIRE, sparse_min_pixels=5, jobs=1)
    digests = {
        base.digest,
        key_for_builder(changed_threshold).digest,
        key_for_builder(changed_repertoire).digest,
        key_for_builder(changed_sparse).digest,
    }
    assert len(digests) == 4


def test_changed_parameters_trigger_rebuild(font, builder, cache):
    cached_build(builder, cache)
    other = SimCharBuilder(font, repertoire=REPERTOIRE, threshold=2, jobs=1)
    _result, hit = cached_build(other, cache)
    assert not hit
    assert len([path for path in cache.entries() if path.suffix == ".jsonl"]) == 2


def test_font_fingerprint_tracks_rendered_shapes(font):
    class ShiftedFont:
        name = font.name          # same identity on paper...
        glyph_size = font.glyph_size

        def covers(self, codepoint):
            return font.covers(codepoint)

        def render(self, codepoint):
            return font.render(codepoint).inverted()   # ...different pixels

    assert font_fingerprint(ShiftedFont()) != font_fingerprint(font)


def test_hit_honours_requested_name(builder, cache):
    cached_build(builder, cache)
    result, hit = cached_build(builder, cache, name="Custom")
    assert hit
    assert result.database.name == "Custom"


def test_coverage_change_invalidates_key(font, builder):
    class NarrowerFont:
        name = font.name
        glyph_size = font.glyph_size

        def covers(self, codepoint):
            return codepoint != REPERTOIRE[0] and font.covers(codepoint)

        def render(self, codepoint):
            return font.render(codepoint)

    narrower = SimCharBuilder(NarrowerFont(), repertoire=REPERTOIRE, jobs=1)
    assert key_for_builder(narrower).digest != key_for_builder(builder).digest


def test_hexfont_edit_invalidates_fingerprint():
    from repro.fonts.hexfont import HexFont

    cells = {cp: [[1] * 8] * 16 for cp in (0x61, 0x62, 0x63)}
    base = HexFont.from_glyphs(cells, name="edited")
    edited_cells = dict(cells)
    edited_cells[0x62] = [[1] * 8] * 15 + [[0] * 8]   # one row of one glyph
    edited = HexFont.from_glyphs(edited_cells, name="edited")
    # U+0062 'b' is not in the probe set; the full content digest still differs.
    assert font_fingerprint(base) != font_fingerprint(edited)


def test_add_cell_invalidates_memoized_digest():
    from repro.fonts.hexfont import HexFont

    f = HexFont.from_glyphs({0x61: [[1] * 8] * 16, 0x62: [[1] * 8] * 16})
    before = font_fingerprint(f)
    f.add_cell(0x62, [[0] * 8] * 16)
    assert font_fingerprint(f) != before


def test_jobs_parameter_does_not_affect_fingerprint(font):
    serial = SimCharBuilder(font, repertoire=REPERTOIRE, jobs=1)
    parallel = SimCharBuilder(font, repertoire=REPERTOIRE, jobs=4)
    assert key_for_builder(serial).digest == key_for_builder(parallel).digest


def test_corrupted_cache_falls_back_to_rebuild(builder, cache):
    cold, _ = cached_build(builder, cache)
    path = cache.path_for(key_for_builder(builder))

    for garbage in ("", "not json at all {{{", '{"magic": "wrong"}\n', "[1, 2]\n"):
        path.write_text(garbage, encoding="utf-8")
        result, hit = cached_build(builder, cache)
        assert not hit
        assert result.database.to_json() == cold.database.to_json()
        # The rebuild refreshed the entry, so the next call hits again.
        _result, hit = cached_build(builder, cache)
        assert hit


def test_truncated_pair_list_is_a_miss(builder, cache):
    cached_build(builder, cache)
    path = cache.path_for(key_for_builder(builder))
    lines = path.read_text(encoding="utf-8").splitlines()
    header = json.loads(lines[0])
    assert header["pair_count"] == len(lines) - 1
    path.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
    _result, hit = cached_build(builder, cache)
    assert not hit


def test_force_rebuilds_but_still_stores(builder, cache):
    cached_build(builder, cache)
    result, hit = cached_build(builder, cache, force=True)
    assert not hit and not result.from_cache
    _result, hit = cached_build(builder, cache)
    assert hit


def test_serial_and_parallel_builds_identical(font):
    serial = SimCharBuilder(font, repertoire=REPERTOIRE, jobs=1)
    parallel = SimCharBuilder(font, repertoire=REPERTOIRE, jobs=4)
    glyphs = serial.step_render(serial.repertoire())
    assert serial.step_pairwise(glyphs) == parallel.step_pairwise(glyphs)
    assert serial.build().database.to_json() == parallel.build().database.to_json()


def test_parallel_build_matches_on_larger_repertoire(fast_builder):
    # Cross the min_parallel_size threshold so worker processes actually run.
    glyphs = fast_builder.step_render(fast_builder.repertoire())
    parallel = SimCharBuilder(
        fast_builder.font,
        repertoire=sorted(glyphs),
        jobs=2,
    )
    assert fast_builder.step_pairwise(glyphs) == parallel.step_pairwise(glyphs)


def test_jobs_validation(font):
    with pytest.raises(ValueError):
        SimCharBuilder(font, jobs=0)


def test_resolve_cache(tmp_path, monkeypatch):
    monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
    assert resolve_cache(None) is None
    explicit = resolve_cache(tmp_path)
    assert explicit is not None and explicit.cache_dir == tmp_path
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "env"))
    from_env = resolve_cache(None)
    assert from_env is not None and str(from_env.cache_dir).endswith("env")


def test_with_default_databases_uses_cache(font, tmp_path):
    builder = SimCharBuilder(font, repertoire=REPERTOIRE, jobs=1)
    cache_dir = tmp_path / "finder-cache"
    finder_cold = ShamFinder.with_default_databases(simchar_builder=builder, cache_dir=cache_dir)
    assert len(list(cache_dir.glob("simchar-*.jsonl"))) == 1
    finder_warm = ShamFinder.with_default_databases(simchar_builder=builder, cache_dir=cache_dir)
    assert (finder_warm.simchar_database.to_json()
            == finder_cold.simchar_database.to_json())


def test_unwritable_cache_degrades_to_in_memory_build(builder, tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("a plain file where the cache dir should go")
    broken = SimCharCache(blocker / "cache")
    with pytest.warns(UserWarning, match="could not persist"):
        result, hit = cached_build(builder, broken)
    assert not hit
    assert result.database.pair_count > 0


def test_cache_clear(builder, cache):
    cached_build(builder, cache)
    assert cache.clear() == 2   # the entry and its key memo
    assert cache.entries() == []
    _result, hit = cached_build(builder, cache)
    assert not hit


# -- the key memo ---------------------------------------------------------------


@pytest.fixture
def key_derivations(monkeypatch):
    """Counts full key derivations made through ``cached_build``."""
    calls = []

    def counting(builder):
        calls.append(builder)
        return key_for_builder(builder)

    monkeypatch.setattr(cache_module, "key_for_builder", counting)
    return calls


def test_warm_hit_reads_the_key_memo(builder, cache, key_derivations):
    cold, hit = cached_build(builder, cache)
    assert not hit and len(key_derivations) == 1
    assert len(list(cache.cache_dir.glob("simchar-key-*.json"))) == 1
    warm, hit = cached_build(builder, cache)
    assert hit and len(key_derivations) == 1   # no second derivation
    assert warm.database.to_json() == cold.database.to_json()


def test_font_class_outside_repro_fonts_is_never_memoised(font, builder, cache,
                                                          key_derivations):
    class ShiftedFont:
        name = font.name          # same identity on paper...
        glyph_size = font.glyph_size

        def covers(self, codepoint):
            return font.covers(codepoint)

        def render(self, codepoint):
            return font.render(codepoint).inverted()   # ...different pixels

    cached_build(builder, cache)
    shifted = SimCharBuilder(ShiftedFont(), repertoire=REPERTOIRE, jobs=1)
    assert cache_module._key_memo(shifted) is None
    result, hit = cached_build(shifted, cache)
    assert not hit and len(key_derivations) == 2
    assert result.database.pair_count
    assert len(list(cache.cache_dir.glob("simchar-*.jsonl"))) == 2   # its own entry


def test_key_memo_covers_the_font_attributes(font):
    narrow = SyntheticFont(coverage_planes=(0,))
    memos = {cache_module._key_memo(SimCharBuilder(each, repertoire=REPERTOIRE, jobs=1))
             for each in (font, narrow, SyntheticFont(name="other"))}
    assert None not in memos and len(memos) == 3


def test_changed_memo_digest_misses_the_memo(builder, cache, key_derivations, monkeypatch):
    cached_build(builder, cache)
    # As if a font or Unicode source had been edited since the memo was written.
    monkeypatch.setattr(cache_module, "_key_source_digest", lambda: "edited")
    _result, hit = cached_build(builder, cache)
    assert hit and len(key_derivations) == 2   # the full key found the same entry
    assert len(list(cache.cache_dir.glob("simchar-key-*.json"))) == 2


def test_corrupt_key_memo_falls_back_to_the_full_key(font, builder, cache, key_derivations):
    cold, _ = cached_build(builder, cache)
    memo_path, = cache.cache_dir.glob("simchar-key-*.json")
    # An entry the flipped memo below would name, were the memo trusted.
    neighbour = SimCharBuilder(font, repertoire=REPERTOIRE, threshold=builder.threshold + 1,
                               jobs=1)
    cached_build(neighbour, cache)
    del key_derivations[:]
    payload = json.loads(memo_path.read_bytes())
    other = key_for_builder(SimCharBuilder(font, repertoire=REPERTOIRE, threshold=2, jobs=1))
    forged = {"memo": payload["memo"], "key": other.as_dict()}
    forged["sha256"] = cache_module.artifact_checksum(forged, b"")
    flipped = memo_path.read_bytes().replace(f'"threshold": {builder.threshold}'.encode(),
                                             f'"threshold": {builder.threshold + 1}'.encode())
    assert flipped != memo_path.read_bytes()
    for damaged in (b"", b"{", b"[1, 2]", flipped, json.dumps(forged).encode()):
        memo_path.write_bytes(damaged)
        derived = len(key_derivations)
        result, hit = cached_build(builder, cache)
        assert hit and len(key_derivations) == derived + 1, damaged
        assert result.database.to_json() == cold.database.to_json()
        assert memo_path.read_bytes() != damaged   # rewritten for the next run
        cached_build(builder, cache)
        assert len(key_derivations) == derived + 1


def test_force_rewrites_the_key_memo(builder, cache, key_derivations):
    cached_build(builder, cache)
    memo_path, = cache.cache_dir.glob("simchar-key-*.json")
    memo_path.write_bytes(b"{")
    _result, hit = cached_build(builder, cache, force=True)
    assert not hit and len(key_derivations) == 2
    _result, hit = cached_build(builder, cache)
    assert hit and len(key_derivations) == 2


def test_v1_cache_entry_reads_as_a_miss_and_is_rebuilt(builder, cache):
    result = builder.build()
    key = key_for_builder(builder)
    v1_key = cache_module.CacheKey(**{**key.as_dict(), "format_version": 1})
    header = {"magic": cache_module.CACHE_MAGIC, "version": 1, "key": v1_key.as_dict(),
              "name": "SimChar", "pair_count": result.database.pair_count,
              "stats": {"repertoire_size": result.repertoire_size,
                        "rendered_count": result.rendered_count,
                        "raw_pair_count": result.raw_pair_count,
                        "sparse_character_count": result.sparse_character_count,
                        "threshold": result.threshold,
                        "sparse_min_pixels": result.sparse_min_pixels,
                        "sparse_examples": list(result.sparse_examples)}}
    rows = [[f"{ord(pair.first):04X}", f"{ord(pair.second):04X}", pair.delta,
             sorted(pair.sources)] for pair in result.database.pairs()]
    v1_text = "".join(json.dumps(item, ensure_ascii=False) + "\n" for item in [header, *rows])
    cache.cache_dir.mkdir(parents=True)
    v1_path = cache.path_for(v1_key)
    v1_path.write_text(v1_text, encoding="utf-8")
    assert cache.load(key) is None
    # Under the current name (as if renamed in place) it is still a miss.
    cache.path_for(key).write_text(v1_text, encoding="utf-8")
    assert cache.load(key) is None

    rebuilt, hit = cached_build(builder, cache)
    assert not hit and rebuilt.database.to_json() == result.database.to_json()
    assert cache.load(key) is not None and v1_path.read_text(encoding="utf-8") == v1_text
