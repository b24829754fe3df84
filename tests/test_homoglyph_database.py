"""Tests for HomoglyphPair and HomoglyphDatabase."""

import pytest

from repro.homoglyph.database import (
    SOURCE_SIMCHAR,
    SOURCE_UC,
    HomoglyphDatabase,
    HomoglyphPair,
)


def test_pair_normalises_order():
    pair = HomoglyphPair("о", "o")      # Cyrillic then Latin
    assert ord(pair.first) < ord(pair.second)
    assert pair.key == (ord("o"), 0x043E)
    assert pair == HomoglyphPair("o", "о")
    assert hash(pair) == hash(HomoglyphPair("o", "о"))


def test_pair_validation():
    with pytest.raises(ValueError):
        HomoglyphPair("a", "a")
    with pytest.raises(ValueError):
        HomoglyphPair("ab", "c")


def test_pair_other_and_idna_filter():
    pair = HomoglyphPair("o", "о", frozenset({SOURCE_UC}))
    assert pair.other("o") == "о"
    assert pair.other("о") == "o"
    with pytest.raises(ValueError):
        pair.other("x")
    assert pair.involves_idna_only()
    assert not HomoglyphPair("O", "0").involves_idna_only()


def test_pair_merge_keeps_min_delta_and_sources():
    first = HomoglyphPair("o", "о", frozenset({SOURCE_UC}), delta=None)
    second = HomoglyphPair("o", "о", frozenset({SOURCE_SIMCHAR}), delta=3)
    merged = first.merged_with(second)
    assert merged.sources == {SOURCE_UC, SOURCE_SIMCHAR}
    assert merged.delta == 3
    with pytest.raises(ValueError):
        first.merged_with(HomoglyphPair("a", "а"))


def test_pair_serialisation_roundtrip():
    pair = HomoglyphPair("o", "о", frozenset({SOURCE_UC}), delta=2)
    assert HomoglyphPair.from_dict(pair.as_dict()) == pair


def _sample_db():
    db = HomoglyphDatabase(name="test")
    db.add_pair("o", "о", source=SOURCE_UC)                       # Cyrillic o
    db.add_pair("o", "օ", source=SOURCE_SIMCHAR, delta=1)          # Armenian oh
    db.add_pair("e", "é", source=SOURCE_SIMCHAR, delta=2)
    db.add_pair("a", "а", source=SOURCE_UC)
    db.add_pair("a", "а", source=SOURCE_SIMCHAR, delta=0)          # duplicate, merged
    db.add_pair("工", "エ", source=SOURCE_SIMCHAR, delta=1)
    return db


def test_database_counts_and_lookup():
    db = _sample_db()
    assert db.pair_count == 5
    assert db.character_count == 9
    assert db.are_homoglyphs("o", "о")
    assert db.are_homoglyphs("о", "o")
    assert not db.are_homoglyphs("o", "e")
    assert not db.are_homoglyphs("o", "o")
    assert db.homoglyphs_of("o") == {"о", "օ"}
    assert db.homoglyphs_of("ж") == set()
    assert ("o", "о") in db
    assert db.get("а", "a").sources == {SOURCE_UC, SOURCE_SIMCHAR}
    assert db.get("x", "y") is None


def test_database_set_algebra():
    db = _sample_db()
    other = HomoglyphDatabase.from_pairs([
        HomoglyphPair("o", "о", frozenset({SOURCE_UC})),
        HomoglyphPair("s", "ѕ", frozenset({SOURCE_UC})),
    ], name="other")
    union = db.union(other)
    assert union.pair_count == 6
    intersection = db.intersection(other)
    assert intersection.pair_count == 1
    difference = db.difference(other)
    assert difference.pair_count == 4
    assert ("s", "ѕ") not in difference
    assert db.shared_characters(other) == {"o", "о"}


def test_restricted_to_idna_drops_disallowed_members():
    db = HomoglyphDatabase.from_pairs([
        HomoglyphPair("o", "о", frozenset({SOURCE_UC})),
        HomoglyphPair("O", "О", frozenset({SOURCE_UC})),     # uppercase: not PVALID
    ])
    restricted = db.restricted_to_idna()
    assert restricted.pair_count == 1
    assert restricted.are_homoglyphs("o", "о")


def test_latin_homoglyph_counts():
    db = _sample_db()
    counts = db.latin_homoglyph_counts()
    assert counts["o"] == 2
    assert counts["e"] == 1
    assert counts["a"] == 1
    assert counts["z"] == 0
    assert db.latin_homoglyph_total() == 4


def test_block_histogram_and_top_blocks():
    db = _sample_db()
    histogram = db.block_histogram()
    assert histogram["Cyrillic"] == 2
    assert histogram["Armenian"] == 1
    assert "Basic Latin" not in histogram
    top = db.top_blocks(2)
    assert len(top) == 2
    assert top[0][1] >= top[1][1]


def test_summary_keys():
    summary = _sample_db().summary()
    assert set(summary) == {"name", "characters", "pairs", "latin_homoglyphs", "top_blocks"}


def test_json_roundtrip(tmp_path):
    db = _sample_db()
    restored = HomoglyphDatabase.from_json(db.to_json())
    assert restored.pair_count == db.pair_count
    assert restored.are_homoglyphs("工", "エ")
    path = tmp_path / "db.json"
    db.save(path)
    loaded = HomoglyphDatabase.load(path)
    assert loaded.get("e", "é").delta == 2
    assert loaded.name == db.name


def test_iteration_is_deterministic():
    db = _sample_db()
    assert [p.key for p in db.pairs()] == sorted(p.key for p in db)


def test_content_digest_is_memoized_until_the_next_add():
    db = HomoglyphDatabase(name="memo")
    db.add_pair("o", "о", source=SOURCE_UC)
    first = db.content_digest()
    assert db.content_digest() is first          # memoized
    db.add_pair("a", "а", source=SOURCE_UC)
    second = db.content_digest()
    assert second != first
    db.add_pair("a", "а", source=SOURCE_SIMCHAR, delta=1)   # merges into the existing pair
    assert db.content_digest() not in (first, second)
    fresh = HomoglyphDatabase.from_pairs(db.pairs())
    assert fresh.content_digest() == db.content_digest()
