"""The trusted-row union, its memoised digest and the per-source views
against the validated pair-by-pair oracle (``oracles.registry_union``)."""

import pickle
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.registry_union import default_sources, load_validated, uc_idna, union
from repro.detection.shamfinder import ShamFinder
from repro.homoglyph.cache import CacheKey, SimCharCache, key_for_builder
from repro.homoglyph.database import SOURCE_SIMCHAR, SOURCE_UC, HomoglyphDatabase, HomoglyphPair
from repro.homoglyph.simchar import BuildTimings, SimCharBuilder, SimCharResult


def _same_database(actual: HomoglyphDatabase, expected: HomoglyphDatabase) -> None:
    assert actual.name == expected.name
    assert list(actual._pairs.items()) == list(expected._pairs.items())
    assert actual._index == expected._index
    assert actual.content_digest() == expected.content_digest()


def _same_views(finder: ShamFinder, per_source: dict, expected_union: HomoglyphDatabase) -> None:
    views = finder.databases()
    assert list(views) == ["union", SOURCE_UC, SOURCE_SIMCHAR]
    _same_database(views["union"], expected_union)
    _same_database(views[SOURCE_UC], per_source["uc"])
    _same_database(views[SOURCE_SIMCHAR], per_source["simchar"])


def test_default_entry_union_digest_and_views_equal_the_oracle(tmp_path, monkeypatch):
    cache = SimCharCache(tmp_path)
    cold = ShamFinder.with_default_databases(cache_dir=tmp_path)   # builds and stores
    memo_path, = tmp_path.glob("simchar-union-*.json")
    per_source = default_sources(cache, key_for_builder(SimCharBuilder()))
    expected = union(("simchar", "uc"), per_source, "UC∪SimChar")
    _same_views(cold, per_source, expected)

    digests = []
    derive = HomoglyphDatabase.content_digest
    monkeypatch.setattr(HomoglyphDatabase, "content_digest",
                        lambda database: digests.append(database.name) or derive(database))
    warm = ShamFinder.with_default_databases(cache_dir=tmp_path)   # trusted rows
    monkeypatch.undo()
    assert digests == []   # the digest came from the memo
    assert warm.database._digest == expected.content_digest()
    shipped = pickle.loads(pickle.dumps(warm))   # as to a spawned worker, views underived
    _same_views(warm, per_source, expected)
    _same_views(shipped, per_source, expected)

    memo_path.unlink()
    again = ShamFinder.with_default_databases(cache_dir=tmp_path)
    assert again.database._digest == expected.content_digest()   # derived and re-memoised
    assert memo_path.is_file()
    _same_views(again, per_source, expected)


def test_an_uncached_build_equals_the_oracle(fast_builder):
    """Without a cache the SimChar source is a fresh build."""
    built = ShamFinder.with_default_databases(simchar_builder=fast_builder)
    per_source = {"simchar": fast_builder.build(name="SimChar").database,
                  "uc": uc_idna()}
    _same_views(built, per_source, union(("simchar", "uc"), per_source, "UC∪SimChar"))


CODEPOINTS = st.one_of(st.integers(0x61, 0x66), st.integers(0x430, 0x435),
                       st.integers(0x1D41A, 0x1D41C))
PAIRS = st.lists(st.tuples(CODEPOINTS, CODEPOINTS,
                           st.frozensets(st.sampled_from(["SimChar", "UC", "X"]), min_size=1),
                           st.one_of(st.none(), st.integers(0, 9))), max_size=24)


def _database(name: str, pairs) -> HomoglyphDatabase:
    database = HomoglyphDatabase(name=name)
    for first, second, sources, delta in pairs:
        if first != second:
            database.add(HomoglyphPair(chr(first), chr(second), sources, delta))
    return database


@settings(max_examples=150, deadline=None)
@given(PAIRS, PAIRS)
def test_stored_rows_load_and_union_like_validated_pairs(stored_pairs, other_pairs):
    stored = _database("SimChar", stored_pairs)
    other = _database("UC∩IDNA", other_pairs)
    key = CacheKey(font_id="font", repertoire_hash="rep", threshold=4, sparse_min_pixels=10)
    result = SimCharResult(database=stored, timings=BuildTimings(0.0, 0.0, 0.0),
                           repertoire_size=0, rendered_count=0, raw_pair_count=len(stored),
                           sparse_character_count=0, threshold=4, sparse_min_pixels=10)
    with tempfile.TemporaryDirectory() as directory:
        cache = SimCharCache(directory)
        cache.store(key, result)
        entry = cache.load_entry(key)
        oracle = load_validated(cache, key)
        _same_database(cache.load(key).database, oracle)
    _same_database(entry.database(), oracle)

    rows_first = HomoglyphDatabase(name="U")
    rows_first.add_rows(entry.rows())
    for pair in other:
        rows_first.add(pair)
    _same_database(rows_first, union(("simchar", "uc"), {"simchar": oracle, "uc": other}, "U"))

    # Rows into a database that already holds some of their pairs merge as add() does.
    rows_last = HomoglyphDatabase(name="U")
    for pair in other:
        rows_last.add(pair)
    rows_last.add_rows(entry.rows())
    _same_database(rows_last, union(("uc", "simchar"), {"simchar": oracle, "uc": other}, "U"))
