"""Tests for Algorithm 1 (the homograph matcher)."""

from oracles.pairwise_matcher import build_reference_index, match_with_index
from repro.detection.algorithm import HomographMatcher, fold_label
from repro.homoglyph.database import SOURCE_UC, HomoglyphDatabase


def _matcher():
    db = HomoglyphDatabase()
    db.add_pair("o", "о", source=SOURCE_UC)       # Cyrillic o
    db.add_pair("e", "é", source=SOURCE_UC)
    db.add_pair("a", "а", source=SOURCE_UC)
    db.add_pair("工", "エ", source=SOURCE_UC)
    return HomographMatcher(db)


def test_exact_match_is_not_a_homograph():
    matcher = _matcher()
    assert not matcher.match("google", "google").is_homograph
    assert not matcher.is_homograph("google", "google")


def test_single_substitution_detected():
    matcher = _matcher()
    result = matcher.match("gоogle", "google")
    assert result.is_homograph
    assert result.substitution_count == 1
    sub = result.substitutions[0]
    assert sub.position == 1
    assert sub.candidate_char == "о"
    assert sub.reference_char == "o"
    assert "U+043E" in sub.describe()


def test_multiple_substitutions_detected():
    matcher = _matcher()
    result = matcher.match("gооglé", "google")
    assert result.is_homograph
    assert result.substitution_count == 3


def test_mismatch_not_in_database_rejected():
    matcher = _matcher()
    assert not matcher.match("gxogle", "google").is_homograph
    # One substitutable and one non-substitutable difference: still rejected.
    assert not matcher.match("gоxgle", "google").is_homograph


def test_length_mismatch_and_empty_rejected():
    matcher = _matcher()
    assert not matcher.match("googl", "google").is_homograph
    assert not matcher.match("", "").is_homograph


def test_non_latin_homograph_detection():
    # The paper's 工業大学 vs エ業大学 example.
    matcher = _matcher()
    assert matcher.is_homograph("エ業大学", "工業大学")


def test_matching_is_case_insensitive():
    matcher = _matcher()
    assert matcher.is_homograph("GОOGLE".lower(), "google")
    assert matcher.match("GОogle", "Google").is_homograph


def test_match_against_and_reference_index():
    matcher = _matcher()
    references = ["google", "amazon", "facebook", "apple"]
    index = build_reference_index(references)
    assert set(index) == {6, 8, 5}
    matches = match_with_index(matcher, "gоogle", index)
    assert [m.reference for m in matches] == ["google"]
    assert matcher.match_against("аmazon", references)[0].reference == "amazon"
    assert matcher.match_against("nomatch", references) == []


def test_find_homographs_many_to_many():
    matcher = _matcher()
    candidates = ["gоogle", "аmazon", "plain", "аpple"]
    references = ["google", "amazon", "apple"]
    results = matcher.find_homographs(candidates, references)
    assert {(r.candidate, r.reference) for r in results} == {
        ("gоogle", "google"), ("аmazon", "amazon"), ("аpple", "apple"),
    }


def test_symmetry_of_database_pairs():
    # The database stores unordered pairs, so either direction matches.
    matcher = _matcher()
    assert matcher.is_homograph("gоogle", "google")
    assert matcher.is_homograph("google", "gоogle")


# -- length-preserving case folding (U+0130 regression) ------------------------


def test_fold_label_preserves_length():
    # str.lower() turns U+0130 "İ" into "i" + a combining dot (two chars);
    # fold_label keeps such characters unfolded so indices stay valid.
    assert len("İx".lower()) == 3
    assert fold_label("İx") == "İx"
    assert fold_label("GOOGLE") == "google"
    assert fold_label("GОOGLE") == "gоogle"    # Cyrillic О folds too
    assert fold_label("") == ""


def test_expanding_case_fold_does_not_shift_positions():
    db = HomoglyphDatabase()
    db.add_pair("İ", "i", source=SOURCE_UC)
    db.add_pair("o", "о", source=SOURCE_UC)
    matcher = HomographMatcher(db)
    # Before the fix, "İxо".lower() was 4 characters long, so the length
    # check rejected the pair outright; now it matches, and the reported
    # positions are valid indices into the *original* labels.
    result = matcher.match("İxо", "ixo")
    assert result.is_homograph
    assert [s.position for s in result.substitutions] == [0, 2]
    assert result.substitutions[0].candidate_char == "İ"
    assert "İxо"[result.substitutions[0].position] == "İ"


def test_uppercase_candidate_still_matches_after_fold_fix():
    matcher = _matcher()
    result = matcher.match("GОOGLE", "google")
    assert result.is_homograph
    assert result.substitutions[0].position == 1
