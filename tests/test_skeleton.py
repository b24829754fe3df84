"""Skeleton-index matcher: unit and property tests.

The property suite is the safety net under the tentpole optimisation: over
random labels and random databases the skeleton hash-join must return
exactly what the legacy pairwise scan returns, skeletonisation must be
idempotent, and the class-representative choice must not depend on the
order pairs were inserted in.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.pairwise_matcher import find_homographs_pairwise
from repro.detection.algorithm import HomographMatcher, fold_label
from repro.detection.skeleton import CharacterClasses, SkeletonIndex
from repro.homoglyph.database import SOURCE_SIMCHAR, HomoglyphDatabase

# A deliberately small alphabet so random pairs form chains (non-transitive
# closures) and random labels actually collide with the classes.  Mixed
# case exercises the fold path.
_ALPHABET = "abcdefgh" + "ABCД" + "абвгде" + "αβγδ"

chars = st.sampled_from(_ALPHABET)
char_pairs = st.tuples(chars, chars).filter(
    lambda t: fold_label(t[0]) != fold_label(t[1])
)
pair_lists = st.lists(char_pairs, max_size=25)
labels = st.text(alphabet=_ALPHABET, min_size=1, max_size=8)
label_lists = st.lists(labels, max_size=20)


def _database(pair_list) -> HomoglyphDatabase:
    db = HomoglyphDatabase()
    for first, second in pair_list:
        db.add_pair(first, second, source=SOURCE_SIMCHAR)
    return db


# -- unit: the closure and the index ----------------------------------------


def test_classes_union_chains():
    db = _database([("a", "b"), ("b", "c"), ("x", "y")])
    classes = CharacterClasses(db)
    assert classes.representative("a") == "a"
    assert classes.representative("b") == "a"
    assert classes.representative("c") == "a"     # via the chain, not a pair
    assert classes.representative("x") == "x"
    assert classes.representative("q") == "q"     # unknown chars map to themselves
    assert classes.class_of("c") == frozenset("abc")
    assert len(classes) == 5


def test_skeleton_index_buckets_by_skeleton():
    db = _database([("o", "о"), ("a", "а")])
    matcher = HomographMatcher(db)
    index = matcher.build_skeleton_index(["google", "gооgle", "amazon"])
    assert isinstance(index, SkeletonIndex)
    assert len(index) == 3
    assert index.bucket_count == 2               # google/gооgle share a skeleton
    assert index.candidates_for("gоogle") == ["google", "gооgle"]
    assert index.candidates_for("nomatch") == []


def test_skeleton_join_requires_exact_recheck():
    # a~b and b~c chain: "a" and "c" share a skeleton but are NOT homoglyphs,
    # so the bucket hit must be discarded by the exact Algorithm 1 check.
    db = _database([("a", "b"), ("b", "c")])
    matcher = HomographMatcher(db)
    assert matcher.classes.skeletonize("c") == matcher.classes.skeletonize("a")
    assert matcher.find_homographs(["c"], ["a"]) == []
    assert matcher.find_homographs(["b"], ["a"]) != []


# -- properties --------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(pair_lists, label_lists, label_lists)
def test_skeleton_path_identical_to_pairwise(pair_list, candidates, references):
    matcher = HomographMatcher(_database(pair_list))
    indexed = matcher.find_homographs(candidates, references)
    pairwise = find_homographs_pairwise(matcher, candidates, references)
    assert indexed == pairwise        # full MatchResult lists, order included


@settings(max_examples=200, deadline=None)
@given(pair_lists, labels)
def test_skeletonize_is_idempotent_and_length_preserving(pair_list, label):
    classes = CharacterClasses(_database(pair_list))
    skeleton = classes.skeletonize(label)
    assert len(skeleton) == len(label)
    assert classes.skeletonize(skeleton) == skeleton


@settings(max_examples=150, deadline=None)
@given(pair_lists, st.integers(0, 2**32 - 1))
def test_representative_choice_is_insertion_order_independent(pair_list, seed):
    shuffled = list(pair_list)
    random.Random(seed).shuffle(shuffled)
    original = CharacterClasses(_database(pair_list))
    reordered = CharacterClasses(_database(shuffled))
    assert original.representatives() == reordered.representatives()


@settings(max_examples=150, deadline=None)
@given(pair_lists)
def test_representative_is_lowest_codepoint_of_class(pair_list):
    classes = CharacterClasses(_database(pair_list))
    for char in classes.representatives():
        members = classes.class_of(char)
        assert classes.representative(char) == min(members, key=ord)
        # Every member agrees on the representative.
        assert {classes.representative(m) for m in members} == {
            classes.representative(char)
        }


@settings(max_examples=150, deadline=None)
@given(pair_lists, labels, label_lists)
def test_match_against_uses_index_and_agrees_with_single_match(pair_list, candidate, references):
    matcher = HomographMatcher(_database(pair_list))
    via_index = matcher.match_against(candidate, references)
    direct = [
        matcher.match(candidate, reference)
        for reference in references
        if matcher.match(candidate, reference).is_homograph
    ]
    assert via_index == direct
