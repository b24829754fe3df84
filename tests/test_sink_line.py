"""The scan sink's line writer against ``json.dumps(as_dict())``, and the
sources a detection credits against a per-substitution database lookup."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles.sink_line import sink_line
from repro.detection.algorithm import CharacterSubstitution
from repro.detection.report import HomographDetection
from repro.detection.shamfinder import ShamFinder
from repro.homoglyph.database import (
    SOURCE_INVISIBLE,
    SOURCE_SIMCHAR,
    SOURCE_UC,
    HomoglyphDatabase,
    HomoglyphPair,
)
from repro.homoglyph.invisible import InvisibleFinding, default_invisible_table
from repro.idn.punycode import encode

#: Characters JSON escapes (quote, backslash, C0 controls, DEL is not one)
#: or that a careless writer might: U+2028/U+2029, a lone surrogate,
#: bidi and zero-width controls, combining marks, non-BMP code points.
_AWKWARD = ("\"\\/\x00\x01\x08\t\n\x0c\r\x1f\x7f\x80\u00e9\u0301\u200b\u200d\u202e"
            "\u2028\u2029\ud800\ufeff\U0001F600\U0010FFFD")
_TEXT = st.text(alphabet=st.one_of(st.sampled_from(_AWKWARD), st.characters()), max_size=12)
_CHAR = _TEXT.filter(lambda text: len(text) == 1) | st.sampled_from(_AWKWARD)
_CATEGORIES = st.sampled_from(["zero-width", "bidi-control", "invisible-operator",
                               "soft-hyphen", "variation-selector", "combining-stack"])
_DETECTIONS = st.builds(
    HomographDetection,
    idn=_TEXT,
    idn_unicode=_TEXT,
    reference=_TEXT,
    substitutions=st.lists(st.builds(CharacterSubstitution, st.integers(0, 62), _CHAR, _CHAR),
                           max_size=3).map(tuple),
    sources=st.frozensets(st.sampled_from([SOURCE_UC, SOURCE_SIMCHAR, SOURCE_INVISIBLE]) | _TEXT,
                          max_size=3),
    invisibles=st.lists(st.builds(InvisibleFinding, st.integers(0, 62), _CHAR, _CATEGORIES),
                        max_size=3).map(tuple),
)


@settings(max_examples=400, deadline=None)
@given(_DETECTIONS)
@example(HomographDetection("xn--ggle-55da.com", "gооgle.com", "google.com",
                            (CharacterSubstitution(1, "о", "o"),
                             CharacterSubstitution(2, "о", "o")),
                            frozenset({SOURCE_UC, SOURCE_SIMCHAR})))
@example(HomographDetection("xn--a.com", "a\u200b\u202eb.com", "ab.com", (),
                            frozenset({SOURCE_INVISIBLE}),
                            (InvisibleFinding(1, "\u200b", "zero-width"),
                             InvisibleFinding(2, "\u202e", "bidi-control"),
                             InvisibleFinding(3, "\u0301", "combining-stack"))))
@example(HomographDetection("", "", ""))
def test_as_json_is_the_json_dumps_line(detection):
    assert detection.as_json() == sink_line(detection)


def _finder(pairs):
    database = HomoglyphDatabase()
    for first, second, sources in pairs:
        database.add(HomoglyphPair(first, second, frozenset(sources)))
    return ShamFinder(database)


_PAIRS = [("o", "о", {SOURCE_UC, SOURCE_SIMCHAR}), ("a", "а", {SOURCE_UC}),
          ("e", "é", {SOURCE_SIMCHAR}), ("l", "1", {SOURCE_SIMCHAR}), ("g", "ɡ", {SOURCE_UC})]


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="oaelg", min_size=1, max_size=8),
       st.lists(st.booleans(), min_size=8, max_size=8))
def test_detection_sources_are_those_of_the_substituted_pairs(reference, swaps):
    finder = _finder(_PAIRS)
    homoglyph = {first: second for first, second, _ in _PAIRS}
    candidate = "".join(homoglyph[char] if swap else char
                        for char, swap in zip(reference, swaps))
    prepared = finder.prepare_references([f"{reference}.com", f"{reference}.net"])
    detections, _idns, _skipped = finder.detect_prepared([f"{candidate}.com"], prepared)
    if candidate == reference:
        assert detections == []
        return
    expected = set()
    for cand_char, ref_char in zip(candidate, reference):
        if cand_char != ref_char:
            expected |= finder.database.get(cand_char, ref_char).sources
    [detection] = detections
    assert detection.reference == f"{reference}.com"
    assert detection.sources == frozenset(expected)
    assert [s.position for s in detection.substitutions] == [
        i for i, (a, b) in enumerate(zip(candidate, reference)) if a != b]


def test_invisible_match_credits_the_invisible_table():
    # Zero-width characters are IDNA-disallowed: they arrive pre-encoded.
    finder = ShamFinder(_finder(_PAIRS).database, invisible_table=default_invisible_table())
    prepared = finder.prepare_references(["google.com"])
    candidates = [f"xn--{encode(label)}.com" for label in ("go\u200bоgle", "goo\u200bgle")]
    detections, _idns, _skipped = finder.detect_prepared(candidates, prepared)
    assert [sorted(d.sources) for d in detections] == [
        [SOURCE_INVISIBLE, SOURCE_SIMCHAR, SOURCE_UC], [SOURCE_INVISIBLE]]
    assert all(d.as_json() == sink_line(d) for d in detections)
