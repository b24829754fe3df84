"""Reference preparation and the index writer against their loop oracles.

``ShamFinder.prepare_references`` reads a plain name's registrable label
straight off its text, and ``repro.detection.index`` lays out its offset
directories (little-endian uint64 END offsets) from the separator bytes of
each encoded section; ``oracles.reference_prepare`` keeps the
``DomainName``-per-reference loop and the record-by-record offset loop they
replaced.
"""

import struct

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles.reference_prepare import offset_directory, prepare_references
from repro.detection import index as index_module
from repro.detection.index import ReferenceIndex, ReferenceIndexStore, key_for
from repro.detection.shamfinder import ShamFinder
from repro.homoglyph.database import SOURCE_UC, HomoglyphDatabase
from repro.idn.domain import DomainName


def _finder() -> ShamFinder:
    db = HomoglyphDatabase(name="prepare-test")
    for first, second in (("o", "0"), ("l", "1"), ("a", "а"), ("e", "е"), ("o", "о")):
        db.add_pair(first, second, source=SOURCE_UC)
    return ShamFinder(db)


FINDER = _finder()

SPECIAL_LABELS = [
    "", "a", "A", "Ab", "_x", "x_", "-a", "a-", "xn--", "XN--ggle-55da", "xn--ggle-55da",
    "xn--zz", "ab--c", "a---b", "a--b", "a" * 63, "a" * 64, "B" * 63, "gооgle", "пример",
    "a b", " a", "a\t", "a\nb", "co", "jp", "g00gle", "google",
]
LABELS = st.one_of(
    st.sampled_from(SPECIAL_LABELS),
    st.text(alphabet="abcoelAO01-_ \t", min_size=0, max_size=8),
)
NAMES = st.one_of(
    st.builds(lambda labels, dot: ".".join(labels) + dot,
              st.lists(LABELS, min_size=1, max_size=4), st.sampled_from(["", ".", ".."])),
    # 63-octet labels around the 253/254-octet name limit
    st.builds(lambda tail, first: ".".join([first * 63] * 3 + ["b" * tail]),
              st.integers(58, 64), st.sampled_from(["a", "A"])),
)


def _same_prepared(actual, expected) -> None:
    assert list(actual.labels.items()) == list(expected.labels.items())
    assert actual.domain_count == expected.domain_count
    assert list(actual.index.buckets()) == list(expected.index.buckets())
    assert len(actual.index) == len(expected.index)


@settings(max_examples=400, deadline=None)
@given(st.lists(NAMES, max_size=12))
@example(["google.com", "google.co.jp", "g00gle.com", "www.google.com", "google.com"])
@example(["a" * 63 + "." + "b" * 63 + "." + "c" * 63 + "." + "d" * 61,
          "a" * 63 + "." + "b" * 63 + "." + "c" * 63 + "." + "d" * 62])
@example(["", "com", "a.b.c.d", "x.", "xn--ggle-55da.com"])
@example(["a" * 63 + ".com", "b" * 64 + ".com", "c" * 64])
def test_prepare_references_matches_the_domainname_oracle(names):
    _same_prepared(FINDER.prepare_references(names), prepare_references(FINDER, names))


def test_prepare_references_takes_domainname_items_and_empty_lists():
    names = [DomainName("google.com"), "amazon.com", DomainName("xn--ggle-55da.com"),
             DomainName("пример.рф"), "Apple.NET"]
    _same_prepared(FINDER.prepare_references(names), prepare_references(FINDER, names))
    _same_prepared(FINDER.prepare_references(iter(names)), prepare_references(FINDER, names))
    _same_prepared(FINDER.prepare_references([]), prepare_references(FINDER, []))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=12),
                max_size=30))
@example([])
@example(["", "", ""])
@example(["abc", "дом", "日本語", "𝔸x", ""])
@example(["a\x1fb", "\x1e", "\n", "\x1f\x1f", "é\n\x1e"])
def test_offset_directory_matches_the_record_loop(records):
    for separator in ("\x1f", "\x1e"):
        section = separator.join(records).encode("utf-8")
        directory = index_module._offset_directory(records, section, separator)
        assert np.frombuffer(directory, dtype="<u8").tolist() == offset_directory(records)


def test_artifact_bytes_match_the_oracle_layout(tmp_path, monkeypatch):
    names = ["google.com", "google.co.jp", "g00gle.net", "gооgle.com", "xn--80ak6aa92e.com",
             "amazon.com", "Apple.COM", "bad..name", "пример.рф"]
    key = key_for(FINDER, names)
    produced = ReferenceIndexStore(tmp_path / "new").store(
        ReferenceIndex(FINDER.prepare_references(names), key))
    monkeypatch.setattr(index_module, "_offset_directory",
                        lambda records, _section, _separator:
                        struct.pack(f"<{len(records)}Q", *offset_directory(records)))
    expected = ReferenceIndexStore(tmp_path / "oracle").store(
        ReferenceIndex(prepare_references(FINDER, names), key))
    assert produced.read_bytes() == expected.read_bytes()
