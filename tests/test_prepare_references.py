"""Reference preparation and the index writer against their loop oracles.

``PreparedReferences.build`` (what ``ShamFinder.prepare_references``
encodes and attaches) reads a plain name's registrable label straight off
its text, and ``repro.detection.index`` lays out its offset directories
(little-endian uint64 END offsets) from the separator bytes of each
encoded section; ``oracles.reference_prepare`` keeps the
``DomainName``-per-reference loop and the record-by-record offset loop they
replaced.
"""

import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles.reference_prepare import offset_directory, prepare_references
from repro.detection import index as index_module
from repro.detection.index import (
    ReferenceIndexStore,
    build_reference_index,
    encode_index,
    key_for,
)
from repro.detection.shamfinder import PreparedReferences, ShamFinder
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


def _build(names):
    return PreparedReferences.build(names, FINDER.matcher.classes)


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
    _same_prepared(_build(names), prepare_references(FINDER, names))


def test_prepare_references_takes_domainname_items_and_empty_lists():
    names = [DomainName("google.com"), "amazon.com", DomainName("xn--ggle-55da.com"),
             DomainName("пример.рф"), "Apple.NET"]
    _same_prepared(_build(names), prepare_references(FINDER, names))
    _same_prepared(_build(iter(names)), prepare_references(FINDER, names))
    _same_prepared(_build([]), prepare_references(FINDER, []))
    # The attached form takes the same inputs: an iterator is read once.
    assert FINDER.prepare_references(iter(names)).domain_count == len(names)
    assert len(FINDER.prepare_references([]).labels) == 0


@settings(max_examples=300, deadline=None)
@given(st.lists(st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=12),
                max_size=30))
@example([])
@example(["", "", ""])
@example(["abc", "дом", "日本語", "𝔸x", ""])
@example(["a\x1fb", "\x1e", "\n", "\x1f\x1f", "é\n\x1e"])
@example(["\x1f"])
def test_offset_directory_matches_the_record_loop(records):
    for separator in ("\x1f", "\x1e"):
        section = separator.join(records).encode("utf-8")
        if any(separator in record for record in records):
            # It would read back split: the encoder names it instead.
            with pytest.raises(ValueError, match="holds its section separator"):
                index_module._offset_directory(records, section, separator)
            continue
        directory = index_module._offset_directory(records, section, separator)
        assert np.frombuffer(directory, dtype="<u8").tolist() == offset_directory(records)


def test_artifact_bytes_match_the_oracle_layout(tmp_path, monkeypatch):
    names = ["google.com", "google.co.jp", "g00gle.net", "gооgle.com", "xn--80ak6aa92e.com",
             "amazon.com", "Apple.COM", "bad..name", "пример.рф"]
    key = key_for(FINDER, names)
    produced = ReferenceIndexStore(tmp_path).store(build_reference_index(FINDER, names))
    monkeypatch.setattr(index_module, "_offset_directory",
                        lambda records, _section, _separator:
                        struct.pack(f"<{len(records)}Q", *offset_directory(records)))
    assert produced.read_bytes() == encode_index(prepare_references(FINDER, names), key)
